"""Rowsum decompositions: 4n as an ordered sum of four squares.

Every Williamson sequence of order n has rowsums whose squares sum to 4n.
Up to reordering and negation of members it suffices to consider one
normalized tuple per solution: for even n the rowsums are taken nonnegative
and sorted; for odd n each rowsum sign is fixed by r = n (mod 4), which also
forces the first entry of every member to +1, and tuples are sorted by
absolute value.  A decomposition is a plain 4-tuple of ints (ra, rb, rc, rd),
the rowsums of A, B, C and D.
"""
from __future__ import annotations

import itertools
import math


def sign_fix(r: int, n: int) -> int:
    """Return whichever of +|r|, -|r| is congruent to n mod 4 (n odd)."""
    if n % 2 == 0:
        raise ValueError("sign_fix applies to odd orders only")
    if r % 2 == 0:
        raise ValueError("rowsum of an odd-order ±1 sequence must be odd")
    r = abs(r)
    return r if r % 4 == n % 4 else -r


def decompose_four_squares(n: int) -> list:
    """All normalized decompositions ra^2+rb^2+rc^2+rd^2 = 4n, as 4-tuples
    sorted by their absolute values.

    The ascending 4-multisets of values 0..isqrt(4n) with the parity of n,
    filtered on their sum of squares; they come sorted by absolute value.
    """
    if n < 1:
        raise ValueError("order must be positive")
    values = range(n % 2, math.isqrt(4 * n) + 1, 2)
    out = [t for t in itertools.combinations_with_replacement(values, 4)
           if sum(v * v for v in t) == 4 * n]
    return [tuple(sign_fix(v, n) for v in t) for t in out] if n % 2 else out
