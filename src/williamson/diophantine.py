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

    Nested loop over the three smallest values with a perfect-square test on
    the remainder; trivially fast for the orders handled here.
    """
    if n < 1:
        raise ValueError("order must be positive")
    target = 4 * n
    parity = n % 2
    out = []
    # enumerate 0 <= a <= b <= c <= d over values with the parity of n
    start = parity  # 0 for even n, 1 for odd n
    limit = math.isqrt(target)
    for a in range(start, limit + 1, 2):
        aa = a * a
        if 4 * aa > target:
            break
        for b in range(a, limit + 1, 2):
            ab = aa + b * b
            if ab + 2 * b * b > target:
                break
            for c in range(b, limit + 1, 2):
                rest = target - ab - c * c
                if rest < c * c:
                    break
                d = math.isqrt(rest)
                if d * d != rest or (d - parity) % 2 != 0:
                    continue
                if parity:
                    out.append(tuple(sign_fix(v, n) for v in (a, b, c, d)))
                else:
                    out.append((a, b, c, d))
    out.sort(key=lambda t: tuple(abs(v) for v in t))
    return out
