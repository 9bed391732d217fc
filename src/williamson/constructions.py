"""Sequence constructions: doubling, 8-Williamson extraction, Hadamard assembly.

The doubling construction interleaves each of two member pairs with a rotated
partner: given Williamson sequences A, B, C, D of odd order n,

    A x B*, (-A) x B*, C x D*, (-C) x D*

are Williamson sequences of order 2n, where x is the perfect shuffle and B*
is B rotated so that the shuffle stays symmetric (entry i of X* is
x[(i + (n+1)/2) mod n], i.e. a cyclic shift by half the order).  Extraction
inverts the construction: any Williamson sequence of order 2n (n odd)
de-interleaves into eight symmetric sequences whose PAF values sum to zero,
which `verify_williamson` checks exactly as it does for four.  The Hadamard
matrix places the circulant matrices of A, B, C, D in the Williamson array;
each circulant block is one index array (j - i) mod n applied to its first row.
"""
from __future__ import annotations

import numpy as np

from .equivalence import distinct_forms
from .seqcore import Quadruple, SymmetricSequence, _entries_of, verify_williamson


def interleave(a, b) -> tuple:
    """Perfect shuffle: [a0, b0, a1, b1, ...]."""
    ea, eb = _entries_of(a), _entries_of(b)
    if len(ea) != len(eb):
        raise ValueError("interleave requires equal orders")
    out = []
    for x, y in zip(ea, eb):
        out.append(x)
        out.append(y)
    return tuple(out)


def deinterleave(x) -> tuple:
    """Inverse of interleave: (even-index entries, odd-index entries)."""
    e = _entries_of(x)
    if len(e) % 2 != 0:
        raise ValueError("deinterleave requires even length")
    return e[0::2], e[1::2]


def shift_half(a) -> tuple:
    """Cyclic shift of an odd-order sequence by half the order.

    Entry i of the result is a[(i + (n+1)/2) mod n]; this is the orientation
    under which the shuffle of two symmetric sequences is again symmetric.
    """
    e = _entries_of(a)
    n = len(e)
    if n % 2 == 0:
        raise ValueError("shift_half requires odd order")
    h = (n + 1) // 2
    return tuple(e[(i + h) % n] for i in range(n))


def unshift_half(a) -> tuple:
    """Inverse of shift_half."""
    e = _entries_of(a)
    n = len(e)
    if n % 2 == 0:
        raise ValueError("unshift_half requires odd order")
    h = (n - 1) // 2
    return tuple(e[(i + h) % n] for i in range(n))


def double(q: Quadruple) -> Quadruple:
    """Williamson sequences of order 2n from Williamson sequences of odd order n."""
    n = q.order
    if n % 2 == 0:
        raise ValueError("doubling requires odd order")
    if not verify_williamson(q):
        raise ValueError("input quadruple is not Williamson")
    a, b, c, d = (x.entries for x in q.members)
    bs, ds = shift_half(b), shift_half(d)
    neg = lambda e: tuple(-v for v in e)
    return Quadruple(
        SymmetricSequence(interleave(a, bs)),
        SymmetricSequence(interleave(neg(a), bs)),
        SymmetricSequence(interleave(c, ds)),
        SymmetricSequence(interleave(neg(c), ds)),
    )


def extract_eight_williamson(q: Quadruple) -> tuple:
    """Split a Williamson sequence of order 2n (n odd) into an 8-Williamson
    sequence of order n, a tuple of eight `SymmetricSequence`, by
    de-interleaving each member and un-rotating the odd-position part."""
    order = q.order
    if order % 2 != 0 or (order // 2) % 2 == 0:
        raise ValueError("extraction requires order 2n with n odd")
    if not verify_williamson(q):
        raise ValueError("input quadruple is not Williamson")
    members = []
    for x in q.members:
        evens, odds = deinterleave(x.entries)
        members.append(SymmetricSequence(evens))
        members.append(SymmetricSequence(unshift_half(odds)))
    if not verify_williamson(members):
        raise AssertionError("extracted octuple fails the PAF identity")
    return tuple(members)


def dedupe_octuples(octuples) -> list:
    """One octuple per equivalence class, each a tuple of eight `SymmetricSequence`."""
    return [tuple(map(SymmetricSequence, form.tolist())) for form in distinct_forms(octuples)]


def assemble_hadamard(q: Quadruple) -> np.ndarray:
    """The 4n x 4n Hadamard matrix, an int64 array, built from circulant blocks:

        [  A  B  C  D ]
        [ -B  A -D  C ]
        [ -C  D  A -B ]
        [ -D -C  B  A ]

    where block X has entry (i, j) = x[(j - i) mod n].  Raises ValueError
    unless h @ h.T == 4n * I exactly.
    """
    if not verify_williamson(q):
        raise ValueError("input quadruple is not Williamson")
    n = q.order
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    a, b, c, d = np.array([x.entries for x in q.members], dtype=np.int64)[:, idx]
    h = np.block(
        [
            [a, b, c, d],
            [-b, a, -d, c],
            [-c, d, a, -b],
            [-d, -c, b, a],
        ]
    )
    if not np.array_equal(h @ h.T, 4 * n * np.eye(4 * n, dtype=np.int64)):
        raise ValueError("rows are not pairwise orthogonal")
    return h
