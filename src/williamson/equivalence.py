"""Equivalence operations on Williamson sequences and canonical representatives.

Five invertible operations generate the equivalence classes:

  E1  reorder the four members
  E2  negate all entries of one member
  E3  cyclically shift one member by n/2          (even n only)
  E4  apply an automorphism i -> k*i of Z_n to all members at once
  E5  negate every second entry of all members    (even n only)

Each operation is written once, as a move on a tuple of member entry tuples
(`_e1` .. `_e5`).  `apply_equivalence` checks its arguments and applies one
move; `expand_class` closes a quadruple under all of them.

The canonical representative of a class is its lexicographic minimum, where
+1 sorts before -1 and members are compared in order.  E4 and E5 map each
member's {id, E2, E3, E2*E3} orbit to the image's, so the minimum is found by
trying every (automorphism, E5) choice, then minimizing each member over
{id, E2, E3, E2*E3} and sorting (E1).  `canonical_rows` does this for a whole
stack of k-tuples at once, of full rows or of compressed rows: it is the one
implementation behind class counting, octuple counting and the dedupe of
matched compressions before the SAT stage; it does the image work once per
distinct member row of the whole stack, and the rest on int32 ranks of the
images' codes (`canonical_ranks`), and `first_of_class` picks each class's
first tuple from the ranks alone.  `expand_class` is its reference.
"""
from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .seqcore import Quadruple, _entries_of

_CHUNK_BYTES = 1 << 17  # canonical_rows codes a block of tuples in about this many bytes


def units(n: int) -> list:
    """Multipliers of the phi(n) automorphisms of the cyclic group Z_n."""
    return [k for k in range(1, n + 1) if math.gcd(k, n) == 1]


@lru_cache(maxsize=None)
def _group(n: int, length: int) -> tuple:
    """How E3-E5 act on rows of `length` entries (a divisor of n): full rows
    of order n, or their (n/length)-compressions.

    Returns the distinct E4 index maps i -> u*i mod length, the E5 sign rows
    (E5 reaches the rows only when n and length are both even) and the E3
    shift (n/2) mod length (0 when n is odd; it is 0 on 2-compressions).
    """
    maps = np.unique(np.outer(units(n), np.arange(length)) % length, axis=0, return_index=True)[0]
    signs = np.ones((1, length), dtype=np.int8)
    if n % 2 == 0 and length % 2 == 0:
        signs = np.array([signs[0], np.where(np.arange(length) % 2, -1, 1)], dtype=np.int8)
    maps.setflags(write=False)  # cached: every caller gets these arrays
    signs.setflags(write=False)
    return maps, signs, (n // 2) % length if n % 2 == 0 else 0


def _e1(members: tuple, perm) -> tuple:
    """E1: member i of the image is members[perm[i]]."""
    return tuple(members[i] for i in perm)


def _e2(members: tuple, i: int) -> tuple:
    """E2: negate member i."""
    return members[:i] + (tuple(-v for v in members[i]),) + members[i + 1:]


def _e3(members: tuple, i: int) -> tuple:
    """E3: shift member i cyclically by n/2."""
    h = len(members[i]) // 2
    return members[:i] + (members[i][h:] + members[i][:h],) + members[i + 1:]


def _e4(members: tuple, k: int) -> tuple:
    """E4: entry j of each member becomes entry k*j mod n."""
    n = len(members[0])
    return tuple(tuple(e[k * j % n] for j in range(n)) for e in members)


def _e5(members: tuple) -> tuple:
    """E5: negate every second entry of every member."""
    return tuple(tuple(-v if j % 2 else v for j, v in enumerate(e)) for e in members)


def apply_equivalence(q: Quadruple, op: str, *, perm=None, member=None, k=None) -> Quadruple:
    """Apply one equivalence operation; every operation is invertible."""
    n = q.order
    members = tuple(x.entries for x in q.members)
    if op in ("E3", "E5") and n % 2 != 0:
        raise ValueError(f"{op} requires even order")
    if op == "E1":
        if perm is None or sorted(perm) != [0, 1, 2, 3]:
            raise ValueError("E1 requires perm, a permutation of (0,1,2,3)")
        members = _e1(members, perm)
    elif op in ("E2", "E3"):
        if member not in range(4):
            raise ValueError(f"{op} requires a member index in 0..3, got {member!r}")
        members = (_e2 if op == "E2" else _e3)(members, member)
    elif op == "E4":
        if k is None:
            raise ValueError("E4 requires multiplier k")
        if math.gcd(k, n) != 1:
            raise ValueError(f"k={k} is not coprime to n={n}")
        members = _e4(members, k)
    elif op == "E5":
        members = _e5(members)
    else:
        raise ValueError(f"unknown operation {op!r}")
    return Quadruple(*members)


def canonical_ranks(rows, n: int) -> tuple:
    """`canonical_rows` without the decoding: S x k int32 ranks into `values`,
    the sorted codes of least images, which `decode` maps to int8 rows.  Two
    tuples of one call have equal forms exactly when their ranks are equal."""
    rows = np.asarray(rows, dtype=np.int8)
    count, k, length = rows.shape
    maps, signs, shift = _group(n, length)
    m, bits = n // length, (n // length).bit_length()
    # a row's code sums (m - v)/2 * 2^(bits * place) over its entries v, so codes order
    # as rows do; a float64 holds it exactly below 2^53, or else a complex number holds
    # the first h entries in its real part, which NumPy compares first
    parts = 1 if bits * length <= 53 else 2
    h, kind = -(-length // parts), float if parts == 1 else complex
    if bits * h > 53:
        raise ValueError(f"rows of length {length} are too long to code")
    place = h - 1 - np.arange(parts * h) % h  # of each entry within its part
    halves = np.eye(parts)[np.arange(length) // h] * 2.0 ** (bits * place[:length, None] - 1)
    base = m * halves.sum(axis=0)  # the code of a row of zeros; halves are half the weights

    def code(x, weights=halves):  # the codes of rows x, or of their images under `images`
        return (base - np.tensordot(x, weights, axes=1)).view(kind)[..., 0]

    def decode(c):
        d = c[..., None].view(float).astype(np.int64).repeat(h, axis=-1) >> bits * place & (1 << bits) - 1
        return (m - 2 * d.astype(np.int8))[..., :length]

    step, distinct, new = max(1, _CHUNK_BYTES // (8 * k * length)), np.empty(0, kind), []
    for lo in range(0, count, step):  # a block codes 8 bytes an entry
        new.append(code(rows[lo:lo + step]).ravel())
        if lo + step >= count or len(new) * step * k > len(distinct):  # merges sort < 2 codes a row
            distinct, new = np.sort(np.concatenate([distinct, *new])), []  # np.unique here loads numpy.ma
            distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
    # codes are linear in the entries: `images` holds each entry's weights in the
    # (E4, E5) images and their E3 images; E2 maps a code c to 2 * base - c
    cols = np.array([np.arange(length), np.roll(np.arange(length), -shift)][:1 + bool(shift)])
    images = (np.eye(length, dtype=np.int8)[:, None, maps[:, cols]] * signs[:, None, cols]) @ halves
    least = code(decode(distinct), images)
    least = np.minimum(least, (2 * base).view(kind)[0] - least).min(axis=-1).ravel()
    # ranks order as the codes do: the rest of the work is on one int32 table
    values, table = np.unique(least, return_inverse=True)
    table = table.astype(np.int32).reshape(len(distinct), -1)
    ranks = np.empty((count, k), dtype=np.int32)
    for lo in range(0, count, step):
        t = list(table[np.searchsorted(distinct, code(rows[lo:lo + step])).T])  # k x block x choices
        for r in range(k):  # E1 sorts each choice's ranks: an odd-even transposition network
            for j in range(r % 2, k - 1, 2):
                t[j], t[j + 1] = np.minimum(t[j], t[j + 1]), np.maximum(t[j], t[j + 1], out=t[j + 1])
        alive = True  # the least choice, member by member; len(values) ranks past every code
        for j, x in enumerate(t):
            col = np.where(alive, x, len(values))
            ranks[lo:lo + step, j] = best = col.min(axis=1)
            alive = col == best[:, None]
    return ranks, values, decode


def canonical_rows(rows, n: int) -> np.ndarray:
    """Canonical form of each k-tuple in an S x k x L stack of integer rows.

    k is 4 for quadruples and 8 for octuples; L = n for full ±1 rows and
    L = n/m for m-compressions (sums of m entries ±1), on which the group of
    order n acts as `_group` describes.  Rows are ordered lexicographically
    with the larger entry first (+1 before -1) and tuples member by member;
    the canonical form is the least image.  E1-E3 act within the tuple, so
    each (E4, E5) image is minimized over {id, E2, E3, E2*E3} per member,
    then sorted: once for each distinct row of the stack, on integer codes.
    """
    rows = np.asarray(rows, dtype=np.int8)
    if len(rows) == 0:
        return rows
    ranks, values, decode = canonical_ranks(rows, n)
    out, step = np.empty_like(rows), max(1, _CHUNK_BYTES // (8 * rows[0].size))
    for lo in range(0, len(rows), step):
        out[lo:lo + step] = decode(values[ranks[lo:lo + step]])
    return out


def first_of_class(ranks) -> tuple:
    """For S x k rows of `canonical_ranks`: is each the first of its class,
    and the index of its class's first among the firsts."""
    _, first, cls = np.unique(ranks.view(f"V{ranks[0].nbytes}")[:, 0], return_index=True, return_inverse=True)
    is_first = np.bincount(first, minlength=len(ranks)) > 0
    return is_first, (np.cumsum(is_first) - 1)[first][cls]


def _stack(tuples) -> np.ndarray:
    """Same-order tuples as an S x k x n int8 stack, each distinct member converted once."""
    index = {}  # entries -> row of the stack
    slots = [[index.setdefault(_entries_of(x), len(index)) for x in t] for t in tuples]
    return np.array(list(index), dtype=np.int8)[slots]


def canonical_forms(tuples) -> np.ndarray:
    """Canonical forms of same-order tuples of ±1 sequences (quadruples,
    octuples or plain tuples of members), as an S x k x n array."""
    rows = _stack(tuples)
    return canonical_rows(rows, rows.shape[-1])


def distinct_forms(tuples) -> list:
    """Canonical forms of the classes among same-order tuples, first-seen order."""
    rows = _stack(tuples)
    if len(rows) == 0:
        return []
    ranks, values, decode = canonical_ranks(rows, rows.shape[-1])
    return list(decode(values[ranks[first_of_class(ranks)[0]]]))


def dedupe(qs) -> list:
    """Distinct canonical forms in first-seen order."""
    return [Quadruple(*form.tolist()) for form in distinct_forms(qs)]


def expand_class(q: Quadruple) -> list:
    """Every quadruple equivalent to q (closure under E1-E5)."""
    n = q.order
    swaps = ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))  # adjacent swaps generate all reorderings
    moves = [partial(_e1, perm=p) for p in swaps] + [partial(_e2, i=i) for i in range(4)]
    moves += [partial(_e4, k=k) for k in units(n)]
    if n % 2 == 0:
        moves += [partial(_e3, i=i) for i in range(4)] + [_e5]

    start = tuple(x.entries for x in q.members)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for move in moves:
                nb = move(state)
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return [Quadruple(*state) for state in seen]
