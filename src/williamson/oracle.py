"""Brute-force ground truth for small orders.

Enumerates every symmetric ±1 quadruple and keeps the ones whose PAF values
sum to zero, with no equivalence reduction, no spectral filtering and no
compression.  Deliberately kept free of any machinery shared with the real
pipeline so it can serve as an independent oracle.  The quadruple test looks
up, for every (A, B) pair, the (C, D) pairs whose PAF sums cancel its own, in
a table of all pair sums.
"""
from __future__ import annotations

import numpy as np

from .seqcore import Quadruple

MAX_ORDER = 12


def _check_budget(n: int) -> None:
    if n < 1 or n > MAX_ORDER:
        raise ValueError(f"order {n} beyond the brute-force budget (1..{MAX_ORDER})")


def all_symmetric_sequences(n: int) -> np.ndarray:
    """All 2^(n//2+1) symmetric ±1 sequences of order n, as full-entry rows."""
    f = n // 2 + 1
    count = 1 << f
    bits = (np.arange(count, dtype=np.uint32)[:, None] >> np.arange(f - 1, -1, -1, dtype=np.uint32)) & 1
    free = 1 - 2 * bits.astype(np.int8)  # bit 0 -> +1, bit 1 -> -1
    fold = np.array([i if i <= n // 2 else n - i for i in range(n)])
    return free[:, fold]


def _paf_matrix(rows: np.ndarray) -> np.ndarray:
    n = rows.shape[1]
    shifts = n // 2
    out = np.empty((rows.shape[0], shifts), dtype=np.int32)
    for s in range(1, shifts + 1):
        out[:, s - 1] = (rows.astype(np.int32) * np.roll(rows, -s, axis=1)).sum(axis=1)
    return out


def brute_force_enumerate(n: int) -> list:
    """Every Williamson quadruple of order n, as ordered quadruples."""
    return [Quadruple(rows[ia], rows[ib], rows[ic], rows[idd])
            for ia, ib, ic, idd, rows in _enumerate_index_tuples(n)]


def _enumerate_index_tuples(n: int):
    _check_budget(n)
    rows = all_symmetric_sequences(n)
    count = rows.shape[0]
    paf = _paf_matrix(rows)
    # all pair sums of PAF vectors, indexed by ia*count+ib
    pair = (paf[:, None, :] + paf[None, :, :]).reshape(count * count, -1)
    by_sum = {}  # pair sum bytes -> ascending pair indices with that sum
    for cd in range(count * count):
        by_sum.setdefault(pair[cd].tobytes(), []).append(cd)
    negated = -pair
    for ab in range(count * count):
        ia, ib = divmod(ab, count)
        for cd in by_sum.get(negated[ab].tobytes(), ()):
            ic, idd = divmod(cd, count)
            yield ia, ib, ic, idd, rows


def brute_force_uncompress(mc, n: int) -> list:
    """The Williamson quadruples of order n whose m-compressions equal the
    four rows of mc (rows with illegal entries give [])."""
    _check_budget(n)
    targets = [tuple(int(v) for v in row) for row in mc]
    d = len(targets[0])
    if n % d != 0:
        raise ValueError(f"compressed length {d} does not divide order {n}")
    m = n // d
    legal = set(range(-m, m + 1, 2))
    if any(len(t) != d or any(v not in legal for v in t) for t in targets):
        return []

    def compressed(x) -> tuple:
        e = x.entries
        return tuple(sum(e[j + k * d] for k in range(m)) for j in range(d))

    return [q for q in brute_force_enumerate(n) if [compressed(x) for x in q.members] == targets]
