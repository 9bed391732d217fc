"""Candidate generation, compression lists, and pair-sum matching.

Step 2 enumerates every symmetric ±1 sequence of order n, keeping those whose
rowsum occurs in some rowsum decomposition and whose PSD never exceeds
4n + epsilon.  Step 3 compresses the survivors by the smallest prime factor m
and groups them by rowsum.  Step 4 finds all compressed quadruples with

    PAF(A') + PAF(B') = [4n, 0, ..., 0] - (PAF(C') + PAF(D'))

by materializing both sides as integer key lists, sorting them, and emitting
matches with a linear merge scan.  Key lists beyond the memory budget are
sorted in chunks spilled to disk (little-endian int32 records of d key values
followed by the two source indices) and k-way merged on read.
"""
from __future__ import annotations

import heapq
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .equivalence import units
from .seqcore import (
    EPSILON_DEFAULT,
    CompressedSequence,
    SymmetricSequence,
    fold_indices,
    psd_halfspectrum,
)

_PSD_CHUNK_ROWS = 1 << 15
DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024


def enumerate_symmetric_free(n: int) -> np.ndarray:
    """Free entries of all 2^(n//2+1) symmetric sequences, one row each."""
    f = n // 2 + 1
    count = 1 << f
    bits = (np.arange(count, dtype=np.uint32)[:, None] >> np.arange(f - 1, -1, -1, dtype=np.uint32)) & 1
    return (1 - 2 * bits).astype(np.int8)


def _expand(free_rows: np.ndarray, n: int) -> np.ndarray:
    return free_rows[:, np.array(fold_indices(n))]


def _free_codes(free_rows: np.ndarray) -> np.ndarray:
    f = free_rows.shape[1]
    bits = (free_rows < 0).astype(np.uint64)
    weights = (np.uint64(1) << np.arange(f - 1, -1, -1, dtype=np.uint64))
    return bits @ weights


@dataclass
class CandidateList:
    """Symmetric sequences with one rowsum that pass the PSD test alone."""

    order: int
    rowsum: int
    free_rows: np.ndarray

    @property
    def members(self) -> list:
        return [SymmetricSequence.from_free(self.order, row) for row in self.free_rows.tolist()]

    def __len__(self):
        return self.free_rows.shape[0]


class CandidateSet:
    """Candidate lists keyed by rowsum, with an orbit-pruned view for the
    A role: of each index-automorphism orbit only the member with minimal
    code is kept (the B, C, D lists must stay complete, since their
    representatives have to match whichever A representative was kept)."""

    def __init__(self, n: int, epsilon: float, lists: dict, examined: int):
        self.n = n
        self.epsilon = epsilon
        self.lists = lists
        self.examined = examined
        self._pruned: dict = {}

    def rowsums(self) -> list:
        return sorted(self.lists)

    def full(self, rowsum: int) -> CandidateList:
        return self.lists[rowsum]

    def a_role(self, rowsum: int, prune: bool = True) -> CandidateList:
        if not prune:
            return self.lists[rowsum]
        if rowsum not in self._pruned:
            self._pruned[rowsum] = self._prune_orbits(self.lists[rowsum])
        return self._pruned[rowsum]

    def _prune_orbits(self, clist: CandidateList) -> CandidateList:
        n = self.n
        free = clist.free_rows
        if free.shape[0] == 0:
            return clist
        f = n // 2 + 1
        fold = np.array(fold_indices(n))
        codes = _free_codes(free)
        best = codes.copy()
        for k in units(n)[1:]:  # units(n)[0] == 1, the identity
            perm = fold[(k * np.arange(f)) % n]
            np.minimum(best, _free_codes(free[:, perm]), out=best)
        keep = codes == best
        return CandidateList(n, clist.rowsum, free[keep])


def generate_candidates(n: int, decompositions, epsilon: float = EPSILON_DEFAULT) -> CandidateSet:
    """Map rowsum -> CandidateList over every rowsum appearing in the
    decompositions; 2^(n//2+1) sequences are examined."""
    if not decompositions:
        return CandidateSet(n, epsilon, {}, 0)
    wanted = sorted({r for dec in decompositions for r in dec.values})
    free = enumerate_symmetric_free(n)
    full = _expand(free, n)
    rowsums = full.sum(axis=1, dtype=np.int32)
    bound = 4 * n + epsilon
    keep = np.empty(full.shape[0], dtype=bool)
    for lo in range(0, full.shape[0], _PSD_CHUNK_ROWS):
        hi = min(lo + _PSD_CHUNK_ROWS, full.shape[0])
        spectra = psd_halfspectrum(full[lo:hi].astype(np.float64))
        keep[lo:hi] = spectra.max(axis=1) <= bound
    lists = {}
    for r in wanted:
        mask = keep & (rowsums == r)
        lists[r] = CandidateList(n, r, free[mask])
    return CandidateSet(n, epsilon, lists, full.shape[0])


@dataclass
class CompressedList:
    """Deduplicated m-compressions of one candidate list; each row keeps the
    indices of its preimage candidates."""

    rowsum: int
    factor: int
    rows: np.ndarray        # V x d int16
    paf: np.ndarray         # V x d int32
    psd_half: np.ndarray    # V x (d//2+1) float64
    preimages: list = field(repr=False)

    def __len__(self):
        return self.rows.shape[0]


@dataclass
class CompressionLists:
    la: CompressedList
    lb: CompressedList
    lc: CompressedList
    ld: CompressedList

    def __iter__(self):
        return iter((self.la, self.lb, self.lc, self.ld))


def _paf_rows(rows: np.ndarray) -> np.ndarray:
    d = rows.shape[1]
    r32 = rows.astype(np.int32)
    out = np.empty((rows.shape[0], d), dtype=np.int32)
    for s in range(d):
        out[:, s] = (r32 * np.roll(r32, -s, axis=1)).sum(axis=1)
    return out


def _compress_list(clist: CandidateList, n: int, m: int) -> CompressedList:
    d = n // m
    full = _expand(clist.free_rows, n).astype(np.int16)
    comp = full.reshape(-1, m, d).sum(axis=1)
    if comp.shape[0] == 0:
        empty = np.empty((0, d))
        return CompressedList(clist.rowsum, m, comp, empty.astype(np.int32),
                              empty[:, : d // 2 + 1].astype(np.float64), [])
    rows, inverse = np.unique(comp, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    order = np.argsort(inverse, kind="stable")
    bounds = np.searchsorted(inverse[order], np.arange(rows.shape[0] + 1))
    preimages = [order[bounds[v]:bounds[v + 1]] for v in range(rows.shape[0])]
    return CompressedList(
        clist.rowsum, m, rows, _paf_rows(rows),
        psd_halfspectrum(rows.astype(np.float64)), preimages,
    )


def build_compression_lists(candidates: CandidateSet, decomposition, m: int,
                            prune_a: bool = True) -> CompressionLists:
    n = candidates.n
    if m not in (2, 3):
        raise ValueError("compression factor must be 2 or 3")
    if n % m != 0:
        raise ValueError(f"m={m} does not divide n={n}")
    ra, rb, rc, rd = decomposition.values
    return CompressionLists(
        _compress_list(candidates.a_role(ra, prune_a), n, m),
        _compress_list(candidates.full(rb), n, m),
        _compress_list(candidates.full(rc), n, m),
        _compress_list(candidates.full(rd), n, m),
    )


@dataclass(frozen=True)
class MatchedCompression:
    """A compressed quadruple whose PAF vectors sum to [4n, 0, ..., 0]."""

    a: CompressedSequence
    b: CompressedSequence
    c: CompressedSequence
    d: CompressedSequence

    @property
    def rows(self) -> tuple:
        return (self.a.entries, self.b.entries, self.c.entries, self.d.entries)

    def __iter__(self):
        return iter((self.a, self.b, self.c, self.d))


class _KeySink:
    """Accumulates (key vector, pair indices) records; sorts in memory or in
    spilled chunks, then streams groups of equal keys in ascending order."""

    def __init__(self, d: int, budget_bytes: int, tmp_dir=None):
        self.d = d
        self.budget = budget_bytes
        self.tmp_dir = tmp_dir
        self.blocks = []
        self.bytes_used = 0
        self.spill_paths = []

    def add(self, keys: np.ndarray, refs: np.ndarray) -> None:
        if keys.shape[0] == 0:
            return
        rec = np.hstack([keys.astype(np.int32), refs.astype(np.int32)])
        self.blocks.append(rec)
        self.bytes_used += rec.nbytes
        if self.bytes_used > self.budget:
            self._spill()

    def _sorted_records(self) -> np.ndarray:
        rec = np.vstack(self.blocks) if self.blocks else np.empty((0, self.d + 2), dtype=np.int32)
        order = np.lexsort(rec[:, : self.d].T[::-1]) if rec.shape[0] else np.empty(0, dtype=np.int64)
        return rec[order]

    def _spill(self) -> None:
        rec = self._sorted_records()
        fd, path = tempfile.mkstemp(suffix=".keys", dir=self.tmp_dir)
        with os.fdopen(fd, "wb") as f:
            f.write(rec.astype("<i4").tobytes())
        self.spill_paths.append(path)
        self.blocks = []
        self.bytes_used = 0

    def _stream_file(self, path):
        row_bytes = 4 * (self.d + 2)
        with open(path, "rb") as f:
            while True:
                buf = f.read(row_bytes * 4096)
                if not buf:
                    break
                arr = np.frombuffer(buf, dtype="<i4").reshape(-1, self.d + 2)
                for row in arr:
                    yield tuple(int(v) for v in row)

    def groups(self):
        """Yield (key tuple, list of (i, j) refs) in ascending key order."""
        d = self.d
        if not self.spill_paths:
            rec = self._sorted_records()
            if rec.shape[0] == 0:
                return
            keys = rec[:, :d]
            change = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
            starts = np.concatenate([[0], change, [rec.shape[0]]])
            for a, b in zip(starts[:-1], starts[1:]):
                yield tuple(int(v) for v in keys[a]), rec[a:b, d:]
            return
        if self.blocks:
            self._spill()
        merged = heapq.merge(*(self._stream_file(p) for p in self.spill_paths),
                             key=lambda row: row[:d])
        current_key, current_refs = None, []
        for row in merged:
            key = row[:d]
            if key != current_key:
                if current_key is not None:
                    yield current_key, np.array(current_refs, dtype=np.int32)
                current_key, current_refs = key, []
            current_refs.append(row[d:])
        if current_key is not None:
            yield current_key, np.array(current_refs, dtype=np.int32)

    def cleanup(self) -> None:
        for path in self.spill_paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        self.spill_paths = []


def _fill_sink(sink, lx: CompressedList, ly: CompressedList, n: int, epsilon: float,
               negate_to_target=None) -> None:
    bound = 4 * n + epsilon
    count_x = len(lx)
    count_y = len(ly)
    if count_x == 0 or count_y == 0:
        return
    block = max(1, (1 << 18) // max(count_y, 1))
    for lo in range(0, count_x, block):
        hi = min(lo + block, count_x)
        pair_psd = lx.psd_half[lo:hi, None, :] + ly.psd_half[None, :, :]
        ok = pair_psd.max(axis=2) <= bound
        xi, yi = np.nonzero(ok)
        if xi.size == 0:
            continue
        keys = lx.paf[lo + xi] + ly.paf[yi]
        if negate_to_target is not None:
            keys = negate_to_target[None, :] - keys
        refs = np.column_stack([lo + xi, yi]).astype(np.int32)
        sink.add(keys, refs)


def match_compressions(lists: CompressionLists, n: int, epsilon: float = EPSILON_DEFAULT,
                       mod4_filter: bool = True, budget_bytes: int = DEFAULT_BUDGET_BYTES,
                       tmp_dir=None) -> list:
    """All compressed quadruples (A', B', C', D') from the four lists whose
    PAF vectors sum exactly to [4n, 0, ..., 0]; pairs are pre-filtered by the
    PSD bound and, for even n, matches are post-filtered by the mod-4 rowsum
    invariant of 2-compressions."""
    la, lb, lc, ld = lists.la, lists.lb, lists.lc, lists.ld
    d = la.rows.shape[1]
    m = la.factor
    target = np.zeros(d, dtype=np.int32)
    target[0] = 4 * n

    ab = _KeySink(d, budget_bytes, tmp_dir)
    cd = _KeySink(d, budget_bytes, tmp_dir)
    try:
        _fill_sink(ab, la, lb, n, epsilon)
        _fill_sink(cd, lc, ld, n, epsilon, negate_to_target=target)

        out = []
        gen_ab = ab.groups()
        gen_cd = cd.groups()
        item_ab = next(gen_ab, None)
        item_cd = next(gen_cd, None)
        while item_ab is not None and item_cd is not None:
            key_ab, refs_ab = item_ab
            key_cd, refs_cd = item_cd
            if key_ab < key_cd:
                item_ab = next(gen_ab, None)
            elif key_cd < key_ab:
                item_cd = next(gen_cd, None)
            else:
                for ia, ib in refs_ab.tolist():
                    row_ab = la.rows[ia].astype(np.int32) + lb.rows[ib]
                    for ic, idd in refs_cd.tolist():
                        if mod4_filter and n % 2 == 0:
                            total = row_ab + lc.rows[ic] + ld.rows[idd]
                            if np.any(total % 4 != 0):
                                continue
                        out.append(
                            MatchedCompression(
                                CompressedSequence(la.rows[ia].tolist(), m),
                                CompressedSequence(lb.rows[ib].tolist(), m),
                                CompressedSequence(lc.rows[ic].tolist(), m),
                                CompressedSequence(ld.rows[idd].tolist(), m),
                            )
                        )
                item_ab = next(gen_ab, None)
                item_cd = next(gen_cd, None)
        return out
    finally:
        ab.cleanup()
        cd.cleanup()
