"""Candidate generation, compression lists, and pair-sum matching.

All three steps pass int8 rows.  Step 2 enumerates every symmetric ±1
sequence of order n, keeping the free entries of those whose rowsum occurs in
some rowsum decomposition and whose PSD never exceeds `seqcore.psd_bound`.
The DFT of a symmetric sequence is real and linear in its free entries, so
in a block of codes that share their high free entries each code's spectrum
and rowsum are the block's part plus a row of one table of the low entries'
parts, in float32.  Only rows of a wanted rowsum are squared and tested; the
scan holds one block and the survivors, never all 2^(n//2+1) sequences.  Its
`CandidateSet` holds them as `lists`, a plain dict from rowsum to rows; the
A role alone takes an orbit-pruned view (`a_role`).  Step 3 compresses the
survivors by the smallest prime factor m, per rowsum, and keeps the distinct
compressions in ascending order.  Step 4 finds all compressed quadruples
with

    PAF(A') + PAF(B') = [4n, 0, ..., 0] - (PAF(C') + PAF(D'))

as a sorted join.  An x row's limits are the bound minus its PSD, and a pair
passes the PSD filter when the y row's PSD is within them at every
frequency; a side that pairs one list with itself (C, D of one rowsum)
tests its pairs x <= y only, and each match with x != y adds its mirror
after the join.  The key of a PSD-passing A x B or C x D pair is the first
d//2+1 entries of its side of the equation (PAF(s) = PAF(d-s) fixes the
rest).  Each list row holds a 64-bit hash of its part of the key, linear in
it, so a pair's key hash is the sum of its rows' hashes; so is the low
half, the pair's 32-bit filter hash.  A pair is held as an eight-byte
record, its filter hash and its pair index, until a semi-join filter drops
those whose hash bucket the other side lacks.  Only the survivors get key
hashes; for 2-compressions these add the xor of the two rows' nonzero masks
times an odd constant, so only pairs that can pass the mod-4 test meet when
the A x B hashes are sorted once and each C x D hash is binary-searched
among them.  The matches are checked against the masks and the key, which
drops hash collisions, and sorted by key, then A x B and C x D pair index.
They form one read-only S x 4 x d int8 stack; each `MatchedCompression` is
a 4 x d view into it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .equivalence import units
from .seqcore import cosine_table, fold_indices, psd_bound

_SCAN_BITS = 14  # step 2 scans the codes in blocks of 2^_SCAN_BITS
DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024
_MASK_MULT = 0x9E3779B97F4A7C15  # odd: a pair's nonzero xor-mask, one word, weighs this in its key hash


def _sign_rows(width: int) -> np.ndarray:
    """Rows of width ±1 entries for the codes 0..2^width-1, in order: bit
    width-1-j of a code is set when entry j is -1."""
    rows = np.ones((1 << width, width), dtype=np.int8)
    for j in range(width):  # entry j alternates in runs of 2^(width-1-j) codes
        rows.reshape(1 << j, 2, -1, width)[:, 1, :, j] = -1
    return rows


def _expand(free_rows: np.ndarray, n: int) -> np.ndarray:
    return free_rows[:, np.array(fold_indices(n))]


def _bit_codes(bits: np.ndarray, columns) -> np.ndarray:
    """Per column of a bool table, its given rows (64 at most) as bits, the first highest."""
    codes = np.zeros(bits.shape[1], dtype=np.uint64)
    for j in columns:
        codes <<= np.uint64(1)
        codes |= bits[j]
    return codes


class CandidateSet:
    """Candidates keyed by rowsum: `lists` maps each rowsum to an int8 array
    of free-entry rows.  The A role takes an orbit-pruned view: of each
    index-automorphism orbit only the member with minimal code is kept (the
    B, C, D lists must stay complete, since their representatives have to
    match whichever A representative was kept).  Compressed lists are made
    once per (rowsum, pruned, factor)."""

    def __init__(self, n: int, lists: dict, examined: int):
        self.n = n
        self.lists = lists
        self.examined = examined
        self._compressed: dict = {}

    def a_role(self, rowsum: int) -> np.ndarray:
        """The rows of the rowsum list whose code is minimal in their orbit."""
        free = self.lists[rowsum]
        n = self.n
        fold = np.array(fold_indices(n))
        negative = np.ascontiguousarray((free < 0).T)
        codes = _bit_codes(negative, range(n // 2 + 1))
        best = codes.copy()
        for k in (k for k in units(n)[1:] if 2 * k < n):  # 1 is the identity; n - k acts as k
            np.minimum(best, _bit_codes(negative, fold[(k * np.arange(n // 2 + 1)) % n]), out=best)
        return free[codes == best]

    def compressed(self, rowsum: int, m: int, prune: bool = False) -> CompressedList:
        """The m-compressions of the rowsum list, orbit-pruned when prune."""
        key = (rowsum, prune, m)
        if key not in self._compressed:
            free = self.a_role(rowsum) if prune else self.lists[rowsum]
            self._compressed[key] = _compress_list(free, self.n, m)
        return self._compressed[key]


def generate_candidates(n: int, decompositions) -> CandidateSet:
    """Map rowsum -> free-entry rows of its PSD-passing sequences, in
    ascending code order, over every rowsum appearing in the decompositions.

    A code's spectrum is its free entries times `seqcore.cosine_table(n)`.
    All 2^(n//2+1) codes are examined in blocks of 2^_SCAN_BITS that share
    their high free entries, so a code's spectrum and rowsum are its block's
    part plus a row of one low-entry table.  Only rows of a wanted rowsum
    are squared and tested, and only survivors get free-entry rows.  The
    spectra are float32: the rounding error of |A(k)| <= n is about 1e-5,
    that of |A(k)|^2 near the bound 2 sqrt(4n) times it, far below the 0.01
    of slack in `psd_bound`."""
    if not decompositions:
        return CandidateSet(n, {}, 0)
    wanted = sorted({r for dec in decompositions for r in dec})
    f = n // 2 + 1
    b = min(_SCAN_BITS, f)
    weights = np.bincount(fold_indices(n))  # multiplicity of each free entry
    cosines = cosine_table(n).astype(np.float32)  # f x f: no float64 spectra
    high, low = _sign_rows(f - b), _sign_rows(b)
    # einsum, not @: no BLAS buffers and no int64 copy of the table, both of
    # which leave glibc holding freed memory and raise the peak RSS
    high_spec = np.einsum("ij,jk->ik", high, cosines[:f - b])
    high_sum = np.einsum("ij,j->i", high, weights[:f - b])
    low_sum = np.einsum("ij,j->i", low, weights[f - b:])
    order = np.argsort(low_sum, kind="stable")  # low rows grouped by rowsum, codes ascending
    low_spec = np.einsum("ij,jk->ik", low[order], cosines[f - b:])
    sums, starts, counts = np.unique(low_sum[order], return_index=True, return_counts=True)
    groups = {s: slice(a, a + c) for s, a, c in zip(sums.tolist(), starts, counts)}
    bound = psd_bound(n)
    parts = {r: [np.empty((0, f), dtype=np.int8)] for r in wanted}
    for h, rest in enumerate(high_sum.tolist()):
        for r in wanted:
            group = groups.get(r - rest)
            if group is None:
                continue
            power = np.square(low_spec[group] + high_spec[h])
            keep = order[group][power.max(axis=1) <= bound]
            parts[r].append(np.hstack((np.broadcast_to(high[h], (keep.size, f - b)), low[keep])))
    lists = {r: np.concatenate(rows) for r, rows in parts.items()}
    return CandidateSet(n, lists, 1 << f)


@dataclass
class CompressedList:
    """Deduplicated m-compressions of one candidate list."""

    rows: np.ndarray        # V x d int8
    paf: np.ndarray         # V x (d//2+1) int32: PAF(s) = PAF(d-s) fixes the rest
    psd_half: np.ndarray    # V x (d//2+1) float64; the rows are symmetric, so their first d//2+1 give it

    def __len__(self):
        return self.rows.shape[0]


def _paf_rows(rows: np.ndarray) -> np.ndarray:
    d = rows.shape[1]
    r32 = rows.astype(np.int32)
    out = np.empty((rows.shape[0], d // 2 + 1), dtype=np.int32)
    for s in range(d // 2 + 1):
        out[:, s] = (r32 * np.roll(r32, -s, axis=1)).sum(axis=1)
    return out


def _distinct_rows(comp: np.ndarray, m: int) -> np.ndarray:
    """The distinct rows of m-compressions in ascending order, as
    np.unique(comp, axis=0) gives them.

    Each row is coded by the digits (v + m) // 2 in base m + 1, most
    significant first, so the codes sort like the rows.  Rows whose codes
    overflow uint64 (d > 40 for m = 2, d > 32 for m = 3) go to np.unique."""
    if (m + 1) ** comp.shape[1] > 1 << 64:
        return np.unique(comp, axis=0)
    codes = np.zeros(comp.shape[0], dtype=np.uint64)
    for column in comp.T:
        codes = codes * np.uint64(m + 1) + ((column + m) // 2).astype(np.uint64)
    return comp[np.unique(codes, return_index=True)[1]]


def _compress_list(free_rows: np.ndarray, n: int, m: int) -> CompressedList:
    d = n // m
    comp = _expand(free_rows, n).reshape(-1, m, d).sum(axis=1, dtype=np.int8)
    rows = _distinct_rows(comp, m)
    return CompressedList(rows, _paf_rows(rows), np.square(rows[:, :d // 2 + 1] @ cosine_table(d)))


def build_compression_lists(candidates: CandidateSet, decomposition, m: int) -> tuple:
    """The A, B, C and D compressed lists of one decomposition; the A list
    is orbit-pruned."""
    n = candidates.n
    if m not in (2, 3):
        raise ValueError("compression factor must be 2 or 3")
    if n % m != 0:
        raise ValueError(f"m={m} does not divide n={n}")
    ra, rb, rc, rd = decomposition
    return (candidates.compressed(ra, m, prune=True), candidates.compressed(rb, m),
            candidates.compressed(rc, m), candidates.compressed(rd, m))


@dataclass(frozen=True, eq=False, slots=True)
class MatchedCompression:
    """A compressed quadruple whose PAF vectors sum to [4n, 0, ..., 0]: a
    read-only 4 x d int8 view into the matcher's stack of matches."""

    rows: np.ndarray


def _row_hashes(lists: tuple, target: np.ndarray) -> tuple:
    """One uint64 per row of each list, linear in the row's part of the key:
    ha[x] + hb[y] hashes the key of an A x B pair (its first h PAF sums) and
    hc[x] + hd[y] that of a C x D pair (target minus them), mod 2^64, so
    equal keys hash equal.  The column weights are fixed odd numbers."""
    rng = random.Random(0)  # the stdlib generator: loading numpy.random costs 6 MiB of RSS
    weights = np.array([rng.getrandbits(64) | 1 for _ in range(target.size)], dtype=np.uint64)
    pa, pb, pc, pd = (lx.paf for lx in lists)
    return tuple(part.astype(np.uint64) @ weights for part in (pa, pb, target - pc, -pd))


def _pair_dtype(count_x: int, count_y: int):
    """The narrowest integer type holding every pair index x * count_y + y."""
    return np.int32 if count_x * count_y < 2**31 else np.int64


def _pair_blocks(lx: CompressedList, ly: CompressedList, hx: np.ndarray, hy: np.ndarray,
                 bound: float):
    """Blocks (filter hashes hx[x] + hy[y], pair indices x * len(ly) + y) of the
    pairs of lx x ly that pass the PSD bound, in ascending pair index, one
    block or more; hx and hy are the lists' uint32 row hashes, so a pair's
    hash wraps mod 2^32.  When lx is ly, only the pairs with x <= y: an x
    block [lo, hi) is compared with ly[lo:]."""
    count_y = len(ly)
    dtype = _pair_dtype(len(lx), count_y)
    block = max(1, (1 << 18) // count_y)
    # column 0 is ra^2 + rb^2 <= 4n < bound for every pair, so it is skipped.
    # Each pair a match needs sums to <= 4n at every column, and float32
    # rounding (~1e-5 at 4n = 160) is far below the bound's 0.01 of slack
    limit = (bound - lx.psd_half[:, 1:]).astype(np.float32)
    psd_y = np.ascontiguousarray(ly.psd_half[:, 1:].T, dtype=np.float32)
    for lo in range(0, len(lx), block):
        hi = min(lo + block, len(lx))
        start = lo if lx is ly else 0  # row i is x = lo + i and column c is y = start + c
        ok = ~np.tri(hi - lo, count_y - lo, -1, dtype=bool) if lx is ly else np.ones((hi - lo, count_y), bool)
        for j in range(psd_y.shape[0]):  # column by column: no block x |ly| x h array
            ok &= psd_y[j, start:] <= limit[lo:hi, j:j + 1]
        flat = np.flatnonzero(ok)
        xi, yi = lo + flat // (count_y - start), start + flat % (count_y - start)
        yield hx[xi] + hy[yi], (xi * count_y + yi).astype(dtype)


def _join(mark, keep, key_hash, bits: int) -> tuple:
    """Every pair of an A x B record and a C x D record with equal 64-bit key
    hashes: the pairs with equal keys, and any whose hashes collide.

    ``mark`` and ``keep`` each give the same records as (side, uint32 filter
    hashes, pair indices) blocks, at least one block a side, with side 0
    (A x B) before side 1 (C x D).  ``mark`` sets a filter of 2^bits hash
    buckets, indexed by a hash's top bits, to the sides that use each;
    ``keep`` is then read for the records whose bucket both sides use, and
    ``key_hash(side, pairs)`` gives their 64-bit key hashes.  The A x B key
    hashes are sorted once and each C x D hash finds its run of equal ones
    by binary search.  Returns the A x B and C x D pair indices of each
    match, in no particular order."""
    shift = np.uint32(32 - bits)
    sides = np.zeros(1 << bits, dtype=np.uint8)
    for side, hashes, _ in mark:
        if side == 0:  # its blocks all come first: plain stores
            sides[hashes >> shift] = 1
        else:
            sides[hashes >> shift] |= 2
    kept = ([], [])
    for side, hashes, pairs in keep:
        pairs = pairs[sides[hashes >> shift] == 3]
        kept[side].append((key_hash(side, pairs), pairs))
    del sides
    (hash_ab, pair_ab), (hash_cd, pair_cd) = ([np.concatenate(part) for part in zip(*k)] for k in kept)
    del kept
    order = np.argsort(hash_ab)
    hash_ab, pair_ab = hash_ab[order], pair_ab[order]
    first = np.searchsorted(hash_ab, hash_cd, side="left")
    reps = np.searchsorted(hash_ab, hash_cd, side="right") - first
    # C x D record j meets the A x B records first[j], ..., first[j] + reps[j] - 1
    ab = np.arange(reps.sum()) + np.repeat(first - (np.cumsum(reps) - reps), reps)
    return pair_ab[ab], np.repeat(pair_cd, reps)


def match_compressions(lists: tuple, n: int, mod4_filter: bool = True,
                       budget_bytes: int = DEFAULT_BUDGET_BYTES) -> list:
    """All compressed quadruples (A', B', C', D') from the four lists whose
    PAF vectors sum exactly to [4n, 0, ..., 0]; pairs are pre-filtered by the
    PSD bound and matches of 2-compressions (d = n/2) must pass the mod-4
    rowsum invariant.

    Matches come in ascending key order, then A x B pair index, then C x D
    pair index, each a view into one read-only S x 4 x d int8 stack of rows.
    ``budget_bytes`` bounds the key records held for one join: a uint32
    filter hash (the low half of the 64-bit key hash, without the mask term)
    and a pair index (int32, or int64 when a side has 2^31 pairs or more) per
    PSD-passing pair, both sides.  Records that fit are held from the first
    generation of pairs; otherwise it only counts them, and two fresh
    generations mark the hash filter and keep its survivors.  The filter has
    2^bits one-byte buckets, bits = records.bit_length() (1 to 32), and no
    more bytes than the budget; a 64-bit key hash, with the mod-4 mask term,
    is built only for the records it keeps, which the budget does not bound.
    Matches are checked against the masks and the key itself, so the output
    does not depend on the hash."""
    la, lb, lc, ld = lists
    if not all(len(lx) for lx in lists):
        return []
    d = la.rows.shape[1]
    target = np.zeros(d // 2 + 1, dtype=np.int32)  # PAF(s) = PAF(d - s)
    target[0] = 4 * n
    hashes = _row_hashes(lists, target)
    low = [h.astype(np.uint32) for h in hashes]
    # entries of 2-compressions are -2, 0 or 2, so four of them sum to 0 mod 4
    # exactly when an even number are nonzero: the rows' nonzero masks xor to 0.
    # d = n/2 <= 64 at every order step 2 can scan, so a mask is one word; with
    # no mod-4 filter every mask is 0
    columns = range(d) if mod4_filter and 2 * d == n else ()
    masks = [_bit_codes(lx.rows.T != 0, columns) for lx in lists]
    sides = ((la, lb, 0), (lc, ld, 2))
    bound = psd_bound(n)

    def blocks():
        for side, (lx, ly, i) in enumerate(sides):
            for filter_hashes, pairs in _pair_blocks(lx, ly, low[i], low[i + 1], bound):
                yield side, filter_hashes, pairs

    def key_hash(side, pairs):
        _, ly, i = sides[side]
        xi, yi = np.divmod(pairs, len(ly))
        mask = masks[i][xi] ^ masks[i + 1][yi]
        return hashes[i][xi] + hashes[i + 1][yi] + mask * np.uint64(_MASK_MULT)

    held, held_bytes, records = [], 0, 0
    for block in blocks():
        held_bytes += block[1].nbytes + block[2].nbytes
        records += block[2].size
        if held_bytes <= budget_bytes:
            held.append(block)
        else:
            held.clear()
    bits = max(1, min(records.bit_length(), budget_bytes.bit_length() - 1, 32))
    if held_bytes <= budget_bytes:  # each held block is popped as it is kept
        pair_ab, pair_cd = _join(held, (held.pop(0) for _ in range(len(held))), key_hash, bits)
    else:
        pair_ab, pair_cd = _join(blocks(), blocks(), key_hash, bits)

    # the PSD test, the key, its hash and the mask xor are symmetric in x and y, so
    # each x != y pair of a self-paired side stands for its mirror (y, x) too
    idx = [*np.divmod(pair_ab, len(lb)), *np.divmod(pair_cd, len(ld))]
    for s in (0, 2):
        if lists[s] is lists[s + 1]:
            off = idx[s] != idx[s + 1]
            mirror = [i[off] for i in idx]
            mirror[s:s + 2] = mirror[s + 1], mirror[s]
            idx = [np.concatenate(p) for p in zip(idx, mirror)]
    ia, ib, ic, id_ = idx
    # drop the pairs whose masks or keys differ: hash collisions
    wa, wb, wc, wd = masks
    exact = (wa[ia] ^ wb[ib]) == (wc[ic] ^ wd[id_])
    keys = [la.paf[ia, j] + lb.paf[ib, j] for j in range(target.size)]
    for j, key in enumerate(keys):
        exact &= key == target[j] - lc.paf[ic, j] - ld.paf[id_, j]
    order = np.lexsort([i[exact] for i in idx[::-1] + keys[::-1]])  # by key, then pair indices
    ia, ib, ic, id_ = (i[exact][order] for i in idx)
    stack = np.stack([la.rows[ia], lb.rows[ib], lc.rows[ic], ld.rows[id_]], axis=1)
    stack.setflags(write=False)
    return [MatchedCompression(r) for r in stack]
