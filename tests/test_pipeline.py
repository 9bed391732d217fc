import hashlib
import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from williamson import pipeline
from williamson.cli import smallest_prime_divisor
from williamson.diophantine import decompose_four_squares, sign_fix
from williamson.equivalence import units
from williamson.oracle import brute_force_enumerate
from williamson.pipeline import (
    MatchedCompression,
    build_compression_lists,
    generate_candidates,
    match_compressions,
)
from williamson.seqcore import (
    SymmetricSequence,
    paf,
    psd_bound,
    rowsum,
)

from helpers import compress, psd


def make_candidates(n):
    decs = decompose_four_squares(n)
    return decs, generate_candidates(n, decs)


def free_set(free_rows):
    return {tuple(row) for row in free_rows.tolist()}


def sequences_of(free_rows, n):
    return [SymmetricSequence.from_free(n, row) for row in free_rows.tolist()]


def rows_of(mc):
    return tuple(map(tuple, mc.rows.tolist()))


def normalize_to_decomposition(q):
    """Apply reorder/negate so the rowsums match a decomposition tuple."""
    n = q.order
    members = []
    for x in q.members:
        r = rowsum(x)
        if n % 2 == 0:
            members.append(x if r >= 0 else SymmetricSequence(-v for v in x.entries))
        else:
            members.append(x if sign_fix(r, n) == r else SymmetricSequence(-v for v in x.entries))
    members.sort(key=lambda x: abs(rowsum(x)))
    return members


def reference_join(lists, n, mod4=True):
    """Plain-Python step 4: every PSD-passing pair in a dict keyed by its full
    PAF sum (C x D keys subtracted from the target), shared keys in ascending
    order, each expanded with A x B pairs outer; then, when mod4 and n is
    even, the mod-4 filter.  Each row's full PAF comes from seqcore.paf."""
    la, lb, lc, ld = lists
    bound = psd_bound(n)
    target = [4 * n] + [0] * (la.rows.shape[1] - 1)

    def groups(lx, ly, negate):
        px, py = ([paf(row) for row in lz.rows.tolist()] for lz in (lx, ly))
        out = {}
        for x in range(len(lx)):
            for y in range(len(ly)):
                if max(lx.psd_half[x] + ly.psd_half[y]) <= bound:
                    key = [a + b for a, b in zip(px[x], py[y])]
                    if negate:
                        key = [t - k for t, k in zip(target, key)]
                    out.setdefault(tuple(key), []).append((x, y))
        return out

    ab, cd = groups(la, lb, False), groups(lc, ld, True)
    matches = []
    for key in sorted(ab.keys() & cd.keys()):
        for a, b in ab[key]:
            for c, d in cd[key]:
                rows = tuple(tuple(int(v) for v in lx.rows[i]) for lx, i in zip(lists, (a, b, c, d)))
                if mod4 and n % 2 == 0 and any(sum(col) % 4 for col in zip(*rows)):
                    continue
                matches.append(rows)
    return matches


def join_sizes(monkeypatch):
    """A list that gets the number of pairs of each pipeline._join call."""
    sizes, join = [], pipeline._join

    def spy(*args):
        pair_ab, pair_cd = join(*args)
        sizes.append(pair_ab.size)
        return pair_ab, pair_cd

    monkeypatch.setattr(pipeline, "_join", spy)
    return sizes


class TestGenerateCandidates:
    def test_n2_classes(self):
        decs, cands = make_candidates(2)
        assert free_set(cands.lists[0]) == {(1, -1), (-1, 1)}
        assert free_set(cands.lists[2]) == {(1, 1)}

    def test_boundary_psd_kept(self):
        decs, cands = make_candidates(4)
        # the all-ones sequence peaks exactly at 4n and must survive
        assert (1, 1, 1) in free_set(cands.lists[4])

    def test_examined_count(self):
        for n in (2, 5, 9, 12):
            decs = decompose_four_squares(n)
            cands = generate_candidates(n, decs)
            assert cands.examined == 2 ** (n // 2 + 1)
            assert pipeline._sign_rows(n // 2 + 1).shape == (2 ** (n // 2 + 1), n // 2 + 1)

    @pytest.mark.parametrize("n", range(1, 33))
    def test_blocked_scan_equals_one_shot(self, n, monkeypatch):
        # every code at once, expanded, then PSD-tested by rfft: the split
        # tables in blocks of 2^bits codes must give the same lists row for
        # row (20 bits is one block at every n here)
        decs = decompose_four_squares(n)
        free = pipeline._sign_rows(n // 2 + 1)
        full = free[:, [i if i <= n // 2 else n - i for i in range(n)]]
        spec = np.fft.rfft(full, axis=1)
        keep = (spec.real ** 2 + spec.imag ** 2).max(axis=1) <= psd_bound(n)
        rowsums = full.sum(axis=1)
        expected = {r: free[keep & (rowsums == r)] for dec in decs for r in dec}
        for bits in (0, 1, 2, 20):
            monkeypatch.setattr(pipeline, "_SCAN_BITS", bits)
            cands = generate_candidates(n, decs)
            assert cands.examined == free.shape[0]
            assert cands.lists.keys() == expected.keys(), bits
            for r, rows in expected.items():
                got = cands.lists[r]
                assert got.dtype == rows.dtype == np.int8
                assert got.shape == rows.shape, (bits, r)
                assert np.array_equal(got, rows), (bits, r)

    @pytest.mark.parametrize("n, survivors", [
        (36, {0: 17784, 2: 13410, 4: 13242, 6: 12790, 8: 13104, 10: 9300, 12: 8754}),
        (40, {0: 45172, 4: 47032, 8: 37692, 12: 31564}),
    ])
    def test_survivors_per_rowsum(self, n, survivors):
        _, cands = make_candidates(n)
        assert {r: len(rows) for r, rows in cands.lists.items()} == survivors

    def test_scan_holds_one_block(self):
        # 2^19 codes at n=36: holding them all expanded peaked at 114 MiB
        decs = decompose_four_squares(36)
        tracemalloc.start()
        try:
            generate_candidates(36, decs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_members_have_stated_rowsum_and_survive_filter(self):
        decs, cands = make_candidates(9)
        for r in sorted(cands.lists):
            assert cands.lists[r].dtype == np.int8
            for s in sequences_of(cands.lists[r], 9):
                assert rowsum(s) == r
                assert psd(s).max() <= psd_bound(9)

    def test_completeness_of_lists(self):
        # every surviving symmetric sequence appears; nothing else does
        n = 6
        decs, cands = make_candidates(n)
        wanted = {r for dec in decs for r in dec}
        from itertools import product

        expected = {}
        for free in product((-1, 1), repeat=n // 2 + 1):
            s = SymmetricSequence.from_free(n, free)
            r = rowsum(s)
            if r in wanted and psd(s).max() <= psd_bound(n):
                expected.setdefault(r, set()).add(s.free)
        for r in wanted:
            assert free_set(cands.lists[r]) == expected.get(r, set())

    def test_a_role_pruning_keeps_orbit_representatives(self):
        n = 9
        decs, cands = make_candidates(n)
        r = decs[0][0]
        full = free_set(cands.lists[r])
        pruned = free_set(cands.a_role(r))
        assert pruned <= full
        # every full member has some automorphism image among the pruned
        fold = [i if i <= n // 2 else n - i for i in range(n)]
        for free in full:
            entries = [free[fold[i]] for i in range(n)]
            images = set()
            for k in units(n):
                images.add(tuple(entries[(k * i) % n] for i in range(n // 2 + 1)))
            assert images & pruned

    @pytest.mark.parametrize("n", range(6, 31))
    def test_a_role_is_the_orbit_minimum(self, n):
        # a row is kept when no unit k, k > n/2 included, maps it to a smaller
        # code (bit f-1-i set when free entry i is -1)
        _, cands = make_candidates(n)
        f = n // 2 + 1
        fold = np.array([i if i <= n // 2 else n - i for i in range(n)])
        powers = 1 << np.arange(f - 1, -1, -1, dtype=np.int64)
        for r, free in cands.lists.items():
            full = free[:, fold]
            codes = [(full[:, k * np.arange(f) % n] < 0) @ powers for k in units(n)]
            expected = free[codes[0] == np.min(codes, axis=0)]
            assert np.array_equal(cands.a_role(r), expected), (n, r)


class TestBuildCompressionLists:
    def test_n2_lists(self):
        decs, cands = make_candidates(2)
        lists = build_compression_lists(cands, decs[0], 2)
        assert [lx.rows.tolist() for lx in lists] == [[[0]], [[0]], [[2]], [[2]]]

    def test_alphabet_even(self):
        decs, cands = make_candidates(6)
        lists = build_compression_lists(cands, decs[0], 2)
        for lx in lists:
            assert set(np.unique(lx.rows)) <= {-2, 0, 2}

    def test_alphabet_odd(self):
        decs, cands = make_candidates(9)
        lists = build_compression_lists(cands, decs[0], 3)
        for lx in lists:
            assert set(np.unique(lx.rows)) <= {-3, -1, 1, 3}

    def test_rejects_bad_factor(self):
        decs, cands = make_candidates(9)
        with pytest.raises(ValueError):
            build_compression_lists(cands, decs[0], 2)
        decs, cands = make_candidates(10)
        with pytest.raises(ValueError, match="compression factor must be 2 or 3"):
            build_compression_lists(cands, decs[0], 5)

    def test_back_references_point_at_matching_candidates(self):
        # each list holds exactly the distinct compressions of its candidates
        for n in (6, 9):
            m = smallest_prime_divisor(n)
            decs, cands = make_candidates(n)
            for dec in decs:
                lists = tuple(cands.compressed(r, m) for r in dec)
                for lx, r in zip(lists, dec):
                    images = {compress(x, n // m) for x in sequences_of(cands.lists[r], n)}
                    assert [tuple(row) for row in lx.rows.tolist()] == sorted(images)

    @pytest.mark.parametrize("n", [9, 12, 18, 27, 28])
    def test_distinct_rows_equal_unique(self, n):
        # integer codes in base m+1 sort like the rows: np.unique(axis=0) is the reference
        m = smallest_prime_divisor(n)
        decs, cands = make_candidates(n)
        for r in sorted(cands.lists):
            for free in (cands.lists[r], cands.a_role(r)):
                comp = pipeline._expand(free, n).reshape(-1, m, n // m).sum(axis=1, dtype=np.int8)
                rows = pipeline._distinct_rows(comp, m)
                assert rows.dtype == np.int8
                assert np.array_equal(rows, np.unique(comp, axis=0)), r
                assert np.array_equal(pipeline._compress_list(free, n, m).rows, rows), r

    @pytest.mark.parametrize("m, d", [(2, 40), (2, 41), (3, 32), (3, 33)])
    def test_distinct_rows_at_the_code_width(self, m, d):
        # 3^40 and 4^32 codes fit in uint64; one more column takes np.unique
        rng = np.random.default_rng(d)
        comp = (2 * rng.integers(0, m + 1, size=(500, d)) - m).astype(np.int8)
        comp[250:] = comp[:250]
        comp[:, 0] = np.where(rng.random(500) < 0.5, m, -m)
        assert np.array_equal(pipeline._distinct_rows(comp, m), np.unique(comp, axis=0))

    def test_each_list_is_compressed_once(self):
        # one CompressedList per (rowsum, pruned) across decompositions and calls
        decs, cands = make_candidates(12)
        seen = {}
        for dec in decs * 2:
            for role, (lx, r) in enumerate(zip(build_compression_lists(cands, dec, 2), dec)):
                assert seen.setdefault((r, role == 0), lx) is lx
        assert len(seen) < 4 * len(decs)


class TestMatchCompressions:
    def test_n2_single_match(self):
        decs, cands = make_candidates(2)
        lists = build_compression_lists(cands, decs[0], 2)
        mcs = match_compressions(lists, 2)
        assert len(mcs) == 1
        mc = mcs[0]
        assert rows_of(mc) == ((0,), (0,), (2,), (2,))
        total = [sum(col) for col in zip(*mc.rows)]
        assert all(v % 4 == 0 for v in total)

    def test_match_invariant_exact_paf(self):
        for n in (6, 9, 10):
            m = 2 if n % 2 == 0 else 3
            decs, cands = make_candidates(n)
            for dec in decs:
                lists = build_compression_lists(cands, dec, m)
                for mc in match_compressions(lists, n):
                    pafs = [paf(x) for x in mc.rows]
                    total = [sum(p[s] for p in pafs) for s in range(n // m)]
                    assert total[0] == 4 * n
                    assert all(v == 0 for v in total[1:])

    def test_empty_list_gives_empty_output(self):
        decs, cands = make_candidates(2)
        lists = build_compression_lists(cands, decs[0], 2)
        la = lists[0]
        la.rows, la.paf, la.psd_half = la.rows[:0], la.paf[:0], la.psd_half[:0]
        assert match_compressions(lists, 2) == []

    def test_output_duplicate_free(self):
        for n in (6, 9, 12):
            m = 2 if n % 2 == 0 else 3
            decs, cands = make_candidates(n)
            for dec in decs:
                mcs = match_compressions(build_compression_lists(cands, dec, m), n)
                assert len({rows_of(mc) for mc in mcs}) == len(mcs)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9])
    def test_every_oracle_compression_is_matched(self, n):
        # soundness of the pairwise filter: no needed pair is discarded
        m = 2 if n % 2 == 0 else 3
        decs, cands = make_candidates(n)
        outputs = {}
        for dec in decs:
            lists = tuple(cands.compressed(r, m) for r in dec)
            outputs[dec] = {rows_of(mc) for mc in match_compressions(lists, n)}
        for q in brute_force_enumerate(n):
            members = normalize_to_decomposition(q)
            key = tuple(rowsum(x) for x in members)
            rows = tuple(compress(x, n // m) for x in members)
            assert rows in outputs[key], (n, rows)

    @pytest.mark.parametrize("n", [6, 9, 12, 18, 20, 21, 24, 27, 28])
    def test_ordered_output_equals_reference_join(self, n, monkeypatch):
        # the order fixes which instance dedupe keeps, hence task ids and
        # solver counters; at budgets below the records the join reads two
        # fresh generations of pairs and must give the same list
        blocks, filter_bits = [], []

        def spy_blocks(*args):
            for hashes, pairs in pair_blocks(*args):
                # a record is a uint32 key hash and an int32 pair index at these orders
                assert hashes.dtype == np.uint32 and pairs.dtype == np.int32
                blocks.append(hashes.nbytes + pairs.nbytes)
                yield hashes, pairs

        def spy_join(mark, keep, key_hash, bits):
            filter_bits.append(bits)
            return join(mark, keep, key_hash, bits)

        pair_blocks, join = pipeline._pair_blocks, pipeline._join
        monkeypatch.setattr(pipeline, "_pair_blocks", spy_blocks)
        monkeypatch.setattr(pipeline, "_join", spy_join)
        decs, cands = make_candidates(n)
        for dec in decs:
            lists = build_compression_lists(cands, dec, smallest_prime_divisor(n))
            expected = reference_join(lists, n)
            blocks.clear()
            assert [rows_of(mc) for mc in match_compressions(lists, n)] == expected, dec
            records = sum(blocks)
            for budget in (1, records // 3, records - 1):
                filter_bits.clear()
                matched = match_compressions(lists, n, budget_bytes=budget)
                assert [rows_of(mc) for mc in matched] == expected, (dec, budget)
                # the filter table never outgrows the budget, but has 2 buckets or more
                assert len(filter_bits) == 1 and 2 ** filter_bits[0] <= max(2, budget)

    def test_pair_filter_equals_float64_reference(self):
        # the float32 per-row limits keep exactly the pairs whose float64 PSD
        # sums stay within the bound at every column, on both sides; a side
        # that pairs one list with itself keeps only its pairs with x <= y
        self_paired = 0
        for n in range(6, 31):
            m = smallest_prime_divisor(n)
            if m not in (2, 3):
                continue
            decs, cands = make_candidates(n)
            bound = psd_bound(n)
            for dec in decs:
                lists = build_compression_lists(cands, dec, m)
                if not all(len(lx) for lx in lists):
                    continue
                for lx, ly in (lists[:2], lists[2:]):
                    hx, hy = (np.zeros(len(lz), dtype=np.uint64) for lz in (lx, ly))
                    pairs = [p for _, p in pipeline._pair_blocks(lx, ly, hx, hy, bound)]
                    ok = np.ones((len(lx), len(ly)), dtype=bool)
                    for j in range(lx.psd_half.shape[1]):
                        ok &= lx.psd_half[:, j, None] + ly.psd_half[:, j] <= bound
                    if lx is ly:
                        ok = np.triu(ok)
                        self_paired += 1
                    assert np.array_equal(np.concatenate(pairs), np.flatnonzero(ok)), (n, dec)
        assert self_paired > 0

    @pytest.mark.parametrize("n", [12, 18, 24])
    def test_no_mod4_filter_on_3_compressions(self, n):
        # the mod-4 filter is for 2-compressions; four 3-compressed entries
        # can sum to 2 mod 4 in a column of a match the join must keep
        decs, cands = make_candidates(n)
        dropped_by_mod4 = 0
        for dec in decs:
            lists = build_compression_lists(cands, dec, 3)
            expected = reference_join(lists, n, mod4=False)
            assert [rows_of(mc) for mc in match_compressions(lists, n)] == expected, dec
            dropped_by_mod4 += len(expected) - len(reference_join(lists, n))
        assert dropped_by_mod4 > 0

    def test_pair_generations_per_side(self, monkeypatch):
        # within the budget each side's pairs are generated once; over it, once
        # to count, once to mark the filter and once to keep its survivors,
        # however small the budget: 1 byte, or 2^14 of the 1.5 MB of records
        # of (6, 6, 6, 6) at n=36
        calls, record_bytes = Counter(), []

        def spy(lx, ly, *args):
            side = 0 if lx is lists[0] else 1
            assert ly is lists[2 * side + 1]
            calls[side] += 1
            for hashes, pairs in pair_blocks(lx, ly, *args):
                record_bytes.append(hashes.nbytes + pairs.nbytes)
                yield hashes, pairs

        pair_blocks = pipeline._pair_blocks
        monkeypatch.setattr(pipeline, "_pair_blocks", spy)
        for n, dec in [(18, (0, 0, 6, 6)), (28, (4, 4, 4, 8)), (36, (6, 6, 6, 6))]:
            _, cands = make_candidates(n)
            lists = build_compression_lists(cands, dec, smallest_prime_divisor(n))
            calls.clear()
            record_bytes.clear()
            expected = [rows_of(mc) for mc in match_compressions(lists, n)]
            assert calls == {0: 1, 1: 1}, n
            records = sum(record_bytes)
            for budget in (1, 2**10, 2**14, records - 1, records):
                calls.clear()
                matched = [rows_of(mc) for mc in match_compressions(lists, n, budget_bytes=budget)]
                generations = 1 if budget >= records else 3
                assert calls == {0: generations, 1: generations}, (n, budget)
                assert matched == expected, (n, budget)

    @pytest.mark.parametrize("n, joined", [
        (28, [369, 238, 0]),  # (2, 6, 6, 6) pairs the 6 list with itself
        (40, [24856, 12597]),  # (4, 4, 8, 8): 247,152 and 266,568 before the mask term
    ])
    def test_join_pairs_only_mod4_compatible_records(self, n, joined, monkeypatch):
        # the key hash of a 2-compression pair carries the xor of its rows'
        # nonzero masks, so the join returns the matches and no more, each
        # unordered pair of a self-paired C x D side once
        matched = {28: [369, 465, 0], 40: [24856, 25194]}[n]
        counts = join_sizes(monkeypatch)
        decs, cands = make_candidates(n)
        matches, once = [], []
        for dec in decs:
            lists = build_compression_lists(cands, dec, 2)
            mcs = match_compressions(lists, n)
            matches.append(len(mcs))
            once.append(sum(lists[2] is not lists[3] or rows_of(mc)[2] <= rows_of(mc)[3] for mc in mcs))
        assert counts == once == joined
        assert matches == matched

    @pytest.mark.parametrize("n", [12, 14, 16, 18, 20, 22, 24, 26, 28])
    def test_mask_check_without_mask_hash(self, n, monkeypatch):
        # with no mask term in the key hash the join returns the pairs of
        # equal keys whatever their masks; the exact mask check must drop
        # those that fail the mod-4 test (at n=20 and 24 some do).  The join
        # holds each unordered pair of a self-paired side once, so the
        # matches are counted the same way
        joined = join_sizes(monkeypatch)
        monkeypatch.setattr(pipeline, "_MASK_MULT", 0)
        decs, cands = make_candidates(n)
        matched = 0
        for dec in decs:
            lists = build_compression_lists(cands, dec, 2)
            expected = reference_join(lists, n)
            assert [rows_of(mc) for mc in match_compressions(lists, n)] == expected, dec
            matched += sum(lists[2] is not lists[3] or c <= d for _, _, c, d in expected)
        assert (sum(joined) > matched) == (n in (20, 24))

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_hash_collisions_are_dropped(self, n, monkeypatch):
        # every row hashes to 0, so every A x B record meets every C x D record
        # in the join: only the exact key check can tell the matches apart
        monkeypatch.setattr(pipeline, "_row_hashes",
                            lambda lists, target: tuple(np.zeros(len(lx), np.uint64) for lx in lists))
        decs, cands = make_candidates(n)
        for dec in decs:
            lists = build_compression_lists(cands, dec, smallest_prime_divisor(n))
            assert [rows_of(mc) for mc in match_compressions(lists, n)] == reference_join(lists, n), dec

    @pytest.mark.parametrize("bits", [1, 8, 32])
    @pytest.mark.parametrize("disjoint", [False, True])
    def test_join_equals_brute_force(self, bits, disjoint):
        # synthetic records in uneven blocks (one empty) with repeated filter
        # hashes, and key hashes shared by several records of each side; the
        # join returns each pair of filter survivors with equal key hashes
        # once.  With disjoint, every A x B filter hash has its top bit clear
        # and every C x D one has it set, so no bucket has both sides
        rng = np.random.default_rng(bits)
        sizes = ((50, 0, 70), (40, 1, 60))
        pools = (np.array([0, 7, 2**31 + 5, 2**32 - 2**16], np.uint32),
                 np.array([0, 2**31 + 5, 2**31 + 6, 0x12345678], np.uint32))
        if disjoint:
            pools = (pools[0] & np.uint32(2**31 - 1), pools[1] | np.uint32(2**31))
        key_pool = np.array([1, 5, 2**63 + 3, 2**64 - 1, 42, 7], np.uint64)
        filters = [rng.choice(pools[s], sum(sizes[s])) for s in (0, 1)]
        pairs = [rng.permutation(1000)[:sum(sizes[s])].astype(np.int32) for s in (0, 1)]
        keys = [rng.choice(key_pool[s:s + 5], 1000) for s in (0, 1)]

        def records():
            for side in (0, 1):
                for block in np.split(np.arange(sum(sizes[side])), np.cumsum(sizes[side])[:-1]):
                    yield side, filters[side][block], pairs[side][block]

        hashed = ([], [])

        def key_hash(side, p):
            hashed[side].extend(p.tolist())
            return keys[side][p]

        pair_ab, pair_cd = pipeline._join(records(), records(), key_hash, bits)
        shift = 32 - bits
        buckets = [{int(h) >> shift for h in filters[s]} for s in (0, 1)]
        live = [[int(p) for p, h in zip(pairs[s], filters[s]) if int(h) >> shift in buckets[1 - s]]
                for s in (0, 1)]
        assert [sorted(h) for h in hashed] == [sorted(p) for p in live]
        expected = sorted((a, c) for a in live[0] for c in live[1] if keys[0][a] == keys[1][c])
        assert sorted(zip(pair_ab.tolist(), pair_cd.tolist())) == expected
        assert len(set(expected)) == len(expected) and (not expected) == disjoint

    def test_match_rows_are_read_only_int8(self):
        decs, cands = make_candidates(18)
        mcs = match_compressions(build_compression_lists(cands, decs[0], 2), 18)
        assert mcs and [f.name for f in fields(MatchedCompression)] == ["rows"]
        for mc in mcs:
            assert mc.rows.dtype == np.int8 and mc.rows.shape == (4, 9)
            assert not mc.rows.flags.writeable
        with pytest.raises(ValueError):
            mcs[0].rows[0, 0] = 0

    def test_pair_index_dtype(self):
        # int32 while every index x * len(ly) + y fits; n=70 lists can pass 2^31 pairs
        assert pipeline._pair_dtype(46340, 46340) is np.int32
        assert pipeline._pair_dtype(1, 2**31 - 1) is np.int32
        assert pipeline._pair_dtype(46341, 46341) is np.int64
        assert pipeline._pair_dtype(2, 2**30) is np.int64

    def test_match_memory_at_n40(self):
        # 8-byte records (a uint32 key hash and an int32 pair index) peak at
        # 21-24 MiB here.  The matches and their order are pinned as the
        # benchmark's instances40 workload takes them
        pinned = {
            (0, 0, 4, 12): (24856, "2b5e1611a29470af0ba3ca34d5e29be494e91ca153e9edc285cbbc663b974868"),
            (4, 4, 8, 8): (25194, "caaf430a28d46afae7febdbdd8a5f3c1e8ac2bb1045508c58bd5d367ff32bf68"),
        }
        decs, cands = make_candidates(40)
        assert sorted(decs) == sorted(pinned)
        for dec in decs:
            lists = build_compression_lists(cands, dec, 2)
            tracemalloc.start()
            try:
                mcs = match_compressions(lists, 40)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 45 * 2**20, dec
            stacked = np.stack([mc.rows for mc in mcs])
            assert (len(mcs), hashlib.sha256(stacked.tobytes()).hexdigest()) == pinned[dec]

    def test_steps_1_to_4_at_n44(self):
        # rows of 22 compressed columns: the candidate count and the sha256 of
        # the match stacks, concatenated in decomposition order, are pinned
        decs, cands = make_candidates(44)
        assert sum(len(rows) for rows in cands.lists.values()) == 680010
        digest = hashlib.sha256()
        for dec in decs:
            for mc in match_compressions(build_compression_lists(cands, dec, 2), 44):
                digest.update(mc.rows.tobytes())
        assert digest.hexdigest() == "79035db829616df865e5b9e3627feec378c4dd81a555bfc479416cb5cd2d3f39"
