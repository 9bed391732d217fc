import tracemalloc
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
    enumerate_symmetric_free,
    generate_candidates,
    match_compressions,
)
from williamson.seqcore import (
    SymmetricSequence,
    compress,
    paf,
    psd,
    psd_bound,
    psd_halfspectrum,
    rowsum,
)


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
            members.append(x if r >= 0 else x.negate())
        else:
            members.append(x if sign_fix(r, n) == r else x.negate())
    members.sort(key=lambda x: abs(rowsum(x)))
    return members


def reference_join(lists, n):
    """Plain-Python step 4: every PSD-passing pair in a dict keyed by its full
    PAF sum (C x D keys subtracted from the target), shared keys in ascending
    order, each expanded with A x B pairs outer; then the mod-4 filter."""
    la, lb, lc, ld = lists
    bound = psd_bound(n)
    target = [4 * n] + [0] * (la.rows.shape[1] - 1)

    def groups(lx, ly, negate):
        out = {}
        for x in range(len(lx)):
            for y in range(len(ly)):
                if max(lx.psd_half[x] + ly.psd_half[y]) <= bound:
                    key = [int(v) for v in lx.paf[x] + ly.paf[y]]
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
                if n % 2 == 0 and any(sum(col) % 4 for col in zip(*rows)):
                    continue
                matches.append(rows)
    return matches


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
            assert enumerate_symmetric_free(n).shape == (2 ** (n // 2 + 1), n // 2 + 1)

    @pytest.mark.parametrize("n", [9, 12, 17])
    def test_blocked_scan_equals_one_shot(self, n, monkeypatch):
        # every code at once, expanded, then PSD-filtered: the lists in blocks
        # of 5 codes (the last one short) must equal it row for row
        decs = decompose_four_squares(n)
        free = enumerate_symmetric_free(n)
        full = free[:, [i if i <= n // 2 else n - i for i in range(n)]]
        keep = psd_halfspectrum(full.astype(float)).max(axis=1) <= psd_bound(n)
        rowsums = full.sum(axis=1)
        expected = {r: free[keep & (rowsums == r)] for dec in decs for r in dec}
        monkeypatch.setattr(pipeline, "_PSD_CHUNK_ROWS", 5)
        cands = generate_candidates(n, decs)
        assert cands.examined == free.shape[0]
        assert cands.lists.keys() == expected.keys()
        for r, rows in expected.items():
            got = cands.lists[r]
            assert got.dtype == rows.dtype == np.int8
            assert got.shape == rows.shape
            assert np.array_equal(got, rows)

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

    @pytest.mark.parametrize("n", [6, 9, 12, 18, 21, 27, 28])
    def test_ordered_output_equals_reference_join(self, n, monkeypatch):
        # the order fixes which instance dedupe keeps, hence task ids and
        # solver counters; at a budget below the records the join runs in
        # hash partitions and must give the same list
        joins = []

        def spy(blocks, packed):
            # a record is a uint32 key hash and an int32 pair index at these orders
            assert all(h.dtype == np.uint32 and p.dtype == np.int32 for _, h, p in blocks)
            joins.append(sum(hashes.nbytes + pairs.nbytes for _, hashes, pairs in blocks))
            return join(blocks, packed)

        join = pipeline._join
        monkeypatch.setattr(pipeline, "_join", spy)
        decs, cands = make_candidates(n)
        for dec in decs:
            lists = build_compression_lists(cands, dec, smallest_prime_divisor(n))
            expected = reference_join(lists, n)
            joins.clear()
            assert [rows_of(mc) for mc in match_compressions(lists, n)] == expected, dec
            assert len(joins) == 1
            records = joins[0]
            budget = records // 3
            while True:  # no partition can be smaller than the records of one hash bucket
                joins.clear()
                try:
                    matched = match_compressions(lists, n, budget_bytes=budget)
                    break
                except ValueError as e:
                    assert "hash bucket" in str(e)
                    budget += budget // 4 + 1
            assert [rows_of(mc) for mc in matched] == expected, (dec, budget)
            assert len(joins) >= 2 and budget < records
            assert max(joins) <= budget

    def test_match_rows_are_read_only_int8(self):
        decs, cands = make_candidates(18)
        mcs = match_compressions(build_compression_lists(cands, decs[0], 2), 18)
        assert mcs and [f.name for f in fields(MatchedCompression)] == ["rows"]
        for mc in mcs:
            assert mc.rows.dtype == np.int8 and mc.rows.shape == (4, 9)
            assert not mc.rows.flags.writeable
        with pytest.raises(ValueError):
            mcs[0].rows[0, 0] = 0

    def test_budget_below_one_hash_bucket_is_an_error(self):
        decs, cands = make_candidates(6)
        lists = build_compression_lists(cands, decs[0], 2)
        with pytest.raises(ValueError, match="hash bucket"):
            match_compressions(lists, 6, budget_bytes=1)

    def test_pair_index_dtype(self):
        # int32 while every index x * len(ly) + y fits; n=70 lists can pass 2^31 pairs
        assert pipeline._pair_dtype(46340, 46340) is np.int32
        assert pipeline._pair_dtype(1, 2**31 - 1) is np.int32
        assert pipeline._pair_dtype(46341, 46341) is np.int64
        assert pipeline._pair_dtype(2, 2**30) is np.int64

    def test_match_memory_at_n40(self):
        # 24-byte records (two uint64 key words and an int64 pair index) held
        # until the semi-join peaked at 57-61 MiB here, 110-118 MiB while every
        # record was concatenated before it
        decs, cands = make_candidates(40)
        for dec in decs:
            lists = build_compression_lists(cands, dec, 2)
            tracemalloc.start()
            try:
                match_compressions(lists, 40)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 45 * 2**20, dec
