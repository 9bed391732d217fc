import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from williamson.cli import RunConfig, run_enumeration
from williamson.diophantine import decompose_four_squares
from williamson.equivalence import (
    _CHUNK_BYTES,
    _group,
    apply_equivalence,
    canonical_forms,
    canonical_ranks,
    canonical_rows,
    dedupe,
    distinct_forms,
    expand_class,
    first_of_class,
    units,
)
from williamson.oracle import brute_force_enumerate
from williamson.pipeline import build_compression_lists, generate_candidates, match_compressions
from williamson.seqcore import Quadruple, SymmetricSequence, fold_indices


from helpers import class_key, random_op, random_quadruple, random_symmetric, reference_canonical_rows


class TestApplyEquivalence:
    @pytest.mark.parametrize("op, kwargs, message", [
        ("E1", {}, "E1 requires perm"),
        ("E4", {}, "E4 requires multiplier k"),
        ("E6", {}, "unknown operation"),
    ])
    def test_rejects_bad_arguments(self, op, kwargs, message):
        q = Quadruple([1, 1, 1], [1, -1, -1], [1, -1, -1], [1, -1, -1])
        with pytest.raises(ValueError, match=message):
            apply_equivalence(q, op, **kwargs)

    def test_e2_involution(self):
        rng = np.random.default_rng(3)
        q = random_quadruple(rng, 6)
        assert apply_equivalence(apply_equivalence(q, "E2", member=2), "E2", member=2) == q

    def test_e5_example(self):
        q = Quadruple([1, 1], [1, 1], [1, -1], [1, -1])
        out = apply_equivalence(q, "E5")
        assert out == Quadruple([1, -1], [1, -1], [1, 1], [1, 1])

    def test_e4_identity(self):
        rng = np.random.default_rng(5)
        q = random_quadruple(rng, 9)
        assert apply_equivalence(q, "E4", k=1) == q

    def test_e3_rejected_on_odd(self):
        q = Quadruple([1, 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1])
        with pytest.raises(ValueError):
            apply_equivalence(q, "E3", member=0)
        with pytest.raises(ValueError):
            apply_equivalence(q, "E5")

    def test_e4_requires_coprime(self):
        q = Quadruple([1, 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1])
        with pytest.raises(ValueError):
            apply_equivalence(q, "E4", k=3)

    @pytest.mark.parametrize("op", ["E2", "E3"])
    @pytest.mark.parametrize("member", [-1, 4, None])
    def test_member_index_out_of_range(self, op, member):
        q = Quadruple([1, 1, -1, 1], [1, 1, 1, 1], [1, -1, 1, -1], [1, 1, 1, 1])
        with pytest.raises(ValueError, match=op):
            apply_equivalence(q, op, member=member)

    def test_all_ops_invertible(self):
        rng = np.random.default_rng(7)
        q = random_quadruple(rng, 8)
        assert apply_equivalence(apply_equivalence(q, "E3", member=1), "E3", member=1) == q
        assert apply_equivalence(apply_equivalence(q, "E5"), "E5") == q
        k = 3  # 3*3 = 9 = 1 mod 8
        back = apply_equivalence(apply_equivalence(q, "E4", k=k), "E4", k=3)
        assert back == q

    def test_ops_preserve_williamson(self):
        rng = np.random.default_rng(9)
        for q in brute_force_enumerate(6)[:20]:
            out = q
            for _ in range(5):
                out = random_op(rng, out)
            from williamson.seqcore import verify_williamson

            assert verify_williamson(out)


class TestAutomorphism:
    def test_count_is_phi(self):
        for n, phi in ((2, 1), (6, 2), (9, 6), (12, 4), (30, 8)):
            assert len(units(n)) == phi
            assert len(_group(n, n)[0]) == phi

    def test_fixes_zero(self):
        for n in (2, 6, 9, 10, 12, 30):
            assert all(p[0] == 0 for p in _group(n, n)[0])


class TestCanonicalForm:
    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for n in (4, 6, 9):
            form = canonical_forms([random_quadruple(rng, n)])[0]
            assert np.array_equal(canonical_forms([form])[0], form)

    def test_e2_closure(self):
        rng = np.random.default_rng(13)
        q = random_quadruple(rng, 6)
        base = class_key(q)
        for bits in range(16):
            v = q
            for i in range(4):
                if (bits >> i) & 1:
                    v = apply_equivalence(v, "E2", member=i)
            assert class_key(v) == base

    def test_well_defined_under_random_ops(self):
        rng = np.random.default_rng(17)
        for n in (4, 6, 9, 12):
            for _ in range(250):
                q = random_quadruple(rng, n)
                v = q
                for _ in range(rng.integers(1, 6)):
                    v = random_op(rng, v)
                assert class_key(v) == class_key(q), (n, q)

    def test_canonical_is_orbit_minimum(self):
        # full group expansion cross-check for small orders
        rng = np.random.default_rng(19)
        for n in (2, 3, 4, 6, 8, 9, 10):
            q = random_quadruple(rng, n)
            orbit = expand_class(q)
            lo = min(
                tuple(tuple(0 if v == 1 else 1 for v in x.entries) for x in p.members)
                for p in orbit
            )
            canon = canonical_forms([q])[0]
            assert tuple(tuple(0 if v == 1 else 1 for v in x) for x in canon.tolist()) == lo
            assert all(class_key(p) == class_key(q) for p in orbit[:50])


def pooled_stack(rng, n, m, k):
    """At least three canonical_rows blocks of k-tuples (a block codes 8 bytes
    an entry in _CHUNK_BYTES) of m-compressions of symmetric ±1 sequences of
    order n, drawn from a pool of 8 rows and 16 of their images under E4, E5
    and E2, so that equal rows recur across block boundaries and a tuple's
    choices often tie member by member."""
    d = n // m
    free = rng.choice(np.array([-1, 1], dtype=np.int8), size=(8, n // 2 + 1))
    base = free[:, fold_indices(n)].reshape(8, m, d).sum(axis=1, dtype=np.int8)
    maps, signs, _ = _group(n, d)
    pool = [base]
    for _ in range(2):
        g, e = rng.integers(len(maps), size=8), rng.integers(len(signs), size=8)
        negate = rng.choice(np.array([-1, 1], dtype=np.int8), size=(8, 1))
        pool.append(np.take_along_axis(base, maps[g], axis=1) * signs[e] * negate)
    pool = np.concatenate(pool)
    step = _CHUNK_BYTES // (8 * k * d)
    return pool[rng.integers(len(pool), size=(3 * step + step // 2, k))]


class TestCanonicalRows:
    # rows of n=70 are too long for one float64 code: 70 bits for full rows,
    # 35 entries of 2 bits for 2-compressions
    @pytest.mark.parametrize("n, m, k", [(28, 1, 4), (40, 2, 4), (27, 3, 4), (15, 1, 8), (21, 1, 8),
                                         (70, 1, 4), (70, 2, 4)],
                             ids=["full-28", "2-compressions-40", "3-compressions-27",
                                  "octuples-15", "octuples-21", "full-70", "2-compressions-70"])
    def test_equals_per_image_reference(self, n, m, k):
        rng = np.random.default_rng(n * 10 + m)
        stack = pooled_stack(rng, n, m, k)
        got = canonical_rows(stack, n)
        assert got.dtype == np.int8 and got.shape == stack.shape
        assert np.array_equal(got, reference_canonical_rows(stack, n))
        # a tuple's form does not depend on the block it is canonicalized in
        assert np.array_equal(canonical_rows(stack[::-1], n), got[::-1])

    def test_n28_solutions_against_reference_and_memory(self):
        # the 2,880 solutions of n=28: the kernel's temporaries stay below
        # 1 MiB with its output; blocks sized by the input bytes peaked at 4.7 MiB
        report = run_enumeration(RunConfig(n=28))
        stack = np.array([[x.entries for x in q.members] for q in report.solutions], dtype=np.int8)
        assert stack.shape == (2880, 4, 28)
        tracemalloc.start()
        try:
            got = canonical_rows(stack, 28)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert np.array_equal(got, reference_canonical_rows(stack, 28))
        assert len({form.tobytes() for form in got}) == 83

    def test_n40_matches_pinned_and_memory(self):
        # the 50,050 n=40 matches, stacked in match order, hold 7,380 distinct
        # rows; the forms are pinned, and the peak, with the 3.8 MiB output,
        # stays within 8 MiB
        decs = decompose_four_squares(40)
        candidates = generate_candidates(40, decs)
        stack = np.stack([mc.rows for dec in decs
                          for mc in match_compressions(build_compression_lists(candidates, dec, 2), 40)])
        assert stack.shape == (50050, 4, 20)
        tracemalloc.start()
        try:
            got = canonical_rows(stack, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        digest = "e8cea18e95936c498a34ee05a1eef8719ba63b4fbf05fd99845c911a6eff41e3"
        assert hashlib.sha256(got.tobytes()).hexdigest() == digest

    def test_rows_too_long_to_code(self):
        with pytest.raises(ValueError, match="too long to code"):
            canonical_rows(np.ones((1, 4, 107), dtype=np.int8), 107)


class TestCanonicalForms:
    def test_shared_members_equal_fresh_copies(self):
        # the driver hands over quadruples that share member objects; the
        # forms equal those of equal fresh objects and of plain entry lists
        rng = np.random.default_rng(29)
        pool = [random_symmetric(rng, 12) for _ in range(5)]
        shared = [tuple(pool[i] for i in rng.integers(5, size=4)) for _ in range(60)]
        got = canonical_forms(shared)
        fresh = [tuple(SymmetricSequence(x.entries) for x in t) for t in shared]
        assert np.array_equal(canonical_forms(fresh), got)
        assert np.array_equal(canonical_forms([[list(x.entries) for x in t] for t in shared]), got)
        stack = np.array([[x.entries for x in t] for t in shared], dtype=np.int8)
        assert np.array_equal(got, reference_canonical_rows(stack, 12))


class TestDedupe:
    def test_oracle_n2(self):
        qs = brute_force_enumerate(2)
        assert len(qs) == 96
        assert len(dedupe(qs)) == 1

    def test_oracle_n3(self):
        assert len(dedupe(brute_force_enumerate(3))) == 1

    def test_empty(self):
        assert dedupe([]) == []

    def test_first_seen_order(self):
        qs = brute_force_enumerate(2)
        out = dedupe(qs)
        assert out[0] == Quadruple(*canonical_forms([qs[0]])[0].tolist())

    @pytest.mark.parametrize("k", [4, 8])
    def test_first_of_class_equals_first_seen_forms(self, k):
        # a tuple is the first of its class when no earlier tuple has its
        # form, and its owner counts the firsts before its class's; the
        # distinct forms are the firsts' forms, in input order
        rng = np.random.default_rng(31 + k)
        pool = [random_symmetric(rng, 10) for _ in range(3)]
        tuples = [tuple(pool[i] for i in rng.integers(3, size=k)) for _ in range(80)]
        forms = canonical_forms(tuples)
        seen = {}
        owner = [seen.setdefault(form.tobytes(), len(seen)) for form in forms]
        firsts = [owner.index(o) for o in range(len(seen))]
        stack = np.array([[x.entries for x in t] for t in tuples], dtype=np.int8)
        is_first, got = first_of_class(canonical_ranks(stack, 10)[0])
        assert np.flatnonzero(is_first).tolist() == firsts and got.tolist() == owner
        assert 1 < len(firsts) < len(tuples)
        assert np.array_equal(distinct_forms(tuples), forms[firsts])


class TestExpandClass:
    def test_closure_contains_start_and_is_equivalence_closed(self):
        rng = np.random.default_rng(23)
        q = random_quadruple(rng, 4)
        orbit = expand_class(q)
        assert q in orbit
        sample = orbit[:: max(1, len(orbit) // 20)]
        for p in sample:
            assert random_op(rng, p) in set(orbit)

    def test_expansion_covers_oracle_class(self):
        qs = brute_force_enumerate(2)
        orbit = set(expand_class(qs[0]))
        assert orbit == set(qs)  # n=2 has a single class

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_every_single_operation_stays_in_the_orbit(self, n):
        # apply_equivalence and expand_class share the E1-E5 moves; check each
        # operation with each of its arguments lands in the closure
        q = random_quadruple(np.random.default_rng(n), n)
        orbit = set(expand_class(q))
        images = [apply_equivalence(q, "E1", perm=p) for p in itertools.permutations(range(4))]
        images += [apply_equivalence(q, "E2", member=i) for i in range(4)]
        images += [apply_equivalence(q, "E4", k=k) for k in units(n)]
        if n % 2 == 0:
            images += [apply_equivalence(q, "E3", member=i) for i in range(4)]
            images.append(apply_equivalence(q, "E5"))
        for image in images:
            assert image in orbit
