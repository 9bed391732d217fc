import hashlib
import math
from itertools import product

import numpy as np
import pytest

from williamson.cli import RunConfig, _generate_instances
from williamson.diophantine import decompose_four_squares
from williamson.equivalence import _group, apply_equivalence, canonical_rows, expand_class
from williamson.oracle import brute_force_enumerate
from williamson.pipeline import MatchedCompression, build_compression_lists, generate_candidates, match_compressions
from williamson.satgen import (
    SatInstance,
    VariableMap,
    _entry_clauses,
    build_instance,
    dedupe_instances,
    encode_product_theorem,
    encode_uncompression,
    export_dimacs,
)

from helpers import compress, quadruple_of, quadruple_of_rows, random_op, random_quadruple


def instance_key(rows, n):
    return canonical_rows([rows], n)[0].tobytes()


def mc_of(rows):
    return MatchedCompression(np.array(rows, dtype=np.int8))


def dict_loop_dedupe(mcs, n):
    """First-seen dedupe with a dict from canonical-form bytes to kept index."""
    kept, discarded, by_key = [], [], {}
    for mc, form in zip(mcs, canonical_rows(np.stack([mc.rows for mc in mcs]), n)):
        key = form.tobytes()
        if key in by_key:
            discarded.append((mc, by_key[key]))
        else:
            by_key[key] = len(kept)
            kept.append(mc)
    return kept, discarded


class TestVariableMap:
    def test_counts(self):
        assert VariableMap(2).num_vars == 2 * 2 + 4
        assert VariableMap(8).num_vars == 2 * 8 + 4
        assert VariableMap(3).num_vars == 2 * 3 + 2
        assert VariableMap(9).num_vars == 2 * 9 + 2

    def test_role_major_numbering(self):
        vm = VariableMap(4)
        assert [vm.var(0, i) for i in range(3)] == [1, 2, 3]
        assert vm.var(1, 0) == 4
        assert vm.var(3, 2) == 12

    def test_folding(self):
        vm = VariableMap(6)
        assert vm.var(0, 4) == vm.var(0, 2)
        assert vm.var(2, 5) == vm.var(2, 1)

    def test_total_and_invertible(self):
        vm = VariableMap(5)
        seen = set()
        for role in range(4):
            for i in range(vm.free_count):
                v = vm.var(role, i)
                assert vm.blocks()[role][i] == v
                seen.add(v)
        assert seen == set(range(1, vm.num_vars + 1))

    def test_decode(self):
        vm = VariableMap(2)
        model = tuple(-v if v == vm.var(3, 1) else v for v in range(1, vm.num_vars + 1))
        q = quadruple_of(vm, model)
        assert q.d.entries == (1, -1)
        assert q.a.entries == (1, 1)


class TestEncodeUncompression:
    @pytest.mark.parametrize("m, value", [(2, 2), (2, 0), (2, -2), (3, 3), (3, 1), (3, -1), (3, -3)])
    def test_entry_clause_literals_share_a_sign(self, m, value):
        # so no clause encode_uncompression emits can be a tautology
        for lits in _entry_clauses(value, tuple(range(1, m + 1))):
            assert all(l > 0 for l in lits) or all(l < 0 for l in lits)

    @pytest.mark.parametrize("m, value, clauses", [
        (2, 2, [(1,), (2,)]),
        (2, 0, [(1, 2), (-1, -2)]),
        (2, -2, [(-1,), (-2,)]),
        (3, 3, [(1,), (2,), (3,)]),
        (3, 1, [(-1, -2, -3), (1, 2), (1, 3), (2, 3)]),
        (3, -1, [(1, 2, 3), (-1, -2), (-1, -3), (-2, -3)]),
        (3, -3, [(-1,), (-2,), (-3,)]),
    ])
    def test_entry_clauses_pinned(self, m, value, clauses):
        # the literals and their order reach the CNF as they are
        assert _entry_clauses(value, tuple(range(1, m + 1))) == clauses

    @pytest.mark.parametrize("variables", [(1, 2), (1, 2, 3), (1, 2, 2)], ids=["m2", "m3", "m3-folded"])
    def test_entry_clauses_count_the_sources(self, variables):
        # the clauses hold exactly when (m + value)/2 sources are +1, that is
        # when the sources sum to value; any other value is illegal
        m, names = len(variables), sorted(set(variables))
        for value in range(-m - 1, m + 2):
            if abs(value) > m or (m + value) % 2:
                with pytest.raises(ValueError, match=f"compressed entry {value} illegal for factor {m}"):
                    _entry_clauses(value, variables)
                continue
            clauses = _entry_clauses(value, variables)
            for signs in product((1, -1), repeat=len(names)):
                x = dict(zip(names, signs))
                holds = all(any(x[abs(l)] * l > 0 for l in c) for c in clauses)
                assert holds == (sum(x[v] for v in variables) == value)

    @pytest.mark.parametrize("rows, n, message", [
        ([[2, 0, 0, 0]] * 4, 6, "compressed length 4 does not divide n=6"),
        ([[1, 1]] * 4, 6, "factor 3 inconsistent with order 6"),
        ([[1, 1, 1]] * 4, 12, "factor 4 inconsistent with order 12"),
    ])
    def test_rejects_rows_not_fitting_the_order(self, rows, n, message):
        with pytest.raises(ValueError, match=message):
            encode_uncompression(rows, n)

    def test_case2_units(self):
        inst = encode_uncompression([[2], [0], [2], [-2]], 2)
        clauses = {tuple(c) for c in inst.clauses}
        assert (1,) in clauses and (2,) in clauses          # A entries forced +1
        assert (3, 4) in clauses and (-3, -4) in clauses    # B entry 0: exactly one
        assert (-7,) in clauses and (-8,) in clauses        # D entries forced -1

    def test_case1_folding_merges(self):
        inst = encode_uncompression([[3], [-1], [-1], [-1]], 3)
        clauses = {tuple(c) for c in inst.clauses}
        assert (1,) in clauses and (2,) in clauses
        assert len([c for c in clauses if c in {(1,), (2,)}]) == 2

    def test_case3_degenerate_folding(self):
        inst = encode_uncompression([[1], [-1], [-1], [3]], 3)
        clauses = {tuple(c) for c in inst.clauses}
        # entry value 1 over (x0, x1, x1): exactly one of three is -1
        assert (2,) in clauses          # x1 forced true
        assert (1, 2) in clauses
        assert (-1, -2) in clauses

    def test_no_variable_out_of_range(self):
        for n, rows in ((6, [[0, 2, 0], [-2, 0, 0], [2, 2, 2], [0, 0, -2]]),
                        (9, [[1, 1, 1], [-1, 1, 1], [3, -1, -1], [-3, 1, 1]])):
            inst = encode_uncompression(rows, n)
            assert all(abs(l) <= inst.num_vars for c in inst.clauses for l in c)

    @pytest.mark.parametrize("rows, n, message", [
        ([[1], [0], [2], [2]], 2, "compressed entry 1 illegal for factor 2"),
        ([[2], [2], [2], [2]], 3, "compressed entry 2 illegal for factor 3"),
    ], ids=["entry-1-factor-2", "entry-2-factor-3"])
    def test_rejects_illegal_entries(self, rows, n, message):
        with pytest.raises(ValueError, match=message):
            encode_uncompression(rows, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9])
    def test_model_correspondence(self, n):
        # models of the instance are exactly the quadruples compressing to mc
        from williamson.progsat import CdclSolver
        from williamson.seqcore import Quadruple, SymmetricSequence

        m = 2 if n % 2 == 0 else 3
        d = n // m
        f = n // 2 + 1
        per_row = {}

        def uncompressions(row):
            if row not in per_row:
                per_row[row] = [
                    SymmetricSequence.from_free(n, fr)
                    for fr in product((-1, 1), repeat=f)
                    if compress(SymmetricSequence.from_free(n, fr), d) == row
                ]
            return per_row[row]

        qs = brute_force_enumerate(n)
        seen_mcs = set()
        for q in qs[:40]:
            rows = tuple(compress(x, d) for x in q.members)
            if rows in seen_mcs:
                continue
            seen_mcs.add(rows)
            inst = encode_uncompression(rows, n)
            decoded = {quadruple_of(inst.var_map, model) for model in CdclSolver(inst.num_vars, inst.clauses).solve_all()}
            expected = {
                Quadruple(a, b, c, dd)
                for a in uncompressions(rows[0])
                for b in uncompressions(rows[1])
                for c in uncompressions(rows[2])
                for dd in uncompressions(rows[3])
            }
            assert decoded == expected


class TestProductTheorem:
    def test_eight_width_four_clauses_per_index(self):
        n = 9
        clauses = encode_product_theorem(n)
        per_k = (n - 1) // 2
        assert len(clauses) == 8 * per_k
        assert all(len(c) == 4 for c in clauses)

    def test_all_positive_assignment_violates(self):
        clauses = encode_product_theorem(3)
        assert any(all(l < 0 for l in c) for c in clauses)

    def test_product_minus_one_satisfies_all(self):
        n = 3
        vm = VariableMap(n)
        clauses = encode_product_theorem(n)
        ks = [vm.var(role, 1) for role in range(4)]
        for signs in product((1, -1), repeat=4):
            values = dict(zip(ks, signs))
            sat = all(any(values.get(abs(l), 1) == (1 if l > 0 else -1) for l in c) for c in clauses)
            prod = signs[0] * signs[1] * signs[2] * signs[3]
            assert sat == (prod == -1)

    def test_rejects_even_order(self):
        with pytest.raises(ValueError):
            encode_product_theorem(6)


class TestBuildInstance:
    def test_even_order_appends_e3_units(self):
        # one unit per member with a 0 among entries 0..d//2, at the first:
        # A's entry 0 (variable 1), B's entry 1 (variable 6), D's entry 0
        # (variable 13); C has no 0 and takes none
        rows = [[0, 2, 0], [-2, 0, 0], [2, 2, 2], [0, 0, -2]]
        inst = build_instance(rows, 6)
        assert inst.clauses == encode_uncompression(rows, 6).clauses + [[1], [6], [13]]
        assert inst.shifted == (0, 1, 3)

    @pytest.mark.parametrize("n", [6, 12, 20])
    def test_images_are_the_e3_shifts(self, n):
        # the images of a model are the free rows of the quadruples E3 gives,
        # shifting every subset of the members that took a unit
        rng = np.random.default_rng(n)
        for _ in range(20):
            q = random_quadruple(rng, n)
            rows = [compress(x, n // 2) for x in q.members]
            inst = build_instance(rows, n)
            vm = inst.var_map
            model = tuple(v if q.members[r].free[i] > 0 else -v
                          for r, block in enumerate(vm.blocks()) for i, v in enumerate(block))
            expected = []
            for subset in product((False, True), repeat=len(inst.shifted)):
                image = q
                for role, shift in zip(inst.shifted, subset):
                    if shift:
                        image = apply_equivalence(image, "E3", member=role)
                expected.append(image)
            images = inst.images(model)
            assert images[0] == vm.decode(model) == tuple(x.free for x in q.members)
            assert {quadruple_of_rows(n, rows) for rows in images} == set(expected)
            assert len(set(images)) == len(images) == 2 ** len(inst.shifted)

    def test_odd_order_appends_product_clauses(self):
        rows = [[1, 1, 1], [-1, 1, 1], [3, -1, -1], [-3, 1, 1]]
        inst = build_instance(rows, 9)
        base = encode_uncompression(rows, 9).clauses
        product_clauses = [list(c) for c in encode_product_theorem(9)]
        assert inst.clauses == base + product_clauses


class TestDimacs:
    def test_empty_instance(self):
        assert export_dimacs(SatInstance(2, [])) == "p cnf 2 0\n"

    def test_unit_negative(self):
        assert "-1 0" in export_dimacs(SatInstance(1, [[-1]]))

    # sha256 of the DIMACS text of every instance the driver keeps, in task
    # order: a change to any clause, or to the order of clauses or literals,
    # moves it
    @pytest.mark.parametrize("n, digest", [
        (27, "f25a2d328d465ef6b908627a1b0338d4f666661c38ccea8e45d018e570d64bb2"),
        (28, "3acca59c70a1c5abb2e6c72a46dd6b3844b593fcfe0bc18dd06a1b3d37105d01"),
    ], ids=["27", "28"])
    def test_kept_instances_pinned(self, n, digest):
        tasks, _ = _generate_instances(RunConfig(n=n))
        text = "".join(export_dimacs(build_instance(rows, n)) for _, rows in tasks)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestInstanceDedup:
    def test_key_invariant_under_reorder_and_negation(self):
        rows = ((0, 2, 0), (2, 0, 0), (2, 2, 2), (0, 0, -2))
        base = instance_key(rows, 6)
        assert instance_key(rows[::-1], 6) == base
        negated = (tuple(-v for v in rows[0]),) + rows[1:]
        assert instance_key(negated, 6) == base

    def test_key_invariant_under_automorphism(self):
        # multiply indices by k coprime to n, acting on compressed entries
        n, d = 9, 3
        rows = ((1, 1, 1), (3, -1, -1), (-1, 1, -1), (-3, 1, 1))
        k = 2
        mapped = tuple(tuple(r[(k * j) % d] for j in range(d)) for r in rows)
        assert instance_key(mapped, n) == instance_key(rows, n)

    @pytest.mark.parametrize("n,d", [(6, 3), (9, 3), (12, 6), (27, 9), (28, 14), (40, 20)])
    def test_compressed_maps_are_units_mod_d(self, n, d):
        expected = sorted({tuple((k * j) % d for j in range(d))
                           for k in range(1, n + 1) if math.gcd(k, n) == 1})
        assert sorted(map(tuple, _group(n, d)[0].tolist())) == expected

    @pytest.mark.parametrize("n", [6, 9, 12, 18, 27, 28])
    def test_compressed_key_is_a_class_invariant(self, n):
        # E5 reaches the compressed rows only when their length d is even:
        # d = 6 at n=12 and 14 at n=28, but 3 at n=6 and 9 at n=18
        rng = np.random.default_rng(n)
        d = n // (2 if n % 2 == 0 else 3)

        def rows(q):
            return [compress(x, d) for x in q.members]

        def keys(stack):
            return {form.tobytes() for form in canonical_rows(stack, n)}

        alternation_kept = []
        for _ in range(4):
            q = random_quadruple(rng, n)
            if n <= 9:
                images = expand_class(q)
            else:
                images, p = [], q
                for _ in range(50):
                    p = random_op(rng, p)
                    images.append(p)
            expected = keys([rows(q)])
            if n % 2 == 0:
                if d % 2 == 1:  # the orbit's E5 half compresses to another class
                    expected |= keys([rows(apply_equivalence(q, "E5"))])
                alternated = np.array(rows(q)) * np.where(np.arange(d) % 2, -1, 1)
                alternation_kept.append(keys([alternated]) == keys([rows(q)]))
            assert keys([rows(p) for p in images]) <= expected
        if n % 2 == 0:
            assert all(alternation_kept) if d % 2 == 0 else not any(alternation_kept)

    def test_dedupe_logs_discards(self):
        rows = ((0, 2, 0), (2, 0, 0), (2, 2, 2), (0, 0, -2))
        a = mc_of(rows)
        b = mc_of(rows[::-1])
        kept, discarded = dedupe_instances([a, b], 6)
        assert len(kept) == 1 and len(discarded) == 1
        assert discarded[0][1] == 0  # index of the kept representative

    @pytest.mark.parametrize("n, shuffled, counts", [
        (28, False, (45, 789)),
        (28, True, (45, 789)),
        (40, False, (2066, 47984)),
    ], ids=["28", "28-shuffled", "40"])
    def test_dedupe_equals_dict_loop(self, n, shuffled, counts):
        # the same kept matches and the same (match, kept index) discards, in
        # the same order, as a dict over the canonical forms gives them
        decs = decompose_four_squares(n)
        candidates = generate_candidates(n, decs)
        mcs = [mc for dec in decs for mc in match_compressions(build_compression_lists(candidates, dec, 2), n)]
        if shuffled:
            mcs = [mcs[i] for i in np.random.default_rng(n).permutation(len(mcs))]
        kept, discarded = dedupe_instances(mcs, n)
        expected_kept, expected_discarded = dict_loop_dedupe(mcs, n)
        assert (len(kept), len(discarded)) == counts
        assert [id(mc) for mc in kept] == [id(mc) for mc in expected_kept]
        assert [(id(mc), i) for mc, i in discarded] == [(id(mc), i) for mc, i in expected_discarded]
        assert all(type(i) is int for _, i in discarded)

    def test_dedupe_empty(self):
        assert dedupe_instances([], 6) == ([], [])
        assert canonical_rows(np.zeros((0, 4, 3), dtype=np.int8), 6).shape == (0, 4, 3)
