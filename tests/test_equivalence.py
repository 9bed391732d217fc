import itertools

import numpy as np
import pytest

from williamson.equivalence import (
    _group,
    apply_equivalence,
    canonical_form,
    dedupe,
    expand_class,
    units,
)
from williamson.oracle import brute_force_enumerate
from williamson.seqcore import Quadruple, SymmetricSequence


from helpers import class_key, random_op, random_quadruple


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
            q = canonical_form(random_quadruple(rng, n))
            assert canonical_form(q) == q

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
            canon = canonical_form(q)
            assert tuple(tuple(0 if v == 1 else 1 for v in x.entries) for x in canon.members) == lo
            assert all(class_key(p) == class_key(q) for p in orbit[:50])


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
        assert out[0] == canonical_form(qs[0])


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
