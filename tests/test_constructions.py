import itertools

import numpy as np
import pytest

from williamson import constructions
from williamson.constructions import (
    assemble_hadamard,
    dedupe_octuples,
    deinterleave,
    double,
    extract_eight_williamson,
    interleave,
    shift_half,
    unshift_half,
)
from williamson.equivalence import apply_equivalence, canonical_forms, dedupe
from williamson.oracle import brute_force_enumerate
from williamson.seqcore import Quadruple, SymmetricSequence, paf, verify_williamson
from helpers import class_key, random_op


def random_pm1(rng, n):
    return [int(v) for v in rng.choice([-1, 1], size=n)]


@pytest.mark.parametrize("call, message", [
    (lambda: deinterleave([1, 1, 1]), "even length"),
    (lambda: unshift_half([1, 1]), "odd order"),
    (lambda: extract_eight_williamson(Quadruple([1, 1], [1, 1], [1, 1], [1, 1])), "not Williamson"),
], ids=["deinterleave-odd", "unshift_half-even", "extract-non-williamson"])
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestInterleave:
    def test_singletons(self):
        assert interleave([1], [-1]) == (1, -1)

    def test_pairs(self):
        assert interleave([1, 1], [-1, -1]) == (1, -1, 1, -1)

    def test_inverse(self):
        rng = np.random.default_rng(3)
        for n in (1, 4, 7):
            a, b = random_pm1(rng, n), random_pm1(rng, n)
            assert deinterleave(interleave(a, b)) == (tuple(a), tuple(b))

    def test_rejects_unequal(self):
        with pytest.raises(ValueError):
            interleave([1], [1, 1])


class TestShiftHalf:
    def test_order_one_identity(self):
        assert shift_half([1]) == (1,)
        assert shift_half([-1]) == (-1,)

    def test_order_three(self):
        # rotation by half the order: entry i comes from index i + (n+1)/2
        assert shift_half([10, 20, 30]) == (30, 10, 20)

    def test_total_shift_is_full_cycle(self):
        # two half shifts compose to a single-step rotation, so one more
        # unit shift in the same direction closes the full cycle
        rng = np.random.default_rng(5)
        for n in (3, 5, 9):
            a = tuple(random_pm1(rng, n))
            twice = shift_half(shift_half(a))
            assert twice == tuple(a[(i + 1) % n] for i in range(n))
            once_more = tuple(twice[(i - 1) % n] for i in range(n))
            assert once_more == a

    def test_unshift_inverts(self):
        rng = np.random.default_rng(7)
        for n in (1, 3, 7, 11):
            a = tuple(random_pm1(rng, n))
            assert unshift_half(shift_half(a)) == a

    def test_rejects_even_order(self):
        with pytest.raises(ValueError):
            shift_half([1, 1])

    def test_paf_invariant_under_shift(self):
        rng = np.random.default_rng(9)
        for n in (3, 9, 15):
            a = random_pm1(rng, n)
            assert paf(shift_half(a)) == paf(a)


class TestDouble:
    def test_order_one(self):
        q = Quadruple([1], [1], [1], [1])
        out = double(q)
        assert out == Quadruple([1, 1], [-1, 1], [1, 1], [-1, 1])
        assert verify_williamson(out)

    def test_rejects_even_order(self):
        q = Quadruple([1, 1], [1, 1], [1, -1], [1, -1])
        with pytest.raises(ValueError):
            double(q)

    def test_rejects_non_williamson(self):
        q = Quadruple([1, 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1])
        with pytest.raises(ValueError):
            double(q)

    def test_double_verifies_on_oracle_classes(self):
        for n in (3, 5):
            for q in dedupe(brute_force_enumerate(n)):
                assert verify_williamson(double(q))

    def test_order_five_reorders_give_both_order_ten_classes(self):
        classes5 = dedupe(brute_force_enumerate(5))
        assert len(classes5) == 1
        keys = set()
        for perm in itertools.permutations(range(4)):
            q = apply_equivalence(classes5[0], "E1", perm=perm)
            keys.add(class_key(double(q)))
        assert len(keys) == 2
        assert keys == {class_key(q) for q in dedupe(brute_force_enumerate(10))}


class TestPafInterleaveIdentity:
    def test_identity(self):
        # PAF(X interleave Y)(2s) = PAF(X)(s) + PAF(Y)(s)
        rng = np.random.default_rng(11)
        for n in (2, 5, 8, 13):
            for _ in range(50):
                x, y = random_pm1(rng, n), random_pm1(rng, n)
                merged = paf(interleave(x, y))
                px, py = paf(x), paf(y)
                assert all(merged[2 * s % (2 * n)] == px[s] + py[s] for s in range(n))


class TestExtractEight:
    def test_order_two_example(self):
        q = Quadruple([1, 1], [1, 1], [1, -1], [1, -1])
        octuple = extract_eight_williamson(q)
        assert isinstance(octuple, tuple)
        assert all(isinstance(x, SymmetricSequence) for x in octuple)
        assert tuple(x.entries for x in octuple) == (
            (1,), (1,), (1,), (1,), (1,), (-1,), (1,), (-1,),
        )
        assert verify_williamson(octuple)  # vacuous at order 1

    def test_rejects_wrong_shape(self):
        q = Quadruple([1], [1], [1], [1])
        with pytest.raises(ValueError):
            extract_eight_williamson(q)
        q4 = next(iter(brute_force_enumerate(4)))
        with pytest.raises(ValueError):
            extract_eight_williamson(q4)

    def test_double_then_extract_roundtrip(self):
        for n in (1, 3, 5):
            for q in dedupe(brute_force_enumerate(n))[:3]:
                octuple = extract_eight_williamson(double(q))
                got = [x.entries for x in octuple]
                a, b, c, d = (x.entries for x in q.members)
                neg = lambda e: tuple(-v for v in e)
                assert got == [a, b, neg(a), b, c, d, neg(c), d]

    def test_extraction_members_symmetric_and_octuple_verifies(self):
        for q in brute_force_enumerate(6)[:40]:
            octuple = extract_eight_williamson(q)
            assert verify_williamson(octuple)

    def test_extraction_is_class_invariant(self):
        rng = np.random.default_rng(13)
        base = brute_force_enumerate(6)[0]
        key = canonical_forms([extract_eight_williamson(base)])[0].tobytes()
        q = base
        for _ in range(8):
            q = random_op(rng, q)
            assert canonical_forms([extract_eight_williamson(q)])[0].tobytes() == key


class TestOctuple:
    def test_dedupe_octuples(self):
        octs = [extract_eight_williamson(q) for q in brute_force_enumerate(2)]
        (kept,) = dedupe_octuples(octs)
        assert len(kept) == 8 and all(isinstance(x, SymmetricSequence) for x in kept)


class TestHadamard:
    def test_circulant_entries(self):
        n = 3
        q = brute_force_enumerate(n)[0]
        h = assemble_hadamard(q)
        for col, x in enumerate(q.members):  # top block row: A B C D
            a = x.entries
            block = h[:n, col * n:(col + 1) * n]
            assert block.tolist() == [[a[(j - i) % n] for j in range(n)] for i in range(n)]
        assert len({x.entries for x in q.members}) > 1

    def test_order_one_quadruple_gives_4x4(self):
        h = assemble_hadamard(Quadruple([1], [1], [1], [1]))
        assert h.shape == (4, 4) and h.dtype == np.int64

    def test_orthogonality_on_oracle_output(self):
        for n in (2, 3, 6):
            for q in brute_force_enumerate(n)[:25]:
                h = assemble_hadamard(q)
                assert np.array_equal(h @ h.T, 4 * n * np.eye(4 * n, dtype=np.int64))

    def test_rejects_non_williamson(self):
        q = Quadruple([1, 1], [1, 1], [1, 1], [1, -1])
        with pytest.raises(ValueError):
            assemble_hadamard(q)

    def test_non_orthogonal_rows_raise(self, monkeypatch):
        # with the Williamson check waved through, the orthogonality check catches it
        monkeypatch.setattr(constructions, "verify_williamson", lambda q: True)
        q = Quadruple([1, 1], [1, 1], [1, 1], [1, -1])
        with pytest.raises(ValueError, match="not pairwise orthogonal"):
            assemble_hadamard(q)
