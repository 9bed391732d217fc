import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from williamson.constructions import extract_eight_williamson
from williamson.oracle import brute_force_enumerate
from williamson.seqcore import (
    Quadruple,
    SymmetricSequence,
    cosine_table,
    fold_indices,
    format_sequence,
    paf,
    parse_blocks,
    parse_sequence,
    read_quadruples,
    rowsum,
    verify_williamson,
)

from helpers import compress, psd


def brute_paf(a, s):
    n = len(a)
    return sum(a[k] * a[(k + s) % n] for k in range(n))


def brute_dft_psd(a):
    import cmath

    n = len(a)
    out = []
    for s in range(n):
        z = sum(a[k] * cmath.exp(2j * cmath.pi * k * s / n) for k in range(n))
        out.append(abs(z) ** 2)
    return out


def random_pm1(rng, n):
    return [int(v) for v in rng.choice([-1, 1], size=n)]


def symmetric_of(rng, n):
    free = [int(v) for v in rng.choice([-1, 1], size=n // 2 + 1)]
    return SymmetricSequence.from_free(n, free)


@pytest.mark.parametrize("call, message", [
    (lambda: SymmetricSequence([]), "empty sequence"),
    (lambda: SymmetricSequence.from_free(5, (1, 1)), "expected 3 free entries"),
    (lambda: SymmetricSequence.from_free(5, (1, 0, 1)), r"entry 0 is not \+1 or -1"),
    (lambda: paf([]), "empty sequence"),
    (lambda: psd([]), "empty sequence"),
], ids=["empty", "from_free-count", "from_free-entry", "paf-empty", "psd-empty"])
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestSymmetricSequence:
    def test_rejects_non_pm1(self):
        with pytest.raises(ValueError):
            SymmetricSequence([1, 0, 1])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymmetricSequence([1, 1, -1])

    def test_free_storage_roundtrip(self):
        s = SymmetricSequence([1, -1, 1, 1, -1])
        assert s.free == (1, -1, 1)
        assert SymmetricSequence.from_free(5, s.free).entries == s.entries

    def test_fold_indices(self):
        assert fold_indices(1) == (0,)
        assert fold_indices(5) == (0, 1, 2, 2, 1)
        assert fold_indices(6) == (0, 1, 2, 3, 2, 1)
        s = SymmetricSequence.from_free(6, (1, -1, -1, 1))
        assert s.entries == tuple(s.free[i] for i in fold_indices(6))

    def test_from_free_equals_constructor(self):
        rng = np.random.default_rng(16)
        for n in range(1, 17):
            for _ in range(4):
                free = [int(v) for v in rng.choice([-1, 1], size=n // 2 + 1)]
                expanded = free + free[1:(n + 1) // 2][::-1]
                s, t = SymmetricSequence.from_free(n, free), SymmetricSequence(expanded)
                assert s.entries == t.entries == tuple(expanded) and s.free == t.free
                assert s == t and hash(s) == hash(t)

    def test_quadruple_requires_equal_orders(self):
        with pytest.raises(ValueError):
            Quadruple([1], [1], [1], [1, 1])


class TestPaf:
    def test_constant(self):
        assert paf([1, 1, 1, 1]) == (4, 4, 4, 4)

    def test_length_two(self):
        assert paf([1, -1]) == (2, -2)

    def test_derived_by_direct_summation(self):
        a = [1, 1, -1, 1]
        expected = tuple(brute_paf(a, s) for s in range(4))
        assert expected == (4, 0, 0, 0)
        assert paf(a) == expected

    def test_symmetry_and_parity(self):
        rng = np.random.default_rng(7)
        for n in (3, 5, 8, 12, 17):
            for _ in range(50):
                a = random_pm1(rng, n)
                p = paf(a)
                assert p[0] == n
                assert all(p[s] == p[n - s] for s in range(1, n))
                assert all((p[s] - n) % 2 == 0 for s in range(n))


class TestPsd:
    def test_constant(self):
        assert np.allclose(psd([1, 1, 1, 1]), [16, 0, 0, 0], atol=1e-9)

    def test_derived_by_direct_dft(self):
        a = [1, 1, -1, 1]
        expected = brute_dft_psd(a)
        assert np.allclose(expected, [4, 4, 4, 4], atol=1e-9)
        assert np.allclose(psd(a), expected, atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 16, 31, 64, 128):
            for _ in range(20):
                a = random_pm1(rng, n)
                assert abs(psd(a).sum() - n * n) <= 1e-6 * n * n

    def test_paf_psd_duality(self):
        # the DFT of the PAF vector equals the PSD entrywise
        rng = np.random.default_rng(13)
        for n in (4, 9, 21, 33):
            for _ in range(25):
                a = random_pm1(rng, n)
                dual = np.fft.fft(np.asarray(paf(a), dtype=float)).real
                assert np.abs(dual - psd(a)).max() <= 1e-6 * n

    def test_accuracy_against_direct_dft(self):
        rng = np.random.default_rng(17)
        for n in (31, 64, 127, 128):
            a = random_pm1(rng, n)
            expected = np.asarray(brute_dft_psd(a))
            scale = np.maximum(expected, 1.0)
            assert (np.abs(psd(a) - expected) / scale).max() < 1e-6

    def test_cosine_table_gives_the_half_spectrum(self):
        # free entries times the table, squared, is the PSD at 0..n//2: on
        # symmetric ±1 rows, and on their m-compressions, which are symmetric
        rng = np.random.default_rng(19)
        for n in range(1, 31):
            for _ in range(20):
                a = symmetric_of(rng, n)
                got = np.square(np.array(a.free) @ cosine_table(n))
                assert np.abs(got - psd(a)[:n // 2 + 1]).max() <= 1e-9, (n, a)
        for n, m in ((27, 3), (28, 2), (40, 2)):
            d = n // m
            for _ in range(50):
                c = compress(symmetric_of(rng, n), d)
                got = np.square(np.array(c[:d // 2 + 1]) @ cosine_table(d))
                assert np.abs(got - psd(c)[:d // 2 + 1]).max() <= 1e-9, (n, c)
        assert cosine_table(12) is cosine_table(12) and not cosine_table(12).flags.writeable


class TestCompress:
    def test_all_ones(self):
        assert compress([1, 1, 1, 1], 2) == (2, 2)

    def test_direct_summation(self):
        assert compress([1, 1, -1, 1, 1, -1], 2) == (1, 1)

    def test_identity_compression(self):
        x = [1, -1, -1, 1, -1, -1]
        assert compress(x, 6) == tuple(x)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            compress([1, 1, 1], 2)

    def test_alphabets(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            s = symmetric_of(rng, 12)
            assert set(compress(s, 6)) <= {-2, 0, 2}
        for _ in range(30):
            s = symmetric_of(rng, 9)
            assert set(compress(s, 3)) <= {-3, -1, 1, 3}

    def test_rowsum_consistency(self):
        rng = np.random.default_rng(23)
        for n, divisors in ((12, (1, 2, 3, 4, 6, 12)), (9, (1, 3, 9))):
            for _ in range(10):
                s = symmetric_of(rng, n)
                for d in divisors:
                    assert rowsum(compress(s, d)) == rowsum(s)


class TestRowsum:
    def test_examples(self):
        assert rowsum([1, 1, 1, 1]) == 4
        assert rowsum([1, -1, -1]) == -1

    def test_parity(self):
        rng = np.random.default_rng(29)
        for n in (3, 8, 13):
            for _ in range(20):
                assert (rowsum(random_pm1(rng, n)) - n) % 2 == 0

    def test_rowsum_squared_is_psd_at_zero(self):
        rng = np.random.default_rng(31)
        for n in (4, 7, 12):
            a = random_pm1(rng, n)
            assert abs(rowsum(a) ** 2 - psd(a)[0]) < 1e-6


class TestVerifyWilliamson:
    def test_order_one_vacuous(self):
        assert verify_williamson(Quadruple([1], [1], [1], [1]))

    def test_order_two_true(self):
        assert verify_williamson(Quadruple([1, 1], [1, 1], [1, -1], [1, -1]))

    def test_order_two_false(self):
        assert not verify_williamson(Quadruple([1, 1], [1, 1], [1, 1], [1, -1]))

    @pytest.mark.parametrize("n", [5, 8, 9])
    def test_agrees_with_every_shift(self, n):
        # checking shifts 1..n//2 decides the same as checking all n - 1, on
        # the oracle's solutions and on each with one free entry of A flipped
        for q in brute_force_enumerate(n)[:100]:
            a, b, c, d = q.members
            variants = [q] + [Quadruple(SymmetricSequence.from_free(n, a.free[:i] + (-a.free[i],) + a.free[i + 1:]),
                                        b, c, d) for i in range(n // 2 + 1)]
            for v in variants:
                expected = all(sum(paf(x)[s] for x in v.members) == 0 for s in range(1, n))
                assert verify_williamson(v) == expected
            assert verify_williamson(q)

    @pytest.mark.parametrize("k", [4, 8])
    def test_agrees_with_paf_definition(self, k):
        # random ±1 k-tuples, not symmetric: the popcount check against paf()
        rng = np.random.default_rng(41 + k)
        accepted = 0
        for n in range(1, 31):
            for _ in range(40):
                rows = [random_pm1(rng, n) for _ in range(k)]
                expected = all(sum(paf(a)[s] for a in rows) == 0 for s in range(1, n))
                assert verify_williamson(rows) == expected, (k, n, rows)
                accepted += expected
        assert accepted > 0

    @pytest.mark.parametrize("order", [6, 10])
    def test_octuples(self, order):
        # eight members of odd order n; flipping a symmetric pair x[i], x[n-i]
        # of any member breaks the PAF identity
        for q in brute_force_enumerate(order)[:5]:
            octuple = [x.entries for x in extract_eight_williamson(q)]
            assert verify_williamson(octuple)
            n = len(octuple[0])
            for j, i in itertools.product(range(8), range(1, n // 2 + 1)):
                row = list(octuple[j])
                row[i], row[n - i] = -row[i], -row[n - i]
                assert not verify_williamson(octuple[:j] + [row] + octuple[j + 1:]), (j, i)

    @pytest.mark.parametrize("rows, entry", [
        ([(1, 2), (1, 1), (1, 1), (1, 1)], "2"),
        ([(1, 1), (1, 1), (0, 1), (1, 1)], "0"),
        ([(1, 1, 1)] * 7 + [(1, -3, -3)], "-3"),
    ], ids=["two", "zero", "octuple-minus-three"])
    def test_rejects_entries_other_than_pm1(self, rows, entry):
        with pytest.raises(ValueError, match=rf"entry {entry} is not \+1 or -1"):
            verify_williamson(rows)

    def test_rejects_members_of_unequal_length(self):
        with pytest.raises(ValueError, match="equal length"):
            verify_williamson([(1, 1), (1, 1), (1, 1), (1, 1, 1)])

    def test_agrees_with_psd_characterization(self):
        # whenever the PAF condition holds the PSD values sum to 4n everywhere
        rng = np.random.default_rng(37)
        hits = 0
        for _ in range(4000):
            n = 3
            q = Quadruple(*(symmetric_of(rng, n) for _ in range(4)))
            total = sum(psd(x) for x in q.members)
            if verify_williamson(q):
                hits += 1
                assert np.abs(total - 4 * n).max() <= 1e-4
            else:
                assert np.abs(total - 4 * n).max() > 1e-4
        assert hits > 0


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 20), st.data())
def test_paf_properties_hypothesis(n, data):
    entries = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    p = paf(entries)
    assert p[0] == n
    assert all(p[s] == p[n - s] for s in range(1, n))


class TestTextFormat:
    def test_roundtrip(self):
        s = SymmetricSequence([1, -1, 1, 1, -1])
        assert parse_sequence(format_sequence(s)) == s

    def test_parse_blocks_and_blank_separation(self):
        text = "++\n+-\n\n--\n".splitlines()
        blocks = parse_blocks(text)
        assert [len(b) for b in blocks] == [2, 1]

    def test_read_quadruples_reports_block_size(self):
        with pytest.raises(ValueError, match="expected 4"):
            read_quadruples(["++", "+-"])

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_blocks(["++", "+x"])

    def test_split_fields_on_one_line(self):
        blocks = parse_blocks(["+++ +--  "])
        assert len(blocks[0]) == 2
