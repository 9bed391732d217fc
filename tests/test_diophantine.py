import hashlib
import itertools
import json

import pytest

from williamson.diophantine import decompose_four_squares, sign_fix
from williamson.oracle import brute_force_enumerate
from williamson.seqcore import rowsum


def brute_force_decompositions(n):
    """Independent enumeration over all ordered 4-tuples, then normalization."""
    target = 4 * n
    bound = int(target ** 0.5) + 1
    normalized = set()
    values = [v for v in range(-bound, bound + 1) if (v - n) % 2 == 0]
    for tup in itertools.product(values, repeat=4):
        if sum(v * v for v in tup) != target:
            continue
        if n % 2 == 0:
            norm = tuple(sorted(abs(v) for v in tup))
        else:
            if any(v % 2 == 0 for v in tup):
                continue
            norm = tuple(sorted((sign_fix(v, n) for v in tup), key=abs))
        normalized.add(norm)
    return normalized


def test_rejects_order_zero():
    with pytest.raises(ValueError, match="order must be positive"):
        decompose_four_squares(0)


def test_n2():
    assert decompose_four_squares(2) == [(0, 0, 2, 2)]


def test_n6():
    assert decompose_four_squares(6) == [(0, 2, 2, 4)]


def test_n3_signs_fixed():
    assert decompose_four_squares(3) == [(-1, -1, -1, 3)]


def test_invariants_hold():
    for n in range(1, 40):
        for vals in decompose_four_squares(n):
            assert sum(v * v for v in vals) == 4 * n
            assert all((v - n) % 2 == 0 for v in vals)
            if n % 2 == 0:
                assert all(v >= 0 for v in vals)
                assert list(vals) == sorted(vals)
            else:
                assert all(v % 4 == n % 4 for v in vals)
                assert [abs(v) for v in vals] == sorted(abs(v) for v in vals)


def test_deterministic_order():
    for n in (9, 18, 30):
        decs = decompose_four_squares(n)
        keys = [tuple(abs(v) for v in t) for t in decs]
        assert keys == sorted(keys)
        assert len(set(decs)) == len(decs)
    # the order fixes the order of the matches, hence the kept instances and their ids
    everything = json.dumps([decompose_four_squares(n) for n in range(1, 201)])
    digest = "af2cea226d94603d9a7b45bafc3cd451400ade0be09a73b3addf81fb5e225680"
    assert hashlib.sha256(everything.encode()).hexdigest() == digest


def test_completeness_against_brute_force():
    for n in range(1, 71):
        got = set(decompose_four_squares(n))
        assert got == brute_force_decompositions(n), f"n={n}"


class TestSignFix:
    def test_r1_n3(self):
        assert sign_fix(1, 3) == -1

    def test_r3_n3(self):
        assert sign_fix(3, 3) == 3

    def test_r5_n9(self):
        assert sign_fix(5, 9) == 5

    def test_rejects_even_rowsum(self):
        with pytest.raises(ValueError):
            sign_fix(2, 3)

    def test_rejects_even_order(self):
        with pytest.raises(ValueError):
            sign_fix(1, 4)

    def test_fixes_first_entry(self):
        # a symmetric odd-order sequence whose rowsum is n mod 4 starts with +1
        from itertools import product

        from williamson.seqcore import SymmetricSequence

        for n in (3, 5, 7, 9):
            for free in product((-1, 1), repeat=n // 2 + 1):
                s = SymmetricSequence.from_free(n, free)
                r = rowsum(s)
                if r % 4 == n % 4:
                    assert s.entries[0] == 1


def test_oracle_rowsums_present():
    # every Williamson quadruple's normalized rowsum tuple is in the list
    for n in (2, 3, 4, 6):
        table = set(decompose_four_squares(n))
        for q in brute_force_enumerate(n):
            rs = [rowsum(x) for x in q.members]
            if n % 2 == 0:
                norm = tuple(sorted(abs(r) for r in rs))
            else:
                norm = tuple(sorted((sign_fix(r, n) for r in rs), key=abs))
            assert norm in table


def test_decompositions_are_int_4_tuples():
    for n in (2, 3, 27, 28):
        for dec in decompose_four_squares(n):
            assert type(dec) is tuple and len(dec) == 4
            assert all(type(v) is int for v in dec)
