import pytest

from williamson.cli import RunConfig, run_enumeration
from williamson.equivalence import dedupe, expand_class
from williamson.oracle import brute_force_enumerate, brute_force_uncompress
from williamson.seqcore import compress, rowsum, verify_williamson

from helpers import class_key
from test_acceptance import TABLE1, quadruple_key


def test_order_one_all_sign_choices():
    qs = brute_force_enumerate(1)
    assert len(qs) == 16


def test_order_two_count():
    # two members from {++, --}, two from {+-, -+}: C(4,2) * 2^2 * 2^2 = 96
    qs = brute_force_enumerate(2)
    assert len(qs) == 96
    assert all(verify_williamson(q) for q in qs)


def test_order_three_single_class():
    assert len(dedupe(brute_force_enumerate(3))) == 1


def test_order_twelve_equals_pipeline():
    # the largest order the oracle covers: its quadruples are exactly the
    # class expansions of the pipeline's classes, as many as TABLE1 lists
    qs = brute_force_enumerate(12)
    assert len(qs) == 16384
    classes = dedupe(qs)
    assert len(classes) == TABLE1[12] == 3
    report = run_enumeration(RunConfig(n=12))
    assert {class_key(q) for q in classes} == {class_key(q) for q in report.canonical}
    expanded = {quadruple_key(p) for q in report.canonical for p in expand_class(q)}
    assert expanded == {quadruple_key(q) for q in qs}


def test_budget_guard_is_hard_error():
    with pytest.raises(ValueError):
        brute_force_enumerate(13)
    with pytest.raises(ValueError):
        brute_force_enumerate(0)


def test_uncompress_n2_example():
    qs = brute_force_uncompress([[0], [0], [2], [2]], 2)
    assert len(qs) == 4
    assert all(verify_williamson(q) for q in qs)
    assert all(compress(q.c, 1) == (2,) for q in qs)


def test_uncompress_rejects_length_not_dividing_order():
    with pytest.raises(ValueError, match="does not divide order 6"):
        brute_force_uncompress([[2, 0, 0, 0]] * 4, 6)


def test_uncompress_illegal_parity_entry():
    # an odd entry cannot come from a 2-compression
    assert brute_force_uncompress([[1], [0], [2], [2]], 2) == []


def test_uncompress_union_equals_enumeration_restricted():
    # union over the compressions occurring among oracle solutions equals the
    # oracle set itself
    n, d = 6, 3
    qs = brute_force_enumerate(n)
    by_compression = {}
    for q in qs:
        key = tuple(compress(x, d) for x in q.members)
        by_compression.setdefault(key, set()).add(q)
    for key, expected in by_compression.items():
        got = set(brute_force_uncompress(key, n))
        assert got == expected


def test_uncompress_respects_rowsums():
    n = 6
    for q in brute_force_enumerate(n)[:10]:
        key = [compress(x, 3) for x in q.members]
        for found in brute_force_uncompress(key, n):
            assert [rowsum(x) for x in found.members] == [rowsum(x) for x in q.members]
