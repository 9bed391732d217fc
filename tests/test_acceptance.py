"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Time budgets are stated
for 4 cores and scaled by the worker count actually available.
"""
import os
import time

import numpy as np

from williamson.cli import RunConfig, run_enumeration
from williamson.constructions import (
    assemble_hadamard,
    double,
    extract_eight_williamson,
    interleave,
)
from williamson.equivalence import distinct_forms, expand_class
from williamson.oracle import brute_force_enumerate
from williamson.progsat import CdclSolver, WilliamsonCallback
from williamson.satgen import SatInstance, encode_product_theorem, encode_uncompression
from williamson.seqcore import read_quadruples, verify_williamson

from helpers import class_key, quadruple_of, solve_without_callback

WORKERS = min(4, os.cpu_count() or 1)
BUDGET_SCALE = 4 / WORKERS

TABLE1 = {2: 1, 4: 1, 6: 1, 8: 1, 10: 2, 12: 3, 14: 5, 16: 6, 18: 23,
          20: 17, 22: 15, 24: 72, 26: 26, 28: 83, 30: 150}
TABLE3 = {3: 1, 9: 3, 15: 4, 21: 7, 27: 6}
TABLE4 = {1: 1, 3: 1, 5: 1, 7: 4, 9: 13}

# transcribed from the published order-63 listing ('+' is +1, '-' is -1)
ORDER63 = """\
-++++-+---+-+----++--++-+++++-+--+-+++++-++--++----+-+---+-++++
-++--+-+-++----++++-+--+--+++-++++-+++--+--+-++++----++-+-+--++
-++--+---+---+++--+++++-+-+++-++++-+++-+-+++++--+++---+---+--++
-----+--++++---+-+--+++-+----+-++-+----+-+++--+-+---++++--+----
"""

_cache = {}


def enumerate_order(n):
    if n not in _cache:
        _cache[n] = run_enumeration(RunConfig(n=n, workers=WORKERS))
    return _cache[n]


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def quadruple_key(q):
    return tuple(x.entries for x in q.members)


def test_criterion_1_even_order_counts():
    start = time.time()
    got = {n: enumerate_order(n).inequivalent_count for n in sorted(TABLE1)}
    elapsed = time.time() - start
    ok = got == TABLE1 and elapsed < 900 * BUDGET_SCALE
    report(1, ok, f"even counts {got} in {elapsed:.0f}s "
                  f"(budget {900 * BUDGET_SCALE:.0f}s on {WORKERS} workers)")


def test_criterion_2_odd_order_counts():
    start = time.time()
    got = {n: enumerate_order(n).inequivalent_count for n in sorted(TABLE3)}
    elapsed = time.time() - start
    ok = got == TABLE3 and elapsed < 3600 * BUDGET_SCALE
    report(2, ok, f"odd counts {got} in {elapsed:.0f}s "
                  f"(budget {3600 * BUDGET_SCALE:.0f}s on {WORKERS} workers)")


def test_criterion_3_oracle_equivalence():
    mismatches = []
    for n in (2, 3, 4, 6, 8, 9, 10):
        oracle_set = {quadruple_key(q) for q in brute_force_enumerate(n)}
        expanded = set()
        for q in enumerate_order(n).solutions:
            expanded.update(quadruple_key(p) for p in expand_class(q))
        if expanded != oracle_set:
            mismatches.append((n, len(expanded), len(oracle_set)))
    report(3, not mismatches,
           f"class-expanded pipeline sets equal brute force for n<=10 "
           f"(zero tolerance); mismatches={mismatches}")


def test_criterion_4_order_63_witness(tmp_path, capsys):
    from williamson.cli import main

    path = tmp_path / "w63.txt"
    path.write_text(ORDER63)
    code = main(["verify", str(path)])
    out = capsys.readouterr().out
    ok = code == 0 and "order 63\tWILLIAMSON" in out
    qs = read_quadruples(ORDER63.splitlines())
    ok = ok and len(qs) == 1 and verify_williamson(qs[0])
    h = assemble_hadamard(qs[0])
    ok = ok and len(h) == 252
    report(4, ok, "cmd_verify accepts the order-63 witness; Hadamard matrix "
                  "of order 252 passes exact orthogonality")


def test_criterion_5_eight_williamson_counts():
    start = time.time()
    got = {}
    for n in sorted(TABLE4):
        classes = enumerate_order(2 * n).canonical
        octuples = [extract_eight_williamson(q) for q in classes]
        got[n] = len(distinct_forms(octuples))
    elapsed = time.time() - start
    ok = got == TABLE4 and elapsed < 900 * BUDGET_SCALE
    report(5, ok, f"8-Williamson counts {got} in {elapsed:.0f}s")


def _paf_rows(rows):
    n = rows.shape[1]
    out = np.empty((rows.shape[0], n), dtype=np.int64)
    r = rows.astype(np.int64)
    for s in range(n):
        out[:, s] = (r * np.roll(r, -s, axis=1)).sum(axis=1)
    return out


def test_criterion_6_construction_properties():
    bad_doubles = []
    for n in (3, 9, 15):
        for q in enumerate_order(n).canonical:
            if not verify_williamson(double(q)):
                bad_doubles.append(n)
    rng = np.random.default_rng(42)
    identity_ok = True
    for n in range(1, 33):
        xs = rng.choice([-1, 1], size=(1000, n)).astype(np.int8)
        ys = rng.choice([-1, 1], size=(1000, n)).astype(np.int8)
        merged = np.empty((1000, 2 * n), dtype=np.int8)
        merged[:, 0::2] = xs
        merged[:, 1::2] = ys
        pm = _paf_rows(merged)
        px, py = _paf_rows(xs), _paf_rows(ys)
        for s in range(n):
            if not np.array_equal(pm[:, (2 * s) % (2 * n)], px[:, s] + py[:, s]):
                identity_ok = False
    sample = interleave([1, -1, 1], [1, 1, 1])  # exercise the public op too
    identity_ok = identity_ok and sample == (1, 1, -1, 1, 1, 1)
    ok = not bad_doubles and identity_ok
    report(6, ok, f"doubling verifies on all odd classes (failures={bad_doubles}); "
                  f"PAF interleave identity exact on 1000 pairs per order n<=32")


def test_criterion_7_numerical_invariants():
    rng = np.random.default_rng(7)
    worst_parseval = 0.0
    worst_dual = 0.0
    for n in range(2, 65):
        rows = rng.choice([-1, 1], size=(1000, n)).astype(np.float64)
        spec = np.fft.fft(rows, axis=1)
        psd = spec.real ** 2 + spec.imag ** 2
        parseval = np.abs(psd.sum(axis=1) - n * n).max() / (n * n)
        worst_parseval = max(worst_parseval, parseval)
        paf = _paf_rows(rows.astype(np.int8)).astype(np.float64)
        dual = np.abs(np.fft.fft(paf, axis=1).real - psd).max() / n
        worst_dual = max(worst_dual, dual)
    ok = worst_parseval <= 1e-6 and worst_dual <= 1e-6
    report(7, ok, f"Parseval within {worst_parseval:.2e} of 1e-6*n^2; "
                  f"PAF-PSD duality within {worst_dual:.2e} of 1e-6*n")


def _truth_table_models(num_vars, clauses):
    idx = np.arange(1 << num_vars, dtype=np.uint32)
    sat = np.ones(idx.size, dtype=bool)
    for clause in clauses:
        ok = np.zeros(idx.size, dtype=bool)
        for lit in clause:
            bit = ((idx >> (abs(lit) - 1)) & 1).astype(bool)
            ok |= bit if lit > 0 else ~bit
        sat &= ok
    out = set()
    for i in np.nonzero(sat)[0]:
        out.add(tuple(v if (int(i) >> (v - 1)) & 1 else -v for v in range(1, num_vars + 1)))
    return out


def _solve_instance_models(inst, clauses, callback):
    solver = CdclSolver(inst.num_vars, clauses, callback)
    quads = set()
    for q in (quadruple_of(inst.var_map, model) for model in solver.solve_all()):
        if verify_williamson(q):
            quads.add(quadruple_key(q))
    return quads


def test_criterion_8_solver_validation():
    rng = np.random.default_rng(808)
    mismatch = 0
    for _ in range(500):
        num_vars = int(rng.integers(5, 21))
        # clause/variable ratio in [2, 4]: instances span satisfiable-with-few-
        # models through unsatisfiable without degenerating into near-empty
        # formulas whose model lists are astronomically long
        num_clauses = int(rng.integers(2 * num_vars, 4 * num_vars))
        clauses = []
        for _ in range(num_clauses):
            vs = rng.choice(num_vars, size=3, replace=False) + 1
            clauses.append([int(v) * (1 if rng.integers(2) else -1) for v in vs])
        inst = SatInstance(num_vars, clauses)
        got = set(CdclSolver(inst.num_vars, inst.clauses).solve_all())
        if got != _truth_table_models(num_vars, clauses):
            mismatch += 1

    from williamson.cli import _generate_instances

    set_mismatch = []
    for n in (2, 3, 4, 6, 8, 9, 10, 12):
        tasks, _ = _generate_instances(RunConfig(n=n))
        for iid, rows in tasks:
            inst = encode_uncompression(rows, n)
            clauses = list(inst.clauses)
            if n % 2 == 1:
                clauses.extend(encode_product_theorem(n))
            with_cb = _solve_instance_models(inst, clauses, WilliamsonCallback(inst.var_map))
            without = _solve_instance_models(inst, clauses, None)
            if with_cb != without:
                set_mismatch.append((n, iid))
    ok = mismatch == 0 and not set_mismatch
    report(8, ok, f"500 random 3-CNF instances match truth-table enumeration "
                  f"(mismatches={mismatch}); callback vs disabled-plus-post-filter "
                  f"identical on all pipeline instances n<=12 (mismatches={set_mismatch})")


def test_criterion_9_programmatic_speedup():
    results = {}
    ok = True
    for n in (18, 24):
        on = enumerate_order(n)
        off, off_quadruples = solve_without_callback(n)
        con, coff = on.total("conflicts"), off["conflicts"]
        results[n] = (con, coff)
        ok = ok and con < coff
        ok = ok and {class_key(q) for q in on.canonical} == {class_key(q) for q in off_quadruples}
    report(9, ok, "total solver conflicts with callback strictly lower: "
                  + ", ".join(f"n={n}: {a} < {b}" for n, (a, b) in results.items()))
