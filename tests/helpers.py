"""Shared test helpers."""
import numpy as np

from williamson.cli import COUNTERS, RunConfig, _generate_instances
from williamson.equivalence import apply_equivalence, canonical_forms, units
from williamson.progsat import CdclSolver
from williamson.satgen import build_instance
from williamson.seqcore import Quadruple, SymmetricSequence, verify_williamson


def class_key(q):
    """Order and canonical-form bytes of q: equal exactly for equivalent quadruples."""
    return (q.order, canonical_forms([q])[0].tobytes())


def solve_without_callback(n):
    """CNF-only solving of every instance the driver keeps at order n, each
    model returned with its E3 images as the driver does: the solver counters
    summed over the instances (the driver's `COUNTERS` plus ``verified``),
    and the models that pass the exact check."""
    totals = dict.fromkeys(COUNTERS + ("verified",), 0)
    verified = []
    tasks, _ = _generate_instances(RunConfig(n=n))
    for _, rows in tasks:
        inst = build_instance(rows, n)
        solver = CdclSolver(inst.num_vars, inst.clauses)
        models = [inst.var_map.decode(model) for model in solver.solve_all(inst.images)]
        for k in COUNTERS:
            totals[k] += len(models) if k == "solutions" else getattr(solver.stats, k)
        verified.extend(q for q in models if verify_williamson(q))
    totals["verified"] = len(verified)
    return totals, verified


def random_pm1(rng, n):
    return [int(v) for v in rng.choice([-1, 1], size=n)]


def random_symmetric(rng, n):
    free = [int(v) for v in rng.choice([-1, 1], size=n // 2 + 1)]
    return SymmetricSequence.from_free(n, free)


def random_quadruple(rng, n):
    return Quadruple(*(random_symmetric(rng, n) for _ in range(4)))


def random_op(rng, q):
    n = q.order
    ops = ["E1", "E2", "E4"]
    if n % 2 == 0:
        ops += ["E3", "E5"]
    op = ops[rng.integers(len(ops))]
    if op == "E1":
        return apply_equivalence(q, "E1", perm=tuple(rng.permutation(4).tolist()))
    if op == "E2":
        return apply_equivalence(q, "E2", member=int(rng.integers(4)))
    if op == "E3":
        return apply_equivalence(q, "E3", member=int(rng.integers(4)))
    if op == "E4":
        ks = units(n)
        return apply_equivalence(q, "E4", k=ks[rng.integers(len(ks))])
    return apply_equivalence(q, "E5")
