"""Shared test helpers."""
import numpy as np

from williamson.cli import COUNTERS, RunConfig, _generate_instances
from williamson.equivalence import _group, apply_equivalence, canonical_forms, units
from williamson.progsat import CdclSolver
from williamson.satgen import build_instance
from williamson.seqcore import Quadruple, SymmetricSequence, _entries_of, verify_williamson


def psd(seq) -> np.ndarray:
    """Power spectral density: |DFT(A)(s)|^2 for s = 0..n-1."""
    a = np.asarray(_entries_of(seq), dtype=np.float64)
    if a.size == 0:
        raise ValueError("empty sequence")
    spec = np.fft.fft(a)
    return (spec.real * spec.real + spec.imag * spec.imag)


def compress(seq, d: int) -> tuple:
    """m-compression: entry j is sum_t a[j + t*d] for t = 0..m-1, m = n/d.

    The entries lie in {-m, -m+2, ..., m}."""
    a = _entries_of(seq)
    n = len(a)
    if d < 1 or n % d != 0:
        raise ValueError(f"d={d} does not divide order {n}")
    m = n // d
    return tuple(sum(a[j + t * d] for t in range(m)) for j in range(d))


def class_key(q):
    """Order and canonical-form bytes of q: equal exactly for equivalent quadruples."""
    return (q.order, canonical_forms([q])[0].tobytes())


def quadruple_of_rows(n, rows):
    """The order-n quadruple of four free rows, through `SymmetricSequence.from_free`."""
    return Quadruple(*(SymmetricSequence.from_free(n, row) for row in rows))


def quadruple_of(var_map, model):
    """The quadruple of a solver model: `VariableMap.decode`'s free rows."""
    return quadruple_of_rows(var_map.n, var_map.decode(model))


def solve_without_callback(n):
    """CNF-only solving of every instance the driver keeps at order n, each
    model returned as the free rows of itself and its E3 images, as the
    driver does: the solver counters summed over the instances (the driver's
    `COUNTERS` plus ``verified``), and the quadruples that pass the exact
    check."""
    totals = dict.fromkeys(COUNTERS + ("verified",), 0)
    verified = []
    tasks, _ = _generate_instances(RunConfig(n=n))
    for _, rows in tasks:
        inst = build_instance(rows, n)
        solver = CdclSolver(inst.num_vars, inst.clauses)
        models = [quadruple_of_rows(n, free_rows) for free_rows in solver.solve_all(inst.images)]
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


def reference_canonical_rows(rows, n):
    """Canonical forms by the per-image algorithm: every (E4, E5) image of
    every member of every tuple, each minimized over {id, E2, E3, E2*E3},
    sorted within its tuple (E1), and the least tuple over the choices.
    `equivalence.canonical_rows` must agree with it."""
    rows = np.asarray(rows, dtype=np.int8)
    if len(rows) > 64:  # bounds the images held at once
        return np.concatenate([reference_canonical_rows(rows[i:i + 64], n) for i in range(0, len(rows), 64)])
    count, k, length = rows.shape
    maps, signs, shift = _group(n, length)
    top = n // length + 1  # entry v as byte top - v: never NUL, larger v first
    g = (rows[:, :, maps][:, :, :, None, :] * signs).reshape(count, k, -1, length)
    images = [g, -g]
    if shift:
        s = np.roll(g, -shift, axis=-1)
        images += [s, -s]
    b = (top - np.stack(images, axis=3)).astype(np.uint8, order="C")
    members = np.sort(b.view(f"S{length}")[..., 0], axis=-1)[..., 0]
    tuples = np.sort(members, axis=1).transpose(0, 2, 1).copy()
    best = np.sort(tuples.view(f"S{k * length}")[..., 0], axis=1)[:, 0].copy()
    return top - best.view(np.uint8).reshape(-1, k, length).astype(np.int8)
