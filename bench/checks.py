"""Output gates of the benchmark, independent of the package's own checks.

The PAF test here is the benchmark's own exact-integer implementation; it
does not call ``seqcore.verify_williamson`` or ``seqcore.paf``, so a defect
in those cannot hide a wrong output.
"""
from __future__ import annotations

import numpy as np

# Inequivalent Williamson sequences by order, as published (TABLE1 even
# orders, TABLE3 odd orders).
PUBLISHED_CLASSES = {27: 6, 28: 83}

# Counts the seed commit produced on every run with one worker.  A run that
# differs from them is reported, not failed: a change to the solver or the
# matcher may move them on purpose.  Drift between two runs of one checkout
# fails the run (see run.py).
SEED_COUNTS = {
    "odd27": {
        "kept": 172, "matches": 1488, "discarded": 1316, "models": 18,
        "solutions": 18, "classes": 6, "decisions": 117443, "conflicts": 68122,
        "propagations": 830336, "callback_clauses": 42986,
    },
    "even28": {
        "kept": 45, "matches": 834, "discarded": 789, "models": 2880,
        "solutions": 2880, "classes": 83, "decisions": 56200, "conflicts": 33805,
        "propagations": 281313, "callback_clauses": 17036,
    },
    "instances40": {
        "decompositions": 2, "examined": 2097152, "survivors": 161460,
        "matches": 50050, "kept": 2066, "discarded": 47984,
    },
}


def paf_sums(quads) -> np.ndarray:
    """Summed periodic autocorrelation of each quadruple, exact in int64.

    ``quads`` is an S x 4 x d integer array; row s of the result holds
    sum over members of sum_k x[k] * x[(k + t) mod d] for t = 0..d-1.
    """
    x = np.asarray(quads, dtype=np.int64)
    if x.ndim != 3 or x.shape[1] != 4:
        raise ValueError(f"expected an S x 4 x d array, got shape {x.shape}")
    d = x.shape[2]
    return np.stack([(x * np.roll(x, -t, axis=2)).sum(axis=(1, 2)) for t in range(d)], axis=1)


def paf_target_failures(quads, n: int) -> int:
    """How many quadruples do not have PAF sum exactly [4n, 0, ..., 0].

    Holds for Williamson quadruples of order n and for their compressions."""
    sums = paf_sums(quads)
    target = np.zeros(sums.shape[1], dtype=np.int64)
    target[0] = 4 * n
    return int(np.count_nonzero(np.any(sums != target, axis=1)))


def williamson_failures(quads) -> int:
    """How many S x 4 x n quadruples are not symmetric ±1 Williamson ones."""
    x = np.asarray(quads, dtype=np.int64)
    if x.shape[0] == 0:
        return 0
    n = x.shape[2]
    reflected = x[:, :, (-np.arange(n)) % n]
    shape_ok = np.all((x == 1) | (x == -1), axis=(1, 2)) & np.all(x == reflected, axis=(1, 2))
    sums = paf_sums(x)
    paf_ok = (sums[:, 0] == 4 * n) & np.all(sums[:, 1:] == 0, axis=1)
    return int(np.count_nonzero(~(shape_ok & paf_ok)))


def full_run_errors(n: int, solutions, canonical) -> list:
    """Gate for a full enumeration: the published class count, and every
    reported quadruple and class representative re-verified exactly."""
    errors = []
    expected = PUBLISHED_CLASSES[n]
    if len(canonical) != expected:
        errors.append(f"n={n}: {len(canonical)} classes, published {expected}")
    for label, quads in (("solutions", solutions), ("classes", canonical)):
        bad = williamson_failures(quads)
        if bad:
            errors.append(f"n={n}: {bad} of {len(quads)} {label} fail the exact PAF check")
    if len(solutions) < len(canonical):
        errors.append(f"n={n}: fewer solutions ({len(solutions)}) than classes")
    return errors


def instance_errors(n: int, kept_rows) -> list:
    """Gate for the instance workload: every kept compressed quadruple sums
    to [4n, 0, ..., 0] and, for even n, A'+B'+C'+D' = 0 (mod 4) entrywise."""
    rows = np.asarray(kept_rows, dtype=np.int64)
    if rows.shape[0] == 0:
        return [f"n={n}: no instances kept"]
    errors = []
    bad = paf_target_failures(rows, n)
    if bad:
        errors.append(f"n={n}: {bad} of {rows.shape[0]} kept instances miss the PAF target")
    if n % 2 == 0:
        bad = int(np.count_nonzero(np.any(rows.sum(axis=1) % 4 != 0, axis=1)))
        if bad:
            errors.append(f"n={n}: {bad} kept instances fail the mod-4 condition")
    return errors


def count_drift(counts: dict, reference: dict) -> list:
    """Keys present in both whose values differ, as readable lines."""
    return [
        f"{key}: {reference[key]} -> {counts[key]}"
        for key in sorted(counts.keys() & reference.keys())
        if counts[key] != reference[key]
    ]
