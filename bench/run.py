"""Enumeration benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload odd27 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(bench/worker.py) with one worker, importing the package from the
checkout's ``src``.  Passes repeat until ``--seconds`` have gone by, at least
one.  Set-up time is sampled in separate interpreters that only import.
With ``--trace 1`` one more pass runs with a span around each layer call;
the metrics are then the per-layer ones of BENCHMARK.json.

The workloads are exhaustive searches that take only the order, so
``--seed`` is accepted and recorded but changes no input.

Every pass is gated (see checks.py); a pass whose gate fails, or whose exact
counts differ from those of another pass or of an earlier run of the same
code in this checkout, counts as failed.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracing import Span, check_spans, layer_totals, self_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 16
DEADLINE_S = 170.0  # a run, traced or not, must end within 180 s
# Traced layer times and the pass wall time come from different clock reads;
# their sums may differ by this much before the trace is called inconsistent.
TRACE_SLACK_S = 0.01

# Layer -> the counts its spans record, each with the pass count it must
# equal whenever the pass has one (None: the pass has no such count).
LAYER_COUNTS = {
    "diophantine.decompose": {"decompositions": "decompositions"},
    "pipeline.candidates": {"examined": "examined", "survivors": "survivors", "rss_mb": None},
    "pipeline.compress": {"rows_out": None},
    "pipeline.match": {"matches": "matches"},
    "satgen.dedupe": {"kept": "kept", "discarded": "discarded"},
    "satgen.encode": {"clauses": None},
    "progsat.solve": {key: key for key in ("decisions", "conflicts", "propagations",
                                           "callback_clauses", "models")},
    "seqcore.verify": {"calls": "models", "accepted": "solutions"},
    "equivalence.canonicalize": {"solutions_in": "solutions", "classes": "classes"},
}
# Workload -> the layers a traced pass must have at least one span of.  A
# layer left unwrapped would otherwise pass silently as driver self time.
INSTANCE_LAYERS = ("diophantine.decompose", "pipeline.candidates", "pipeline.compress",
                   "pipeline.match", "satgen.dedupe")
REQUIRED_LAYERS = {
    "odd27": tuple(LAYER_COUNTS),
    "even28": tuple(LAYER_COUNTS),
    "instances40": INSTANCE_LAYERS,
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WILLIAMSON_WORKERS", None)  # it would override workers=1
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(OUT / "tmp")  # a matcher spill stays in the checkout
    return env


def spawn(args: list, deadline: float) -> dict:
    """Run bench/worker.py with ``args`` and return its result line, with
    ``setup_s`` measured from just before the interpreter starts."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for worker {args}")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {args} passed the {DEADLINE_S:.0f} s deadline") from e
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["imports_done"] - started
    return result


def layer_metrics(spans: list, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metric values of one traced pass.

    The first span is the driver (the whole pass); every layer span is its
    child.  A layer that the workload does not run reads 0."""
    totals = layer_totals(spans)
    out = {}
    for layer, keys in LAYER_COUNTS.items():
        t = totals.get(layer, {"time_s": 0.0, "counts": {}})
        out[f"{layer}.time_s"] = t["time_s"]
        for key in keys:
            out[f"{layer}.{key}"] = t["counts"].get(key, 0)
    examined = out["pipeline.candidates.examined"]
    out["pipeline.candidates.survival_ratio"] = (
        out["pipeline.candidates.survivors"] / examined if examined else 0.0)
    models = out["progsat.solve.models"]
    out["seqcore.verify.accept_ratio"] = out["seqcore.verify.accepted"] / models if models else 0.0
    out["cli.driver.self_s"] = self_time(spans, 0)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def trace_errors(spans: list, traced: dict, layers: dict, required=()) -> list:
    """Problems with a traced pass: an unsound span tree, a ``required``
    layer without a span, a driver span that does not match the pass wall
    time, or a layer count that differs from the pass count.

    Layer spans plus driver self time equal the driver span whenever the
    tree is sound, so the wall-time check is a sanity check of the driver
    span; the required-layer check is what catches a layer left unwrapped."""
    errors = check_spans(spans)
    if not spans or spans[0].name != "cli.driver" or any(s.parent is None for s in spans[1:]):
        return errors + ["the driver span is not the only root"]
    names = {s.name for s in spans}
    errors += [f"no span of layer {layer}" for layer in required if layer not in names]
    direct = sum(s.duration for s in spans if s.parent == 0)
    accounted = direct + layers["cli.driver.self_s"]
    if abs(accounted - traced["wall_s"]) > TRACE_SLACK_S:
        errors.append(f"layer spans and driver self time cover {accounted:.4f} s "
                      f"of a {traced['wall_s']:.4f} s pass")
    for layer, keys in LAYER_COUNTS.items():
        for key, count in keys.items():
            name = f"{layer}.{key}"
            if count in traced["counts"] and layers[name] != traced["counts"][count]:
                errors.append(f"{name} = {layers[name]}, but the pass reports {count} = "
                              f"{traced['counts'][count]}")
    return errors


def code_key() -> str:
    """Digest of the code whose counts are recorded: the package sources and
    the worker that takes the counts."""
    h = hashlib.sha1()
    files = sorted((ROOT / "src" / "williamson").rglob("*.py")) + [BENCH / "worker.py"]
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def checkout_drift(workload: str, counts: dict) -> list:
    """Compare ``counts`` with the first run of this workload on the same
    code in this checkout, recording any count not seen before.  The record
    is keyed by ``code_key()``, so a change that moves the counts on purpose
    starts a fresh record instead of failing."""
    path = OUT / f"counts-{workload}-{code_key()}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    drift = checks.count_drift(counts, record)
    if not drift and not counts.keys() <= record.keys():
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({**counts, **record}, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return drift


def parse_args(argv, spec: dict):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0, help="accepted and recorded; no input depends on it")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    # Half the set-up samples before the passes and half after, so that they
    # span the run as the passes do.
    setups = [spawn(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]

    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn([args.workload, "0"], deadline))
        now = time.monotonic()
        # another pass, the traced pass and the last set-up samples must fit
        needed = passes[-1]["wall_s"] * (2 + args.trace) + 5
        if now - start >= args.seconds or now + needed > deadline:
            break
    setups += [spawn(["--setup-only"], deadline)["setup_s"]
               for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    traced = spawn([args.workload, "1"], deadline) if args.trace else None
    measured = passes + ([traced] if traced else [])

    failures = []
    for p in measured:
        errors = list(p["errors"])
        drift = checks.count_drift(p["counts"], passes[0]["counts"])
        if drift:
            errors.append("counts differ from the first pass of this run: " + ", ".join(drift))
        failures.append(errors)
    drift = checkout_drift(args.workload, passes[0]["counts"])
    if drift:
        failures[0].append("counts differ from an earlier run of this code in this checkout: "
                           + ", ".join(drift))
    seed_drift = checks.count_drift(passes[0]["counts"], checks.SEED_COUNTS[args.workload])
    if seed_drift:
        print("note: counts differ from the seed commit's: " + ", ".join(seed_drift),
              file=sys.stderr)

    wall = statistics.median(p["wall_s"] for p in passes)
    if traced:
        spans = [Span(**s) for s in traced["spans"]]
        values = layer_metrics(spans, traced["wall_s"], wall)
        failures[-1].extend(trace_errors(spans, traced, values,
                                          REQUIRED_LAYERS[args.workload]))
        with open(OUT / f"spans-{args.workload}.jsonl", "w") as f:
            for s in traced["spans"]:
                f.write(json.dumps(s) + "\n")
        for layer in LAYER_COUNTS:
            share = values[f"{layer}.time_s"] / traced["wall_s"]
            print(f"share {layer} {share:.4f}")
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(setups + [p["setup_s"] for p in measured]),
        }
        declared = spec["end_to_end"]

    failed = sum(1 for errors in failures if errors)
    for errors in failures:
        for line in errors:
            print(f"FAILED: {line}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"workload {args.workload} seed {args.seed} (no effect) passes {len(measured)}")
    for i, p in enumerate(measured):
        kind = "traced" if p is traced else "untraced"
        print(f"pass {i} {kind} wall {p['wall_s']:.4f} s cpu {p['cpu_s']:.4f} s "
              f"rss {p['peak_rss_mb']:.2f} MiB setup {p['setup_s']:.4f} s")
    print("setup samples " + " ".join(f"{s:.4f}" for s in setups))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_frac {failed / len(measured)}")
    return {"correct": failed == 0, "attempted": len(measured), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "williamson" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a williamson checkout (no BENCHMARK.json or src/williamson)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    args = parse_args(argv, spec)
    try:
        result = run(args, spec)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
