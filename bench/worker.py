"""One workload pass in a fresh interpreter, as a user runs one order per process.

    python3 bench/worker.py WORKLOAD TRACE    # TRACE is 0 or 1
    python3 bench/worker.py --setup-only      # import the package and stop

run.py starts this script with ``PYTHONPATH`` set to the checkout's ``src``
and reads the one JSON line it prints last: ``imports_done`` on the
system-wide monotonic clock, and for a pass its wall and CPU time, peak RSS,
exact counts, gate errors and, when traced, the spans.
"""
import json
import os
import resource
import sys
import time
from dataclasses import asdict

from williamson import cli, diophantine, equivalence, pipeline, satgen

IMPORTS_DONE = time.monotonic()

import checks  # noqa: E402  (bench/ is sys.path[0]; kept out of the setup time)
from tracing import Tracer, patched  # noqa: E402

# name -> (kind, order).  "full" is run_enumeration; "instances" is steps 1-4
# plus instance dedupe through the public functions, in the driver's order.
WORKLOADS = {
    "odd27": ("full", 27),
    "even28": ("full", 28),
    "instances40": ("instances", 40),
}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def full_pass(n: int) -> dict:
    cfg = cli.RunConfig(n=n, workers=1)
    if cfg.workers != 1:
        raise SystemExit(f"worker count is {cfg.workers}, not 1; unset WILLIAMSON_WORKERS")
    report = cli.run_enumeration(cfg)
    solutions = [[m.entries for m in q.members] for q in report.solutions]
    canonical = [[m.entries for m in q.members] for q in report.canonical]
    counts = {
        "kept": report.instance_count,
        "discarded": report.discarded_instances,
        "matches": report.instance_count + report.discarded_instances,
        "models": report.total("solutions"),
        "solutions": len(report.solutions),
        "classes": report.inequivalent_count,
        "decisions": report.total("decisions"),
        "conflicts": report.total("conflicts"),
        "propagations": report.total("propagations"),
        "callback_clauses": report.total("callback_clauses"),
    }
    return {"counts": counts, "check": lambda: checks.full_run_errors(n, solutions, canonical)}


def instances_pass(n: int) -> dict:
    m = cli.smallest_prime_divisor(n)
    decs = diophantine.decompose_four_squares(n)
    candidates = pipeline.generate_candidates(n, decs)
    matched = []
    for dec in decs:
        lists = pipeline.build_compression_lists(candidates, dec, m)
        matched.extend(pipeline.match_compressions(lists, n, mod4_filter=n % 2 == 0))
    kept, discarded = satgen.dedupe_instances(matched, n)
    counts = {
        "decompositions": len(decs),
        "examined": candidates.examined,
        "survivors": sum(len(c) for c in candidates.lists.values()),
        "matches": len(matched),
        "kept": len(kept),
        "discarded": len(discarded),
    }
    rows = [mc.rows for mc in kept]
    return {"counts": counts, "check": lambda: checks.instance_errors(n, rows)}


def instrument(tracer: Tracer) -> list:
    """Replacements that put a span around every layer call of a pass."""
    t = tracer

    class TracedSolver(cli.CdclSolver):
        def __init__(self, *args, **kwargs):
            with t.span("progsat.solve"):
                super().__init__(*args, **kwargs)

        def solve_all(self, *args, **kwargs):
            with t.span("progsat.solve") as counts:
                models = super().solve_all(*args, **kwargs)
                st = self.stats
                counts.update(decisions=st.decisions, conflicts=st.conflicts,
                              propagations=st.propagations,
                              callback_clauses=st.callback_clauses, models=len(models))
            return models

    decompose = t.wrap("diophantine.decompose", diophantine.decompose_four_squares,
                       lambda r, a: {"decompositions": len(r)})
    candidates = t.wrap("pipeline.candidates", pipeline.generate_candidates,
                        lambda r, a: {"examined": r.examined,
                                      "survivors": sum(len(c) for c in r.lists.values()),
                                      "rss_mb": _rss_mb()})
    compress = t.wrap("pipeline.compress", pipeline.build_compression_lists,
                      lambda r, a: {"rows_out": sum(len(lst) for lst in r)})
    match = t.wrap("pipeline.match", pipeline.match_compressions,
                   lambda r, a: {"matches": len(r)})
    return [
        (diophantine, "decompose_four_squares", decompose),
        (cli, "decompose_four_squares", decompose),
        (pipeline, "generate_candidates", candidates),
        (cli, "generate_candidates", candidates),
        (pipeline, "build_compression_lists", compress),
        (cli, "build_compression_lists", compress),
        (pipeline, "match_compressions", match),
        (cli, "match_compressions", match),
        (satgen, "dedupe_instances",
         t.wrap("satgen.dedupe", satgen.dedupe_instances,
                lambda r, a: {"kept": len(r[0]), "discarded": len(r[1])})),
        (satgen, "encode_uncompression",
         t.wrap("satgen.encode", satgen.encode_uncompression,
                lambda r, a: {"clauses": len(r.clauses)})),
        (satgen, "encode_product_theorem",
         t.wrap("satgen.encode", satgen.encode_product_theorem,
                lambda r, a: {"clauses": len(r)})),
        (cli, "CdclSolver", TracedSolver),
        (cli, "verify_williamson",
         t.wrap("seqcore.verify", cli.verify_williamson,
                lambda r, a: {"calls": 1, "accepted": int(bool(r))})),
        (equivalence, "dedupe",
         t.wrap("equivalence.canonicalize", equivalence.dedupe,
                lambda r, a: {"solutions_in": len(a[0]), "classes": len(r)})),
    ]


def run_pass(workload: str, traced: bool) -> dict:
    kind, n = WORKLOADS[workload]
    body = full_pass if kind == "full" else instances_pass
    tracer = Tracer(run=f"{workload}-{os.getpid()}")
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if traced:
        with patched(instrument(tracer)), tracer.span("cli.driver"):
            out = body(n)
    else:
        out = body(n)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    rss = _rss_mb()
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "counts": out["counts"],
        "errors": out["check"](),
        "spans": [asdict(s) for s in tracer.spans],
    }


def main(argv) -> int:
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"error: williamson imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"imports_done": IMPORTS_DONE}
    if argv != ["--setup-only"]:
        if len(argv) != 2 or argv[0] not in WORKLOADS or argv[1] not in ("0", "1"):
            print(__doc__, file=sys.stderr)
            return 2
        result.update(run_pass(argv[0], argv[1] == "1"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
