"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py -q
"""
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from tracing import Span, Tracer, check_spans, covered, self_time  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Williamson quadruple of order 3: +++, +--, +--, +--.
W3 = [[1, 1, 1], [1, -1, -1], [1, -1, -1], [1, -1, -1]]


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # driver [0, 10] > a [1, 4] > a.inner [2, 3]; driver > b [5, 9]
    t = Tracer("r", clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with t.span("driver"):
        with t.span("a"):
            with t.span("a.inner"):
                pass
        with t.span("b"):
            pass
    spans = t.spans
    assert [s.name for s in spans] == ["driver", "a", "a.inner", "b"]
    assert [s.parent for s in spans] == [None, 0, 1, 0]
    assert self_time(spans, 0) == 10 - 3 - 4
    assert self_time(spans, 1) == 3 - 1
    assert self_time(spans, 2) == 1
    assert check_spans(spans) == []


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, None, "r"), Span("x", 1.0, 5.0, 0, "r"),
             Span("y", 3.0, 6.0, 0, "r"), Span("z", 9.0, 12.0, 0, "r")]
    assert covered([(1.0, 5.0), (3.0, 6.0), (9.0, 10.0)]) == 6.0
    assert self_time(spans, 0) == 10.0 - 6.0
    problems = check_spans(spans)
    assert any("overlap" in p for p in problems)
    assert any("outside its parent" in p for p in problems)


def test_wrap_records_counts_and_returns_result():
    t = Tracer("r", clock=fake_clock([0, 2]))
    double = t.wrap("layer", lambda x: 2 * x, lambda r, a: {"out": r, "arg": a[0]})
    assert double(4) == 8
    assert t.spans[0].counts == {"out": 8, "arg": 4}
    assert t.spans[0].duration == 2


def test_paf_checker_accepts_williamson_and_rejects_every_single_flip():
    assert checks.williamson_failures([W3]) == 0
    flipped = []
    for member in range(4):
        for i in range(3):
            q = [row[:] for row in W3]
            q[member][i] = -q[member][i]
            flipped.append(q)
    assert checks.williamson_failures(flipped) == len(flipped)
    # entry 0 keeps symmetry, so the PAF test alone must reject it
    q = [row[:] for row in W3]
    q[0][0] = -1
    assert checks.paf_target_failures([q], 3) == 1


def test_compressed_gate():
    # 2-compression of the order-2 Williamson quadruple ++, ++, +-, +-
    good = [[2], [2], [0], [0]]
    assert checks.paf_target_failures([good], 2) == 0
    assert checks.instance_errors(2, [good]) == []
    assert len(checks.instance_errors(2, [[[2], [2], [2], [2]]])) == 1  # PAF 16, not 8
    # PAF sum is [16, 0] but the column sums (2, 6) are not 0 mod 4
    mod4_bad = [[2, 0], [0, 2], [0, 2], [0, 2]]
    assert checks.paf_target_failures([mod4_bad], 4) == 0
    assert len(checks.instance_errors(4, [mod4_bad])) == 1


def test_full_run_gate_checks_published_class_count():
    assert checks.full_run_errors(27, [], []) != []
    with pytest.raises(ValueError):
        checks.paf_sums(np.ones((2, 3, 5)))


def test_count_drift():
    assert checks.count_drift({"a": 1, "b": 2}, {"a": 1, "c": 3}) == []
    assert checks.count_drift({"a": 1}, {"a": 2}) == ["a: 2 -> 1"]


def traced_pass():
    t = Tracer("r", clock=fake_clock([0.0, 0.5, 1.0, 1.5, 3.5, 3.5, 3.75, 4.0]))
    with t.span("cli.driver"):
        with t.span("pipeline.match") as c:
            c["matches"] = 3
        with t.span("progsat.solve") as c:
            c.update(models=2, decisions=7)
        with t.span("seqcore.verify") as c:
            c.update(calls=2, accepted=1)
    return t.spans


def test_layer_metrics_cover_every_declared_name_and_account_for_the_pass():
    spans = traced_pass()
    values = run.layer_metrics(spans, traced_wall=4.0, untraced_wall=3.5)
    assert {m["name"] for m in SPEC["per_layer"]} == values.keys()
    assert values["cli.driver.self_s"] == 4.0 - 0.5 - 2.0 - 0.25
    assert values["trace.overhead_s"] == 0.5
    assert values["seqcore.verify.accept_ratio"] == 0.5
    assert values["satgen.encode.time_s"] == 0.0
    traced = {"wall_s": 4.0, "counts": {"matches": 3, "models": 2, "decisions": 7}}
    assert run.trace_errors(spans, traced, values) == []
    traced["counts"]["decisions"] = 8
    assert run.trace_errors(spans, traced, values)
    traced["counts"]["decisions"] = 7
    traced["wall_s"] = 5.0
    assert run.trace_errors(spans, traced, values)


def test_trace_gate_fails_when_a_required_layer_has_no_span():
    spans = traced_pass()
    values = run.layer_metrics(spans, traced_wall=4.0, untraced_wall=3.5)
    traced = {"wall_s": 4.0, "counts": {}}
    required = ("pipeline.match", "progsat.solve", "seqcore.verify")
    assert run.trace_errors(spans, traced, values, required) == []
    errors = run.trace_errors(spans, traced, values, required + ("satgen.encode",))
    assert errors == ["no span of layer satgen.encode"]
    assert set(run.REQUIRED_LAYERS) == {w["name"] for w in SPEC["workloads"]}
    for layers in run.REQUIRED_LAYERS.values():
        assert set(layers) <= run.LAYER_COUNTS.keys()


def test_checkout_record_is_kept_per_code_version(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "code_key", lambda: "v1")
    assert run.checkout_drift("odd27", {"models": 18}) == []
    assert run.checkout_drift("odd27", {"models": 18}) == []
    assert run.checkout_drift("odd27", {"models": 19}) == ["models: 18 -> 19"]
    # a new version of the code may move the counts on purpose
    monkeypatch.setattr(run, "code_key", lambda: "v2")
    assert run.checkout_drift("odd27", {"models": 19}) == []
    assert run.checkout_drift("odd27", {"models": 18}) == ["models: 19 -> 18"]


def test_metric_and_workload_names():
    for group in ("end_to_end", "per_layer", "workloads"):
        names = [m["name"] for m in SPEC[group]]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {m["name"] for m in SPEC["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert {w["name"] for w in SPEC["workloads"]} == checks.SEED_COUNTS.keys()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import worker
    finally:
        sys.path.remove(str(ROOT / "src"))
    assert worker.WORKLOADS.keys() == checks.SEED_COUNTS.keys()
