"""Tests of the benchmark itself: span arithmetic, metric names, traced runs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import re
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import extremalflow  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import ROOT, Span, Target, Tracer, self_times, totals_by_name  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_self_time_subtracts_children_across_threads():
    spans = [
        Span(1, "a", 0.0, 10.0, ROOT, 1, 0.0),
        Span(2, "b", 1.0, 4.0, 1, 1, 0.0),
        Span(3, "c", 3.0, 6.0, 1, 2, 0.0),  # pool worker adopted by a
        Span(4, "d", 2.0, 3.0, 2, 1, 0.0),
        Span(5, "c", 7.0, 9.5, ROOT, 2, 0.0),  # overlaps a in time, not its child
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)  # children cover [1, 6] once
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(2.5)
    tot = totals_by_name(spans)
    assert tot["c"].calls == 2
    assert tot["c"].busy == pytest.approx(5.5)
    assert tot["c"].self == pytest.approx(5.5)


def test_parent_stacks_are_per_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)
    inner = tracer.wrap(Target("m", "inner"), lambda: barrier.wait())
    outer = tracer.wrap(Target("m", "outer"), lambda: inner())
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    by_id = {s.id: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s.name == "m.inner"]
    assert len(inners) == 2
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "m.outer" and parent.thread == s.thread


def test_installed_restores_every_attribute():
    before = {
        name: dict(vars(mod)) for name, mod in sys.modules.items()
        if name.startswith("extremalflow")
    }
    tracer = Tracer()
    with tracer.installed(extremalflow, run.trace_targets()):
        assert extremalflow.classifier.evolve.__wrapped__ is before[
            "extremalflow.evolvers"
        ]["evolve"]
    for name, attrs in before.items():
        now = vars(sys.modules[name])
        assert all(now[k] is v for k, v in attrs.items()), name


def test_metric_names_are_valid_and_listed():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    for name, unit in list(e2e.items()) + list(layers.items()):
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert e2e["setup_s"] == "s"
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_passes_its_checks(name):
    checks = workloads.Checks()
    metrics, _ = run.run_untraced(workloads, name, 3, 0.0, checks, workloads.SMOKE)
    assert checks.failed == 0, checks.notes
    assert checks.attempted > 0
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced(name):
    checks = workloads.Checks()
    metrics = run.run_traced(workloads, name, 5, checks, workloads.SMOKE)
    # the last check compares the traced output with the untraced one
    assert checks.failed == 0, checks.notes
    assert set(metrics) == set(run.PER_LAYER)
    if name == "hold":
        assert metrics["evolvers.advance_graph.explicit.us_per_step"] > 0
    else:
        assert metrics["classifier.classify.calls"] > 0
        assert metrics["evolvers.samples.graph"] > 0
    if name == "sweep":
        assert 1 <= metrics["classifier.sweep.workers"] <= 2
        assert metrics["classifier.sweep.overlap"] > 0
