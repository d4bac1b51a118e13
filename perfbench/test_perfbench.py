"""Self-test of the benchmark; run from the checkout root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import pathlib
import shutil
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import covkb  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir(request):
    """A fresh directory under the checkout's .perfbench_out/."""
    path = pathlib.Path(ROOT, ".perfbench_out", "selftest", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_generator_is_deterministic(workdir):
    a = synth.write_pool(str(workdir / "a"), 11, 300, 20, 100, 0.1)
    b = synth.write_pool(str(workdir / "b"), 11, 300, 20, 100, 0.1)
    c = synth.write_pool(str(workdir / "c"), 12, 300, 20, 100, 0.1)
    for name in ("background.kbr", "evidence.kbr", "candidates.kbr", "synth.scn"):
        data_a = (workdir / "a" / name).read_bytes()
        assert data_a == (workdir / "b" / name).read_bytes()
        if name != "synth.scn":
            assert data_a != (workdir / "c" / name).read_bytes()
    cfg = covkb.load_scenario(a)
    assert cfg.capacity == 100 and cfg.steps == 20
    candidates = covkb.parse_file(str(workdir / "a" / "candidates.kbr"))
    assert len(candidates) == 300
    assert len({covkb.canonical_form(r) for r in candidates}) == 300


@pytest.mark.parametrize("name", ["incremental", "grid"])
def test_gates_pass_at_reference_and_catch_changed_bytes(workdir, name):
    out = str(workdir)
    unit = workloads.TABLE[0]
    workloads.prepare(name, out, unit)
    outcome = workloads.execute(covkb, name, ROOT, out, unit)
    refs = workloads.load_references()
    assert workloads.gate(covkb, name, unit, outcome, refs) is None
    path = sorted(outcome.files.values())[0]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert "sha256" in workloads.gate(covkb, name, unit, outcome, refs)


def test_invariant_gate_catches_a_broken_reduction(workdir):
    out = str(workdir)
    outcome = workloads.execute(covkb, "incremental", ROOT, out, workloads.TABLE[0])
    graph = outcome.state.graph
    assert workloads.check_state(covkb, outcome.state) is None
    u, v = sorted(graph.nodes)[:2]
    graph.reduced[u].add(v)
    graph.reduced[v].add(u)
    assert workloads.check_state(covkb, outcome.state) is not None


def _check_spans(t):
    """Children lie inside their parents, and every self time, taken from
    the span arrays alone and from the tracer's running totals, is >= 0."""
    n = len(t.span_name)
    assert n > 0
    covered = [0] * n
    for sid in range(n):
        assert t.span_end[sid] >= t.span_start[sid]
        parent = t.span_parent[sid]
        if parent >= 0:
            assert parent < sid
            assert t.span_start[parent] <= t.span_start[sid]
            assert t.span_end[sid] <= t.span_end[parent]
            covered[parent] += t.span_end[sid] - t.span_start[sid]
    for sid in range(n):
        assert t.span_end[sid] - t.span_start[sid] - covered[sid] >= 0
    assert min(t.self_ns) >= 0


def test_span_self_times_nest():
    t = tracing.Tracer()
    calls = []

    def leaf(x):
        calls.append(x)
        return x

    traced_leaf = t.wrap("rules.leaf", leaf, lambda r, a, s: t.count("hooked"))

    def mid(x):
        return sum(traced_leaf(i) for i in range(x))

    traced_mid = t.wrap("deduce.mid", mid)
    root = t.wrap("harness.root", lambda: traced_mid(3) + traced_mid(2))
    assert root() == 4
    _check_spans(t)
    assert t.calls_of("rules.leaf") == 5 and t.counters["hooked"] == 5
    root_ns = t.span_end[0] - t.span_start[0]
    layers = t.layer_self_s()
    accounted = sum(layers.values()) * 1e9 + t.hook_ns
    assert accounted == pytest.approx(root_ns, abs=1)
    with pytest.raises(ZeroDivisionError):
        t.wrap("harness.boom", lambda: 1 / 0)()
    assert t._stack == []


def test_traced_unit_reports_every_per_layer_metric(workdir):
    from covkb import deduce, harness, lifecycle

    before = (harness.run_scenario, deduce.CoverageOracle.covers_pair,
              lifecycle.KnowledgeState.step, lifecycle.canonical_form)
    t = tracing.Tracer()
    undo = tracing.install(t)
    try:
        outcome = workloads.execute(covkb, "incremental", ROOT, str(workdir),
                                    workloads.TABLE[0])
    finally:
        undo()
    assert (harness.run_scenario, deduce.CoverageOracle.covers_pair,
            lifecycle.KnowledgeState.step, lifecycle.canonical_form) == before
    _check_spans(t)
    layers = tracing.layer_metrics(t, 1.0, 1.0, workloads.output_bytes(outcome))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["per_layer"]} <= set(layers)
    assert layers["lifecycle.arrivals"] > 0 and layers["deduce.pairs"] > 0
    assert 0.0 <= layers["deduce.pair_hit_frac"] <= 1.0
    path = str(workdir / "spans.csv")
    t.write(path)
    with open(path, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == len(t.span_name) + 1


def test_tail_percentile_keeps_ten_samples_beyond():
    import worker
    assert worker.tail(list(range(2000)), 99.0) == (1979, 20)
    assert worker.tail(list(range(5)), 50.0) == (2, 2)
    # Steps in three units of each workload, fewer than any --seconds 15 run has.
    smallest = {"chess": 1500, "incremental": 1200, "grid": 2160,
                "plateau": 1500, "synth": 600}
    for name, pct in workloads.TAIL_PERCENTILE.items():
        assert worker.tail(list(range(smallest[name])), pct)[1] >= 10


def test_held_out_seed_walks_its_own_recorded_table():
    held_out = workloads.unit_order("chess", workloads.HELD_OUT_SEED)
    assert sorted(held_out) == sorted(workloads.HELD_OUT_TABLE)
    assert not set(workloads.HELD_OUT_TABLE) & set(workloads.TABLE)
    assert sorted(workloads.unit_order("chess", 1)) == sorted(workloads.TABLE)
    assert sorted(workloads.unit_order("incremental", 1)) == sorted(workloads.TABLES["incremental"])
    assert sorted(workloads.unit_order("incremental", workloads.HELD_OUT_SEED)) == sorted(held_out)
    refs = workloads.load_references()
    for name in workloads.NAMES:
        assert set(refs[name]) == {str(u) for u in workloads.TABLE + workloads.HELD_OUT_TABLE}


def test_step_phase_leaves_out_run_setup():
    import worker

    class State:
        def step(self, arrivals):
            return arrivals

    timer = worker.StepTimer(State)
    first, second = State(), State()
    first.step(1)
    first.step(2)
    time.sleep(0.05)  # stands for the second run's load and build
    second.step(3)
    timer.undo()
    assert len(timer.lat_ns) == 3 and len(timer.cal_ns) == 3
    assert sum(timer.lat_ns) <= timer.phase_ns < 0.05e9


def test_scaling_divides_by_the_local_calibration():
    import worker

    class State:
        def step(self, arrivals):
            return arrivals

    timer = worker.StepTimer(State)
    timer.undo()
    ref = worker.CAL_REF_NS
    timer.lat_ns[:] = [1000, 1000, 4000]
    timer.cal_ns[:] = [ref, 2 * ref, 2 * ref]  # median 2 * ref around each step
    scaled = timer.scaled_lat_ns()
    assert scaled == [500, 500, 2000]
    assert timer.scale(scaled) == 0.5
