"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import bayesdiv  # noqa: E402
import bayesdiv.cli  # noqa: E402,F401
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Call, Cycle, LoopResult, Outcome  # noqa: E402


# --- the tail rule ------------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(100, 0, -1)]
    value, pct, n = measure.tail(samples)
    assert (value, n) == (90.0, 100)
    assert sum(x > value for x in samples) == 10
    assert pct == pytest.approx(100 * 89 / 99)


def test_tail_of_eleven_samples_is_their_minimum():
    assert measure.tail(range(11)) == (0, 0.0, 11)


def test_tail_of_ten_or_fewer_samples_falls_back_to_the_maximum():
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert measure.tail(range(10)) == (9, 100.0, 10)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        measure.tail([])


# --- self time ---------------------------------------------------------------

def _span(start, end, parent=None):
    return tracing.Span("s", start, end, parent, None)


def test_self_time_subtracts_the_part_children_cover_once():
    spans = [_span(0, 10), _span(1, 3, 0), _span(2, 4, 0), _span(1.5, 2.5, 1)]
    # the children of span 0 cover [1, 4]; the grandchild only counts
    # against its own parent
    assert tracing.self_times(spans) == pytest.approx([7, 1, 2, 1])


def test_self_time_clips_children_to_the_parent():
    assert tracing.self_times([_span(0, 5), _span(4, 8, 0)])[0] == pytest.approx(4)


def _small_table(seed=3, K=50, N=200):
    rng = np.random.default_rng(seed)
    q, t = workloads.dirichlet(rng, K), workloads.dirichlet(rng, K)
    n, m = rng.multinomial(N, q), rng.multinomial(N, t)
    return bayesdiv.build_table(n, m, K), n, q, t


def test_self_times_partition_the_traced_time():
    table, _, _, _ = _small_table()
    with tracing.Tracer() as tracer:
        tracing.instrument(tracer)
        bayesdiv.estimators.estimate_dkl_dpm(table)
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 1
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(
        roots[0].end - roots[0].start)


# --- validity checks behind failed_share ----------------------------------------

@pytest.mark.parametrize("estimator,divergence,value,std", [
    ("dpm", "kl", float("nan"), 0.1),
    ("dpm", "kl", float("inf"), 0.1),
    ("nsb", "entropy", float("-inf"), None),
    ("dp", "kl", -0.01, None),
    ("jeffreys", "kl", -1e-12, None),
    ("dpm", "hellinger2", 1.5, None),
    ("dpm", "hellinger2", -0.1, None),
    ("dpm", "kl", 0.5, None),
    ("dpm", "kl", 0.5, float("nan")),
    ("dpm", "kl", 0.5, -0.1),
    ("dpm", "kl", None, 0.1),
])
def test_each_invalid_result_is_caught(estimator, divergence, value, std):
    assert measure.check_value(estimator, divergence, value, std) is not None


@pytest.mark.parametrize("estimator,divergence,value,std", [
    ("dpm", "kl", 0.5, 0.1),
    ("dpm", "kl", 0.0, 0.0),
    ("dpm", "hellinger2", 0.0, None),
    ("dp", "hellinger2", 1.0, None),
    ("zhang", "kl", -0.12, None),
    ("naive", "kl", -0.03, None),
])
def test_valid_results_pass(estimator, divergence, value, std):
    assert measure.check_value(estimator, divergence, value, std) is None


@pytest.mark.parametrize("code,payload", [
    (2, {"value": 1.0}),
    (None, {"value": 1.0}),
    (0, None),
    (0, {"estimator": "zhang"}),
    (0, {"value": float("nan")}),
])
def test_each_bad_cli_call_is_caught(code, payload):
    assert measure.check_cli(code, payload, "zhang", "kl") is not None


def test_a_good_cli_call_passes():
    payload = {"value": 0.4, "posterior_std": 0.01}
    assert measure.check_cli(0, payload, "dpm", "kl") is None


def test_loop_counts_raised_and_invalid_calls_as_failed():
    def boom():
        raise ValueError("rejected")

    cycle = Cycle([Call("ok", lambda: [Outcome(None, 0.1, 1.0)]),
                   Call("bad", lambda: [Outcome("negative KL: -1")]),
                   Call("boom", boom, expected=3)])
    res = LoopResult()
    workloads.run_cycle(cycle, res)
    assert (res.attempted, res.failed, res.rel_errs) == (5, 4, [0.1])
    assert len(res.latencies_s) == 3
    assert res.valid == 1 and res.busy_s > 0
    assert "ValueError" in res.first_traceback
    assert not res.correct


def test_calls_that_must_agree_but_do_not_make_the_run_incorrect():
    cycle = Cycle([Call("a", lambda: [Outcome(value=1.0)]),
                   Call("b", lambda: [Outcome(value=2.0)])], same=((0, 1),))
    res = LoopResult()
    workloads.run_cycle(cycle, res)
    assert res.failed == 0 and res.mismatches and not res.correct


def test_closed_loop_always_completes_one_whole_cycle():
    def cycles():
        while True:
            yield Cycle([Call("x", lambda: [Outcome(value=1)])] * 3)

    res = workloads.closed_loop(cycles(), seconds=0)
    assert (res.cycles, res.attempted) == (1, 3)


# --- tracing wrappers ----------------------------------------------------------

def _bindings():
    return {(module, attr): getattr(sys.modules[f"bayesdiv.{module}"], attr)
            for module, attrs, _, _ in tracing.INSTRUMENTS for attr in attrs}


def test_tracer_wraps_and_then_restores_every_patched_name():
    before = _bindings()
    with tracing.Tracer() as tracer:
        tracing.instrument(tracer)
        during = _bindings()
        assert tracer.missing == []
        assert all(during[key] is not before[key] for key in before)
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            tracing.instrument(tracer)
            raise RuntimeError("inside the traced block")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_traced_counts_repeat_and_tracing_changes_no_result():
    table, n, q, t = _small_table()
    cycle = Cycle(workloads._dpm_calls(bayesdiv, table, "small", q, t)
                  + [workloads._nsb_call(bayesdiv, n, table.K, "small")])
    runs = [workloads.traced_passes(cycle, seconds=0) for _ in range(2)]
    for name in tracing.COUNT_METRICS:
        assert runs[0].layers[name] == runs[1].layers[name], name
    assert runs[0].layers["posterior.grid_cells"] > 0
    assert runs[0].layers["specfun.delta_psi.calls"] > 0
    for traced in runs:
        assert traced.counts_repeat and traced.results_unchanged
        assert traced.loop.correct


def test_ladder_rows_match_across_worker_counts_and_tracing():
    small = replace(workloads.ladder_config(bayesdiv, 11), K=50,
                    size_ladder=(50, 200))
    traced = workloads.traced_ladder(bayesdiv, small, seconds=0)
    assert traced.results_unchanged and traced.loop.correct
    assert traced.extra["benchmark.parallel_speedup"] > 0
    assert traced.layers["benchmark.run_convergence.ms"] > 0
    assert traced.layers["synth.sample.ms"] > 0


# --- the benchmark contract ------------------------------------------------------

def test_metric_declarations_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert tuple(m["name"] for m in spec["per_layer"]) == run.PER_LAYER
    units = {**tracing.LAYER_METRICS, **run.TRACE_UNITS}
    assert all(m["unit"] == units[m["name"]] for m in spec["per_layer"])
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", "_work", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
