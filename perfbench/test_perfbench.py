"""Tests of the benchmark itself: span arithmetic, rebinding, and agreement
between the trace and the solvers' own counters.

Run from the repository root with ``python3 -m pytest perfbench -q``; the
workload tests run one full job each (about 25 s in all).
"""

import json
from pathlib import Path

import pytest

from perfbench import run, tracer, workloads
from tvkit import flow, functionals, grid, restore, solvers

SEED = 0


def span(name, start, end, parent=None, job=0):
    return [name, start, end, parent, job, None]


def test_self_time_of_nested_spans():
    spans = [
        span("job", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 5.0, 9.0, parent=0),
        span("c", 6.0, 7.0, parent=2),
        span("d", 6.5, 8.0, parent=2),  # overlaps c: covered time is the union
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])


def test_job_metrics_sum_self_time_per_name():
    spans = [
        span("job", 0.0, 10.0),
        span("solvers.conjugate_gradient", 1.0, 9.0, parent=0),
        span("grid.gradient", 2.0, 3.0, parent=1),
        span("grid.gradient", 4.0, 6.0, parent=1),
    ]
    spans[1][tracer.ATTRS] = {"iters": 4, "converged": True}
    m = tracer.job_layer_metrics(spans)[0]
    assert m["grid.gradient.calls"] == 2
    assert m["grid.gradient.self_s"] == pytest.approx(3.0)
    assert m["solvers.conjugate_gradient.self_s"] == pytest.approx(5.0)
    assert m["other.self_s"] == pytest.approx(2.0)
    assert m["solvers.s_per_cg_iter"] == pytest.approx(2.0)
    assert m["solvers.cg_converged_ratio"] == 1.0


def test_install_rebinds_by_value_imports_and_restores():
    original = grid.convolve
    with tracer.install(tracer.Tracer()):
        for module in (grid, solvers, functionals, restore):
            assert module.convolve is not original
            assert module.convolve.__wrapped__ is original
        assert flow.gradient.__wrapped__ is grid.gradient.__wrapped__
    for module in (grid, solvers, functionals, restore):
        assert module.convolve is original


def traced_job(name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(SEED)
    recorder = tracer.Tracer()
    with tracer.install(recorder), recorder.job_span(0):
        result = workload.solve(inputs)
    outcome = workload.check(inputs, result)
    assert outcome.passed, outcome.checks
    return tracer.job_layer_metrics(recorder.spans)[0], outcome


@pytest.mark.parametrize("name", ["deconv-64", "denoise-256"])
def test_convolution_calls_match_solver_counters(name):
    m, outcome = traced_job(name)
    expected = outcome.cg_iters + 2 * outcome.outer_iters
    assert m["grid.convolve.calls"] == m["grid.convolve_adjoint.calls"] == expected
    assert m["solvers.cg_iters"] == outcome.cg_iters
    assert m["solvers.tv_restore_fixed_point.calls"] == 1


def test_flow_makes_no_convolution_calls():
    m, outcome = traced_job("flow-128")
    assert m["grid.convolve.calls"] == m["grid.convolve_adjoint.calls"] == 0
    assert m["grid.convolve.bytes_computed"] == 0
    assert m["solvers.cg_iters"] == outcome.cg_iters > 0


def test_inputs_follow_the_seed():
    workload = workloads.WORKLOADS["deconv-64"]
    pool = workloads.input_pool(workload, 3)
    assert len(pool) == workloads.POOL
    assert workloads.digest(pool) == workloads.digest(workloads.input_pool(workload, 3))
    assert workloads.digest(pool) != workloads.digest(workloads.input_pool(workload, 4))
    assert workloads.digest(pool[:1]) != workloads.digest(pool[1:2])


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"] for m in spec["per_layer"]} == set(tracer.metric_names())
