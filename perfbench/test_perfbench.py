"""Tests of the benchmark's own code: inputs, checks and span arithmetic."""

import json
import pickle
import types

import numpy as np
import pytest

import run

run.import_program()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pairstats import loop_detector, model, reconstruction  # noqa: E402


def _inputs(workload, seed):
    return pickle.dumps([(op.label, op.args) for op in workloads.WORKLOADS[workload](seed)])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_from_the_seed(workload):
    assert _inputs(workload, 3) == _inputs(workload, 3)
    assert _inputs(workload, 3) != _inputs(workload, 4)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def _planted_forward(probs, tail, B=8):
    rho = types.SimpleNamespace(probs=probs, tail_mass=tail, n_max=probs.shape[0] - 1)
    clicks = loop_detector.ClickDistribution(p=np.zeros((B + 1, B + 1)), deficit=1.0)
    return workloads._check_forward((rho, clicks))


def test_check_flags_an_all_zero_grid_with_full_tail():
    verdict = _planted_forward(np.zeros((5, 5)), 1.0)
    assert verdict.failed and verdict.flagged and not verdict.wrong


def test_check_marks_an_all_zero_grid_without_tail_wrong():
    verdict = _planted_forward(np.zeros((5, 5)), 0.0)
    assert verdict.failed and any("mass + tail" in m for m in verdict.wrong)


def test_check_marks_non_finite_entries_wrong():
    probs = np.full((3, 3), 1.0 / 9.0)
    probs[1, 1] = np.nan
    assert _planted_forward(probs, 0.0).wrong


def _small_fit(max_iter):
    src = model.EffectiveSource(N=1.0, eta=0.5, eta_prime=0.5, M=1.0)
    weights = loop_detector.uniform_weights(4)
    rng = np.random.default_rng(0)
    hist = workloads.exact_histogram(src, weights, weights, 100_000, rng)
    resp = loop_detector.response_matrix(weights, 6)
    return hist, resp, reconstruction.em_reconstruct(hist, resp, resp, 6, max_iter=max_iter)


def test_check_flags_an_unconverged_fit():
    hist, resp, result = _small_fit(max_iter=1)
    assert not result.converged
    verdict = checks.Verdict()
    checks.check_fit(verdict, result)
    assert verdict.failed and verdict.flagged and not verdict.wrong


def test_kkt_residual_shrinks_as_em_converges():
    hist, resp, early = _small_fit(max_iter=2)
    _, _, late = _small_fit(max_iter=100_000)
    assert checks.kkt_residual(hist, resp, resp, late) < checks.kkt_residual(hist, resp, resp, early)


def test_readme_check_bounds_eta_hat_not_m_hat():
    char = types.SimpleNamespace(
        M_hat=25.0, eta_hat=0.045, eps2=0.1, eps4=0.1, status={}
    )
    report = types.SimpleNamespace(failures={}, reconstruction=None, characterization=char)
    assert not workloads._check_readme(report).failed
    char.eta_hat = 0.045 * 1.2
    assert workloads._check_readme(report).wrong
    report.failures = {"calibration": "DegenerateInputError: empty"}
    assert workloads._check_readme(report).flagged


def test_self_time_on_a_hand_built_tree():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, -1, True),
        S("a", 1.0, 4.0, 0, True),
        S("a1", 2.0, 3.0, 1, True),
        S("b", 5.0, 9.0, 0, False),
        S("b1", 6.0, 7.0, 3, True),
        S("b2", 6.5, 8.0, 3, True),  # overlaps b1: the union [6, 8] is covered
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])
    table = spans.summarize(tree)
    assert table["b"] == {"calls": 1, "failed": 1, "self_s": pytest.approx(2.0), "total_s": pytest.approx(4.0)}


def test_self_time_clips_children_to_the_parent():
    tree = [spans.Span("p", 0.0, 2.0, -1, True), spans.Span("c", 1.5, 3.0, 0, True)]
    assert spans.self_times(tree) == pytest.approx([1.5, 1.5])


def test_tracer_records_nesting_through_module_bindings():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    tracer = spans.Tracer([(mod, "inner"), (mod, "outer")], keep=(spans.span_name(inner),))
    tracer.install()
    assert mod.outer(1) == 4
    with pytest.raises(TypeError):
        mod.inner(None)
    tracer.remove()
    assert mod.inner is inner and mod.outer is outer
    names = [(s.name.rsplit(".", 1)[-1], s.parent, s.ok) for s in tracer.spans]
    assert names == [("outer", -1, True), ("inner", 0, True), ("inner", -1, False)]
    assert [call[3] for call in tracer.calls] == [2]


def test_percentile_is_nearest_rank():
    assert run.percentile([5, 1, 4, 2, 3], 0.5) == 3
    assert run.percentile(range(1, 11), 0.9) == 9
    assert run.percentile([7], 0.9) == 7


def test_probe_is_interpolated_between_the_probes_around_an_op():
    probes = [(0.0, 0.004), (1.0, 0.008)]
    assert run.probe_at(probes, 0.25) == pytest.approx(0.005)
    assert run.probe_at(probes, -1.0) == 0.004
    assert run.probe_at(probes, 2.0) == 0.008
