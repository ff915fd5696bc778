"""Tests of the benchmark's own checks and tracer, on small grids.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

import numpy as np
import pytest

import checks
from spans import Tracer
from otgrid import cli, synthetic
from otgrid.diffusion import DiffusionOperator, assemble
from otgrid.grids import GridSpec, constant_weights, edge_count
from otgrid.objective import Objective, evaluate_with_grad
from otgrid.synthetic import dirac, forward_sequence, gaussian

EPS, S, ITERS = 1.2e-2, 4, 6


@pytest.fixture(scope="module")
def small_case():
    spec = GridSpec((6, 7))
    seq = forward_sequence(spec, np.linspace(0.5, 2.0, edge_count(spec)),
                           gaussian(spec, (2.5, 1.0), 1.0), gaussian(spec, (2.5, 5.0), 1.0),
                           4, EPS, S, ITERS)
    obj = Objective(grid=spec, sequences=(seq,), epsilon=EPS, substeps=S,
                    sinkhorn_iters=ITERS, loss="l2", lambda_c=0.0, lambda_s=0.03)
    return spec, seq, obj


def log_text(values):
    rows = ["%d,%.17g,0,0,0,0,0" % (i, v) for i, v in enumerate(values)]
    return "\n".join(["iteration,objective,data_fit,reg_constant,reg_smooth,grad_inf,elapsed"]
                     + rows + ["# status=max_iters"])


def test_kernel_references_match_the_program():
    spec = GridSpec((5, 4))
    op = assemble(spec, constant_weights(spec), EPS, S)
    dense = checks.dense_kernel(spec.dims, EPS, S)
    assert np.allclose(dense, op.dense_kernel(), rtol=1e-12, atol=0)
    cols = checks.kernel_columns(spec.dims, EPS, S, [0, 7])
    assert np.allclose(cols, dense[:, [0, 7]].T, rtol=1e-12, atol=0)


def test_learn_log_check(small_case):
    spec, seq, obj = small_case
    value = evaluate_with_grad(obj, np.zeros(edge_count(spec)))[0]
    reference = checks.barycenter_l2_fit(checks.dense_kernel(spec.dims, EPS, S),
                                         seq.frames, ITERS)
    assert checks.check_learn_log(log_text([value, 0.9 * value]), reference) == []
    assert checks.check_learn_log(log_text([value * (1 + 1e-7), 0.9 * value]), reference)
    assert checks.check_learn_log(log_text([value, 1.1 * value]), reference)
    assert checks.check_learn_log(log_text([value])[:-len("# status=max_iters")], reference)


def test_weights_check():
    good = [np.ones((3, 4)), np.full((4, 3), 0.5)]
    assert checks.check_weights(good) == []
    assert checks.check_weights([good[0], -good[1]])
    assert checks.check_weights([good[0] * np.nan, good[1]])


def test_directional_derivative_check(small_case):
    spec, _, obj = small_case
    x0 = np.zeros(edge_count(spec))
    d = np.random.default_rng(0).standard_normal(x0.size)
    d /= np.linalg.norm(d)
    h = 1e-5
    gd = float(evaluate_with_grad(obj, x0)[1] @ d)
    fp, fm = evaluate_with_grad(obj, x0 + h * d)[0], evaluate_with_grad(obj, x0 - h * d)[0]
    assert checks.check_directional_derivative(fp, fm, h, gd) == []
    assert checks.check_directional_derivative(fp, fm, h, gd * (1 + 1e-4))


def test_dirac_interpolation_check():
    spec = GridSpec((6, 20))
    r0, r1 = dirac(spec, (3, 0)), dirac(spec, (3, 19))
    seq = forward_sequence(spec, constant_weights(spec), r0, r1, 5, 0.1, 10, 3)
    frames = [f.reshape(spec.dims) for f in seq.frames]
    k0, k1 = checks.kernel_columns(spec.dims, 0.1, 10, [3 * 20, 3 * 20 + 19])
    assert checks.check_dirac_interpolation(frames, k0, k1, axis=1) == []

    bent = [f.copy() for f in frames]
    bent[2][3, 9] *= 1.001
    bent[2] /= bent[2].sum()
    assert checks.check_dirac_interpolation(bent, k0, k1, axis=1)
    heavy = [f.copy() for f in frames]
    heavy[1] *= 1 + 1e-9
    assert checks.check_dirac_interpolation(heavy, k0, k1, axis=1)
    stalled = list(frames)
    stalled[3] = stalled[2]
    assert checks.check_dirac_interpolation(stalled, k0, k1, axis=1)


def test_color_transfer_check():
    rng = np.random.default_rng(0)
    src = rng.integers(30, 90, (12, 10, 3)).astype(np.uint8)
    target = np.zeros((8, 8, 8))
    target[5, 4, 3] = 1.0
    moved = np.full_like(src, 0)
    moved[...] = np.rint(checks.histogram_mean(target)).astype(np.uint8)
    assert checks.check_color_transfer(moved, src, target) == []
    assert checks.check_color_transfer(src, src, target)
    assert checks.check_color_transfer(moved[:, :5], src, target)


def test_tracer_counts_every_caller_and_restores(tmp_path):
    spec = GridSpec((5, 6))
    op_before = DiffusionOperator.solve
    tracer = Tracer()
    with tracer.recording(0):
        synthetic.forward_sequence(spec, constant_weights(spec), dirac(spec, (2, 0)),
                                   dirac(spec, (2, 5)), 3, EPS, S, ITERS)
        assert cli.evaluate_with_grad is not evaluate_with_grad
    assert DiffusionOperator.solve is op_before
    assert cli.evaluate_with_grad is evaluate_with_grad
    m = tracer.op_metrics(0)
    # three frames; two inputs, two kernel applications each per sweep, S solves each
    assert m["diffusion.solve_calls"] == 3 * ITERS * 2 * 2 * S
    assert m["diffusion.solve_columns"] == m["diffusion.solve_calls"]
    assert m["diffusion.apply_calls"] == 3 * ITERS * 2 * 2
    assert m["diffusion.factorize_calls"] == 1 and m["barycenter.forward_calls"] == 3
    assert 0 <= m["diffusion.apply_s"] <= m["barycenter.forward_s"]
    tracer.write(str(tmp_path / "t.csv"))
    assert len((tmp_path / "t.csv").read_text().splitlines()) == len(tracer.spans) + 1


def test_declared_per_layer_metrics_are_the_reported_ones():
    import json
    import os

    import spans

    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    reported = {m for m, _, _ in spans.SPAN_METRICS} | set(spans.COUNT_METRICS)
    assert declared == reported | {"objective.eval_peak_mb", "trace.overhead_s"}
