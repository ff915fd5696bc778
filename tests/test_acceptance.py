"""End-to-end acceptance checks, one test per criterion.

Each test pins a full protocol: grid size, regularization strength,
substep/iteration counts, tolerances, and a wall-clock budget.  They are
slower than the module tests (each metric-recovery fit runs 200 L-BFGS
iterations) and intentionally assert the stated tolerances literally.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from otgrid import cli
from otgrid.barycenter import barycenter, sinkhorn_scalings
from otgrid.color import ColorHistogram, apply_color_map, barycentric_map, fill_nearest, image_to_histogram, write_ppm
from otgrid.diffusion import DiffusionOperator, assemble
from otgrid.grids import GridSpec, axis_fields, constant_weights, edge_count, save_weights
from otgrid.lbfgs import LbfgsOptions, minimize
from otgrid.objective import Objective, Sequence, evaluate_with_grad, save_sequence
from otgrid.synthetic import MetricPattern, Region, dirac, forward_sequence, gaussian, render_metric
from otgrid.tensorio import write_tensor
from recovery import axis_spearman, geodesic_scores, scale
from sequences import moving_gaussian_sequence


EVEN_SPACING_EPSILON = 0.1
# Bounds on ac7's geodesic scores over the band the mass crosses (grid rows
# 6-13): scale-free error at most 0.125 and Spearman at least 0.89.  The fit
# measured 0.102 / 0.908; a change of its gradient at the rounding level,
# which 200 iterations amplify, gave 0.107 / 0.909.  Each bound leaves
# about 0.02 of margin, and unit weights score 0.149 / 0.875.
BAND_ERROR_MAX, BAND_SPEARMAN_MIN = 0.125, 0.89
# Bound on the held-out score: a fit on desk frames 0, 2, 4 and 6 must
# reconstruct frames 1, 3 and 5 with at most 0.7 times the l2 misfit of unit
# weights.  The fit measured 4.90e-3 against 8.67e-3 (ratio 0.57), and from
# three starts perturbed by 1e-12 it read 3.93e-3 to 4.07e-3 (0.45-0.47), so
# the bound leaves 0.13 of margin on the ratio.  The truth scores 1.18e-3.
HELD_OUT_RATIO_MAX = 0.7


def rel_err(approx, exact):
    scale = max(abs(approx), abs(exact))
    return abs(approx - exact) / scale if scale > 0 else 0.0


# --- shared heavy artifacts ---------------------------------------------------


@pytest.fixture(scope="session")
def spacing_study():
    """Ten-step interpolation between opposite corners of one grid row."""
    spec = GridSpec((50, 50))
    op = assemble(spec, constant_weights(spec), 1.2e-2, 50)
    ends = np.stack([dirac(spec, (0, 0)), dirac(spec, (0, 49))])
    t0 = time.perf_counter()
    frames = [barycenter(op, ends, np.array([1.0 - t, t]), 50)[0]
              for t in np.linspace(0.0, 1.0, 10)]
    elapsed = time.perf_counter() - t0
    return spec, frames, elapsed


@pytest.fixture(scope="session")
def even_spacing_study():
    """The spacing_study protocol at epsilon = 0.1, where even steps are promised.

    K = M^{-S} approximates the lattice heat kernel exp(t' L) with
    t' = eps (n-1)^2 / 4, the diffusion time in cell units.  For a
    continuous-time lattice walk the cost -log K at a distance of d cells is
    about t' phi(d / t') with

        phi(x) = x asinh(x/2) - sqrt(4 + x^2) + 2 = x^2/4 - x^4/192 + ...

    which is quadratic to within 2% for d <= t' but sub-quadratic beyond.
    A sub-quadratic cost shortens the steps near the endpoints, so Varadhan's
    -eps log K ~ squared distance, and with it McCann-style even spacing,
    holds only when t' is at least the path length.  Here the path spans 49 cells, so eps >= 4/49; eps = 0.1 is the
    smallest round value and gives t' = 60.  At eps = 1.2e-2 (spacing_study)
    t' = 7.2 and the far tail, not the solver, sets the step lengths.
    """
    spec = GridSpec((50, 50))
    op = assemble(spec, constant_weights(spec), EVEN_SPACING_EPSILON, 50)
    ends = np.stack([dirac(spec, (0, 0)), dirac(spec, (0, 49))])
    frames = [barycenter(op, ends, np.array([1.0 - t, t]), 50)[0]
              for t in np.linspace(0.0, 1.0, 10)]
    return spec, frames


@pytest.fixture(scope="session")
def desk_case():
    """20x20 obstacle metric, its forward sequence, and the fit objective."""
    spec = GridSpec((20, 20))
    pattern = MetricPattern(
        base=1.0,
        regions=(Region(factor=0.05, shape="disk", center=(9.5, 9.5), radius=3.5),),
        smooth_radius=1,
    )
    w_true = render_metric(spec, pattern)
    r0 = gaussian(spec, (9.5, 2.0), 1.5)
    r1 = gaussian(spec, (9.5, 17.0), 1.5)
    seq = forward_sequence(spec, w_true, r0, r1, 7, 1.2e-2, 20, 30)
    obj = Objective(grid=spec, sequences=(seq,), epsilon=1.2e-2, substeps=20,
                    sinkhorn_iters=30, loss="l2", lambda_c=0.0, lambda_s=0.03)
    return spec, w_true, seq, obj


@pytest.fixture(scope="session")
def desk_fit(desk_case):
    """ac7's fit of the desk case: 200 L-BFGS iterations from unit weights.
    Returns the result, the parts of every evaluation, and the seconds taken."""
    spec, _, _, obj = desk_case
    evals = []

    def fun(x):
        value, grad, parts = evaluate_with_grad(obj, x, with_parts=True)
        evals.append(parts)
        return value, grad

    t0 = time.perf_counter()
    res = minimize(fun, np.zeros(edge_count(spec)), LbfgsOptions(max_iters=200))
    return res, evals, time.perf_counter() - t0


@pytest.fixture(scope="session")
def held_out_fit(desk_case):
    """ac7's fit on desk frames 0, 2, 4 and 6 at their timestamps only."""
    spec, _, seq, obj = desk_case
    fit = replace(obj, sequences=(Sequence(seq.frames[::2], seq.timestamps[::2]),))
    return minimize(lambda x: evaluate_with_grad(fit, x), np.zeros(edge_count(spec)),
                    LbfgsOptions(max_iters=200))


# --- criteria ------------------------------------------------------------------


def test_ac1_kernel_stochastic_and_symmetric():
    spec = GridSpec((10, 10))
    rng = np.random.default_rng(0)
    ones = np.ones(spec.num_vertices)
    t0 = time.perf_counter()
    for epsilon in (4e-3, 1.2e-2, 4e-2):
        for substeps in (10, 20, 50):
            w = rng.uniform(0.3, 3.0, edge_count(spec))
            op = DiffusionOperator(spec, w, epsilon, substeps)
            k1 = op.apply(ones)
            assert np.abs(k1 - 1.0).max() < 1e-10, (epsilon, substeps)
            kernel = op.dense_kernel()
            sym = np.abs(kernel - kernel.T).max() / np.abs(kernel).max()
            assert sym < 1e-10, (epsilon, substeps)
    assert time.perf_counter() - t0 < 5.0


def test_ac2_weight_adjoint_matches_finite_differences():
    t0 = time.perf_counter()

    # two-node closed form: d/dw <g, K v> = -1/9 at w = 1
    op = DiffusionOperator(GridSpec((2,)), [1.0], 4.0, 1)
    v = np.array([1.0, 0.0])
    _, grad = op.adjoint_weights(v, v)
    assert abs(grad[0] - (-1.0 / 9.0)) < 1e-8

    # random 4x4 instances, per-coordinate central differences at h = 1e-4
    spec = GridSpec((4, 4))
    m = edge_count(spec)
    rng = np.random.default_rng(0)
    h = 1e-4
    worst = 0.0
    for _ in range(3):
        w = rng.uniform(0.3, 3.0, m)
        v = rng.uniform(0.1, 1.0, spec.num_vertices)
        g = rng.standard_normal(spec.num_vertices)
        for epsilon in (1.2e-2, 4e-2):
            op = DiffusionOperator(spec, w, epsilon, 3)
            _, grad = op.adjoint_weights(v, g)
            for e in range(m):
                wp, wm = w.copy(), w.copy()
                wp[e] += h
                wm[e] -= h
                fp = g @ DiffusionOperator(spec, wp, epsilon, 3).apply(v)
                fm = g @ DiffusionOperator(spec, wm, epsilon, 3).apply(v)
                fd = (fp - fm) / (2 * h)
                worst = max(worst, rel_err(grad[e], fd))
    assert worst < 1e-6, worst
    assert time.perf_counter() - t0 < 5.0


def test_ac3_objective_gradient_matches_finite_differences():
    spec = GridSpec((8, 8))
    seq = moving_gaussian_sequence(spec, [(3.5, 1.0), (3.5, 6.0)], 1.2, 4)
    rng = np.random.default_rng(7)
    wlog = rng.uniform(np.log(0.5), np.log(2.0), edge_count(spec))
    h = 1e-6
    t0 = time.perf_counter()
    for kind in ("l1", "l2", "kl"):
        obj = Objective(grid=spec, sequences=(seq,), epsilon=1.2e-2, substeps=5,
                        sinkhorn_iters=10, loss=kind, lambda_c=0.01, lambda_s=0.1)
        _, grad = evaluate_with_grad(obj, wlog)
        coords = rng.choice(wlog.size, size=20, replace=False)
        worst = 0.0
        for e in coords:
            xp, xm = wlog.copy(), wlog.copy()
            xp[e] += h
            xm[e] -= h
            fp = evaluate_with_grad(obj, xp)[0]
            fm = evaluate_with_grad(obj, xm)[0]
            worst = max(worst, rel_err(grad[e], (fp - fm) / (2 * h)))
        assert worst < 1e-4, (kind, worst)
    assert time.perf_counter() - t0 < 120.0


def test_ac4_barycenter_fixed_points():
    spec = GridSpec((10, 10))
    rng = np.random.default_rng(3)
    op = assemble(spec, rng.uniform(0.5, 2.0, edge_count(spec)), 1.2e-2, 10)
    a0 = rng.uniform(0.1, 1.0, spec.num_vertices)
    a0 /= a0.sum()
    a1 = rng.uniform(0.1, 1.0, spec.num_vertices)
    a1 /= a1.sum()

    b, _ = barycenter(op, [a0, a1], [1.0, 0.0], 7)
    ka0 = op.apply(a0)
    assert np.abs(b - ka0).max() < 1e-12

    _, _, history = sinkhorn_scalings(op, a0, a1, 15, history=True)
    for step in history:
        assert np.abs(step["u"] * step["kv"] - a0).max() < 1e-12


def argmax_columns(spec, fields):
    return [int(np.unravel_index(np.argmax(f), spec.dims)[1]) for f in fields]


def spacing_report(spec, epsilon, cols):
    path = spec.dims[1] - 1
    return ("eps=%g: t'=eps(n-1)^2/4=%.1f over a %d-cell path; argmax columns %s"
            % (epsilon, epsilon * path**2 / 4, path, cols))


def test_ac5_interpolation_spacing(spacing_study, even_spacing_study):
    # eps = 1.2e-2 (t' = 7.2 < 49 cells): the steps advance, and the kernel's
    # far tail alone places them.  For Dirac endpoints every sweep's u_r is a
    # scaled Dirac, so the barycenter is exactly proportional to
    # (K r0)^(1-t) (K r1)^t whatever the sweep count.
    spec, frames, elapsed = spacing_study
    cols = argmax_columns(spec, frames)
    report = spacing_report(spec, 1.2e-2, cols)
    assert all(g > 0 for g in np.diff(cols)), "argmax must advance strictly: " + report
    assert elapsed < 120.0
    op = assemble(spec, constant_weights(spec), 1.2e-2, 50)
    log_k0 = np.log(op.apply(dirac(spec, (0, 0))))
    log_k1 = np.log(op.apply(dirac(spec, (0, 49))))
    predicted = argmax_columns(
        spec, [(1.0 - t) * log_k0 + t * log_k1 for t in np.linspace(0.0, 1.0, 10)])
    assert cols == predicted, "kernel predicts %s; %s" % (predicted, report)

    # eps = 0.1 (t' = 60 >= 49 cells): the cost is quadratic along the whole
    # path, so the ten steps must be evenly spaced
    spec, frames = even_spacing_study
    cols = argmax_columns(spec, frames)
    report = spacing_report(spec, EVEN_SPACING_EPSILON, cols)
    assert EVEN_SPACING_EPSILON * (spec.dims[1] - 1) ** 2 / 4 >= spec.dims[1] - 1, report
    gaps = np.diff(cols)
    assert all(g > 0 for g in gaps), "argmax must advance strictly: " + report
    ratio = gaps.max() / gaps.min()
    assert ratio <= 2.0, "gaps %s have max/min ratio %.2f > 2; %s" % (
        gaps.tolist(), ratio, report)


def test_ac6_interpolants_conserve_mass(spacing_study):
    spec, frames, _ = spacing_study
    for f in frames:
        assert abs(f.sum() - 1.0) < 1e-6

    small = GridSpec((8, 8))
    rng = np.random.default_rng(1)
    op = assemble(small, rng.uniform(0.5, 2.0, edge_count(small)), 1.2e-2, 10)
    ends = np.stack([gaussian(small, (3.5, 1.0), 1.0), gaussian(small, (3.5, 6.0), 1.0)])
    for t in (0.25, 0.5, 0.75):
        assert abs(barycenter(op, ends, np.array([1.0 - t, t]), 20)[0].sum() - 1.0) < 1e-6


def test_ac7_metric_recovery(desk_case, desk_fit):
    spec, w_true, seq, obj = desk_case
    res, evals, elapsed = desk_fit
    assert elapsed < 1800.0

    data_fit_start = evals[0].data_fit  # first evaluation happens at x0
    _, _, parts_end = evaluate_with_grad(obj, res.x, with_parts=True)
    assert parts_end.data_fit <= 0.5 * data_fit_start, (
        "data fit %.6g -> %.6g" % (data_fit_start, parts_end.data_fit))

    values = [rec.value for rec in res.history]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    # the obstacle sits across the traversed axis: learned axis-1 weights
    # inside the disk must come out lower than the ones outside
    w = np.exp(res.x)
    field = axis_fields(spec, w)[1]
    rr, cc = np.meshgrid(np.arange(20), np.arange(19) + 0.5, indexing="ij")
    inside = (rr - 9.5) ** 2 + (cc - 9.5) ** 2 <= 3.5**2
    med_in = np.median(field[inside])
    med_out = np.median(field[~inside])
    assert med_in < med_out, (med_in, med_out)


def test_ac7_recovery_scores(desk_case, desk_fit):
    """ac7's learned metric is scored against the true one over the band
    the mass crosses, and must beat unit weights there and meet the stated
    bounds.  The whole-grid scores, the scale and the per-axis log-weight
    correlations are reported only: most pairs of the grid never cross the
    obstacle, so unit weights score a median error of 0 there."""
    spec, w_true, _, _ = desk_case
    w, unit = np.exp(desk_fit[0].x), constant_weights(spec)
    band = np.arange(6 * spec.dims[1], 14 * spec.dims[1])
    learned, baseline = (geodesic_scores(spec, x, w_true, band) for x in (w, unit))
    whole = np.arange(spec.num_vertices)
    print("scale: learned %.3f, truth %.3f" % (scale(w), scale(w_true)))
    print("band: learned %s, unit weights %s" % (learned, baseline))
    print("whole grid: learned %s, unit weights %s"
          % tuple(geodesic_scores(spec, x, w_true, whole) for x in (w, unit)))
    print("log-weight Spearman per axis: %s" % axis_spearman(spec, w, w_true))
    assert learned.error < baseline.error and learned.spearman > baseline.spearman
    assert learned.error <= BAND_ERROR_MAX, learned
    assert learned.spearman >= BAND_SPEARMAN_MIN, learned


def test_ac7_held_out_reconstruction(desk_case, held_out_fit):
    """Frames 1, 3 and 5, left out of the fit, are reconstructed as the
    barycenters of frames 0 and 6 at their timestamps.  The learned metric
    must beat unit weights by HELD_OUT_RATIO_MAX; the truth is reported."""
    spec, w_true, seq, obj = desk_case
    t = seq.timestamps[1::2]

    def misfit(w):
        op = assemble(spec, w, obj.epsilon, obj.substeps)
        b, _ = barycenter(op, seq.frames[[0, -1]], np.stack([1.0 - t, t], axis=1),
                          obj.sinkhorn_iters)
        return float(((b - seq.frames[1::2]) ** 2).sum())

    learned, unit, truth = (misfit(w) for w in
                            (np.exp(held_out_fit.x), constant_weights(spec), w_true))
    print("held-out l2 misfit: learned %.3e, unit weights %.3e, truth %.3e"
          % (learned, unit, truth))
    assert learned <= HELD_OUT_RATIO_MAX * unit, (learned, unit)


def test_ac8_multi_sequence_objective(desk_case):
    spec, w_true, seq, _ = desk_case
    rng = np.random.default_rng(5)
    sequences = [seq]
    for k in range(3):
        c0 = rng.uniform(3.0, 16.0, 2)
        c1 = rng.uniform(3.0, 16.0, 2)
        r0 = gaussian(spec, c0, 1.5)
        r1 = gaussian(spec, c1, 1.5)
        sequences.append(forward_sequence(spec, w_true, r0, r1, 4, 1.2e-2, 10, 15))

    def make(seqs):
        return Objective(grid=spec, sequences=tuple(seqs), epsilon=1.2e-2,
                         substeps=10, sinkhorn_iters=15, loss="l2",
                         lambda_c=0.0, lambda_s=0.03)

    wlog = rng.uniform(np.log(0.5), np.log(2.0), edge_count(spec))
    joint_val, _, joint_parts = evaluate_with_grad(make(sequences), wlog, with_parts=True)
    acc = 0.0
    for s in sequences:
        acc += evaluate_with_grad(make([s]), wlog, with_parts=True)[2].data_fit
    assert joint_parts.data_fit == acc  # exact: same per-sequence reduction order
    assert joint_val == joint_parts.data_fit + 0.03 * joint_parts.reg_smooth

    res = minimize(lambda x: evaluate_with_grad(make(sequences), x),
                   np.zeros(edge_count(spec)), LbfgsOptions(max_iters=10))
    assert np.isfinite(res.value)
    assert len(res.history) >= 1


def test_ac9_color_transfer_moves_histogram(tmp_path):
    n = 16
    spec = GridSpec((n, n, n))
    # textured ramps so both histograms occupy ~100 bins; the target sits a
    # ~0.4 color-space gap away.  The substep count is deep on purpose: the
    # kernel's Gaussian core reaches sqrt(eps*S)/2, and it has to span that
    # gap or the plan degenerates toward the independent coupling.
    yy, xx = np.meshgrid(np.arange(40), np.arange(48), indexing="ij")
    tex = 10.0 * np.sin(xx / 3.0) * np.cos(yy / 4.0)

    def ramp(r0, g0, b0):
        img = np.stack([r0 + 2.2 * xx + tex, g0 + 2.8 * yy + tex,
                        b0 + 1.1 * (xx + yy) + tex], axis=-1)
        return np.clip(np.rint(img), 0, 255).astype(np.uint8)

    src = ramp(40, 50, 45)
    tgt = ramp(130, 110, 75)
    write_ppm(tmp_path / "src.ppm", src)
    write_ppm(tmp_path / "tgt.ppm", tgt)

    t0 = time.perf_counter()
    op = assemble(spec, constant_weights(spec), 1e-3, 600)
    h_src = image_to_histogram(src, n)
    h_tgt = image_to_histogram(tgt, n)
    tmap, defined = barycentric_map(op, h_src, h_tgt, 30)
    out = apply_color_map(src, fill_nearest(tmap, defined), n)
    assert out.dtype == np.uint8 and out.shape == src.shape
    h_out = image_to_histogram(out, n)

    blurred_tgt = op.apply(h_tgt.mass.ravel())
    d_out = np.linalg.norm(h_out.mass.ravel() - blurred_tgt)
    d_src = np.linalg.norm(h_src.mass.ravel() - blurred_tgt)
    assert d_out < d_src, (d_out, d_src)
    assert time.perf_counter() - t0 < 300.0


def test_ac10_determinism(desk_case, tmp_path):
    import json

    spec, w_true, seq, obj = desk_case

    # interpolation CLI twice -> byte-identical frames
    cfg50 = tmp_path / "c50.json"
    cfg50.write_text(json.dumps({"d": 2, "n": 50, "epsilon": 1.2e-2,
                                 "substeps": 50, "sinkhorn_iters": 50}))
    wdir = tmp_path / "w50"
    spec50 = GridSpec((50, 50))
    save_weights(wdir, spec50, constant_weights(spec50))
    write_tensor(tmp_path / "a.gmlt", dirac(spec50, (0, 0)).reshape(50, 50))
    write_tensor(tmp_path / "b.gmlt", dirac(spec50, (0, 49)).reshape(50, 50))
    for out in ("i1", "i2"):
        code = cli.main(["interp", "--weights", str(wdir),
                         "--from", str(tmp_path / "a.gmlt"),
                         "--to", str(tmp_path / "b.gmlt"), "--steps", "10",
                         "--config", str(cfg50), "--out", str(tmp_path / out)])
        assert code == 0
    for k in range(10):
        name = "frame_%03d.gmlt" % k
        assert ((tmp_path / "i1" / name).read_bytes()
                == (tmp_path / "i2" / name).read_bytes()), name

    # learning CLI twice on the desk-scale case -> byte-identical weights
    cfg20 = tmp_path / "c20.json"
    cfg20.write_text(json.dumps({"d": 2, "n": 20, "epsilon": 1.2e-2,
                                 "substeps": 20, "sinkhorn_iters": 30,
                                 "frames": 7, "loss": "l2", "lambda_c": 0.0,
                                 "lambda_s": 0.03, "lbfgs": {"max_iters": 15}}))
    sdir = tmp_path / "seq"
    save_sequence(sdir, spec, seq)
    for out in ("l1", "l2"):
        code = cli.main(["learn", "--config", str(cfg20), "--sequence", str(sdir),
                         "--out", str(tmp_path / out), "--threads", "1"])
        assert code == 0
    for name in ("weights_axis0.gmlt", "weights_axis1.gmlt"):
        assert ((tmp_path / "l1" / name).read_bytes()
                == (tmp_path / "l2" / name).read_bytes()), name

    # fixed reduction order: threaded evaluation is bit-identical
    rng = np.random.default_rng(11)
    wlog = rng.uniform(np.log(0.5), np.log(2.0), edge_count(spec))
    v1, g1 = evaluate_with_grad(obj, wlog, threads=1)
    v4, g4 = evaluate_with_grad(obj, wlog, threads=4)
    assert v1 == v4
    assert np.array_equal(g1, g4)


def blas_thread_envs():
    """Environments for a child process under OPENBLAS_NUM_THREADS=1, =2 and
    with no thread variable set, keyed "1", "2" and None."""
    import os

    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    return {t: dict(base, OPENBLAS_NUM_THREADS=t) if t else base for t in ("1", "2", None)}


def test_ac10_learn_bytes_do_not_depend_on_blas_threads(desk_case, tmp_path):
    """Importing ``otgrid.diffusion`` pins BLAS to one thread, so the
    15-iteration desk fit of ``otgrid learn`` writes the same weight bytes in
    processes started under OPENBLAS_NUM_THREADS=1, =2 and with no thread
    variable set."""
    import json
    import subprocess
    import sys

    spec, _, seq, _ = desk_case
    cfg = tmp_path / "c20.json"
    cfg.write_text(json.dumps({"d": 2, "n": 20, "epsilon": 1.2e-2, "substeps": 20,
                               "sinkhorn_iters": 30, "frames": 7, "loss": "l2",
                               "lambda_c": 0.0, "lambda_s": 0.03,
                               "lbfgs": {"max_iters": 15}}))
    save_sequence(tmp_path / "seq", spec, seq)
    weights = {}
    for threads, env in blas_thread_envs().items():
        out = tmp_path / ("w%s" % threads)
        subprocess.run([sys.executable, "-m", "otgrid.cli", "learn", "--config", str(cfg),
                        "--sequence", str(tmp_path / "seq"), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        weights[threads] = [(out / ("weights_axis%d.gmlt" % a)).read_bytes() for a in (0, 1)]
    assert weights["1"] == weights["2"] == weights[None]


def test_ac10_library_gradient_bytes_do_not_depend_on_blas_threads(desk_case, tmp_path):
    """A library caller's ``evaluate_with_grad``, with no command around it,
    gives the same value and gradient bytes at the desk fit's start (unit
    weights, the dense path) in processes started under
    OPENBLAS_NUM_THREADS=1, =2 and with no thread variable set."""
    import subprocess
    import sys

    spec, _, seq, _ = desk_case
    save_sequence(tmp_path / "seq", spec, seq)
    script = "\n".join([
        "import hashlib, sys",
        "import numpy as np",
        "from otgrid.grids import edge_count",
        "from otgrid.objective import Objective, evaluate_with_grad, load_sequence",
        "spec, seq = load_sequence(sys.argv[1])",
        "obj = Objective(grid=spec, sequences=(seq,), epsilon=1.2e-2, substeps=20,",
        "                sinkhorn_iters=30, loss='l2', lambda_c=0.0, lambda_s=0.03)",
        "value, grad = evaluate_with_grad(obj, np.zeros(edge_count(spec)))",
        "print(hashlib.sha256(np.float64(value).tobytes() + grad.tobytes()).hexdigest())",
    ])
    digests = {threads: subprocess.run([sys.executable, "-c", script, str(tmp_path / "seq")],
                                       env=env, check=True, capture_output=True,
                                       text=True).stdout
               for threads, env in blas_thread_envs().items()}
    assert digests["1"] == digests["2"] == digests[None]
