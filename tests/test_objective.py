import json

import numpy as np
import pytest

from otgrid.diffusion import assemble
from otgrid.grids import GridSpec, constant_weights, edge_count, parallel_difference
from otgrid.objective import (
    Objective,
    Sequence,
    default_timestamps,
    evaluate_with_grad,
    load_sequence,
    loss,
    reg_constant,
    reg_smooth,
    save_sequence,
)
from otgrid.synthetic import forward_sequence, gaussian


def normalized(rng, shape):
    h = rng.uniform(0.05, 1.0, shape)
    return h / h.sum(axis=-1, keepdims=True)


def small_sequence(spec, seed, frames=3):
    rng = np.random.default_rng(seed)
    return Sequence(normalized(rng, (frames, spec.num_vertices)),
                    default_timestamps(frames))


# --- losses -----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["l1", "l2", "kl"])
def test_loss_zero_at_equality(kind):
    q = np.array([0.2, 0.3, 0.5])
    val, grad = loss(kind, q, q)
    assert val == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)


def test_l1_pinned_example():
    assert loss("l1", np.array([1.0, 0.0]), np.array([0.0, 1.0]))[0] == 2.0


def test_l2_is_squared_norm():
    r = np.array([0.5, 0.5])
    o = np.array([0.25, 0.75])
    val, grad = loss("l2", r, o)
    assert val == pytest.approx(2 * 0.25**2, abs=1e-15)
    np.testing.assert_allclose(grad, 2 * (r - o), atol=1e-15)


def test_kl_gradient_is_one_minus_ratio():
    recon = np.array([0.4, 0.6])
    obs = np.array([0.3, 0.7])
    np.testing.assert_allclose(loss("kl", recon, obs)[1], 1.0 - obs / recon,
                               atol=1e-15)


def test_kl_handles_zero_observation():
    recon = np.array([0.5, 0.5])
    obs = np.array([1.0, 0.0])  # 0 log 0 = 0
    val = loss("kl", recon, obs)[0]
    assert np.isfinite(val)
    assert val == pytest.approx(np.log(2.0), abs=1e-12)


def test_kl_rejects_nonpositive_reconstruction():
    with pytest.raises(ValueError):
        loss("kl", np.array([0.0, 1.0]), np.array([0.5, 0.5]))


def test_unknown_loss_kind():
    with pytest.raises(ValueError):
        loss("huber", np.ones(2), np.ones(2))


# --- regularizers -------------------------------------------------------------


def test_reg_constant_pinned_examples():
    val, grad = reg_constant(np.ones(5))
    assert val == 0.0
    np.testing.assert_array_equal(grad, 0.0)
    val, _ = reg_constant(np.array([2.0, 0.5]))
    assert val == 1.25


def test_reg_smooth_pinned_examples():
    spec = GridSpec((2, 2))
    val, _ = reg_smooth(spec, constant_weights(spec, 3.0))
    assert val == 0.0
    # horizontal weights (1,3), vertical equal: contribution (1-3)^2+(3-1)^2
    val, _ = reg_smooth(spec, np.array([5.0, 5.0, 1.0, 3.0]))
    assert val == 8.0


def test_reg_smooth_gradient_matches_finite_differences():
    spec = GridSpec((4, 4))
    rng = np.random.default_rng(1)
    w = rng.uniform(0.3, 2.0, edge_count(spec))
    _, grad = reg_smooth(spec, w)
    h = 1e-6
    for e in range(edge_count(spec)):
        wp = w.copy()
        wp[e] += h
        wm = w.copy()
        wm[e] -= h
        fd = (reg_smooth(spec, wp)[0] - reg_smooth(spec, wm)[0]) / (2 * h)
        # the difference is dominated by FD roundoff (~|f| eps / h)
        assert grad[e] == pytest.approx(fd, rel=1e-7, abs=1e-7)


# --- sequence container -------------------------------------------------------


def test_sequence_validation():
    good = np.full((2, 4), 0.25)
    Sequence(good, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        Sequence(good[:1], np.array([0.0]))  # one frame
    with pytest.raises(ValueError):
        Sequence(-good, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        Sequence(2 * good, np.array([0.0, 1.0]))  # mass 2
    with pytest.raises(ValueError):
        Sequence(good, np.array([0.1, 1.0]))  # must start at 0
    with pytest.raises(ValueError):
        Sequence(np.full((3, 4), 0.25), np.array([0.0, 0.0, 1.0]))  # not increasing


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sequence_rejects_non_finite_entries(bad):
    frames = np.full((3, 4), 0.25)
    frames[1, 2] = bad
    with pytest.raises(ValueError, match="frames have non-finite entries"):
        Sequence(frames, np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError, match="timestamps have non-finite entries"):
        Sequence(np.full((3, 4), 0.25), np.array([0.0, bad, 1.0]))


def test_default_timestamps():
    np.testing.assert_allclose(default_timestamps(5), [0.0, 0.25, 0.5, 0.75, 1.0])


# --- full objective ------------------------------------------------------------


def test_objective_validation():
    spec = GridSpec((3, 3))
    seq = small_sequence(spec, 2)
    with pytest.raises(ValueError):
        Objective(spec, (seq,), 1e-2, 3, 5, loss="nope")
    with pytest.raises(ValueError):
        Objective(spec, (seq,), 1e-2, 3, 5, lambda_c=-1.0)
    with pytest.raises(ValueError):
        Objective(GridSpec((4, 4)), (seq,), 1e-2, 3, 5)


@pytest.mark.parametrize("key", ["lambda_c", "lambda_s"])
def test_objective_rejects_nan_regularizer_coefficient(key):
    spec = GridSpec((3, 3))
    with pytest.raises(ValueError, match="regularizer coefficients"):
        Objective(spec, (small_sequence(spec, 2),), 1e-2, 3, 5, **{key: np.nan})


def test_empty_sequence_list_is_pure_regularizer():
    spec = GridSpec((4, 4))
    obj = Objective(spec, (), 1e-2, 3, 5, lambda_c=0.7, lambda_s=0.3)
    x = np.random.default_rng(3).normal(0.0, 0.3, edge_count(spec))
    E, g, parts = evaluate_with_grad(obj, x, with_parts=True)
    w = np.exp(x)
    fc = float(((w - 1.0) ** 2).sum())
    dw = parallel_difference(spec, w)
    assert parts.data_fit == 0.0
    assert E == 0.7 * fc + 0.3 * float(dw @ dw)
    # analytic gradient in the log domain
    gc = 2.0 * (w - 1.0)
    gs = 2.0 * parallel_difference(spec, dw)
    np.testing.assert_allclose(g, (0.7 * gc + 0.3 * gs) * w, rtol=1e-13)


def test_parts_recompose_exactly():
    spec = GridSpec((5, 5))
    seq = small_sequence(spec, 4)
    obj = Objective(spec, (seq,), 1.5e-2, 3, 6, lambda_c=0.2, lambda_s=0.4)
    x = np.random.default_rng(5).normal(0.0, 0.2, edge_count(spec))
    E, _, parts = evaluate_with_grad(obj, x, with_parts=True)
    assert E == parts.data_fit + 0.2 * parts.reg_constant + 0.4 * parts.reg_smooth


def test_objective_nonnegative():
    spec = GridSpec((4, 4))
    seq = small_sequence(spec, 6)
    for kind in ("l1", "l2", "kl"):
        obj = Objective(spec, (seq,), 1e-2, 3, 5, loss=kind, lambda_c=0.1,
                        lambda_s=0.1)
        E, _ = evaluate_with_grad(obj, np.zeros(edge_count(spec)))
        assert E >= 0.0


@pytest.mark.parametrize("kind", ["l1", "l2", "kl"])
def test_gradient_matches_finite_differences(kind):
    spec = GridSpec((6, 6))
    seq = small_sequence(spec, 7, frames=3)
    obj = Objective(spec, (seq,), 1.2e-2, 3, 5, loss=kind, lambda_c=0.05,
                    lambda_s=0.1)
    rng = np.random.default_rng(8)
    x = rng.normal(0.0, 0.2, edge_count(spec))
    _, grad = evaluate_with_grad(obj, x)
    h = 1e-6
    for e in rng.choice(edge_count(spec), size=8, replace=False):
        xp = x.copy()
        xp[e] += h
        xm = x.copy()
        xm[e] -= h
        fd = (evaluate_with_grad(obj, xp)[0] - evaluate_with_grad(obj, xm)[0]) / (2 * h)
        assert grad[e] == pytest.approx(fd, rel=1e-4, abs=1e-10)


def test_multi_sequence_is_exact_sum_of_data_fits():
    spec = GridSpec((5, 5))
    seqs = tuple(small_sequence(spec, 20 + k) for k in range(3))
    x = np.random.default_rng(9).normal(0.0, 0.2, edge_count(spec))
    joint = Objective(spec, seqs, 1e-2, 3, 5, lambda_c=0.3, lambda_s=0.7)
    E, _, parts = evaluate_with_grad(joint, x, with_parts=True)
    singles = []
    for seq in seqs:
        solo = Objective(spec, (seq,), 1e-2, 3, 5, lambda_c=0.0, lambda_s=0.0)
        singles.append(evaluate_with_grad(solo, x, with_parts=True)[2].data_fit)
    acc = 0.0
    for s in singles:
        acc += s
    assert parts.data_fit == acc  # bit-for-bit under the fixed order
    assert E == parts.data_fit + 0.3 * parts.reg_constant + 0.7 * parts.reg_smooth


def test_threads_do_not_change_results():
    spec = GridSpec((5, 5))
    seqs = tuple(small_sequence(spec, 30 + k) for k in range(2))
    obj = Objective(spec, seqs, 1e-2, 4, 6, lambda_s=0.2)
    x = np.random.default_rng(10).normal(0.0, 0.2, edge_count(spec))
    E1, g1 = evaluate_with_grad(obj, x, threads=1)
    E4, g4 = evaluate_with_grad(obj, x, threads=4)
    assert E1 == E4
    np.testing.assert_array_equal(g1, g4)


def test_truth_fits_better_than_euclidean():
    """Data generated under w* scores lower at w* than at the flat metric."""
    spec = GridSpec((8, 8))
    rng = np.random.default_rng(11)
    w_true = rng.uniform(0.3, 2.5, edge_count(spec))
    r0 = gaussian(spec, (3.5, 1.0), 1.0)
    r1 = gaussian(spec, (3.5, 6.0), 1.0)
    seq = forward_sequence(spec, w_true, r0, r1, 4, 1.2e-2, 5, 10)
    obj = Objective(spec, (seq,), 1.2e-2, 5, 10, lambda_c=0.0, lambda_s=0.0)
    at_truth, _ = evaluate_with_grad(obj, np.log(w_true))
    at_flat, _ = evaluate_with_grad(obj, np.log(constant_weights(spec)))
    assert at_truth < at_flat


def test_non_finite_log_weights_rejected():
    spec = GridSpec((3, 3))
    obj = Objective(spec, (), 1e-2, 2, 3)
    x = np.zeros(edge_count(spec))
    x[0] = np.inf
    with pytest.raises(ValueError):
        evaluate_with_grad(obj, x)


@pytest.mark.parametrize("big", [800.0, -800.0, 709.0, 700.0],
                         ids=["exp-inf", "exp-zero", "M-overflows", "M-fails-to-factor"])
def test_unassemblable_log_weights_give_an_infinite_value(big):
    """Finite log-weights whose weights cannot be assembled are a point the
    objective has no value at: +inf, which a line search backs off from."""
    spec = GridSpec((3, 3))
    obj = Objective(spec, (small_sequence(spec, 3),), 1e-2, 2, 3)
    x = np.zeros(edge_count(spec))
    x[0] = big
    value, grad, parts = evaluate_with_grad(obj, x, with_parts=True)
    assert value == np.inf and parts.data_fit == np.inf
    assert grad.shape == x.shape and np.isnan(grad).all()


# --- sequence files ---------------------------------------------------------


def test_save_load_sequence_roundtrip(tmp_path):
    spec = GridSpec((4, 5))
    seq = small_sequence(spec, 12, frames=4)
    save_sequence(tmp_path / "seq", spec, seq)
    manifest = json.loads((tmp_path / "seq" / "manifest.json").read_text())
    assert manifest["dims"] == [4, 5]
    assert len(manifest["frames"]) == 4
    spec2, seq2 = load_sequence(tmp_path / "seq")
    assert spec2.dims == (4, 5)
    np.testing.assert_array_equal(seq2.frames, seq.frames)
    np.testing.assert_array_equal(seq2.timestamps, seq.timestamps)


def test_load_sequence_rejects_mismatched_frame(tmp_path):
    spec = GridSpec((3, 3))
    seq = small_sequence(spec, 13)
    save_sequence(tmp_path / "seq", spec, seq)
    manifest = json.loads((tmp_path / "seq" / "manifest.json").read_text())
    manifest["dims"] = [3, 4]
    (tmp_path / "seq" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_sequence(tmp_path / "seq")
