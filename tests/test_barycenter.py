import warnings

import numpy as np
import pytest

import otgrid.barycenter
import otgrid.diffusion
import otgrid.synthetic
from otgrid.barycenter import (
    DegeneracyWarning,
    barycenter,
    barycenter_backward,
    sinkhorn_scalings,
)
from otgrid.color import ColorHistogram
from otgrid.diffusion import assemble
from otgrid.grids import GridSpec, constant_weights, edge_count
from otgrid.objective import Sequence
from otgrid.synthetic import dirac, forward_sequence, gaussian


def euclidean_op(dims, epsilon=1.2e-2, substeps=10):
    spec = GridSpec(dims)
    return assemble(spec, constant_weights(spec), epsilon, substeps)


def random_histograms(spec, count, seed):
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.05, 1.0, (count, spec.num_vertices))
    return h / h.sum(axis=1, keepdims=True)


def ot_value_history(op, a, b, iters: int) -> np.ndarray:
    """Regularized transport value after each scaling sweep (diagnostic).

    Builds the dense kernel and cost (small grids only) and records
    <C, P> - eps * H(P) for the plan P = diag(u) K diag(v) of each sweep of
    ``sinkhorn_scalings``, with entropy H(P) = -sum P (log P - 1) and the
    0 log 0 = 0 convention.
    """
    kd = op.dense_kernel()
    with np.errstate(divide="ignore"):
        cost = -op.epsilon * np.log(kd)
    _, _, history = sinkhorn_scalings(op, a, b, iters, history=True)
    values = np.empty(iters)
    for l, st in enumerate(history):
        plan = st["u"][:, None] * kd * st["v"][None, :]
        pos = plan > 0
        transport = float(np.sum(cost[pos] * plan[pos]))
        entropy = -float(np.sum(plan[pos] * (np.log(plan[pos]) - 1.0)))
        values[l] = transport - op.epsilon * entropy
    return values


# --- forward ---------------------------------------------------------------


def test_endpoint_weight_vector_is_kernel_blur():
    """lam=(1,0) fixes the iteration at K a0 from the very first sweep."""
    op = euclidean_op((6, 6))
    a = random_histograms(op.spec, 2, 1)
    b, _ = barycenter(op, a, np.array([1.0, 0.0]), 7)
    np.testing.assert_allclose(b, op.apply(a[0]), atol=1e-12)
    b1, _ = barycenter(op, a, np.array([0.0, 1.0]), 7)
    np.testing.assert_allclose(b1, op.apply(a[1]), atol=1e-12)


def test_barycenter_mass_near_one():
    op = euclidean_op((10, 10), substeps=20)
    a = random_histograms(op.spec, 2, 4)
    # rough random inputs converge at ~a decade per 20 sweeps; 100 is plenty
    for t in (0.25, 0.5, 0.75):
        b, _ = barycenter(op, a, np.array([1 - t, t]), 100)
        assert abs(b.sum() - 1.0) < 1e-6


def test_mirrored_diracs_give_mirror_symmetric_barycenter():
    """Swapping the inputs of a half/half barycenter mirrors the output."""
    op = euclidean_op((8, 8), substeps=15)
    a = dirac(op.spec, (3, 1))
    b = dirac(op.spec, (3, 6))
    out, _ = barycenter(op, np.stack([a, b]), np.array([0.5, 0.5]), 25)
    grid = out.reshape(8, 8)
    assert np.abs(grid - grid[:, ::-1]).max() < 1e-10


def test_barycenter_argmax_midpoint():
    # Diracs at the ends of one row: the midpoint of the path hosts the mode
    op = euclidean_op((9, 9), substeps=15)
    a = dirac(op.spec, (4, 0))
    b = dirac(op.spec, (4, 8))
    mid, _ = barycenter(op, np.stack([a, b]), np.array([0.5, 0.5]), 30)
    r, c = np.unravel_index(np.argmax(mid), (9, 9))
    assert r == 4
    assert abs(c - 4) <= 1


def test_barycenter_input_validation():
    op = euclidean_op((3, 3))
    a = random_histograms(op.spec, 2, 5)
    with pytest.raises(ValueError):
        barycenter(op, a, np.array([0.7, 0.7]), 3)  # not a probability vector
    with pytest.raises(ValueError):
        barycenter(op, a, np.array([1.5, -0.5]), 3)  # negative entry
    with pytest.raises(ValueError):
        barycenter(op, a, np.array([1.0]), 3)  # wrong length
    with pytest.raises(ValueError):
        barycenter(op, a, np.array([0.5, 0.5]), 0)  # no sweeps
    with pytest.raises(ValueError):
        barycenter(op, -a, np.array([0.5, 0.5]), 3)  # negative mass
    short = np.ones((2, 4)) / 4.0
    with pytest.raises(ValueError):
        barycenter(op, short, np.array([0.5, 0.5]), 3)  # wrong grid size


@pytest.mark.parametrize("run, calls, caller", [
    (lambda op, a, b: barycenter(op, np.stack([a, b]), np.array([0.5, 0.5]), 3)[0],
     1, __file__),
    (lambda op, a, b: sinkhorn_scalings(op, a, b, 3)[1], 1, __file__),
    # one barycenter call per frame, each warning at its caller in synthetic.py
    (lambda op, a, b: forward_sequence(op.spec, constant_weights(op.spec), a, b, 3,
                                       op.epsilon, op.substeps, 3).frames,
     3, otgrid.synthetic.__file__),
], ids=["barycenter", "sinkhorn_scalings", "forward_sequence"])
def test_degenerate_denominators_warn_once_and_stay_finite(run, calls, caller):
    spec = GridSpec((30, 30))
    op = assemble(spec, constant_weights(spec), 1e-8, 1)
    a = dirac(spec, (0, 0))
    b = dirac(spec, (29, 29))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        out = run(op, a, b)
    hits = [w for w in rec if issubclass(w.category, DegeneracyWarning)]
    assert len(hits) == calls  # once per barycenter or scalings call
    assert {w.filename for w in hits} == {caller}  # the public function's caller
    assert np.isfinite(out).all()


# --- scalings and transport value -------------------------------------------


def test_package_does_not_shadow_the_submodule():
    assert otgrid.barycenter.sinkhorn_scalings is sinkhorn_scalings


@pytest.mark.parametrize("fn", [sinkhorn_scalings, ot_value_history])
def test_scalings_input_validation(fn):
    op = euclidean_op((3, 3))
    a, b = random_histograms(op.spec, 2, 15)
    negative = a.copy()
    negative[1] += 2 * negative[0]
    negative[0] *= -1
    with pytest.raises(ValueError):
        fn(op, a, b, 0)  # no sweeps
    with pytest.raises(ValueError):
        fn(op, negative, b, 3)  # sums to 1 but has a negative entry
    with pytest.raises(ValueError):
        fn(op, a, 2 * b, 3)  # target does not sum to 1
    with pytest.raises(ValueError):
        fn(op, a[:4], b[:4] / b[:4].sum(), 3)  # wrong grid size
    with pytest.raises(ValueError):
        fn(op, np.stack([a, b]), b, 3)  # more than one source


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_inputs_fail_at_the_check(bad):
    """A NaN sum passes |sum - 1| > tol, so finiteness is checked on its own."""
    op = euclidean_op((3, 3))
    a, b = random_histograms(op.spec, 2, 15)
    poisoned = a.copy()
    poisoned[4] = bad
    with pytest.raises(ValueError, match="histograms have non-finite entries"):
        barycenter(op, np.stack([poisoned, b]), np.array([0.5, 0.5]), 3)
    with pytest.raises(ValueError, match="histograms have non-finite entries"):
        sinkhorn_scalings(op, a, poisoned, 3)
    with pytest.raises(ValueError, match="weights have non-finite entries"):
        barycenter(op, np.stack([a, b]), np.array([[0.5, 0.5], [bad, 0.5]]), 3)


UNIFORM8 = np.full(8, 0.125)
# each caller of check_distributions, fed one row of 8 entries
DISTRIBUTION_CALLERS = {
    "histograms": lambda row: barycenter(euclidean_op((2, 2, 2)), np.stack([row, UNIFORM8]),
                                         np.array([0.5, 0.5]), 2),
    "weights": lambda row: barycenter(euclidean_op((2, 2, 2)), np.eye(8),
                                      np.stack([UNIFORM8, row]), 2),
    "frames": lambda row: Sequence(np.stack([UNIFORM8, row]), np.array([0.0, 1.0])),
    "mass": lambda row: ColorHistogram(2, row.reshape(2, 2, 2)),
}


def edited_row(index, value):
    row = UNIFORM8.copy()
    row[index] = value
    return row


@pytest.mark.parametrize("caller", sorted(DISTRIBUTION_CALLERS))
def test_every_caller_applies_the_one_distribution_rule(caller):
    """Barycenter inputs, weight rows, sequence frames and color masses are
    held to the same rule: finite, nonnegative, summing to 1 within 1e-12."""
    call = DISTRIBUTION_CALLERS[caller]
    call(edited_row(3, 0.125 + 5e-13))
    with pytest.raises(ValueError, match="must sum to 1 within 1e-12"):
        call(edited_row(3, 0.125 + 2e-12))
    with pytest.raises(ValueError, match="non-finite entries"):
        call(edited_row(3, np.nan))
    negative = edited_row(0, -1e-300)
    negative[1] = 0.25  # the sum stays 1
    with pytest.raises(ValueError, match="must be nonnegative"):
        call(negative)


def test_scaling_marginal_identity_every_sweep():
    """u = a/(Kv) makes u * (Kv) reproduce a after every u-update."""
    op = euclidean_op((6, 6))
    h = random_histograms(op.spec, 2, 6)
    u, v, states = sinkhorn_scalings(op, h[0], h[1], 12, history=True)
    for st in states:
        np.testing.assert_allclose(st["u"] * st["kv"], h[0], atol=1e-12)
    # after the v-update the column marginal matches b the same way
    np.testing.assert_allclose(states[-1]["v"] * states[-1]["ku"], h[1], atol=1e-12)


def test_scalings_converge_to_consistent_plan():
    op = euclidean_op((5, 5), substeps=8)
    h = random_histograms(op.spec, 2, 7)
    u, v = sinkhorn_scalings(op, h[0], h[1], 300)
    K = op.dense_kernel()
    plan = u[:, None] * K * v[None, :]
    np.testing.assert_allclose(plan.sum(axis=1), h[0], atol=1e-9)
    np.testing.assert_allclose(plan.sum(axis=0), h[1], atol=1e-9)


def test_transport_value_nondecreasing_over_sweeps():
    """Alternating scaling ascends the dual, so the recorded value never drops."""
    rng = np.random.default_rng(8)
    for seed in range(5):
        op = euclidean_op((5, 5), epsilon=float(rng.uniform(4e-3, 4e-2)), substeps=6)
        h = random_histograms(op.spec, 2, 100 + seed)
        vals = ot_value_history(op, h[0], h[1], 30)
        drops = np.diff(vals)
        assert drops.min() > -1e-10


def test_transport_value_self_dirac_closed_form():
    # a = b = same Dirac: the only feasible plan is one unit at (i, i),
    # so the value is C_ii - eps (entropy of a single unit entry is 1).
    op = euclidean_op((4, 4), epsilon=3e-2, substeps=4)
    i = 5
    a = np.zeros(16)
    a[i] = 1.0
    val = ot_value_history(op, a, a, 400)[-1]
    C = -op.epsilon * np.log(op.dense_kernel())
    assert val == pytest.approx(C[i, i] - op.epsilon, rel=1e-9)


def test_plan_entropy_convention():
    # uniform 2x2 plan entries 1/4: H = -sum p (log p - 1) = 1 + log 4
    p = np.full((2, 2), 0.25)
    H = -float(np.sum(p * (np.log(p) - 1.0)))
    assert H == pytest.approx(1.0 + np.log(4.0), abs=1e-12)


# --- backward ---------------------------------------------------------------


def test_backward_matches_finite_differences():
    spec = GridSpec((4, 4))
    m = edge_count(spec)
    rng = np.random.default_rng(9)
    w = rng.uniform(0.4, 2.0, m)
    h = random_histograms(spec, 2, 10)
    lam = np.array([0.3, 0.7])
    gbar = rng.normal(size=16)
    L = 4

    def value(wvec):
        op = assemble(spec, wvec, 2e-2, 3)
        b, _ = barycenter(op, h, lam, L)
        return float(gbar @ b)

    op = assemble(spec, w, 2e-2, 3)
    acc = op.gradient_accumulator()
    b, tape = barycenter(op, h, lam, L, record=True)
    barycenter_backward(tape, gbar, acc)
    dw = acc.finalize()
    step = 1e-5
    for e in range(0, m, 3):  # every third edge keeps the loop quick
        wp = w.copy()
        wp[e] += step
        wm = w.copy()
        wm[e] -= step
        fd = (value(wp) - value(wm)) / (2 * step)
        assert dw[e] == pytest.approx(fd, rel=2e-4, abs=1e-9)


def test_backward_three_inputs():
    spec = GridSpec((3, 4))
    m = edge_count(spec)
    rng = np.random.default_rng(11)
    w = rng.uniform(0.5, 1.8, m)
    h = random_histograms(spec, 3, 12)
    lam = np.array([0.2, 0.5, 0.3])
    gbar = rng.normal(size=12)

    def value(wvec):
        b, _ = barycenter(assemble(spec, wvec, 1.5e-2, 2), h, lam, 3)
        return float(gbar @ b)

    op = assemble(spec, w, 1.5e-2, 2)
    acc = op.gradient_accumulator()
    _, tape = barycenter(op, h, lam, 3, record=True)
    barycenter_backward(tape, gbar, acc)
    dw = acc.finalize()
    step = 1e-5
    for e in (0, 7, 13):
        wp = w.copy()
        wp[e] += step
        wm = w.copy()
        wm[e] -= step
        fd = (value(wp) - value(wm)) / (2 * step)
        assert dw[e] == pytest.approx(fd, rel=2e-4, abs=1e-9)


def test_backward_runs_two_solve_chains_per_kernel_application(monkeypatch):
    """Each of the 2R kernel applications of a sweep is pulled back by two
    chains of S solves: one rebuilds its solve states, which the tape does
    not keep, and one yields both its input and its weight adjoint.  A
    half-sweep's R applications are pulled back as one block, so the
    chains of a sweep are 2 x 2 S solve calls of R columns each."""
    monkeypatch.setattr(otgrid.diffusion, "DENSE_MAX", 0)  # the solve path
    spec = GridSpec((4, 3))
    iters, substeps = 3, 4
    op = assemble(spec, constant_weights(spec), 2e-2, substeps)
    r_count = 2
    h = random_histograms(spec, r_count, 14)
    acc = op.gradient_accumulator()
    _, tape = barycenter(op, h, np.array([0.4, 0.6]), iters, record=True)
    solves = [0, 0]  # calls, columns
    solve = op.solve

    def counted(b):
        solves[0] += 1
        solves[1] += b.shape[1]
        return solve(b)

    op.solve = counted
    barycenter_backward(tape, np.ones(spec.num_vertices), acc)
    acc.finalize()
    assert solves == [iters * 2 * 2 * substeps, iters * r_count * 2 * 2 * substeps]


def test_backward_requires_matching_operator(monkeypatch):
    """An accumulator of an operator on another grid fails at the first pull,
    on the solve path as on the dense K."""
    spec_a = GridSpec((3, 3))
    spec_b = GridSpec((4, 4))
    op_a = assemble(spec_a, constant_weights(spec_a), 1e-2, 2)
    h = random_histograms(spec_a, 2, 13)
    _, tape = barycenter(op_a, h, np.array([0.5, 0.5]), 2, record=True)
    for dense in (False, True):
        with monkeypatch.context() as m:
            if not dense:
                m.setattr(otgrid.diffusion, "DENSE_MAX", 0)
            op_b = assemble(spec_b, constant_weights(spec_b), 1e-2, 2)
            acc = op_b.gradient_accumulator()
        assert (op_b.kernel is not None) == dense
        with pytest.raises(ValueError, match="N = 16"):
            barycenter_backward(tape, np.ones(9), acc)
