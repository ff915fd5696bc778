"""Equivalence gate: one barycenter for all frames against one per frame.

A barycenter with (F, R) weights runs every frame through one loop, each
kernel application acting on an (F, N) block, and the objective makes one
such call per sequence for its interior frames; its endpoint frames are
K a in closed form.  The reference is the per-frame path: one call with a
1-D weight vector per frame, and, for the objective, one recorded
barycenter and one backward pass per frame, endpoints included, into a
shared accumulator.
The backward pass pulls each half-sweep back as one (R F, N) block; its
reference is the per-input replay, one pull per input and half-sweep.  It
rebuilds each sweep's v-target from the tape, and the rebuilt targets are
the barycenters of the shorter runs bit for bit.  All are checked on the
dense path (20x20) and on the solve path (6x5x4 with ``DENSE_MAX`` patched
to 0), the gradients and rows at 1e-13.
"""

import warnings

import numpy as np
import pytest

from otgrid import diffusion, objective
from otgrid.barycenter import DegeneracyWarning, _target, barycenter, barycenter_backward
from otgrid.diffusion import DiffusionOperator, assemble
from otgrid.grids import GridSpec, edge_count
from otgrid.objective import Objective, Sequence, evaluate_with_grad, loss
from test_dense_engine import CLAMP_EPSILON, GRIDS, RTOL, blob_sequence, corner_diracs, rel_diff

ITERS, SUBSTEPS, EPSILON = 10, 8, 1.2e-2


def grid_id(dims):
    return "x".join(map(str, dims))


@pytest.fixture(params=GRIDS, ids=grid_id)
def spec(request, monkeypatch):
    """The grid, with the 6x5x4 one on the solve path."""
    if request.param != (20, 20):
        monkeypatch.setattr(diffusion, "DENSE_MAX", 0)
    return GridSpec(request.param)


def operator(spec, seed=2):
    """An operator asked for an accumulator, so that it is on the path that
    evaluations use: the dense K on 20x20, the solves on 6x5x4."""
    w = np.exp(np.random.default_rng(seed).normal(0.0, 0.3, edge_count(spec)))
    op = assemble(spec, w, EPSILON, SUBSTEPS)
    op.gradient_accumulator()
    assert (op.kernel is not None) == (spec.dims == (20, 20))
    return op


def weight_rows(frames, inputs, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(inputs), frames)


@pytest.mark.parametrize("frames", [2, 7])
def test_block_rows_match_single_frame_calls(spec, frames):
    op = operator(spec)
    rng = np.random.default_rng(4)
    h = rng.uniform(0.05, 1.0, (3, spec.num_vertices))
    h /= h.sum(axis=1, keepdims=True)
    lam = weight_rows(frames, 3, 5)
    block, _ = barycenter(op, h, lam, ITERS)
    assert block.shape == (frames, spec.num_vertices)
    for f in range(frames):
        assert rel_diff(block[f], barycenter(op, h, lam[f], ITERS)[0]) <= RTOL


def per_frame_evaluation(obj, wlog):
    """Value and log-weight gradient of the data fit, one frame at a time."""
    w = np.exp(wlog)
    op = assemble(obj.grid, w, obj.epsilon, obj.substeps)
    acc = op.gradient_accumulator()
    total = 0.0
    for seq in obj.sequences:
        sub_val = 0.0
        for i, t in enumerate(seq.timestamps):
            recon, tape = barycenter(op, seq.frames[[0, -1]], np.array([1.0 - t, t]),
                                     obj.sinkhorn_iters, record=True)
            val, gbar = loss(obj.loss, recon, seq.frames[i])
            sub_val += val
            barycenter_backward(tape, gbar, acc)
        total += sub_val
    return total, acc.finalize() * w


@pytest.mark.parametrize("frames", [2, 3, 7])
@pytest.mark.parametrize("kind", ["l1", "l2", "kl"])
def test_objective_matches_per_frame_loop(spec, kind, frames):
    obj = Objective(spec, (blob_sequence(spec, frames),), EPSILON, SUBSTEPS, ITERS,
                    loss=kind, lambda_s=0.0)
    wlog = np.random.default_rng(3).normal(0.0, 0.3, edge_count(spec))
    val, grad = evaluate_with_grad(obj, wlog)
    val_ref, grad_ref = per_frame_evaluation(obj, wlog)
    assert abs(val - val_ref) <= RTOL * abs(val_ref)
    assert rel_diff(grad, grad_ref) <= RTOL


@pytest.mark.parametrize("frames", [2, 3, 7])
def test_objective_work_counts(monkeypatch, frames):
    """On the solve path, one evaluation of a P-frame sequence makes one
    barycenter call on its P - 2 interior rows and 2 ITERS pulls: 2 ITERS - 1
    in its backward pass and the last one of the (2, N) endpoint block; a
    two-frame sequence makes no barycenter call and one pull.  The forward
    pass solves S (2R ITERS (P - 2) + 2) columns, against S 2R ITERS P with
    every frame in the sweeps."""
    monkeypatch.setattr(diffusion, "DENSE_MAX", 0)
    spec = GridSpec(GRIDS[1])
    obj = Objective(spec, (blob_sequence(spec, frames),), EPSILON, SUBSTEPS, ITERS,
                    lambda_s=0.0)
    weight_shapes, pulls, forward_columns, pulling = [], [], [0], [False]
    bary, solve, pull = objective.barycenter, DiffusionOperator.solve, diffusion._ChainGradient.pull

    def counted_barycenter(op, inputs, lam, *args, **kwargs):
        weight_shapes.append(np.shape(lam))
        return bary(op, inputs, lam, *args, **kwargs)

    def counted_solve(self, b):
        if not pulling[0]:
            forward_columns[0] += 1 if b.ndim == 1 else b.shape[1]
        return solve(self, b)

    def counted_pull(self, g, x):
        pulls.append(np.shape(g))
        pulling[0] = True
        try:
            return pull(self, g, x)
        finally:
            pulling[0] = False

    monkeypatch.setattr(objective, "barycenter", counted_barycenter)
    monkeypatch.setattr(DiffusionOperator, "solve", counted_solve)
    monkeypatch.setattr(diffusion._ChainGradient, "pull", counted_pull)
    evaluate_with_grad(obj, np.zeros(edge_count(spec)))
    interior, r_count = frames - 2, 2
    assert weight_shapes == ([(interior, r_count)] if interior else [])
    assert len(pulls) == (2 * ITERS if interior else 1)
    assert pulls[-1] == (2, spec.num_vertices)
    assert forward_columns[0] == SUBSTEPS * (2 * r_count * ITERS * interior + 2)


@pytest.mark.parametrize("frames", [2, 3])
@pytest.mark.parametrize("dims", GRIDS, ids=grid_id)
def test_endpoint_clamps_keep_kl_finite_and_warn(dims, frames):
    """At an epsilon where the kernel underflows, K a has exact zeros.  The
    endpoint reconstruction clamps them at the divide floor, as the sweeps
    clamp K u_r, so a KL fit stays finite, equals the all-rows loop, and is
    reported; a two-frame sequence, which makes no barycenter call, warns
    from its endpoints alone."""
    spec = GridSpec(dims)
    h = corner_diracs(spec)
    seq = Sequence(np.stack([h[0]] + [h.mean(axis=0)] * (frames - 2) + [h[1]]),
                   np.linspace(0.0, 1.0, frames))
    obj = Objective(spec, (seq,), CLAMP_EPSILON[dims], 1, 3, loss="kl", lambda_s=0.0)
    wlog = np.zeros(edge_count(spec))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        val, grad = evaluate_with_grad(obj, wlog)
    assert any(issubclass(x.category, DegeneracyWarning) for x in rec)
    assert np.isfinite(val) and np.isfinite(grad).all()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        val_ref, grad_ref = per_frame_evaluation(obj, wlog)
    assert abs(val - val_ref) <= RTOL * abs(val_ref)
    assert rel_diff(grad, grad_ref) <= RTOL


@pytest.mark.parametrize("kind", ["l2", "kl"])
@pytest.mark.parametrize("dims", GRIDS, ids=grid_id)
def test_clamped_gradient_matches_central_differences(dims, kind):
    """Where both the sweeps and the endpoint frames clamp, the gradient
    still matches central differences of the value along three random unit
    directions: a clamped entry is constant, in the value as in the tape."""
    spec = GridSpec(dims)
    h = corner_diracs(spec)
    seq = Sequence(np.stack([h[0], h.mean(axis=0), h[1]]), np.linspace(0.0, 1.0, 3))
    obj = Objective(spec, (seq,), CLAMP_EPSILON[dims], 1, 3, loss=kind, lambda_s=0.0)
    rng = np.random.default_rng(12)
    wlog = rng.normal(0.0, 0.3, edge_count(spec))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        _, grad = evaluate_with_grad(obj, wlog)
    messages = [str(x.message) for x in rec if issubclass(x.category, DegeneracyWarning)]
    assert any(m.startswith("Sinkhorn sweeps clamped") for m in messages)
    assert any(m.startswith("endpoint reconstruction clamped") for m in messages)
    step = 1e-5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        for _ in range(3):
            u = rng.normal(size=wlog.shape)
            u /= np.linalg.norm(u)
            fd = (evaluate_with_grad(obj, wlog + step * u)[0]
                  - evaluate_with_grad(obj, wlog - step * u)[0]) / (2 * step)
            assert abs(grad @ u - fd) <= 1e-5 * abs(fd)


def per_input_backward(tape, gbar, acc):
    """The backward pass with one pull per input and half-sweep, 2R pulls
    per sweep: the reference for the stacked one."""
    iters, r_count, frames, n = tape.kv.shape
    gbar = np.asarray(gbar, dtype=np.float64).reshape(frames, n)
    a, lam, kv, ku = tape.inputs, tape.lam, tape.kv, tape.ku
    b = [_target(lam, ku[l]) for l in range(iters)]
    ones = np.ones((frames, n))
    gv = np.zeros((r_count, frames, n))
    for l in range(iters - 1, -1, -1):
        gb = gbar.copy() if l == iters - 1 else np.zeros((frames, n))
        for r in range(r_count):
            gb += gv[r] / ku[l, r]
        for r in range(r_count):
            u = a[r] / kv[l, r]
            v = b[l] / ku[l, r]
            gq = lam[:, r, None] * gb * b[l] / ku[l, r] - gv[r] * v / ku[l, r]
            gu = acc.pull(gq, u)
            gp = -gu * u / kv[l, r]
            v_in = b[l - 1] / ku[l - 1, r] if l else ones
            gv[r] = acc.pull(gp, v_in)


@pytest.mark.parametrize("frames", [1, 4])
@pytest.mark.parametrize("r_count", [2, 3])
def test_stacked_backward_matches_per_input_pulls(spec, r_count, frames):
    """The weight gradient of one pull per half-sweep, on the block of all
    inputs and frames, is the per-input one; a backward pass makes
    2 ITERS - 1 pulls, whatever R is, none of them of all-ones inputs, and
    the reference 2 ITERS R."""
    op = operator(spec)
    rng = np.random.default_rng(8)
    h = rng.uniform(0.05, 1.0, (r_count, spec.num_vertices))
    h /= h.sum(axis=1, keepdims=True)
    _, tape = barycenter(op, h, weight_rows(frames, r_count, 9), ITERS, record=True)
    gbar = rng.normal(size=(frames, spec.num_vertices))
    grads, pulls = [], []
    for backward in (barycenter_backward, per_input_backward):
        acc = op.gradient_accumulator()
        shapes, pull = [], acc.pull
        acc.pull = lambda g, x: shapes.append(g.shape if (x != 1).any() else "ones") or pull(g, x)
        backward(tape, gbar, acc)
        grads.append(acc.finalize())
        pulls.append(shapes)
    assert rel_diff(*grads) <= RTOL
    assert pulls[0] == [(r_count * frames, spec.num_vertices)] * (2 * ITERS - 1)
    assert len(pulls[1]) == 2 * ITERS * r_count


@pytest.mark.parametrize("frames", [1, 4])
@pytest.mark.parametrize("r_count", [2, 3])
def test_rebuilt_targets_are_the_shorter_barycenters(spec, r_count, frames):
    """The target the backward pass rebuilds from sweep l - 1 of the tape is
    exactly what an l-sweep barycenter returns, for every l up to ITERS."""
    op = operator(spec)
    rng = np.random.default_rng(10)
    h = rng.uniform(0.05, 1.0, (r_count, spec.num_vertices))
    h /= h.sum(axis=1, keepdims=True)
    lam = weight_rows(frames, r_count, 11)
    _, tape = barycenter(op, h, lam, ITERS, record=True)
    for l in range(1, ITERS + 1):
        assert np.array_equal(_target(tape.lam, tape.ku[l - 1]), barycenter(op, h, lam, l)[0])


@pytest.mark.parametrize("dims", GRIDS, ids=grid_id)
def test_block_clamps_are_the_sum_over_frames(dims):
    """At an epsilon where the kernel underflows, a block call clamps as
    many denominators as its frames do one by one, and warns once."""
    spec = GridSpec(dims)
    op = assemble(spec, np.ones(edge_count(spec)), CLAMP_EPSILON[dims], 1)
    h = corner_diracs(spec)
    lam = np.array([[0.8, 0.2], [0.5, 0.5], [0.1, 0.9]])
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        _, tape = barycenter(op, h, lam, 3, record=True)
        singles = [barycenter(op, h, row, 3, record=True)[1].clamps for row in lam]
    # one warning per call: the block's, then one per frame
    assert len([x for x in rec if issubclass(x.category, DegeneracyWarning)]) == 1 + len(lam)
    assert tape.clamps == sum(singles) and min(singles) > 0


@pytest.mark.parametrize("frames", [1, 4])
def test_tape_holds_only_the_kernel_applications(spec, frames):
    """Per sweep the tape keeps K v_r and K u_r of every input and frame:
    8 iters F N 2R bytes.  The targets, scalings and solve states are
    rebuilt, so this is the same on both paths."""
    op = operator(spec)
    r_count, n = 2, spec.num_vertices
    _, tape = barycenter(op, corner_diracs(spec), weight_rows(frames, r_count, 6), ITERS,
                         record=True)
    sweeps = [tape.kv, tape.ku]
    assert sum(x.nbytes for x in sweeps) == 8 * ITERS * frames * n * 2 * r_count
    arrays = [x for x in vars(tape).values() if isinstance(x, np.ndarray)]
    others = [x for x in arrays if not any(x is y for y in sweeps)]
    # besides them, only the inputs and the weights
    assert sorted(x.shape for x in others) == sorted([(r_count, n), (frames, r_count)])


def test_block_weights_validation():
    spec = GridSpec((3, 3))
    op = assemble(spec, np.ones(edge_count(spec)), EPSILON, 2)
    h = corner_diracs(spec)
    for lam in (np.full((2, 3), 1.0 / 3.0),  # three weights for two inputs
                np.array([[0.5, 0.5], [1.5, -0.5]]),  # a negative entry
                np.array([[0.5, 0.5], [0.6, 0.6]]),  # a row that does not sum to 1
                np.empty((0, 2)),  # no frames
                np.full((1, 2, 2), 0.5)):  # neither one frame nor a block of them
        with pytest.raises(ValueError):
            barycenter(op, h, lam, 3)
