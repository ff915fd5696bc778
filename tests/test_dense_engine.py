"""Equivalence gate: the dense kernel engine against the solve-chain tape path.

On grids of at most ``DENSE_MAX`` vertices, an operator asked for a
gradient accumulator applies K as one dense matrix and gets the weight
gradient of every kernel application from one N x N accumulation.  The
per-column solve path, which the finite-difference tests validate, is forced
by patching ``DENSE_MAX`` to 0 and serves as the reference.
"""

import warnings

import numpy as np
import pytest

from otgrid import diffusion
from otgrid.barycenter import DegeneracyWarning, barycenter, barycenter_backward
from otgrid.diffusion import DiffusionOperator, assemble
from otgrid.grids import GridSpec, edge_count
from otgrid.objective import Objective, Sequence, evaluate_with_grad
from otgrid.synthetic import dirac, gaussian

GRIDS = [(20, 20), (6, 5, 4)]
# smallest round epsilon (S = 1) at which the corner-to-corner kernel
# underflows and the Sinkhorn sweeps clamp denominators
CLAMP_EPSILON = {(20, 20): 1e-12, (6, 5, 4): 1e-30}
RTOL = 1e-13


def rel_diff(x, ref):
    return float(np.abs(x - ref).max() / np.abs(ref).max())


def random_weights(spec, seed):
    return np.exp(np.random.default_rng(seed).normal(0.0, 0.3, edge_count(spec)))


def both_paths(monkeypatch, spec, w, epsilon, substeps):
    """Two operators for ``w``, both asked for an accumulator, so that the
    first forms K where it can; the second is assembled on the solve path."""
    dense = assemble(spec, w, epsilon, substeps)
    with monkeypatch.context() as m:
        m.setattr(diffusion, "DENSE_MAX", 0)
        lu = assemble(spec, w, epsilon, substeps)
    for op in (dense, lu):
        op.gradient_accumulator()
    assert lu.kernel is None
    return dense, lu


def corner_diracs(spec):
    return np.stack([dirac(spec, (0,) * spec.d),
                     dirac(spec, tuple(n - 1 for n in spec.dims))])


def blob_sequence(spec, frames):
    lo = [1.0] * spec.d
    hi = [n - 2.0 for n in spec.dims]
    ts = np.linspace(0.0, 1.0, frames)
    out = np.stack([gaussian(spec, [a + t * (b - a) for a, b in zip(lo, hi)], 1.2)
                    for t in ts])
    return Sequence(out, ts)


# every branch of the doubling over the bits of S: S = 1 walks no bit, 2 and
# 8 only double, 3 ends on an added one, 20 adds one mid-walk and ends on a
# doubling, 21 adds one mid-walk and at the end
SUBSTEPS = [1, 2, 3, 8, 20, 21]
CASES = ([(dims, 1.2e-2, s) for dims in GRIDS for s in SUBSTEPS]
         + [((20, 20), 1e-6, 20)])


def case_id(case):
    dims, epsilon, substeps = case
    tail = "" if epsilon == 1.2e-2 else "-eps%g" % epsilon
    return "%s-S%d%s" % ("x".join(map(str, dims)), substeps, tail)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_dense_engine_matches_lu_tape_path(case, monkeypatch):
    dims, epsilon, substeps = case
    spec = GridSpec(dims)
    n = spec.num_vertices
    assert n <= diffusion.DENSE_MAX
    rng = np.random.default_rng(1)
    w = random_weights(spec, 2)
    dense, lu = both_paths(monkeypatch, spec, w, epsilon, substeps)

    # kernel applications; K is positive, so nonnegative inputs stay so
    assert dense.kernel.min() > 0
    for v in (rng.uniform(0.0, 1.0, n), corner_diracs(spec)[1]):
        kv = dense.apply(v)
        assert kv.min() >= 0
        assert rel_diff(kv, lu.apply(v)) <= RTOL
    g = rng.normal(size=n)
    assert rel_diff(dense.apply(g), lu.apply(g)) <= RTOL

    # one barycenter's weight gradient
    h = rng.uniform(0.05, 1.0, (2, n))
    h /= h.sum(axis=1, keepdims=True)
    lam = np.array([0.35, 0.65])
    b_dense, tape_dense = barycenter(dense, h, lam, 10, record=True)
    b_lu, tape_lu = barycenter(lu, h, lam, 10, record=True)
    assert dense.kernel is not None and lu.kernel is None
    assert rel_diff(b_dense, b_lu) <= RTOL
    grads = []
    for op, tape in ((dense, tape_dense), (lu, tape_lu)):
        acc = op.gradient_accumulator()
        barycenter_backward(tape, g, acc)
        grads.append(acc.finalize())
    assert rel_diff(*grads) <= RTOL

    # a whole evaluation, whose frames share one gradient accumulator
    obj = Objective(spec, (blob_sequence(spec, 4),), epsilon, substeps, 10, lambda_s=0.03)
    wlog = np.random.default_rng(3).normal(0.0, 0.3, edge_count(spec))
    val_dense, grad_dense = evaluate_with_grad(obj, wlog)
    with monkeypatch.context() as m:
        m.setattr(diffusion, "DENSE_MAX", 0)
        val_lu, grad_lu = evaluate_with_grad(obj, wlog)
    assert abs(val_dense - val_lu) <= RTOL * abs(val_lu)
    assert rel_diff(grad_dense, grad_lu) <= RTOL


@pytest.mark.parametrize("dims", GRIDS, ids=lambda d: "x".join(map(str, d)))
def test_pulls_add_up_in_one_accumulator(dims, monkeypatch):
    """Two pulls of a block's rows into one accumulator give the weight
    gradient of one pull of the stacked rows, and the dense one is the
    solve path's: each dense pull adds into A itself, not into a copy."""
    spec = GridSpec(dims)
    n = spec.num_vertices
    dense, lu = both_paths(monkeypatch, spec, random_weights(spec, 2), 1.2e-2, 20)
    rng = np.random.default_rng(5)
    g, x = rng.normal(size=(6, n)), rng.uniform(0.05, 1.0, (6, n))
    grads = []
    for op in (dense, lu):
        split, stacked = op.gradient_accumulator(), op.gradient_accumulator()
        for rows in (slice(0, 2), slice(2, 6)):
            assert np.array_equal(split.pull(g[rows], x[rows]), op.apply(g[rows]))
        stacked.pull(g, x)
        grads += [split.finalize(), stacked.finalize()]
    assert rel_diff(grads[0], grads[1]) <= RTOL
    assert rel_diff(grads[2], grads[3]) <= RTOL
    assert rel_diff(grads[1], grads[3]) <= RTOL


@pytest.mark.parametrize("dims", GRIDS, ids=lambda d: "x".join(map(str, d)))
def test_underflowing_kernel_falls_back_to_the_solves(dims):
    """At an epsilon where the kernel underflows, a dense K would have lost
    the entries that the solves keep (on the 20x20 grid it gave 192 clamps
    against 72 and a NaN gradient), so the guard keeps the operator on the
    solve path, whose sweeps clamp and report it once.

    The clamps cannot be compared against a formed K: every entry of one
    is above the guard's floor of about 1e-289, so K x clears the 1e-300
    divide floor unless x sums to less than 1e-11, and no epsilon (1e-1 to
    1e-40, S = 1 and 3) was found at which K is formed and these sweeps
    clamp."""
    spec = GridSpec(dims)
    op = assemble(spec, random_weights(spec, 4), CLAMP_EPSILON[dims], 1)
    op.gradient_accumulator()
    assert op.kernel is None
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        b, tape = barycenter(op, corner_diracs(spec), np.array([0.4, 0.6]), 3, record=True)
    acc = op.gradient_accumulator()
    barycenter_backward(tape, np.linspace(-1.0, 1.0, spec.num_vertices), acc)
    grad = acc.finalize()
    assert len([x for x in rec if issubclass(x.category, DegeneracyWarning)]) == 1
    assert tape.clamps > 0 and op.kernel is None
    assert np.isfinite(b).all() and np.isfinite(grad).all()


@pytest.mark.parametrize("dims", GRIDS, ids=lambda d: "x".join(map(str, d)))
def test_kernel_is_formed_exactly_where_the_exact_check_passes(dims):
    """Over a sweep of epsilon, K is formed exactly where the check on the
    entries of M^-1, min M^-1 * min(diag M^-1)^(S-1) against the floor,
    passes, and that sweep reaches both outcomes."""
    spec = GridSpec(dims)
    w = random_weights(spec, 4)
    formed = []
    for substeps in (1, 3):
        for epsilon in 10.0 ** -np.arange(1.0, 41.0):
            op = assemble(spec, w, epsilon, substeps)
            op.gradient_accumulator()
            minv = op.solve(np.eye(spec.num_vertices))
            bound = minv.min() * np.diagonal(minv).min() ** (substeps - 1)
            exact = bool(bound >= diffusion._KERNEL_FLOOR)
            assert (op.kernel is not None) == exact, (epsilon, substeps)
            formed.append(exact)
    assert any(formed) and not all(formed)


def test_dense_evaluation_solves_once_per_assembly(monkeypatch):
    """One N-column solve forms M^-1; no kernel application or backward
    pull solves (the solve path makes iters * 2R * 2S per frame)."""
    spec = GridSpec((8, 8))
    obj = Objective(spec, (blob_sequence(spec, 3),), 1.2e-2, 5, 6)
    columns = []
    solve = DiffusionOperator.solve

    def counted(self, b):
        columns.append(1 if b.ndim == 1 else b.shape[1])
        return solve(self, b)

    monkeypatch.setattr(DiffusionOperator, "solve", counted)
    evaluate_with_grad(obj, np.zeros(edge_count(spec)))
    assert columns == [spec.num_vertices]


def test_forward_only_operator_keeps_the_solves(monkeypatch):
    """Without a gradient accumulator no K is formed: a barycenter on a
    grid below ``DENSE_MAX`` runs S single-column solves per kernel
    application (iters * 2R applications)."""
    spec = GridSpec((6, 5))
    op = assemble(spec, random_weights(spec, 5), 1.2e-2, 4)
    columns = []
    solve = DiffusionOperator.solve

    def counted(self, b):
        columns.append(1 if b.ndim == 1 else b.shape[1])
        return solve(self, b)

    monkeypatch.setattr(DiffusionOperator, "solve", counted)
    barycenter(op, corner_diracs(spec), np.array([0.5, 0.5]), 3)
    assert op.kernel is None
    assert columns == [1] * (3 * 2 * 2 * 4)
