"""Fixed-iteration Sinkhorn loops over a diffusion kernel.

Barycenters and two-marginal transport are the same iterative Bregman
projection and run through one loop.  It makes a fixed number of scaling
sweeps (no convergence stop, so the computation graph is static and
differentiable):

    v_r = 1
    repeat L times:
        u_r = a_r / (K v_r)                    for every input r
        v_r = b / (K u_r)

with one of two v-targets b: the weighted geometric mean
prod_r (K u_r)^{lambda_r} (log space) for a barycenter, or a fixed
histogram for the scalings of the plan diag(u) K diag(v) between a and b.
Every forward kernel application is ``DiffusionOperator.apply``.

The weights lambda are one row of R weights per frame, an (F, R) array.
All frames share the inputs a_r and run through the same sweeps, so u_r
and v_r are (F, N) blocks of (R, F, N) arrays, and each forward kernel
application takes the block of one input and returns K v in the same
shape: 2R applications per sweep, whatever F is.  Displacement
interpolation between two histograms is the R=2 barycenter with weights
(1-t, t), and a sequence's interior frames at times t_i are one call with
rows (1-t_i, t_i); at t = 0 and 1 the barycenter is K a_r, which
``otgrid.objective`` forms in closed form.

A recorded call keeps, per sweep, K v_r and K u_r of every input and
frame: arrays indexed [sweep, input, frame, vertex], 8 L F N 2R bytes.  The
backward pass replays the sweeps in reverse on the (R, F, N) arrays.  It
rebuilds the targets b and the scalings u_r = a_r / (K v_r) and
v_r = b / (K u_r) bit for bit from the tape and pulls each half-sweep back
as one (R F, N) block, through the K u_r and then the K v_r: two
vector-Jacobian products (``pull``) per sweep, which return the input
adjoints K g and add the weight gradient to the caller's accumulator (see
``otgrid.diffusion``).  The tape holds arrays only, no
operator: the caller that asked the operator for the accumulator
finalizes it, once for any number of backward passes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionOperator

DIVIDE_FLOOR = 1e-300


class DegeneracyWarning(RuntimeWarning):
    """A scaling denominator fell below the divide guard."""


def _guard(x, counter):
    tiny = x < DIVIDE_FLOOR
    if np.any(tiny):
        counter[0] += int(tiny.sum())
        return np.maximum(x, DIVIDE_FLOOR)
    return x


def check_distributions(x, name: str) -> np.ndarray:
    """``x`` as float64, at least 2-D; ValueError unless every row is a
    probability vector: finite, nonnegative and summing to 1 within 1e-12.
    ``name`` starts every message."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if not np.isfinite(x).all():
        raise ValueError("%s have non-finite entries" % name)
    if np.any(x < 0):
        raise ValueError("%s must be nonnegative" % name)
    dev = float(np.abs(x.sum(axis=-1) - 1.0).max(initial=0.0))
    if dev > 1e-12:
        raise ValueError("%s must sum to 1 within 1e-12 (max deviation %.3e)" % (name, dev))
    return x


def _check_histograms(op: DiffusionOperator, a, iters: int) -> np.ndarray:
    if iters < 1:
        raise ValueError("iteration count must be >= 1")
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if a.shape[-1] != op.num_vertices:
        raise ValueError("histogram length %d does not match grid size %d"
                         % (a.shape[-1], op.num_vertices))
    return check_distributions(a, "histograms")


@dataclass
class BarycenterTape:
    """Per-sweep record of the Sinkhorn loop, built by ``_sweeps``.

    ``kv`` and ``ku`` are indexed [sweep, input, frame, vertex] and hold the
    guarded kernel applications K v_r and K u_r of the ``inputs`` a_r.  The
    (F, R) weights ``lam`` are what the backward pass needs on top, and stay
    None in a history of two-marginal scalings.  The tape holds no operator:
    the backward pass adds into an accumulator of the operator the tape was
    recorded with.  The targets and scalings are not kept: each sweep's
    v-target b is rebuilt from its K u_r and ``lam``, u_r = a_r / Kv_r and
    v_r = b / Ku_r from them, all bit for bit, and the solve states of an
    application, on the solve path, by its pull.
    """

    kv: np.ndarray
    ku: np.ndarray
    inputs: np.ndarray
    lam: np.ndarray | None = None
    clamps: int = 0


def _target(lam, ku) -> np.ndarray:
    """The barycenter v-targets prod_r (K u_r)^{lambda_r}, (F, N), of the
    (F, R) weights ``lam`` and the (R, F, N) ``ku``, in log space.  Both
    passes build them here: a sum over axis 0 adds the inputs in order, so
    the backward pass rebuilds the forward's targets bit for bit."""
    return np.exp((lam.T[:, :, None] * np.log(ku)).sum(axis=0))


def _sweeps(op: DiffusionOperator, a, iters: int, lam=None, target=None, record=False):
    """Run ``iters`` sweeps from v_r = 1 and return ``(u, v, b, tape)``.

    Every frame runs the same sweeps on the same inputs a: u and v are
    (R, F, N) and b is (F, N), and each kernel application acts on the
    (F, N) block of one input.  The v-target b is ``target`` when given
    (one frame), else the geometric mean of the K u_r weighted by the rows
    of the (F, R) ``lam``.  With ``record`` set, every sweep is written into
    the rows of the returned tape, else ``tape`` is None.  Denominators
    below 1e-300 are clamped and reported once, as a DegeneracyWarning at
    the caller of ``barycenter`` or ``sinkhorn_scalings``.
    """
    r_count, n = a.shape
    frames = 1 if lam is None else len(lam)
    clamps = [0]
    v = np.ones((r_count, frames, n))
    u = np.empty_like(v)
    # one row per sweep on the tape, else one row reused by every sweep
    kvs = np.empty((iters if record else 1, r_count, frames, n))
    kus = np.empty_like(kvs)
    b = target
    for l in range(iters):
        kv, ku = kvs[l % len(kvs)], kus[l % len(kus)]
        # one application per input: perfbench's tracer test
        # (test_tracer_counts_every_caller_and_restores) counts them
        for r in range(r_count):
            kv[r] = _guard(op.apply(v[r]), clamps)
            u[r] = a[r] / kv[r]
            ku[r] = _guard(op.apply(u[r]), clamps)
        if target is None:
            b = _target(lam, ku)
        v = b / ku
    if clamps[0]:
        warnings.warn("Sinkhorn sweeps clamped %d near-zero denominators" % clamps[0],
                      DegeneracyWarning, stacklevel=3)
    tape = None
    if record:
        tape = BarycenterTape(kvs, kus, a, None if lam is None else lam.copy(), clamps[0])
    return u, v, b, tape


def barycenter(op: DiffusionOperator, inputs, lam, iters: int, record: bool = False):
    """Weighted barycenters of ``inputs`` under the kernel of ``op``.

    ``lam`` holds one weight per input, or one row of them per frame: an
    (F, R) ``lam`` gives the F barycenters as an (F, N) array, all from one
    run of the sweeps, and a 1-D ``lam`` one barycenter of shape (N,).
    Returns ``(b, tape)``; ``tape`` is None unless ``record`` is set.
    Exactly ``iters`` sweeps run.  Degenerate denominators are clamped at
    1e-300 and reported once per call as a DegeneracyWarning.

    Rows (1-t, t) of two inputs interpolate between them.  The steps are
    evenly spaced in the McCann sense only where the cost -eps log K of
    ``op`` is quadratic, for transport distances up to about
    t' = eps (n-1)^2 / 4 cells (see ``otgrid.diffusion``); over longer
    paths the steps near the endpoints come out shorter.
    """
    a = _check_histograms(op, inputs, iters)
    lam = np.asarray(lam, dtype=np.float64)
    rows = np.atleast_2d(lam)
    if lam.ndim not in (1, 2) or rows.shape[1] != len(a) or not len(rows):
        raise ValueError("need one weight per input histogram in every frame")
    check_distributions(rows, "barycenter weights")
    _, _, b, tape = _sweeps(op, a, iters, lam=rows, record=record)
    return (b if lam.ndim == 2 else b[0]), tape


def barycenter_backward(tape: BarycenterTape, gbar, acc) -> None:
    """Add the gradient of a scalar loss with respect to the edge weights to ``acc``.

    ``gbar`` is the loss gradient at the barycenter output, shaped as that
    output, and ``acc`` a gradient accumulator of the operator the tape was
    recorded with (``op.gradient_accumulator()``), which the caller
    finalizes once, after any number of backward passes.  The sweeps are
    replayed newest-first on (R, F, N) arrays, with the scalings rebuilt
    from the tape, and each sweep's v-target once, from its K u_r and the
    weights.  Each half-sweep is one ``pull`` on the (R F, N) block of all
    inputs and frames, which gives the input adjoints and adds the weight
    gradient: two pulls per sweep, whatever R is.
    The initial scalings v_r = 1 are constants, so their incoming gradient
    is dropped.
    """
    iters, r_count, frames, n = tape.kv.shape
    gbar = np.asarray(gbar, dtype=np.float64)
    if gbar.size != frames * n:
        raise ValueError("need one gradient entry per barycenter entry")
    gbar = gbar.reshape(frames, n)
    a, lam, kv, ku = tape.inputs[:, None], tape.lam.T[:, :, None], tape.kv, tape.ku
    rows = (r_count * frames, n)
    gv = np.zeros((r_count, frames, n))
    b = _target(tape.lam, ku[-1])
    for l in range(iters - 1, -1, -1):
        gb = (gv / ku[l]).sum(axis=0) + (gbar if l == iters - 1 else 0.0)
        u = a / kv[l]
        v = b / ku[l]
        gq = lam * gb * b / ku[l] - gv * v / ku[l]
        gu = acc.pull(gq.reshape(rows), u.reshape(rows)).reshape(gq.shape)
        gp = -gu * u / kv[l]
        if l:
            # the previous sweep's target, carried into the next step
            b = _target(tape.lam, ku[l - 1])
            v_in = b / ku[l - 1]
        else:
            v_in = np.ones_like(gp)
        gv = acc.pull(gp.reshape(rows), v_in.reshape(rows)).reshape(gp.shape)


def sinkhorn_scalings(op: DiffusionOperator, a, b, iters: int, history: bool = False):
    """Scaling vectors (u, v) of the transport between a and b.

    Runs ``iters`` alternating updates u = a/(Kv), v = b/(K u) from v = 1.
    The implied plan is diag(u) K diag(v); it is never materialized here.
    With ``history`` set, also returns the per-sweep (u, v, Kv, Ku) states.
    Degenerate denominators are clamped at 1e-300 and reported once per
    call as a DegeneracyWarning.
    """
    a = _check_histograms(op, a, iters)
    b = _check_histograms(op, b, iters)
    if len(a) != 1 or len(b) != 1:
        raise ValueError("need one source and one target histogram")
    u, v, _, tape = _sweeps(op, a, iters, target=b[0], record=history)
    if history:
        # the scalings of each sweep, rebuilt from its kernel applications
        states = [{"u": a[0] / tape.kv[l, 0, 0], "v": b[0] / tape.ku[l, 0, 0],
                   "kv": tape.kv[l, 0, 0], "ku": tape.ku[l, 0, 0]} for l in range(iters)]
        return u[0, 0], v[0, 0], states
    return u[0, 0], v[0, 0]
