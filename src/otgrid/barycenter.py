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

Displacement interpolation between two histograms is the R=2 barycenter
with weights (1-t, t).  The backward pass replays the recorded sweeps in
reverse, combining the adjoint of each pointwise operation with one
vector-Jacobian product per kernel application: it returns the input
adjoint K g and adds the application's weight gradient to the operator's
gradient accumulator (see ``otgrid.diffusion``).
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


def _check_histograms(op: DiffusionOperator, a, iters: int) -> np.ndarray:
    if iters < 1:
        raise ValueError("iteration count must be >= 1")
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if a.shape[-1] != op.num_vertices:
        raise ValueError("histogram length %d does not match grid size %d"
                         % (a.shape[-1], op.num_vertices))
    if np.any(a < 0):
        raise ValueError("histograms must be nonnegative")
    sums = a.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-12):
        raise ValueError("histograms must sum to 1 (max deviation %.3e)"
                         % float(np.abs(sums - 1.0).max()))
    return a


@dataclass
class BarycenterTape:
    """Per-sweep record of the Sinkhorn loop.

    Arrays are indexed [sweep, input, vertex]; ``states_v`` / ``states_u``
    are indexed [sweep, input, substep, vertex] and hold the recorded solve
    states of the K v_r and K u_r applications.  The scalings u, v, Kv, Ku
    are always recorded; ``op``, ``lam``, the targets ``b`` ([sweep,
    vertex]) and the solve states are what the backward pass needs on top,
    and stay None in a history of two-marginal scalings.  The solve states
    are recorded only for an operator without a dense kernel.
    """

    u: np.ndarray
    v: np.ndarray
    kv: np.ndarray
    ku: np.ndarray
    op: DiffusionOperator | None = None
    lam: np.ndarray | None = None
    b: np.ndarray | None = None
    states_v: np.ndarray | None = None
    states_u: np.ndarray | None = None
    clamps: int = 0


def _sweeps(op: DiffusionOperator, a, iters: int, lam=None, target=None, tape=None):
    """Run ``iters`` sweeps from v_r = 1 and return ``(u, v, b)``.

    The v-target b is ``target`` when given, else the ``lam``-weighted
    geometric mean of the K u_r.  ``tape`` receives every sweep, with the
    solve states when its state arrays are set.  Denominators below 1e-300
    are clamped and reported once, as a DegeneracyWarning at the caller of
    the public function that called this one.
    """
    r_count, n = a.shape
    record = tape is not None and tape.states_v is not None
    clamps = [0]
    v = np.ones((r_count, n))
    u = np.empty((r_count, n))
    kv = np.empty((r_count, n))
    ku = np.empty((r_count, n))
    b = target
    for l in range(iters):
        for r in range(r_count):
            kv_r, sv = op.apply(v[r], record)
            kv[r] = _guard(kv_r, clamps)
            u[r] = a[r] / kv[r]
            ku_r, su = op.apply(u[r], record)
            ku[r] = _guard(ku_r, clamps)
            if record:
                tape.states_v[l, r] = sv
                tape.states_u[l, r] = su
        if target is None:
            logb = np.zeros(n)
            for r in range(r_count):
                logb += lam[r] * np.log(ku[r])
            b = np.exp(logb)
        for r in range(r_count):
            v[r] = b / ku[r]
        if tape is not None:
            tape.u[l] = u
            tape.v[l] = v
            tape.kv[l] = kv
            tape.ku[l] = ku
            if tape.b is not None:
                tape.b[l] = b
    if clamps[0]:
        warnings.warn(
            "Sinkhorn sweeps clamped %d near-zero denominators" % clamps[0],
            DegeneracyWarning,
            stacklevel=3,
        )
    if tape is not None:
        tape.clamps = clamps[0]
    return u, v, b


def barycenter(op: DiffusionOperator, inputs, lam, iters: int, record: bool = False):
    """Weighted barycenter of ``inputs`` under the kernel of ``op``.

    Returns ``(b, tape)``; ``tape`` is None unless ``record`` is set.
    Exactly ``iters`` sweeps run.  Degenerate denominators are clamped at
    1e-300 and reported once per call as a DegeneracyWarning.
    """
    a = _check_histograms(op, inputs, iters)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (a.shape[0],):
        raise ValueError("need one weight per input histogram")
    if np.any(lam < 0) or abs(lam.sum() - 1.0) > 1e-12:
        raise ValueError("barycenter weights must be a probability vector")
    r_count, n = a.shape
    tape = None
    if record:
        states = (iters, r_count, op.substeps, n)
        tape = BarycenterTape(
            *(np.empty((iters, r_count, n)) for _ in range(4)),
            op=op,
            lam=lam.copy(),
            b=np.empty((iters, n)),
        )
        if op.kernel is None:
            tape.states_v, tape.states_u = np.empty(states), np.empty(states)
    _, _, b = _sweeps(op, a, iters, lam=lam, tape=tape)
    return b, tape


def barycenter_backward(tape: BarycenterTape, gbar, accumulator=None):
    """Gradient of a scalar loss with respect to the edge weights.

    ``gbar`` is the loss gradient at the barycenter output.  The sweeps are
    replayed newest-first; one ``pull`` per kernel application gives its
    input adjoint and adds its weight gradient, and the initial scalings
    v_r = 1 are constants, so their incoming gradient is dropped.  Returns
    the gradient, or adds it to ``accumulator`` (from
    ``op.gradient_accumulator()``, shared by many barycenters and finalized
    by the caller) and returns None.
    """
    gbar = np.asarray(gbar, dtype=np.float64)
    iters, r_count, n = tape.u.shape
    op = tape.op
    if n != op.num_vertices:
        raise ValueError("tape does not match the operator it was recorded with")
    acc = op.gradient_accumulator() if accumulator is None else accumulator
    ones = np.ones(n)
    gv = np.zeros((r_count, n))
    for l in range(iters - 1, -1, -1):
        gb = gbar.copy() if l == iters - 1 else np.zeros(n)
        for r in range(r_count):
            gb += gv[r] / tape.ku[l, r]
        for r in range(r_count):
            ku = tape.ku[l, r]
            gq = tape.lam[r] * gb * tape.b[l] / ku - gv[r] * tape.v[l, r] / ku
            gu = acc.pull(gq, tape.u[l, r], _states(tape.states_u, l, r))
            gp = -gu * tape.u[l, r] / tape.kv[l, r]
            v_in = tape.v[l - 1, r] if l else ones
            gv[r] = acc.pull(gp, v_in, _states(tape.states_v, l, r))
    acc.flush()
    return acc.finalize() if accumulator is None else None


def _states(states, l, r):
    return None if states is None else states[l, r]


def interpolate(op: DiffusionOperator, r0, r1, t: float, iters: int) -> np.ndarray:
    """Displacement interpolation between r0 and r1 at time t in [0, 1].

    This is the entropic barycenter with weights (1-t, t) under the cost
    -eps log K of ``op``.  Its steps are evenly spaced in the McCann sense
    only where that cost is quadratic, i.e. for transport distances up to
    about t' = eps (n-1)^2 / 4 cells (see ``otgrid.diffusion``); over longer
    paths the steps near the endpoints come out shorter.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("interpolation time must lie in [0, 1]")
    b, _ = barycenter(op, np.stack([np.asarray(r0), np.asarray(r1)]),
                      np.array([1.0 - t, t]), iters)
    return b


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
    tape = None
    if history:
        tape = BarycenterTape(*(np.empty((iters, 1, op.num_vertices)) for _ in range(4)))
    u, v, _ = _sweeps(op, a, iters, target=b[0], tape=tape)
    if history:
        states = [{"u": tape.u[l, 0], "v": tape.v[l, 0], "kv": tape.kv[l, 0],
                   "ku": tape.ku[l, 0]} for l in range(iters)]
        return u[0], v[0], states
    return u[0], v[0]
