"""Fixed-iteration Sinkhorn barycenters over a diffusion kernel.

The forward pass runs a fixed number of scaling sweeps (no convergence
stop, so the computation graph is static and differentiable):

    v_r = 1
    repeat L times:
        u_r = a_r / (K v_r)                    for every input r
        b   = prod_r (K u_r)^{lambda_r}        (geometric mean, log space)
        v_r = b / (K u_r)

Displacement interpolation between two histograms is the R=2 case with
weights (1-t, t).  The backward pass replays the recorded sweeps in
reverse, combining the adjoint of each pointwise operation with one
vector-Jacobian product per kernel application, which yields the input
and the weight gradient from a single chain of S solves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionOperator
from .grids import edge_count

DIVIDE_FLOOR = 1e-300


class DegeneracyWarning(RuntimeWarning):
    """A scaling denominator fell below the divide guard."""


def _guard(x, counter):
    tiny = x < DIVIDE_FLOOR
    if np.any(tiny):
        counter[0] += int(tiny.sum())
        return np.maximum(x, DIVIDE_FLOOR)
    return x


def _check_histograms(a):
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if np.any(a < 0):
        raise ValueError("histograms must be nonnegative")
    sums = a.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-12):
        raise ValueError("histograms must sum to 1 (max deviation %.3e)"
                         % float(np.abs(sums - 1.0).max()))
    return a


@dataclass
class BarycenterTape:
    """Everything the backward pass needs, recorded per sweep.

    Arrays are indexed [sweep, input, vertex]; ``states_v`` / ``states_u``
    are indexed [sweep, input, substep, vertex] and hold the recorded solve
    states of the K v_r and K u_r applications.
    """

    op: DiffusionOperator
    lam: np.ndarray
    u: np.ndarray
    v: np.ndarray
    kv: np.ndarray
    ku: np.ndarray
    b: np.ndarray
    states_v: np.ndarray
    states_u: np.ndarray
    clamps: int


def barycenter(op: DiffusionOperator, inputs, lam, iters: int, record: bool = False):
    """Weighted barycenter of ``inputs`` under the kernel of ``op``.

    Returns ``(b, tape)``; ``tape`` is None unless ``record`` is set.
    Exactly ``iters`` sweeps run.  Degenerate denominators are clamped at
    1e-300 and reported once per call as a DegeneracyWarning.
    """
    a = _check_histograms(inputs)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (a.shape[0],):
        raise ValueError("need one weight per input histogram")
    if np.any(lam < 0) or abs(lam.sum() - 1.0) > 1e-12:
        raise ValueError("barycenter weights must be a probability vector")
    if iters < 1:
        raise ValueError("iteration count must be >= 1")
    r_count, n = a.shape
    if n != op.num_vertices:
        raise ValueError("histogram length %d does not match grid size %d"
                         % (n, op.num_vertices))

    clamps = [0]
    v = np.ones((r_count, n))
    if record:
        tape = BarycenterTape(
            op=op,
            lam=lam.copy(),
            u=np.empty((iters, r_count, n)),
            v=np.empty((iters, r_count, n)),
            kv=np.empty((iters, r_count, n)),
            ku=np.empty((iters, r_count, n)),
            b=np.empty((iters, n)),
            states_v=np.empty((iters, r_count, op.substeps, n)),
            states_u=np.empty((iters, r_count, op.substeps, n)),
            clamps=0,
        )
    u = np.empty((r_count, n))
    ku = np.empty((r_count, n))
    b = None
    for l in range(iters):
        for r in range(r_count):
            kv_r, sv = op.apply(v[r], record)
            kv_r = _guard(kv_r, clamps)
            u[r] = a[r] / kv_r
            ku_r, su = op.apply(u[r], record)
            ku[r] = _guard(ku_r, clamps)
            if record:
                tape.kv[l, r] = kv_r
                tape.states_v[l, r] = sv
                tape.states_u[l, r] = su
        logb = np.zeros(n)
        for r in range(r_count):
            logb += lam[r] * np.log(ku[r])
        b = np.exp(logb)
        for r in range(r_count):
            v[r] = b / ku[r]
        if record:
            tape.u[l] = u
            tape.ku[l] = ku
            tape.b[l] = b
            tape.v[l] = v
    if clamps[0]:
        warnings.warn(
            "barycenter clamped %d near-zero denominators" % clamps[0],
            DegeneracyWarning,
            stacklevel=2,
        )
    if record:
        tape.clamps = clamps[0]
        return b, tape
    return b, None


def barycenter_backward(tape: BarycenterTape, gbar) -> np.ndarray:
    """Gradient of a scalar loss with respect to the edge weights.

    ``gbar`` is the loss gradient at the barycenter output.  The sweeps are
    replayed newest-first; one ``adjoint_weights`` call per kernel
    application gives both its input and its weight adjoint, and the
    initial scalings v_r = 1 are constants, so their incoming gradient is
    dropped.
    """
    gbar = np.asarray(gbar, dtype=np.float64)
    iters, r_count, n = tape.u.shape
    op = tape.op
    if n != op.num_vertices:
        raise ValueError("tape does not match the operator it was recorded with")
    gv = np.zeros((r_count, n))
    dw = np.zeros(edge_count(op.spec))
    for l in range(iters - 1, -1, -1):
        gb = gbar.copy() if l == iters - 1 else np.zeros(n)
        for r in range(r_count):
            gb += gv[r] / tape.ku[l, r]
        for r in range(r_count):
            ku = tape.ku[l, r]
            gq = tape.lam[r] * gb * tape.b[l] / ku - gv[r] * tape.v[l, r] / ku
            gu, dwq = op.adjoint_weights(tape.states_u[l, r], gq)
            dw += dwq
            gp = -gu * tape.u[l, r] / tape.kv[l, r]
            gv[r], dwp = op.adjoint_weights(tape.states_v[l, r], gp)
            dw += dwp
    return dw


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
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    clamps = [0]
    v = np.ones_like(b)
    states = [] if history else None
    u = None
    for _ in range(iters):
        kv = _guard(op.apply(v)[0], clamps)
        u = a / kv
        ku = _guard(op.apply(u)[0], clamps)
        v = b / ku
        if history:
            states.append({"u": u.copy(), "v": v.copy(), "kv": kv, "ku": ku})
    if clamps[0]:
        warnings.warn(
            "scalings clamped %d near-zero denominators" % clamps[0],
            DegeneracyWarning,
            stacklevel=2,
        )
    if history:
        return u, v, states
    return u, v


def ot_value_history(op: DiffusionOperator, a, b, iters: int) -> np.ndarray:
    """Regularized transport value after each scaling sweep (diagnostic).

    Builds the dense kernel and cost (small grids only) and records
    <C, P> - eps * H(P) for the current plan P = diag(u) K diag(v), with
    entropy H(P) = -sum P (log P - 1) and the 0 log 0 = 0 convention.
    """
    kd = op.dense_kernel()
    with np.errstate(divide="ignore"):
        cost = -op.epsilon * np.log(kd)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    clamps = [0]
    v = np.ones_like(b)
    values = np.empty(iters)
    for l in range(iters):
        u = a / _guard(kd @ v, clamps)
        v = b / _guard(kd.T @ u, clamps)
        plan = u[:, None] * kd * v[None, :]
        pos = plan > 0
        transport = float(np.sum(cost[pos] * plan[pos]))
        entropy = -float(np.sum(plan[pos] * (np.log(plan[pos]) - 1.0)))
        values[l] = transport - op.epsilon * entropy
    return values


def regularized_ot_value(op: DiffusionOperator, a, b, iters: int) -> float:
    """Entropy-regularized transport value after ``iters`` sweeps (diagnostic)."""
    return float(ot_value_history(op, a, b, iters)[-1])
