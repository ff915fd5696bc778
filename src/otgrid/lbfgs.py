"""Limited-memory BFGS with backtracking line search.

Plain two-loop recursion over the (s, y) history from H0 = gamma I, with
gamma = s.y / y.y of the newest pair (1 while none is stored), and Armijo
backtracking.  A pair with s.y <= 1e-12 ||s|| ||y|| clears the history, so
the implicit inverse Hessian stays positive definite.  The checks of the
settings are written so that NaN fails every one of them.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_LINE_SEARCH_FAILED = "line_search_failed"


@dataclass(frozen=True)
class LineSearch:
    """Armijo backtracking; the ``line_search`` block of ``lbfgs`` sets it by name."""

    armijo: float = 1e-4
    shrink: float = 0.5
    max_trials: int = 40  # objective evaluations per line search
    init_step: float = 1.0

    def __post_init__(self):
        if not 0 < self.armijo < 1:
            raise ValueError("armijo must be in (0, 1)")
        if not 0 < self.shrink < 1:
            raise ValueError("shrink must be in (0, 1)")
        if not self.max_trials >= 1:
            raise ValueError("max_trials must be >= 1")
        if not self.init_step > 0:
            raise ValueError("init_step must be > 0")


@dataclass(frozen=True)
class LbfgsOptions:
    """Settings of ``minimize``; a run config's ``lbfgs`` block sets them by name."""

    memory: int = 10
    max_iters: int = 500
    grad_tol: float = 1e-7  # on the max-norm of the gradient
    line_search: LineSearch = field(default_factory=LineSearch)

    def __post_init__(self):
        if not self.memory >= 1:
            raise ValueError("memory must be >= 1")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be > 0")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    value: float
    grad_inf: float
    step: float
    evals: int  # cumulative objective evaluations
    elapsed: float


@dataclass
class MinimizeResult:
    x: np.ndarray
    value: float
    status: str
    history: list = field(default_factory=list)


def _evaluate(f, x, where):
    """f(x) as (value, float64 gradient).  A value of +inf marks a point f
    cannot evaluate, and its gradient is not read; NaN, -inf and a
    non-finite gradient at a finite value are a ValueError naming ``where``."""
    fx, g = f(x)
    g = np.asarray(g, dtype=np.float64)
    if fx != np.inf and not (np.isfinite(fx) and np.isfinite(g).all()):
        raise ValueError("objective returned non-finite value/gradient at %s" % where)
    return fx, g


def minimize(f, x0, opts: LbfgsOptions | None = None, callback=None) -> MinimizeResult:
    """Minimize f: x -> (value, gradient) from x0.

    Every accepted step satisfies the Armijo decrease condition, so the
    recorded values are monotone nonincreasing.  A trial point where f is
    +inf fails that condition, so the step shrinks.  ``callback``, if given,
    is invoked after each accepted iteration with (record, x).
    """
    opts = opts or LbfgsOptions()
    x = np.array(x0, dtype=np.float64, copy=True)
    fx, g = _evaluate(f, x, "the starting point")
    if fx == np.inf:
        raise ValueError("objective is +inf at the starting point")
    evals = 1
    pairs = deque(maxlen=opts.memory)  # (s, y, 1 / s.y), oldest first
    history = []
    status = STATUS_MAX_ITERS
    start = time.perf_counter()

    for it in range(1, opts.max_iters + 1):
        if np.abs(g).max() <= opts.grad_tol:
            status = STATUS_CONVERGED
            break

        # two-loop recursion, newest pair first
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if pairs:
            s, y, _ = pairs[-1]
            q *= (s @ y) / (y @ y)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        d = -q
        gd = g @ d
        if gd >= 0.0:
            # not a descent direction (stale curvature); restart from steepest descent
            pairs.clear()
            d = -g
            gd = g @ d

        step = opts.line_search.init_step
        for _ in range(opts.line_search.max_trials):
            xn = x + step * d
            fn, gn = _evaluate(f, xn, "iteration %d" % it)
            evals += 1
            if fn <= fx + opts.line_search.armijo * step * gd:
                break
            step *= opts.line_search.shrink
        else:
            status = STATUS_LINE_SEARCH_FAILED
            break

        s = xn - x
        y = gn - g
        sy = s @ y
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
        else:
            # curvature test failed: the stored model is no longer
            # trustworthy (Armijo alone cannot guarantee s'y > 0), and
            # keeping it can freeze progress near indefinite regions.
            pairs.clear()
        x, fx, g = xn, fn, gn
        record = IterationRecord(
            iteration=it,
            value=float(fx),
            grad_inf=float(np.abs(g).max()),
            step=float(step),
            evals=evals,
            elapsed=time.perf_counter() - start,
        )
        history.append(record)
        if callback is not None:
            callback(record, x)
    else:
        if np.abs(g).max() <= opts.grad_tol:
            status = STATUS_CONVERGED

    return MinimizeResult(x=x, value=float(fx), status=status, history=history)
