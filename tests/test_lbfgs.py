import numpy as np
import pytest

from otgrid.lbfgs import (
    LbfgsOptions,
    STATUS_CONVERGED,
    STATUS_LINE_SEARCH_FAILED,
    STATUS_MAX_ITERS,
    minimize,
)


def quadratic(x):
    return 0.5 * float(x @ x), x.copy()


def rosenbrock(x):
    a, b = x
    f = (1 - a) ** 2 + 100.0 * (b - a * a) ** 2
    g = np.array([-2 * (1 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])
    return f, g


def test_quadratic_converges_in_one_step():
    res = minimize(quadratic, np.array([3.0, -4.0, 1.5]))
    assert res.status == STATUS_CONVERGED
    assert len(res.history) == 1
    np.testing.assert_allclose(res.x, 0.0, atol=1e-12)


def test_rosenbrock_within_budget():
    res = minimize(rosenbrock, np.array([-1.2, 1.0]),
                   LbfgsOptions(max_iters=200, grad_tol=1e-9))
    assert res.status == STATUS_CONVERGED
    assert len(res.history) <= 200
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)


def test_rosenbrock_accepted_values_monotone():
    res = minimize(rosenbrock, np.array([-1.2, 1.0]),
                   LbfgsOptions(max_iters=200, grad_tol=1e-9))
    vals = [rec.value for rec in res.history]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_one_dimensional_problem():
    res = minimize(lambda x: (float((x[0] - 3.0) ** 2), np.array([2 * (x[0] - 3.0)])),
                   np.array([-10.0]))
    assert res.status == STATUS_CONVERGED
    assert res.x[0] == pytest.approx(3.0, abs=1e-7)


def test_memory_zero_is_rejected():
    with pytest.raises(ValueError, match="memory must be >= 1"):
        LbfgsOptions(memory=0)


def test_starting_at_optimum_returns_immediately():
    res = minimize(quadratic, np.zeros(4))
    assert res.status == STATUS_CONVERGED
    assert res.history == []
    assert res.value == 0.0


def test_max_iters_status():
    res = minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsOptions(max_iters=3))
    assert res.status == STATUS_MAX_ITERS
    assert len(res.history) == 3


def test_line_search_failure_status():
    # gradient so steep that even 40 halvings of the unit step overshoot
    def cliff(x):
        return 1e30 * float(x @ x), 2e30 * x

    res = minimize(cliff, np.array([1.0]))
    assert res.status == STATUS_LINE_SEARCH_FAILED


def test_non_finite_objective_raises():
    def bad(x):
        return np.nan, np.zeros_like(x)

    with pytest.raises(ValueError):
        minimize(bad, np.ones(2))


def test_non_finite_gradient_mid_run_raises():
    calls = []

    def flaky(x):
        calls.append(1)
        if len(calls) > 4:
            return 1.0, np.array([np.inf, 0.0])
        return rosenbrock(x)

    with pytest.raises(ValueError):
        minimize(flaky, np.array([-1.2, 1.0]), LbfgsOptions(max_iters=50))


def test_callback_sees_every_accepted_iteration():
    seen = []

    def cb(rec, x):
        seen.append((rec.iteration, rec.value, x.copy()))

    res = minimize(rosenbrock, np.array([-1.2, 1.0]),
                   LbfgsOptions(max_iters=50, grad_tol=1e-9), callback=cb)
    assert len(seen) == len(res.history)
    assert [i for i, _, _ in seen] == list(range(1, len(seen) + 1))
    f_last, _ = rosenbrock(seen[-1][2])
    assert f_last == pytest.approx(seen[-1][1])


def test_history_records_are_complete():
    res = minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsOptions(max_iters=5))
    for k, rec in enumerate(res.history, start=1):
        assert rec.iteration == k
        assert rec.step > 0
        assert rec.grad_inf >= 0
        assert rec.elapsed >= 0
    evals = [rec.evals for rec in res.history]
    assert all(b >= a for a, b in zip(evals, evals[1:]))
    assert evals[0] >= 2  # initial evaluation plus at least one trial


def test_result_value_matches_x():
    res = minimize(rosenbrock, np.array([-1.2, 1.0]),
                   LbfgsOptions(max_iters=200, grad_tol=1e-9))
    f, _ = rosenbrock(res.x)
    assert res.value == pytest.approx(f, rel=1e-12)


def test_high_dimensional_convex_problem():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(30, 30))
    H = A @ A.T + 30 * np.eye(30)
    b = rng.normal(size=30)

    def fun(x):
        return 0.5 * float(x @ (H @ x)) - float(b @ x), H @ x - b

    res = minimize(fun, np.zeros(30), LbfgsOptions(max_iters=400, grad_tol=1e-8))
    assert res.status == STATUS_CONVERGED
    np.testing.assert_allclose(res.x, np.linalg.solve(H, b), atol=1e-5)


def textbook_lbfgs(f, x, memory, max_iters, grad_tol, armijo=1e-4, shrink=0.5):
    """L-BFGS as Nocedal & Wright write it (Numerical Optimization, Alg. 7.4
    with H0 = gamma I, gamma = s.y / y.y of the newest pair, eq. 7.20), with
    Armijo backtracking from the unit step.  A pair that fails the curvature
    test is skipped and clears the history; a direction that is not a descent
    direction is replaced by -g with an empty history.  Returns the accepted
    iterates and the number of clears."""
    fx, g = f(x)
    S, Y = [], []
    iterates, clears = [], 0
    for _ in range(max_iters):
        if np.abs(g).max() <= grad_tol:
            break
        q = g.copy()
        alphas = []
        for s, y in zip(reversed(S), reversed(Y)):
            alphas.append(1.0 / (y @ s) * (s @ q))
            q = q - alphas[-1] * y
        r = q * ((S[-1] @ Y[-1]) / (Y[-1] @ Y[-1])) if S else q
        for s, y, alpha in zip(S, Y, reversed(alphas)):
            beta = 1.0 / (y @ s) * (y @ r)
            r = r + (alpha - beta) * s
        d = -r
        if g @ d >= 0:
            S, Y = [], []
            d = -g
        t = 1.0
        while True:
            xn = x + t * d
            fn, gn = f(xn)
            if fn <= fx + armijo * t * (g @ d):
                break
            t *= shrink
        s, y = xn - x, gn - g
        if s @ y > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            S, Y = (S + [s])[-memory:], (Y + [y])[-memory:]
        else:
            S, Y = [], []
            clears += 1
        x, fx, g = xn, fn, gn
        iterates.append(x)
    return iterates, clears


def test_iterates_match_the_textbook_two_loop_recursion():
    """memory=2 on Rosenbrock from (-1.2, 1): a negative-curvature step
    clears the history once on the way, and the newest pair alone sets gamma."""
    x0 = np.array([-1.2, 1.0])
    want, clears = textbook_lbfgs(rosenbrock, x0, memory=2, max_iters=200, grad_tol=1e-9)
    assert clears >= 1

    got = []
    res = minimize(rosenbrock, x0, LbfgsOptions(memory=2, max_iters=200, grad_tol=1e-9),
                   callback=lambda rec, x: got.append(x.copy()))
    assert res.status == STATUS_CONVERGED
    assert len(got) == len(want)
    np.testing.assert_allclose(np.array(got), np.array(want), rtol=1e-12, atol=0)
