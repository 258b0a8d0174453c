import dataclasses
import math

import numpy as np
import pytest

from noma_secrecy.projgrad import (
    Box,
    CappedSimplex,
    ConcaveProblem,
    _newton_direction,
    maximize,
    project,
)

from reference import finite_difference_gradient


class TestProjection:
    def test_box_clamps(self):
        box = Box(lower=np.zeros(2), upper=np.ones(2))
        np.testing.assert_array_equal(project(box, [-0.5, 2.0]), [0.0, 1.0])

    def test_capped_simplex_uniform_shift(self):
        # sum 1.3 over cap 1.0: shift both down by 0.15.
        np.testing.assert_allclose(
            project(CappedSimplex(1.0), [0.5, 0.8]), [0.35, 0.65], rtol=1e-13
        )

    def test_capped_simplex_inactive_cap(self):
        np.testing.assert_array_equal(
            project(CappedSimplex(5.0), [0.5, -0.3, 0.8]), [0.5, 0.0, 0.8]
        )

    @pytest.mark.parametrize("cap", [0.0, 1e-300])
    def test_capped_simplex_cap_below_every_entry(self, cap):
        # The largest entry's support test reads 0 > 0: exactly at cap = 0,
        # by rounding at 1e-300.
        once = project(CappedSimplex(cap), [1.0, 2.0, -1.0])
        assert once.min() >= 0.0 and once.sum() <= cap
        np.testing.assert_array_equal(project(CappedSimplex(cap), once), once)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        sets = [Box(lower=-np.ones(6), upper=np.ones(6)), CappedSimplex(2.5)]
        for s in sets:
            for _ in range(50):
                x = rng.normal(scale=3.0, size=6)
                once = project(s, x)
                np.testing.assert_allclose(project(s, once), once, atol=1e-12)

    def test_projection_is_nearest_point(self):
        # ||x - proj(x)|| <= ||x - y|| for random feasible y.
        rng = np.random.default_rng(3)
        simplex = CappedSimplex(1.0)
        for _ in range(200):
            x = rng.normal(scale=2.0, size=5)
            proj = project(simplex, x)
            assert proj.min() >= -1e-12 and proj.sum() <= 1.0 + 1e-12
            y = rng.dirichlet(np.ones(5)) * rng.uniform(0.0, 1.0)
            assert np.linalg.norm(x - proj) <= np.linalg.norm(x - y) + 1e-12

    def test_simplex_matches_brute_force_small(self):
        # 2-d oracle: dense grid over the feasible triangle.
        rng = np.random.default_rng(4)
        grid = np.linspace(0.0, 1.0, 401)
        pts = np.array(
            [(a, b) for a in grid for b in grid if a + b <= 1.0 + 1e-12]
        )
        for _ in range(10):
            x = rng.normal(scale=1.5, size=2)
            proj = project(CappedSimplex(1.0), x)
            dists = np.linalg.norm(pts - x, axis=1)
            best = pts[dists.argmin()]
            assert np.linalg.norm(x - proj) <= dists.min() + 1e-6
            np.testing.assert_allclose(proj, best, atol=5e-3)

    def test_unknown_set_rejected(self):
        with pytest.raises(TypeError):
            project(object(), np.zeros(2))


def quadratic_problem(center, feasible_set):
    center = np.asarray(center, dtype=float)

    def evaluate(x):
        diff = x - center
        return -float(diff @ diff), -2.0 * diff

    return ConcaveProblem(dim=center.size, evaluate=evaluate, feasible_set=feasible_set)


class TestMaximize:
    def test_interior_quadratic(self):
        center = np.array([0.3, 0.6, 0.1])
        problem = quadratic_problem(center, Box(np.zeros(3), np.ones(3)))
        res = maximize(problem, np.zeros(3), tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.point, center, atol=1e-8)

    def test_log_sum_on_capped_simplex_symmetric_optimum(self):
        # max sum log(1 + x_i) with sum x <= S puts S/dim on every slot;
        # cross-checked against a dense 2-d grid search.
        cap = 2.0

        def evaluate(x):
            return float(np.log1p(x).sum()), 1.0 / (1.0 + x)

        problem = ConcaveProblem(dim=2, evaluate=evaluate, feasible_set=CappedSimplex(cap))
        res = maximize(problem, np.zeros(2), tol=1e-10, max_iter=2000)
        np.testing.assert_allclose(res.point, [cap / 2, cap / 2], atol=1e-6)

        grid = np.linspace(0.0, cap, 301)
        best = -np.inf
        for a in grid:
            b = min(cap - a, cap)
            val = math.log1p(a) + math.log1p(b)
            best = max(best, val)
        assert res.value >= best - 1e-6

    @pytest.mark.parametrize("start", [[0.0, 0.0], [0.3, 0.1], [2.0, 0.0]])
    def test_newton_reaches_the_symmetric_log_sum_optimum_without_fallback(self, start):
        # The same problem with its Hessian -diag(1 / (1 + x)^2). The cap
        # binds at the optimum, so from the corner (2, 0) every Newton
        # step runs on the cap's face.
        cap = 2.0

        def evaluate(x):
            return float(np.log1p(x).sum()), 1.0 / (1.0 + x)

        problem = ConcaveProblem(
            dim=2,
            evaluate=evaluate,
            feasible_set=CappedSimplex(cap),
            hessian=lambda x: -np.diag(1.0 / (1.0 + x) ** 2),
        )
        res = maximize(problem, np.array(start), tol=1e-10, max_iter=2000)
        assert (res.stop, res.fallbacks) == ("stationary", 0)
        np.testing.assert_allclose(res.point, [cap / 2, cap / 2], atol=1e-10)
        assert np.all(np.diff(res.history) >= 0.0)

    def test_already_optimal_start(self):
        center = np.array([0.5, 0.5])
        problem = quadratic_problem(center, Box(np.zeros(2), np.ones(2)))
        res = maximize(problem, center.copy(), tol=1e-9)
        assert res.iterations <= 1
        assert res.value == pytest.approx(0.0, abs=1e-15)

    def test_monotone_ascent_history(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            center = rng.uniform(-2.0, 2.0, 4)
            problem = quadratic_problem(center, CappedSimplex(1.5))
            x0 = project(CappedSimplex(1.5), rng.uniform(0.0, 1.0, 4))
            res = maximize(problem, x0, tol=1e-9)
            diffs = np.diff(res.history)
            assert np.all(diffs >= -1e-12)

    def test_infeasible_start_rejected(self):
        problem = quadratic_problem(np.zeros(2), Box(np.zeros(2), np.ones(2)))
        with pytest.raises(ValueError, match="not feasible"):
            maximize(problem, np.array([2.0, 2.0]))

    def test_non_finite_objective_at_start_rejected(self):
        def evaluate(x):
            return math.nan, np.zeros(2)

        problem = ConcaveProblem(dim=2, evaluate=evaluate, feasible_set=CappedSimplex(1.0))
        with pytest.raises(ValueError, match="non-finite"):
            maximize(problem, np.zeros(2))

    def test_domain_guard_rejected_steps(self):
        # Objective diverges outside x < 0.5 and signals with -inf: the
        # line search must shrink instead of crashing.
        def evaluate(x):
            if x[0] >= 0.5:
                return -math.inf, np.zeros(1)
            return float(np.log(0.5 - x[0]) + 10.0 * x[0]), np.array(
                [-1.0 / (0.5 - x[0]) + 10.0]
            )

        problem = ConcaveProblem(dim=1, evaluate=evaluate, feasible_set=Box([0.0], [1.0]))
        res = maximize(problem, np.zeros(1), tol=1e-10, max_iter=500)
        assert res.point[0] == pytest.approx(0.4, abs=1e-6)


def ill_conditioned_problem(center):
    """-1/2 sum c_i (x_i - center_i)^2 on the unit box, curvatures c_i
    spread log-evenly over 1..1e4."""
    curvatures = np.logspace(0.0, 4.0, 10)

    def evaluate(x):
        diff = x - center
        return -0.5 * float(curvatures @ (diff * diff)), -curvatures * diff

    return ConcaveProblem(dim=10, evaluate=evaluate, feasible_set=Box(np.zeros(10), np.ones(10)))


class TestSpectralStep:
    @pytest.mark.parametrize("start", [0.0, 0.5, 1.0])
    def test_ill_conditioned_box_quadratic_is_solved_before_the_cap(self, start):
        # Four coordinates end on a bound. A trial step carried over from
        # the previous search (times `grow`) stays near 1 / c_max, which
        # runs into the 300-iteration cap from each of these starts.
        center = np.linspace(-0.2, 1.2, 10)
        res = maximize(ill_conditioned_problem(center), np.full(10, start), max_iter=300)
        assert res.stop == "stationary" and res.converged
        assert res.iterations <= 200
        np.testing.assert_allclose(res.point, np.clip(center, 0.0, 1.0), atol=1e-7)
        assert np.all(np.diff(res.history) >= 0.0)

    def test_ill_conditioned_interior_quadratic(self):
        # Optimum inside the box, so all ten curvatures act. The carried-
        # over step needs about 61,000 iterations here; the spectral step
        # about 1,000.
        center = np.linspace(0.1, 0.9, 10)
        res = maximize(ill_conditioned_problem(center), np.full(10, 0.5), max_iter=2000)
        assert res.stop == "stationary"
        assert res.iterations <= 1200
        assert np.all(np.diff(res.history) >= 0.0)

    def test_linear_objective_falls_back_to_the_grown_step(self):
        # A linear objective has y = grad_prev - grad = 0, so s.y = 0 and
        # every trial step is the last accepted one doubled: 2, 4, 8, ...
        weights = np.array([1e-3, 3e-3, 2e-3])

        def evaluate(x):
            return float(weights @ x), weights.copy()

        problem = ConcaveProblem(dim=3, evaluate=evaluate, feasible_set=CappedSimplex(2.0))
        res = maximize(problem, np.zeros(3))
        assert res.stop == "stationary"
        np.testing.assert_allclose(res.point, [0.0, 2.0, 0.0], atol=1e-12)
        assert np.all(np.diff(res.history) >= 0.0)
        # Until the simplex cap binds, the iterate after n steps is
        # (2 + ... + 2^n) w.
        np.testing.assert_allclose(
            res.history[1:3], [2.0 * weights @ weights, 6.0 * weights @ weights], rtol=1e-12
        )


class TestStopReasons:
    def test_cap(self):
        problem = quadratic_problem([0.3, 0.6], Box(np.zeros(2), np.ones(2)))
        res = maximize(problem, np.zeros(2), max_iter=1)
        assert (res.stop, res.converged, res.iterations) == ("cap", False, 1)

    def test_stationary(self):
        problem = quadratic_problem([0.3, 0.6], Box(np.zeros(2), np.ones(2)))
        res = maximize(problem, np.zeros(2), tol=1e-10)
        assert (res.stop, res.converged) == ("stationary", True)
        assert res.stationarity <= 1e-10

    def test_floor(self):
        # A gradient that points uphill but never passes the Armijo test:
        # the objective falls along it, so every trial step is rejected.
        def evaluate(x):
            return -float(x[0]), np.array([1.0])

        problem = ConcaveProblem(dim=1, evaluate=evaluate, feasible_set=Box([0.0], [1.0]))
        res = maximize(problem, np.zeros(1))
        assert (res.stop, res.converged, res.iterations) == ("floor", True, 1)
        assert res.stationarity > 1e-7


class TestNewtonDirection:
    HESS = -np.diag([1.0, 2.0, 4.0])

    @pytest.mark.parametrize("grad_2, d_2", [(-0.4, -0.1), (0.4, 0.4)])
    def test_box_epsilon_active_variables_take_the_gradient_step(self, grad_2, d_2):
        # x_0 sits within eps of its lower bound with the gradient pushing
        # out, so it is epsilon-active. x_2 sits within eps of its upper
        # bound: free (Newton step) while the gradient pushes it in,
        # epsilon-active (gradient step) while it pushes out.
        box = Box(np.zeros(3), np.ones(3))
        x = np.array([1e-4, 0.5, 1.0 - 1e-4])
        grad = np.array([-0.3, 0.2, grad_2])
        d = _newton_direction(box, x, grad, self.HESS, project(box, x + grad), 1e-3)
        np.testing.assert_array_equal(d, [-0.3, 0.1, d_2])

    def test_face_step_lands_on_the_cap_and_zeroes_the_active_variables(self):
        # On the cap, x_0 <= eps and P(x + grad) puts it at 0, so it is
        # active; the free pair solves -H_FF d_F + nu = grad_F with one nu.
        cap = 2.0
        x = np.array([1e-5, 0.7, cap - 0.7 - 1e-5])
        grad = np.array([-1.0, 0.5, 0.4])
        target = project(CappedSimplex(cap), x + grad)
        assert target[0] == 0.0
        d = _newton_direction(CappedSimplex(cap), x, grad, self.HESS, target, 1e-3)
        assert d[0] == -x[0]
        assert (x + d).sum() == pytest.approx(cap, rel=1e-15)
        nu = grad[1:] + self.HESS[1:, 1:] @ d[1:]
        assert nu[0] == pytest.approx(nu[1], rel=1e-14)


class TestNewtonFallback:
    @pytest.mark.parametrize(
        "feasible_set", [Box(np.zeros(3), np.full(3, 2.0)), CappedSimplex(2.0)]
    )
    def test_singular_hessian_takes_the_spectral_step_every_iteration(self, feasible_set):
        # A linear objective has a zero Hessian, so every Newton system is
        # singular and the run is the Hessian-free one, step for step.
        weights = np.array([1e-3, 3e-3, 2e-3])

        def evaluate(x):
            return float(weights @ x), weights.copy()

        plain = ConcaveProblem(dim=3, evaluate=evaluate, feasible_set=feasible_set)
        newton = dataclasses.replace(plain, hessian=lambda x: np.zeros((3, 3)))
        res = maximize(newton, np.zeros(3))
        ref = maximize(plain, np.zeros(3))
        assert res.stop == ref.stop == "stationary"
        assert res.fallbacks == res.iterations == ref.iterations > 0 and ref.fallbacks == 0
        assert res.history == ref.history
        np.testing.assert_array_equal(res.point, ref.point)


class TestFiniteDifference:
    def test_matches_known_gradient(self):
        def f(x):
            return float(np.sin(x[0]) + x[1] ** 3 - 2.0 * x[0] * x[1])

        x = np.array([0.7, -1.2])
        grad = finite_difference_gradient(f, x)
        expected = np.array(
            [math.cos(0.7) - 2.0 * (-1.2), 3.0 * (-1.2) ** 2 - 2.0 * 0.7]
        )
        np.testing.assert_allclose(grad, expected, rtol=1e-8)
