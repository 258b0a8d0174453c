"""Projected Newton / projected-gradient maximizer for smooth concave
objectives.

Covers the two feasible sets the power-allocation solvers need: a box
(per-user uplink caps) and a nonnegative capped-sum set (total downlink
budget). Problem dimensions are tens at most and every objective is a
sum of logs of affine forms with cheap exact gradients and Hessians, so
a monotone method with backtracking is simpler and more predictable
than an interior-point solver.

When the problem supplies a Hessian oracle, each iteration first tries
a projected Newton step on the variables that are not held at a bound.
On the box this is Bertsekas' method (SIAM J. Control Optim., 1982):
a variable within epsilon of a bound whose gradient pushes it outward
takes the plain gradient step, and the free variables take the Newton
step of their block of the Hessian. On the capped nonnegative set with
a binding cap, the free variables take the Newton step of the cap's
face (an equality-constrained step, solved with the face's multiplier
in one KKT system), in the spirit of Gafni & Bertsekas (SIAM J. Control
Optim., 1984); the variables at zero that the projected gradient also
puts at zero move to zero. The step is searched along the projection
arc P(x + alpha d) with the same Armijo test as the gradient step. A
singular system, a non-finite direction or a failed arc search counts
one fallback, and the iteration then takes the spectral gradient step.

The gradient step starts its line search from the spectral step of
Barzilai & Borwein (IMA J. Numer. Anal., 1988) and keeps the monotone
Armijo acceptance, as in the spectral projected gradient of Birgin,
Martinez & Raydan (SIAM J. Optim., 2000). The spectral step adapts to
the curvature along the last step, so ill-conditioned surrogates
(curvatures spread over orders of magnitude) need far fewer iterations
than a step carried over from the previous search. Problems without a
Hessian take only this step. Every result says how the iteration
stopped: at a stationary point, at the backtracking floor, or at the
cap, and how many Newton trials fell back.

Objectives may return -inf to flag an out-of-domain point (e.g. a log
argument below its guard); the line search treats that as a rejected
step. Non-finite values at an accepted point are an error.

The problems have a few to a few tens of variables, so an iteration's
cost is call overhead, each numpy call costing microseconds on a vector
of a handful of floats. The epsilon-active sets and the finiteness
checks are therefore decided on Python floats (`tolist()`), with the
comparisons numpy would make element by element, and the Newton systems
go to numpy's LAPACK gufunc without `np.linalg.solve`'s wrapper
(`_solve`). The floats are the same as with numpy masks and
`np.linalg.solve`, bit for bit; the tests keep the mask rule and
`np.isfinite` as the references. This choice pays only while problems
stay that small: at hundreds of variables the Python loops would cost
more than the numpy calls they replace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "Box",
    "CappedSimplex",
    "ConcaveProblem",
    "SolveResult",
    "project",
    "maximize",
]

# Line-search constants of `maximize`: the first trial step, the backtracking
# factor, the Armijo sufficient-ascent fraction and the growth of the
# fallback step.
_STEP0 = 1.0
_SHRINK = 0.5
_ARMIJO = 1e-4
_GROW = 2.0
# Projected Newton: the largest epsilon of the epsilon-active set (it is
# min(_EPS0, stationarity residual)) and the most halvings of the arc search.
_EPS0 = 1e-3
_NEWTON_HALVINGS = 12


@dataclass(frozen=True)
class Box:
    """{x : lower <= x <= upper}, bounds broadcastable to the dimension."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))


@dataclass(frozen=True)
class CappedSimplex:
    """{x : x >= 0, sum(x) <= cap}."""

    cap: float


def _project_capped_simplex(x: np.ndarray, cap: float) -> np.ndarray:
    clipped = np.maximum(x, 0.0)
    if np.add.reduce(clipped) <= cap:
        return clipped
    # Cap active: Euclidean projection onto {z >= 0, sum(z) = cap} via the
    # sort-based water-filling rule z = max(x - theta, 0), on Python
    # floats. theta = excess_r / r for the largest r with
    # u_r - excess_r / r > 0, where u is x sorted descending and excess_r
    # its r-th running sum minus cap. The largest entry is always in the
    # support (its test fails at cap = 0 or below its ulp).
    u = sorted(x.tolist(), reverse=True)
    run = u[0]
    theta = run - cap
    for r in range(2, len(u) + 1):
        run += u[r - 1]
        excess = run - cap
        if u[r - 1] - excess / r > 0.0:
            theta = excess / r
    return np.maximum(x - theta, 0.0)


def project(feasible_set, x) -> np.ndarray:
    """Euclidean projection of x onto the feasible set (idempotent)."""
    x = np.asarray(x, dtype=float)
    if isinstance(feasible_set, Box):
        # np.clip's definition, without its wrapper's dispatch.
        return np.minimum(np.maximum(x, feasible_set.lower), feasible_set.upper)
    if isinstance(feasible_set, CappedSimplex):
        return _project_capped_simplex(x, feasible_set.cap)
    raise TypeError("unsupported feasible set: %r" % (feasible_set,))


@dataclass(frozen=True)
class ConcaveProblem:
    """Value/gradient oracle plus its feasible set.

    `evaluate` maps a point to (objective value, gradient vector); the
    caller guarantees concavity and differentiability on the set. The
    optional `hessian` maps a point to the objective's Hessian; when it
    is given, `maximize` tries projected Newton steps.
    """

    dim: int
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray]]
    feasible_set: object
    hessian: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass
class SolveResult:
    """Outcome of `maximize`.

    `stop` says why the iteration ended: "stationary" (the residual fell
    to tol), "floor" (no step above the backtracking floor ascended) or
    "cap" (max_iter iterations ran). `fallbacks` counts the iterations
    whose projected Newton trial failed and took the gradient step.
    """

    point: np.ndarray
    value: float
    stationarity: float
    iterations: int
    stop: str
    history: list[float] = field(default_factory=list)
    fallbacks: int = 0

    @property
    def converged(self) -> bool:
        """The kernel did not hit its iteration cap (a floor stop counts
        as converged)."""
        return self.stop != "cap"


def maximize(
    problem: ConcaveProblem,
    x0,
    tol: float = 1e-7,
    max_iter: int = 500,
) -> SolveResult:
    """Projected Newton / projected-gradient ascent with Armijo
    backtracking.

    With `problem.hessian` given, each iteration first tries a projected
    Newton step (see `_newton_direction` for the epsilon-active and face
    rules, with epsilon = min(`_EPS0`, residual)). Its arc search tries
    P(x + alpha d) from alpha = 1, halving up to `_NEWTON_HALVINGS`
    times, and accepts the first point with a positive ascent estimate
    g.(x(alpha) - x) that passes the Armijo test below. When the system is
    singular, d is not finite or no trial passes, the iteration counts a
    fallback and takes the gradient step. The first evaluation is at a
    copy of x0. The Hessian is always asked for at the current iterate,
    and that is the array `problem.evaluate` was given last (x0 copied,
    or the accepted trial point): an oracle may reuse what it computed
    for that array when it gets the same object back, as the DC
    surrogates reuse their log arguments.

    The gradient step's line search starts from the spectral
    (Barzilai-Borwein) step ||s||^2 / s.y, with s = x - x_prev and
    y = grad_prev - grad over the last accepted step. s.y >= 0 on a
    concave objective, and the step is the inverse of its mean curvature
    along s. On the first iteration, and whenever s.y <= 0 (a linear
    objective, for one), it falls back to the last accepted gradient step
    times `_GROW`, starting from `_STEP0`. Trial steps are capped at 1e12
    and shrunk (times `_SHRINK`) until the Armijo test (fraction
    `_ARMIJO`) passes, so the objective sequence is nondecreasing.

    Iteration stops once the unit-step projected-gradient residual
    ||x - P(x + grad)|| falls to tol ("stationary"), when no gradient
    trial step above 1e-18 ascends ("floor"), or after max_iter
    iterations ("cap"); `SolveResult.stop` holds which.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.size != problem.dim:
        raise ValueError("x0 has dimension %d, expected %d" % (x.size, problem.dim))
    if _norm(x - project(problem.feasible_set, x)) > 1e-9:
        raise ValueError("x0 is not feasible: %r" % (x,))

    value, grad = problem.evaluate(x)
    if not math.isfinite(value) or not _all_finite(grad):
        raise ValueError("non-finite objective or gradient at x0 = %r" % (x,))

    history = [value]
    step = _STEP0
    previous = None  # (point, gradient) before the last accepted step
    iterations = 0
    fallbacks = 0
    stationarity = np.inf
    stop = "cap"
    for iterations in range(1, max_iter + 1):
        target = project(problem.feasible_set, x + grad)
        stationarity = _norm(x - target)
        if stationarity <= tol:
            stop = "stationary"
            iterations -= 1
            break

        accepted = None
        if problem.hessian is not None:
            accepted = _newton_step(problem, x, value, grad, target, min(_EPS0, stationarity))
            if accepted is None:
                fallbacks += 1
        if accepted is None:
            alpha = step * _GROW
            if previous is not None:
                s = x - previous[0]
                sy = float(s @ (previous[1] - grad))
                if sy > 0.0:
                    alpha = float(s @ s) / sy
            accepted = _arc_search(problem, x, value, grad, grad, min(alpha, 1e12), 1e-18)
            if accepted is None:
                # No ascent direction survives the backtracking floor:
                # treat the current point as stationary.
                stop = "floor"
                break
            step = accepted[3]
        previous = (x, grad)
        x, value, grad = accepted[:3]
        history.append(value)

    return SolveResult(
        point=x,
        value=value,
        stationarity=stationarity,
        iterations=iterations,
        stop=stop,
        history=history,
        fallbacks=fallbacks,
    )


def _arc_search(problem, x, value, grad, direction, alpha, floor):
    """Backtrack along the projection arc P(x + alpha direction), halving
    alpha while it is above floor, to the first point with a positive
    ascent estimate gain = grad.(x(alpha) - x) that passes the Armijo
    test f(x(alpha)) >= f(x) + _ARMIJO gain. Returns (point, value,
    gradient, alpha), or None when no trial passes. The Newton search's
    first trial skips the product 1.0 * direction, which is direction
    bit for bit."""
    while alpha > floor:
        step = direction if alpha == 1.0 else alpha * direction
        candidate = project(problem.feasible_set, x + step)
        gain = float(grad @ (candidate - x))
        if gain > 0.0:
            cand_value, cand_grad = problem.evaluate(candidate)
            if math.isfinite(cand_value) and cand_value >= value + _ARMIJO * gain:
                if not _all_finite(cand_grad):
                    raise ValueError(
                        "non-finite gradient at accepted point %r" % (candidate,)
                    )
                return candidate, float(cand_value), cand_grad, alpha
        alpha *= _SHRINK
    return None


def _newton_step(problem, x, value, grad, target, eps):
    """The arc search of the projected Newton direction from alpha = 1,
    or None when the direction is singular or not finite or the search
    fails."""
    try:
        direction = _newton_direction(
            problem.feasible_set, x, grad, problem.hessian(x), target, eps
        )
    except np.linalg.LinAlgError:
        return None
    if not _all_finite(direction):
        return None
    return _arc_search(
        problem, x, value, grad, direction, 1.0, _SHRINK ** (_NEWTON_HALVINGS + 1)
    )


def _newton_direction(feasible_set, x, grad, hess, target, eps):
    """The projected Newton direction at x; a singular system raises
    LinAlgError.

    target = P(x + grad). On the box, and on the capped set while its sum
    is more than eps below the cap or target leaves the cap slack, a
    variable within eps of a bound with the gradient pushing outward is
    epsilon-active and takes d_i = grad_i; the free variables F take
    d_F = solve(-H_FF, grad_F). With the cap binding, the variables with
    x_i <= eps that target puts at zero take d_i = -x_i, and the free
    ones solve the face's KKT system

        [-H_FF 1; 1' 0] [d_F; nu] = [grad_F; slack + sum x_A],

    so x + d sums to the cap; nu estimates the water-filling threshold
    of target, which is the cap's multiplier at a KKT point.

    The active sets are decided on Python floats (see the module
    docstring); each comparison is the one numpy would make element by
    element, so the sets, and the direction's bits, are the same.
    """
    xs = x.tolist()
    if isinstance(feasible_set, CappedSimplex):
        cap = feasible_set.cap
        slack = cap - float(np.add.reduce(x))
        if slack <= eps and np.add.reduce(np.maximum(x + grad, 0.0)) > cap:
            free, zero = [], []
            for i, (xi, ti) in enumerate(zip(xs, target.tolist())):
                (zero if xi <= eps and ti == 0.0 else free).append(i)
            rhs = np.empty(len(free) + 1)
            rhs[:-1] = grad.take(free)
            rhs[-1] = slack + float(np.add.reduce(x.take(zero)))
            kkt = np.ones((rhs.size, rhs.size))
            kkt[:-1, :-1] = -_block(hess, free)
            kkt[-1, -1] = 0.0
            direction = -x
            direction.put(free, _solve(kkt, rhs)[:-1])
            return direction
        lower, upper = [0.0] * x.size, [math.inf] * x.size
    else:
        lower = _entries(feasible_set.lower, x)
        upper = _entries(feasible_set.upper, x)
    free = [
        i
        for i, (xi, gi, lo, up) in enumerate(zip(xs, grad.tolist(), lower, upper))
        if not ((xi <= lo + eps and gi < 0.0) or (xi >= up - eps and gi > 0.0))
    ]
    if len(free) == x.size:
        return _solve(-hess, grad)
    direction = grad.copy()
    if free:
        direction.put(free, _solve(-_block(hess, free), grad.take(free)))
    return direction


def _entries(bound: np.ndarray, x: np.ndarray) -> list[float]:
    """A Box bound's entries as floats, broadcast to x's shape (a bound
    may be a scalar)."""
    if bound.shape != x.shape:
        bound = np.broadcast_to(bound, x.shape)
    return bound.tolist()


def _block(hess, free):
    """The rows and columns `free` (a list of indices) of hess; hess
    itself when every variable is free."""
    if len(free) == hess.shape[0]:
        return hess
    return hess.take(free, 0).take(free, 1)


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve of a float matrix and vector without its wrapper:
    the same LAPACK gufunc under the same error state, so the same bits,
    and a singular matrix raises LinAlgError."""
    return _umath_linalg.solve1(a, b, signature="dd->d")


def _all_finite(v: np.ndarray) -> bool:
    """np.isfinite(v).all() for a vector, decided on Python floats."""
    return all(map(math.isfinite, v.tolist()))


def _norm(r) -> float:
    """Euclidean norm of a real vector: what np.linalg.norm computes for
    one, sqrt(r . r), without its wrapper."""
    return math.sqrt(float(r @ r))
