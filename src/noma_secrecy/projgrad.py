"""Projected-gradient maximizer for smooth concave objectives.

Covers the two feasible sets the power-allocation solvers need: a box
(per-user uplink caps) and a nonnegative capped-sum set (total downlink
budget). Problem dimensions are tens at most and every objective is a
sum of logs of affine forms with cheap exact gradients, so a monotone
first-order method with backtracking is simpler and more predictable
than an interior-point solver.

Each line search starts from the spectral step of Barzilai & Borwein
(IMA J. Numer. Anal., 1988) and keeps the monotone Armijo acceptance,
as in the spectral projected gradient of Birgin, Martinez & Raydan
(SIAM J. Optim., 2000). The spectral step adapts to the curvature along
the last step, so ill-conditioned surrogates (curvatures spread over
orders of magnitude) need far fewer iterations than a step carried over
from the previous search. Every result says how the iteration stopped:
at a stationary point, at the backtracking floor, or at the cap.

Objectives may return -inf to flag an out-of-domain point (e.g. a log
argument below its guard); the line search treats that as a rejected
step. Non-finite values at an accepted point are an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Box",
    "CappedSimplex",
    "ConcaveProblem",
    "SolveResult",
    "project",
    "maximize",
    "finite_difference_gradient",
]


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
    if clipped.sum() <= cap:
        return clipped
    # Cap active: Euclidean projection onto {z >= 0, sum(z) = cap} via the
    # sort-based water-filling rule z = max(x - theta, 0).
    u = np.sort(x)[::-1]
    excess = np.cumsum(u) - cap
    counts = np.arange(1, x.size + 1)
    active = u - excess / counts > 0.0
    # The largest entry is in the support; its test fails at cap = 0 or below its ulp.
    active[0] = True
    r = int(np.nonzero(active)[0][-1]) + 1
    theta = excess[r - 1] / r
    return np.maximum(x - theta, 0.0)


def project(feasible_set, x) -> np.ndarray:
    """Euclidean projection of x onto the feasible set (idempotent)."""
    x = np.asarray(x, dtype=float)
    if isinstance(feasible_set, Box):
        return np.clip(x, feasible_set.lower, feasible_set.upper)
    if isinstance(feasible_set, CappedSimplex):
        return _project_capped_simplex(x, feasible_set.cap)
    raise TypeError("unsupported feasible set: %r" % (feasible_set,))


@dataclass(frozen=True)
class ConcaveProblem:
    """Value/gradient oracle plus its feasible set.

    `evaluate` maps a point to (objective value, gradient vector); the
    caller guarantees concavity and differentiability on the set.
    """

    dim: int
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray]]
    feasible_set: object


@dataclass
class SolveResult:
    """Outcome of `maximize`.

    `stop` says why the iteration ended: "stationary" (the residual fell
    to tol), "floor" (no step above the backtracking floor ascended) or
    "cap" (max_iter iterations ran).
    """

    point: np.ndarray
    value: float
    stationarity: float
    iterations: int
    stop: str
    history: list[float] = field(default_factory=list)

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
    step0: float = 1.0,
    shrink: float = 0.5,
    armijo: float = 1e-4,
    grow: float = 2.0,
) -> SolveResult:
    """Projected-gradient ascent with Armijo backtracking.

    Each line search starts from the spectral (Barzilai-Borwein) step
    ||s||^2 / s.y, with s = x - x_prev and y = grad_prev - grad over the
    last accepted step. s.y >= 0 on a concave objective, and the step is
    the inverse of its mean curvature along s. On the first iteration,
    and whenever s.y <= 0 (a linear objective, for one), it falls back
    to the last accepted step times `grow`, starting from `step0`. Trial
    steps are capped at 1e12 and shrunk (times `shrink`) until the
    Armijo test passes, so the objective sequence is nondecreasing.

    Iteration stops once the unit-step projected-gradient residual
    ||x - P(x + grad)|| falls to tol ("stationary"), when no trial step
    above 1e-18 ascends ("floor"), or after max_iter iterations ("cap");
    `SolveResult.stop` holds which.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.size != problem.dim:
        raise ValueError("x0 has dimension %d, expected %d" % (x.size, problem.dim))
    if np.linalg.norm(x - project(problem.feasible_set, x)) > 1e-9:
        raise ValueError("x0 is not feasible: %r" % (x,))

    value, grad = problem.evaluate(x)
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise ValueError("non-finite objective or gradient at x0 = %r" % (x,))

    history = [value]
    step = step0
    previous = None  # (point, gradient) before the last accepted step
    iterations = 0
    stationarity = np.inf
    stop = "cap"
    for iterations in range(1, max_iter + 1):
        residual = x - project(problem.feasible_set, x + grad)
        stationarity = float(np.linalg.norm(residual))
        if stationarity <= tol:
            stop = "stationary"
            iterations -= 1
            break

        alpha = step * grow
        if previous is not None:
            s = x - previous[0]
            sy = float(s @ (previous[1] - grad))
            if sy > 0.0:
                alpha = float(s @ s) / sy
        alpha = min(alpha, 1e12)
        accepted = False
        while alpha > 1e-18:
            candidate = project(problem.feasible_set, x + alpha * grad)
            direction = candidate - x
            gain = float(grad @ direction)
            if gain <= 0.0 or np.linalg.norm(direction) == 0.0:
                alpha *= shrink
                continue
            cand_value, cand_grad = problem.evaluate(candidate)
            if np.isfinite(cand_value) and cand_value >= value + armijo * gain:
                if not np.all(np.isfinite(cand_grad)):
                    raise ValueError(
                        "non-finite gradient at accepted point %r" % (candidate,)
                    )
                previous = (x, grad)
                x, value, grad = candidate, float(cand_value), cand_grad
                step = alpha
                accepted = True
                break
            alpha *= shrink
        if not accepted:
            # No ascent direction survives the backtracking floor: treat
            # the current point as stationary.
            stop = "floor"
            break
        history.append(value)

    return SolveResult(
        point=x,
        value=value,
        stationarity=stationarity,
        iterations=iterations,
        stop=stop,
        history=history,
    )


def finite_difference_gradient(
    func: Callable[[np.ndarray], float],
    x,
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    The per-coordinate step is scaled by max(1, |x_i|) so the check stays
    meaningful across very different variable magnitudes.
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        h = step * max(1.0, abs(x[i]))
        forward = x.copy()
        backward = x.copy()
        forward[i] += h
        backward[i] -= h
        grad[i] = (func(forward) - func(backward)) / (2.0 * h)
    return grad
