"""Joint uplink/downlink power allocation.

Two solvers built on the same machinery:

* sum-secrecy-rate maximization by alternating difference-of-convex (DC)
  steps between the uplink training powers (box constraint) and the
  downlink transmit powers (nonnegative, capped total including the AN
  slots);
* energy-efficiency maximization by a Dinkelbach loop whose parametric
  subproblems reuse the alternating solver with a linear power penalty.

Both rate sums inside the solvers are the smooth (unclamped) ones; the
per-user [.]^+ clamp is applied once on exit. Every DC step maximizes a
concave surrogate obtained by linearizing the subtracted concave part at
the previous iterate, so each accepted step cannot decrease the true
objective: with the subtracted part linearized from above, the surrogate
minorizes the objective and touches it at the expansion point.

Each half of both DC decompositions is a weighted sum of base-2 logs of
affine forms of the stage's power vector, w . log2(A x + b) (the standard
form of DC power allocation). One `LogAffine` type evaluates every such
half and its gradient A^T (w / (A x + b)) / ln 2; the stage builders only
assemble A, b and w from the layout's indicator matrices. The gradients
are validated against central finite differences in the test suite.
The concave half's Hessian, -A^T diag(w / (A x + b)^2) A / ln 2, costs one
small matrix product; it is the only curvature of a DC surrogate (the
linearized half and the power penalty are linear), so every DC step hands
it to the kernel, which then takes projected Newton steps.

A stage holds one side's powers fixed, so its forms, its feasible set
(the per-user box on the uplink, the capped nonnegative set on the
downlink) and its objective are built once per stage, by `_uplink_stage`
and `_downlink_stage`, and every DC step of the stage reuses them. The
prebuilt objective computes the fixed side's part once: the downlink
stage keeps the estimation quality it was built from, the uplink stage
the downlink powers' per-user views, the eavesdropping rates and the
downlink total. It repeats `smooth_secrecy_sum` and `_stage_objective`
operation for operation, so it returns the same bytes; a property test
checks that. One stage loop, `_dc_stage`, serves the SE solver, each
Dinkelbach round of the EE solver and both baselines. Each DC step's
surrogate keeps the log arguments A x + b of the point it evaluated
last, and its Hessian oracle reuses them when the kernel asks for the
Hessian at that point. A DC step starts where the last one ended, so it
takes the concave half's arguments, value and gradient there from the
last step instead of computing them again.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from .model import (
    ClusterConfig,
    DownlinkPower,
    EstimationQuality,
    SystemConfig,
    UplinkPower,
    compute_rho,
)
from .projgrad import Box, CappedSimplex, ConcaveProblem, maximize
from .rates import (
    RateReport,
    _check_circuit_power,
    _eaves_rates,
    _flat_rates,
    _legit_rates,
    energy_efficiency,
    secrecy_report,
)

__all__ = [
    "SolveOptions",
    "SolverTrace",
    "OmaResult",
    "smooth_secrecy_sum",
    "maximize_se",
    "maximize_ee",
    "baseline_fixed",
    "baseline_downlink_se",
    "baseline_uplink_se",
    "optimize_oma_tdma",
]

_LN2 = math.log(2.0)

log = logging.getLogger("noma_secrecy")


def _uplink_coeffs(cfg: SystemConfig, q: DownlinkPower):
    """a1, a2, a3 of every user, flat. They parameterize the uplink
    objective at fixed downlink powers: each user's rate is log2 of a
    ratio of affine functions of the uplink powers, with

        a1 = Q_{m,k} beta_{m,k} N_t
        a2 = beta_{m,k} [(N_t - 1) sum_{i<k} Q_{m,i} - Q_{m,0} - Q_{m,k}]
        a3 = beta_{m,k} sum_{i<=k} Q_{m,i} (AN included)
             + beta_{m,k} sum_{j!=m} sum_i Q_{j,i} + 1
    """
    nt = cfg.n_antennas
    beta = cfg.flat_betas
    users, an, prefix, inter = cfg.user_powers(q.flat())
    a1 = users * beta * nt
    a2 = beta * ((nt - 1.0) * prefix - an - users)
    a3 = beta * (an + prefix + users) + beta * inter + 1.0
    return a1, a2, a3


def _downlink_coeffs(cfg: SystemConfig, rho: EstimationQuality):
    """b1, b2, b3 of every user, flat. They parameterize the downlink
    objective at fixed estimation quality:

        b1 = rho beta N_t,  b2 = beta (1 - rho),  b3 = beta (rho N_t + 1 - rho).
    """
    nt = cfg.n_antennas
    beta = cfg.flat_betas
    r = rho.flat()
    return r * beta * nt, beta * (1.0 - r), beta * (r * nt + 1.0 - r)


@dataclass(frozen=True)
class LogAffine:
    """w . log2(A x + b): one half of a DC decomposition."""

    A: np.ndarray
    b: np.ndarray
    w: np.ndarray

    def _arguments(self, x: np.ndarray) -> np.ndarray:
        """The log arguments A x + b."""
        args = self.A @ x + self.b
        if np.minimum.reduce(args) <= 0.0:
            # Cannot happen for nonnegative powers (every argument is an
            # interference-plus-noise power, in the uplink times the pilot
            # normalizer, so positive); guard against stray inputs.
            raise FloatingPointError("non-positive log argument")
        return args

    def _evaluate_at(self, args: np.ndarray) -> tuple[float, np.ndarray]:
        return float(self.w @ np.log2(args)), self.A.T @ (self.w / args) / _LN2

    def _hessian_at(self, args: np.ndarray) -> np.ndarray:
        return -((self.A.T * (self.w / (args * args))) @ self.A) / _LN2

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Value and exact gradient (1/ln 2 included) at x."""
        return self._evaluate_at(self._arguments(x))

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Exact Hessian -A^T diag(w / (A x + b)^2) A / ln 2 at x."""
        return self._hessian_at(self._arguments(x))


def _objective(cfg: SystemConfig, forms, x: np.ndarray, penalty: float):
    """overhead * (concave - subtracted half) - penalty * sum x, with its
    gradient."""
    concave, sub = forms
    cval, cgrad = concave.evaluate(x)
    sval, sgrad = sub.evaluate(x)
    scale = cfg.overhead
    value = scale * (cval - sval) - penalty * float(x.sum())
    return value, scale * (cgrad - sgrad) - penalty


# ---------------------------------------------------------------------------
# Uplink objective: sum_k log2 f1_k - log2 f2_k, both arguments affine in the
# uplink powers: f = c P_k + a3_k (1 + tau sum_{i in cluster} beta_i P_i).
# It is the sum legitimate rate; the eavesdropping rates do not depend on the
# uplink powers, so it differs from the secrecy sum only by a constant.


def _uplink_forms(cfg: SystemConfig, coeffs) -> tuple[LogAffine, LogAffine]:
    """The halves f1 (slope c = (a1 + a2) beta tau in the own power) and
    f2 (c = a2 beta tau) of the uplink sum."""
    a1, a2, a3 = coeffs
    bt = cfg.flat_betas * cfg.pilot_len
    same_cluster = cfg.cluster_of[:, None] == cfg.cluster_of
    normalizer = a3[:, None] * same_cluster * bt
    ones = np.ones(cfg.total_users)
    return tuple(LogAffine(np.diag(c * bt) + normalizer, a3, ones) for c in (a1 + a2, a2))


# ---------------------------------------------------------------------------
# Downlink objective: per user, concave part (g1 + g3) minus concave part
# (g2 + g4), all four being logs of affine functions of the downlink powers.


def _downlink_forms(cfg: SystemConfig, coeffs) -> tuple[LogAffine, LogAffine]:
    """The concave (g1 + g3) and subtracted (g2 + g4) halves of the
    downlink secrecy sum. Per user, g2 = b2 (own + AN) + b3 stronger +
    beta others + 1 is the legitimate interference, g1 = g2 + b1 own and
    g3 = beta_E (total - own) + 1 the eavesdropper's interference;
    g4 = beta_E total + 1 enters once per user."""
    b1, b2, b3 = coeffs
    own, an, stronger, others = cfg.slot_indicators
    n = cfg.total_users
    g2 = b2[:, None] * (own + an) + b3[:, None] * stronger + cfg.flat_betas[:, None] * others
    g3 = cfg.eav_gain * (1.0 - own)
    g4 = np.full((1, own.shape[1]), cfg.eav_gain)
    concave = LogAffine(np.vstack((g2 + b1[:, None] * own, g3)), np.ones(2 * n), np.ones(2 * n))
    sub = LogAffine(np.vstack((g4, g2)), np.ones(n + 1), np.concatenate(([n], np.ones(n))))
    return concave, sub


# ---------------------------------------------------------------------------
# DC steps and the alternating solver.


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and iteration caps for the allocation solvers."""

    outer_tol: float = 1e-3  # alternating loop: stop on |R_d - R_u|
    max_outer: int = 50
    inner_tol: float = 1e-6  # DC loop: stop on absolute improvement
    max_inner: int = 50
    kernel_tol: float = 1e-7
    kernel_max_iter: int = 300
    ee_tol: float = 1e-6  # Dinkelbach: stop on the subtractive objective
    ee_max_outer: int = 60
    ee_outer_tol: float = 1e-6  # alternating tolerance inside Dinkelbach rounds


@dataclass
class SolverTrace:
    """Progress record of one solve.

    outer_values holds the true stage objective after each uplink and
    downlink stage (prefixed with the initial value), so it must be
    nondecreasing; step_values holds the per-DC-iteration objective
    sequence of each stage. epsilons records the per-round gap between
    the downlink- and uplink-stage objectives (sign included);
    lambda_sequence is filled by the energy-efficiency loop only.
    kernel_stops counts the kernel calls of every DC step by stop reason
    ("stationary", "floor" or "cap"; see `SolveResult`), kernel_iterations
    sums their iterations, kernel_fallbacks counts the iterations whose
    projected Newton trial fell back to the gradient step, and stage_caps
    the DC stages that ran max_inner steps while still gaining at least
    inner_tol per step.
    """

    outer_values: list[float] = field(default_factory=list)
    step_values: list[list[float]] = field(default_factory=list)
    epsilons: list[float] = field(default_factory=list)
    lambda_sequence: list[float] = field(default_factory=list)
    kernel_stops: Counter[str] = field(default_factory=Counter)
    kernel_iterations: int = 0
    kernel_fallbacks: int = 0
    stage_caps: int = 0
    converged: bool = False


class _Stage(NamedTuple):
    """One side's DC subproblem at fixed powers of the other side: its
    forms (concave, subtracted), feasible set and objective of the side's
    powers, and the power price lam of that objective and of every DC
    surrogate."""

    side: str
    forms: tuple[LogAffine, LogAffine]
    feasible_set: object
    objective: Callable[[object], float]
    lam: float


def _penalized(gaps: np.ndarray, lam: float, p_total: float, q_total: float, circuit_power):
    """`_stage_objective` from the per-user rate gaps legit - eaves and the
    power totals."""
    value = float(np.add.reduce(gaps))
    if lam != 0.0:
        value -= lam * (p_total + q_total + circuit_power)
    return value


def _uplink_stage(
    cfg: SystemConfig, q: DownlinkPower, p_max, lam: float = 0.0, circuit_power: float = 0.0
) -> _Stage:
    """The uplink stage at fixed downlink powers: its forms (f1, f2), the
    per-user box [0, p_max] and the stage objective of p, with q's views,
    eavesdropping rates and total computed once."""
    q_flat = q.flat()
    views = cfg.user_powers(q_flat)
    eaves = _eaves_rates(cfg, q_flat, views[0])
    q_total = q.total()

    def objective(p: UplinkPower) -> float:
        legit = _legit_rates(cfg, compute_rho(cfg, p).flat(), views)
        return _penalized(legit - eaves, lam, p.total(), q_total, circuit_power)

    box = Box(lower=np.zeros(cfg.total_users), upper=UplinkPower.full(cfg, p_max).flat())
    return _Stage("uplink", _uplink_forms(cfg, _uplink_coeffs(cfg, q)), box, objective, lam)


def _downlink_stage(
    cfg: SystemConfig,
    rho: EstimationQuality,
    q_max: float,
    lam: float = 0.0,
    circuit_power: float = 0.0,
    p_total: float = 0.0,
) -> _Stage:
    """The downlink stage at fixed estimation quality (and uplink total
    p_total, which only the power price reads): its forms (g1 + g3,
    g2 + g4), the capped nonnegative set and the stage objective of q."""
    rho_flat = rho.flat()

    def objective(q: DownlinkPower) -> float:
        legit, eaves = _flat_rates(cfg, rho_flat, q.flat())
        return _penalized(legit - eaves, lam, p_total, q.total(), circuit_power)

    forms = _downlink_forms(cfg, _downlink_coeffs(cfg, rho))
    return _Stage("downlink", forms, CappedSimplex(cap=q_max), objective, lam)


def _surrogate(cfg: SystemConfig, stage: _Stage, x_prev: np.ndarray, start=None):
    """The DC step's problem at x_prev: maximize the concave surrogate
    overhead * (concave(x) - sub(x_prev) - <grad sub(x_prev), x - x_prev>)
    - lam * sum x over the stage's feasible set, whose Hessian is the
    concave half's times overhead; a zero lam drops the price terms,
    since v - 0.0 is v. Returns the problem and a one-item list that
    holds its last evaluation.

    Each evaluation records (x, log arguments, overhead * value,
    overhead * gradient) of the concave half in the list. The Hessian
    oracle reuses the log arguments when it is handed the array evaluated
    last (`maximize` asks for the Hessian there). start, if given, is
    that record's tail for a point equal to x_prev: the first evaluation,
    which `maximize` makes at its copy of x_prev, then takes it instead
    of recomputing it.
    """
    concave, sub = stage.forms
    penalty = stage.lam
    scale = cfg.overhead
    sub_prev, sub_grad_prev = sub.evaluate(x_prev)
    lin = scale * sub_grad_prev
    const = -scale * sub_prev + float(lin @ x_prev)
    last = [(None, None, None, None)]

    def evaluate(x):
        nonlocal start
        if start is None:
            args = concave._arguments(x)
            value, grad = concave._evaluate_at(args)
            value = scale * value
            grad = scale * grad
        else:
            (args, value, grad), start = start, None
        last[0] = (x, args, value, grad)
        if penalty != 0.0:
            value -= penalty * float(np.add.reduce(x))
            grad = grad - penalty  # not in place: the record keeps grad
        return value - float(lin @ x) + const, grad - lin

    def hessian(x):
        x_last, args = last[0][:2]
        if x is not x_last:
            args = concave._arguments(x)
        return scale * concave._hessian_at(args)

    problem = ConcaveProblem(
        dim=x_prev.size, evaluate=evaluate, feasible_set=stage.feasible_set, hessian=hessian
    )
    return problem, last


def _dc_step(cfg: SystemConfig, stage: _Stage, x_prev, options, trace, start=None):
    """One DC iteration of a stage from x_prev: the kernel's maximizer of
    the `_surrogate` at x_prev (start as there). The kernel's stop reason,
    iterations and Newton fallbacks are counted in the trace. Returns the
    maximizer and the start of the next step from it: the concave half's
    record there, or None when the kernel evaluated another point last
    (after a floor stop's failed trials)."""
    problem, last = _surrogate(cfg, stage, x_prev, start)
    result = maximize(problem, x_prev, tol=options.kernel_tol, max_iter=options.kernel_max_iter)
    trace.kernel_stops[result.stop] += 1
    trace.kernel_iterations += result.iterations
    trace.kernel_fallbacks += result.fallbacks
    x, *record = last[0]
    return result.point, tuple(record) if x is result.point else None


def smooth_secrecy_sum(cfg: SystemConfig, p: UplinkPower, q: DownlinkPower) -> float:
    """Unclamped sum of per-user (legitimate - eavesdropping) rates; the
    quantity the DC solvers actually maximize."""
    rho = compute_rho(cfg, p)
    legit, eaves = _flat_rates(cfg, rho.flat(), q.flat())
    return float((legit - eaves).sum())


def _stage_objective(cfg, p, q, lam, circuit_power) -> float:
    value = smooth_secrecy_sum(cfg, p, q)
    if lam != 0.0:
        value -= lam * (p.total() + q.total() + circuit_power)
    return value


def _report_kernel(solver: str, trace: SolverTrace) -> None:
    """One DEBUG line on the solve's kernel calls and iterations, and a
    WARNING when any of the calls hit the iteration cap."""
    stops = trace.kernel_stops
    log.debug(
        "%s: %d kernel calls (%s), %d Newton fallbacks, %d capped DC stages, "
        "%d kernel iterations",
        solver, stops.total(),
        ", ".join("%s %d" % (reason, stops[reason]) for reason in ("stationary", "floor", "cap")),
        trace.kernel_fallbacks, trace.stage_caps, trace.kernel_iterations,
    )
    caps = stops["cap"]
    if caps:
        log.warning(
            "%s: %d of %d kernel calls stopped at the iteration cap",
            solver, caps, trace.kernel_stops.total(),
        )


def _add_counts(trace: SolverTrace, other: SolverTrace) -> None:
    """Add other's kernel stops, iterations, Newton fallbacks and capped
    stages to trace's."""
    trace.kernel_stops.update(other.kernel_stops)
    trace.kernel_iterations += other.kernel_iterations
    trace.kernel_fallbacks += other.kernel_fallbacks
    trace.stage_caps += other.stage_caps


def _dc_stage(
    cfg: SystemConfig, stage: _Stage, x, start: float, options: SolveOptions, trace: SolverTrace
):
    """Repeat the DC step of `stage` (built once) from the powers x, whose
    stage objective is `start`, until the objective gains less than
    inner_tol (converged) or max_inner steps have run. Records the
    objective sequence in trace, counts a stage that stops at max_inner
    in trace.stage_caps and logs one DEBUG line per stage; returns the
    last iterate, its objective and whether the loop converged."""
    debug = log.isEnabledFor(logging.DEBUG)
    if debug:
        t0 = perf_counter()
        calls0, iterations0 = trace.kernel_stops.total(), trace.kernel_iterations
    values = [start]
    converged = False
    concave = None  # the concave half's record at x, from the last DC step
    for _ in range(options.max_inner):
        point, concave = _dc_step(cfg, stage, x.flat(), options, trace, concave)
        x = type(x).from_flat(cfg, point)
        values.append(stage.objective(x))
        if values[-1] - values[-2] < options.inner_tol:
            converged = True
            break
    trace.step_values.append(values)
    if not converged:
        trace.stage_caps += 1
    if debug:
        log.debug(
            "%s DC stage: %d steps, %d kernel calls, %d kernel iterations, "
            "objective %.10g -> %.10g, %s, %.3g s",
            stage.side, len(values) - 1, trace.kernel_stops.total() - calls0,
            trace.kernel_iterations - iterations0,
            values[0], values[-1],
            "converged" if converged else "stopped at max_inner=%d" % options.max_inner,
            perf_counter() - t0,
        )
    return x, values[-1], converged


def _alternate(
    cfg: SystemConfig,
    p_max,
    q_max: float,
    p0: UplinkPower,
    q0: DownlinkPower,
    options: SolveOptions,
    lam: float = 0.0,
    circuit_power: float = 0.0,
    outer_tol: float | None = None,
    first_uplink=None,
) -> tuple[UplinkPower, DownlinkPower, SolverTrace]:
    """Alternating uplink/downlink DC solve of the (optionally power-
    penalized) smooth secrecy sum. first_uplink, if given, is the result
    (p, q, report, trace) of the first uplink stage, already solved from
    p0 at q0: its powers, objective sequence and counts are taken as they
    are."""
    outer_tol = options.outer_tol if outer_tol is None else outer_tol
    p, q = p0, q0
    trace = SolverTrace()
    trace.outer_values.append(_stage_objective(cfg, p, q, lam, circuit_power))

    for _ in range(options.max_outer):
        # Uplink stage at fixed downlink powers.
        if first_uplink is None:
            p, r_up, _ = _dc_stage(
                cfg, _uplink_stage(cfg, q, p_max, lam, circuit_power),
                p, trace.outer_values[-1], options, trace,
            )
        else:
            p, _, _, stage_trace = first_uplink
            first_uplink = None
            trace.step_values.append(list(stage_trace.step_values[0]))
            _add_counts(trace, stage_trace)
            r_up = trace.step_values[-1][-1]
        trace.outer_values.append(r_up)

        # Downlink stage at the resulting estimation quality.
        q, r_down, _ = _dc_stage(
            cfg, _downlink_stage(cfg, compute_rho(cfg, p), q_max, lam, circuit_power, p.total()),
            q, r_up, options, trace,
        )
        trace.outer_values.append(r_down)

        eps_star = r_down - r_up
        trace.epsilons.append(eps_star)
        if abs(eps_star) <= outer_tol:
            trace.converged = True
            break
    return p, q, trace


def baseline_fixed(
    cfg: SystemConfig,
    p_max,
    q_max: float,
    an_fraction: float = 0.2,
) -> tuple[UplinkPower, DownlinkPower]:
    """Fixed allocation: every user at its uplink cap; (1 - an_fraction)
    of the downlink budget split equally over users and an_fraction split
    equally over the per-cluster AN slots."""
    if not 0.0 <= an_fraction < 1.0:
        raise ValueError("an_fraction must lie in [0, 1)")
    p = UplinkPower.full(cfg, p_max)
    q = np.full(cfg.total_users + cfg.n_clusters, (1.0 - an_fraction) * q_max / cfg.total_users)
    q[cfg.slot_offsets] = an_fraction * q_max / cfg.n_clusters
    return p, DownlinkPower.from_flat(cfg, q)


def maximize_se(
    cfg: SystemConfig,
    p_max,
    q_max: float,
    options: SolveOptions | None = None,
    _uplink=None,
) -> tuple[UplinkPower, DownlinkPower, RateReport, SolverTrace]:
    """Alternating DC maximization of the sum secrecy rate.

    Starts from the fixed baseline allocation, so the first trace value
    is the baseline's objective and every later value records the
    improvement over it.

    Its first uplink stage, at lambda = 0 from the fixed split, is the
    stage `baseline_uplink_se` solves. A caller that has run
    `baseline_uplink_se(cfg, p_max, q_max, options)` may pass its result
    as `_uplink`: the solve then takes that stage's powers, objective
    sequence and kernel counts instead of solving it again (so that
    stage's DEBUG line is the baseline's), and returns what a fresh solve
    returns, bit for bit.
    """
    options = options or SolveOptions()
    p0, q0 = baseline_fixed(cfg, p_max, q_max)
    p, q, trace = _alternate(cfg, p_max, q_max, p0, q0, options, first_uplink=_uplink)
    _report_kernel("maximize_se", trace)
    report = secrecy_report(cfg, p, q)
    return p, q, report, trace


def maximize_ee(
    cfg: SystemConfig,
    p_max,
    q_max: float,
    circuit_power: float,
    options: SolveOptions | None = None,
) -> tuple[UplinkPower, DownlinkPower, float, SolverTrace]:
    """Dinkelbach maximization of secrecy energy efficiency.

    Starting from lambda = 0, each round maximizes the subtractive
    objective (secrecy sum - lambda * total power) with the alternating
    solver warm-started at the previous allocation, then updates lambda
    to the achieved ratio. Warm starting makes each round's subtractive
    value nonnegative, so the lambda sequence is nondecreasing; the loop
    stops once that value drops below ee_tol.
    """
    _check_circuit_power(circuit_power)
    options = options or SolveOptions()
    p, q = baseline_fixed(cfg, p_max, q_max)
    lam = 0.0
    trace = SolverTrace(lambda_sequence=[0.0])

    if smooth_secrecy_sum(cfg, p, q) < 0.0:
        # The fixed split starts below the trivial all-zero allocation;
        # start from (almost) zero instead so round values stay sound.
        p = UplinkPower.full(cfg, 0.0)
        q = DownlinkPower.zeros(cfg)

    for _ in range(options.ee_max_outer):
        p, q, round_trace = _alternate(
            cfg,
            p_max,
            q_max,
            p,
            q,
            options,
            lam=lam,
            circuit_power=circuit_power,
            outer_tol=options.ee_outer_tol,
        )
        _add_counts(trace, round_trace)
        se_smooth = smooth_secrecy_sum(cfg, p, q)
        denom = p.total() + q.total() + circuit_power
        f_hat = se_smooth - lam * denom
        if f_hat < -lam * circuit_power:
            # The all-off allocation beats the stationary point found for
            # this lambda; fall back to it (it is always feasible).
            p = UplinkPower.full(cfg, 0.0)
            q = DownlinkPower.zeros(cfg)
            se_smooth = 0.0
            denom = circuit_power
            f_hat = -lam * circuit_power
        trace.outer_values.append(se_smooth)
        trace.epsilons.append(f_hat)
        lam = se_smooth / denom
        trace.lambda_sequence.append(lam)
        if f_hat <= options.ee_tol:
            trace.converged = True
            break

    _report_kernel("maximize_ee", trace)
    report = secrecy_report(cfg, p, q)
    ee = energy_efficiency(report, p, q, circuit_power)
    return p, q, ee, trace


def baseline_downlink_se(
    cfg: SystemConfig,
    p_max,
    q_max: float,
    options: SolveOptions | None = None,
) -> tuple[UplinkPower, DownlinkPower, RateReport, SolverTrace]:
    """Uplink pinned at its cap; one downlink DC loop to convergence."""
    options = options or SolveOptions()
    p, q = baseline_fixed(cfg, p_max, q_max)
    trace = SolverTrace()
    stage = _downlink_stage(cfg, compute_rho(cfg, p), q_max)
    q, _, trace.converged = _dc_stage(cfg, stage, q, stage.objective(q), options, trace)
    trace.outer_values = trace.step_values[0]
    return p, q, secrecy_report(cfg, p, q), trace


def baseline_uplink_se(
    cfg: SystemConfig,
    p_max,
    q_max: float,
    options: SolveOptions | None = None,
) -> tuple[UplinkPower, DownlinkPower, RateReport, SolverTrace]:
    """Downlink pinned at the fixed split; one uplink DC loop."""
    options = options or SolveOptions()
    p, q = baseline_fixed(cfg, p_max, q_max)
    trace = SolverTrace()
    stage = _uplink_stage(cfg, q, p_max)
    p, _, trace.converged = _dc_stage(cfg, stage, p, stage.objective(p), options, trace)
    trace.outer_values = trace.step_values[0]
    return p, q, secrecy_report(cfg, p, q), trace


@dataclass(frozen=True)
class OmaResult:
    """Time-shared orthogonal-access benchmark (one user per cluster per
    slot, each user served 1/K of the time)."""

    se: float
    ee: float | None
    slots: tuple[tuple[UplinkPower, DownlinkPower, RateReport, SolverTrace], ...]


def optimize_oma_tdma(
    cfg: SystemConfig,
    p_max,
    q_max: float,
    options: SolveOptions | None = None,
    circuit_power: float | None = None,
) -> OmaResult:
    """Optimized orthogonal benchmark: slot t serves the t-th user of
    every cluster with the full power budgets, allocated by the same SE
    solver on the one-user-per-cluster layout; rates (and powers, for the
    efficiency figure) are averaged over the K slots."""
    if circuit_power is not None:
        _check_circuit_power(circuit_power)
    users = set(cfg.users_per_cluster)
    if len(users) != 1:
        raise ValueError("the time-shared benchmark needs equal-size clusters")
    k_total = users.pop()
    slots = []
    se_sum = 0.0
    power_sum = 0.0
    for t in range(k_total):
        slot_cfg = SystemConfig(
            n_antennas=cfg.n_antennas,
            clusters=tuple(
                ClusterConfig(np.array([cfg.beta(m)[t]]))
                for m in range(cfg.n_clusters)
            ),
            pilot_len=cfg.pilot_len,
            coherence_len=cfg.coherence_len,
            eav_gain=cfg.eav_gain,
        )
        p_t, q_t, report_t, trace_t = maximize_se(slot_cfg, p_max, q_max, options)
        slots.append((p_t, q_t, report_t, trace_t))
        se_sum += report_t.sum_secrecy
        power_sum += p_t.total() + q_t.total()
    se = se_sum / k_total
    ee = None
    if circuit_power is not None:
        ee = se / (power_sum / k_total + circuit_power)
    return OmaResult(se=se, ee=ee, slots=tuple(slots))
