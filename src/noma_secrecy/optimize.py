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
downlink), its objective and its DC surrogate are built once per stage,
by `_uplink_stage` and `_downlink_stage`; a DC step only sets the
surrogate's linear term, its constant and its start record. The stage
objective takes the side's flat power vector. It binds the rate
factors that stay fixed for the stage (`rates._downlink_gaps`: the
estimation quality's; `rates._uplink_gaps`: the downlink powers', with
the eavesdropping rates) and repeats `smooth_secrecy_sum` minus the
power price operation for operation, so it returns the same bytes; a
property test checks that. One stage loop, `_dc_stage`, serves the SE
solver, each Dinkelbach round of the EE solver and both baselines. It
passes the kernel's flat point to the next DC step and to the
objective, checks that each point is finite and nonnegative, and wraps
the last one in an `UplinkPower` or `DownlinkPower` once. Each DC
step's surrogate keeps the log arguments A x + b of the point it
evaluated last, and its Hessian oracle reuses them when the kernel asks
for the Hessian at that point. A DC step starts where the last one
ended, so it takes the concave half's arguments, value and gradient
there from the last step instead of computing them again.

The stages of the Dinkelbach rounds, whose objective carries a power
price, boost each DC step (the boosted DC algorithm of Aragon Artacho,
Fleming and Vuong, Math. Program. 169, 2018, for linear constraints
Aragon Artacho, Campoy and Vuong, Set-Valued Var. Anal. 30, 2022). The
step from x to y is an ascent direction of the true stage objective at
y, so `_boost` searches z = P(y + s (y - x)) from s = 2, halving s at
most six times, and takes the first z that passes an Armijo test on the
true objective: f(z) > f(y) and f(z) >= f(y) + 1e-4 ||z - y||^2. The
next step starts at z. A boost costs a few objective evaluations and
projections, no kernel call, and it halves the EE solve's kernel calls.
The stages without a price (the SE solver, the baselines and the
time-shared benchmark) keep the plain step: their objective has flat
ridges, where a change of path moves the point at which the per-step
stop test ends the stage, and boosting them lowered the SE answers.
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
    _cut,
    _rho,
    _total,
    compute_rho,
)
from .projgrad import Box, CappedSimplex, ConcaveProblem, maximize, project
from .rates import (
    RateReport,
    _check_circuit_power,
    _downlink_gaps,
    _flat_rates,
    _uplink_gaps,
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
    ee_tol: float = 1e-6  # Dinkelbach: stop on the subtractive objective (and per watt)
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
    inner_tol per step. boost_trials counts the points the boosted DC
    steps of priced stages tried (see `_boost`), and boosts the steps
    whose boost was accepted.
    """

    outer_values: list[float] = field(default_factory=list)
    step_values: list[list[float]] = field(default_factory=list)
    epsilons: list[float] = field(default_factory=list)
    lambda_sequence: list[float] = field(default_factory=list)
    kernel_stops: Counter[str] = field(default_factory=Counter)
    kernel_iterations: int = 0
    kernel_fallbacks: int = 0
    stage_caps: int = 0
    boost_trials: int = 0
    boosts: int = 0
    converged: bool = False


class _Stage(NamedTuple):
    """One side's DC subproblem at fixed powers of the other side, built
    once per stage: its forms (concave, subtracted), its objective of the
    side's flat powers (the smooth secrecy sum minus the power price lam
    times the total power), its DC surrogate, `_surrogate`'s problem and
    the function that linearizes it at a point, and whether the power
    price lam is nonzero, which decides whether `_dc_stage` boosts its
    steps."""

    side: str
    forms: tuple[LogAffine, LogAffine]
    objective: Callable[[np.ndarray], float]
    problem: ConcaveProblem
    linearize: Callable
    priced: bool


def _uplink_stage(
    cfg: SystemConfig, q: DownlinkPower, p_max, lam: float = 0.0, circuit_power: float = 0.0
) -> _Stage:
    """The uplink stage at fixed downlink powers: its forms (f1, f2) and
    surrogate on the per-user box [0, p_max], and the stage objective of
    flat p, with q's rate factors, eavesdropping rates and total
    computed once."""
    gaps = _uplink_gaps(cfg, q.flat())
    q_total = q.total()

    def objective(p: np.ndarray) -> float:
        value = float(np.add.reduce(gaps(_rho(cfg, p))))
        if lam != 0.0:
            value -= lam * (_total(cfg.split_users(p)) + q_total + circuit_power)
        return value

    forms = _uplink_forms(cfg, _uplink_coeffs(cfg, q))
    box = Box(lower=np.zeros(cfg.total_users), upper=UplinkPower.full(cfg, p_max).flat())
    return _Stage("uplink", forms, objective, *_surrogate(cfg, forms, box, lam), lam != 0.0)


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
    g2 + g4) and surrogate on the capped nonnegative set, and the stage
    objective of flat q, with rho's rate factors computed once."""
    gaps = _downlink_gaps(cfg, rho.flat())
    sizes = tuple(k + 1 for k in cfg.users_per_cluster)

    def objective(q: np.ndarray) -> float:
        value = float(np.add.reduce(gaps(q)))
        if lam != 0.0:
            value -= lam * (p_total + _total(_cut(q, sizes)) + circuit_power)
        return value

    forms = _downlink_forms(cfg, _downlink_coeffs(cfg, rho))
    return _Stage(
        "downlink", forms, objective, *_surrogate(cfg, forms, CappedSimplex(cap=q_max), lam),
        lam != 0.0,
    )


def _surrogate(cfg: SystemConfig, forms, feasible_set, penalty: float):
    """A stage's DC surrogate, built once per stage: the problem of
    maximizing overhead * (concave(x) - sub(x_prev) - <grad sub(x_prev),
    x - x_prev>) - penalty * sum x over the feasible set, whose Hessian
    is the concave half's times overhead; a zero penalty drops the price
    terms, since v - 0.0 is v. Returns the `ConcaveProblem` and
    `linearize(x_prev, first=None)`, which sets the linear term and the
    constant at x_prev for the next kernel call and returns a one-item
    list that holds the problem's last evaluation.

    Each evaluation records (x, log arguments, overhead * value,
    overhead * gradient) of the concave half in the list. The Hessian
    oracle reuses the log arguments when it is handed the array evaluated
    last (`maximize` asks for the Hessian there). first, if given, is
    that record's tail for a point equal to x_prev: the first evaluation
    after `linearize`, which `maximize` makes at its copy of x_prev, then
    takes it instead of recomputing it.
    """
    concave, sub = forms
    scale = cfg.overhead
    lin = const = start = None
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

    def linearize(x_prev, first=None):
        nonlocal lin, const, start
        sub_prev, sub_grad_prev = sub.evaluate(x_prev)
        lin = scale * sub_grad_prev
        const = -scale * sub_prev + float(lin @ x_prev)
        start = first
        return last

    problem = ConcaveProblem(
        dim=concave.A.shape[1], evaluate=evaluate, feasible_set=feasible_set, hessian=hessian
    )
    return problem, linearize


def _dc_step(stage: _Stage, x_prev, options, trace, start=None):
    """One DC iteration of a stage from the flat powers x_prev: the
    kernel's maximizer of the stage's surrogate linearized at x_prev
    (start as `_surrogate`'s first). The kernel's stop reason,
    iterations and Newton fallbacks are counted in the trace. Returns the
    maximizer and the start of the next step from it: the concave half's
    record there, or None when the kernel evaluated another point last
    (after a floor stop's failed trials)."""
    last = stage.linearize(x_prev, start)
    result = maximize(
        stage.problem, x_prev, tol=options.kernel_tol, max_iter=options.kernel_max_iter
    )
    trace.kernel_stops[result.stop] += 1
    trace.kernel_iterations += result.iterations
    trace.kernel_fallbacks += result.fallbacks
    x, *record = last[0]
    return result.point, tuple(record) if x is result.point else None


# The boost of a DC step: the first trial step along the step's direction,
# how often it may halve, and the Armijo fraction of the acceptance test.
_BOOST_STEP0 = 2.0
_BOOST_HALVINGS = 6
_BOOST_ARMIJO = 1e-4


def _boost(stage: _Stage, x_prev, y, value: float, trace: SolverTrace):
    """The boosted DC algorithm's line search (see the module docstring)
    after the DC step x_prev -> y, whose stage objective is value. It tries
    z = P(y + s (y - x_prev)) for s = 2, 1, 1/2, ... (at most six
    halvings), P the projection onto the stage's feasible set, and
    accepts the first z whose stage objective f(z) exceeds value and is at
    least value + 1e-4 ||z - y||^2. Returns (z, f(z)), or (y, value) when
    no trial passes or y = x_prev. Counts the trials and the accepted
    boost in trace."""
    d = y - x_prev
    if not d.any():
        return y, value
    feasible_set = stage.problem.feasible_set
    step = _BOOST_STEP0
    for _ in range(_BOOST_HALVINGS + 1):
        z = project(feasible_set, y + step * d)
        z_value = stage.objective(z)
        trace.boost_trials += 1
        gap = z - y
        if z_value > value and z_value >= value + _BOOST_ARMIJO * float(gap @ gap):
            trace.boosts += 1
            return z, z_value
        step *= 0.5
    return y, value


def smooth_secrecy_sum(cfg: SystemConfig, p: UplinkPower, q: DownlinkPower) -> float:
    """Unclamped sum of per-user (legitimate - eavesdropping) rates; the
    quantity the DC solvers actually maximize."""
    rho = compute_rho(cfg, p)
    legit, eaves = _flat_rates(cfg, rho.flat(), q.flat())
    return float((legit - eaves).sum())


def _report_kernel(solver: str, trace: SolverTrace) -> None:
    """One DEBUG line on the solve's kernel calls and iterations and its
    boosts, and a WARNING when any of the calls hit the iteration cap."""
    stops = trace.kernel_stops
    log.debug(
        "%s: %d kernel calls (%s), %d Newton fallbacks, %d capped DC stages, "
        "%d kernel iterations, %d boosts of %d trials",
        solver, stops.total(),
        ", ".join("%s %d" % (reason, stops[reason]) for reason in ("stationary", "floor", "cap")),
        trace.kernel_fallbacks, trace.stage_caps, trace.kernel_iterations,
        trace.boosts, trace.boost_trials,
    )
    caps = stops["cap"]
    if caps:
        log.warning(
            "%s: %d of %d kernel calls stopped at the iteration cap",
            solver, caps, trace.kernel_stops.total(),
        )


def _add_counts(trace: SolverTrace, other: SolverTrace) -> None:
    """Add other's kernel stops, iterations, Newton fallbacks, capped
    stages and boosts to trace's."""
    trace.kernel_stops.update(other.kernel_stops)
    trace.kernel_iterations += other.kernel_iterations
    trace.kernel_fallbacks += other.kernel_fallbacks
    trace.stage_caps += other.stage_caps
    trace.boost_trials += other.boost_trials
    trace.boosts += other.boosts


def _dc_stage(
    cfg: SystemConfig, stage: _Stage, x, start: float, options: SolveOptions, trace: SolverTrace
):
    """Repeat the DC step of `stage` (built once) from the powers x, whose
    stage objective is `start`, until the objective gains less than
    inner_tol (converged) or max_inner steps have run. The steps pass the
    flat powers on, and each step's point must be finite and nonnegative
    (ValueError otherwise); the last one is wrapped in x's type once.

    A priced stage (lam != 0, the Dinkelbach rounds) boosts every step
    (`_boost`): a line search along the step's direction, accepted by an
    Armijo test on the true stage objective, so the objective still never
    falls; the next step starts at the boosted point and evaluates its
    concave half there afresh. The stages without a price keep the plain
    DC step. Their objective is flat along a ridge, so a change of path
    changes where such a stage stops (the stop test is on the gain per
    step): boosting them lowered the SE solver's sum secrecy rate by
    1.0e-4 to 1.8e-4 at every point of the benchmark's sweep.

    Records the objective sequence in trace (the objective where each
    step ends, after its boost), counts a stage that stops at max_inner
    in trace.stage_caps and logs one DEBUG line per stage; returns the
    last iterate, its objective and whether the loop converged."""
    debug = log.isEnabledFor(logging.DEBUG)
    if debug:
        t0 = perf_counter()
        calls0, iterations0 = trace.kernel_stops.total(), trace.kernel_iterations
        boosts0, trials0 = trace.boosts, trace.boost_trials
    values = [start]
    converged = False
    point = x.flat()
    concave = None  # the concave half's record at point, from the last DC step
    for _ in range(options.max_inner):
        x_prev = point
        point, concave = _dc_step(stage, point, options, trace, concave)
        if not all(0.0 <= v < math.inf for v in point.tolist()):
            raise ValueError(
                "%s DC step left the finite nonnegative powers: %r" % (stage.side, point)
            )
        value = stage.objective(point)
        if stage.priced:
            boosted, value = _boost(stage, x_prev, point, value, trace)
            if boosted is not point:
                point, concave = boosted, None
        values.append(value)
        if values[-1] - values[-2] < options.inner_tol:
            converged = True
            break
    trace.step_values.append(values)
    if not converged:
        trace.stage_caps += 1
    if debug:
        log.debug(
            "%s DC stage: %d steps, %d kernel calls, %d kernel iterations, "
            "%d boosts of %d trials, objective %.10g -> %.10g, %s, %.3g s",
            stage.side, len(values) - 1, trace.kernel_stops.total() - calls0,
            trace.kernel_iterations - iterations0,
            trace.boosts - boosts0, trace.boost_trials - trials0,
            values[0], values[-1],
            "converged" if converged else "stopped at max_inner=%d" % options.max_inner,
            perf_counter() - t0,
        )
    if point is not x.flat():
        x = type(x).from_flat(cfg, point)
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
    p0 at q0 with lam = 0: its powers, objective sequence and counts are
    taken as they are, and its start value is the solve's.

    The first value of trace.outer_values is the stage objective at
    (p0, q0), which the first uplink stage computes."""
    outer_tol = options.outer_tol if outer_tol is None else outer_tol
    p, q = p0, q0
    trace = SolverTrace()
    if first_uplink is None:
        uplink = _uplink_stage(cfg, q, p_max, lam, circuit_power)
        trace.outer_values.append(uplink.objective(p.flat()))
    else:
        uplink = None
        trace.outer_values.append(first_uplink[3].step_values[0][0])

    for outer in range(options.max_outer):
        # Uplink stage at fixed downlink powers.
        if outer:
            uplink = _uplink_stage(cfg, q, p_max, lam, circuit_power)
        if uplink is not None:
            p, r_up, _ = _dc_stage(cfg, uplink, p, trace.outer_values[-1], options, trace)
        else:
            p, _, _, stage_trace = first_uplink
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
    an_fraction: float = 0.2,
    _uplink=None,
) -> tuple[UplinkPower, DownlinkPower, RateReport, SolverTrace]:
    """Alternating DC maximization of the sum secrecy rate.

    Starts from the fixed baseline allocation with AN share an_fraction,
    so the first trace value is the baseline's objective and every later
    value records the improvement over it.

    Its first uplink stage, at lambda = 0 from the fixed split, is the
    stage `baseline_uplink_se` solves. A caller that has run
    `baseline_uplink_se(cfg, p_max, q_max, options, an_fraction)`, with
    the same split, may pass its result as `_uplink`: the solve then
    takes that stage's powers, objective sequence and kernel counts
    instead of solving it again (so that stage's DEBUG line is the
    baseline's), and returns what a fresh solve returns, bit for bit.
    """
    options = options or SolveOptions()
    p0, q0 = baseline_fixed(cfg, p_max, q_max, an_fraction)
    p, q, trace = _alternate(cfg, p_max, q_max, p0, q0, options, first_uplink=_uplink)
    _report_kernel("maximize_se", trace)
    report = secrecy_report(cfg, p, q)
    return p, q, report, trace


def _scaled_start(cfg: SystemConfig, p: UplinkPower, q: DownlinkPower, circuit_power: float):
    """The Dinkelbach start (p', q', lambda_0): of t x (p, q) for 61
    values of t log-spaced on [1e-6, 1], the one whose smooth secrecy sum
    has the highest positive ratio to its total power plus circuit_power,
    with that ratio; zero powers and 0.0 when no t gives a positive ratio.
    The rates are closed-form, evaluated on flat arrays. Logs one DEBUG
    line with t and lambda_0."""
    p_flat, q_flat = p.flat(), q.flat()
    power = p.total() + q.total()
    best, lam = 0.0, 0.0
    for t in np.logspace(-6.0, 0.0, 61).tolist():
        legit, eaves = _flat_rates(cfg, _rho(cfg, t * p_flat), t * q_flat)
        ratio = float(np.add.reduce(legit - eaves)) / (t * power + circuit_power)
        if ratio > lam:
            best, lam = t, ratio
    p = UplinkPower.from_flat(cfg, best * p_flat)
    q = DownlinkPower.from_flat(cfg, best * q_flat)
    if best:
        lam = smooth_secrecy_sum(cfg, p, q) / (p.total() + q.total() + circuit_power)
    log.debug("maximize_ee start: %.3g x the fixed split, lambda_0 %.10g", best, lam)
    return p, q, lam


def maximize_ee(
    cfg: SystemConfig,
    p_max,
    q_max: float,
    circuit_power: float,
    options: SolveOptions | None = None,
    an_fraction: float = 0.2,
) -> tuple[UplinkPower, DownlinkPower, float, SolverTrace]:
    """Dinkelbach maximization of secrecy energy efficiency.

    The loop starts at the best scaled fixed split (`_scaled_start`): t
    times the fixed split with AN share an_fraction, for the t whose
    smooth secrecy sum has the highest ratio to the consumed power, with
    lambda_0 equal to that ratio; or at zero powers with lambda_0 = 0 when
    no t gives a positive ratio. Dinkelbach's method converges from any
    feasible start whose ratio is lambda_0, and a lambda_0 near the
    optimum saves the rounds that would creep down from full power.

    Each round maximizes the subtractive objective (secrecy sum - lambda
    * total power) with the alternating solver warm-started at the
    previous allocation, then updates lambda to the achieved ratio. The
    subtractive value is 0 at each round's start, and the alternation
    never lowers it, so each round ends with a nonnegative value and the
    lambda sequence is nondecreasing. The loop stops once that value is
    at most ee_tol and at most ee_tol times the consumed power: the
    optimum's ratio exceeds lambda by at most the value over the optimum's
    power, so the second test keeps that gap near ee_tol when little
    power is consumed.

    A round's stages carry the power price lambda, so their DC steps are
    boosted (`_boost`); a round at lambda = 0 takes plain steps. A boost
    is accepted only where it raises the true stage objective, so the
    alternation still never lowers the subtractive value.
    """
    _check_circuit_power(circuit_power)
    options = options or SolveOptions()
    p, q, lam = _scaled_start(cfg, *baseline_fixed(cfg, p_max, q_max, an_fraction), circuit_power)
    trace = SolverTrace(lambda_sequence=[lam])

    for _ in range(options.ee_max_outer):
        p, q, round_trace = _alternate(
            cfg, p_max, q_max, p, q, options, lam=lam, circuit_power=circuit_power,
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
        if f_hat <= options.ee_tol * min(1.0, denom):
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
    an_fraction: float = 0.2,
) -> tuple[UplinkPower, DownlinkPower, RateReport, SolverTrace]:
    """Uplink pinned at its cap; one downlink DC loop to convergence from
    the fixed split with AN share an_fraction."""
    options = options or SolveOptions()
    p, q = baseline_fixed(cfg, p_max, q_max, an_fraction)
    trace = SolverTrace()
    stage = _downlink_stage(cfg, compute_rho(cfg, p), q_max)
    q, _, trace.converged = _dc_stage(cfg, stage, q, stage.objective(q.flat()), options, trace)
    trace.outer_values = trace.step_values[0]
    return p, q, secrecy_report(cfg, p, q), trace


def baseline_uplink_se(
    cfg: SystemConfig,
    p_max,
    q_max: float,
    options: SolveOptions | None = None,
    an_fraction: float = 0.2,
) -> tuple[UplinkPower, DownlinkPower, RateReport, SolverTrace]:
    """Downlink pinned at the fixed split with AN share an_fraction; one
    uplink DC loop."""
    options = options or SolveOptions()
    p, q = baseline_fixed(cfg, p_max, q_max, an_fraction)
    trace = SolverTrace()
    stage = _uplink_stage(cfg, q, p_max)
    p, _, trace.converged = _dc_stage(cfg, stage, p, stage.objective(p.flat()), options, trace)
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
    an_fraction: float = 0.2,
) -> OmaResult:
    """Optimized orthogonal benchmark: slot t serves the t-th user of
    every cluster with the full power budgets, allocated by the same SE
    solver (from the fixed split with AN share an_fraction) on the
    one-user-per-cluster layout; rates (and powers, for the efficiency
    figure) are averaged over the K slots."""
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
        p_t, q_t, report_t, trace_t = maximize_se(slot_cfg, p_max, q_max, options, an_fraction)
        slots.append((p_t, q_t, report_t, trace_t))
        se_sum += report_t.sum_secrecy
        power_sum += p_t.total() + q_t.total()
    se = se_sum / k_total
    ee = None
    if circuit_power is not None:
        ee = se / (power_sum / k_total + circuit_power)
    return OmaResult(se=se, ee=ee, slots=tuple(slots))
