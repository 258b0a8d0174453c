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

A stage holds one side's powers fixed, so its forms and its feasible set
(the per-user box on the uplink, the capped nonnegative set on the
downlink) are built once per stage, by `_uplink_stage` and
`_downlink_stage`, and every DC step of the stage reuses them. One stage
loop, `_dc_stage`, serves the SE solver, each Dinkelbach round of the EE
solver and both baselines; the public one-step functions
`uplink_dc_step` and `downlink_dc_step` run one step on the same stage.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

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
from .rates import RateReport, _check_circuit_power, _flat_rates, energy_efficiency, secrecy_report

__all__ = [
    "SolveOptions",
    "SolverTrace",
    "OmaResult",
    "uplink_objective",
    "downlink_objective",
    "uplink_dc_step",
    "downlink_dc_step",
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

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Value and exact gradient (1/ln 2 included) at x."""
        args = self.A @ x + self.b
        if np.any(args <= 0.0):
            # Cannot happen for nonnegative powers (every argument is an
            # interference-plus-noise power, in the uplink times the pilot
            # normalizer, so positive); guard against stray inputs.
            raise FloatingPointError("non-positive log argument")
        return float(self.w @ np.log2(args)), self.A.T @ (self.w / args) / _LN2


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


def _uplink_forms(cfg: SystemConfig, coeffs) -> tuple[LogAffine, LogAffine]:
    """The halves f1 (slope c = (a1 + a2) beta tau in the own power) and
    f2 (c = a2 beta tau) of the uplink sum."""
    a1, a2, a3 = coeffs
    bt = cfg.flat_betas * cfg.pilot_len
    same_cluster = cfg.cluster_of[:, None] == cfg.cluster_of
    normalizer = a3[:, None] * same_cluster * bt
    ones = np.ones(cfg.total_users)
    return tuple(LogAffine(np.diag(c * bt) + normalizer, a3, ones) for c in (a1 + a2, a2))


def uplink_objective(
    cfg: SystemConfig,
    q: DownlinkPower,
    p: UplinkPower,
    penalty: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Sum legitimate rate as a function of the uplink powers (downlink
    fixed), minus penalty * total uplink power; with its gradient.

    The eavesdropping rates do not depend on the uplink powers, so this
    differs from the secrecy sum only by a constant.
    """
    return _objective(cfg, _uplink_forms(cfg, _uplink_coeffs(cfg, q)), p.flat(), penalty)


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


def downlink_objective(
    cfg: SystemConfig,
    rho: EstimationQuality,
    q: DownlinkPower,
    penalty: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Smooth (unclamped) sum secrecy rate as a function of the downlink
    powers at fixed estimation quality, minus penalty * total downlink
    power; with its gradient."""
    return _objective(cfg, _downlink_forms(cfg, _downlink_coeffs(cfg, rho)), q.flat(), penalty)


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
    kernel_stops counts the projected-gradient calls of every DC step by
    stop reason ("stationary", "floor" or "cap"; see `SolveResult`), and
    stage_caps the DC stages that ran max_inner steps while still gaining
    at least inner_tol per step.
    """

    outer_values: list[float] = field(default_factory=list)
    step_values: list[list[float]] = field(default_factory=list)
    epsilons: list[float] = field(default_factory=list)
    lambda_sequence: list[float] = field(default_factory=list)
    kernel_stops: Counter[str] = field(default_factory=Counter)
    stage_caps: int = 0
    converged: bool = False


def _uplink_stage(cfg: SystemConfig, q: DownlinkPower, p_max):
    """The uplink stage at fixed downlink powers: its forms (f1, f2) and
    the per-user box [0, p_max]."""
    forms = _uplink_forms(cfg, _uplink_coeffs(cfg, q))
    return forms, Box(lower=np.zeros(cfg.total_users), upper=UplinkPower.full(cfg, p_max).flat())


def _downlink_stage(cfg: SystemConfig, rho: EstimationQuality, q_max: float):
    """The downlink stage at fixed estimation quality: its forms
    (g1 + g3, g2 + g4) and the capped nonnegative set."""
    return _downlink_forms(cfg, _downlink_coeffs(cfg, rho)), CappedSimplex(cap=q_max)


def _dc_step(cfg: SystemConfig, stage, x_prev, penalty, options, trace) -> np.ndarray:
    """One DC iteration of a stage (its forms and feasible set) from
    x_prev: maximize the concave surrogate
    overhead * (concave(x) - sub(x_prev) - <grad sub(x_prev), x - x_prev>)
    - penalty * sum x over the feasible set. The kernel's stop reason is
    counted in trace.kernel_stops when a trace is given."""
    (concave, sub), feasible_set = stage
    scale = cfg.overhead
    sub_prev, sub_grad_prev = sub.evaluate(x_prev)
    lin = scale * sub_grad_prev
    const = -scale * sub_prev + float(lin @ x_prev)

    def surrogate(x):
        value, grad = concave.evaluate(x)
        value = scale * value - penalty * float(x.sum()) - float(lin @ x) + const
        return value, scale * grad - penalty - lin

    problem = ConcaveProblem(dim=x_prev.size, evaluate=surrogate, feasible_set=feasible_set)
    result = maximize(
        problem,
        x_prev,
        tol=options.kernel_tol,
        max_iter=options.kernel_max_iter,
    )
    if trace is not None:
        trace.kernel_stops[result.stop] += 1
    return result.point


def uplink_dc_step(
    cfg: SystemConfig,
    q: DownlinkPower,
    p_prev: UplinkPower,
    p_max,
    penalty: float = 0.0,
    options: SolveOptions | None = None,
    trace: SolverTrace | None = None,
) -> UplinkPower:
    """One DC iteration of the uplink subproblem: maximize the concave
    surrogate f1(P) - <grad f2(P_prev), P> (- penalty * sum P) over the
    per-user box. The kernel's stop reason is counted in `trace`, if
    given."""
    stage = _uplink_stage(cfg, q, p_max)
    point = _dc_step(cfg, stage, p_prev.flat(), penalty, options or SolveOptions(), trace)
    return UplinkPower.from_flat(cfg, point)


def downlink_dc_step(
    cfg: SystemConfig,
    rho: EstimationQuality,
    q_prev: DownlinkPower,
    q_max: float,
    penalty: float = 0.0,
    options: SolveOptions | None = None,
    trace: SolverTrace | None = None,
) -> DownlinkPower:
    """One DC iteration of the downlink subproblem: maximize the concave
    surrogate g1(Q) + g3(Q) - <grad (g2+g4)(Q_prev), Q> (- penalty *
    sum Q) over the capped nonnegative set. The kernel's stop reason is
    counted in `trace`, if given."""
    stage = _downlink_stage(cfg, rho, q_max)
    point = _dc_step(cfg, stage, q_prev.flat(), penalty, options or SolveOptions(), trace)
    return DownlinkPower.from_flat(cfg, point)


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


def _warn_cap_hits(solver: str, trace: SolverTrace) -> None:
    caps = trace.kernel_stops["cap"]
    if caps:
        log.warning(
            "%s: %d of %d kernel calls stopped at the iteration cap",
            solver, caps, trace.kernel_stops.total(),
        )


def _dc_stage(
    cfg: SystemConfig, stage, objective, x, start: float, penalty: float,
    options: SolveOptions, trace: SolverTrace,
):
    """Repeat the DC step of `stage` (its forms and feasible set, built
    once) from the powers x, whose stage objective is `start`, until the
    objective gains less than inner_tol (converged) or max_inner steps
    have run. Records the objective sequence in trace and counts a stage
    that stops at max_inner in trace.stage_caps; returns the last iterate,
    its objective and whether the loop converged."""
    values = [start]
    converged = False
    for _ in range(options.max_inner):
        x = type(x).from_flat(cfg, _dc_step(cfg, stage, x.flat(), penalty, options, trace))
        values.append(objective(x))
        if values[-1] - values[-2] < options.inner_tol:
            converged = True
            break
    trace.step_values.append(values)
    if not converged:
        trace.stage_caps += 1
        log.debug(
            "DC stage stopped at max_inner=%d steps: objective %.10g -> %.10g",
            options.max_inner, values[0], values[-1],
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
) -> tuple[UplinkPower, DownlinkPower, SolverTrace]:
    """Alternating uplink/downlink DC solve of the (optionally power-
    penalized) smooth secrecy sum."""
    outer_tol = options.outer_tol if outer_tol is None else outer_tol
    p, q = p0, q0
    trace = SolverTrace()
    trace.outer_values.append(_stage_objective(cfg, p, q, lam, circuit_power))

    for _ in range(options.max_outer):
        # Uplink stage at fixed downlink powers.
        p, r_up, _ = _dc_stage(
            cfg, _uplink_stage(cfg, q, p_max),
            partial(_stage_objective, cfg, q=q, lam=lam, circuit_power=circuit_power),
            p, trace.outer_values[-1], lam, options, trace,
        )
        trace.outer_values.append(r_up)

        # Downlink stage at the resulting estimation quality.
        q, r_down, _ = _dc_stage(
            cfg, _downlink_stage(cfg, compute_rho(cfg, p), q_max),
            partial(_stage_objective, cfg, p, lam=lam, circuit_power=circuit_power),
            q, r_up, lam, options, trace,
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
) -> tuple[UplinkPower, DownlinkPower, RateReport, SolverTrace]:
    """Alternating DC maximization of the sum secrecy rate.

    Starts from the fixed baseline allocation, so the first trace value
    is the baseline's objective and every later value records the
    improvement over it.
    """
    options = options or SolveOptions()
    p0, q0 = baseline_fixed(cfg, p_max, q_max)
    p, q, trace = _alternate(cfg, p_max, q_max, p0, q0, options)
    _warn_cap_hits("maximize_se", trace)
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
        trace.kernel_stops.update(round_trace.kernel_stops)
        trace.stage_caps += round_trace.stage_caps
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

    _warn_cap_hits("maximize_ee", trace)
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
    q, _, trace.converged = _dc_stage(
        cfg, _downlink_stage(cfg, compute_rho(cfg, p), q_max), partial(smooth_secrecy_sum, cfg, p),
        q, smooth_secrecy_sum(cfg, p, q), 0.0, options, trace,
    )
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
    p, _, trace.converged = _dc_stage(
        cfg, _uplink_stage(cfg, q, p_max), partial(smooth_secrecy_sum, cfg, q=q),
        p, smooth_secrecy_sum(cfg, p, q), 0.0, options, trace,
    )
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
