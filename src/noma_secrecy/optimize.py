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

Gradients are derived from the log-argument definitions (base-2 logs, so
every term carries a 1/ln 2 factor) and are validated against central
finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .rates import RateReport, _flat_rates, energy_efficiency, secrecy_report

__all__ = [
    "DcCoefficients",
    "SolveOptions",
    "SolverTrace",
    "OmaResult",
    "dc_coefficients",
    "uplink_log_arguments",
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


@dataclass(frozen=True)
class DcCoefficients:
    """Per-user affine-form coefficients of the two DC decompositions.

    a1..a3 parameterize the uplink objective at fixed downlink powers:
    each user's rate is log2 of a ratio of affine functions of the
    uplink powers, with

        a1 = Q_{m,k} beta_{m,k} N_t
        a2 = beta_{m,k} [(N_t - 1) sum_{i<k} Q_{m,i} - Q_{m,0} - Q_{m,k}]
        a3 = beta_{m,k} sum_{i<=k} Q_{m,i} (AN included)
             + beta_{m,k} sum_{j!=m} sum_i Q_{j,i} + 1

    b1..b3 parameterize the downlink objective at fixed estimation
    quality:

        b1 = rho beta N_t,  b2 = beta (1 - rho),  b3 = beta (rho N_t + 1 - rho).
    """

    a1: tuple[np.ndarray, ...]
    a2: tuple[np.ndarray, ...]
    a3: tuple[np.ndarray, ...]
    b1: tuple[np.ndarray, ...]
    b2: tuple[np.ndarray, ...]
    b3: tuple[np.ndarray, ...]


def _uplink_coeffs(cfg: SystemConfig, q: DownlinkPower):
    """a1, a2, a3 of every user, flat."""
    nt = cfg.n_antennas
    beta = cfg.flat_betas
    users, an, prefix, inter = cfg.user_powers(q.flat())
    a1 = users * beta * nt
    a2 = beta * ((nt - 1.0) * prefix - an - users)
    a3 = beta * (an + prefix + users) + beta * inter + 1.0
    return a1, a2, a3


def _downlink_coeffs(cfg: SystemConfig, rho: EstimationQuality):
    """b1, b2, b3 of every user, flat."""
    nt = cfg.n_antennas
    beta = cfg.flat_betas
    r = np.concatenate(rho.rho)
    return r * beta * nt, beta * (1.0 - r), beta * (r * nt + 1.0 - r)


def dc_coefficients(
    cfg: SystemConfig, q: DownlinkPower, rho: EstimationQuality
) -> DcCoefficients:
    a1, a2, a3 = (cfg.split_users(a) for a in _uplink_coeffs(cfg, q))
    b1, b2, b3 = (cfg.split_users(b) for b in _downlink_coeffs(cfg, rho))
    return DcCoefficients(a1=a1, a2=a2, a3=a3, b1=b1, b2=b2, b3=b3)


# ---------------------------------------------------------------------------
# Uplink objective: sum_k log2 f1_k - log2 f2_k per cluster, both arguments
# affine in the uplink powers and structurally positive for P >= 0.


def _uplink_args(cfg: SystemConfig, coeffs, p_flat: np.ndarray):
    """The log arguments f1, f2 of every user at the flat uplink powers,
    with their slopes c1, c2 in the user's own power and the pilot-energy
    normalizer (1 + tau sum beta P) of its cluster."""
    a1, a2, a3 = coeffs
    bt = cfg.flat_betas * cfg.pilot_len
    norm = 1.0 + cfg.cluster_totals(bt * p_flat)
    c1 = (a1 + a2) * bt
    c2 = a2 * bt
    return c1 * p_flat + a3 * norm, c2 * p_flat + a3 * norm, c1, c2


def _uplink_parts(cfg: SystemConfig, coeffs, p_flat: np.ndarray):
    """Values and gradients of the two concave halves of the uplink sum.

    Returns (f1_value, f1_grad, f2_value, f2_grad) where the values are
    sums of base-2 logs and the gradients are exact (1/ln 2 included).
    """
    args1, args2, c1, c2 = _uplink_args(cfg, coeffs, p_flat)
    if np.any(args1 <= 0.0) or np.any(args2 <= 0.0):
        # Cannot happen for P >= 0 (both arguments are the product of
        # two positive physical factors); guard against stray inputs.
        raise FloatingPointError("non-positive log argument in uplink objective")
    a3 = coeffs[2]
    bt = cfg.flat_betas * cfg.pilot_len
    e1 = 1.0 / args1
    e2 = 1.0 / args2
    grad1 = (c1 * e1 + bt * cfg.cluster_totals(a3 * e1)) / _LN2
    grad2 = (c2 * e2 + bt * cfg.cluster_totals(a3 * e2)) / _LN2
    return float(np.log2(args1).sum()), grad1, float(np.log2(args2).sum()), grad2


def uplink_log_arguments(cfg: SystemConfig, q: DownlinkPower, p: UplinkPower):
    """The affine log arguments (f1, f2) of the uplink decomposition,
    flattened across clusters. f2 equals (total interference + 1) times
    the pilot-energy normalizer (1 + tau sum beta P), hence positive."""
    return _uplink_args(cfg, _uplink_coeffs(cfg, q), p.flat())[:2]


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
    coeffs = _uplink_coeffs(cfg, q)
    p_flat = p.flat()
    f1_value, f1_grad, f2_value, f2_grad = _uplink_parts(cfg, coeffs, p_flat)
    scale = cfg.overhead
    value = scale * (f1_value - f2_value) - penalty * float(p_flat.sum())
    grad = scale * (f1_grad - f2_grad) - penalty
    return value, grad


# ---------------------------------------------------------------------------
# Downlink objective: per user, concave part (g1 + g3) minus concave part
# (g2 + g4), all four being logs of affine functions of the downlink powers.


def _downlink_parts(cfg: SystemConfig, coeffs, q_flat: np.ndarray):
    """Values/gradients of the concave (g1+g3) and subtracted (g2+g4)
    halves of the downlink secrecy sum (1/ln 2 included in gradients)."""
    b1, b2, b3 = coeffs
    beta_e = cfg.eav_gain
    beta = cfg.flat_betas
    n_users = cfg.total_users
    c = cfg.cluster_of
    starts = cfg.user_offsets

    users, an, stronger, s_other = cfg.user_powers(q_flat)
    q_total = float(q_flat.sum())
    g4_arg = beta_e * q_total + 1.0

    den2 = b2 * (users + an) + b3 * stronger + beta * s_other + 1.0
    g1_arg = den2 + b1 * users
    g3_arg = beta_e * (q_total - users) + 1.0
    concave_value = float(np.log2(g1_arg).sum() + np.log2(g3_arg).sum())
    sub_value = n_users * math.log2(g4_arg) + float(np.log2(den2).sum())
    e1 = 1.0 / g1_arg
    e2 = 1.0 / den2
    e3 = 1.0 / g3_arg

    # A slot's power enters the cross terms of every other cluster's users
    # (t1, t2: per-cluster sums of beta e), its own cluster's terms through
    # b2 (AN slot) or b3 (the weaker users' sums), and every eavesdropper
    # log.
    t1 = np.add.reduceat(beta * e1, starts)
    t2 = np.add.reduceat(beta * e2, starts)
    cross1 = t1.sum() - t1
    cross2 = t2.sum() - t2
    e3_total = e3.sum()
    g4_term = n_users * beta_e / g4_arg

    def weaker_sums(values):
        return cfg.cluster_totals(values) - cfg.stronger_sums(values) - values

    concave_grad = np.empty(q_flat.size)
    sub_grad = np.empty(q_flat.size)
    concave_grad[cfg.slot_offsets] = (
        np.add.reduceat(b2 * e1, starts) + cross1 + beta_e * e3_total
    )
    sub_grad[cfg.slot_offsets] = np.add.reduceat(b2 * e2, starts) + cross2 + g4_term
    concave_grad[cfg.user_slots] = (
        (b1 + b2) * e1 + weaker_sums(b3 * e1) + cross1[c] + beta_e * (e3_total - e3)
    )
    sub_grad[cfg.user_slots] = b2 * e2 + weaker_sums(b3 * e2) + cross2[c] + g4_term
    return concave_value, concave_grad / _LN2, sub_value, sub_grad / _LN2


def downlink_objective(
    cfg: SystemConfig,
    rho: EstimationQuality,
    q: DownlinkPower,
    penalty: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Smooth (unclamped) sum secrecy rate as a function of the downlink
    powers at fixed estimation quality, minus penalty * total downlink
    power; with its gradient."""
    coeffs = _downlink_coeffs(cfg, rho)
    q_flat = q.flat()
    cval, cgrad, sval, sgrad = _downlink_parts(cfg, coeffs, q_flat)
    scale = cfg.overhead
    value = scale * (cval - sval) - penalty * float(q_flat.sum())
    grad = scale * (cgrad - sgrad) - penalty
    return value, grad


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
    """

    outer_values: list[float] = field(default_factory=list)
    inner_iteration_counts: list[int] = field(default_factory=list)
    step_values: list[list[float]] = field(default_factory=list)
    epsilons: list[float] = field(default_factory=list)
    lambda_sequence: list[float] = field(default_factory=list)
    converged: bool = False


def _pmax_flat(cfg: SystemConfig, p_max) -> np.ndarray:
    if np.isscalar(p_max):
        return np.full(cfg.total_users, float(p_max))
    return UplinkPower.full(cfg, p_max).flat()


def uplink_dc_step(
    cfg: SystemConfig,
    q: DownlinkPower,
    p_prev: UplinkPower,
    p_max,
    penalty: float = 0.0,
    options: SolveOptions | None = None,
) -> UplinkPower:
    """One DC iteration of the uplink subproblem: maximize the concave
    surrogate f1(P) - <grad f2(P_prev), P> (- penalty * sum P) over the
    per-user box."""
    options = options or SolveOptions()
    coeffs = _uplink_coeffs(cfg, q)
    scale = cfg.overhead
    prev_flat = p_prev.flat()
    _, _, f2_prev, f2_grad_prev = _uplink_parts(cfg, coeffs, prev_flat)
    lin = scale * f2_grad_prev
    const = -scale * f2_prev + float(lin @ prev_flat)

    def surrogate(x):
        f1_value, f1_grad, _, _ = _uplink_parts(cfg, coeffs, x)
        value = scale * f1_value - penalty * float(x.sum()) - float(lin @ x) + const
        grad = scale * f1_grad - penalty - lin
        return value, grad

    box = Box(lower=np.zeros(cfg.total_users), upper=_pmax_flat(cfg, p_max))
    problem = ConcaveProblem(dim=cfg.total_users, evaluate=surrogate, feasible_set=box)
    result = maximize(
        problem,
        prev_flat,
        tol=options.kernel_tol,
        max_iter=options.kernel_max_iter,
    )
    return UplinkPower.from_flat(cfg, result.point)


def downlink_dc_step(
    cfg: SystemConfig,
    rho: EstimationQuality,
    q_prev: DownlinkPower,
    q_max: float,
    penalty: float = 0.0,
    options: SolveOptions | None = None,
) -> DownlinkPower:
    """One DC iteration of the downlink subproblem: maximize the concave
    surrogate g1(Q) + g3(Q) - <grad (g2+g4)(Q_prev), Q> (- penalty *
    sum Q) over the capped nonnegative set."""
    options = options or SolveOptions()
    coeffs = _downlink_coeffs(cfg, rho)
    scale = cfg.overhead
    prev_flat = q_prev.flat()
    _, _, sub_prev, sub_grad_prev = _downlink_parts(cfg, coeffs, prev_flat)
    lin = scale * sub_grad_prev
    const = -scale * sub_prev + float(lin @ prev_flat)

    def surrogate(x):
        cval, cgrad, _, _ = _downlink_parts(cfg, coeffs, x)
        value = scale * cval - penalty * float(x.sum()) - float(lin @ x) + const
        grad = scale * cgrad - penalty - lin
        return value, grad

    dim = cfg.total_users + cfg.n_clusters
    problem = ConcaveProblem(
        dim=dim, evaluate=surrogate, feasible_set=CappedSimplex(cap=q_max)
    )
    result = maximize(
        problem,
        prev_flat,
        tol=options.kernel_tol,
        max_iter=options.kernel_max_iter,
    )
    return DownlinkPower.from_flat(cfg, result.point)


def smooth_secrecy_sum(cfg: SystemConfig, p: UplinkPower, q: DownlinkPower) -> float:
    """Unclamped sum of per-user (legitimate - eavesdropping) rates; the
    quantity the DC solvers actually maximize."""
    rho = compute_rho(cfg, p)
    legit, eaves = _flat_rates(cfg, np.concatenate(rho.rho), q.flat())
    return float((legit - eaves).sum())


def _stage_objective(cfg, p, q, lam, circuit_power) -> float:
    value = smooth_secrecy_sum(cfg, p, q)
    if lam != 0.0:
        value -= lam * (p.total() + q.total() + circuit_power)
    return value


def _dc_stage(step, objective, x, start: float, options: SolveOptions, trace: SolverTrace):
    """Repeat one DC step from x, whose stage objective is `start`, until
    the objective gains less than inner_tol (converged) or max_inner steps
    have run. Records the objective sequence in trace; returns the last
    iterate, its objective and whether the loop converged."""
    values = [start]
    converged = False
    for _ in range(options.max_inner):
        x = step(x)
        values.append(objective(x))
        if values[-1] - values[-2] < options.inner_tol:
            converged = True
            break
    trace.step_values.append(values)
    trace.inner_iteration_counts.append(len(values) - 1)
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
            lambda p: uplink_dc_step(cfg, q, p, p_max, penalty=lam, options=options),
            lambda p: _stage_objective(cfg, p, q, lam, circuit_power),
            p, trace.outer_values[-1], options, trace,
        )
        trace.outer_values.append(r_up)

        # Downlink stage at the resulting estimation quality.
        rho = compute_rho(cfg, p)
        q, r_down, _ = _dc_stage(
            lambda q: downlink_dc_step(cfg, rho, q, q_max, penalty=lam, options=options),
            lambda q: _stage_objective(cfg, p, q, lam, circuit_power),
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
    user_power = (1.0 - an_fraction) * q_max / cfg.total_users
    an_power = an_fraction * q_max / cfg.n_clusters
    rows = [
        np.concatenate(([an_power], np.full(k, user_power)))
        for k in cfg.users_per_cluster
    ]
    return p, DownlinkPower(tuple(rows))


def maximize_se(
    cfg: SystemConfig,
    p_max,
    q_max: float,
    options: SolveOptions | None = None,
    p0: UplinkPower | None = None,
    q0: DownlinkPower | None = None,
) -> tuple[UplinkPower, DownlinkPower, RateReport, SolverTrace]:
    """Alternating DC maximization of the sum secrecy rate.

    Starts from the fixed baseline allocation unless told otherwise, so
    the first trace value is the baseline's objective and every later
    value records the improvement over it.
    """
    options = options or SolveOptions()
    if p0 is None or q0 is None:
        p_init, q_init = baseline_fixed(cfg, p_max, q_max)
        p0 = p0 if p0 is not None else p_init
        q0 = q0 if q0 is not None else q_init
    p, q, trace = _alternate(cfg, p_max, q_max, p0, q0, options)
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
    if circuit_power <= 0.0:
        raise ValueError("circuit_power must be positive")
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
        p, q, sub = _alternate(
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
        trace.inner_iteration_counts.extend(sub.inner_iteration_counts)
        lam = se_smooth / denom
        trace.lambda_sequence.append(lam)
        if f_hat <= options.ee_tol:
            trace.converged = True
            break

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
    rho = compute_rho(cfg, p)
    trace = SolverTrace()
    q, _, trace.converged = _dc_stage(
        lambda q: downlink_dc_step(cfg, rho, q, q_max, options=options),
        lambda q: smooth_secrecy_sum(cfg, p, q),
        q, smooth_secrecy_sum(cfg, p, q), options, trace,
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
        lambda p: uplink_dc_step(cfg, q, p, p_max, options=options),
        lambda p: smooth_secrecy_sum(cfg, p, q),
        p, smooth_secrecy_sum(cfg, p, q), options, trace,
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
