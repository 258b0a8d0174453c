"""Reference computations the tests compare the program with: central
finite differences, the Dinkelbach start and loop of the EE solver
written out from their definitions, the DC stage loop without boosts,
and the Monte Carlo check of the channel estimates' error split."""

import math

import numpy as np

from noma_secrecy.model import DownlinkPower, UplinkPower, compute_rho
from noma_secrecy.montecarlo import MomentStat, _chunk_loop, _estimate, _mean_se
from noma_secrecy.optimize import (
    SolveOptions,
    _alternate,
    _dc_step,
    baseline_fixed,
    smooth_secrecy_sum,
)
from noma_secrecy.rates import energy_efficiency, secrecy_report


def finite_difference_gradient(func, x, step: float = 1e-6) -> np.ndarray:
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


def best_scaled_ratio(cfg, p_max, q_max, circuit_power, an_fraction=0.2) -> float:
    """The highest ratio of the smooth secrecy sum to the consumed power
    over t x the fixed split, t on 61 log-spaced points of [1e-6, 1]; 0.0
    when no ratio is positive."""
    p, q = baseline_fixed(cfg, p_max, q_max, an_fraction)
    best = 0.0
    for t in np.logspace(-6.0, 0.0, 61):
        pt = UplinkPower.from_flat(cfg, t * p.flat())
        qt = DownlinkPower.from_flat(cfg, t * q.flat())
        best = max(best, smooth_secrecy_sum(cfg, pt, qt) / (pt.total() + qt.total() + circuit_power))
    return best


def ee_from_lambda_zero(cfg, p_max, q_max, circuit_power, options=SolveOptions()) -> float:
    """The secrecy energy efficiency the EE solver reached before its
    scaled start: Dinkelbach from lambda = 0 at the full-budget fixed
    split, or at zero powers when that split's smooth sum is negative."""
    p, q = baseline_fixed(cfg, p_max, q_max)
    if smooth_secrecy_sum(cfg, p, q) < 0.0:
        p, q = UplinkPower.full(cfg, 0.0), DownlinkPower.zeros(cfg)
    lam = 0.0
    for _ in range(options.ee_max_outer):
        p, q, _ = _alternate(
            cfg, p_max, q_max, p, q, options, lam=lam, circuit_power=circuit_power,
            outer_tol=options.ee_outer_tol,
        )
        se_smooth = smooth_secrecy_sum(cfg, p, q)
        denom = p.total() + q.total() + circuit_power
        f_hat = se_smooth - lam * denom
        if f_hat < -lam * circuit_power:
            p, q = UplinkPower.full(cfg, 0.0), DownlinkPower.zeros(cfg)
            se_smooth, denom, f_hat = 0.0, circuit_power, -lam * circuit_power
        lam = se_smooth / denom
        if f_hat <= options.ee_tol:
            break
    return energy_efficiency(secrecy_report(cfg, p, q), p, q, circuit_power)


def plain_dc_stage(cfg, stage, x, start, options, trace):
    """`optimize._dc_stage` with the plain DC step on every stage, priced
    or not: the stage loop before the Dinkelbach rounds' steps were
    boosted. Same arguments and results, without the DEBUG line."""
    values = [start]
    converged = False
    point, concave = x.flat(), None
    for _ in range(options.max_inner):
        point, concave = _dc_step(stage, point, options, trace, concave)
        values.append(stage.objective(point))
        if values[-1] - values[-2] < options.inner_tol:
            converged = True
            break
    trace.step_values.append(values)
    trace.stage_caps += not converged
    return type(x).from_flat(cfg, point), values[-1], converged


def error_decomposition_check(cfg, p, n_trials, seed) -> list[MomentStat]:
    """Consistency of the realized estimates with the error split
    h = sqrt(rho) h_hat + sqrt(1 - rho) eps, on the Monte Carlo engine's
    trials.

    Checks, per user, the estimate/channel correlation against
    sqrt(rho_{m,k} rho_m^tot) N_t (rho_m^tot is the per-entry variance of
    the raw estimate) and the estimate/error correlation against zero.
    """
    rho = compute_rho(cfg, p)
    cluster_of = cfg.cluster_of

    def chunk(rngs, rows, y, _an):
        h = rows[:, :-1]
        h_hat = _estimate(cfg, p, h, y)
        return np.vecdot(h_hat[:, cluster_of], h), np.vecdot(h_hat, h_hat).real

    corr, norm_sq = _chunk_loop(cfg, n_trials, seed, chunk)

    # With h_unit = h_hat / sqrt(rho_tot) and eps = (h - sqrt(r) h_unit) /
    # sqrt(1 - r): <h_unit, eps> = (<h_hat, h> / sqrt(rho_tot) - sqrt(r)
    # ||h_hat||^2 / rho_tot) / sqrt(1 - r); zero where eps is undefined.
    r_u = rho.flat()
    tot_u = np.array([r.sum() for r in rho.rho])[cluster_of]
    with np.errstate(divide="ignore", invalid="ignore"):
        along = corr / np.sqrt(tot_u) - np.sqrt(r_u) * norm_sq[:, cluster_of] / tot_u
        eps_corr = np.where((tot_u > 0.0) & (r_u < 1.0), along / np.sqrt(1.0 - r_u), 0.0)

    stats = []
    rank = np.arange(cfg.total_users) - cfg.user_offsets[cluster_of]
    for u, (m, k) in enumerate(zip(cluster_of.tolist(), rank.tolist())):
        pred = math.sqrt(r_u[u] * tot_u[u]) * cfg.n_antennas
        for name, samples, predicted in (
            ("estimate_correlation_re", corr[:, u].real, pred),
            ("estimate_correlation_im", corr[:, u].imag, 0.0),
            ("error_correlation_re", eps_corr[:, u].real, 0.0),
        ):
            mean, se = _mean_se(samples)
            stats.append(MomentStat(name, m, k, mean, predicted, se))
    return stats
