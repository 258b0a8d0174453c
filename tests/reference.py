"""Reference computations the tests compare the program with: central
finite differences, and the Dinkelbach start and loop of the EE solver
written out from their definitions."""

import numpy as np

from noma_secrecy.model import DownlinkPower, UplinkPower
from noma_secrecy.optimize import SolveOptions, _alternate, baseline_fixed, smooth_secrecy_sum
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
