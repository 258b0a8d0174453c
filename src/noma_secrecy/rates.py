"""Closed-form ergodic rates for the AN-aided massive MIMO-NOMA downlink.

All rates are in bits/s/Hz and include the pilot-overhead prefactor
(1 - tau/T). User k = 0 of a cluster is the strongest and cancels every
weaker user's signal before decoding its own, so its residual
intra-cluster interference comes from users 0..k-1 only; the
eavesdropper cancels nothing and sees every co-scheduled signal plus the
artificial noise.

Legitimate SINR of user (m, k):

    kappa / (I1 + I2 + I3 + 1)

    kappa = Q_{m,k} beta_{m,k} rho_{m,k} G          (aligned-beam gain)
    I1    = Q_{m,k} beta_{m,k} (1 - rho_{m,k})      (own-signal leakage)
    I2    = beta_{m,k} [ sum_{i<k} Q_{m,i} (rho N_t + 1 - rho)
                         + Q_{m,0} (1 - rho) ]      (intra-cluster + AN leak)
    I3    = beta_{m,k} sum_{j != m} sum_i Q_{j,i}   (inter-cluster + AN)

where G is the array gain: N_t by default, or the exact squared chi-mean
Gamma^2(N_t + 1/2) / Gamma^2(N_t) behind the `exact_gain` flag (used by
the Monte Carlo cross-checks; the difference vanishes as N_t grows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DownlinkPower,
    EstimationQuality,
    SystemConfig,
    UplinkPower,
    compute_rho,
)

__all__ = [
    "RateReport",
    "chi_mean",
    "array_gain",
    "secrecy_report",
    "asymptotic_large_nt",
    "asymptotic_high_power",
    "oma_report",
    "energy_efficiency",
]

def chi_mean(n_antennas: int) -> float:
    """Mean length of an N_t-dimensional unit-variance complex Gaussian
    vector: Gamma(N_t + 1/2) / Gamma(N_t), to about one ulp.

    The direct ratio is used while both gammas are far from overflow
    (N_t <= 170; Gamma overflows past 171.6). Above that, the asymptotic
    series in 1/N_t is truncated after seven terms, where the remainder
    is below 1e-16 relative.
    """
    n = n_antennas
    if n <= 170:
        return math.gamma(n + 0.5) / math.gamma(n)
    x = 1.0 / n
    series = -21 / 32768 + x * (-399 / 262144 + x * 869 / 4194304)
    series = 1.0 + x * (-1 / 8 + x * (1 / 128 + x * (5 / 1024 + x * series)))
    return math.sqrt(n) * series


def array_gain(n_antennas: int, exact: bool = False) -> float:
    """Coherent beamforming gain: N_t, or chi_mean^2 when exact=True."""
    if exact:
        return chi_mean(n_antennas) ** 2
    return float(n_antennas)


@dataclass(frozen=True)
class RateReport:
    """Per-user legitimate, eavesdropping and secrecy rates plus sums."""

    legit: tuple[np.ndarray, ...]
    eaves: tuple[np.ndarray, ...]
    secrecy: tuple[np.ndarray, ...]
    sum_secrecy: float


def _legit_terms(cfg: SystemConfig, rho_flat: np.ndarray, views, exact_gain: bool = False):
    """Every user's (kappa, I1, I2, I3) of the module docstring, noise
    excluded, from flat estimation qualities and the `user_powers` views
    of a flat downlink vector."""
    nt = cfg.n_antennas
    beta = cfg.flat_betas
    own, an, stronger, others = views
    beam = rho_flat * nt + 1.0 - rho_flat  # own-beam power, E|h^H w|^2

    kappa = own * beta * rho_flat * array_gain(nt, exact_gain)
    if exact_gain:
        im1 = own * beta * beam - kappa
    else:
        im1 = own * beta * (1.0 - rho_flat)
    im2 = beta * (stronger * beam + an * (1.0 - rho_flat))
    im3 = beta * others
    return kappa, im1, im2, im3


def _user_terms(
    cfg: SystemConfig, rho_flat: np.ndarray, q_flat: np.ndarray, exact_gain: bool = False
):
    """Every user's closed-form terms from flat estimation qualities and
    a flat downlink vector: (kappa, I1, I2, I3) of the module docstring,
    noise excluded, and the eavesdropper's signal and interference powers
    with beta_E factored out, so its SINR is beta_E s / (beta_E i + 1).

    The eavesdropper terms do not depend on rho.
    """
    views = cfg.user_powers(q_flat)
    own = views[0]
    return (*_legit_terms(cfg, rho_flat, views, exact_gain), own, q_flat.sum() - own)


def _legit_rates(cfg: SystemConfig, rho_flat: np.ndarray, views, exact_gain: bool = False):
    """Legitimate rate of every user, flat, from flat estimation
    qualities and the `user_powers` views of a flat downlink vector."""
    kappa, im1, im2, im3 = _legit_terms(cfg, rho_flat, views, exact_gain)
    return cfg.overhead * np.log2(1.0 + kappa / (im1 + im2 + im3 + 1.0))


def _eaves_rates(cfg: SystemConfig, q_flat: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Eavesdropping rate against every user, flat, from a flat downlink
    vector and its users' own powers.

    Independent of both the antenna count and the estimation quality: the
    eavesdropper's channel is uncorrelated with every beam, so each unit
    of transmit power lands on it with unit average gain.
    """
    beta_e = cfg.eav_gain
    others = np.add.reduce(q_flat) - own
    return cfg.overhead * np.log2(1.0 + beta_e * own / (beta_e * others + 1.0))


def _flat_rates(
    cfg: SystemConfig, rho_flat: np.ndarray, q_flat: np.ndarray, exact_gain: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Legitimate and eavesdropping rates of every user, flat."""
    views = cfg.user_powers(q_flat)
    return _legit_rates(cfg, rho_flat, views, exact_gain), _eaves_rates(cfg, q_flat, views[0])


def secrecy_report(
    cfg: SystemConfig,
    p: UplinkPower,
    q: DownlinkPower,
    exact_gain: bool = False,
) -> RateReport:
    """Per-user secrecy rates [legit - eaves]^+ and their sum."""
    rho = compute_rho(cfg, p)
    legit, eaves = _flat_rates(cfg, rho.flat(), q.flat(), exact_gain)
    secrecy = np.maximum(legit - eaves, 0.0)
    return RateReport(
        legit=cfg.split_users(legit),
        eaves=cfg.split_users(eaves),
        secrecy=cfg.split_users(secrecy),
        sum_secrecy=float(secrecy.sum()),
    )


def asymptotic_large_nt(cfg: SystemConfig, q: DownlinkPower, m: int, k: int) -> float:
    """Antenna-count limit of the legitimate rate.

    With ever sharper beams only the residual intra-cluster interference
    survives, giving (1 - tau/T) log2(1 + Q_{m,k} / sum_{i<k} Q_{m,i}).
    For the strongest user the interference sum is empty, so the limit is
    unbounded and math.inf is returned (an explicit marker rather than a
    large float, so comparisons stay meaningful).
    """
    row = q.q[m]
    if k == 0:
        return math.inf
    stronger = float(row[1 : 1 + k].sum())
    if stronger == 0.0:
        return math.inf
    return cfg.overhead * math.log2(1.0 + float(row[1 + k]) / stronger)


def asymptotic_high_power(
    cfg: SystemConfig,
    rho: EstimationQuality,
    fractions: DownlinkPower,
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Rate limits when the total downlink power grows without bound.

    `fractions` holds the per-slot power shares in the downlink layout
    (AN share at index 0 of each row); all shares, AN included, must sum
    to one. Returns (legit_limits, eaves_limits) as ragged per-user rows.
    Both limits share the same inter-cluster share sum, so the secrecy
    limit is independent of inter-cluster interference.
    """
    total = fractions.total()
    if abs(total - 1.0) > 1e-9:
        raise ValueError("power fractions must sum to 1, got %.12g" % total)
    # The finite-power terms without the noise term; beta cancels.
    kappa, im1, im2, im3, e_sig, e_int = _user_terms(cfg, rho.flat(), fractions.flat())
    den = im1 + im2 + im3
    if np.any(den == 0.0):
        raise ZeroDivisionError("rate limit is 0/0: a user with a zero share sees no interference")
    legit = cfg.overhead * np.log2(1.0 + kappa / den)
    with np.errstate(divide="ignore", invalid="ignore"):
        eaves = np.where(e_int == 0.0, math.inf, cfg.overhead * np.log2(1.0 + e_sig / e_int))
    return cfg.split_users(legit), cfg.split_users(eaves)


def oma_report(cfg: SystemConfig, p: UplinkPower, q: DownlinkPower) -> RateReport:
    """Secrecy report for the orthogonal-access layout (one user per
    cluster), written out from its own single-user rate formulas.

    Reduces exactly to :func:`secrecy_report` on the same configuration;
    kept as an independent route for cross-checking.
    """
    if any(k != 1 for k in cfg.users_per_cluster):
        raise ValueError("orthogonal layout requires exactly one user per cluster")
    nt = cfg.n_antennas
    beta_e = cfg.eav_gain
    m_tot = cfg.n_clusters
    legit, eaves = [], []
    q_users = np.array([q.user(m, 0) for m in range(m_tot)])
    q_an = np.array([q.an(m) for m in range(m_tot)])
    for m in range(m_tot):
        beta = float(cfg.beta(m)[0])
        energy = float(p.p[m][0]) * beta * cfg.pilot_len
        r = energy / (1.0 + energy)
        kappa = q_users[m] * beta * r * nt
        i1 = q_users[m] * beta * (1.0 - r)
        i2 = beta * float(q_users.sum() - q_users[m])
        i3 = beta * (q_an[m] * (1.0 - r)) + beta * float(q_an.sum() - q_an[m])
        lrate = cfg.overhead * math.log2(1.0 + kappa / (i1 + i2 + i3 + 1.0))
        den_e = (
            beta_e * float(q_users.sum() - q_users[m])
            + beta_e * float(q_an.sum())
            + 1.0
        )
        erate = cfg.overhead * math.log2(1.0 + q_users[m] * beta_e / den_e)
        legit.append(np.array([lrate]))
        eaves.append(np.array([erate]))
    secrecy = tuple(np.maximum(l - e, 0.0) for l, e in zip(legit, eaves))
    total = float(sum(s.sum() for s in secrecy))
    return RateReport(
        legit=tuple(legit), eaves=tuple(eaves), secrecy=secrecy, sum_secrecy=total
    )


def _check_circuit_power(circuit_power: float) -> None:
    if not 0.0 < circuit_power < math.inf:
        raise ValueError("circuit_power must be positive and finite")


def energy_efficiency(
    report: RateReport,
    p: UplinkPower,
    q: DownlinkPower,
    circuit_power: float,
) -> float:
    """Sum secrecy rate over total consumed power (uplink + downlink +
    fixed circuit power)."""
    _check_circuit_power(circuit_power)
    return report.sum_secrecy / (p.total() + q.total() + circuit_power)
