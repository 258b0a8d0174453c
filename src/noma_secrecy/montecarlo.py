"""Link-level Monte Carlo simulation of the full transmission pipeline:
pilot reception, MMSE estimation of the effective cluster channels, MRT
precoding, null-space artificial-noise injection and downlink reception.

Provides empirical oracles for every closed-form average in
:mod:`noma_secrecy.rates`. Determinism contract: suite-level operations
take an integer seed and derive one independent RNG substream per trial
index; per-trial results are stored and reduced in a fixed order, so a
given (seed, n_trials) pair is bit-stable regardless of how trials are
scheduled.

Distributions: small-scale fading vectors h_{m,k} and the eavesdropper
vector g have i.i.d. unit-variance complex-normal entries. Pilot noise
is drawn per cluster directly as a unit-variance complex-normal vector,
which is exact in distribution because cluster training sequences are
orthonormal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DownlinkPower, SystemConfig, UplinkPower, compute_rho
from .rates import RateReport, chi_mean

__all__ = [
    "ChannelRealization",
    "EstimateSet",
    "MomentStat",
    "OracleReport",
    "draw_realization",
    "mmse_estimate",
    "mrt_precoder",
    "an_vector",
    "build_estimates",
    "error_decomposition_check",
    "moment_suite",
    "ergodic_rate_oracle",
]


def _cn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Unit-variance circularly-symmetric complex normal draws."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(
        2.0
    )


def _trial_streams(seed: int, n_trials: int) -> list[np.random.Generator]:
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(n_trials)]


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of every small-scale fading vector.

    h[m] has shape (K_m, N_t); g is the eavesdropper vector.
    """

    h: tuple[np.ndarray, ...]
    g: np.ndarray


@dataclass(frozen=True)
class EstimateSet:
    """Per-cluster channel estimates, unit-norm precoders, and unit-norm
    AN directions orthogonal to the estimates."""

    h_hat: tuple[np.ndarray, ...]
    w: tuple[np.ndarray, ...] | None = None
    z: tuple[np.ndarray, ...] | None = None


def draw_realization(cfg: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    h = tuple(_cn(rng, k, cfg.n_antennas) for k in cfg.users_per_cluster)
    g = _cn(rng, cfg.n_antennas)
    return ChannelRealization(h=h, g=g)


def mmse_estimate(
    cfg: SystemConfig,
    p: UplinkPower,
    realization: ChannelRealization,
    rng: np.random.Generator,
) -> EstimateSet:
    """MMSE estimate of each cluster's effective channel from its pilot.

    The de-spread observation is y_m = sum_k sqrt(P beta tau) h_{m,k} + n
    with unit-variance pilot noise n; the estimate scales it by
    sqrt(S_m) / (1 + S_m) where S_m = sum_k P beta tau.
    """
    tau = cfg.pilot_len
    h_hat = []
    for m in range(cfg.n_clusters):
        energy = p.p[m] * cfg.beta(m) * tau
        noise = _cn(rng, cfg.n_antennas)
        y = (np.sqrt(energy)[:, None] * realization.h[m]).sum(axis=0) + noise
        total = energy.sum()
        h_hat.append(math.sqrt(total) / (1.0 + total) * y)
    return EstimateSet(h_hat=tuple(h_hat))


def mrt_precoder(estimates: EstimateSet) -> EstimateSet:
    """Match each beam to its estimated cluster channel (unit norm)."""
    w = []
    for m, h_hat in enumerate(estimates.h_hat):
        norm = np.linalg.norm(h_hat)
        if norm == 0.0:
            raise ValueError(
                "cluster %d estimate is the zero vector (no pilot power?)" % m
            )
        w.append(h_hat / norm)
    return EstimateSet(h_hat=estimates.h_hat, w=tuple(w), z=estimates.z)


def an_vector(estimates: EstimateSet, rng: np.random.Generator) -> EstimateSet:
    """Isotropic unit-norm direction in each estimate's null space.

    Draws a complex Gaussian vector and projects out the estimate
    direction; O(N_t) and matches the isotropic null-space assumption
    behind the closed-form AN-leakage average.
    """
    z = []
    for m, h_hat in enumerate(estimates.h_hat):
        n = h_hat.size
        if n < 2:
            raise ValueError("AN needs at least 2 antennas (null space is empty)")
        norm_sq = float(np.vdot(h_hat, h_hat).real)
        while True:
            v = _cn(rng, n)
            if norm_sq > 0.0:
                v = v - h_hat * (np.vdot(h_hat, v) / norm_sq)
            vnorm = np.linalg.norm(v)
            if vnorm > 1e-9:
                break
        z.append(v / vnorm)
    return EstimateSet(h_hat=estimates.h_hat, w=estimates.w, z=tuple(z))


def build_estimates(
    cfg: SystemConfig,
    p: UplinkPower,
    realization: ChannelRealization,
    rng: np.random.Generator,
) -> EstimateSet:
    """Estimate, precode and draw AN directions in one deterministic pass."""
    est = mmse_estimate(cfg, p, realization, rng)
    est = mrt_precoder(est)
    return an_vector(est, rng)


@dataclass(frozen=True)
class MomentStat:
    """One empirical moment next to its closed-form prediction."""

    name: str
    cluster: int
    user: int | None
    empirical: float
    predicted: float
    stderr: float

    @property
    def z_score(self) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.empirical == self.predicted else math.inf
        return (self.empirical - self.predicted) / self.stderr


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    n = samples.size
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return float(samples.mean()), se


def _dot_tables(cfg, realization, est):
    """|h^H w_j|, |h^H z_j| style inner products for every user/cluster."""
    w_mat = np.stack(est.w)
    z_mat = np.stack(est.z)
    h_mat = np.concatenate([realization.h[m] for m in range(cfg.n_clusters)])
    dots_w = h_mat.conj() @ w_mat.T  # (n_users, M): h_{m,k}^H w_j
    dots_z = h_mat.conj() @ z_mat.T
    g_w = w_mat @ realization.g.conj()  # g^H w_j
    g_z = z_mat @ realization.g.conj()
    return dots_w, dots_z, g_w, g_z


def moment_suite(
    cfg: SystemConfig,
    p: UplinkPower,
    q: DownlinkPower,
    n_trials: int,
    seed: int,
) -> list[MomentStat]:
    """Empirical counterparts of every moment entering the closed forms.

    Each row pairs a sample mean with its prediction and the sample
    standard error; mean-alignment and kappa rows are predicted with the
    exact chi-mean (not the large-N_t approximation), since at moderate
    antenna counts the 1e4-trial estimator can resolve the difference.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    rho = compute_rho(cfg, p)
    nt = cfg.n_antennas
    n_users = cfg.total_users
    m_tot = cfg.n_clusters
    cmean = chi_mean(nt)

    own_dot = np.empty((n_trials, n_users), dtype=complex)
    cross_w = np.empty((n_trials, n_users, m_tot))
    cross_z = np.empty((n_trials, n_users, m_tot))
    gain_g_w = np.empty((n_trials, m_tot))
    gain_g_z = np.empty((n_trials, m_tot))
    est_norm = np.empty((n_trials, m_tot))

    for t, rng in enumerate(_trial_streams(seed, n_trials)):
        real = draw_realization(cfg, rng)
        est = build_estimates(cfg, p, real, rng)
        dots_w, dots_z, g_w, g_z = _dot_tables(cfg, real, est)
        own_dot[t] = dots_w[np.arange(n_users), cfg.cluster_of]
        cross_w[t] = np.abs(dots_w) ** 2
        cross_z[t] = np.abs(dots_z) ** 2
        gain_g_w[t] = np.abs(g_w) ** 2
        gain_g_z[t] = np.abs(g_z) ** 2
        est_norm[t] = [np.linalg.norm(hh) for hh in est.h_hat]

    stats: list[MomentStat] = []
    u = 0
    beta_e = cfg.eav_gain
    q_user_sum = np.array([float(q.users(m).sum()) for m in range(m_tot)])
    q_an = np.array([q.an(m) for m in range(m_tot)])
    for m in range(m_tot):
        betas = cfg.beta(m)
        row = q.q[m]
        for k in range(cfg.users_per_cluster[m]):
            r = float(rho.rho[m][k])
            beta = float(betas[k])
            qk = float(row[1 + k])
            re_mean, re_se = _mean_se(own_dot[:, u].real)
            im_mean, im_se = _mean_se(own_dot[:, u].imag)
            stats.append(
                MomentStat("mean_alignment_re", m, k, re_mean, math.sqrt(r) * cmean, re_se)
            )
            stats.append(MomentStat("mean_alignment_im", m, k, im_mean, 0.0, im_se))

            beam_pow = np.abs(own_dot[:, u]) ** 2
            bp_mean, bp_se = _mean_se(beam_pow)
            stats.append(
                MomentStat("own_beam_power", m, k, bp_mean, r * nt + 1.0 - r, bp_se)
            )
            an_mean, an_se = _mean_se(cross_z[:, u, m])
            stats.append(MomentStat("an_leakage", m, k, an_mean, 1.0 - r, an_se))
            for j in range(m_tot):
                if j == m:
                    continue
                cw_mean, cw_se = _mean_se(cross_w[:, u, j])
                stats.append(MomentStat("cross_beam_power", m, k, cw_mean, 1.0, cw_se))
                cz_mean, cz_se = _mean_se(cross_z[:, u, j])
                stats.append(MomentStat("cross_an_power", m, k, cz_mean, 1.0, cz_se))

            # Assembled signal/interference terms. kappa and the leakage
            # term derive from the complex mean, so their standard errors
            # are propagated (conservatively, for the leakage term).
            mean_c = complex(own_dot[:, u].mean())
            kappa_emp = qk * beta * abs(mean_c) ** 2
            kappa_se = qk * beta * 2.0 * abs(mean_c) * math.hypot(re_se, im_se)
            stats.append(
                MomentStat("kappa", m, k, kappa_emp, qk * beta * r * cmean**2, kappa_se)
            )
            leak_emp = qk * beta * (bp_mean - abs(mean_c) ** 2)
            leak_pred = qk * beta * (r * nt + 1.0 - r - r * cmean**2)
            leak_se = qk * beta * (bp_se + 2.0 * abs(mean_c) * math.hypot(re_se, im_se))
            stats.append(MomentStat("im1", m, k, leak_emp, leak_pred, leak_se))

            stronger = float(row[1 : 1 + k].sum())
            im2_samples = beta * (
                stronger * beam_pow + float(row[0]) * cross_z[:, u, m]
            )
            im2_mean, im2_se = _mean_se(im2_samples)
            im2_pred = beta * (stronger * (r * nt + 1.0 - r) + float(row[0]) * (1.0 - r))
            stats.append(MomentStat("im2", m, k, im2_mean, im2_pred, im2_se))

            inter_samples = np.zeros(n_trials)
            inter_pred = 0.0
            for j in range(m_tot):
                if j == m:
                    continue
                inter_samples += beta * (
                    q_user_sum[j] * cross_w[:, u, j] + q_an[j] * cross_z[:, u, j]
                )
                inter_pred += beta * (q_user_sum[j] + q_an[j])
            im3_mean, im3_se = _mean_se(inter_samples)
            stats.append(MomentStat("im3", m, k, im3_mean, inter_pred, im3_se))
            u += 1

        gw_mean, gw_se = _mean_se(gain_g_w[:, m])
        stats.append(MomentStat("eave_beam_power", m, None, gw_mean, 1.0, gw_se))
        gz_mean, gz_se = _mean_se(gain_g_z[:, m])
        stats.append(MomentStat("eave_an_power", m, None, gz_mean, 1.0, gz_se))
        norm_mean, norm_se = _mean_se(est_norm[:, m])
        rho_total = float(rho.rho[m].sum())
        stats.append(
            MomentStat(
                "estimate_norm",
                m,
                None,
                norm_mean,
                math.sqrt(rho_total) * cmean,
                norm_se,
            )
        )
        if beta_e > 0.0:
            # Eavesdropper-side signal terms, one per user.
            for k in range(cfg.users_per_cluster[m]):
                qk = float(row[1 + k])
                samples = beta_e * qk * gain_g_w[:, m]
                e_mean, e_se = _mean_se(samples)
                stats.append(
                    MomentStat("eave_kappa", m, k, e_mean, beta_e * qk, e_se)
                )
    return stats


def error_decomposition_check(
    cfg: SystemConfig,
    p: UplinkPower,
    n_trials: int,
    seed: int,
) -> list[MomentStat]:
    """Consistency of the realized estimates with the error split
    h = sqrt(rho) h_hat + sqrt(1 - rho) eps.

    Checks, per user, the estimate/channel correlation against
    sqrt(rho_{m,k} rho_m^tot) N_t (rho_m^tot is the per-entry variance of
    the raw estimate) and the estimate/error correlation against zero.
    """
    rho = compute_rho(cfg, p)
    nt = cfg.n_antennas
    n_users = cfg.total_users
    corr = np.empty((n_trials, n_users), dtype=complex)
    eps_corr = np.empty((n_trials, n_users), dtype=complex)

    rho_tot = [float(rho.rho[m].sum()) for m in range(cfg.n_clusters)]
    for t, rng in enumerate(_trial_streams(seed, n_trials)):
        real = draw_realization(cfg, rng)
        est = mmse_estimate(cfg, p, real, rng)
        u = 0
        for m in range(cfg.n_clusters):
            h_hat = est.h_hat[m]
            for k in range(cfg.users_per_cluster[m]):
                h = real.h[m][k]
                corr[t, u] = np.vdot(h_hat, h)
                r = float(rho.rho[m][k])
                if rho_tot[m] > 0.0 and r < 1.0:
                    h_unit = h_hat / math.sqrt(rho_tot[m])
                    eps = (h - math.sqrt(r) * h_unit) / math.sqrt(1.0 - r)
                    eps_corr[t, u] = np.vdot(h_unit, eps)
                else:
                    eps_corr[t, u] = 0.0
                u += 1

    stats: list[MomentStat] = []
    u = 0
    for m in range(cfg.n_clusters):
        for k in range(cfg.users_per_cluster[m]):
            r = float(rho.rho[m][k])
            pred = math.sqrt(r * rho_tot[m]) * nt
            re_mean, re_se = _mean_se(corr[:, u].real)
            im_mean, im_se = _mean_se(corr[:, u].imag)
            stats.append(MomentStat("estimate_correlation_re", m, k, re_mean, pred, re_se))
            stats.append(MomentStat("estimate_correlation_im", m, k, im_mean, 0.0, im_se))
            er_mean, er_se = _mean_se(eps_corr[:, u].real)
            stats.append(MomentStat("error_correlation_re", m, k, er_mean, 0.0, er_se))
            u += 1
    return stats


@dataclass(frozen=True)
class OracleReport:
    """Empirical rate report plus per-user standard errors."""

    report: RateReport
    legit_se: tuple[np.ndarray, ...]
    eaves_se: tuple[np.ndarray, ...]


def ergodic_rate_oracle(
    cfg: SystemConfig,
    p: UplinkPower,
    q: DownlinkPower,
    n_trials: int,
    seed: int,
) -> OracleReport:
    """Monte Carlo estimate of the per-user ergodic rates.

    Per trial, instantaneous SINRs are formed from the realized inner
    products under genie-aided coherent detection (users know their
    effective gains) with perfect intra-cluster cancellation of weaker
    users; the eavesdropper cancels nothing. log2(1 + SINR) is averaged
    over trials, scaled by the pilot-overhead prefactor, and the secrecy
    clamp is applied to the averaged rates.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    n_users = cfg.total_users
    beta_e = cfg.eav_gain
    cluster_of = cfg.cluster_of
    beta_u = cfg.flat_betas
    q_flat = q.flat()
    q_own = q_flat[cfg.user_slots]
    q_an = q_flat[cfg.slot_offsets]
    q_user_sum = np.add.reduceat(q_own, cfg.user_offsets)
    stronger_q = cfg.stronger_sums(q_own)
    idx = np.arange(n_users)

    legit_t = np.empty((n_trials, n_users))
    eaves_t = np.empty((n_trials, n_users))
    for t, rng in enumerate(_trial_streams(seed, n_trials)):
        real = draw_realization(cfg, rng)
        est = build_estimates(cfg, p, real, rng)
        dots_w, dots_z, g_w, g_z = _dot_tables(cfg, real, est)
        pw = np.abs(dots_w) ** 2
        pz = np.abs(dots_z) ** 2
        own_w = pw[idx, cluster_of]

        # Legitimate side: everything received minus the cancelled part
        # of the own cluster (own signal and weaker users).
        received = pw @ q_user_sum + pz @ q_an
        den = beta_u * (received - own_w * (q_user_sum[cluster_of] - stronger_q)) + 1.0
        num = beta_u * q_own * own_w
        legit_t[t] = np.log2(1.0 + num / den)

        gw2 = np.abs(g_w) ** 2
        gz2 = np.abs(g_z) ** 2
        e_received = float(gw2 @ q_user_sum + gz2 @ q_an)
        e_own = gw2[cluster_of]
        e_num = beta_e * q_own * e_own
        e_den = beta_e * (e_received - q_own * e_own) + 1.0
        eaves_t[t] = np.log2(1.0 + e_num / e_den)

    scale = cfg.overhead
    legit_mean = scale * legit_t.mean(axis=0)
    eaves_mean = scale * eaves_t.mean(axis=0)
    if n_trials > 1:
        legit_se = scale * legit_t.std(axis=0, ddof=1) / math.sqrt(n_trials)
        eaves_se = scale * eaves_t.std(axis=0, ddof=1) / math.sqrt(n_trials)
    else:
        legit_se = np.full(n_users, math.nan)
        eaves_se = np.full(n_users, math.nan)

    secrecy = np.maximum(legit_mean - eaves_mean, 0.0)
    report = RateReport(
        legit=cfg.split_users(legit_mean),
        eaves=cfg.split_users(eaves_mean),
        secrecy=cfg.split_users(secrecy),
        sum_secrecy=float(secrecy.sum()),
    )
    return OracleReport(
        report=report, legit_se=cfg.split_users(legit_se), eaves_se=cfg.split_users(eaves_se)
    )
