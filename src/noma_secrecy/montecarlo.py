"""Link-level Monte Carlo simulation of the full transmission pipeline:
pilot reception, MMSE estimation of the effective cluster channels, MRT
precoding, null-space artificial-noise injection and downlink reception.

Provides empirical oracles for every closed-form average in
:mod:`noma_secrecy.rates`. :func:`simulate_trials` keeps per-trial
inner-product tables for :func:`reduce_moments` and :func:`reduce_rates`.

The engine runs trials in chunks of at most ``_CHUNK_TRIALS``. Each trial
has its own generator, ``SeedSequence(seed, spawn_key=(trial,))``, which
makes three standard_normal calls in a fixed order: the channel
realization, the pilot noise and the AN draw. Each call writes into one
array for the whole chunk, trial index first. Estimation, MRT precoding,
AN projection and the inner products then run once over the chunk, with
users in the flat layout and one row per cluster; every norm and
projection adds along the contiguous last axis, as one trial alone would.
An AN draw that projects to (nearly) zero is drawn again from its own
trial's generator, after that trial's three calls.

The chunks run on the CPUs this process may run on: the trials are split
into contiguous ranges of whole chunks, one per CPU but none shorter than
_MIN_TRIALS_PER_WORKER trials, and each range after the first runs in a
forked child, which sends its rows back down a pipe.

Determinism contract: a given (seed, n_trials) pair gives the same table
bytes whatever the chunk size, the number of worker processes and however
trials are scheduled, since every random number comes from its trial's
own substream and every per-trial value is computed in the same order;
every oracle called with the same pair sees the same trials.

Distributions: small-scale fading vectors h_{m,k} and the eavesdropper
vector g have i.i.d. unit-variance complex-normal entries. Pilot noise
is drawn per cluster directly as a unit-variance complex-normal vector,
which is exact in distribution because cluster training sequences are
orthonormal.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import threading
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from time import perf_counter

import numpy as np

from .model import DownlinkPower, SystemConfig, UplinkPower, compute_rho
from .rates import RateReport, _user_terms, chi_mean

__all__ = [
    "MomentStat",
    "OracleReport",
    "error_decomposition_check",
    "moment_suite",
    "ergodic_rate_oracle",
    "TrialTables",
    "simulate_trials",
    "reduce_moments",
    "reduce_rates",
]

# Trials per chunk: the chunk arrays and the generators held at once grow
# with it, and validate's peak memory with them.
_CHUNK_TRIALS = 16

# Fewest trials per worker process. A fork and its copy-on-write faults
# cost a few ms, where 256 trials of a 12-user layout at N_t = 64 take
# about 25 ms (2-core x86 VM).
_MIN_TRIALS_PER_WORKER = 256

log = logging.getLogger("noma_secrecy")


def _cn(raw: np.ndarray, counts) -> np.ndarray:
    """Unit-variance circularly-symmetric complex normal rows from the
    standard normals raw (..., 2 * sum(counts), n), in blocks of counts[b]
    rows: block by block, each block's real parts first, then its
    imaginary parts."""
    counts = np.array(counts)
    sizes = counts.repeat(counts)
    re_row = np.arange(sizes.size) + (counts.cumsum() - counts).repeat(counts)
    return (raw[..., re_row, :] + 1j * raw[..., re_row + sizes, :]) / math.sqrt(2.0)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Row norms, added as np.linalg.norm adds one vector (axis=1 does not)."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _trial_streams(seed: int, stop: int, start: int = 0) -> Iterator[np.random.Generator]:
    """The generators of trials start..stop-1 of SeedSequence(seed).spawn,
    made one at a time: a list of 2000 of them holds about 6 MB."""
    for i in range(start, stop):
        yield np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def _layouts(cfg: SystemConfig) -> tuple[tuple[int, ...], ...]:
    """Block layouts of a trial's three draws: the realization (users in
    the flat layout, then g), the pilot noise and the AN draw (one row per
    cluster each)."""
    per_cluster = (1,) * cfg.n_clusters
    return cfg.users_per_cluster + (1,), per_cluster, per_cluster


def _estimate(cfg: SystemConfig, p: UplinkPower, h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """MMSE estimates (..., M, N) from the user channels h (..., U, N) in
    the flat layout and the pilot noise y (..., M, N), which is added to
    in place: y_m + sum_k sqrt(P beta tau) h_{m,k}, scaled by
    sqrt(S_m) / (1 + S_m) where S_m = sum_k P beta tau."""
    total = np.empty(cfg.n_clusters)
    # Cluster by cluster: np.add.reduceat sums clusters of three or more
    # users in another order, and these bytes reach the validate output.
    for m, (lo, k) in enumerate(zip(cfg.user_offsets.tolist(), cfg.users_per_cluster)):
        energy = p.p[m] * cfg.beta(m) * cfg.pilot_len
        y[..., m, :] += (np.sqrt(energy)[:, None] * h[..., lo : lo + k, :]).sum(axis=-2)
        total[m] = energy.sum()
    return (np.sqrt(total) / (1.0 + total))[:, None] * y


def _unit_beams(h_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row norms of the estimates (..., M, N) and the unit MRT beams;
    ValueError naming the first cluster whose estimate is zero."""
    norm = _row_norms(h_hat)
    if not norm.all():
        cluster = np.argwhere(norm == 0.0)[0, -1]
        raise ValueError("cluster %d estimate is the zero vector (no pilot power?)" % cluster)
    return norm, h_hat / norm[..., None]


def _project_out(h_hat, norm_sq, v) -> tuple[np.ndarray, np.ndarray]:
    """v minus its component along h_hat (squared norms norm_sq), scaled
    to unit norm, row by row; and whether each row kept a norm > 1e-9."""
    v -= h_hat * (np.vecdot(h_hat, v) / norm_sq)[..., None]
    vnorm = _row_norms(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        return v / vnorm[..., None], vnorm > 1e-9


def _an_directions(h_hat: np.ndarray, v: np.ndarray, rngs) -> np.ndarray:
    """Isotropic unit-norm AN directions in the null space of each
    estimate of h_hat (T, M, N), from the draws v of the same shape. A
    draw that projects to (nearly) zero is drawn again from its trial's
    generator rngs[t], for its cluster only."""
    norm_sq = np.vecdot(h_hat, h_hat).real
    norm_sq[norm_sq == 0.0] = np.inf  # a zero estimate has nothing to project out
    z, ok = _project_out(h_hat, norm_sq, v)
    for t in np.flatnonzero(~ok.all(axis=-1)):
        todo = np.flatnonzero(~ok[t])
        while todo.size:
            raw = rngs[t].standard_normal((2 * todo.size, h_hat.shape[-1]))
            redraw = _cn(raw, (1,) * todo.size)
            z_t, ok_t = _project_out(h_hat[t, todo], norm_sq[t, todo], redraw)
            z[t, todo[ok_t]] = z_t[ok_t]
            todo = todo[~ok_t]
    return z


def _worker_count(n_trials: int) -> int:
    """Processes to run n_trials in: one per CPU this process may run on,
    with at least _MIN_TRIALS_PER_WORKER trials each. 1 where the platform
    has no sched_getaffinity, or while another Python thread is alive:
    forking beside a running thread can deadlock the child."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_trials // _MIN_TRIALS_PER_WORKER))


def _fork(work, *args) -> tuple[int, int]:
    """Run work(*args) in a forked child, which then leaves with os._exit.
    work returns the arrays to send back. The child writes a 0 byte and
    their bytes down a pipe, or a 1 byte and its pickled exception.
    Returns the child's pid and the read end of the pipe."""
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork() in a process with more than one
            # OS thread. Forking runs only while no other Python thread is
            # alive (_worker_count), so the other threads are OpenBLAS's idle
            # pool, which has its own at-fork handlers; the child runs numpy
            # code and os._exit only.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded", DeprecationWarning
            )
            pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                try:
                    arrays = work(*args)
                except BaseException as exc:
                    pipe.write(b"\1" + pickle.dumps(exc))
                else:
                    pipe.write(b"\0")
                    for a in arrays:
                        pipe.write(a)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _join(pid: int, read: int, arrays) -> bytes:
    """Read a forked child's pipe, filling arrays with what it sent, and
    reap the child. Returns b"" if it sent its arrays, else the pickled
    exception it raised, or one saying that it stopped early."""
    payload = None
    try:
        with os.fdopen(read, "rb") as pipe:
            flag = pipe.read(1)
            if flag == b"\1":
                payload = pipe.read()
            elif flag == b"\0" and all(pipe.readinto(a) == a.nbytes for a in arrays):
                payload = b""
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if payload is None:
        message = "a Monte Carlo worker stopped early (exit status %d)" % code
        payload = pickle.dumps(RuntimeError(message))
    return payload


def _chunk_loop(cfg: SystemConfig, n_trials: int, seed: int, n_draws: int, run) -> list:
    """The one trial loop. Trials run in chunks of at most _CHUNK_TRIALS,
    each on its own substream; run(rngs, *rows) gets the chunk's
    generators and the complex rows of the first n_draws of each trial's
    draws (see :func:`_layouts`), trial index first, and returns tables
    with the trial index first, which are stacked across chunks.

    The chunks are split into contiguous ranges, one per worker process
    (:func:`_worker_count`). This process runs the first chunk, which
    gives the table shapes, and allocates the tables; it then forks one
    child per later range and runs the rest of the first range. Each
    child sends its rows down a pipe, which are read straight into the
    tables. Every child is reaped before this returns or raises, and the
    first failing range's exception is raised here, as one process would
    raise it."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    debug = log.isEnabledFor(logging.DEBUG)
    if debug:
        t0 = perf_counter()
    layouts = _layouts(cfg)[:n_draws]
    n_chunks = -(-n_trials // _CHUNK_TRIALS)
    workers = min(_worker_count(n_trials), n_chunks)
    bounds = [_CHUNK_TRIALS * (n_chunks * i // workers) for i in range(workers)] + [n_trials]

    def chunks(start, stop):
        streams = _trial_streams(seed, stop, start) if start else _trial_streams(seed, stop)
        for lo in range(start, stop, _CHUNK_TRIALS):
            rngs = list(islice(streams, _CHUNK_TRIALS))
            raws = [np.empty((len(rngs), 2 * sum(c), cfg.n_antennas)) for c in layouts]
            for t, rng in enumerate(rngs):
                for raw in raws:
                    rng.standard_normal(out=raw[t])
            yield lo, run(rngs, *(_cn(raw, c) for raw, c in zip(raws, layouts)))

    def write(pairs):
        for lo, rows in pairs:
            for table, r in zip(tables, rows):
                table[lo : lo + len(r)] = r

    def slices(lo, hi):
        return [t[lo:hi] for t in tables]

    def child_range(lo, hi):
        write(chunks(lo, hi))
        return slices(lo, hi)

    own = chunks(0, bounds[1])
    first = next(own)
    tables = [np.empty((n_trials,) + r.shape[1:], r.dtype) for r in first[1]]
    write([first])
    ranges = list(zip(bounds[1:-1], bounds[2:]))
    children = []
    try:
        for lo, hi in ranges:
            children.append(_fork(child_range, lo, hi))
        write(own)
    finally:
        ends = [_join(pid, read, slices(*r)) for (pid, read), r in zip(children, ranges)]
    for payload in ends:
        if payload:
            raise pickle.loads(payload)
    if debug:
        log.debug(
            "Monte Carlo: %d trials, %d chunks, %d worker processes, %.3g s",
            n_trials, n_chunks, workers, perf_counter() - t0,
        )
    return tables


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


@dataclass(frozen=True)
class TrialTables:
    """Per-trial inner products of one simulation, trial index first.

    own: (T, U) complex h_{m,k}^H w_m; beam, an: (T, U, M) |h_{m,k}^H w_j|^2
    and |h_{m,k}^H z_j|^2; eave_beam, eave_an: (T, M) |g^H w_j|^2 and
    |g^H z_j|^2; estimate_norm: (T, M) ||h_hat_m||. Users are in the flat
    layout order of the configuration.
    """

    own: np.ndarray
    beam: np.ndarray
    an: np.ndarray
    eave_beam: np.ndarray
    eave_an: np.ndarray
    estimate_norm: np.ndarray


def simulate_trials(cfg: SystemConfig, p: UplinkPower, n_trials: int, seed: int) -> TrialTables:
    """Run the pipeline over chunks of trials and keep only each trial's
    inner products, which :func:`reduce_moments` and :func:`reduce_rates`
    reduce."""
    if cfg.n_antennas < 2:
        raise ValueError("AN needs at least 2 antennas (null space is empty)")
    users = np.arange(cfg.total_users)

    def chunk(rngs, rows, y, v):
        h_hat = _estimate(cfg, p, rows[:, :-1], y)
        norm, w = _unit_beams(h_hat)
        z = _an_directions(h_hat, v, rngs)
        h_conj, g_conj = rows[:, :-1].conj(), rows[:, -1].conj()
        dots_w = h_conj @ w.transpose(0, 2, 1)  # h_{m,k}^H w_j
        return (
            dots_w[:, users, cfg.cluster_of],
            np.abs(dots_w) ** 2,
            np.abs(h_conj @ z.transpose(0, 2, 1)) ** 2,
            np.abs(w @ g_conj[..., None])[..., 0] ** 2,
            np.abs(z @ g_conj[..., None])[..., 0] ** 2,
            norm,
        )

    return TrialTables(*_chunk_loop(cfg, n_trials, seed, 3, chunk))


def moment_suite(
    cfg: SystemConfig, p: UplinkPower, q: DownlinkPower, n_trials: int, seed: int
) -> list[MomentStat]:
    """Empirical counterparts of every moment entering the closed forms:
    :func:`reduce_moments` over :func:`simulate_trials`."""
    return reduce_moments(cfg, p, q, simulate_trials(cfg, p, n_trials, seed))


def reduce_moments(
    cfg: SystemConfig, p: UplinkPower, q: DownlinkPower, tables: TrialTables
) -> list[MomentStat]:
    """Moment rows of one simulation.

    Each row pairs a sample mean with its prediction and the sample
    standard error; mean-alignment and kappa rows are predicted with the
    exact chi-mean (not the large-N_t approximation), since at moderate
    antenna counts the 1e4-trial estimator can resolve the difference.
    """
    rho = compute_rho(cfg, p)
    nt = cfg.n_antennas
    m_tot = cfg.n_clusters
    cmean = chi_mean(nt)
    cross_w, cross_z = tables.beam, tables.an
    stats: list[MomentStat] = []
    # The assembled terms are predicted by the closed form that `rates`
    # and the solvers use.
    kappa, im1, im2, im3, _, _ = _user_terms(cfg, rho.flat(), q.flat(), exact_gain=True)

    def add(name, m, k, samples, predicted):
        mean, se = _mean_se(samples)
        stats.append(MomentStat(name, m, k, mean, predicted, se))
        return mean, se

    beta_e = cfg.eav_gain
    # Row sums, not np.add.reduceat: the two add 8-user clusters in
    # different orders, and these bytes reach the validate output.
    q_user_sum = np.array([float(q.users(m).sum()) for m in range(m_tot)])
    q_an = q.flat()[cfg.slot_offsets]
    u = 0
    for m in range(m_tot):
        betas = cfg.beta(m)
        row = q.q[m]
        for k in range(cfg.users_per_cluster[m]):
            r = float(rho.rho[m][k])
            beta = float(betas[k])
            qk = float(row[1 + k])
            own = tables.own[:, u]
            _, re_se = add("mean_alignment_re", m, k, own.real, math.sqrt(r) * cmean)
            _, im_se = add("mean_alignment_im", m, k, own.imag, 0.0)
            beam_pow = np.abs(own) ** 2
            bp_mean, bp_se = add("own_beam_power", m, k, beam_pow, r * nt + 1.0 - r)
            add("an_leakage", m, k, cross_z[:, u, m], 1.0 - r)
            for j in range(m_tot):
                if j != m:
                    add("cross_beam_power", m, k, cross_w[:, u, j], 1.0)
                    add("cross_an_power", m, k, cross_z[:, u, j], 1.0)

            # Assembled signal/interference terms. kappa and the leakage
            # term derive from the complex mean, so their standard errors
            # are propagated (conservatively, for the leakage term).
            mean_c = complex(own.mean())
            kappa_emp = qk * beta * abs(mean_c) ** 2
            kappa_se = qk * beta * 2.0 * abs(mean_c) * math.hypot(re_se, im_se)
            stats.append(MomentStat("kappa", m, k, kappa_emp, float(kappa[u]), kappa_se))
            leak_emp = qk * beta * (bp_mean - abs(mean_c) ** 2)
            leak_se = qk * beta * (bp_se + 2.0 * abs(mean_c) * math.hypot(re_se, im_se))
            stats.append(MomentStat("im1", m, k, leak_emp, float(im1[u]), leak_se))

            stronger = float(row[1 : 1 + k].sum())
            im2_samples = beta * (stronger * beam_pow + float(row[0]) * cross_z[:, u, m])
            add("im2", m, k, im2_samples, float(im2[u]))

            inter = beta * (q_user_sum * cross_w[:, u] + q_an * cross_z[:, u])
            others = (inter[:, j] for j in range(m_tot) if j != m)
            add("im3", m, k, sum(others, np.zeros(own.size)), float(im3[u]))
            u += 1

        add("eave_beam_power", m, None, tables.eave_beam[:, m], 1.0)
        add("eave_an_power", m, None, tables.eave_an[:, m], 1.0)
        norm_pred = math.sqrt(float(rho.rho[m].sum())) * cmean
        add("estimate_norm", m, None, tables.estimate_norm[:, m], norm_pred)
        if beta_e > 0.0:
            # Eavesdropper-side signal terms, one per user.
            for k in range(cfg.users_per_cluster[m]):
                qk = float(row[1 + k])
                add("eave_kappa", m, k, beta_e * qk * tables.eave_beam[:, m], beta_e * qk)
    return stats


def error_decomposition_check(
    cfg: SystemConfig, p: UplinkPower, n_trials: int, seed: int
) -> list[MomentStat]:
    """Consistency of the realized estimates with the error split
    h = sqrt(rho) h_hat + sqrt(1 - rho) eps.

    Checks, per user, the estimate/channel correlation against
    sqrt(rho_{m,k} rho_m^tot) N_t (rho_m^tot is the per-entry variance of
    the raw estimate) and the estimate/error correlation against zero.
    """
    rho = compute_rho(cfg, p)
    cluster_of = cfg.cluster_of

    def chunk(rngs, rows, y):
        h = rows[:, :-1]
        h_hat = _estimate(cfg, p, h, y)
        return np.vecdot(h_hat[:, cluster_of], h), np.vecdot(h_hat, h_hat).real

    corr, norm_sq = _chunk_loop(cfg, n_trials, seed, 2, chunk)

    # With h_unit = h_hat / sqrt(rho_tot) and eps = (h - sqrt(r) h_unit) /
    # sqrt(1 - r): <h_unit, eps> = (<h_hat, h> / sqrt(rho_tot) - sqrt(r)
    # ||h_hat||^2 / rho_tot) / sqrt(1 - r); zero where eps is undefined.
    r_u = rho.flat()
    tot_u = np.array([r.sum() for r in rho.rho])[cluster_of]
    with np.errstate(divide="ignore", invalid="ignore"):
        along = corr / np.sqrt(tot_u) - np.sqrt(r_u) * norm_sq[:, cluster_of] / tot_u
        eps_corr = np.where((tot_u > 0.0) & (r_u < 1.0), along / np.sqrt(1.0 - r_u), 0.0)

    stats: list[MomentStat] = []
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


@dataclass(frozen=True)
class OracleReport:
    """Empirical rate report plus per-user standard errors."""

    report: RateReport
    legit_se: tuple[np.ndarray, ...]
    eaves_se: tuple[np.ndarray, ...]


def ergodic_rate_oracle(
    cfg: SystemConfig, p: UplinkPower, q: DownlinkPower, n_trials: int, seed: int
) -> OracleReport:
    """Monte Carlo estimate of the per-user ergodic rates:
    :func:`reduce_rates` over :func:`simulate_trials`."""
    return reduce_rates(cfg, q, simulate_trials(cfg, p, n_trials, seed))


def _rate_samples(
    cfg: SystemConfig, q: DownlinkPower, tables: TrialTables
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial log2(1 + SINR) of every user and of the eavesdropper
    against every user, each (T, U)."""
    beta_e = cfg.eav_gain
    cluster_of = cfg.cluster_of
    beta_u = cfg.flat_betas
    q_flat = q.flat()
    q_own = q_flat[cfg.user_slots]
    q_an = q_flat[cfg.slot_offsets]
    q_user_sum = np.add.reduceat(q_own, cfg.user_offsets)
    stronger_q = cfg.stronger_sums(q_own)
    own_w = tables.beam[:, np.arange(cfg.total_users), cluster_of]

    # Legitimate side: everything received minus the cancelled part of
    # the own cluster (own signal and weaker users).
    received = tables.beam @ q_user_sum + tables.an @ q_an
    den = beta_u * (received - own_w * (q_user_sum[cluster_of] - stronger_q)) + 1.0
    num = beta_u * q_own * own_w
    legit_t = np.log2(1.0 + num / den)

    # np.vecdot, not a matrix-vector product: it adds in the order of the
    # one-trial dot product, so the rates keep their bytes.
    e_received = np.vecdot(tables.eave_beam, q_user_sum) + np.vecdot(tables.eave_an, q_an)
    e_own = tables.eave_beam[:, cluster_of]
    e_num = beta_e * q_own * e_own
    e_den = beta_e * (e_received[:, None] - q_own * e_own) + 1.0
    return legit_t, np.log2(1.0 + e_num / e_den)


def reduce_rates(cfg: SystemConfig, q: DownlinkPower, tables: TrialTables) -> OracleReport:
    """Ergodic rates of one simulation.

    Per trial, instantaneous SINRs are formed from the realized inner
    products under genie-aided coherent detection (users know their
    effective gains) with perfect intra-cluster cancellation of weaker
    users; the eavesdropper cancels nothing. log2(1 + SINR) is averaged
    over trials, scaled by the pilot-overhead prefactor, and the secrecy
    clamp is applied to the averaged rates.
    """
    legit_t, eaves_t = _rate_samples(cfg, q, tables)
    n_trials = legit_t.shape[0]
    scale = cfg.overhead
    legit_mean = scale * legit_t.mean(axis=0)
    eaves_mean = scale * eaves_t.mean(axis=0)
    if n_trials > 1:
        legit_se = scale * legit_t.std(axis=0, ddof=1) / math.sqrt(n_trials)
        eaves_se = scale * eaves_t.std(axis=0, ddof=1) / math.sqrt(n_trials)
    else:
        legit_se = np.full(cfg.total_users, math.nan)
        eaves_se = np.full(cfg.total_users, math.nan)

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
