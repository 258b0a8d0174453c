"""Link-level Monte Carlo simulation of the full transmission pipeline:
pilot reception, MMSE estimation of the effective cluster channels, MRT
precoding, null-space artificial-noise injection and downlink reception.

Provides empirical oracles for every closed-form average in
:mod:`noma_secrecy.rates`. :func:`simulate_trials` keeps per-trial
inner-product tables for :func:`reduce_moments` and :func:`reduce_rates`.

The engine runs trials in chunks of at most ``_CHUNK_TRIALS``. Each trial
has its own generator: PCG64 seeded by ``SeedSequence(seed,
spawn_key=(trial,))``. Building that SeedSequence object per trial costs
more than the trial's draws, so :func:`_seed_words` runs SeedSequence's
hash mixing itself: over the seed's 32-bit words once, and over the
trial indices of up to ``_WORDS_PER_PASS`` trials in one vectorized
uint32 pass. It gives the four uint64 words that SeedSequence would hand
PCG64, and PCG64 seeds itself from them as numpy does, so each generator
is the one ``default_rng(SeedSequence(seed, spawn_key=(trial,)))``
gives. A trial index is one 32-bit spawn word, so one seed runs at most
2**32 trials.

Each generator makes three standard_normal calls in a fixed order: the
channel realization, the pilot noise and the AN draw. Each call writes
into one buffer for the whole chunk, trial index first, and a worker's
chunks reuse the same three buffers. Estimation, MRT precoding,
AN projection and the inner products then run once over the chunk, with
users in the flat layout and one row per cluster; every norm and
projection adds along the contiguous last axis, as one trial alone would.
An AN draw that projects to (nearly) zero is drawn again from its own
trial's generator, after that trial's three calls.

The chunks run on the CPUs this process may run on: the trials are split
into contiguous ranges of whole chunks, one per CPU but none shorter than
_MIN_TRIALS_PER_WORKER trials, and each range after the first runs in a
forked child (the package's one fork/join path, `_workers`), which sends
its rows back down a pipe.

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

import functools
import logging
import math
import operator
import pickle
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from time import perf_counter

import numpy as np

from ._workers import _fork, _join, available_cpus
from .model import DownlinkPower, SystemConfig, UplinkPower, compute_rho
from .rates import RateReport, _user_terms, chi_mean

__all__ = [
    "MomentStat",
    "OracleReport",
    "TrialTables",
    "simulate_trials",
    "reduce_moments",
    "reduce_rates",
]

# Trials per chunk: the chunk arrays and the generators held at once grow
# with it, and validate's peak memory with them.
_CHUNK_TRIALS = 16

# Trials whose seed words one vectorized pass derives: enough for a
# worker's range at the usual trial counts, and few enough that the words
# of a huge range are never all held at once.
_WORDS_PER_PASS = 4096

# Fewest trials per worker process. A fork and its copy-on-write faults
# cost a few ms, where 256 trials of a 12-user layout at N_t = 64 take
# about 25 ms (2-core x86 VM).
_MIN_TRIALS_PER_WORKER = 256

log = logging.getLogger("noma_secrecy")


def _cn_rows(counts) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the real and of the imaginary parts that :func:`_cn`
    reads from draws laid out in blocks of counts[b] rows: block by
    block, each block's real parts first, then its imaginary parts."""
    counts = np.array(counts)
    sizes = counts.repeat(counts)
    re_row = np.arange(sizes.size) + (counts.cumsum() - counts).repeat(counts)
    return re_row, re_row + sizes


def _cn(raw: np.ndarray, rows: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Unit-variance circularly-symmetric complex normal rows from the
    standard normals raw (..., 2 * n_rows, n), at the rows of
    :func:`_cn_rows`: the bits of (re + 1j * im) / sqrt(2) for every
    finite raw, built in place in one complex array."""
    re_row, im_row = rows
    out = np.empty(raw.shape[:-2] + (re_row.size, raw.shape[-1]), complex)
    out.real = raw[..., re_row, :]
    # + 0.0 turns -0.0 into 0.0, as re + 1j * im does.
    np.add(raw[..., im_row, :], 0.0, out=out.imag)
    out /= math.sqrt(2.0)
    return out


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Row norms, added as np.linalg.norm adds one vector (axis=1 does not)."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4


def _hash(value, const: int, mult: int):
    """SeedSequence's hashmix of value (an int or a uint32 array) under the
    hash constant const, and the next constant."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> _XSHIFT, const


def _mix(x, y):
    """SeedSequence's mix of the pool word x with the hashed word y."""
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ r >> _XSHIFT


def _seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64) for
    each trial i in start..stop-1, as rows of a (stop - start, 4) array.

    SeedSequence's mixing, once for all trials: the seed's 32-bit words,
    padded to the pool size since a spawn key is present, are mixed as
    Python ints, and the trial index, the last entropy word, as one uint32
    array."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer, got %d" % seed)
    if stop > 2**32:
        raise ValueError("at most 2**32 trials per seed, got %d" % stop)
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, const = _hash(word, const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    state = np.empty((stop - start, 8), np.uint32)
    const = _INIT_B
    for i in range(8):
        state[:, i], const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
    # Pairs of words as little-endian uint64, as generate_state views them.
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


@functools.cache
def _fixed_words():
    """A seed sequence class that hands PCG64 precomputed state words.
    Built on first use: importing numpy.random costs about 15 ms, which
    commands without Monte Carlo trials need not pay."""

    class FixedWords(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return FixedWords


def _trial_streams(seed: int, stop: int, start: int = 0) -> Iterator[np.random.Generator]:
    """The generators of trials start..stop-1 of SeedSequence(seed).spawn,
    made one at a time, each seeded with its row of :func:`_seed_words`: a
    list of 2000 of them holds about 6 MB."""
    fixed = _fixed_words()
    for lo in range(start, stop, _WORDS_PER_PASS):
        for row in _seed_words(seed, lo, min(stop, lo + _WORDS_PER_PASS)):
            yield np.random.Generator(np.random.PCG64(fixed(row)))


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
            redraw = _cn(raw, _cn_rows((1,) * todo.size))
            z_t, ok_t = _project_out(h_hat[t, todo], norm_sq[t, todo], redraw)
            z[t, todo[ok_t]] = z_t[ok_t]
            todo = todo[~ok_t]
    return z


def _worker_count(n_trials: int) -> int:
    """Processes to run n_trials in: one per available CPU
    (:func:`available_cpus`), with at least _MIN_TRIALS_PER_WORKER trials
    each."""
    return max(1, min(available_cpus(), n_trials // _MIN_TRIALS_PER_WORKER))


def _chunk_loop(cfg: SystemConfig, n_trials: int, seed: int, run) -> list:
    """The one trial loop. Trials run in chunks of at most _CHUNK_TRIALS,
    each on its own substream; run(rngs, *rows) gets the chunk's
    generators and the complex rows of each trial's three draws (see
    :func:`_layouts`), trial index first, and returns tables
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
    clock = perf_counter if debug else float  # float() is 0.0: nothing timed
    t0 = clock()
    layouts = _layouts(cfg)
    cn_rows = [_cn_rows(c) for c in layouts]
    n_chunks = -(-n_trials // _CHUNK_TRIALS)
    workers = min(_worker_count(n_trials), n_chunks)
    bounds = [_CHUNK_TRIALS * (n_chunks * i // workers) for i in range(workers)] + [n_trials]
    spent = [0.0, 0.0]  # this process's seconds drawing and in run

    def chunks(start, stop):
        streams = _trial_streams(seed, stop, start) if start else _trial_streams(seed, stop)
        size = min(_CHUNK_TRIALS, stop - start)
        buffers = [np.empty((size, 2 * sum(c), cfg.n_antennas)) for c in layouts]
        for lo in range(start, stop, _CHUNK_TRIALS):
            t1 = clock()
            rngs = list(islice(streams, _CHUNK_TRIALS))
            raws = [b[: len(rngs)] for b in buffers]
            for t, rng in enumerate(rngs):
                for raw in raws:
                    rng.standard_normal(out=raw[t])
            rows = [_cn(raw, r) for raw, r in zip(raws, cn_rows)]
            t2 = clock()
            out = run(rngs, *rows)
            spent[0] += t2 - t1
            spent[1] += clock() - t2
            yield lo, out

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
    for ok, payload in ends:
        if not ok:
            raise pickle.loads(payload)
    if debug:
        log.debug(
            "Monte Carlo: %d trials, %d chunks, %d worker processes, %.3g s"
            " (this process: %.3g s drawing, %.3g s pipeline)",
            n_trials, n_chunks, workers, clock() - t0, *spent,
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

    return TrialTables(*_chunk_loop(cfg, n_trials, seed, chunk))


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


@dataclass(frozen=True)
class OracleReport:
    """Empirical rate report plus per-user standard errors."""

    report: RateReport
    legit_se: tuple[np.ndarray, ...]
    eaves_se: tuple[np.ndarray, ...]


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
