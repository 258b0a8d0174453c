import logging
import math
import os
import re
import threading

import numpy as np
import pytest

from noma_secrecy import montecarlo
from noma_secrecy.model import (
    ClusterConfig,
    DownlinkPower,
    SystemConfig,
    UplinkPower,
    compute_rho,
)
from noma_secrecy.montecarlo import (
    _an_directions,
    _chunk_loop,
    _estimate,
    _unit_beams,
    error_decomposition_check,
    reduce_moments,
    reduce_rates,
    simulate_trials,
)
from noma_secrecy.rates import chi_mean, secrecy_report


def make_cfg(betas, n_antennas=16, pilot_len=None, coherence_len=300, eav_gain=10.0):
    clusters = tuple(ClusterConfig(np.asarray(b, dtype=float)) for b in betas)
    return SystemConfig(
        n_antennas=n_antennas,
        clusters=clusters,
        pilot_len=pilot_len if pilot_len is not None else len(betas),
        coherence_len=coherence_len,
        eav_gain=eav_gain,
    )


CFG22 = make_cfg([[8.0, 2.0], [5.0, 1.0]], n_antennas=16, pilot_len=2)
P22 = UplinkPower(([0.8, 0.4], [0.6, 0.9]))
Q22 = DownlinkPower(([1.0, 4.0, 2.0], [0.5, 3.0, 1.5]))


def realizations(cfg, n_trials, seed):
    """The engine's channel draw of each trial, (T, U + 1, N): the users in
    the flat layout, then the eavesdropper."""
    (rows,) = _chunk_loop(cfg, n_trials, seed, 1, lambda rngs, rows: (rows,))
    return rows


def estimates(cfg, p, n_trials, seed):
    """The engine's channel draw and MMSE estimates (T, M, N) of each trial."""

    def run(rngs, rows, y):
        return rows, _estimate(cfg, p, rows[:, :-1], y)

    return _chunk_loop(cfg, n_trials, seed, 2, run)


class TestDrawRealization:
    def test_deterministic_under_seed(self):
        np.testing.assert_array_equal(realizations(CFG22, 1, 42), realizations(CFG22, 1, 42))

    def test_shapes(self):
        rows = realizations(CFG22, 1, 0)[0]
        assert CFG22.split_users(rows[:-1])[0].shape == (2, 16)
        assert rows[-1].shape == (16,)

    def test_unit_entry_variance(self):
        # Law of large numbers: 1e4 draws of an 8-antenna layout.
        cfg = make_cfg([[1.0]], n_antennas=8, pilot_len=1)
        samples = np.abs(realizations(cfg, 10_000, 1)[:, 0]) ** 2
        flat = samples.ravel()
        se = flat.std(ddof=1) / math.sqrt(flat.size)
        assert abs(flat.mean() - 1.0) < 3.0 * se

    def test_clusters_uncorrelated(self):
        # The first user of each cluster: flat users 0 and 2.
        rows = realizations(CFG22, 4000, 2)
        inner = np.vecdot(rows[:, 0], rows[:, 2]) / 16.0
        se = inner.real.std(ddof=1) / math.sqrt(inner.size)
        assert abs(inner.real.mean()) < 3.0 * se + 1e-12


class TestMmseEstimate:
    def test_zero_power_gives_zero_estimate(self):
        _, h_hat = estimates(CFG22, UplinkPower.full(CFG22, 0.0), 1, 3)
        for m in range(2):
            np.testing.assert_array_equal(h_hat[0, m], np.zeros(16))

    def test_estimate_aligns_with_channel_at_high_power(self):
        cfg = make_cfg([[5.0]], n_antennas=32, pilot_len=1)
        rows, h_hat = estimates(cfg, UplinkPower.full(cfg, 1e7), 400, 4)
        h, est = rows[:, 0], h_hat[:, 0]
        cosines = np.abs(np.vecdot(est, h)) / (
            np.linalg.norm(est, axis=-1) * np.linalg.norm(h, axis=-1)
        )
        assert cosines.mean() > 0.999

    def test_estimate_energy_moment(self):
        # E||h_hat||^2 = N_t * S / (1 + S) with S the summed pilot energy.
        n_trials = 10_000
        _, h_hat = estimates(CFG22, P22, n_trials, 5)
        norms = np.linalg.norm(h_hat[:, 0], axis=-1) ** 2
        s = float((P22.p[0] * CFG22.beta(0) * CFG22.pilot_len).sum())
        predicted = 16 * s / (1.0 + s)
        se = norms.std(ddof=1) / math.sqrt(n_trials)
        assert abs(norms.mean() - predicted) < 3.0 * se


class TestPrecoderAndAn:
    def test_unit_norm_and_scale_invariance(self):
        h_hat = estimates(CFG22, P22, 1, 6)[1][0]
        _, w = _unit_beams(h_hat)
        for row in w:
            assert np.linalg.norm(row) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(w, _unit_beams(5.0 * h_hat)[1], rtol=1e-12)

    def test_zero_estimate_rejected(self):
        _, h_hat = estimates(CFG22, UplinkPower.full(CFG22, 0.0), 1, 7)
        with pytest.raises(ValueError, match="zero vector"):
            _unit_beams(h_hat)

    def test_an_orthogonal_unit(self):
        def run(rngs, rows, y, v):
            h_hat = _estimate(CFG22, P22, rows[:, :-1], y)
            return h_hat, _an_directions(h_hat, v, rngs)

        h_hat, z = _chunk_loop(CFG22, 20, 8, 3, run)
        for t in range(20):
            for m in range(2):
                assert np.linalg.norm(z[t, m]) == pytest.approx(1.0, rel=1e-12)
                overlap = abs(np.vdot(h_hat[t, m], z[t, m]))
                assert overlap / np.linalg.norm(h_hat[t, m]) < 1e-10

    def test_chi_mean_single_antenna(self):
        # E||h_hat|| / sqrt(total rho) = Gamma(1.5)/Gamma(1) = sqrt(pi)/2.
        cfg = make_cfg([[3.0]], n_antennas=1, pilot_len=1)
        p = UplinkPower.full(cfg, 0.7)
        n_trials = 20_000
        _, h_hat = estimates(cfg, p, n_trials, 10)
        norms = np.linalg.norm(h_hat[:, 0], axis=-1)
        rho_tot = float(compute_rho(cfg, p).rho[0].sum())
        scaled = norms / math.sqrt(rho_tot)
        se = scaled.std(ddof=1) / math.sqrt(n_trials)
        assert chi_mean(1) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)
        assert abs(scaled.mean() - chi_mean(1)) < 3.0 * se

    def test_an_leakage_matches_estimation_error(self):
        # E|<h, z>|^2 = 1 - rho per user.
        rng_seed = 11
        rho = compute_rho(CFG22, P22)
        n_trials = 6000
        stats = reduce_moments(CFG22, P22, Q22, simulate_trials(CFG22, P22, n_trials, rng_seed))
        rows = [s for s in stats if s.name == "an_leakage"]
        assert len(rows) == 4
        for row in rows:
            assert row.predicted == pytest.approx(
                1.0 - rho.rho[row.cluster][row.user], rel=1e-12
            )
            assert abs(row.z_score) < 3.0


class TestMomentSuite:
    def test_all_moments_within_three_se(self):
        stats = reduce_moments(CFG22, P22, Q22, simulate_trials(CFG22, P22, 4000, seed=123))
        assert len(stats) > 20
        for row in stats:
            assert abs(row.z_score) < 3.5, row

    def test_eave_beam_power_is_unit(self):
        stats = reduce_moments(CFG22, P22, Q22, simulate_trials(CFG22, P22, 3000, seed=7))
        rows = [s for s in stats if s.name == "eave_beam_power"]
        assert {r.predicted for r in rows} == {1.0}
        for row in rows:
            assert abs(row.z_score) < 3.0

    def test_deterministic_under_seed(self):
        a = reduce_moments(CFG22, P22, Q22, simulate_trials(CFG22, P22, 500, seed=5))
        b = reduce_moments(CFG22, P22, Q22, simulate_trials(CFG22, P22, 500, seed=5))
        assert [(r.name, r.empirical) for r in a] == [(r.name, r.empirical) for r in b]


class TestErrorDecomposition:
    def test_correlation_matches_prediction(self):
        stats = error_decomposition_check(CFG22, P22, 4000, seed=21)
        for row in stats:
            assert abs(row.z_score) < 3.5, row

    def test_single_user_rho(self):
        cfg = make_cfg([[3.0]], n_antennas=8, pilot_len=1)
        p = UplinkPower.full(cfg, 0.9)
        stats = error_decomposition_check(cfg, p, 6000, seed=22)
        row = next(s for s in stats if s.name == "estimate_correlation_re")
        energy = 0.9 * 3.0 * 1
        rho = energy / (1.0 + energy)
        assert row.predicted == pytest.approx(math.sqrt(rho * rho) * 8, rel=1e-12)
        assert abs(row.z_score) < 3.0

    def test_zero_power_correlation_is_zero(self):
        stats = error_decomposition_check(
            CFG22, UplinkPower.full(CFG22, 0.0), 200, seed=23
        )
        for row in stats:
            if row.name.startswith("estimate_correlation"):
                assert row.empirical == 0.0
                assert row.predicted == 0.0


class TestErgodicOracle:
    def test_zero_downlink_power(self):
        tables = simulate_trials(CFG22, P22, 50, seed=1)
        oracle = reduce_rates(CFG22, DownlinkPower.zeros(CFG22), tables)
        for m in range(2):
            np.testing.assert_array_equal(oracle.report.legit[m], np.zeros(2))
            np.testing.assert_array_equal(oracle.report.eaves[m], np.zeros(2))

    def test_deterministic_under_seed(self):
        a = reduce_rates(CFG22, Q22, simulate_trials(CFG22, P22, 300, seed=9))
        b = reduce_rates(CFG22, Q22, simulate_trials(CFG22, P22, 300, seed=9))
        for m in range(2):
            np.testing.assert_array_equal(a.report.legit[m], b.report.legit[m])
            np.testing.assert_array_equal(a.report.eaves[m], b.report.eaves[m])

    def test_matches_closed_form_at_moderate_antennas(self):
        # Channel hardening: at N_t = 128, on an instance where every
        # user keeps a healthy secrecy margin and noise is not
        # negligible, the closed forms sit within 5% of the simulated
        # ergodic rates. (At full interference saturation the
        # ratio-of-means form keeps a small systematic gap whenever only
        # a few unhardened inter-cluster terms fluctuate.)
        rng = np.random.default_rng(101)
        draws = np.sort(rng.uniform(0.0, 100.0, 8).reshape(4, 2), axis=1)[:, ::-1]
        cfg = make_cfg(list(draws), n_antennas=128, pilot_len=4)
        p = UplinkPower.full(cfg, 1.0)
        q_total = 10.0 ** (-1.5)
        rows = [np.array([0.2 * q_total / 4] + [0.8 * q_total / 8] * 2) for _ in range(4)]
        q = DownlinkPower(tuple(rows))
        oracle = reduce_rates(cfg, q, simulate_trials(cfg, p, 4000, seed=33))
        closed = secrecy_report(cfg, p, q)
        for m in range(4):
            np.testing.assert_allclose(
                oracle.report.legit[m], closed.legit[m], rtol=0.05
            )
            np.testing.assert_allclose(
                oracle.report.secrecy[m], closed.secrecy[m], rtol=0.05
            )
            np.testing.assert_allclose(
                oracle.report.eaves[m], closed.eaves[m], atol=0.01
            )

    def test_eaves_rate_insensitive_to_antennas(self):
        rates = []
        for nt in (16, 128):
            cfg = make_cfg([[8.0, 2.0], [5.0, 1.0]], n_antennas=nt, pilot_len=2)
            oracle = reduce_rates(cfg, Q22, simulate_trials(cfg, P22, 4000, seed=44))
            rates.append(np.concatenate(oracle.report.eaves))
        np.testing.assert_allclose(rates[0], rates[1], rtol=0.08)

    def test_single_trial_degenerate_bands(self):
        oracle = reduce_rates(CFG22, Q22, simulate_trials(CFG22, P22, 1, seed=2))
        assert np.all(np.isnan(np.concatenate(oracle.legit_se)))


def test_error_decomposition_rejects_zero_trials():
    with pytest.raises(ValueError, match="n_trials"):
        error_decomposition_check(CFG22, P22, 0, seed=1)


class ScriptedNormals:
    """Stands in for a generator: returns the given standard-normal blocks
    in turn, or writes them into `out`, and records the shape of each
    request."""

    def __init__(self, *draws):
        self.draws = list(draws)
        self.shapes = []

    def standard_normal(self, shape=None, out=None):
        block = self.draws.pop(0)
        if out is None:
            self.shapes.append(shape)
            return block
        self.shapes.append(out.shape)
        out[...] = block
        return out


def test_an_redraws_only_the_direction_in_the_estimate_span(monkeypatch):
    # Cluster 0's first AN draw is a multiple of its estimate e_0, so its
    # projection is zero and it is drawn again; cluster 1 keeps its draw.
    cfg = make_cfg([[1.0], [1.0]], n_antennas=4, pilot_len=2)
    h_hat = np.array([[2.0, 0, 0, 0], [0, 1.0, 0, 0]], dtype=complex)
    first = np.random.default_rng(12).standard_normal((4, 4))
    first[0, 1:] = first[1, 1:] = 0.0
    second = np.random.default_rng(13).standard_normal((2, 4))
    rng = ScriptedNormals(np.zeros((6, 4)), np.zeros((4, 4)), first.copy(), second.copy())
    monkeypatch.setattr(montecarlo, "_trial_streams", lambda seed, n_trials: iter([rng]))

    def run(rngs, rows, y, v):
        return (_an_directions(h_hat[None], v, rngs),)

    z = _chunk_loop(cfg, 1, 1, 3, run)[0][0]
    assert rng.shapes == [(6, 4), (4, 4), (4, 4), (2, 4)] and not rng.draws

    def expected(re, im, axis):
        v = (re + 1j * im) / math.sqrt(2.0)
        v[axis] = 0.0
        return v / np.linalg.norm(v)

    np.testing.assert_allclose(z[0], expected(*second, 0), rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(z[1], expected(first[2], first[3], 1), rtol=1e-12, atol=1e-15)


class TestSimulateTrialsBoundaries:
    def test_zero_power_cluster_is_named(self):
        p = UplinkPower(([0.8, 0.4], [0.0, 0.0]))
        with pytest.raises(ValueError, match="^cluster 1 estimate is the zero vector"):
            simulate_trials(CFG22, p, 3, seed=1)

    @pytest.mark.parametrize("chunk", [4, montecarlo._CHUNK_TRIALS])
    def test_zero_estimate_inside_a_chunk_names_its_cluster(self, monkeypatch, chunk):
        # Trial 5 has zero cluster-1 channels (rows 4-7 of its realization
        # draw) and zero cluster-1 pilot noise (rows 2-3), so that trial's
        # cluster-1 estimate alone is zero; it is not the first of its chunk.
        n = CFG22.n_antennas
        streams = []
        for t in range(8):
            rng = np.random.default_rng(20 + t)
            real, pilot, an = (rng.standard_normal((rows, n)) for rows in (10, 4, 4))
            if t == 5:
                real[4:8] = pilot[2:4] = 0.0
            streams.append(ScriptedNormals(real, pilot, an))
        monkeypatch.setattr(montecarlo, "_trial_streams", lambda seed, n_trials: iter(streams))
        monkeypatch.setattr(montecarlo, "_CHUNK_TRIALS", chunk)
        with pytest.raises(ValueError, match="^cluster 1 estimate is the zero vector"):
            simulate_trials(CFG22, P22, 8, seed=1)

    def test_single_antenna_fails_before_any_trial_is_drawn(self, monkeypatch):
        cfg = make_cfg([[2.0]], n_antennas=1, pilot_len=1)

        def no_streams(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(montecarlo, "_trial_streams", no_streams)
        with pytest.raises(ValueError, match="2 antennas"):
            simulate_trials(cfg, UplinkPower.full(cfg, 1.0), 5, seed=1)


class TestSeedWords:
    def test_refuses_what_it_cannot_derive(self):
        # A negative seed would never run out of 32-bit words.
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            next(montecarlo._trial_streams(-1, 3))
        with pytest.raises(ValueError, match=r"^at most 2\*\*32 trials per seed"):
            montecarlo._seed_words(1, 2**32 - 1, 2**32 + 1)

    def test_seed_longer_than_the_pool(self):
        # Seed words past the pool size are mixed in before the trial index.
        seed = 2**200 + 12345
        spawned = [np.random.SeedSequence(seed, spawn_key=(i,)) for i in range(5, 9)]
        expected = [s.generate_state(4, np.uint64) for s in spawned]
        assert np.array_equal(montecarlo._seed_words(seed, 5, 9), expected)

    def test_ranges_longer_than_one_pass(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_WORDS_PER_PASS", 3)
        draws = [rng.standard_normal(2) for rng in montecarlo._trial_streams(9, 8, 1)]
        for i, got in enumerate(draws, start=1):
            rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(i,)))
            assert np.array_equal(got, rng.standard_normal(2)), i


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerProcesses:
    @pytest.fixture
    def split(self, monkeypatch):
        """Three workers over chunks of two trials."""
        monkeypatch.setattr(montecarlo, "_worker_count", lambda n_trials: 3)
        monkeypatch.setattr(montecarlo, "_CHUNK_TRIALS", 2)

    def test_no_child_outlives_a_simulation(self, split):
        simulate_trials(CFG22, P22, 11, seed=5)
        no_child_left()

    def test_zero_estimate_in_a_child_range_names_its_cluster(self, split, monkeypatch):
        # Eight trials in four chunks over three workers: the ranges are
        # [0, 2), [2, 4) and [4, 8), so trial 5 runs in the second child.
        n = CFG22.n_antennas
        streams = []
        for t in range(8):
            rng = np.random.default_rng(20 + t)
            real, pilot, an = (rng.standard_normal((rows, n)) for rows in (10, 4, 4))
            if t == 5:
                real[4:8] = pilot[2:4] = 0.0
            streams.append(ScriptedNormals(real, pilot, an))
        ranges = []

        def scripted(seed, stop, start=0):
            ranges.append((start, stop))
            return iter(streams[start:stop])

        monkeypatch.setattr(montecarlo, "_trial_streams", scripted)
        with pytest.raises(ValueError, match="^cluster 1 estimate is the zero vector"):
            simulate_trials(CFG22, P22, 8, seed=1)
        no_child_left()
        assert ranges == [(0, 2)]  # the children's calls happen in the children

    def test_a_child_that_dies_is_reported(self, split, monkeypatch):
        streams = montecarlo._trial_streams

        def dying(seed, stop, start=0):
            if start:  # only in the children
                os._exit(3)
            return streams(seed, stop)

        monkeypatch.setattr(montecarlo, "_trial_streams", dying)
        with pytest.raises(RuntimeError, match="exit status 3"):
            simulate_trials(CFG22, P22, 8, seed=1)
        no_child_left()

    def test_one_cpu_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_MIN_TRIALS_PER_WORKER", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

        def no_fork(*args):
            raise AssertionError("forked")

        monkeypatch.setattr(montecarlo, "_fork", no_fork)
        assert montecarlo._worker_count(100) == 1
        simulate_trials(CFG22, P22, 40, seed=1)

    def test_another_thread_keeps_the_trials_in_process(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_MIN_TRIALS_PER_WORKER", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert montecarlo._worker_count(100) == 3
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert montecarlo._worker_count(100) == 1
        finally:
            stop.set()
            thread.join(10)

    def test_no_sched_getaffinity_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_MIN_TRIALS_PER_WORKER", 1)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert montecarlo._worker_count(100) == 1

    def test_one_debug_line_per_simulation(self, split, caplog):
        with caplog.at_level(logging.DEBUG, logger="noma_secrecy"):
            simulate_trials(CFG22, P22, 11, seed=5)
        (record,) = caplog.records
        message = record.getMessage()
        assert message.startswith("Monte Carlo: 11 trials, 6 chunks, 3 worker processes, ")

    def test_debug_line_splits_this_process_time(self, split, caplog):
        with caplog.at_level(logging.DEBUG, logger="noma_secrecy"):
            simulate_trials(CFG22, P22, 11, seed=5)
        (record,) = caplog.records
        pattern = r"Monte Carlo: .*, (\S+) s \(this process: (\S+) s drawing, (\S+) s pipeline\)"
        total, drawing, pipeline = map(float, re.fullmatch(pattern, record.getMessage()).groups())
        assert 0.0 < drawing and 0.0 < pipeline and drawing + pipeline <= total

    def test_nothing_is_timed_or_formatted_without_debug(self, split, caplog, monkeypatch):
        def forbidden():
            raise AssertionError("timed without DEBUG")

        monkeypatch.setattr(montecarlo, "perf_counter", forbidden)
        with caplog.at_level(logging.INFO, logger="noma_secrecy"):
            simulate_trials(CFG22, P22, 11, seed=5)
        assert not caplog.records
