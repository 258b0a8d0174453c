import math

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
    EstimateSet,
    an_vector,
    build_estimates,
    draw_realization,
    ergodic_rate_oracle,
    error_decomposition_check,
    mmse_estimate,
    moment_suite,
    mrt_precoder,
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


class TestDrawRealization:
    def test_deterministic_under_seed(self):
        a = draw_realization(CFG22, np.random.default_rng(42))
        b = draw_realization(CFG22, np.random.default_rng(42))
        for m in range(2):
            np.testing.assert_array_equal(a.h[m], b.h[m])
        np.testing.assert_array_equal(a.g, b.g)

    def test_shapes(self):
        real = draw_realization(CFG22, np.random.default_rng(0))
        assert real.h[0].shape == (2, 16)
        assert real.g.shape == (16,)

    def test_unit_entry_variance(self):
        # Law of large numbers: 1e4 draws of an 8-antenna layout.
        cfg = make_cfg([[1.0]], n_antennas=8, pilot_len=1)
        rng = np.random.default_rng(1)
        samples = np.empty((10_000, 8))
        for t in range(10_000):
            samples[t] = np.abs(draw_realization(cfg, rng).h[0][0]) ** 2
        flat = samples.ravel()
        se = flat.std(ddof=1) / math.sqrt(flat.size)
        assert abs(flat.mean() - 1.0) < 3.0 * se

    def test_clusters_uncorrelated(self):
        rng = np.random.default_rng(2)
        inner = np.empty(4000, dtype=complex)
        for t in range(4000):
            real = draw_realization(CFG22, rng)
            inner[t] = np.vdot(real.h[0][0], real.h[1][0]) / 16.0
        se = inner.real.std(ddof=1) / math.sqrt(inner.size)
        assert abs(inner.real.mean()) < 3.0 * se + 1e-12


class TestMmseEstimate:
    def test_zero_power_gives_zero_estimate(self):
        rng = np.random.default_rng(3)
        real = draw_realization(CFG22, rng)
        est = mmse_estimate(CFG22, UplinkPower.full(CFG22, 0.0), real, rng)
        for m in range(2):
            np.testing.assert_array_equal(est.h_hat[m], np.zeros(16))

    def test_estimate_aligns_with_channel_at_high_power(self):
        cfg = make_cfg([[5.0]], n_antennas=32, pilot_len=1)
        p = UplinkPower.full(cfg, 1e7)
        rng = np.random.default_rng(4)
        cosines = np.empty(400)
        for t in range(400):
            real = draw_realization(cfg, rng)
            est = mmse_estimate(cfg, p, real, rng)
            h = real.h[0][0]
            cosines[t] = abs(np.vdot(est.h_hat[0], h)) / (
                np.linalg.norm(est.h_hat[0]) * np.linalg.norm(h)
            )
        assert cosines.mean() > 0.999

    def test_estimate_energy_moment(self):
        # E||h_hat||^2 = N_t * S / (1 + S) with S the summed pilot energy.
        rng = np.random.default_rng(5)
        n_trials = 10_000
        norms = np.empty(n_trials)
        for t in range(n_trials):
            real = draw_realization(CFG22, rng)
            est = mmse_estimate(CFG22, P22, real, rng)
            norms[t] = np.linalg.norm(est.h_hat[0]) ** 2
        s = float((P22.p[0] * CFG22.beta(0) * CFG22.pilot_len).sum())
        predicted = 16 * s / (1.0 + s)
        se = norms.std(ddof=1) / math.sqrt(n_trials)
        assert abs(norms.mean() - predicted) < 3.0 * se


class TestPrecoderAndAn:
    def test_unit_norm_and_scale_invariance(self):
        rng = np.random.default_rng(6)
        real = draw_realization(CFG22, rng)
        est = mmse_estimate(CFG22, P22, real, rng)
        with_w = mrt_precoder(est)
        for w in with_w.w:
            assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)
        scaled = mrt_precoder(
            type(est)(h_hat=tuple(5.0 * h for h in est.h_hat))
        )
        for a, b in zip(with_w.w, scaled.w):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_zero_estimate_rejected(self):
        est = mmse_estimate(
            CFG22,
            UplinkPower.full(CFG22, 0.0),
            draw_realization(CFG22, np.random.default_rng(7)),
            np.random.default_rng(7),
        )
        with pytest.raises(ValueError, match="zero vector"):
            mrt_precoder(est)

    def test_an_orthogonal_unit(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            real = draw_realization(CFG22, rng)
            est = build_estimates(CFG22, P22, real, rng)
            for m in range(2):
                assert np.linalg.norm(est.z[m]) == pytest.approx(1.0, rel=1e-12)
                overlap = abs(np.vdot(est.h_hat[m], est.z[m]))
                assert overlap / np.linalg.norm(est.h_hat[m]) < 1e-10

    def test_an_needs_two_antennas(self):
        cfg = make_cfg([[2.0]], n_antennas=1, pilot_len=1)
        rng = np.random.default_rng(9)
        real = draw_realization(cfg, rng)
        est = mmse_estimate(cfg, UplinkPower.full(cfg, 1.0), real, rng)
        with pytest.raises(ValueError, match="2 antennas"):
            an_vector(est, rng)

    def test_chi_mean_single_antenna(self):
        # E||h_hat|| / sqrt(total rho) = Gamma(1.5)/Gamma(1) = sqrt(pi)/2.
        cfg = make_cfg([[3.0]], n_antennas=1, pilot_len=1)
        p = UplinkPower.full(cfg, 0.7)
        rng = np.random.default_rng(10)
        n_trials = 20_000
        norms = np.empty(n_trials)
        for t in range(n_trials):
            real = draw_realization(cfg, rng)
            est = mmse_estimate(cfg, p, real, rng)
            norms[t] = np.linalg.norm(est.h_hat[0])
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
        stats = moment_suite(CFG22, P22, Q22, n_trials, rng_seed)
        rows = [s for s in stats if s.name == "an_leakage"]
        assert len(rows) == 4
        for row in rows:
            assert row.predicted == pytest.approx(
                1.0 - rho.rho[row.cluster][row.user], rel=1e-12
            )
            assert abs(row.z_score) < 3.0


class TestMomentSuite:
    def test_all_moments_within_three_se(self):
        stats = moment_suite(CFG22, P22, Q22, 4000, seed=123)
        assert len(stats) > 20
        for row in stats:
            assert abs(row.z_score) < 3.5, row

    def test_eave_beam_power_is_unit(self):
        stats = moment_suite(CFG22, P22, Q22, 3000, seed=7)
        rows = [s for s in stats if s.name == "eave_beam_power"]
        assert {r.predicted for r in rows} == {1.0}
        for row in rows:
            assert abs(row.z_score) < 3.0

    def test_deterministic_under_seed(self):
        a = moment_suite(CFG22, P22, Q22, 500, seed=5)
        b = moment_suite(CFG22, P22, Q22, 500, seed=5)
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
        oracle = ergodic_rate_oracle(CFG22, P22, DownlinkPower.zeros(CFG22), 50, seed=1)
        for m in range(2):
            np.testing.assert_array_equal(oracle.report.legit[m], np.zeros(2))
            np.testing.assert_array_equal(oracle.report.eaves[m], np.zeros(2))

    def test_deterministic_under_seed(self):
        a = ergodic_rate_oracle(CFG22, P22, Q22, 300, seed=9)
        b = ergodic_rate_oracle(CFG22, P22, Q22, 300, seed=9)
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
        oracle = ergodic_rate_oracle(cfg, p, q, 4000, seed=33)
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
            oracle = ergodic_rate_oracle(cfg, P22, Q22, 4000, seed=44)
            rates.append(np.concatenate(oracle.report.eaves))
        np.testing.assert_allclose(rates[0], rates[1], rtol=0.08)

    def test_single_trial_degenerate_bands(self):
        oracle = ergodic_rate_oracle(CFG22, P22, Q22, 1, seed=2)
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


def test_an_redraws_only_the_direction_in_the_estimate_span():
    # Cluster 0's first draw is a multiple of its estimate e_0, so its
    # projection is zero and it is drawn again; cluster 1 keeps its draw.
    h_hat = np.array([[2.0, 0, 0, 0], [0, 1.0, 0, 0]], dtype=complex)
    first = np.random.default_rng(12).standard_normal((4, 4))
    first[0, 1:] = first[1, 1:] = 0.0
    second = np.random.default_rng(13).standard_normal((2, 4))
    rng = ScriptedNormals(first.copy(), second.copy())
    z = an_vector(EstimateSet(h_hat=h_hat), rng).z
    assert rng.shapes == [(4, 4), (2, 4)] and not rng.draws

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
