import math

import numpy as np
import pytest

from noma_secrecy.model import (
    ClusterConfig,
    DownlinkPower,
    EstimationQuality,
    SystemConfig,
    UplinkPower,
    compute_rho,
)
from noma_secrecy.rates import (
    _flat_rates,
    _user_terms,
    asymptotic_high_power,
    asymptotic_large_nt,
    chi_mean,
    energy_efficiency,
    oma_report,
    secrecy_report,
)


def make_cfg(betas, n_antennas=64, pilot_len=None, coherence_len=300, eav_gain=10.0):
    clusters = tuple(ClusterConfig(np.asarray(b, dtype=float)) for b in betas)
    return SystemConfig(
        n_antennas=n_antennas,
        clusters=clusters,
        pilot_len=pilot_len if pilot_len is not None else len(betas),
        coherence_len=coherence_len,
        eav_gain=eav_gain,
    )


def random_instance(rng, m=2, k=2, n_antennas=64, eav_gain=10.0):
    betas = [np.sort(rng.uniform(1.0, 100.0, k))[::-1] for _ in range(m)]
    cfg = make_cfg(betas, n_antennas=n_antennas, eav_gain=eav_gain)
    p = UplinkPower(tuple(rng.uniform(0.05, 1.0, k) for _ in range(m)))
    q = DownlinkPower(tuple(rng.uniform(0.1, 10.0, k + 1) for _ in range(m)))
    return cfg, p, q


class TestSinrTerms:
    def test_single_user_half_rho(self):
        # kappa = 1*1*0.5*100 = 50, own leakage = 1*1*0.5 = 0.5, no other terms.
        cfg = make_cfg([[1.0]], n_antennas=100, pilot_len=1, coherence_len=2)
        rho = EstimationQuality((np.array([0.5]),))
        q = DownlinkPower((np.array([0.0, 1.0]),))
        kappa, im1, im2, im3 = _user_terms(cfg, rho.flat(), q.flat())[:4]
        assert kappa[0] == pytest.approx(50.0, rel=1e-13)
        assert im1[0] == pytest.approx(0.5, rel=1e-13)
        assert im2[0] == 0.0
        assert im3[0] == 0.0

    def test_zero_desired_power(self):
        cfg = make_cfg([[2.0, 1.0]], pilot_len=1)
        rho = EstimationQuality((np.array([0.4, 0.2]),))
        q = DownlinkPower((np.array([1.0, 0.0, 3.0]),))
        kappa, im1 = _user_terms(cfg, rho.flat(), q.flat())[:2]
        assert kappa[0] == 0.0 and im1[0] == 0.0

    def test_perfect_estimation_kills_leakage(self):
        cfg = make_cfg([[2.0, 1.0]], pilot_len=1)
        rho = EstimationQuality((np.array([1.0 - 1e-15, 0.3]),))
        q = DownlinkPower((np.array([5.0, 2.0, 1.0]),))
        _, im1, im2 = _user_terms(cfg, rho.flat(), q.flat())[:3]
        assert im1[0] == pytest.approx(0.0, abs=1e-12)
        # the AN-leakage share of im2 vanishes with rho -> 1
        assert im2[1] > 0.0  # weaker user still sees the stronger one's power

    def test_intra_cluster_interference_only_from_stronger(self):
        cfg = make_cfg([[3.0, 2.0, 1.0]], pilot_len=1, eav_gain=1.0)
        rho = EstimationQuality((np.array([0.5, 0.3, 0.2]),))
        q = DownlinkPower((np.array([0.0, 4.0, 2.0, 1.0]),))
        im2 = _user_terms(cfg, rho.flat(), q.flat())[2]
        assert im2[0] == 0.0  # strongest user cancels everyone
        nt = cfg.n_antennas
        expected = 1.0 * (4.0 + 2.0) * (0.2 * nt + 0.8)
        assert im2[2] == pytest.approx(expected, rel=1e-12)

    def test_one_cluster_sees_no_inter_cluster_power(self):
        # Two summation orders of 0.1 + 0.2 + 0.3 differ in the last bit;
        # I3 must still be exactly zero.
        cfg = make_cfg([[5.0, 4.0]], pilot_len=1)
        rho = EstimationQuality((np.array([0.5, 0.3]),))
        q = DownlinkPower((np.array([0.1, 0.2, 0.3]),))
        assert _user_terms(cfg, rho.flat(), q.flat())[3].tolist() == [0.0, 0.0]
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = DownlinkPower((rng.uniform(0.0, 10.0, 3),))
            assert _user_terms(cfg, rho.flat(), q.flat())[3][1] == 0.0

    def test_exact_gain_consistency(self):
        # kappa + im1 is the full received desired power, identical under
        # both gain conventions.
        cfg = make_cfg([[2.0]], n_antennas=16, pilot_len=1)
        rho = EstimationQuality((np.array([0.6]),))
        q = DownlinkPower((np.array([1.0, 2.0]),))
        approx_kappa, approx_im1 = _user_terms(cfg, rho.flat(), q.flat())[:2]
        exact_kappa, exact_im1 = _user_terms(cfg, rho.flat(), q.flat(), exact_gain=True)[:2]
        assert exact_kappa[0] < approx_kappa[0]  # chi-mean^2 < N_t
        assert exact_kappa[0] + exact_im1[0] == pytest.approx(
            approx_kappa[0] + approx_im1[0], rel=1e-12
        )
        gain = chi_mean(16) ** 2
        assert exact_kappa[0] == pytest.approx(2.0 * 2.0 * 0.6 * gain, rel=1e-12)


class TestLegitRate:
    def test_direct_value(self):
        cfg = make_cfg([[1.0]], n_antennas=100, pilot_len=1, coherence_len=2)
        rho = EstimationQuality((np.array([0.5]),))
        q = DownlinkPower((np.array([0.0, 1.0]),))
        expected = 0.5 * math.log2(1.0 + 50.0 / 1.5)
        legit = _flat_rates(cfg, rho.flat(), q.flat())[0]
        assert legit[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_downlink_power_gives_zero(self):
        cfg = make_cfg([[2.0, 1.0]], pilot_len=1)
        rho = EstimationQuality((np.array([0.4, 0.2]),))
        q = DownlinkPower((np.zeros(3),))
        assert _flat_rates(cfg, rho.flat(), q.flat())[0].tolist() == [0.0, 0.0]

    def test_more_inter_cluster_interference_lowers_rate(self):
        cfg = make_cfg([[2.0], [1.0]], pilot_len=2)
        rho = EstimationQuality((np.array([0.5]), np.array([0.5])))
        q1 = DownlinkPower((np.array([0.0, 1.0]), np.array([0.0, 1.0])))
        q2 = DownlinkPower((np.array([0.0, 1.0]), np.array([0.0, 2.0])))
        legit1 = _flat_rates(cfg, rho.flat(), q1.flat())[0]
        legit2 = _flat_rates(cfg, rho.flat(), q2.flat())[0]
        assert legit2[0] < legit1[0]

    def test_nondecreasing_in_antennas_randomized(self):
        # Empirical probe: the average SINR is a ratio of terms linear in
        # N_t, increasing in N_t for fixed rho/powers. Flag any
        # counterexample on random instances.
        rng = np.random.default_rng(21)
        for _ in range(40):
            cfg, p, q = random_instance(rng, m=2, k=3, n_antennas=8)
            rho = compute_rho(cfg, p)
            rates = []
            for nt in (8, 64, 512, 4096):
                cfg_nt = make_cfg(
                    [cfg.beta(m) for m in range(2)], n_antennas=nt, eav_gain=10.0
                )
                rates.append(_flat_rates(cfg_nt, rho.flat(), q.flat())[0][1])
            assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


class TestEavesRate:
    def test_direct_value(self):
        # strongest user, Q = [AN=2, 4, 2], beta_E = 1, tau/T = 1/2:
        # 0.5 log2(1 + 4 / (1*(2+2) + 0 + 1)).
        cfg = make_cfg([[2.0, 1.0]], pilot_len=1, coherence_len=2, eav_gain=1.0)
        q = DownlinkPower((np.array([2.0, 4.0, 2.0]),))
        expected = 0.5 * math.log2(1.0 + 4.0 / 5.0)
        eaves = _flat_rates(cfg, np.zeros(2), q.flat())[1]
        assert eaves[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.4240, abs=5e-5)

    def test_zero_power_zero_rate(self):
        cfg = make_cfg([[2.0]], pilot_len=1, eav_gain=5.0)
        q = DownlinkPower((np.array([1.0, 0.0]),))
        assert _flat_rates(cfg, np.zeros(1), q.flat())[1][0] == 0.0

    def test_distant_eavesdropper(self):
        cfg = make_cfg([[2.0, 1.0]], pilot_len=1, eav_gain=0.0)
        q = DownlinkPower((np.array([1.0, 2.0, 1.0]),))
        assert _flat_rates(cfg, np.zeros(2), q.flat())[1].tolist() == [0.0, 0.0]

    def test_independent_of_antenna_count(self):
        rng = np.random.default_rng(5)
        cfg8, p, q = random_instance(rng, m=2, k=2, n_antennas=8)
        values = []
        for nt in (8, 64, 512):
            cfg = make_cfg([cfg8.beta(m) for m in range(2)], n_antennas=nt)
            values.append(_flat_rates(cfg, np.zeros(4), q.flat())[1].tolist())
        assert values[0] == values[1] == values[2]

    def test_cancellation_advantage_of_strongest_user(self):
        # The strongest user cancels its whole cluster, but the
        # eavesdropper still absorbs every co-scheduled power: its SINR
        # denominator grows with the cluster powers while the legitimate
        # intra-cluster term stays empty.
        cfg = make_cfg([[3.0, 2.0, 1.0]], pilot_len=1, eav_gain=1.0)
        rho = EstimationQuality((np.array([0.5, 0.3, 0.2]),))
        q_small = DownlinkPower((np.array([0.0, 4.0, 0.1, 0.1]),))
        q_large = DownlinkPower((np.array([0.0, 4.0, 3.0, 3.0]),))
        assert _user_terms(cfg, rho.flat(), q_small.flat())[2][0] == 0.0
        assert _user_terms(cfg, rho.flat(), q_large.flat())[2][0] == 0.0
        eaves_small = _flat_rates(cfg, rho.flat(), q_small.flat())[1]
        eaves_large = _flat_rates(cfg, rho.flat(), q_large.flat())[1]
        assert eaves_large[0] < eaves_small[0]


class TestSecrecyReport:
    def test_clamp(self):
        # Strong eavesdropper, tiny antennas: secrecy floors at zero.
        cfg = make_cfg([[0.5, 0.2]], n_antennas=2, pilot_len=1, eav_gain=1000.0)
        p = UplinkPower.full(cfg, 0.01)
        q = DownlinkPower((np.array([0.0, 1.0, 1.0]),))
        report = secrecy_report(cfg, p, q)
        assert np.all(report.secrecy[0] >= 0.0)
        raw = report.legit[0] - report.eaves[0]
        assert np.any(raw < 0.0)
        np.testing.assert_array_equal(report.secrecy[0], np.maximum(raw, 0.0))

    def test_symmetric_clusters_match(self):
        cfg = make_cfg([[4.0, 2.0], [4.0, 2.0]], pilot_len=2)
        p = UplinkPower.full(cfg, 0.7)
        q = DownlinkPower((np.array([1.0, 3.0, 2.0]), np.array([1.0, 3.0, 2.0])))
        report = secrecy_report(cfg, p, q)
        np.testing.assert_allclose(report.secrecy[0], report.secrecy[1], rtol=1e-13)

    def test_recomposition(self):
        rng = np.random.default_rng(7)
        cfg, p, q = random_instance(rng, m=3, k=2)
        rho = compute_rho(cfg, p)
        report = secrecy_report(cfg, p, q)
        legit_flat, eaves_flat = _flat_rates(cfg, rho.flat(), q.flat())
        total = 0.0
        for m in range(3):
            for k in range(2):
                u = int(cfg.user_offsets[m]) + k
                legit, eaves = float(legit_flat[u]), float(eaves_flat[u])
                assert report.legit[m][k] == legit
                assert report.eaves[m][k] == eaves
                assert report.secrecy[m][k] == max(legit - eaves, 0.0)
                total += max(legit - eaves, 0.0)
        assert report.sum_secrecy == pytest.approx(total, rel=1e-13)


class TestLargeAntennaAsymptote:
    def test_strongest_user_unbounded(self):
        cfg = make_cfg([[2.0, 1.0]], pilot_len=1)
        q = DownlinkPower((np.array([1.0, 4.0, 2.0]),))
        assert asymptotic_large_nt(cfg, q, 0, 0) == math.inf

    def test_second_user_value(self):
        cfg = make_cfg([[2.0, 1.0]], pilot_len=1, coherence_len=2)
        q = DownlinkPower((np.array([1.0, 4.0, 2.0]),))
        expected = 0.5 * math.log2(1.0 + 2.0 / 4.0)
        assert asymptotic_large_nt(cfg, q, 0, 1) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.2925, abs=5e-5)

    def test_independent_of_gains_and_an(self):
        q = DownlinkPower((np.array([1.0, 4.0, 2.0]),))
        values = set()
        for betas, eav, nt in [([9.0, 1.0], 0.0, 8), ([50.0, 30.0], 99.0, 4096)]:
            cfg = make_cfg([betas], pilot_len=1, coherence_len=2, eav_gain=eav, n_antennas=nt)
            values.add(asymptotic_large_nt(cfg, q, 0, 1))
        assert len(values) == 1

    def test_legit_rate_converges_from_below(self):
        cfg_base = make_cfg([[2.0, 1.0], [3.0, 1.5]], pilot_len=2, eav_gain=1.0)
        p = UplinkPower.full(cfg_base, 0.5)
        rho = compute_rho(cfg_base, p)
        q = DownlinkPower((np.array([1.0, 4.0, 2.0]), np.array([1.0, 3.0, 1.0])))
        limit = asymptotic_large_nt(cfg_base, q, 0, 1)
        gaps = []
        for nt in (64, 256, 1024, 4096):
            cfg = make_cfg(
                [cfg_base.beta(0), cfg_base.beta(1)],
                n_antennas=nt,
                pilot_len=2,
                eav_gain=1.0,
            )
            rate = _flat_rates(cfg, rho.flat(), q.flat())[0][1]
            assert rate < limit
            gaps.append(limit - rate)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] / limit < 0.02


class TestHighPowerAsymptote:
    def test_eaves_limit_single_cluster(self):
        # shares [AN=.2, .5, .3]: strongest user sees .5 / (.2+.3) = 1.
        cfg = make_cfg([[2.0, 1.0]], pilot_len=1, coherence_len=2)
        rho = EstimationQuality((np.array([0.6, 0.2]),))
        shares = DownlinkPower((np.array([0.2, 0.5, 0.3]),))
        _, eaves = asymptotic_high_power(cfg, rho, shares)
        assert eaves[0][0] == pytest.approx(0.5 * math.log2(2.0), rel=1e-12)

    def test_share_sum_validated(self):
        cfg = make_cfg([[2.0, 1.0]], pilot_len=1)
        rho = EstimationQuality((np.array([0.6, 0.2]),))
        shares = DownlinkPower((np.array([0.2, 0.5, 0.4]),))
        with pytest.raises(ValueError, match="sum to 1"):
            asymptotic_high_power(cfg, rho, shares)

    def test_inter_cluster_terms_cancel_in_secrecy_limit(self):
        # Both limits carry the identical inter-cluster share sum, so the
        # secrecy limit must not change when that sum is recomposed among
        # the other clusters.
        rho = EstimationQuality((np.array([0.6, 0.2]), np.array([0.5, 0.1])))
        base = [np.array([0.1, 0.25, 0.15]), np.array([0.1, 0.25, 0.15])]
        swap = [np.array([0.1, 0.25, 0.15]), np.array([0.2, 0.2, 0.1])]
        secrecy = []
        for rows in (base, swap):
            cfg = make_cfg([[2.0, 1.0], [3.0, 1.0]], pilot_len=2, coherence_len=4)
            legit, eaves = asymptotic_high_power(cfg, rho, DownlinkPower(tuple(rows)))
            secrecy.append(legit[0] - eaves[0])
        np.testing.assert_allclose(secrecy[0], secrecy[1], rtol=1e-12)

    def test_report_approaches_limits(self):
        # With Q = shares * 1e6 the finite-power rates sit within 1% of
        # the limits (legit and eavesdropping separately).
        cfg = make_cfg([[20.0, 5.0], [30.0, 10.0]], pilot_len=2, eav_gain=10.0)
        p = UplinkPower.full(cfg, 1.0)
        rho = compute_rho(cfg, p)
        rows = [np.array([0.10, 0.25, 0.15]), np.array([0.10, 0.25, 0.15])]
        shares = DownlinkPower(tuple(rows))
        q = DownlinkPower(tuple(1e6 * r for r in rows))
        legit_lim, eaves_lim = asymptotic_high_power(cfg, rho, shares)
        report = secrecy_report(cfg, p, q)
        for m in range(2):
            np.testing.assert_allclose(report.legit[m], legit_lim[m], rtol=0.01)
            np.testing.assert_allclose(report.eaves[m], eaves_lim[m], rtol=0.01)

    def test_scale_free_after_renormalizing(self):
        cfg = make_cfg([[2.0, 1.0]], pilot_len=1)
        rho = EstimationQuality((np.array([0.6, 0.2]),))
        rows = np.array([0.2, 0.5, 0.3])
        a = asymptotic_high_power(cfg, rho, DownlinkPower((rows,)))
        b = asymptotic_high_power(cfg, rho, DownlinkPower((3.0 * rows / 3.0,)))
        np.testing.assert_array_equal(a[0][0], b[0][0])


class TestOmaReport:
    def _single_user_setup(self, rng):
        betas = [[float(rng.uniform(1.0, 100.0))] for _ in range(4)]
        cfg = make_cfg(betas, n_antennas=128, pilot_len=4, eav_gain=10.0)
        p = UplinkPower(tuple(rng.uniform(0.1, 1.0, 1) for _ in range(4)))
        q = DownlinkPower(tuple(rng.uniform(0.1, 10.0, 2) for _ in range(4)))
        return cfg, p, q

    def test_matches_general_report_on_single_user_clusters(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            cfg, p, q = self._single_user_setup(rng)
            a = oma_report(cfg, p, q)
            b = secrecy_report(cfg, p, q)
            for m in range(4):
                np.testing.assert_allclose(a.legit[m], b.legit[m], rtol=1e-12)
                np.testing.assert_allclose(a.eaves[m], b.eaves[m], rtol=1e-12)
                np.testing.assert_allclose(a.secrecy[m], b.secrecy[m], rtol=1e-12)

    def test_rejects_multi_user_clusters(self):
        cfg = make_cfg([[2.0, 1.0]], pilot_len=1)
        p = UplinkPower.full(cfg, 1.0)
        q = DownlinkPower((np.array([0.0, 1.0, 1.0]),))
        with pytest.raises(ValueError, match="one user per cluster"):
            oma_report(cfg, p, q)

    def test_zero_power_zero_secrecy(self):
        cfg = make_cfg([[2.0]], pilot_len=1)
        p = UplinkPower.full(cfg, 1.0)
        q = DownlinkPower((np.array([1.0, 0.0]),))
        report = oma_report(cfg, p, q)
        assert report.secrecy[0][0] == 0.0

    def test_silent_eavesdropper(self):
        cfg = make_cfg([[2.0]], pilot_len=1, eav_gain=0.0)
        p = UplinkPower.full(cfg, 1.0)
        q = DownlinkPower((np.array([0.5, 2.0]),))
        report = oma_report(cfg, p, q)
        assert report.secrecy[0][0] == report.legit[0][0]


class TestEnergyEfficiency:
    def test_direct_value(self):
        cfg = make_cfg([[2.0]], pilot_len=1)
        p = UplinkPower(([0.5],))
        q = DownlinkPower((np.array([0.2, 0.8]),))
        report = secrecy_report(cfg, p, q)
        fake = type(report)(
            legit=report.legit,
            eaves=report.eaves,
            secrecy=report.secrecy,
            sum_secrecy=2.0,
        )
        assert energy_efficiency(fake, p, q, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_zero_rate_zero_efficiency(self):
        cfg = make_cfg([[2.0]], pilot_len=1)
        p = UplinkPower(([0.5],))
        q = DownlinkPower((np.array([1.0, 0.0]),))
        report = secrecy_report(cfg, p, q)
        assert energy_efficiency(report, p, q, 0.5) == 0.0

    def test_more_circuit_power_less_efficiency(self):
        cfg = make_cfg([[20.0]], pilot_len=1, eav_gain=0.1)
        p = UplinkPower(([0.5],))
        q = DownlinkPower((np.array([0.0, 5.0]),))
        report = secrecy_report(cfg, p, q)
        assert report.sum_secrecy > 0.0
        assert energy_efficiency(report, p, q, 1.0) < energy_efficiency(
            report, p, q, 0.5
        )

    def test_requires_positive_circuit_power(self):
        cfg = make_cfg([[2.0]], pilot_len=1)
        p = UplinkPower(([0.5],))
        q = DownlinkPower((np.array([0.0, 1.0]),))
        report = secrecy_report(cfg, p, q)
        with pytest.raises(ValueError):
            energy_efficiency(report, p, q, 0.0)

    @pytest.mark.parametrize("circuit_power", [math.nan, math.inf])
    def test_rejects_non_finite_circuit_power(self, circuit_power):
        cfg = make_cfg([[2.0]], pilot_len=1)
        p = UplinkPower(([0.5],))
        q = DownlinkPower((np.array([0.0, 1.0]),))
        report = secrecy_report(cfg, p, q)
        with pytest.raises(ValueError, match="circuit_power must be positive and finite"):
            energy_efficiency(report, p, q, circuit_power)


# Gamma(n + 1/2) / Gamma(n) rounded to double from 40-digit arithmetic,
# on both sides of the switch from the direct ratio to the series.
CHI_MEAN_REFERENCE = {
    1: 0.886226925452758,
    2: 1.329340388179137,
    8: 2.7846046217228992,
    32: 5.63480116017747,
    64: 7.984390407483771,
    128: 11.302665376639599,
    170: 13.028821285648132,
    171: 13.06714134825298,
    256: 15.992189412002837,
    1000: 31.618824001815913,
    4096: 63.99804690480687,
}


def test_chi_mean_to_one_ulp():
    for n, expected in CHI_MEAN_REFERENCE.items():
        assert abs(chi_mean(n) - expected) <= 2.3e-16 * expected, n
