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
    db_to_linear,
    linear_to_db,
    validate_config,
)
from noma_secrecy.optimize import maximize_se


def make_cfg(betas, n_antennas=64, pilot_len=None, coherence_len=300, eav_gain=10.0):
    clusters = tuple(ClusterConfig(np.asarray(b, dtype=float)) for b in betas)
    return SystemConfig(
        n_antennas=n_antennas,
        clusters=clusters,
        pilot_len=pilot_len if pilot_len is not None else len(betas),
        coherence_len=coherence_len,
        eav_gain=eav_gain,
    )


class TestValidateConfig:
    def test_accepts_sorted_two_cluster_layout(self):
        cfg = make_cfg([[3.0, 1.0], [2.0, 0.5]], pilot_len=2, coherence_len=300)
        assert validate_config(cfg) is cfg

    def test_rejects_pilot_shorter_than_cluster_count(self):
        cfg = make_cfg([[1.0], [1.0], [1.0]], pilot_len=2)
        with pytest.raises(ValueError, match="pilot_len"):
            validate_config(cfg)

    def test_rejects_unsorted_betas(self):
        cfg = make_cfg([[1.0, 2.0]], pilot_len=1)
        with pytest.raises(ValueError, match="sorted"):
            validate_config(cfg)

    def test_rejects_pilot_longer_than_coherence(self):
        cfg = make_cfg([[1.0]], pilot_len=10, coherence_len=5)
        with pytest.raises(ValueError):
            validate_config(cfg)

    def test_rejects_nonpositive_beta(self):
        cfg = make_cfg([[1.0, 0.0]])
        with pytest.raises(ValueError, match="non-positive"):
            validate_config(cfg)

    def test_rejects_negative_eav_gain(self):
        cfg = make_cfg([[1.0]], eav_gain=-1.0)
        with pytest.raises(ValueError, match="eav_gain"):
            validate_config(cfg)


class TestDbConversion:
    def test_zero_db_is_unit(self):
        assert db_to_linear(0.0) == 1.0

    def test_twenty_db_is_hundred(self):
        assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-12)

    def test_half_linear(self):
        # 10 log10(0.5) computed independently
        assert linear_to_db(0.5) == pytest.approx(10.0 * math.log10(0.5), rel=1e-12)
        assert linear_to_db(0.5) == pytest.approx(-3.0102999566, rel=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for x_db in rng.uniform(-40.0, 40.0, size=50):
            assert linear_to_db(db_to_linear(x_db)) == pytest.approx(x_db, abs=1e-10)

    def test_rejects_nonpositive_linear(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)


class TestComputeRho:
    def test_zero_power_single_user(self):
        cfg = make_cfg([[2.0]])
        rho = compute_rho(cfg, UplinkPower.full(cfg, 0.0))
        assert rho.rho[0][0] == 0.0

    def test_saturates_toward_one(self):
        cfg = make_cfg([[2.0]])
        rho = compute_rho(cfg, UplinkPower.full(cfg, 1e12))
        assert 0.999999 < rho.rho[0][0] < 1.0

    def test_two_user_fractions(self):
        # rho = P beta tau / (1 + sum P beta tau):
        # energies 1*4*2 = 8 and 0.5*2*2 = 2, denominator 11.
        cfg = make_cfg([[4.0, 2.0]], pilot_len=2)
        rho = compute_rho(cfg, UplinkPower(([1.0, 0.5],)))
        np.testing.assert_allclose(rho.rho[0], [8.0 / 11.0, 2.0 / 11.0], rtol=1e-13)

    def test_cluster_sum_below_one_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = rng.integers(1, 5)
            betas = np.sort(rng.uniform(0.1, 100.0, k))[::-1]
            cfg = make_cfg([betas], pilot_len=1)
            p = UplinkPower((rng.uniform(0.0, 10.0, k),))
            rho = compute_rho(cfg, p)
            total = rho.rho[0].sum()
            energy = (p.p[0] * betas * cfg.pilot_len).sum()
            assert total < 1.0
            assert total == pytest.approx(energy / (1.0 + energy), rel=1e-12)

    def test_uniform_scaling_raises_every_rho(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            betas = np.sort(rng.uniform(0.1, 50.0, k))[::-1]
            cfg = make_cfg([betas], pilot_len=1)
            base = rng.uniform(0.05, 5.0, k)
            scale = rng.uniform(1.5, 4.0)
            rho_lo = compute_rho(cfg, UplinkPower((base,)))
            rho_hi = compute_rho(cfg, UplinkPower((scale * base,)))
            assert np.all(rho_hi.rho[0] > rho_lo.rho[0])

    def test_raising_other_users_power_lowers_own_rho(self):
        cfg = make_cfg([[4.0, 2.0]], pilot_len=2)
        rho_a = compute_rho(cfg, UplinkPower(([1.0, 0.5],)))
        rho_b = compute_rho(cfg, UplinkPower(([1.0, 5.0],)))
        assert rho_b.rho[0][0] < rho_a.rho[0][0]


class TestPowerContainers:
    def test_uplink_flat_round_trip(self):
        cfg = make_cfg([[3.0, 1.0], [2.0]], pilot_len=2)
        p = UplinkPower(([1.0, 2.0], [3.0],))
        back = UplinkPower.from_flat(cfg, p.flat())
        for a, b in zip(p.p, back.p):
            np.testing.assert_array_equal(a, b)
        assert p.total() == 6.0

    def test_downlink_layout_and_helpers(self):
        cfg = make_cfg([[3.0, 1.0], [2.0]], pilot_len=2)
        q = DownlinkPower(([0.5, 1.0, 2.0], [0.25, 4.0]))
        assert q.an(0) == 0.5
        assert q.user(0, 1) == 2.0
        assert q.an_total() == 0.75
        assert q.total() == pytest.approx(7.75)
        back = DownlinkPower.from_flat(cfg, q.flat())
        for a, b in zip(q.q, back.q):
            np.testing.assert_array_equal(a, b)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            UplinkPower(([-1.0],))
        with pytest.raises(ValueError):
            DownlinkPower(([0.5, -0.1],))

    def test_rows_are_read_only(self):
        p = UplinkPower(([1.0, 2.0],))
        with pytest.raises(ValueError):
            p.p[0][0] = 5.0


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_gain(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            validate_config(make_cfg([[bad, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_eav_gain(self, bad):
        with pytest.raises(ValueError, match="eav_gain"):
            validate_config(make_cfg([[1.0]], eav_gain=bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_powers(self, bad):
        with pytest.raises(ValueError, match="uplink power must be finite"):
            UplinkPower((np.array([0.5, bad]),))
        with pytest.raises(ValueError, match="downlink power must be finite"):
            DownlinkPower((np.array([0.5, 1.0]), np.array([bad, 1.0])))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rho(self, bad):
        # NaN fails both `< 0` and `>= 1`, so a test for out-of-range
        # values lets it in.
        with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\) \(cluster 1\)"):
            EstimationQuality(([0.1], [bad, 0.2]))


class TestLayoutSizes:
    def test_full_rejects_rows_of_another_layout(self):
        cfg = make_cfg([[3.0, 2.0, 1.0]])
        with pytest.raises(ValueError, match="sizes"):
            UplinkPower.full(cfg, [[0.5]])
        with pytest.raises(ValueError, match="sizes"):
            UplinkPower.full(cfg, [[0.5, 0.5], [0.5]])
        p = UplinkPower.full(cfg, [[0.5, 0.25, 0.125]])
        np.testing.assert_array_equal(p.flat(), [0.5, 0.25, 0.125])

    def test_solver_rejects_a_cap_of_another_layout(self):
        with pytest.raises(ValueError, match="sizes"):
            maximize_se(make_cfg([[3.0, 2.0, 1.0]]), [[0.5]], 10.0)
