import logging
import math
import re
from collections import Counter

import numpy as np
import pytest

import noma_secrecy.optimize as optimize_module

from noma_secrecy.model import (
    ClusterConfig,
    DownlinkPower,
    SystemConfig,
    UplinkPower,
    compute_rho,
    db_to_linear,
)
from noma_secrecy.optimize import (
    SolveOptions,
    SolverTrace,
    _dc_step,
    _downlink_coeffs,
    _downlink_forms,
    _downlink_stage,
    _objective,
    _uplink_coeffs,
    _uplink_forms,
    _uplink_stage,
    baseline_downlink_se,
    baseline_fixed,
    baseline_uplink_se,
    maximize_ee,
    maximize_se,
    optimize_oma_tdma,
    smooth_secrecy_sum,
)
from noma_secrecy.projgrad import (
    Box,
    ConcaveProblem,
    SolveResult,
    maximize,
)
from noma_secrecy.rates import (
    _flat_rates,
    _user_terms,
    energy_efficiency,
    secrecy_report,
)

from reference import best_scaled_ratio, finite_difference_gradient


def make_cfg(betas, n_antennas=64, pilot_len=None, coherence_len=300, eav_gain=10.0):
    clusters = tuple(ClusterConfig(np.asarray(b, dtype=float)) for b in betas)
    return SystemConfig(
        n_antennas=n_antennas,
        clusters=clusters,
        pilot_len=pilot_len if pilot_len is not None else len(betas),
        coherence_len=coherence_len,
        eav_gain=eav_gain,
    )


def scenario(seed, m=4, k=3, nt=64):
    rng = np.random.default_rng(seed)
    draws = np.sort(rng.uniform(0.0, 100.0, m * k).reshape(m, k), axis=1)[:, ::-1]
    return make_cfg(list(draws), n_antennas=nt)


def random_powers(cfg, rng, p_max=1.0, q_scale=5.0):
    p = UplinkPower(
        tuple(rng.uniform(0.05, p_max, k) for k in cfg.users_per_cluster)
    )
    q = DownlinkPower(
        tuple(rng.uniform(0.1, q_scale, k + 1) for k in cfg.users_per_cluster)
    )
    return p, q


def uplink_forms(cfg, q):
    return _uplink_forms(cfg, _uplink_coeffs(cfg, q))


def downlink_forms(cfg, rho):
    return _downlink_forms(cfg, _downlink_coeffs(cfg, rho))


def uplink_arguments(cfg, q, p):
    """The affine log arguments (f1, f2) of the uplink forms at p, flat."""
    x = p.flat()
    return tuple(f.A @ x + f.b for f in uplink_forms(cfg, q))


def dc_step(cfg, stage, x, options=None):
    """One DC step of `stage` from the powers x, as the solvers take it."""
    point, _ = _dc_step(stage, x.flat(), options or SolveOptions(), SolverTrace())
    return type(x).from_flat(cfg, point)


class TestCoefficients:
    def test_signs(self):
        cfg = scenario(3, m=2, k=3)
        rng = np.random.default_rng(4)
        p, q = random_powers(cfg, rng)
        a1, a2, a3 = (cfg.split_users(a) for a in _uplink_coeffs(cfg, q))
        b1, b2, b3 = (cfg.split_users(b) for b in _downlink_coeffs(cfg, compute_rho(cfg, p)))
        for m in range(2):
            assert np.all(a1[m] > 0.0)
            assert np.all(a3[m] > 0.0)
            # strongest user: a2 = -beta (Q_an + Q_own) < 0
            beta = cfg.beta(m)[0]
            expected = -beta * (q.an(m) + q.user(m, 0))
            assert a2[m][0] == pytest.approx(expected, rel=1e-12)
            assert np.all(b1[m] >= 0.0)
            assert np.all(b2[m] > 0.0)
            assert np.all(b3[m] > 0.0)

    def test_subtracted_log_argument_identity(self):
        # The f2 argument factors as (total interference + 1) times the
        # pilot normalizer (1 + tau sum beta P), so it stays positive.
        rng = np.random.default_rng(5)
        cfg = scenario(6, m=3, k=2)
        for _ in range(25):
            p, q = random_powers(cfg, rng)
            rho = compute_rho(cfg, p)
            _, args2 = uplink_arguments(cfg, q, p)
            _, im1, im2, im3 = _user_terms(cfg, rho.flat(), q.flat())[:4]
            tau = cfg.pilot_len
            i = 0
            for m in range(cfg.n_clusters):
                normalizer = 1.0 + tau * float(cfg.beta(m) @ p.p[m])
                for k in range(cfg.users_per_cluster[m]):
                    expected = (im1[i] + im2[i] + im3[i] + 1.0) * normalizer
                    assert args2[i] == pytest.approx(expected, rel=1e-9)
                    assert args2[i] > 0.0
                    i += 1

    def test_first_log_argument_identity(self):
        # Same factorization with the signal term included.
        rng = np.random.default_rng(55)
        cfg = scenario(7, m=2, k=2)
        p, q = random_powers(cfg, rng)
        rho = compute_rho(cfg, p)
        args1, _ = uplink_arguments(cfg, q, p)
        kappa, im1, im2, im3 = _user_terms(cfg, rho.flat(), q.flat())[:4]
        tau = cfg.pilot_len
        i = 0
        for m in range(cfg.n_clusters):
            normalizer = 1.0 + tau * float(cfg.beta(m) @ p.p[m])
            for k in range(cfg.users_per_cluster[m]):
                expected = (kappa[i] + im1[i] + im2[i] + im3[i] + 1.0) * normalizer
                assert args1[i] == pytest.approx(expected, rel=1e-9)
                i += 1


class TestObjectives:
    def test_uplink_value_is_rate_sum(self):
        rng = np.random.default_rng(8)
        cfg = scenario(9, m=2, k=2)
        p, q = random_powers(cfg, rng)
        rho = compute_rho(cfg, p)
        value, _ = _objective(cfg, uplink_forms(cfg, q), p.flat(), 0.0)
        direct = float(_flat_rates(cfg, rho.flat(), q.flat())[0].sum())
        assert value == pytest.approx(direct, rel=1e-11)

    def test_uplink_zero_power_zero_value(self):
        cfg = scenario(10, m=2, k=2)
        _, q = random_powers(cfg, np.random.default_rng(11))
        value, _ = _objective(cfg, uplink_forms(cfg, q), np.zeros(cfg.total_users), 0.0)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_downlink_value_is_secrecy_sum(self):
        rng = np.random.default_rng(12)
        cfg = scenario(13, m=3, k=2)
        p, q = random_powers(cfg, rng)
        rho = compute_rho(cfg, p)
        value, _ = _objective(cfg, downlink_forms(cfg, rho), q.flat(), 0.0)
        legit, eaves = _flat_rates(cfg, rho.flat(), q.flat())
        direct = float((legit - eaves).sum())
        assert value == pytest.approx(direct, rel=1e-11)
        assert value == pytest.approx(smooth_secrecy_sum(cfg, p, q), rel=1e-11)

    def test_downlink_zero_power_zero_value(self):
        cfg = scenario(14, m=2, k=2)
        p, _ = random_powers(cfg, np.random.default_rng(15))
        rho = compute_rho(cfg, p)
        value, _ = _objective(cfg, downlink_forms(cfg, rho), DownlinkPower.zeros(cfg).flat(), 0.0)
        assert value == 0.0

    def test_downlink_without_eavesdropper_is_rate_sum(self):
        rng = np.random.default_rng(16)
        cfg = scenario(17, m=2, k=2)
        cfg = make_cfg([cfg.beta(m) for m in range(2)], eav_gain=0.0)
        p, q = random_powers(cfg, rng)
        rho = compute_rho(cfg, p)
        value, _ = _objective(cfg, downlink_forms(cfg, rho), q.flat(), 0.0)
        direct = float(_flat_rates(cfg, rho.flat(), q.flat())[0].sum())
        assert value == pytest.approx(direct, rel=1e-11)

    @pytest.mark.parametrize("penalty", [0.0, 0.35])
    def test_gradients_match_finite_differences(self, penalty):
        rng = np.random.default_rng(18)
        cfg = scenario(19, m=3, k=2)
        for _ in range(5):
            p, q = random_powers(cfg, rng)
            rho = compute_rho(cfg, p)

            up_forms = uplink_forms(cfg, q)
            _, grad = _objective(cfg, up_forms, p.flat(), penalty)
            fd = finite_difference_gradient(
                lambda x: _objective(cfg, up_forms, x, penalty)[0], p.flat()
            )
            assert np.linalg.norm(grad - fd) / np.linalg.norm(grad) < 1e-5

            down_forms = downlink_forms(cfg, rho)
            _, grad_q = _objective(cfg, down_forms, q.flat(), penalty)
            fd_q = finite_difference_gradient(
                lambda x: _objective(cfg, down_forms, x, penalty)[0], q.flat()
            )
            assert np.linalg.norm(grad_q - fd_q) / np.linalg.norm(grad_q) < 1e-5


class TestDcSteps:
    def test_uplink_step_monotone(self):
        rng = np.random.default_rng(20)
        cfg = scenario(21, m=2, k=2)
        for _ in range(10):
            p, q = random_powers(cfg, rng)
            stage = _uplink_stage(cfg, q, 1.0)
            before, _ = _objective(cfg, stage.forms, p.flat(), 0.0)
            p_next = dc_step(cfg, stage, p)
            after, _ = _objective(cfg, stage.forms, p_next.flat(), 0.0)
            assert after >= before - 1e-9

    def test_downlink_step_monotone(self):
        rng = np.random.default_rng(22)
        cfg = scenario(23, m=2, k=2)
        for _ in range(10):
            p, q = random_powers(cfg, rng, q_scale=3.0)
            stage = _downlink_stage(cfg, compute_rho(cfg, p), 100.0)
            before, _ = _objective(cfg, stage.forms, q.flat(), 0.0)
            q_next = dc_step(cfg, stage, q)
            after, _ = _objective(cfg, stage.forms, q_next.flat(), 0.0)
            assert after >= before - 1e-9
            assert q_next.total() <= 100.0 + 1e-9

    def test_an_allocation_grows_with_eavesdropper_gain(self):
        # Qualitative probe: with a 100x stronger eavesdropper the
        # optimizer should not spend less on the jamming slots.
        base = scenario(29, m=2, k=2, nt=64)
        an_totals = {}
        for eav in (0.1, 10.0):
            cfg = make_cfg([base.beta(m) for m in range(2)], eav_gain=eav)
            _, q, _, _ = maximize_se(cfg, 1.0, 50.0)
            an_totals[eav] = q.an_total()
        print("AN totals vs eavesdropper gain:", an_totals)
        assert an_totals[10.0] >= an_totals[0.1] - 1e-6

    def test_stationary_point_is_fixed(self):
        cfg = scenario(24, m=2, k=2)
        p, q = baseline_fixed(cfg, 1.0, 50.0)
        opts = SolveOptions(kernel_tol=1e-10, kernel_max_iter=3000)
        stage = _uplink_stage(cfg, q, 1.0)
        for _ in range(40):
            p_new = dc_step(cfg, stage, p, opts)
            if np.linalg.norm(p_new.flat() - p.flat()) < 1e-12:
                break
            p = p_new
        p_again = dc_step(cfg, stage, p, opts)
        assert np.linalg.norm(p_again.flat() - p.flat()) < 1e-6

    def test_uplink_separable_across_clusters(self):
        # The uplink objective separates per cluster: each cluster's
        # optimal slice does not depend on what the other clusters do, so
        # slices taken from solves run in perturbed environments assemble
        # to the joint optimum (value agreement to 1e-8).
        cfg = scenario(25, m=2, k=2)
        _, q = baseline_fixed(cfg, 1.0, 50.0)
        opts = SolveOptions(kernel_tol=1e-9, kernel_max_iter=2000)
        rng = np.random.default_rng(99)
        stage = _uplink_stage(cfg, q, 1.0)

        def run_dc(p_start):
            p_cur = p_start
            prev = -np.inf
            for _ in range(60):
                p_cur = dc_step(cfg, stage, p_cur, opts)
                value, _ = _objective(cfg, stage.forms, p_cur.flat(), 0.0)
                if value - prev < 1e-10:
                    break
                prev = value
            return p_cur

        joint = run_dc(UplinkPower.full(cfg, 1.0))
        joint_value, _ = _objective(cfg, stage.forms, joint.flat(), 0.0)

        assembled = joint.flat().copy()
        for m in range(2):
            rows = [rng.uniform(0.05, 1.0, 2) for _ in range(2)]
            rows[m] = np.full(2, 1.0)
            sub = run_dc(UplinkPower(tuple(rows)))
            assembled[2 * m : 2 * m + 2] = sub.flat()[2 * m : 2 * m + 2]
        av, _ = _objective(cfg, stage.forms, assembled, 0.0)
        assert abs(av - joint_value) < 1e-8


class TestStageLoopMatchesOneStep:
    """The solvers' stage loop and one `_dc_step` on a stage built from the
    same powers land on the same bits."""

    LAYOUTS = {
        "square": scenario(50, m=2, k=2, nt=32),
        "ragged": make_cfg([[70.0, 15.0, 4.0], [50.0]], n_antennas=8),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_one_se_round_is_one_uplink_then_one_downlink_step(self, layout):
        cfg = self.LAYOUTS[layout]
        options = SolveOptions(max_inner=1, max_outer=1)
        p0, q0 = baseline_fixed(cfg, 1.0, 10.0)
        p, q, _, _ = maximize_se(cfg, 1.0, 10.0, options)
        p1 = dc_step(cfg, _uplink_stage(cfg, q0, 1.0), p0, options)
        q1 = dc_step(cfg, _downlink_stage(cfg, compute_rho(cfg, p1), 10.0), q0, options)
        assert np.array_equal(p.flat(), p1.flat())
        assert np.array_equal(q.flat(), q1.flat())

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_one_step_baselines_are_one_public_step(self, layout):
        cfg = self.LAYOUTS[layout]
        options = SolveOptions(max_inner=1)
        p0, q0 = baseline_fixed(cfg, 1.0, 10.0)
        p, q, _, _ = baseline_uplink_se(cfg, 1.0, 10.0, options)
        p1 = dc_step(cfg, _uplink_stage(cfg, q0, 1.0), p0, options)
        assert np.array_equal(p.flat(), p1.flat())
        assert np.array_equal(q.flat(), q0.flat())
        p, q, _, _ = baseline_downlink_se(cfg, 1.0, 10.0, options)
        q1 = dc_step(cfg, _downlink_stage(cfg, compute_rho(cfg, p0), 10.0), q0, options)
        assert np.array_equal(p.flat(), p0.flat())
        assert np.array_equal(q.flat(), q1.flat())


class TestStageLoopRefusesBadPoints:
    """The stage loop passes the kernel's flat point on without wrapping it
    in a power container, so it checks each point itself: a non-finite or
    negative entry raises at the step that returned it."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("side", ["uplink", "downlink"])
    def test_raises_at_the_first_bad_step(self, monkeypatch, bad, side):
        cfg = make_cfg([[70.0, 15.0, 4.0], [50.0]], n_antennas=8)
        calls = []

        def broken(problem, x0, tol, max_iter):
            calls.append(x0)
            point = np.array(x0, dtype=float)
            point[-1] = bad
            return SolveResult(point, 0.0, 0.0, 1, "stationary")

        monkeypatch.setattr(optimize_module, "maximize", broken)
        solve = baseline_uplink_se if side == "uplink" else baseline_downlink_se
        with pytest.raises(ValueError, match="%s DC step left the finite nonnegative" % side):
            solve(cfg, 1.0, 10.0)
        assert len(calls) == 1


class TestMaximizeSe:
    def test_trivial_instance_matches_grid_search(self):
        # Single cluster, single user, silent eavesdropper: uplink at its
        # cap, downlink budget fully on the user, no AN.
        cfg = make_cfg([[5.0]], pilot_len=1, eav_gain=0.0)
        p, q, report, trace = maximize_se(cfg, 1.0, 10.0)
        assert trace.converged
        assert p.p[0][0] == pytest.approx(1.0, abs=1e-6)
        assert q.an(0) == pytest.approx(0.0, abs=1e-6)
        assert q.total() == pytest.approx(10.0, abs=1e-5)

        # brute-force oracle over (P, AN share, budget use)
        best = -np.inf
        for p_val in np.linspace(0.05, 1.0, 20):
            for used in np.linspace(0.1, 10.0, 25):
                for an_share in np.linspace(0.0, 0.9, 19):
                    pp = UplinkPower(([p_val],))
                    qq = DownlinkPower(
                        (np.array([an_share * used, (1 - an_share) * used]),)
                    )
                    best = max(best, secrecy_report(cfg, pp, qq).sum_secrecy)
        assert report.sum_secrecy >= best - 1e-6

    def test_trace_monotone_and_budget(self):
        cfg = scenario(26)
        p, q, report, trace = maximize_se(cfg, 1.0, 100.0)
        assert trace.converged
        diffs = np.diff(trace.outer_values)
        assert np.all(diffs >= -1e-9)
        assert q.total() <= 100.0 + 1e-9
        assert np.all(p.flat() <= 1.0 + 1e-12)
        for vals in trace.step_values:
            assert np.all(np.diff(vals) >= -1e-9)

    def test_epsilon_shrinks(self):
        cfg = scenario(27)
        _, _, _, trace = maximize_se(cfg, 1.0, 100.0)
        assert abs(trace.epsilons[-1]) <= 1e-3

    def test_dominates_baselines(self):
        cfg = scenario(28)
        _, _, rep, _ = maximize_se(cfg, 1.0, 100.0)
        pb, qb = baseline_fixed(cfg, 1.0, 100.0)
        rep_fixed = secrecy_report(cfg, pb, qb)
        _, _, rep_down, trace_d = baseline_downlink_se(cfg, 1.0, 100.0)
        _, _, rep_up, trace_u = baseline_uplink_se(cfg, 1.0, 100.0)
        assert rep.sum_secrecy >= rep_fixed.sum_secrecy - 1e-6
        assert rep.sum_secrecy >= rep_down.sum_secrecy - 1e-6
        assert rep.sum_secrecy >= rep_up.sum_secrecy - 1e-6
        assert rep_down.sum_secrecy >= rep_fixed.sum_secrecy - 1e-6
        assert rep_up.sum_secrecy >= rep_fixed.sum_secrecy - 1e-6
        assert np.all(np.diff(trace_d.outer_values) >= -1e-9)
        assert np.all(np.diff(trace_u.outer_values) >= -1e-9)


class TestBaselineFixed:
    def test_split_arithmetic(self):
        cfg = scenario(30, m=4, k=3)
        p, q = baseline_fixed(cfg, 0.7, 100.0)
        for m in range(4):
            np.testing.assert_allclose(p.p[m], 0.7)
            assert q.an(m) == pytest.approx(20.0 / 4.0, rel=1e-12)
            np.testing.assert_allclose(q.users(m), 80.0 / 12.0, rtol=1e-12)
        assert q.total() == pytest.approx(100.0, rel=1e-12)

    def test_uplink_baseline_keeps_fixed_downlink(self):
        cfg = scenario(31, m=2, k=2)
        p, q, _, _ = baseline_uplink_se(cfg, 1.0, 50.0)
        _, q_fixed = baseline_fixed(cfg, 1.0, 50.0)
        for m in range(2):
            np.testing.assert_array_equal(q.q[m], q_fixed.q[m])

    def test_downlink_baseline_keeps_max_uplink(self):
        cfg = scenario(32, m=2, k=2)
        p, q, _, _ = baseline_downlink_se(cfg, 1.0, 50.0)
        np.testing.assert_allclose(p.flat(), 1.0)

    def test_an_fraction_validated(self):
        cfg = scenario(33, m=2, k=2)
        with pytest.raises(ValueError):
            baseline_fixed(cfg, 1.0, 10.0, an_fraction=1.0)


class TestMaximizeEe:
    @pytest.fixture
    def rounds(self, monkeypatch):
        """(lam, p0, q0, round trace) of every Dinkelbach round."""
        seen = []
        alternate = optimize_module._alternate

        def recording(cfg, p_max, q_max, p0, q0, options, lam=0.0, **kwargs):
            result = alternate(cfg, p_max, q_max, p0, q0, options, lam=lam, **kwargs)
            seen.append((lam, p0, q0, result[2]))
            return result

        monkeypatch.setattr(optimize_module, "_alternate", recording)
        return seen

    def test_lambda_monotone_and_terminal_gap(self):
        cfg = scenario(34, m=2, k=2, nt=32)
        circuit = db_to_linear(-5.0)
        p, q, ee, trace = maximize_ee(cfg, 1.0, 10.0, circuit_power=circuit)
        lams = trace.lambda_sequence
        assert lams[0] == pytest.approx(best_scaled_ratio(cfg, 1.0, 10.0, circuit), rel=1e-12)
        assert lams[0] > 0.0
        assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))
        assert trace.converged
        assert 0.0 <= trace.epsilons[-1] <= 1e-6
        assert ee == pytest.approx(lams[-1], rel=1e-6)

    def test_beats_se_allocation_in_efficiency(self):
        cfg = scenario(35, m=2, k=2, nt=32)
        circuit = db_to_linear(-5.0)
        p_se, q_se, rep_se, _ = maximize_se(cfg, 1.0, 10.0)
        _, _, ee, _ = maximize_ee(cfg, 1.0, 10.0, circuit_power=circuit)
        assert ee >= energy_efficiency(rep_se, p_se, q_se, circuit) - 1e-9

    def test_first_round_starts_at_zero_subtractive_value(self, rounds):
        # The warm start: round one starts at the point whose ratio is
        # lambda_0, so its subtractive value there is 0, and the
        # alternation only raises it.
        cfg = scenario(36, m=2, k=2, nt=32)
        _, _, _, trace = maximize_ee(cfg, 1.0, 10.0, circuit_power=0.5)
        lam, p0, q0, first = rounds[0]
        assert lam == trace.lambda_sequence[0] > 0.0
        assert lam == smooth_secrecy_sum(cfg, p0, q0) / (p0.total() + q0.total() + 0.5)
        assert first.outer_values[0] == pytest.approx(0.0, abs=1e-12)
        assert all(b >= a for a, b in zip(first.outer_values, first.outer_values[1:]))
        assert trace.epsilons[0] >= 0.0

    def test_no_positive_scaled_ratio_starts_from_zero_powers(self, rounds):
        # One user, no AN and a strong eavesdropper: every scaled fixed
        # split has a negative secrecy sum.
        cfg = make_cfg([[1.0]], n_antennas=8, eav_gain=1e4)
        assert best_scaled_ratio(cfg, 1.0, 10.0, 0.5, an_fraction=0.0) == 0.0
        p, q, ee, trace = maximize_ee(cfg, 1.0, 10.0, circuit_power=0.5, an_fraction=0.0)
        lam, p0, q0, _ = rounds[0]
        assert lam == trace.lambda_sequence[0] == 0.0
        assert not p0.flat().any() and not q0.flat().any()
        assert trace.converged and ee == 0.0

    def test_bench_layout_work_counts(self):
        # The seed-1 benchmark EE instance: from the full-budget split at
        # lambda = 0 the solve took 710 kernel calls and capped 7 DC
        # stages; the scaled start took 155 calls and 430 iterations and
        # capped none, and boosting the DC steps of its rounds takes 66
        # calls and 201 iterations. The counts do not depend on the
        # machine.
        cfg = make_cfg(
            [[79.41282782187035, 20.090630467173817], [58.89294046503912, 9.876066929078913]]
        )
        _, _, _, trace = maximize_ee(cfg, 1.0, 100.0, circuit_power=db_to_linear(-5.0))
        assert trace.converged
        assert trace.stage_caps == 0
        assert trace.kernel_stops.total() <= 70
        assert trace.kernel_iterations <= 210
        assert 0 < trace.boosts <= trace.boost_trials

    def test_requires_positive_circuit_power(self):
        cfg = scenario(37, m=2, k=2)
        with pytest.raises(ValueError):
            maximize_ee(cfg, 1.0, 10.0, circuit_power=0.0)

    @pytest.mark.parametrize("circuit_power", [math.nan, math.inf])
    def test_rejects_non_finite_circuit_power(self, circuit_power):
        cfg = make_cfg([[5.0, 1.0]], n_antennas=8)
        with pytest.raises(ValueError, match="circuit_power must be positive and finite"):
            maximize_ee(cfg, 1.0, 10.0, circuit_power=circuit_power)


class TestKernelStops:
    @pytest.fixture
    def kernel_stops(self, monkeypatch):
        """Stop reasons of every kernel call, recorded beside the solver."""
        seen = []

        def recording(*args, **kwargs):
            result = maximize(*args, **kwargs)
            seen.append(result.stop)
            return result

        monkeypatch.setattr(optimize_module, "maximize", recording)
        return seen

    @pytest.mark.parametrize("kernel_max_iter", [300, 1])
    def test_se_counts_every_kernel_call(self, kernel_stops, caplog, kernel_max_iter):
        cfg = scenario(40, m=2, k=2, nt=32)
        options = SolveOptions(kernel_max_iter=kernel_max_iter)
        with caplog.at_level(logging.WARNING, logger="noma_secrecy"):
            _, _, _, trace = maximize_se(cfg, 1.0, 10.0, options)
        assert trace.kernel_stops == Counter(kernel_stops)
        assert trace.kernel_stops.total() == sum(len(v) - 1 for v in trace.step_values)
        caps = trace.kernel_stops["cap"]
        if kernel_max_iter == 1:
            assert caps > 0
            [record] = caplog.records
            assert record.levelno == logging.WARNING
            assert "maximize_se: %d of %d kernel calls" % (caps, len(kernel_stops)) in (
                record.getMessage()
            )
        else:
            assert caps == 0 and not caplog.records

    def test_ee_merges_every_round(self, kernel_stops, caplog):
        cfg = scenario(41, m=2, k=2, nt=32)
        options = SolveOptions(kernel_max_iter=1)
        with caplog.at_level(logging.WARNING, logger="noma_secrecy"):
            _, _, _, trace = maximize_ee(cfg, 1.0, 10.0, circuit_power=0.5, options=options)
        assert len(trace.epsilons) > 1
        assert trace.kernel_stops == Counter(kernel_stops)
        [record] = caplog.records
        assert "maximize_ee: %d of %d kernel calls" % (
            trace.kernel_stops["cap"], len(kernel_stops)
        ) in record.getMessage()

    def test_baselines_count_their_stage(self, kernel_stops):
        cfg = scenario(42, m=2, k=2, nt=32)
        for solve in (baseline_downlink_se, baseline_uplink_se):
            kernel_stops.clear()
            _, _, _, trace = solve(cfg, 1.0, 10.0)
            assert trace.kernel_stops.total() == len(kernel_stops) == len(trace.outer_values) - 1


class TestKernelIterations:
    """SolverTrace.kernel_iterations is the sum of the kernel calls'
    iterations, and the DEBUG lines report it per solve and per stage.
    No absolute count is pinned: rounding can change a path across BLAS
    builds."""

    @pytest.fixture
    def kernel_iterations(self, monkeypatch):
        """Iterations of every kernel call, recorded beside the solver."""
        seen = []

        def recording(*args, **kwargs):
            result = maximize(*args, **kwargs)
            seen.append(result.iterations)
            return result

        monkeypatch.setattr(optimize_module, "maximize", recording)
        return seen

    @staticmethod
    def logged(caplog, solver):
        """The iterations of the solve's summary line and of its stage lines."""
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        [total] = [
            int(re.search(r"(\d+) kernel iterations, \d+ boosts of \d+ trials$", m).group(1))
            for m in messages if m.startswith(solver + ": ")
        ]
        stages = [TestStageLog.PATTERN.fullmatch(m) for m in messages if " DC stage: " in m]
        assert all(stages)
        return total, [int(m.group(4)) for m in stages]

    def test_se_counts_and_logs_every_iteration(self, kernel_iterations, caplog):
        cfg = scenario(40, m=2, k=2, nt=32)
        with caplog.at_level(logging.DEBUG, logger="noma_secrecy"):
            _, _, _, trace = maximize_se(cfg, 1.0, 10.0)
        assert trace.kernel_iterations == sum(kernel_iterations) > 0
        total, stages = self.logged(caplog, "maximize_se")
        assert total == sum(stages) == trace.kernel_iterations
        assert len(stages) == len(trace.step_values)

    def test_ee_merges_every_round(self, kernel_iterations, caplog):
        cfg = scenario(41, m=2, k=2, nt=32)
        with caplog.at_level(logging.DEBUG, logger="noma_secrecy"):
            _, _, _, trace = maximize_ee(cfg, 1.0, 10.0, circuit_power=0.5)
        assert len(trace.epsilons) > 1
        assert trace.kernel_iterations == sum(kernel_iterations) > 0
        total, stages = self.logged(caplog, "maximize_ee")
        assert total == sum(stages) == trace.kernel_iterations

    def test_baselines_count_their_stage(self, kernel_iterations):
        cfg = scenario(42, m=2, k=2, nt=32)
        for solve in (baseline_downlink_se, baseline_uplink_se):
            kernel_iterations.clear()
            _, _, _, trace = solve(cfg, 1.0, 10.0)
            assert trace.kernel_iterations == sum(kernel_iterations) > 0

    def test_reused_uplink_stage_keeps_its_iterations(self, kernel_iterations):
        cfg = scenario(43, m=2, k=2, nt=32)
        fresh = maximize_se(cfg, 1.0, 10.0)[3]
        kernel_iterations.clear()
        uplink = baseline_uplink_se(cfg, 1.0, 10.0)
        reused = maximize_se(cfg, 1.0, 10.0, _uplink=uplink)[3]
        assert reused.kernel_iterations == fresh.kernel_iterations == sum(kernel_iterations)
        assert uplink[3].kernel_iterations > 0


class TestKernelFallbacks:
    @pytest.fixture
    def kernel_fallbacks(self, monkeypatch):
        """Newton fallbacks of every kernel call, recorded beside the
        solver, which must hand each call a Hessian."""
        seen = []

        def recording(problem, *args, **kwargs):
            assert problem.hessian is not None
            result = maximize(problem, *args, **kwargs)
            seen.append(result.fallbacks)
            return result

        monkeypatch.setattr(optimize_module, "maximize", recording)
        return seen

    @staticmethod
    def summary(solver, trace):
        stops = trace.kernel_stops
        return (
            "%s: %d kernel calls (stationary %d, floor %d, cap %d), "
            "%d Newton fallbacks, %d capped DC stages, %d kernel iterations, "
            "%d boosts of %d trials" % (
                solver, stops.total(), stops["stationary"], stops["floor"], stops["cap"],
                trace.kernel_fallbacks, trace.stage_caps, trace.kernel_iterations,
                trace.boosts, trace.boost_trials,
            )
        )

    def test_se_counts_and_logs_its_fallbacks(self, kernel_fallbacks, caplog):
        cfg = scenario(40, m=2, k=2, nt=32)
        with caplog.at_level(logging.DEBUG, logger="noma_secrecy"):
            _, _, _, trace = maximize_se(cfg, 1.0, 10.0)
        assert trace.kernel_fallbacks == sum(kernel_fallbacks)
        assert self.summary("maximize_se", trace) in [r.getMessage() for r in caplog.records]

    def test_ee_merges_every_round(self, kernel_fallbacks, caplog):
        # The power penalty switches users off, and a user without
        # downlink power leaves the uplink surrogate linear along a
        # direction: its Newton systems are near singular and fall back.
        cfg = scenario(41, m=2, k=2, nt=32)
        with caplog.at_level(logging.DEBUG, logger="noma_secrecy"):
            _, _, _, trace = maximize_ee(cfg, 1.0, 10.0, circuit_power=0.5)
        assert len(trace.epsilons) > 1
        assert trace.kernel_fallbacks == sum(kernel_fallbacks) > 0
        assert self.summary("maximize_ee", trace) in [r.getMessage() for r in caplog.records]


class TestStageCaps:
    """With max_inner=1 every stage takes one DC step, and it is cut at
    the cap exactly when that step gained at least inner_tol."""

    OPTIONS = SolveOptions(max_inner=1)

    @classmethod
    def gaining(cls, trace):
        return sum(v[-1] - v[-2] >= cls.OPTIONS.inner_tol for v in trace.step_values)

    def test_se_counts_and_logs_each_capped_stage(self, caplog):
        cfg = scenario(40, m=2, k=2, nt=32)
        with caplog.at_level(logging.DEBUG, logger="noma_secrecy"):
            _, _, _, trace = maximize_se(cfg, 1.0, 10.0, self.OPTIONS)
        assert all(len(v) == 2 for v in trace.step_values)
        caps = self.gaining(trace)
        assert trace.stage_caps == caps > 0
        stops = [r for r in caplog.records if "max_inner=1" in r.getMessage()]
        assert len(stops) == caps and all(r.levelno == logging.DEBUG for r in stops)

    def test_ee_merges_every_round(self, monkeypatch):
        rounds = []
        alternate = optimize_module._alternate

        def recording(*args, **kwargs):
            result = alternate(*args, **kwargs)
            rounds.append(result[2])
            return result

        monkeypatch.setattr(optimize_module, "_alternate", recording)
        cfg = scenario(41, m=2, k=2, nt=32)
        _, _, _, trace = maximize_ee(cfg, 1.0, 10.0, circuit_power=0.5, options=self.OPTIONS)
        assert len(rounds) > 1
        assert trace.stage_caps == sum(self.gaining(r) for r in rounds) > 0

    def test_baselines_count_their_stage(self):
        cfg = scenario(42, m=2, k=2, nt=32)
        for solve in (baseline_downlink_se, baseline_uplink_se):
            _, _, _, trace = solve(cfg, 1.0, 10.0, self.OPTIONS)
            assert trace.stage_caps == self.gaining(trace) == (not trace.converged)


class TestStageLog:
    """One DEBUG line per DC stage: side, DC steps, kernel calls, kernel
    iterations, accepted boosts and boost trials, the objective from start
    to end, how the stage stopped, wall time."""

    PATTERN = re.compile(
        r"(uplink|downlink) DC stage: (\d+) steps, (\d+) kernel calls, (\d+) kernel iterations, "
        r"(\d+) boosts of (\d+) trials, "
        r"objective (\S+) -> (\S+), (converged|stopped at max_inner=\d+), \S+ s"
    )

    def stage_lines(self, caplog):
        return [
            self.PATTERN.fullmatch(r.getMessage())
            for r in caplog.records
            if r.levelno == logging.DEBUG and " DC stage: " in r.getMessage()
        ]

    @pytest.mark.parametrize("max_inner", [1, 50])
    def test_se_logs_each_stage(self, caplog, max_inner):
        cfg = scenario(40, m=2, k=2, nt=32)
        with caplog.at_level(logging.DEBUG, logger="noma_secrecy"):
            _, _, _, trace = maximize_se(cfg, 1.0, 10.0, SolveOptions(max_inner=max_inner))
        lines = self.stage_lines(caplog)
        assert len(lines) == len(trace.step_values) and all(lines)
        for i, (line, values) in enumerate(zip(lines, trace.step_values)):
            side, steps, calls, _, boosts, trials, start, end, stop = line.groups()
            assert side == ("uplink", "downlink")[i % 2]
            assert int(steps) == int(calls) == len(values) - 1
            assert boosts == trials == "0"  # the SE stages carry no power price
            assert (float(start), float(end)) == pytest.approx((values[0], values[-1]), rel=1e-9)
        capped = [m for m in lines if m.group(9) != "converged"]
        assert len(capped) == trace.stage_caps
        assert all(m.group(9) == "stopped at max_inner=%d" % max_inner for m in capped)

    def test_ee_logs_each_stages_boosts(self, caplog):
        cfg = scenario(41, m=2, k=2, nt=32)
        with caplog.at_level(logging.DEBUG, logger="noma_secrecy"):
            _, _, _, trace = maximize_ee(cfg, 1.0, 10.0, circuit_power=0.5)
        lines = self.stage_lines(caplog)
        assert all(lines)
        boosts = [int(m.group(5)) for m in lines]
        trials = [int(m.group(6)) for m in lines]
        assert sum(boosts) == trace.boosts > 0
        assert sum(trials) == trace.boost_trials >= trace.boosts
        assert all(b <= int(m.group(2)) for b, m in zip(boosts, lines))
        assert TestKernelFallbacks.summary("maximize_ee", trace) in [
            r.getMessage() for r in caplog.records
        ]

    def test_baselines_log_their_stage(self, caplog):
        cfg = scenario(42, m=2, k=2, nt=32)
        for solve, side in ((baseline_downlink_se, "downlink"), (baseline_uplink_se, "uplink")):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="noma_secrecy"):
                solve(cfg, 1.0, 10.0)
            assert [m.group(1) for m in self.stage_lines(caplog)] == [side]

    def test_nothing_is_timed_or_formatted_without_debug(self, caplog, monkeypatch):
        def forbidden():
            raise AssertionError("timed a stage with DEBUG off")

        monkeypatch.setattr(optimize_module, "perf_counter", forbidden)
        cfg = scenario(40, m=2, k=2, nt=32)
        with caplog.at_level(logging.INFO, logger="noma_secrecy"):
            maximize_se(cfg, 1.0, 10.0)
        assert not self.stage_lines(caplog)


class TestOmaTdma:
    def test_slots_and_average(self):
        cfg = scenario(38, m=2, k=2, nt=32)
        result = optimize_oma_tdma(cfg, 1.0, 10.0, circuit_power=0.5)
        assert len(result.slots) == 2
        direct = sum(rep.sum_secrecy for _, _, rep, _ in result.slots) / 2.0
        assert result.se == pytest.approx(direct, rel=1e-12)
        assert result.ee is not None and result.ee > 0.0

    def test_requires_equal_clusters(self):
        cfg = make_cfg([[3.0, 1.0], [2.0]], pilot_len=2)
        with pytest.raises(ValueError, match="equal-size"):
            optimize_oma_tdma(cfg, 1.0, 10.0)

    @pytest.mark.parametrize("circuit_power", [0.0, math.nan, math.inf])
    def test_rejects_bad_circuit_power(self, circuit_power):
        cfg = make_cfg([[5.0, 1.0], [4.0, 2.0]], n_antennas=8)
        with pytest.raises(ValueError, match="circuit_power must be positive and finite"):
            optimize_oma_tdma(cfg, 1.0, 10.0, circuit_power=circuit_power)
