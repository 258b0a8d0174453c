"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are fixed here, not calibrated: statistical checks use three
sample standard errors at their stated trial counts, asymptote checks
use their stated relative gaps, and solver checks use the stated slacks.
Seeds are fixed so every run is reproducible.
"""

import math
import time

import numpy as np
import pytest

from noma_secrecy.cli import main as cli_main
from noma_secrecy.model import (
    ClusterConfig,
    DownlinkPower,
    SystemConfig,
    UplinkPower,
    compute_rho,
    db_to_linear,
)
from noma_secrecy.montecarlo import reduce_moments, reduce_rates, simulate_trials
from noma_secrecy.optimize import (
    SolveOptions,
    _downlink_coeffs,
    _downlink_forms,
    _objective,
    _uplink_coeffs,
    _uplink_forms,
    baseline_downlink_se,
    baseline_fixed,
    baseline_uplink_se,
    maximize_ee,
    maximize_se,
    optimize_oma_tdma,
)
from noma_secrecy.rates import (
    _flat_rates,
    asymptotic_high_power,
    asymptotic_large_nt,
    chi_mean,
    oma_report,
    secrecy_report,
)

from reference import finite_difference_gradient


def report_line(number: int, label: str, ok: bool) -> None:
    print("\n[criterion %02d] %s: %s" % (number, label, "PASS" if ok else "FAIL"))


def study_config(seed, m=4, k=3, nt=64, eav_gain=10.0):
    """Random-gain scenario: gains uniform on (0, 100) sorted within each
    cluster, pilot length equal to the cluster count, 300-sample
    coherence interval."""
    rng = np.random.default_rng(seed)
    draws = np.sort(rng.uniform(0.0, 100.0, m * k).reshape(m, k), axis=1)[:, ::-1]
    return SystemConfig(
        n_antennas=nt,
        clusters=tuple(ClusterConfig(row) for row in draws),
        pilot_len=m,
        coherence_len=300,
        eav_gain=eav_gain,
    )


class TestCriterion01MomentOracle:
    def test_moment_suite_within_three_se(self):
        cfg = SystemConfig(
            64, (ClusterConfig([8.0, 2.0]), ClusterConfig([5.0, 1.0])), 2, 300, 10.0
        )
        p = UplinkPower(([0.8, 0.4], [0.6, 0.9]))
        q = DownlinkPower(([1.0, 4.0, 2.0], [0.5, 3.0, 1.5]))
        start = time.monotonic()
        stats = reduce_moments(cfg, p, q, simulate_trials(cfg, p, 10_000, seed=11))
        elapsed = time.monotonic() - start

        names = {s.name for s in stats}
        required = {
            "mean_alignment_re",  # kappa constituent
            "own_beam_power",  # im1/im2 constituent
            "an_leakage",  # E|<h,z>|^2 = 1 - rho
            "cross_beam_power",  # im3 constituent
            "eave_beam_power",  # E|<g,w>|^2 = 1
            "estimate_norm",  # E||h_hat|| = sqrt(sum rho) Gamma ratio
            "kappa",
            "im1",
            "im2",
            "im3",
        }
        ok = required <= names
        worst = max(abs(s.z_score) for s in stats)
        ok = ok and worst < 3.0 and elapsed < 60.0

        # the estimate-norm prediction is the chi mean scaled by the
        # estimate's per-entry standard deviation
        rho = compute_rho(cfg, p)
        for s in stats:
            if s.name == "estimate_norm":
                scale = math.sqrt(float(rho.rho[s.cluster].sum()))
                ok = ok and s.predicted == pytest.approx(scale * chi_mean(64), rel=1e-12)

        report_line(1, "moment oracle suite (3 SE, < 60 s)", ok)
        assert worst < 3.0
        assert elapsed < 60.0
        assert ok

    def test_one_moment_row_per_closed_form(self):
        cfg = SystemConfig(
            64, (ClusterConfig([8.0, 2.0]), ClusterConfig([5.0, 1.0])), 2, 300, 10.0
        )
        p = UplinkPower(([0.8, 0.4], [0.6, 0.9]))
        q = DownlinkPower(([1.0, 4.0, 2.0], [0.5, 3.0, 1.5]))
        stats = reduce_moments(cfg, p, q, simulate_trials(cfg, p, 200, seed=1))
        kappa_rows = [s for s in stats if s.name == "kappa"]
        assert len(kappa_rows) == 4  # one per user


class TestCriterion02RateApproximation:
    def test_closed_form_within_five_percent_of_oracle(self):
        # Fixed 80/20 split at a power level where noise is not yet
        # swamped (the studied power axis spans this point); every user
        # retains a healthy secrecy margin.
        cfg = study_config(101, m=4, k=2, nt=128)
        p, q = baseline_fixed(cfg, 1.0, db_to_linear(-15.0))
        closed = secrecy_report(cfg, p, q)
        oracle = reduce_rates(cfg, q, simulate_trials(cfg, p, 10_000, seed=20260808))
        gaps = []
        for m in range(4):
            for k in range(2):
                sim = oracle.report.secrecy[m][k]
                gaps.append(abs(closed.secrecy[m][k] - sim) / sim)
        ok = max(gaps) < 0.05
        report_line(2, "closed form vs Monte Carlo secrecy (5%%, worst %.2f%%)" % (100 * max(gaps)), ok)
        assert ok


class TestCriterion03LargeAntennaAsymptote:
    def test_secrecy_converges_to_constant(self):
        clusters = (ClusterConfig([2.0, 1.0]), ClusterConfig([3.0, 1.5]))
        q = DownlinkPower(([1.0, 4.0, 2.0], [1.0, 3.0, 1.0]))
        ladder = (64, 256, 1024, 4096)

        def cfg_at(nt):
            return SystemConfig(nt, clusters, 2, 300, 1.0)

        p = UplinkPower.full(cfg_at(64), 0.5)
        rho = compute_rho(cfg_at(64), p)
        eaves = _flat_rates(cfg_at(64), rho.flat(), q.flat())[1]
        ok = True
        for m in range(2):
            k = 1  # every non-strongest user
            legit_limit = asymptotic_large_nt(cfg_at(64), q, m, k)
            eav = float(eaves[int(cfg_at(64).user_offsets[m]) + k])
            secrecy_limit = max(legit_limit - eav, 0.0)
            gaps = []
            for nt in ladder:
                rep = secrecy_report(cfg_at(nt), p, q)
                gaps.append(abs(rep.secrecy[m][k] - secrecy_limit))
                legit_gap = abs(rep.legit[m][k] - legit_limit)
                ok = ok and rep.legit[m][k] <= legit_limit
                if nt == ladder[-1]:
                    ok = ok and legit_gap / legit_limit < 0.02
                    ok = ok and gaps[-1] / secrecy_limit < 0.02
            ok = ok and all(b < a for a, b in zip(gaps, gaps[1:]))
        report_line(3, "large-antenna secrecy asymptote (2%, monotone)", ok)
        assert ok

    def test_strongest_user_marker(self):
        cfg = SystemConfig(8, (ClusterConfig([2.0, 1.0]),), 1, 300, 1.0)
        q = DownlinkPower(([1.0, 4.0, 2.0],))
        assert asymptotic_large_nt(cfg, q, 0, 0) == math.inf


class TestCriterion04HighPowerAsymptote:
    def test_rates_within_one_percent_at_1e6(self):
        cfg = SystemConfig(
            64, (ClusterConfig([20.0, 5.0]), ClusterConfig([30.0, 10.0])), 2, 300, 10.0
        )
        p = UplinkPower.full(cfg, 1.0)
        rho = compute_rho(cfg, p)
        rows = [np.array([0.10, 0.25, 0.15]), np.array([0.10, 0.25, 0.15])]
        shares = DownlinkPower(tuple(rows))
        q = DownlinkPower(tuple(1e6 * r for r in rows))
        legit_lim, eaves_lim = asymptotic_high_power(cfg, rho, shares)
        rep = secrecy_report(cfg, p, q)
        ok = True
        for m in range(2):
            for k in range(2):
                ok = ok and abs(rep.legit[m][k] - legit_lim[m][k]) / legit_lim[m][k] < 0.01
                ok = ok and abs(rep.eaves[m][k] - eaves_lim[m][k]) / eaves_lim[m][k] < 0.01
        report_line(4, "high-power rate asymptotes (1%)", ok)
        assert ok


class TestCriterion05GradientHarness:
    N_POINTS = 20
    RTOL = 1e-5

    def _feasible_points(self, cfg, rng):
        for _ in range(self.N_POINTS):
            p = UplinkPower(
                tuple(rng.uniform(0.05, 0.95, k) for k in cfg.users_per_cluster)
            )
            q = DownlinkPower(
                tuple(rng.uniform(0.1, 4.0, k + 1) for k in cfg.users_per_cluster)
            )
            yield p, q

    def _rel_err(self, grad, fd):
        return np.linalg.norm(grad - fd) / np.linalg.norm(grad)

    @pytest.mark.parametrize("penalty", [0.0, 0.25])
    def test_uplink_gradients(self, penalty):
        cfg = study_config(5, m=3, k=2)
        rng = np.random.default_rng(50)
        worst = 0.0
        for p, q in self._feasible_points(cfg, rng):
            forms = _uplink_forms(cfg, _uplink_coeffs(cfg, q))
            _, grad = _objective(cfg, forms, p.flat(), penalty)
            fd = finite_difference_gradient(
                lambda x: _objective(cfg, forms, x, penalty)[0], p.flat()
            )
            worst = max(worst, self._rel_err(grad, fd))
        ok = worst < self.RTOL
        if penalty:
            report_line(5, "gradient harness (1e-5, worst %.2e)" % worst, ok)
        assert ok

    @pytest.mark.parametrize("penalty", [0.0, 0.25])
    def test_downlink_gradients(self, penalty):
        cfg = study_config(6, m=3, k=2)
        rng = np.random.default_rng(51)
        worst = 0.0
        for p, q in self._feasible_points(cfg, rng):
            rho = compute_rho(cfg, p)
            forms = _downlink_forms(cfg, _downlink_coeffs(cfg, rho))
            _, grad = _objective(cfg, forms, q.flat(), penalty)
            fd = finite_difference_gradient(
                lambda x: _objective(cfg, forms, x, penalty)[0], q.flat()
            )
            worst = max(worst, self._rel_err(grad, fd))
        assert worst < self.RTOL

    def test_downlink_halves(self):
        # concave (g1+g3) and subtracted (g2+g4) composites separately
        cfg = study_config(7, m=2, k=3)
        rng = np.random.default_rng(52)
        worst = 0.0
        for p, q in self._feasible_points(cfg, rng):
            rho = compute_rho(cfg, p)
            concave, sub = _downlink_forms(cfg, _downlink_coeffs(cfg, rho))
            cval, cgrad = concave.evaluate(q.flat())
            sval, sgrad = sub.evaluate(q.flat())
            fd_c = finite_difference_gradient(
                lambda x: concave.evaluate(x)[0], q.flat()
            )
            fd_s = finite_difference_gradient(
                lambda x: sub.evaluate(x)[0], q.flat()
            )
            worst = max(worst, self._rel_err(cgrad, fd_c), self._rel_err(sgrad, fd_s))
        assert worst < self.RTOL

    def test_uplink_halves(self):
        # the two concave halves of the uplink decomposition separately
        cfg = study_config(8, m=2, k=3)
        rng = np.random.default_rng(53)
        worst = 0.0
        for p, q in self._feasible_points(cfg, rng):
            f1, f2 = _uplink_forms(cfg, _uplink_coeffs(cfg, q))
            _, g1 = f1.evaluate(p.flat())
            _, g2 = f2.evaluate(p.flat())
            fd_1 = finite_difference_gradient(
                lambda x: f1.evaluate(x)[0], p.flat()
            )
            fd_2 = finite_difference_gradient(
                lambda x: f2.evaluate(x)[0], p.flat()
            )
            worst = max(worst, self._rel_err(g1, fd_1), self._rel_err(g2, fd_2))
        assert worst < self.RTOL


class TestCriterion06DcMonotonicity:
    def test_twenty_random_instances(self):
        worst_drop = 0.0
        max_rounds = 0
        all_converged = True
        for i in range(20):
            cfg = study_config(1000 + i, m=4, k=3, nt=64)
            _, _, _, trace = maximize_se(cfg, db_to_linear(0.0), db_to_linear(20.0))
            for vals in trace.step_values:
                if len(vals) > 1:
                    worst_drop = min(worst_drop, float(np.min(np.diff(vals))))
            max_rounds = max(max_rounds, len(trace.epsilons))
            all_converged = all_converged and trace.converged
        ok = worst_drop >= -1e-9 and max_rounds <= 30 and all_converged
        report_line(
            6,
            "DC monotonicity (drop %.1e, max %d outer rounds)" % (worst_drop, max_rounds),
            ok,
        )
        assert worst_drop >= -1e-9
        assert max_rounds <= 30
        assert all_converged


class TestCriterion07Dinkelbach:
    def test_lambda_monotone_terminal_gap(self):
        cfg = study_config(42, m=4, k=3, nt=64)
        _, _, ee, trace = maximize_ee(
            cfg, db_to_linear(0.0), db_to_linear(20.0), db_to_linear(-5.0)
        )
        lams = trace.lambda_sequence
        monotone = all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))
        terminal = abs(trace.epsilons[-1])
        ok = monotone and terminal <= 1e-6 and trace.converged
        report_line(
            7, "Dinkelbach (monotone lambda, |F| = %.2e <= 1e-6)" % terminal, ok
        )
        assert monotone
        assert terminal <= 1e-6
        assert trace.converged
        assert ee == pytest.approx(lams[-1], rel=1e-6)


class TestCriterion08BaselineDominance:
    def test_dominance_and_antenna_growth(self):
        p_max, q_max = db_to_linear(0.0), db_to_linear(20.0)
        series = {"proposed": [], "downlink": [], "uplink": [], "fixed": []}
        ok = True
        for nt in (32, 64, 128):
            cfg = study_config(11, m=4, k=3, nt=nt)
            _, _, rep_p, _ = maximize_se(cfg, p_max, q_max)
            pb, qb = baseline_fixed(cfg, p_max, q_max)
            rep_f = secrecy_report(cfg, pb, qb)
            _, _, rep_d, _ = baseline_downlink_se(cfg, p_max, q_max)
            _, _, rep_u, _ = baseline_uplink_se(cfg, p_max, q_max)
            values = {
                "proposed": rep_p.sum_secrecy,
                "downlink": rep_d.sum_secrecy,
                "uplink": rep_u.sum_secrecy,
                "fixed": rep_f.sum_secrecy,
            }
            for name in series:
                series[name].append(values[name])
            ok = ok and values["proposed"] >= values["downlink"] - 1e-6
            ok = ok and values["proposed"] >= values["uplink"] - 1e-6
            ok = ok and values["proposed"] >= values["fixed"] - 1e-6
        for name, vals in series.items():
            ok = ok and all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        report_line(8, "proposed SE dominates baselines, grows with antennas", ok)
        assert ok


class TestCriterion09Saturation:
    def test_fixed_pa_sum_rate_saturates(self):
        cfg = study_config(11, m=4, k=3, nt=64)
        values = {}
        for q_db in (40.0, 50.0):
            p, q = baseline_fixed(cfg, 1.0, db_to_linear(q_db))
            values[q_db] = secrecy_report(cfg, p, q).sum_secrecy
        rel = (values[50.0] - values[40.0]) / values[40.0]
        ok = rel < 0.01
        report_line(9, "fixed-PA saturation (gain %.3e < 1%%)" % rel, ok)
        assert ok


class TestCriterion10Clustering:
    def test_fewer_users_per_cluster_is_better(self):
        layouts = [(10, 2), (5, 4), (4, 5)]
        means = {lay: [] for lay in layouts}
        for seed in range(20):
            pool = np.random.default_rng(seed).uniform(0.0, 100.0, 20)
            for m, k in layouts:
                rows = [np.sort(pool[i * k : (i + 1) * k])[::-1] for i in range(m)]
                cfg = SystemConfig(
                    64, tuple(ClusterConfig(r) for r in rows), m, 300, 10.0
                )
                p, q = baseline_fixed(cfg, 1.0, 100.0)
                rep = secrecy_report(cfg, p, q)
                means[(m, k)].append(rep.sum_secrecy / 20.0)
        avg = {lay: float(np.mean(v)) for lay, v in means.items()}
        ok = avg[(10, 2)] >= avg[(5, 4)] >= avg[(4, 5)]
        report_line(
            10,
            "clustering: %.4f >= %.4f >= %.4f" % (avg[(10, 2)], avg[(5, 4)], avg[(4, 5)]),
            ok,
        )
        assert ok


class TestCriterion11NomaVsOma:
    def test_optimized_noma_beats_time_shared_oma(self):
        cfg = study_config(2024, m=4, k=2, nt=128)
        p_max, q_max = db_to_linear(0.0), db_to_linear(20.0)
        _, _, rep, _ = maximize_se(cfg, p_max, q_max)
        oma = optimize_oma_tdma(cfg, p_max, q_max)
        ok = rep.sum_secrecy >= oma.se - 1e-9
        report_line(
            11,
            "NOMA SE %.4f >= time-shared OMA SE %.4f" % (rep.sum_secrecy, oma.se),
            ok,
        )
        assert ok

    def test_single_user_reduction_exact(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            rows = [np.array([rng.uniform(1.0, 100.0)]) for _ in range(4)]
            cfg = SystemConfig(
                128, tuple(ClusterConfig(r) for r in rows), 4, 300, 10.0
            )
            p = UplinkPower(tuple(rng.uniform(0.1, 1.0, 1) for _ in range(4)))
            q = DownlinkPower(tuple(rng.uniform(0.1, 10.0, 2) for _ in range(4)))
            a = oma_report(cfg, p, q)
            b = secrecy_report(cfg, p, q)
            for m in range(4):
                np.testing.assert_allclose(a.legit[m], b.legit[m], rtol=1e-12)
                np.testing.assert_allclose(a.eaves[m], b.eaves[m], rtol=1e-12)
                np.testing.assert_allclose(a.secrecy[m], b.secrecy[m], rtol=1e-12)


class TestCriterion12Determinism:
    SPEC = {
        "scenario": "determinism",
        "system": {
            "n_antennas": 16,
            "n_clusters": 2,
            "users_per_cluster": 2,
            "coherence_len": 300,
            "eav_gain": 10.0,
        },
        "powers": {"p_max_db": 0.0, "q_max_db": 5.0, "circuit_power_db": -5.0},
        "sweep": {"axis": "n_antennas", "values": [8, 16]},
        "trials": 300,
        "seed": 5,
    }

    def _write_spec(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return path

    def _run(self, args):
        assert cli_main(args) == 0

    def test_every_command_byte_identical(self, tmp_path):
        spec = self._write_spec(tmp_path)
        spec_noee = tmp_path / "spec_noee.json"
        import json

        raw = dict(self.SPEC)
        raw["powers"] = {"p_max_db": 0.0, "q_max_db": 5.0}
        spec_noee.write_text(json.dumps(raw))

        ok = True
        digests = {}
        for command, spec_path, extra in (
            ("rates", spec, []),
            ("validate", spec, []),
            ("optimize", spec, ["--mode", "se"]),
            ("optimize", spec, ["--mode", "ee"]),
            ("sweep", spec_noee, []),
        ):
            tag = command + "".join(extra)
            outs = []
            for run in ("x", "y"):
                out = tmp_path / ("%s_%s.csv" % (tag.replace("-", ""), run))
                self._run([command, "--spec", str(spec_path), "--out", str(out)] + extra)
                blobs = [out.read_bytes()]
                for suffix in ("summary", "trace"):
                    side = out.with_name(out.stem + "_%s.csv" % suffix)
                    if side.exists():
                        blobs.append(side.read_bytes())
                outs.append(b"".join(blobs))
            digests[tag] = outs
            ok = ok and outs[0] == outs[1]

        # thread count must not change sweep bytes
        t_out = {}
        for threads in ("1", "4"):
            out = tmp_path / ("sweep_t%s.csv" % threads)
            self._run(
                ["sweep", "--spec", str(spec_noee), "--out", str(out), "--threads", threads]
            )
            t_out[threads] = out.read_bytes() + out.with_name(
                out.stem + "_summary.csv"
            ).read_bytes()
        ok = ok and t_out["1"] == t_out["4"]
        report_line(12, "CLI byte-identical across reruns and thread counts", ok)
        assert ok
