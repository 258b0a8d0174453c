import csv
import importlib
import json
import logging
import math
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import noma_secrecy
from noma_secrecy import cli, experiments, montecarlo
from noma_secrecy.cli import main
from noma_secrecy.experiments import (
    _fmt,
    _point,
    _verdict,
    build_config,
    load_spec,
    run_validate,
)
from noma_secrecy.optimize import SolveOptions, baseline_fixed, smooth_secrecy_sum
from noma_secrecy.rates import RateReport

from reference import best_scaled_ratio


def write_spec(path, **overrides):
    spec = {
        "scenario": "clitest",
        "system": {
            "n_antennas": 32,
            "n_clusters": 2,
            "users_per_cluster": 2,
            "coherence_len": 300,
            "eav_gain": 10.0,
        },
        "powers": {"p_max_db": 0.0, "q_max_db": 10.0},
        "trials": 200,
        "seed": 7,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(spec.get(key), dict):
            spec[key].update(value)
        else:
            spec[key] = value
    path.write_text(json.dumps(spec))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSpecLoading:
    def test_round_trip(self, tmp_path):
        spec_path = write_spec(tmp_path / "spec.json")
        spec = load_spec(str(spec_path))
        assert spec.scenario == "clitest"
        assert spec.trials == 200
        cfg = build_config(spec)
        assert cfg.n_clusters == 2
        assert cfg.pilot_len == 2  # defaults to the cluster count

    def test_explicit_clusters_sorted(self, tmp_path):
        spec_path = write_spec(
            tmp_path / "spec.json",
            system={
                "n_antennas": 16,
                "clusters": [[5.0, 50.0], [1.0, 9.0]],
            },
        )
        cfg = build_config(load_spec(str(spec_path)))
        np.testing.assert_array_equal(cfg.beta(0), [50.0, 5.0])

    def test_beta_pool_reused_across_partitions(self, tmp_path):
        spec_path = write_spec(
            tmp_path / "spec.json",
            system={
                "n_antennas": 16,
                "n_clusters": 2,
                "users_per_cluster": 2,
                "total_users": 4,
            },
        )
        spec = load_spec(str(spec_path))
        pool = np.sort(
            np.concatenate(
                [build_config(replace(spec, users_per_cluster=2)).beta(m) for m in range(2)]
            )
        )
        pool4 = np.sort(build_config(replace(spec, users_per_cluster=4)).beta(0))
        np.testing.assert_allclose(pool, pool4)

    def test_rejects_unknown_axis(self, tmp_path):
        spec_path = write_spec(
            tmp_path / "spec.json", sweep={"axis": "bananas", "values": [1, 2]}
        )
        with pytest.raises(ValueError, match="sweep.axis"):
            load_spec(str(spec_path))

    def test_users_per_cluster_axis_needs_a_cluster_count(self, tmp_path, capsys):
        # Explicit clusters alone leave the drawn pool's size unset, so the
        # sweep could only fail at its first point.
        golden = os.path.join(os.path.dirname(__file__), "golden", "ragged.json")
        with open(golden) as fh:
            spec = json.load(fh)
        spec["sweep"] = {"axis": "users_per_cluster", "values": [1, 2]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        message = "sweep.axis users_per_cluster needs system.n_clusters or system.total_users"
        with pytest.raises(ValueError, match=message):
            load_spec(str(spec_path))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not out.exists()
        spec["system"]["total_users"] = 4
        spec_path.write_text(json.dumps(spec))
        assert load_spec(str(spec_path)).sweep_axis == "users_per_cluster"

    def test_rejects_unsorted_sweep(self, tmp_path):
        spec_path = write_spec(
            tmp_path / "spec.json", sweep={"axis": "n_antennas", "values": [32, 16]}
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            load_spec(str(spec_path))


class TestRatesCommand:
    def test_outputs_and_recomposition(self, tmp_path):
        spec_path = write_spec(tmp_path / "spec.json")
        out = tmp_path / "rates.csv"
        assert main(["rates", "--spec", str(spec_path), "--out", str(out)]) == 0
        rows = read_rows(out)
        users = [r for r in rows if r["role"] == "user"]
        assert len(users) == 4
        for row in users:
            # columns carry 9 significant digits, so the recomposition is
            # good to the print precision of the larger operand
            secrecy = max(float(row["legit"]) - float(row["eaves"]), 0.0)
            assert float(row["secrecy"]) == pytest.approx(secrecy, abs=1e-8)
        summary = read_rows(tmp_path / "rates_summary.csv")
        assert summary[0]["allocator"] == "fixed"
        total = sum(float(r["secrecy"]) for r in users)
        assert float(summary[0]["sum_secrecy"]) == pytest.approx(total, rel=1e-8)

    def test_zero_budget_zero_rates(self, tmp_path):
        spec_path = write_spec(tmp_path / "spec.json", powers={"q_max_db": -400.0})
        out = tmp_path / "rates.csv"
        assert main(["rates", "--spec", str(spec_path), "--out", str(out)]) == 0
        for row in read_rows(out):
            if row["role"] == "user":
                assert float(row["secrecy"]) == pytest.approx(0.0, abs=1e-9)

    def test_byte_identical_rerun(self, tmp_path):
        spec_path = write_spec(tmp_path / "spec.json")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["rates", "--spec", str(spec_path), "--out", str(out_a)])
        main(["rates", "--spec", str(spec_path), "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()


class TestValidateCommand:
    def test_bands_and_flags(self, tmp_path):
        spec_path = write_spec(tmp_path / "spec.json")
        out = tmp_path / "val.csv"
        assert main(["validate", "--spec", str(spec_path), "--out", str(out)]) == 0
        rows = read_rows(out)
        moments = [r for r in rows if r["kind"] == "moment"]
        assert moments, "moment rows missing"
        beam = [r for r in moments if r["name"] == "eave_beam_power"]
        for row in beam:
            assert float(row["predicted"]) == 1.0
            assert abs(float(row["z_score"])) < 5.0
        assert all(r["degenerate"] == "false" for r in moments)

    def test_single_trial_is_degenerate(self, tmp_path):
        spec_path = write_spec(tmp_path / "spec.json", trials=1)
        out = tmp_path / "val.csv"
        assert main(["validate", "--spec", str(spec_path), "--out", str(out)]) == 0
        rates = [r for r in read_rows(out) if r["kind"] == "rate"]
        assert rates and all(r["degenerate"] == "true" for r in rates)

    def test_simulates_each_trial_once(self, tmp_path, monkeypatch):
        spec = load_spec(str(write_spec(tmp_path / "spec.json", trials=25)))
        streams = montecarlo._trial_streams
        simulations, generators = [], []

        def counting_streams(*args, **kwargs):
            simulations.append(args)
            for rng in streams(*args, **kwargs):
                generators.append(rng)
                yield rng

        monkeypatch.setattr(montecarlo, "_trial_streams", counting_streams)
        run_validate(spec, str(tmp_path / "val.csv"))
        assert simulations == [(spec.seed, spec.trials)]
        assert len(generators) == spec.trials

    @pytest.mark.parametrize("trials", [1, 200])
    def test_band_summary_is_logged_not_printed(self, tmp_path, capsys, caplog, trials):
        spec_path = write_spec(tmp_path / "spec.json", trials=trials)
        out = tmp_path / "val.csv"
        with caplog.at_level(logging.INFO, logger="noma_secrecy"):
            assert main(["validate", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out.split() == [str(out)]

        z = [abs(float(r["z_score"])) for r in read_rows(out) if r["degenerate"] == "false"]
        outside = sum(v > 3.0 for v in z)
        (record,) = [r for r in caplog.records if r.getMessage().startswith("validate ")]
        assert record.name == "noma_secrecy"
        assert record.levelno == (logging.WARNING if outside else logging.INFO)
        message = record.getMessage()
        assert "%d of %d banded rows outside 3 sigma" % (outside, len(z)) in message
        assert float(message.rsplit(" ", 1)[1]) == pytest.approx(max(z, default=0.0), rel=5e-3)


class TestValidateVerdict:
    """validate warns when a moment row leaves the Bonferroni band of the
    moment rows, or a rate row is more than 5% off its closed form; rows
    outside 3 sigma alone do not warn."""

    def spec(self, tmp_path):
        # Acceptance criterion 02's operating point: N_t = 128, 4 clusters of
        # 2 users, a -15 dB downlink budget. Every closed-form rate is within
        # 4.1% of the estimate, which still resolves the bias of some.
        clusters = [[94.353, 35.942], [78.481, 59.128], [92.273, 29.433], [86.933, 36.414]]
        return write_spec(
            tmp_path / "spec.json",
            system={"n_antennas": 128, "clusters": clusters, "pilot_len": 4},
            powers={"q_max_db": -15.0},
            trials=1000,
        )

    def verdict(self, tmp_path, caplog):
        out = tmp_path / "val.csv"
        with caplog.at_level(logging.INFO, logger="noma_secrecy"):
            assert main(["validate", "--spec", str(self.spec(tmp_path)), "--out", str(out)]) == 0
        (record,) = [r for r in caplog.records if r.getMessage().startswith("validate ")]
        return record, read_rows(out)

    def test_closed_forms_within_bounds_log_info(self, tmp_path, caplog):
        record, rows = self.verdict(tmp_path, caplog)
        assert any(abs(float(r["z_score"])) > 3.0 for r in rows)  # outside 3 sigma, yet
        assert record.levelno == logging.INFO
        assert "moment rows ok: 0 of 132 outside the Bonferroni band" in record.getMessage()
        assert "rate rows ok: 0 of 24 more than 5% from the closed form" in record.getMessage()

    def test_closed_form_ten_percent_off_warns(self, tmp_path, caplog, monkeypatch):
        secrecy_report = experiments.secrecy_report

        def scaled(cfg, p, q):
            report = secrecy_report(cfg, p, q)
            rates = (report.legit, report.eaves, report.secrecy)
            legit, eaves, secrecy = (tuple(1.1 * r for r in rows) for rows in rates)
            return RateReport(legit, eaves, secrecy, 1.1 * report.sum_secrecy)

        monkeypatch.setattr(experiments, "secrecy_report", scaled)
        record, _ = self.verdict(tmp_path, caplog)
        assert record.levelno == logging.WARNING
        assert "moment rows ok: " in record.getMessage()
        assert "rate rows FAIL: " in record.getMessage()

    @staticmethod
    def rows(z_moments, rel_rates):
        """validate rows with the given moment z-scores and rate gaps."""
        moments = [["s", "moment", "m", 1, 1, 1.0, 1.0, 1.0, z, 0.0, False] for z in z_moments]
        rates = [["s", "rate", "legit", 1, 1, 1.0, 1.0, 1.0, 1.0, rel, False] for rel in rel_rates]
        return moments + rates

    def test_moment_rows_are_judged_by_the_bonferroni_band(self):
        # 200 moment rows: the two-sided bound at 1e-6 is |z| <= 5.85.
        level, message = _verdict("s", self.rows([4.5] + [0.0] * 199, [0.0]))
        assert level == logging.INFO
        assert "1 of 201 banded rows outside 3 sigma (1 moment, 0 rate)" in message
        assert "moment rows ok: 0 of 200 outside the Bonferroni band |z| <= 5.85" in message
        level, message = _verdict("s", self.rows([-6.0] + [0.0] * 199, [0.0]))
        assert level == logging.WARNING
        assert "moment rows FAIL: 1 of 200" in message and "rate rows ok" in message

    def test_rate_rows_are_judged_by_their_relative_gap(self):
        level, _ = _verdict("s", self.rows([0.0], [0.05, None]))
        assert level == logging.INFO
        level, message = _verdict("s", self.rows([0.0], [0.0501]))
        assert level == logging.WARNING and "rate rows FAIL: 1 of 1 more than 5%" in message
        # A zero closed form with a nonzero estimate has no relative gap.
        rows = self.rows([0.0], [None])
        rows[-1][5] = 0.5
        assert _verdict("s", rows)[0] == logging.WARNING

    def test_rows_without_a_band_are_not_judged(self):
        rows = self.rows([9.0], [0.5])
        for row in rows:
            row[10] = True
        level, message = _verdict("s", rows)
        assert level == logging.INFO
        assert "0 of 0 banded rows" in message


class TestOptimizeCommand:
    def test_se_trace_monotone(self, tmp_path):
        spec_path = write_spec(tmp_path / "spec.json")
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--spec", str(spec_path), "--out", str(out)]) == 0
        trace = [
            float(r["value"])
            for r in read_rows(tmp_path / "opt_trace.csv")
            if r["kind"] == "objective"
        ]
        assert len(trace) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_ee_lambda_monotone(self, tmp_path):
        spec_path = write_spec(
            tmp_path / "spec.json",
            system={"n_antennas": 16},
            powers={"q_max_db": 5.0, "circuit_power_db": -5.0},
        )
        out = tmp_path / "opt.csv"
        assert (
            main(["optimize", "--spec", str(spec_path), "--out", str(out), "--mode", "ee"])
            == 0
        )
        lambdas = [
            float(r["value"])
            for r in read_rows(tmp_path / "opt_trace.csv")
            if r["kind"] == "lambda"
        ]
        # Dinkelbach starts at the best scaled fixed split, with its ratio.
        cfg, p_max, q_max, circuit = _point(load_spec(str(spec_path)))
        assert lambdas[0] == pytest.approx(
            best_scaled_ratio(cfg, p_max, q_max, circuit), rel=1e-9
        )
        assert lambdas[0] > 0.0
        assert all(b >= a - 1e-12 for a, b in zip(lambdas, lambdas[1:]))
        summary = read_rows(tmp_path / "opt_summary.csv")[0]
        assert summary["allocator"] == "proposed_ee"
        assert float(summary["lambda_final"]) == pytest.approx(lambdas[-1], rel=1e-9)

    GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

    def spec_at(self, tmp_path, golden, an_fraction):
        """A golden spec with its AN share set and, per point, the smooth
        secrecy sum of the fixed split and the EE solver's lambda_0 (the
        best ratio over t x the fixed split), each at that share and at
        the default 0.2."""
        with open(os.path.join(self.GOLDEN, golden), encoding="utf-8") as fh:
            raw = json.load(fh)
        raw.setdefault("allocation", {})["an_fraction"] = an_fraction
        raw["powers"].setdefault("circuit_power_db", -5.0)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        spec = load_spec(str(spec_path))
        points = [spec]
        if spec.sweep_axis is not None:
            points = [replace(spec, **{spec.sweep_axis: v}) for v in spec.sweep_values]
        fixed, lambda0 = [], []
        for point in points:
            cfg, p_max, q_max, circuit = _point(point)
            fixed.append(tuple(
                smooth_secrecy_sum(cfg, *baseline_fixed(cfg, p_max, q_max, share))
                for share in (an_fraction, 0.2)
            ))
            lambda0.append(tuple(
                best_scaled_ratio(cfg, p_max, q_max, circuit, share)
                for share in (an_fraction, 0.2)
            ))
        return spec_path, fixed, lambda0

    def test_se_trace_starts_at_the_specs_fixed_split(self, tmp_path):
        spec_path, [(fixed, default)], _ = self.spec_at(tmp_path, "ragged.json", 0.6)
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--spec", str(spec_path), "--out", str(out)]) == 0
        first = next(
            r["value"] for r in read_rows(tmp_path / "opt_trace.csv") if r["kind"] == "objective"
        )
        assert first == _fmt(fixed) != _fmt(default)

    @pytest.mark.parametrize(
        "command, golden, starts",
        [
            # The EE solve.
            (["optimize", "--mode", "ee"], "ragged.json", 1),
            # Per point: both baselines and the EE solve.
            (["sweep"], "power-sweep.json", 3),
        ],
    )
    def test_solvers_start_at_the_specs_fixed_split(self, tmp_path, caplog, command, golden,
                                                    starts):
        """Each solve that starts from the spec's fixed split shows it,
        never the default AN share's: the SE baselines log a first DC
        stage whose objective starts at the split's secrecy sum, and the
        EE solve logs a lambda_0 equal to the best ratio over t x that
        split."""
        spec_path, fixed, lambda0 = self.spec_at(tmp_path, golden, 0.6)
        out = tmp_path / "out.csv"
        with caplog.at_level(logging.DEBUG, logger="noma_secrecy"):
            assert main([*command, "--spec", str(spec_path), "--out", str(out)]) == 0

        def logged(pattern):
            matches = (re.search(pattern, r.getMessage()) for r in caplog.records)
            return [m.group(1) for m in matches if m]

        begins = logged(r" DC stage: .*objective (\S+) -> ")
        ee_starts = logged(r"^maximize_ee start: .*, lambda_0 (\S+)$")
        assert len(ee_starts) == len(fixed)
        for (share, default), (lam, lam_default) in zip(fixed, lambda0):
            assert lam > 0.0 and ee_starts.count("%.10g" % lam) == 1
            assert begins.count("%.10g" % share) == starts - 1
            assert "%.10g" % default not in begins
            assert "%.10g" % lam_default not in ee_starts

    def test_ee_requires_circuit_power(self, tmp_path):
        spec_path = write_spec(tmp_path / "spec.json")
        out = tmp_path / "opt.csv"
        code = main(
            ["optimize", "--spec", str(spec_path), "--out", str(out), "--mode", "ee"]
        )
        assert code == 1


class TestSweepCommand:
    def _sweep_spec(self, tmp_path):
        return write_spec(
            tmp_path / "spec.json",
            system={"n_antennas": 16},
            sweep={"axis": "n_antennas", "values": [16, 32]},
        )

    def test_proposed_dominates_and_grows(self, tmp_path):
        spec_path = self._sweep_spec(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
        summary = read_rows(tmp_path / "sweep_summary.csv")
        by_point = {}
        for row in summary:
            by_point.setdefault(float(row["axis_value"]), {})[row["allocator"]] = float(
                row["sum_secrecy"]
            )
        for point in by_point.values():
            assert point["proposed"] >= point["downlink"] - 1e-6
            assert point["proposed"] >= point["uplink"] - 1e-6
            assert point["proposed"] >= point["fixed"] - 1e-6
            assert "oma" in point
        values = sorted(by_point)
        assert by_point[values[1]]["proposed"] >= by_point[values[0]]["proposed"]

    def test_missing_sweep_section_fails(self, tmp_path):
        spec_path = write_spec(tmp_path / "spec.json")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 1

    def test_budget_axis(self, tmp_path):
        spec_path = write_spec(
            tmp_path / "spec.json",
            system={"n_antennas": 16},
            sweep={"axis": "q_max_db", "values": [0.0, 10.0]},
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
        summary = read_rows(tmp_path / "sweep_summary.csv")
        fixed = {
            float(r["axis_value"]): float(r["downlink_power"])
            for r in summary
            if r["allocator"] == "fixed"
        }
        assert fixed[0.0] == pytest.approx(1.0, rel=1e-9)
        assert fixed[10.0] == pytest.approx(10.0, rel=1e-9)
        proposed = {
            float(r["axis_value"]): float(r["sum_secrecy"])
            for r in summary
            if r["allocator"] == "proposed"
        }
        assert proposed[10.0] >= proposed[0.0] - 1e-9

    def test_users_per_cluster_axis_repartitions_pool(self, tmp_path):
        spec_path = write_spec(
            tmp_path / "spec.json",
            system={
                "n_antennas": 16,
                "n_clusters": 2,
                "users_per_cluster": 2,
                "total_users": 4,
            },
            sweep={"axis": "users_per_cluster", "values": [1, 2]},
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
        rows = read_rows(out)
        betas = {}
        for row in rows:
            if row["role"] == "user" and row["allocator"] == "fixed":
                betas.setdefault(float(row["axis_value"]), []).append(float(row["beta"]))
        # same four drawn gains, re-partitioned into 4x1 and 2x2 layouts
        assert sorted(betas[1.0]) == sorted(betas[2.0])
        assert len(betas[1.0]) == 4

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        spec_path = self._sweep_spec(tmp_path)
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out1)]) == 0
        assert (
            main(["sweep", "--spec", str(spec_path), "--out", str(out2), "--threads", "3"])
            == 0
        )
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "s1_summary.csv").read_bytes() == (
            tmp_path / "s2_summary.csv"
        ).read_bytes()


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSweepWorkers:
    """Sweep points run in one forked worker per CPU, and a run looks the
    same from outside at any worker count: the bytes, the error and the
    log records."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def force(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

        return force

    def sweep(self, tmp_path, name, **sweep):
        spec_path = write_spec(tmp_path / ("%s.json" % name), system={"n_antennas": 8}, sweep=sweep)
        return main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / ("%s.csv" % name))])

    def test_first_failing_point_in_axis_order_wins(self, tmp_path, cpus, capsys):
        # Two workers deal the points as {0, 3} and {1, 2}: the second point
        # fails in the child, and the fourth, later, in this process.
        errors = []
        for workers in (1, 2):
            cpus(workers)
            values = [0.0, 300.0, 400.0, 500.0]
            assert self.sweep(tmp_path, "w%d" % workers, axis="p_max_db", values=values) == 1
            errors.append(capsys.readouterr().err)
            no_child_left()
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: powers.p_max_db = 300.0 is too large")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w1.json", "w2.json"]

    def test_log_records_equal_for_any_worker_count(self, tmp_path, cpus, caplog, monkeypatch):
        # One kernel iteration per call: every solve also logs its WARNING.
        monkeypatch.setattr(
            experiments, "SolveOptions", lambda: SolveOptions(kernel_max_iter=1, max_inner=3)
        )
        logs = []
        for workers in (1, 2):
            cpus(workers)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="noma_secrecy"):
                assert self.sweep(tmp_path, "w", axis="n_antennas", values=[8, 12, 16]) == 0
            logs.append(
                [(r.levelno, re.sub(r"\S+ s\b", "X s", r.getMessage())) for r in caplog.records]
            )
            no_child_left()
        assert logs[0][-1] == (logging.DEBUG, "sweep: 3 points, 1 worker processes, X s")
        assert logs[1][-1] == (logging.DEBUG, "sweep: 3 points, 2 worker processes, X s")
        assert logs[0][:-1] == logs[1][:-1]
        assert sum(level == logging.WARNING for level, _ in logs[0]) >= 3
        assert sum(" DC stage: " in message for _, message in logs[0]) > 3

    def test_nothing_is_timed_or_formatted_without_debug(self, tmp_path, cpus, monkeypatch):
        def forbidden():
            raise AssertionError("timed without DEBUG")

        monkeypatch.setattr(experiments, "perf_counter", forbidden)
        cpus(2)
        assert self.sweep(tmp_path, "w", axis="q_max_db", values=[0.0, 10.0]) == 0
        no_child_left()


class TestCliSurface:
    def test_missing_spec_file_is_error_exit(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["rates", "--spec", str(tmp_path / "nope.json"), "--out", str(out)]) == 1

    def test_invalid_config_is_error_exit(self, tmp_path):
        spec_path = write_spec(
            tmp_path / "spec.json",
            system={"n_antennas": 16, "n_clusters": 3, "users_per_cluster": 1, "pilot_len": 2},
        )
        out = tmp_path / "x.csv"
        assert main(["rates", "--spec", str(spec_path), "--out", str(out)]) == 1

    def test_seed_override_changes_scenario(self, tmp_path):
        spec_path = write_spec(tmp_path / "spec.json")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["rates", "--spec", str(spec_path), "--out", str(out_a)])
        main(["rates", "--spec", str(spec_path), "--out", str(out_b), "--seed", "8"])
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_log_env_var_accepted(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("NOMA_SECRECY_LOG", "INFO")
        spec_path = write_spec(tmp_path / "spec.json")
        out = tmp_path / "rates.csv"
        import logging

        with caplog.at_level(logging.INFO, logger="noma_secrecy"):
            assert main(["rates", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert any("running rates" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "value, level",
        [("debug", logging.DEBUG), ("Info", logging.INFO), ("ERROR", logging.ERROR),
         ("", logging.WARNING), (None, logging.WARNING)],
    )
    def test_log_level_names_in_any_case(self, tmp_path, monkeypatch, value, level):
        if value is None:
            monkeypatch.delenv("NOMA_SECRECY_LOG", raising=False)
        else:
            monkeypatch.setenv("NOMA_SECRECY_LOG", value)
        levels = []
        monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
        spec_path = write_spec(tmp_path / "spec.json")
        out = tmp_path / "rates.csv"
        assert main(["rates", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert levels == [level]
        assert out.exists()

    @pytest.mark.parametrize("value", ["DEBGU", "WARN", "10", " INFO"])
    def test_unknown_log_level_is_one_error_line(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("NOMA_SECRECY_LOG", value)
        spec_path = write_spec(tmp_path / "spec.json")
        out = tmp_path / "rates.csv"
        assert main(["rates", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: NOMA_SECRECY_LOG must be one of DEBUG, INFO, WARNING, ERROR, CRITICAL,"
            " got %r\n" % value
        )
        assert not out.exists()

    def test_parser_is_built_once_and_errs_alike_every_time(self, capsys):
        # main may run many commands in one process; it reuses one parser.
        assert cli._build_parser() is cli._build_parser()
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(["optimize", "--mode", "xx", "--spec", "spec.json"])
            assert exit_info.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "argument --mode: invalid choice: 'xx'" in errors[0]

    def test_console_entry_point(self, tmp_path):
        spec_path = write_spec(tmp_path / "spec.json")
        out = tmp_path / "rates.csv"
        # The child must import the package under test, installed or not.
        package_root = os.path.dirname(os.path.dirname(noma_secrecy.__file__))
        path = [package_root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "noma_secrecy.cli",
                "rates",
                "--spec",
                str(spec_path),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert proc.returncode == 0
        assert str(out) in proc.stdout
        assert out.exists()


class TestRejectsBadSpecs:
    """Each override fails at the boundary: loading the spec or building
    its configuration raises ValueError, and the CLI exits 1."""

    BAD = {
        "nan-gain": {"system": {"clusters": [[math.nan, 1.0], [2.0]]}},
        "inf-gain": {"system": {"clusters": [[math.inf, 1.0], [2.0]]}},
        "nan-eav-gain": {"system": {"eav_gain": math.nan}},
        "inf-eav-gain": {"system": {"eav_gain": math.inf}},
        "inf-p-max": {"powers": {"p_max_db": math.inf}},
        "nan-q-max": {"powers": {"q_max_db": math.nan}},
        "inf-circuit-power": {"powers": {"circuit_power_db": -math.inf}},
        "zero-circuit-power": {"powers": {"circuit_power_db": -4000}},
        "nan-sweep-value": {"sweep": {"axis": "q_max_db", "values": [0.0, math.nan]}},
        "unknown-top-key": {"power": {"p_max_db": 3.0}},
        "unknown-system-key": {"system": {"n_antenna": 8}},
        "unknown-powers-key": {"powers": {"q_max": 3.0}},
        "unknown-allocation-key": {"allocation": {"an_frac": 0.1}},
        "unknown-sweep-key": {"sweep": {"axis": "n_antennas", "value": [8]}},
        "huge-q-max": {"powers": {"q_max_db": 4000}},
        "huge-q-max-sweep-value": {"sweep": {"axis": "q_max_db", "values": [0.0, 4000]}},
        "null-powers": {"powers": None},
        "scalar-clusters": {"system": {"clusters": 5}},
        "scalar-cluster-rows": {"system": {"clusters": [5, 3]}},
        "scalar-sweep-values": {"sweep": {"axis": "n_antennas", "values": 8}},
        "sweep-without-axis": {"sweep": {"values": [8, 16]}},
        "fractional-n-antennas": {"system": {"n_antennas": 16.7}},
        "inf-n-antennas": {"system": {"n_antennas": math.inf}},
        "string-n-antennas": {"system": {"n_antennas": "16"}},
        "fractional-coherence-len": {"system": {"coherence_len": 300.5}},
        "fractional-pilot-len": {"system": {"pilot_len": 2.5}},
        "fractional-n-clusters": {"system": {"n_clusters": 2.5}},
        "fractional-users-per-cluster": {"system": {"users_per_cluster": 1.5}},
        "fractional-total-users": {"system": {"total_users": 4.5}},
        "fractional-trials": {"trials": 2.9},
        "inf-seed": {"seed": math.inf},
        "fractional-n-antennas-sweep-value": {
            "sweep": {"axis": "n_antennas", "values": [16, 16.5]}
        },
        "fractional-users-per-cluster-sweep-value": {
            "sweep": {"axis": "users_per_cluster", "values": [1, 1.5]}
        },
        "null-output": {"output": None},
        "numeric-output": {"output": 5},
        "empty-output": {"output": ""},
        "null-scenario": {"scenario": None},
        "list-scenario": {"scenario": [1, 2]},
        "empty-scenario": {"scenario": ""},
    }

    @pytest.mark.parametrize("name", sorted(BAD))
    def test_library_and_cli_reject(self, tmp_path, capsys, name):
        spec_path = write_spec(tmp_path / "spec.json", **self.BAD[name])
        with pytest.raises(ValueError):
            build_config(load_spec(str(spec_path)))
        out = tmp_path / "out.csv"
        assert main(["rates", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rates", "validate"])
    @pytest.mark.parametrize(
        "system, p_max_db", [({"clusters": [[70.0, 15.0, 4.0], [50.0]]}, 3000), ({}, 160)]
    )
    def test_uplink_cap_that_rounds_rho_to_one(
        self, tmp_path, capsys, command, system, p_max_db
    ):
        # rho = E / (1 + E) rounds to 1 once the training energy E reaches
        # 2**53: alone in a cluster at the cap, or in a multi-user cluster
        # once an allocation switches the other users off.
        spec_path = write_spec(
            tmp_path / "spec.json", system=system, powers={"p_max_db": p_max_db}, trials=3
        )
        with pytest.raises(ValueError, match=r"^powers\.p_max_db = .* cluster \d user \d "):
            _point(load_spec(str(spec_path)))
        out = tmp_path / "out.csv"
        assert main([command, "--spec", str(spec_path), "--out", str(out)]) == 1
        assert "error: powers.p_max_db" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value", [("output", None), ("output", 5), ("scenario", [1, 2]), ("scenario", None)]
    )
    def test_text_keys_are_named_and_nothing_is_written(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        # Without --out the spec's output field names the file, so a
        # null output must not turn into a file called "None".
        monkeypatch.chdir(tmp_path)
        spec_path = write_spec(tmp_path / "spec.json", **{"output": "out.csv", key: value})
        with pytest.raises(ValueError, match=key):
            load_spec(str(spec_path))
        assert main(["rates", "--spec", str(spec_path)]) == 1
        assert "error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_non_object_top_level(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_spec(str(spec_path))
        out = tmp_path / "out.csv"
        assert main(["rates", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_values_keep_every_digit(self, tmp_path):
        spec_path = write_spec(
            tmp_path / "spec.json",
            system={"n_antennas": 64.0},
            sweep={"axis": "users_per_cluster", "values": [1, 2.0]},
            seed=2**60 + 1,
        )
        spec = load_spec(str(spec_path))
        assert (spec.n_antennas, spec.sweep_values, spec.seed) == (64, (1, 2), 2**60 + 1)
        assert all(type(v) is int for v in (spec.n_antennas, *spec.sweep_values, spec.seed))


class TestSeedAndTrialLimits:
    """A negative seed, from the spec or --seed, and a trial count whose
    indices do not fit one 32-bit spawn word fail at the boundary, naming
    their key; a simulation that runs out of memory fails with one
    `error:` line. Nothing is written."""

    CLUSTERS = {"clusters": [[70.0, 15.0], [50.0]]}

    @pytest.mark.parametrize("command", ["rates", "validate"])
    def test_negative_seed_is_named(self, tmp_path, capsys, command):
        spec_path = write_spec(tmp_path / "spec.json", system=self.CLUSTERS, seed=-1, trials=3)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            load_spec(str(spec_path))
        out = tmp_path / "out.csv"
        assert main([command, "--spec", str(spec_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rates", "validate"])
    def test_negative_seed_override_is_named(self, tmp_path, capsys, command):
        spec_path = write_spec(tmp_path / "spec.json", system=self.CLUSTERS, trials=3)
        out = tmp_path / "out.csv"
        argv = [command, "--spec", str(spec_path), "--out", str(out), "--seed", "-5"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -5\n"
        assert not out.exists()

    @pytest.mark.parametrize("trials", [2**32, 10**12])
    def test_trial_count_beyond_one_spawn_word_is_named(self, tmp_path, capsys, trials):
        spec_path = write_spec(tmp_path / "spec.json", trials=trials)
        out = tmp_path / "out.csv"
        assert main(["validate", "--spec", str(spec_path), "--out", str(out)]) == 1
        message = "error: trials must be >= 1 and < 2**32, got %d\n" % trials
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # The trial tables are the only arrays with a first axis of 4099;
        # their allocation fails as numpy's does for a count too large.
        trials = 4099
        empty = np.empty

        def failing_empty(shape, *args, **kwargs):
            if isinstance(shape, tuple) and shape[:1] == (trials,):
                raise MemoryError("Unable to allocate 1 TiB for an array")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", failing_empty)
        spec_path = write_spec(tmp_path / "spec.json", trials=trials)
        out = tmp_path / "out.csv"
        assert main(["validate", "--spec", str(spec_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 1 TiB for an array\n"
        assert not out.exists()


def test_cli_import_leaves_numpy_random_unloaded():
    # The trial generators' seed class is built on first use, so commands
    # pay numpy.random's import only when they draw.
    package_root = os.path.dirname(os.path.dirname(noma_secrecy.__file__))
    path = [package_root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, noma_secrecy.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


class TestRefusesNonFiniteResults:
    """Specs that load but whose rates overflow: the command exits 1 with
    one `error:` line naming a column and writes no file. The overflow
    raises numpy RuntimeWarnings, which this suite turns into errors, so
    the CLI runs in a child process."""

    GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
    GOLDEN_RAGGED = os.path.join(GOLDEN, "ragged.json")
    PROBES = {
        "huge-eav-gain": ("eav_gain", 1e308),
        "huge-gains": ("clusters", [[1e308, 1e307]]),
    }

    def run(self, tmp_path, command, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        package_root = os.path.dirname(os.path.dirname(noma_secrecy.__file__))
        path = [package_root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        return subprocess.run(
            [sys.executable, "-m", "noma_secrecy.cli", *command, "--spec", str(spec_path),
             "--out", str(tmp_path / "out.csv")],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )

    @pytest.mark.parametrize("name", sorted(PROBES))
    def test_rates_exit_1_and_write_nothing(self, tmp_path, name):
        with open(self.GOLDEN_RAGGED, encoding="utf-8") as fh:
            spec = json.load(fh)
        key, value = self.PROBES[name]
        spec["system"][key] = value
        proc = self.run(tmp_path, ["rates"], spec)
        assert proc.returncode == 1, proc.stdout
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "non-finite" in errors[0], proc.stderr
        assert any(" %s " % column in errors[0] for column in ("legit", "eaves", "secrecy"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    @pytest.mark.parametrize(
        "command, golden, probe",
        [
            (["optimize", "--mode", "se"], "ragged.json", "huge-eav-gain"),
            (["optimize", "--mode", "se"], "ragged.json", "huge-gains"),
            (["optimize", "--mode", "ee"], "ragged.json", "huge-eav-gain"),
            (["optimize", "--mode", "ee"], "ragged.json", "huge-gains"),
            # The first point's rates are finite; the second point's
            # eavesdropper interference overflows to inf and its rate to 0.
            (["sweep"], "power-sweep.json", "huge-eav-gain"),
        ],
    )
    def test_solvers_exit_1_before_any_solve(self, tmp_path, command, golden, probe):
        """The solving commands check the fixed split's rates, at every
        sweep point, before their first solve: one `error:` line naming
        the column, no WARNING from a solve and no file."""
        with open(os.path.join(self.GOLDEN, golden), encoding="utf-8") as fh:
            spec = json.load(fh)
        key, value = self.PROBES[probe]
        spec["system"][key] = value
        spec["powers"].setdefault("circuit_power_db", 5.0)
        proc = self.run(tmp_path, command, spec)
        assert proc.returncode == 1, proc.stdout
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "non-finite" in errors[0], proc.stderr
        assert any(" %s " % column in errors[0] for column in ("legit", "eaves")), errors
        assert "WARNING" not in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


@pytest.mark.parametrize(
    "name",
    ["noma_secrecy"]
    + ["noma_secrecy." + m.name for m in pkgutil.iter_modules(noma_secrecy.__path__)],
)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_drawn_gains_share_no_trial_stream(tmp_path):
    spec = load_spec(str(write_spec(tmp_path / "spec.json")))
    gains = np.sort(build_config(spec).flat_betas)
    for rng in montecarlo._trial_streams(spec.seed, 3):
        assert not np.array_equal(np.sort(rng.uniform(0.0, 100.0, gains.size)), gains)
