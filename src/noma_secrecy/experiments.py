"""Experiment drivers: rate evaluation, Monte Carlo validation, power
allocation runs and parameter sweeps, with delimited (CSV) output.

The experiment spec is a JSON document; powers cross this boundary in dB
and are converted to linear watts immediately. Every run is a pure
function of (spec, seed): large-scale gains drawn for a scenario are
seed-controlled and echoed into the per-user output so results can be
reproduced from the CSV alone.

Output conventions: every file starts with a header row; floats are
printed with nine significant digits; one tidy per-user file plus a
companion summary file per experiment (plus a trace file for the
optimizer command).
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .model import (
    ClusterConfig,
    DownlinkPower,
    SystemConfig,
    UplinkPower,
    compute_rho,
    db_to_linear,
    validate_config,
)
from .montecarlo import reduce_moments, reduce_rates, simulate_trials
from .optimize import (
    SolveOptions,
    baseline_downlink_se,
    baseline_fixed,
    baseline_uplink_se,
    maximize_ee,
    maximize_se,
    optimize_oma_tdma,
)
from .rates import energy_efficiency, secrecy_report

__all__ = [
    "ExperimentSpec",
    "load_spec",
    "build_config",
    "run_rates",
    "run_validate",
    "run_optimize",
    "run_sweep",
]

log = logging.getLogger("noma_secrecy")

SWEEP_AXES = ("n_antennas", "q_max_db", "p_max_db", "users_per_cluster")
# The keys a spec may hold, per section; each feeds one ExperimentSpec field.
SPEC_SECTIONS = {
    "system": {
        "n_antennas", "coherence_len", "eav_gain", "pilot_len", "clusters",
        "n_clusters", "users_per_cluster", "total_users",
    },
    "powers": {"p_max_db", "q_max_db", "circuit_power_db"},
    "allocation": {"an_fraction"},
    "sweep": {"axis", "values"},
}
SPEC_KEYS = {"scenario", "trials", "seed", "output", *SPEC_SECTIONS}

USER_HEADER = [
    "scenario",
    "command",
    "axis",
    "axis_value",
    "allocator",
    "cluster",
    "role",
    "user",
    "beta",
    "p",
    "q",
    "rho",
    "legit",
    "eaves",
    "secrecy",
]
SUMMARY_HEADER = [
    "scenario",
    "command",
    "axis",
    "axis_value",
    "allocator",
    "sum_secrecy",
    "ee",
    "uplink_power",
    "downlink_power",
    "an_power",
    "converged",
    "outer_rounds",
    "lambda_final",
]
VALIDATE_HEADER = [
    "scenario",
    "kind",
    "name",
    "cluster",
    "user",
    "empirical",
    "predicted",
    "stderr",
    "z_score",
    "rel_gap",
    "degenerate",
]
TRACE_HEADER = ["scenario", "mode", "step", "kind", "value"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Parsed experiment description (powers still in dB where noted)."""

    scenario: str
    n_antennas: int
    coherence_len: int
    eav_gain: float
    pilot_len: int | None
    clusters: tuple[tuple[float, ...], ...] | None
    n_clusters: int | None
    users_per_cluster: int | None
    total_users: int | None
    p_max_db: float
    q_max_db: float
    circuit_power_db: float | None
    an_fraction: float
    sweep_axis: str | None
    sweep_values: tuple[float, ...]
    trials: int
    seed: int
    output: str | None


def _finite(name: str, value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("%s must be finite, got %r" % (name, x))
    return x


def _db(name: str, value) -> float:
    x = _finite(name, value)
    db_to_linear(x)  # rejects a value whose linear power overflows
    return x


def load_spec(path: str) -> ExperimentSpec:
    """Read and validate a JSON experiment spec."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    unknown = sorted(set(raw) - SPEC_KEYS) + sorted(
        "%s.%s" % (section, key)
        for section, keys in SPEC_SECTIONS.items()
        for key in set(raw.get(section) or {}) - keys
    )
    if unknown:
        raise ValueError("unknown experiment spec key(s): %s" % ", ".join(unknown))
    try:
        scenario = str(raw["scenario"])
        system = raw["system"]
        powers = raw.get("powers", {})
    except KeyError as exc:
        raise ValueError("experiment spec is missing the %s section" % exc) from exc

    clusters = None
    if "clusters" in system:
        clusters = tuple(tuple(float(b) for b in row) for row in system["clusters"])
        if not clusters:
            raise ValueError("system.clusters must not be empty")

    sweep = raw.get("sweep")
    sweep_axis = None
    sweep_values: tuple[float, ...] = ()
    if sweep is not None:
        sweep_axis = str(sweep["axis"])
        if sweep_axis not in SWEEP_AXES:
            raise ValueError(
                "sweep.axis must be one of %s, got %r" % (", ".join(SWEEP_AXES), sweep_axis)
            )
        number = _db if sweep_axis.endswith("_db") else _finite
        sweep_values = tuple(number("sweep.values", v) for v in sweep["values"])
        if len(sweep_values) < 1:
            raise ValueError("sweep.values must be a non-empty list")
        if any(b <= a for a, b in zip(sweep_values, sweep_values[1:])):
            raise ValueError("sweep.values must be strictly increasing")

    trials = int(raw.get("trials", 1000))
    if trials < 1:
        raise ValueError("trials must be >= 1")

    spec = ExperimentSpec(
        scenario=scenario,
        n_antennas=int(system.get("n_antennas", 64)),
        coherence_len=int(system.get("coherence_len", 300)),
        eav_gain=float(system.get("eav_gain", 10.0)),
        pilot_len=int(system["pilot_len"]) if "pilot_len" in system else None,
        clusters=clusters,
        n_clusters=int(system["n_clusters"]) if "n_clusters" in system else None,
        users_per_cluster=(
            int(system["users_per_cluster"]) if "users_per_cluster" in system else None
        ),
        total_users=int(system["total_users"]) if "total_users" in system else None,
        p_max_db=_db("powers.p_max_db", powers.get("p_max_db", 0.0)),
        q_max_db=_db("powers.q_max_db", powers.get("q_max_db", 20.0)),
        circuit_power_db=(
            _db("powers.circuit_power_db", powers["circuit_power_db"])
            if "circuit_power_db" in powers
            else None
        ),
        an_fraction=float(raw.get("allocation", {}).get("an_fraction", 0.2)),
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        trials=trials,
        seed=int(raw.get("seed", 0)),
        output=str(raw["output"]) if "output" in raw else None,
    )
    if spec.clusters is None and (spec.n_clusters is None or spec.users_per_cluster is None):
        raise ValueError(
            "system needs either explicit clusters or n_clusters + users_per_cluster"
        )
    return spec


def _beta_pool(spec: ExperimentSpec, count: int) -> np.ndarray:
    """Seed-controlled large-scale gains, uniform on (0, 100), from the
    seed's root stream: Monte Carlo trial i uses its child i."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    return rng.uniform(0.0, 100.0, count)


def build_config(
    spec: ExperimentSpec,
    n_antennas: int | None = None,
    users_per_cluster: int | None = None,
) -> SystemConfig:
    """Materialize the system configuration for one experiment point."""
    nt = n_antennas if n_antennas is not None else spec.n_antennas
    if spec.clusters is not None and users_per_cluster is None:
        rows = [np.sort(np.asarray(c, dtype=float))[::-1] for c in spec.clusters]
    else:
        k = users_per_cluster if users_per_cluster is not None else spec.users_per_cluster
        if k is None or k < 1:
            raise ValueError("users_per_cluster must be a positive integer")
        if spec.total_users is not None:
            total = spec.total_users
            if total % k != 0:
                raise ValueError(
                    "total_users=%d is not divisible by users_per_cluster=%d" % (total, k)
                )
            m = total // k
        else:
            if spec.n_clusters is None:
                raise ValueError("n_clusters required when total_users is absent")
            m = spec.n_clusters
            total = m * k
        pool = _beta_pool(spec, total)
        rows = [np.sort(pool[i * k : (i + 1) * k])[::-1] for i in range(m)]
    m = len(rows)
    cfg = SystemConfig(
        n_antennas=nt,
        clusters=tuple(ClusterConfig(r) for r in rows),
        pilot_len=spec.pilot_len if spec.pilot_len is not None else m,
        coherence_len=spec.coherence_len,
        eav_gain=spec.eav_gain,
    )
    return validate_config(cfg)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    if math.isnan(x):
        return "nan"
    return format(x, ".9g")


def _write_csv(path: str, header: list[str], rows: list[list]) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def _companion(path: str, suffix: str) -> str:
    stem, ext = os.path.splitext(path)
    return "%s_%s%s" % (stem, suffix, ext or ".csv")


def _user_rows(
    spec,
    cfg,
    axis,
    axis_value,
    allocator,
    p: UplinkPower,
    q: DownlinkPower,
    report,
    rate_scale: float = 1.0,
    command: str = "",
) -> list[list]:
    rho = compute_rho(cfg, p)
    rows = []
    for m in range(cfg.n_clusters):
        rows.append(
            [
                spec.scenario,
                command,
                axis,
                axis_value,
                allocator,
                m + 1,
                "an",
                None,
                None,
                None,
                q.an(m),
                None,
                None,
                None,
                None,
            ]
        )
        for k in range(cfg.users_per_cluster[m]):
            rows.append(
                [
                    spec.scenario,
                    command,
                    axis,
                    axis_value,
                    allocator,
                    m + 1,
                    "user",
                    k + 1,
                    cfg.beta(m)[k],
                    p.p[m][k],
                    q.user(m, k),
                    rho.rho[m][k],
                    rate_scale * report.legit[m][k],
                    rate_scale * report.eaves[m][k],
                    rate_scale * report.secrecy[m][k],
                ]
            )
    return rows


def _summary_row(
    spec,
    axis,
    axis_value,
    allocator,
    p,
    q,
    sum_secrecy,
    ee,
    converged=None,
    outer_rounds=None,
    lambda_final=None,
    command: str = "",
) -> list:
    return [
        spec.scenario,
        command,
        axis,
        axis_value,
        allocator,
        sum_secrecy,
        ee,
        p.total() if p is not None else None,
        q.total() if q is not None else None,
        q.an_total() if q is not None else None,
        converged,
        outer_rounds,
        lambda_final,
    ]


def _circuit_power(spec) -> float | None:
    if spec.circuit_power_db is None:
        return None
    return db_to_linear(spec.circuit_power_db)


def run_rates(spec: ExperimentSpec, out: str) -> list[str]:
    """Closed-form per-user rates under the fixed power split."""
    cfg = build_config(spec)
    p, q = baseline_fixed(
        cfg, db_to_linear(spec.p_max_db), db_to_linear(spec.q_max_db), spec.an_fraction
    )
    report = secrecy_report(cfg, p, q)
    circuit = _circuit_power(spec)
    ee = energy_efficiency(report, p, q, circuit) if circuit is not None else None
    users = _user_rows(spec, cfg, "", "", "fixed", p, q, report, command="rates")
    summary = [
        _summary_row(spec, "", "", "fixed", p, q, report.sum_secrecy, ee, command="rates")
    ]
    return [
        _write_csv(out, USER_HEADER, users),
        _write_csv(_companion(out, "summary"), SUMMARY_HEADER, summary),
    ]


def run_validate(spec: ExperimentSpec, out: str) -> list[str]:
    """Closed forms against their Monte Carlo estimates with 3-sigma
    bands; rows with no usable band (single trial) are flagged. One
    simulation feeds both the moment rows and the rate rows."""
    cfg = build_config(spec)
    p, q = baseline_fixed(
        cfg, db_to_linear(spec.p_max_db), db_to_linear(spec.q_max_db), spec.an_fraction
    )
    rows: list[list] = []

    def band_row(kind, name, cluster, user, empirical, predicted, stderr):
        degenerate = bool(stderr is None or math.isnan(stderr) or stderr == 0.0)
        z = None if degenerate else (empirical - predicted) / stderr
        rel = None
        if predicted not in (None, 0.0):
            rel = abs(empirical - predicted) / abs(predicted)
        rows.append(
            [spec.scenario, kind, name, cluster, user]
            + [empirical, predicted, stderr, z, rel, degenerate]
        )

    tables = simulate_trials(cfg, p, spec.trials, spec.seed)
    for s in reduce_moments(cfg, p, q, tables):
        user = None if s.user is None else s.user + 1
        band_row("moment", s.name, s.cluster + 1, user, s.empirical, s.predicted, s.stderr)

    oracle = reduce_rates(cfg, q, tables)
    closed = secrecy_report(cfg, p, q)
    for m in range(cfg.n_clusters):
        for k in range(cfg.users_per_cluster[m]):
            legit_se, eaves_se = oracle.legit_se[m][k], oracle.eaves_se[m][k]
            sec_se = math.hypot(legit_se, eaves_se)
            for name, stderr in (("legit", legit_se), ("eaves", eaves_se), ("secrecy", sec_se)):
                empirical, predicted = (getattr(r, name)[m][k] for r in (oracle.report, closed))
                band_row("rate", name, m + 1, k + 1, empirical, predicted, stderr)
    written = [_write_csv(out, VALIDATE_HEADER, rows)]

    banded = [row for row in rows if not row[10]]  # rows with a z-score
    outside = [row[1] for row in banded if abs(row[8]) > 3.0]
    log.log(
        logging.WARNING if outside else logging.INFO,
        "validate %r: %d of %d banded rows outside 3 sigma (%d moment, %d rate), worst |z| %.3g",
        spec.scenario,
        len(outside),
        len(banded),
        outside.count("moment"),
        outside.count("rate"),
        max((abs(row[8]) for row in banded), default=0.0),
    )
    return written


def run_optimize(spec: ExperimentSpec, out: str, mode: str = "se") -> list[str]:
    """Run one power-allocation solve and emit allocation, rates, trace."""
    if mode not in ("se", "ee"):
        raise ValueError("mode must be 'se' or 'ee', got %r" % mode)
    cfg = build_config(spec)
    p_max = db_to_linear(spec.p_max_db)
    q_max = db_to_linear(spec.q_max_db)
    circuit = _circuit_power(spec)
    allocator = "proposed_%s" % mode

    if mode == "se":
        p, q, report, trace = maximize_se(cfg, p_max, q_max)
        ee = energy_efficiency(report, p, q, circuit) if circuit is not None else None
        lambda_final = None
    else:
        if circuit is None:
            raise ValueError("powers.circuit_power_db is required for mode=ee")
        p, q, ee, trace = maximize_ee(cfg, p_max, q_max, circuit)
        report = secrecy_report(cfg, p, q)
        lambda_final = trace.lambda_sequence[-1]

    users = _user_rows(spec, cfg, "", "", allocator, p, q, report, command="optimize")
    summary = [
        _summary_row(
            spec,
            "",
            "",
            allocator,
            p,
            q,
            report.sum_secrecy,
            ee,
            converged=trace.converged,
            outer_rounds=len(trace.epsilons),
            lambda_final=lambda_final,
            command="optimize",
        )
    ]
    trace_rows: list[list] = []
    for i, value in enumerate(trace.outer_values):
        trace_rows.append([spec.scenario, mode, i, "objective", value])
    for i, value in enumerate(trace.epsilons):
        trace_rows.append([spec.scenario, mode, i, "epsilon", value])
    for i, value in enumerate(trace.lambda_sequence):
        trace_rows.append([spec.scenario, mode, i, "lambda", value])
    return [
        _write_csv(out, USER_HEADER, users),
        _write_csv(_companion(out, "summary"), SUMMARY_HEADER, summary),
        _write_csv(_companion(out, "trace"), TRACE_HEADER, trace_rows),
    ]


def _sweep_point(spec: ExperimentSpec, axis: str, value: float):
    """All allocators evaluated at one sweep point; returns CSV rows."""
    n_antennas = None
    users_per_cluster = None
    p_max_db = spec.p_max_db
    q_max_db = spec.q_max_db
    if axis == "n_antennas":
        n_antennas = int(value)
    elif axis == "users_per_cluster":
        users_per_cluster = int(value)
    elif axis == "p_max_db":
        p_max_db = value
    elif axis == "q_max_db":
        q_max_db = value
    cfg = build_config(spec, n_antennas=n_antennas, users_per_cluster=users_per_cluster)
    p_max = db_to_linear(p_max_db)
    q_max = db_to_linear(q_max_db)
    circuit = _circuit_power(spec)
    options = SolveOptions()

    user_rows: list[list] = []
    summary_rows: list[list] = []

    def ee_of(report, p, q):
        if circuit is None:
            return None
        return energy_efficiency(report, p, q, circuit)

    def add(allocator, p, q, report, converged=None, rounds=None, lam=None, scale=1.0, ee=None):
        user_rows.extend(
            _user_rows(
                spec, cfg, axis, value, allocator, p, q, report,
                rate_scale=scale, command="sweep",
            )
        )
        summary_rows.append(
            _summary_row(
                spec,
                axis,
                value,
                allocator,
                p,
                q,
                scale * report.sum_secrecy,
                ee if ee is not None else ee_of(report, p, q),
                converged=converged,
                outer_rounds=rounds,
                lambda_final=lam,
                command="sweep",
            )
        )

    p_f, q_f = baseline_fixed(cfg, p_max, q_max, spec.an_fraction)
    add("fixed", p_f, q_f, secrecy_report(cfg, p_f, q_f))

    p_u, q_u, rep_u, tr_u = baseline_uplink_se(cfg, p_max, q_max, options)
    add("uplink", p_u, q_u, rep_u, converged=tr_u.converged)

    p_d, q_d, rep_d, tr_d = baseline_downlink_se(cfg, p_max, q_max, options)
    add("downlink", p_d, q_d, rep_d, converged=tr_d.converged)

    p_p, q_p, rep_p, tr_p = maximize_se(cfg, p_max, q_max, options)
    add(
        "proposed",
        p_p,
        q_p,
        rep_p,
        converged=tr_p.converged,
        rounds=len(tr_p.epsilons),
    )

    if circuit is not None:
        p_e, q_e, ee_val, tr_e = maximize_ee(cfg, p_max, q_max, circuit, options)
        rep_e = secrecy_report(cfg, p_e, q_e)
        add(
            "proposed_ee",
            p_e,
            q_e,
            rep_e,
            converged=tr_e.converged,
            rounds=len(tr_e.epsilons),
            lam=tr_e.lambda_sequence[-1],
            ee=ee_val,
        )

    if len(set(cfg.users_per_cluster)) == 1:
        oma = optimize_oma_tdma(cfg, p_max, q_max, options, circuit_power=circuit)
        k_total = cfg.users_per_cluster[0]
        # user (m, k) is served in slot k; report its time-shared rates
        for k in range(k_total):
            p_t, q_t, rep_t, _ = oma.slots[k]
            for m in range(cfg.n_clusters):
                user_rows.append(
                    [
                        spec.scenario,
                        "sweep",
                        axis,
                        value,
                        "oma",
                        m + 1,
                        "user",
                        k + 1,
                        cfg.beta(m)[k],
                        p_t.p[m][0],
                        q_t.user(m, 0),
                        None,
                        rep_t.legit[m][0] / k_total,
                        rep_t.eaves[m][0] / k_total,
                        rep_t.secrecy[m][0] / k_total,
                    ]
                )
        summary_rows.append(
            [
                spec.scenario,
                "sweep",
                axis,
                value,
                "oma",
                oma.se,
                oma.ee,
                sum(pt.total() for pt, _, _, _ in oma.slots) / k_total,
                sum(qt.total() for _, qt, _, _ in oma.slots) / k_total,
                sum(qt.an_total() for _, qt, _, _ in oma.slots) / k_total,
                None,
                None,
                None,
            ]
        )
    return user_rows, summary_rows


def run_sweep(spec: ExperimentSpec, out: str) -> list[str]:
    """Evaluate every allocator at each sweep point, in axis order."""
    if spec.sweep_axis is None:
        raise ValueError("the spec has no sweep section")
    results = [_sweep_point(spec, spec.sweep_axis, v) for v in spec.sweep_values]
    user_rows = [row for users, _ in results for row in users]
    summary_rows = [row for _, summaries in results for row in summaries]
    return [
        _write_csv(out, USER_HEADER, user_rows),
        _write_csv(_companion(out, "summary"), SUMMARY_HEADER, summary_rows),
    ]
