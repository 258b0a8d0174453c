"""Experiment drivers: rate evaluation, Monte Carlo validation, power
allocation runs and parameter sweeps, with delimited (CSV) output.

The experiment spec is a JSON document; powers cross this boundary in dB
and are converted to linear watts immediately. Every run is a pure
function of (spec, seed): large-scale gains drawn for a scenario are
seed-controlled and echoed into the per-user output so results can be
reproduced from the CSV alone.

A sweep point is a spec: the sweep's spec with its axis field set to the
point's value (an integer on the two integer axes; on users_per_cluster
the drawn gain pool is cut into clusters of the new size). Every point,
like every other command, goes from spec to configuration and budgets
through one path, and every allocation it evaluates is written by one
row builder. Every point's fixed split is built and checked before any
point is solved, as `optimize` checks its own before its solve: a spec
whose gains or powers are out of range fails naming a column, before a
solver meets the overflow. The `proposed` solve at a point takes its
first uplink stage from the `uplink` baseline, which solves that same
stage.

The points of a sweep run on every available CPU, at most one process
per point: they are dealt to the workers in snake order, so that points
whose cost grows along the axis give each worker a similar share, and
each share after the first runs in a forked child (`_workers`). The
children send back their rows and their log records; the files and the
records handed to the logger's handlers come out in axis order, the same
as in one process, and so does the error of the first failing point.

Output conventions: every file starts with a header row; floats are
printed with nine significant digits; one tidy per-user file plus a
companion summary file per experiment (plus a trace file for the
optimizer command).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import os
from time import perf_counter

import numpy as np

from ._workers import available_cpus, captured, deal, run_shares
from .model import ClusterConfig, SystemConfig, compute_rho, db_to_linear, validate_config
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
from .rates import _eaves_rates, _legit_rates, secrecy_report

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

# validate's verdict: the family-wise false-rejection rate of the moment
# rows' Bonferroni band, and the largest relative gap a rate row may show
# against its closed form (acceptance criterion 02).
_BAND_ALPHA = 1e-6
_RATE_REL_GAP = 0.05


@dataclasses.dataclass(frozen=True)
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

    def __post_init__(self):
        # Checked here, not in load_spec, so that a --seed override is too.
        if self.seed < 0:
            raise ValueError("seed must be >= 0, got %d" % self.seed)
        # Monte Carlo trial i's generator takes i as one 32-bit spawn word.
        if not 1 <= self.trials < 2**32:
            raise ValueError("trials must be >= 1 and < 2**32, got %d" % self.trials)


def _finite(name: str, value) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("%s must be a finite number, got %r" % (name, value)) from None
    if not math.isfinite(x):
        raise ValueError("%s must be finite, got %r" % (name, x))
    return x


def _integer(name: str, value) -> int:
    """A spec integer: an int as it is (every digit of a large seed kept)
    or a float with an integral value such as 64.0; anything else is a
    ValueError naming the key."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    return value


def _text(name: str, value) -> str:
    """A spec string: non-empty, and never a number or null turned into
    text."""
    if not isinstance(value, str) or not value:
        raise ValueError("%s must be a non-empty string, got %r" % (name, value))
    return value


def _db(name: str, value) -> float:
    x = _finite(name, value)
    db_to_linear(x)  # rejects a value whose linear power overflows
    return x


def load_spec(path: str) -> ExperimentSpec:
    """Read and validate a JSON experiment spec."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("an experiment spec must be a JSON object")
    for section in SPEC_SECTIONS:
        if not isinstance(raw.get(section, {}), dict):
            raise ValueError("%s must be an object" % section)
    unknown = sorted(set(raw) - SPEC_KEYS) + sorted(
        "%s.%s" % (section, key)
        for section, keys in SPEC_SECTIONS.items()
        for key in set(raw.get(section, {})) - keys
    )
    if unknown:
        raise ValueError("unknown experiment spec key(s): %s" % ", ".join(unknown))
    try:
        scenario = _text("scenario", raw["scenario"])
        system = raw["system"]
    except KeyError as exc:
        raise ValueError("experiment spec is missing the %s section" % exc) from exc
    powers = raw.get("powers", {})

    def optional_int(key):
        return _integer("system." + key, system[key]) if key in system else None

    clusters = None
    if "clusters" in system:
        rows = system["clusters"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("system.clusters must be a list of lists of gains")
        clusters = tuple(tuple(_finite("system.clusters", b) for b in row) for row in rows)
        if not clusters:
            raise ValueError("system.clusters must not be empty")

    sweep = raw.get("sweep")
    sweep_axis = None
    sweep_values: tuple[float, ...] = ()
    if sweep is not None:
        sweep_axis = sweep.get("axis")
        if sweep_axis not in SWEEP_AXES:
            raise ValueError(
                "sweep.axis must be one of %s, got %r" % (", ".join(SWEEP_AXES), sweep_axis)
            )
        values = sweep.get("values")
        if not isinstance(values, list) or not values:
            raise ValueError("sweep.values must be a non-empty list")
        if sweep_axis in ("n_antennas", "users_per_cluster"):
            number = _integer
        else:
            number = _db if sweep_axis.endswith("_db") else _finite
        sweep_values = tuple(number("sweep.values", v) for v in values)
        if any(b <= a for a, b in zip(sweep_values, sweep_values[1:])):
            raise ValueError("sweep.values must be strictly increasing")

    spec = ExperimentSpec(
        scenario=scenario,
        n_antennas=_integer("system.n_antennas", system.get("n_antennas", 64)),
        coherence_len=_integer("system.coherence_len", system.get("coherence_len", 300)),
        eav_gain=_finite("system.eav_gain", system.get("eav_gain", 10.0)),
        pilot_len=optional_int("pilot_len"),
        clusters=clusters,
        n_clusters=optional_int("n_clusters"),
        users_per_cluster=optional_int("users_per_cluster"),
        total_users=optional_int("total_users"),
        p_max_db=_db("powers.p_max_db", powers.get("p_max_db", 0.0)),
        q_max_db=_db("powers.q_max_db", powers.get("q_max_db", 20.0)),
        circuit_power_db=(
            _db("powers.circuit_power_db", powers["circuit_power_db"])
            if "circuit_power_db" in powers
            else None
        ),
        an_fraction=_finite(
            "allocation.an_fraction", raw.get("allocation", {}).get("an_fraction", 0.2)
        ),
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        trials=_integer("trials", raw.get("trials", 1000)),
        seed=_integer("seed", raw.get("seed", 0)),
        output=_text("output", raw["output"]) if "output" in raw else None,
    )
    if spec.circuit_power_db is not None and db_to_linear(spec.circuit_power_db) == 0.0:
        raise ValueError("powers.circuit_power_db is too small for a positive linear power")
    if spec.clusters is None and (spec.n_clusters is None or spec.users_per_cluster is None):
        raise ValueError(
            "system needs either explicit clusters or n_clusters + users_per_cluster"
        )
    # A users_per_cluster sweep cuts the drawn gain pool, whose size one of
    # these two keys fixes, whatever explicit clusters the spec has.
    counts = (spec.n_clusters, spec.total_users)
    if spec.sweep_axis == "users_per_cluster" and counts == (None, None):
        raise ValueError(
            "sweep.axis users_per_cluster needs system.n_clusters or system.total_users"
        )
    return spec


def _beta_pool(spec: ExperimentSpec, count: int) -> np.ndarray:
    """Seed-controlled large-scale gains, uniform on (0, 100), from the
    seed's root stream: Monte Carlo trial i uses its child i."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    return rng.uniform(0.0, 100.0, count)


def build_config(spec: ExperimentSpec) -> SystemConfig:
    """Materialize the system configuration of a spec: its explicit
    clusters, or else its drawn gain pool cut into clusters of
    users_per_cluster."""
    if spec.clusters is not None:
        rows = [np.sort(np.asarray(c, dtype=float))[::-1] for c in spec.clusters]
    else:
        k = spec.users_per_cluster
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
    cfg = SystemConfig(
        n_antennas=spec.n_antennas,
        clusters=tuple(ClusterConfig(r) for r in rows),
        pilot_len=spec.pilot_len if spec.pilot_len is not None else len(rows),
        coherence_len=spec.coherence_len,
        eav_gain=spec.eav_gain,
    )
    return validate_config(cfg)


def _point(spec: ExperimentSpec) -> tuple[SystemConfig, float, float, float | None]:
    """A spec's configuration, linear power budgets (p_max, q_max) and
    linear circuit power (None without one).

    ValueError naming powers.p_max_db where the cap makes a user's
    estimation quality E / (1 + E) not below 1 in floating point, for its
    training energy E = p_max beta tau: that is the user's rho alone in its
    cluster, and under any allocation that switches the other users off.
    A user whose rho rounds to 1 at 1 W already has an out-of-range gain,
    which the later checks report."""
    cfg = build_config(spec)
    p_max = db_to_linear(spec.p_max_db)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = p_max * cfg.flat_betas * cfg.pilot_len  # as compute_rho forms it
        unit = cfg.flat_betas * cfg.pilot_len
        saturated = ~(energy / (1.0 + energy) < 1.0) & (unit / (1.0 + unit) < 1.0)
    if saturated.any():
        u = int(np.argmax(saturated))
        m = int(cfg.cluster_of[u])
        raise ValueError(
            "powers.p_max_db = %r is too large: cluster %d user %d has training energy %.3g, "
            "and its estimation quality rho rounds to 1"
            % (spec.p_max_db, m, u - int(cfg.user_offsets[m]), energy[u])
        )
    circuit = None if spec.circuit_power_db is None else db_to_linear(spec.circuit_power_db)
    return cfg, p_max, db_to_linear(spec.q_max_db), circuit


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


def _non_finite(column: str, what: str) -> ValueError:
    return ValueError(
        "non-finite %s (%s) in the results: the spec's gains or powers are out of range"
        % (column, what)
    )


def _check_finite(header: list[str], rows: list[list]) -> None:
    """ValueError naming the column of the first non-finite number in
    rows: rates and powers overflow to inf or nan when gains or powers
    are far out of range, and such a row must not pass for a result."""
    for row in rows:
        for column, value in zip(header, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise _non_finite(column, _fmt(value))


def _write_tables(out: str, tables) -> list[str]:
    """Write each (suffix, header, rows) table to `out` (suffix None) or
    to its companion file, after `_check_finite` has passed every table:
    a non-finite cell raises before any file is opened."""
    for _, header, rows in tables:
        _check_finite(header, rows)
    return [
        _write_csv(out if suffix is None else _companion(out, suffix), header, rows)
        for suffix, header, rows in tables
    ]


def _allocation_rows(
    head: list,
    cfg: SystemConfig,
    allocator: str,
    slots,
    circuit: float | None,
    converged: bool | None = None,
    rounds: int | None = None,
    lam: float | None = None,
    shared: bool = False,
) -> tuple[list[list], list]:
    """The per-user rows and the summary row of one allocation.

    `head` starts every row: scenario, command, axis and axis value.
    `slots` holds one (p, q, report) per time slot, each slot served
    1/len(slots) of the time; rates, the secrecy sum, the powers and the
    energy efficiency are slot averages. An allocation on `cfg` is one
    slot, written as each cluster's AN row followed by its users. The
    time-shared benchmark (`shared`) serves user t of every cluster in
    slot t on a one-user-per-cluster layout, and lists its users only,
    without rho.
    """
    n_slots = len(slots)
    users = []
    for t, (p, q, report) in enumerate(slots):
        rho = None if shared else compute_rho(cfg, p).rho
        for m, p_row in enumerate(p.p):
            if not shared:
                an_row = [allocator, m + 1, "an", None, None, None, q.an(m)]
                users.append(head + an_row + [None] * 4)
            for k, p_user in enumerate(p_row):
                u = t + k  # the user's rank in its cluster
                row = [allocator, m + 1, "user", u + 1, cfg.beta(m)[u], p_user, q.user(m, k)]
                rates = [r[m][k] / n_slots for r in (report.legit, report.eaves, report.secrecy)]
                users.append(head + row + [None if rho is None else rho[m][k]] + rates)
    powers = [(p.total(), q.total(), q.an_total()) for p, q, _ in slots]
    uplink, downlink, an = (sum(column) / n_slots for column in zip(*powers))
    se = sum(report.sum_secrecy for _, _, report in slots) / n_slots
    ee = None
    if circuit is not None:
        ee = se / (sum(up + down for up, down, _ in powers) / n_slots + circuit)
    return users, head + [allocator, se, ee, uplink, downlink, an, converged, rounds, lam]


def _fixed_rows(head: list, spec: ExperimentSpec, cfg: SystemConfig, p_max, q_max, circuit):
    """The (user rows, summary row) of the fixed power split, after
    `_check_finite` has passed them. The solving commands build these
    before their first solve, so a spec whose gains or powers are out of
    range fails with the column it breaks, not inside a solver.

    A rate column whose computation overflows, or meets an invalid
    value, raises too: an interference power that overflows to inf
    drives a rate to a finite but wrong 0, and the solvers' log
    arguments overflow with it."""
    p, q = baseline_fixed(cfg, p_max, q_max, spec.an_fraction)
    rho, q_flat = compute_rho(cfg, p).flat(), q.flat()
    views = cfg.user_powers(q_flat)
    for column, rates in (
        ("legit", lambda: _legit_rates(cfg, rho, views)),
        ("eaves", lambda: _eaves_rates(cfg, q_flat, views[0])),
    ):
        try:
            with np.errstate(over="raise", invalid="raise"):
                rates()
        except FloatingPointError as exc:
            raise _non_finite(column, str(exc)) from None
    users, summary = _allocation_rows(
        head, cfg, "fixed", [(p, q, secrecy_report(cfg, p, q))], circuit
    )
    _check_finite(USER_HEADER, users)
    _check_finite(SUMMARY_HEADER, [summary])
    return users, summary


def run_rates(spec: ExperimentSpec, out: str) -> list[str]:
    """Closed-form per-user rates under the fixed power split."""
    cfg, p_max, q_max, circuit = _point(spec)
    head = [spec.scenario, "rates", "", ""]
    users, summary = _fixed_rows(head, spec, cfg, p_max, q_max, circuit)
    return _write_tables(out, [(None, USER_HEADER, users), ("summary", SUMMARY_HEADER, [summary])])


def run_validate(spec: ExperimentSpec, out: str) -> list[str]:
    """Closed forms against their Monte Carlo estimates with 3-sigma
    bands; rows with no usable band (single trial) are flagged. One
    simulation feeds both the moment rows and the rate rows."""
    cfg, p_max, q_max, _ = _point(spec)
    p, q = baseline_fixed(cfg, p_max, q_max, spec.an_fraction)
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
    log.log(*_verdict(spec.scenario, rows))
    return written


def _moment_band(n_rows: int) -> float:
    """The two-sided Bonferroni |z| bound for n_rows rows at family-wise
    rate _BAND_ALPHA."""
    from statistics import NormalDist  # imported here: only validate needs it

    return NormalDist().inv_cdf(1.0 - _BAND_ALPHA / (2.0 * max(n_rows, 1)))


def _verdict(scenario: str, rows: list[list]) -> tuple[int, str]:
    """The log level and line of validate's rows: WARNING when a banded
    moment row lies outside the Bonferroni band of the banded moment rows,
    or a banded rate row is more than _RATE_REL_GAP from its closed form
    (or the closed form is 0 and the estimate is not); INFO otherwise.

    The 3-sigma count is reported too, but does not decide the level: at
    hundreds of rows chance alone puts some outside 3 sigma, and the
    closed-form rates are a ratio-of-means approximation whose bias many
    standard errors resolve."""
    banded = [row for row in rows if not row[10]]  # rows with a z-score
    outside = [row[1] for row in banded if abs(row[8]) > 3.0]
    moments = [row for row in banded if row[1] == "moment"]
    rates = [row for row in banded if row[1] == "rate"]
    limit = _moment_band(len(moments))
    moments_out = sum(not abs(row[8]) <= limit for row in moments)
    rates_off = sum(
        row[5] != row[6] if row[9] is None else not row[9] <= _RATE_REL_GAP for row in rates
    )
    message = (
        "validate %r: %d of %d banded rows outside 3 sigma (%d moment, %d rate); "
        "moment rows %s: %d of %d outside the Bonferroni band |z| <= %.3g; "
        "rate rows %s: %d of %d more than %g%% from the closed form; worst |z| %.3g"
        % (
            scenario, len(outside), len(banded), outside.count("moment"), outside.count("rate"),
            "FAIL" if moments_out else "ok", moments_out, len(moments), limit,
            "FAIL" if rates_off else "ok", rates_off, len(rates), 100 * _RATE_REL_GAP,
            max((abs(row[8]) for row in banded), default=0.0),
        )
    )
    return (logging.WARNING if moments_out or rates_off else logging.INFO), message


def run_optimize(spec: ExperimentSpec, out: str, mode: str = "se") -> list[str]:
    """Run one power-allocation solve and emit allocation, rates, trace."""
    if mode not in ("se", "ee"):
        raise ValueError("mode must be 'se' or 'ee', got %r" % mode)
    cfg, p_max, q_max, circuit = _point(spec)
    head = [spec.scenario, "optimize", "", ""]
    _fixed_rows(head, spec, cfg, p_max, q_max, circuit)
    if mode == "se":
        p, q, report, trace = maximize_se(cfg, p_max, q_max)
        lam = None
    else:
        if circuit is None:
            raise ValueError("powers.circuit_power_db is required for mode=ee")
        p, q, _, trace = maximize_ee(cfg, p_max, q_max, circuit)
        report = secrecy_report(cfg, p, q)
        lam = trace.lambda_sequence[-1]

    users, summary = _allocation_rows(
        head, cfg, "proposed_%s" % mode, [(p, q, report)], circuit,
        trace.converged, len(trace.epsilons), lam,
    )
    trace_rows = [
        [spec.scenario, mode, i, kind, value]
        for kind, values in (
            ("objective", trace.outer_values),
            ("epsilon", trace.epsilons),
            ("lambda", trace.lambda_sequence),
        )
        for i, value in enumerate(values)
    ]
    return _write_tables(
        out,
        [
            (None, USER_HEADER, users),
            ("summary", SUMMARY_HEADER, [summary]),
            ("trace", TRACE_HEADER, trace_rows),
        ],
    )


def _sweep_start(spec: ExperimentSpec, value: float):
    """One sweep point's (configuration, p_max, q_max, circuit power, row
    head, fixed-split rows): the spec with its sweep axis set to `value`,
    and its `_fixed_rows`, which raise on a point out of range."""
    axis = spec.sweep_axis
    changes = {axis: value}
    if axis == "users_per_cluster":
        changes["clusters"] = None  # cut the drawn gain pool into clusters of this size
    cfg, p_max, q_max, circuit = _point(dataclasses.replace(spec, **changes))
    head = [spec.scenario, "sweep", axis, value]
    return cfg, p_max, q_max, circuit, head, _fixed_rows(head, spec, cfg, p_max, q_max, circuit)


def _sweep_point(start) -> list[tuple[list[list], list]]:
    """The (user rows, summary row) of every allocator at one sweep point,
    from its `_sweep_start`."""
    cfg, p_max, q_max, circuit, head, fixed = start
    options = SolveOptions()

    allocations = [fixed]
    uplink = baseline_uplink_se(cfg, p_max, q_max, options)
    downlink = baseline_downlink_se(cfg, p_max, q_max, options)
    for allocator, (p, q, report, trace) in (("uplink", uplink), ("downlink", downlink)):
        allocations.append(
            _allocation_rows(head, cfg, allocator, [(p, q, report)], circuit, trace.converged)
        )
    # The proposed solve's first stage is the uplink baseline's.
    p, q, report, trace = maximize_se(cfg, p_max, q_max, options, _uplink=uplink)
    allocations.append(
        _allocation_rows(
            head, cfg, "proposed", [(p, q, report)], circuit, trace.converged, len(trace.epsilons)
        )
    )
    if circuit is not None:
        p, q, _, trace = maximize_ee(cfg, p_max, q_max, circuit, options)
        allocations.append(
            _allocation_rows(
                head, cfg, "proposed_ee", [(p, q, secrecy_report(cfg, p, q))], circuit,
                trace.converged, len(trace.epsilons), trace.lambda_sequence[-1],
            )
        )
    if len(set(cfg.users_per_cluster)) == 1:
        oma = optimize_oma_tdma(cfg, p_max, q_max, options)
        slots = [(p, q, report) for p, q, report, _ in oma.slots]
        allocations.append(_allocation_rows(head, cfg, "oma", slots, circuit, shared=True))
    return allocations


def _sweep_share(starts) -> list[tuple[object, list]]:
    """Run the sweep points of `starts` in order, up to the first that
    raises: per point, its allocations (or the exception it raised) and
    the log records it made, kept instead of handled."""
    done = []
    for start in starts:
        with captured(log) as records:
            try:
                result = _sweep_point(start)
            except Exception as exc:
                result = exc
        done.append((result, records))
        if isinstance(result, Exception):
            break
    return done


def _sweep_points(starts, workers: int) -> list:
    """The allocations of every sweep point, in axis order. With several
    workers, the points are dealt in snake order (`deal`), each worker's
    share runs in its own process (`run_shares`), and the points' log
    records are handed on in axis order once all have run: the logger's
    handlers get what one process would give them. The first point that
    fails in axis order raises its exception, as in one process."""
    if workers == 1:
        return [_sweep_point(start) for start in starts]
    shares = deal(len(starts), workers)
    results = run_shares(lambda share: _sweep_share([starts[i] for i in share]), shares)
    ran = {i: point for share, done in zip(shares, results) for i, point in zip(share, done)}
    points = []
    for i in range(len(starts)):
        result, records = ran[i]  # a point that did not run follows a failed one
        for record in records:
            log.callHandlers(record)
        if isinstance(result, Exception):
            raise result
        points.append(result)
    return points


def run_sweep(spec: ExperimentSpec, out: str) -> list[str]:
    """Evaluate every allocator at each sweep point. The points run on
    every available CPU, at most one process per point; the output is the
    same bytes as one process's, in axis order."""
    if spec.sweep_axis is None:
        raise ValueError("the spec has no sweep section")
    # Every point's fixed split passes its checks before any point is solved.
    starts = [_sweep_start(spec, value) for value in spec.sweep_values]
    debug = log.isEnabledFor(logging.DEBUG)
    t0 = perf_counter() if debug else 0.0
    workers = min(available_cpus(), len(starts))
    allocations = [a for point in _sweep_points(starts, workers) for a in point]
    if debug:
        log.debug(
            "sweep: %d points, %d worker processes, %.3g s",
            len(spec.sweep_values), workers, perf_counter() - t0,
        )
    users = [row for rows, _ in allocations for row in rows]
    summaries = [s for _, s in allocations]
    return _write_tables(out, [(None, USER_HEADER, users), ("summary", SUMMARY_HEADER, summaries)])
