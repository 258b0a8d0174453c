"""Independent checks of the CLI's CSV outputs, with the standard library only.

Every check recomputes what it can from the spec the benchmark wrote and
the powers echoed in the CSV, with the closed forms written out here
(the legitimate SINR of the `rates` module docstring and the eavesdropper
rate of `rates.eaves_rate`), and compares at the CSV's nine significant
digits. A checker returns a Verdict: a list of errors, each tagged with the
kind of check that failed, plus the objective the command reached and the
benchmark's own reference value for it.

The time-shared `oma` rows carry no per-slot AN powers, so their rates
cannot be recomputed from the CSV; they are checked for budgets, the
secrecy clamp and the summary sum only.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from statistics import NormalDist

REL = 1e-8  # agreement at nine significant digits, with rounding slack
ABS = 1e-12
EE_GAP = 1e-6  # terminal Dinkelbach gap the solver promises
BAND_ALPHA = 1e-6  # family-wise false-rejection rate of the moment bands
SWEEP_ALLOCATORS = ("fixed", "uplink", "downlink", "proposed", "oma")


@dataclass
class Verdict:
    errors: list[str] = field(default_factory=list)
    objective: float = 0.0
    reference: float = 0.0

    def fail(self, tag: str, message: str) -> None:
        self.errors.append("%s: %s" % (tag, message))


def _close(a: float, b: float, scale: float | None = None) -> bool:
    scale = max(abs(a), abs(b)) if scale is None else scale
    return abs(a - b) <= REL * scale + ABS


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(value: str) -> float:
    return float(value) if value != "" else math.nan


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class Layout:
    """The system a spec describes, in linear units."""

    gains: tuple[tuple[float, ...], ...]
    pilot_len: int
    coherence_len: int
    eav_gain: float
    p_max: float
    q_max: float
    an_fraction: float

    @classmethod
    def from_spec(cls, spec: dict) -> "Layout":
        system = spec["system"]
        return cls(
            gains=tuple(tuple(sorted(row, reverse=True)) for row in system["clusters"]),
            pilot_len=system["pilot_len"],
            coherence_len=system["coherence_len"],
            eav_gain=system["eav_gain"],
            p_max=db_to_linear(spec["powers"]["p_max_db"]),
            q_max=db_to_linear(spec["powers"]["q_max_db"]),
            an_fraction=spec["allocation"]["an_fraction"],
        )

    @property
    def overhead(self) -> float:
        return 1.0 - self.pilot_len / self.coherence_len

    def fixed_split(self):
        """The fixed allocation: uplink at its cap, an_fraction of the
        downlink budget on the AN slots and the rest equally on users."""
        n_users = sum(len(row) for row in self.gains)
        user = (1.0 - self.an_fraction) * self.q_max / n_users
        an = self.an_fraction * self.q_max / len(self.gains)
        p = [[self.p_max] * len(row) for row in self.gains]
        q = [[an] + [user] * len(row) for row in self.gains]
        return p, q


def rho_of(layout: Layout, p) -> list[list[float]]:
    """rho_{m,k} = P beta tau / (1 + sum_i P_i beta_i tau)."""
    tau = layout.pilot_len
    out = []
    for betas, powers in zip(layout.gains, p):
        energy = [pk * b * tau for pk, b in zip(powers, betas)]
        total = 1.0 + math.fsum(energy)
        out.append([e / total for e in energy])
    return out


def rates_of(layout: Layout, n_antennas: int, p, q):
    """Closed-form (legit, eaves) per user; q rows are [AN, user 0, ...]."""
    rho = rho_of(layout, p)
    nt = n_antennas
    beta_e = layout.eav_gain
    row_sums = [math.fsum(row) for row in q]
    legit, eaves = [], []
    for m, betas in enumerate(layout.gains):
        inter = math.fsum(s for j, s in enumerate(row_sums) if j != m)
        lrow, erow = [], []
        for k, beta in enumerate(betas):
            r = rho[m][k]
            qk = q[m][1 + k]
            kappa = qk * beta * r * nt
            i1 = qk * beta * (1.0 - r)
            i2 = beta * (math.fsum(q[m][1 : 1 + k]) * (r * nt + 1.0 - r) + q[m][0] * (1.0 - r))
            i3 = beta * inter
            lrow.append(layout.overhead * math.log2(1.0 + kappa / (i1 + i2 + i3 + 1.0)))
            intra = math.fsum(x for i, x in enumerate(q[m]) if i != 1 + k)
            den = beta_e * intra + beta_e * inter + 1.0
            erow.append(layout.overhead * math.log2(1.0 + qk * beta_e / den))
        legit.append(lrow)
        eaves.append(erow)
    return legit, eaves


def _check_allocation(v: Verdict, layout: Layout, nt: int, rows, summary, label: str):
    """Structure, budgets, recomputed rho and rates, and summary sums of
    one allocation's per-user rows. Returns (p, q, legit, eaves) as read,
    or None when the rows do not have the layout's shape."""
    expected = []
    for m, betas in enumerate(layout.gains):
        expected.append((str(m + 1), "an", ""))
        expected.extend((str(m + 1), "user", str(k + 1)) for k in range(len(betas)))
    got = [(r["cluster"], r["role"], r["user"]) for r in rows]
    if got != expected:
        v.fail("echo", "%s rows %r do not match the layout %r" % (label, got, expected))
        return None

    p, q, rho, legit, eaves, secrecy = [], [], [], [], [], []
    it = iter(rows)
    for m, betas in enumerate(layout.gains):
        q.append([_num(next(it)["q"])])
        p.append([])
        for k, beta in enumerate(betas):
            r = next(it)
            if not _close(_num(r["beta"]), beta):
                v.fail("echo", "%s beta[%d][%d] %s, spec %r" % (label, m, k, r["beta"], beta))
            p[m].append(_num(r["p"]))
            q[m].append(_num(r["q"]))
            rho.append(_num(r["rho"]))
            legit.append(_num(r["legit"]))
            eaves.append(_num(r["eaves"]))
            secrecy.append(_num(r["secrecy"]))
    flat_p = [x for row in p for x in row]
    flat_q = [x for row in q for x in row]
    values = flat_p + flat_q + rho + legit + eaves + secrecy
    if not all(math.isfinite(x) for x in values):
        v.fail("finite", "%s has a non-finite value" % label)
        return None

    if any(x < 0.0 or x > layout.p_max * (1.0 + REL) for x in flat_p):
        v.fail("budget", "%s uplink power outside [0, %r]" % (label, layout.p_max))
    if any(x < 0.0 for x in flat_q) or math.fsum(flat_q) > layout.q_max * (1.0 + REL):
        v.fail("budget", "%s downlink powers %r exceed %r" % (label, flat_q, layout.q_max))

    want_rho = [x for row in rho_of(layout, p) for x in row]
    want_l, want_e = (sum(rows_, []) for rows_ in rates_of(layout, nt, p, q))
    for u in range(len(legit)):
        if not _close(rho[u], want_rho[u]):
            v.fail("rate", "%s user %d rho %r, recomputed %r" % (label, u, rho[u], want_rho[u]))
        if not _close(legit[u], want_l[u]):
            v.fail("rate", "%s user %d legit %r, recomputed %r" % (label, u, legit[u], want_l[u]))
        if not _close(eaves[u], want_e[u]):
            v.fail("rate", "%s user %d eaves %r, recomputed %r" % (label, u, eaves[u], want_e[u]))
        clamp = max(legit[u] - eaves[u], 0.0)
        if not _close(secrecy[u], clamp, abs(legit[u]) + abs(eaves[u])):
            v.fail("rate", "%s user %d secrecy %r, clamp %r" % (label, u, secrecy[u], clamp))

    sums = (
        ("sum_secrecy", math.fsum(secrecy)),
        ("uplink_power", math.fsum(flat_p)),
        ("downlink_power", math.fsum(flat_q)),
        ("an_power", math.fsum(row[0] for row in q)),
    )
    for column, want in sums:
        if not _close(_num(summary[column]), want):
            v.fail("summary", "%s %s %s, rows sum to %r" % (label, column, summary[column], want))
    return p, q, legit, eaves


def _check_oma(v: Verdict, layout: Layout, rows, summary, label: str) -> None:
    n_users = len(layout.gains[0])
    expected = [
        (str(m + 1), "user", str(k + 1)) for k in range(n_users) for m in range(len(layout.gains))
    ]
    got = [(r["cluster"], r["role"], r["user"]) for r in rows]
    if got != expected:
        v.fail("echo", "%s rows %r do not match the layout" % (label, got))
        return
    slot_q = [0.0] * n_users
    secrecy = []
    for r in rows:
        m, k = int(r["cluster"]) - 1, int(r["user"]) - 1
        pk, qk, lk, ek, sk = (_num(r[c]) for c in ("p", "q", "legit", "eaves", "secrecy"))
        if not all(math.isfinite(x) for x in (pk, qk, lk, ek, sk)):
            v.fail("finite", "%s has a non-finite value" % label)
            return
        if not _close(_num(r["beta"]), layout.gains[m][k]):
            v.fail("echo", "%s beta[%d][%d] %s" % (label, m, k, r["beta"]))
        if pk < 0.0 or pk > layout.p_max * (1.0 + REL) or qk < 0.0:
            v.fail("budget", "%s user (%d, %d) powers p=%r q=%r" % (label, m, k, pk, qk))
        slot_q[k] += qk
        if not _close(sk, max(lk - ek, 0.0), abs(lk) + abs(ek)):
            v.fail("rate", "%s user (%d, %d) secrecy %r, clamp %r" % (label, m, k, sk, lk - ek))
        secrecy.append(sk)
    if any(total > layout.q_max * (1.0 + REL) for total in slot_q):
        v.fail("budget", "%s slot downlink powers %r exceed %r" % (label, slot_q, layout.q_max))
    if not _close(_num(summary["sum_secrecy"]), math.fsum(secrecy)):
        v.fail("summary", "%s sum_secrecy %s, rows sum to %r" % (label, summary["sum_secrecy"], math.fsum(secrecy)))


def _unclamped(legit, eaves) -> float:
    return math.fsum(legit) - math.fsum(eaves)


def _check_fixed(v: Verdict, layout: Layout, p, q, label: str) -> None:
    want_p, want_q = layout.fixed_split()
    got = [x for row in p + q for x in row]
    want = [x for row in want_p + want_q for x in row]
    if not all(_close(a, b) for a, b in zip(got, want)):
        v.fail("fixed", "%s powers %r are not the fixed split %r" % (label, got, want))


def check_sweep(spec: dict, files: dict[str, str]) -> Verdict:
    """Sweep over n_antennas: every allocator at every point. The
    objective is the proposed sum secrecy summed over the points, the
    reference that of the fixed split."""
    v = Verdict()
    layout = Layout.from_spec(spec)
    values = [float(x) for x in spec["sweep"]["values"]]
    users = _rows(files["users"])
    summary = _rows(files["summary"])

    got = [(r["axis"], _num(r["axis_value"]), r["allocator"]) for r in summary]
    want = [(spec["sweep"]["axis"], x, a) for x in values for a in SWEEP_ALLOCATORS]
    if got != want:
        v.fail("echo", "summary rows %r, expected %r" % (got, want))
        return v
    for r in users + summary:
        if r["scenario"] != spec["scenario"] or r["command"] != "sweep":
            v.fail("echo", "row %r does not echo the scenario and command" % r)
            return v
    by_key: dict[tuple, list] = {}
    for r in users:
        by_key.setdefault((_num(r["axis_value"]), r["allocator"]), []).append(r)
    summaries = {(_num(r["axis_value"]), r["allocator"]): r for r in summary}

    for x in values:
        nt = int(x)
        read = {}
        for alloc in SWEEP_ALLOCATORS:
            label = "%s@%d" % (alloc, nt)
            rows = by_key.get((x, alloc), [])
            if alloc == "oma":
                _check_oma(v, layout, rows, summaries[(x, alloc)], label)
            else:
                read[alloc] = _check_allocation(v, layout, nt, rows, summaries[(x, alloc)], label)
        if read["fixed"] is None or read["proposed"] is None:
            continue
        _check_fixed(v, layout, read["fixed"][0], read["fixed"][1], "fixed@%d" % nt)
        fixed = _unclamped(*read["fixed"][2:])
        proposed = _unclamped(*read["proposed"][2:])
        scale = math.fsum(abs(t) for t in read["proposed"][2] + read["proposed"][3])
        if proposed < fixed - REL * scale - ABS:
            v.fail("monotone", "proposed@%d unclamped sum %r below fixed %r" % (nt, proposed, fixed))
        if summaries[(x, "proposed")]["converged"] != "true":
            v.fail("converged", "proposed@%d did not converge" % nt)
        v.objective += _num(summaries[(x, "proposed")]["sum_secrecy"])
        v.reference += _num(summaries[(x, "fixed")]["sum_secrecy"])
    return v


def check_optimize_ee(spec: dict, files: dict[str, str]) -> Verdict:
    """Dinkelbach EE solve. The objective is the EE reached, the reference
    the EE of the fixed split on the same layout."""
    v = Verdict()
    layout = Layout.from_spec(spec)
    nt = spec["system"]["n_antennas"]
    circuit = db_to_linear(spec["powers"]["circuit_power_db"])
    users = _rows(files["users"])
    summary = _rows(files["summary"])
    trace = _rows(files["trace"])
    if len(summary) != 1 or summary[0]["allocator"] != "proposed_ee":
        v.fail("echo", "expected one proposed_ee summary row, got %r" % summary)
        return v
    s = summary[0]
    read = _check_allocation(v, layout, nt, users, s, "proposed_ee")
    if read is None:
        return v

    lambdas = [_num(r["value"]) for r in trace if r["kind"] == "lambda"]
    epsilons = [_num(r["value"]) for r in trace if r["kind"] == "epsilon"]
    if not lambdas or not epsilons:
        v.fail("lambda", "trace has no lambda or epsilon rows")
        return v
    if any(b < a for a, b in zip(lambdas, lambdas[1:])):
        v.fail("lambda", "lambda sequence %r decreases" % lambdas)
    if abs(epsilons[-1]) > EE_GAP:
        v.fail("gap", "final epsilon %r exceeds %r" % (epsilons[-1], EE_GAP))
    if s["converged"] != "true":
        v.fail("converged", "EE solve did not converge")

    ee = _num(s["ee"])
    denom = _num(s["uplink_power"]) + _num(s["downlink_power"]) + circuit
    if not _close(ee, _num(s["sum_secrecy"]) / denom):
        v.fail("ee", "ee %r is not sum_secrecy / total power %r" % (ee, _num(s["sum_secrecy"]) / denom))
    if not (_close(ee, lambdas[-1]) and _close(ee, _num(s["lambda_final"]))):
        v.fail("ee", "ee %r differs from the final lambda %r / %s" % (ee, lambdas[-1], s["lambda_final"]))

    p_f, q_f = layout.fixed_split()
    legit, eaves = rates_of(layout, nt, p_f, q_f)
    fixed_se = math.fsum(max(l - e, 0.0) for lr, er in zip(legit, eaves) for l, e in zip(lr, er))
    fixed_power = math.fsum(x for row in p_f + q_f for x in row)
    v.objective = ee
    v.reference = fixed_se / (fixed_power + circuit)
    return v


def expected_validate_rows(layout: Layout) -> tuple[int, int]:
    """(moment rows, rate rows) that `validate` writes for a layout."""
    n_clusters = len(layout.gains)
    n_users = sum(len(row) for row in layout.gains)
    moments = n_users * (8 + 2 * (n_clusters - 1)) + 3 * n_clusters
    if layout.eav_gain > 0.0:
        moments += n_users
    return moments, 3 * n_users


def band(n_rows: int) -> float:
    """Two-sided Bonferroni |z| bound for n_rows rows at BAND_ALPHA."""
    return NormalDist().inv_cdf(1.0 - BAND_ALPHA / (2.0 * n_rows))


def check_validate(spec: dict, files: dict[str, str]) -> Verdict:
    """Closed forms against Monte Carlo at the fixed split. The objective
    is the simulated sum secrecy, the reference the closed-form one."""
    v = Verdict()
    layout = Layout.from_spec(spec)
    nt = spec["system"]["n_antennas"]
    rows = _rows(files["users"])
    moments = [r for r in rows if r["kind"] == "moment"]
    rates = [r for r in rows if r["kind"] == "rate"]
    want_moments, want_rates = expected_validate_rows(layout)
    if (len(moments), len(rates), len(rows)) != (want_moments, want_rates, want_moments + want_rates):
        v.fail("count", "%d moment and %d rate rows of %d, expected %d and %d"
               % (len(moments), len(rates), len(rows), want_moments, want_rates))
        return v

    limit = band(len(moments))
    for r in moments:
        emp, pred, se, z = (_num(r[c]) for c in ("empirical", "predicted", "stderr", "z_score"))
        where = "%s (%s, %s)" % (r["name"], r["cluster"], r["user"])
        if not all(math.isfinite(x) for x in (emp, pred, se, z)) or r["degenerate"] != "false":
            v.fail("finite", "moment %s has no finite band" % where)
            continue
        # (emp - pred) cancels digits, so the z tolerance scales with emp / se.
        if se <= 0.0 or not _close(z, (emp - pred) / se, (abs(emp) + abs(pred)) / se + abs(z)):
            v.fail("band", "moment %s z %r does not match its columns" % (where, z))
        if abs((emp - pred) / se) > limit:
            v.fail("band", "moment %s |z| = %.3g is outside %.3g" % (where, abs(z), limit))

    p_f, q_f = layout.fixed_split()
    legit, eaves = rates_of(layout, nt, p_f, q_f)
    closed = {}
    for m, (lrow, erow) in enumerate(zip(legit, eaves)):
        for k, (l, e) in enumerate(zip(lrow, erow)):
            key = (str(m + 1), str(k + 1))
            closed[("legit",) + key] = l
            closed[("eaves",) + key] = e
            closed[("secrecy",) + key] = max(l - e, 0.0)
    for r in rates:
        key = (r["name"], r["cluster"], r["user"])
        emp, pred = _num(r["empirical"]), _num(r["predicted"])
        if key not in closed or not math.isfinite(emp):
            v.fail("rate", "rate row %r is unexpected or not finite" % (key,))
            continue
        if not _close(pred, closed[key]):
            v.fail("rate", "predicted %s %r, recomputed %r" % (key, pred, closed[key]))
        if r["name"] == "secrecy":
            v.objective += emp
            v.reference += closed[key]
    return v


CHECKERS = {
    "sweep": check_sweep,
    "optimize": check_optimize_ee,
    "validate": check_validate,
}
