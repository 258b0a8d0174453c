"""Self-test of the benchmark's output checks: every checker must accept a
real output and reject a corrupted copy of it, so that no check exists
that cannot fail.

    python3 bench/selftest.py

It runs three small real commands (a two-point sweep, one EE solve and a
500-trial validate on the benchmark's own layouts, about 20 s in all),
then hands each checker its pristine output and the corrupted copies
below. It also checks that BENCHMARK.json lists the workloads and metrics
that bench/run.py reports. Exits 0 when every assertion holds.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import sys
from pathlib import Path

import checks
import run
import workloads
from setup_probe import SRC

HERE = Path(__file__).resolve().parent


def _edit(text: str, match, column: str, change) -> str:
    """Apply change(value, row) to `column` of the first row that matches."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    for row in rows[1:]:
        record = dict(zip(header, row))
        if match(record):
            row[header.index(column)] = format(change(float(record[column]), record), ".9g")
            break
    else:
        raise AssertionError("no row matches the corruption")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _outputs(cli_main, spec: dict, args, out_dir: Path, name: str) -> dict[str, str]:
    spec_path = out_dir / ("%s.json" % name)
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli_main(list(args) + ["--spec", str(spec_path), "--out", str(out_dir / ("%s.csv" % name))])
    assert code == 0, "%s exited with %d" % (name, code)
    files = {}
    for path in printed.getvalue().split():
        files[run._kind(path)] = Path(path).read_text(encoding="utf-8")
    return files


def _expect(checker, spec, files, tag: str | None, what: str) -> None:
    errors = checker(spec, files).errors
    if tag is None:
        assert not errors, "%s: the pristine output was rejected: %s" % (what, errors[:3])
    else:
        assert any(e.startswith(tag + ":") for e in errors), (
            "%s: expected a %r rejection, got %s" % (what, tag, errors[:3])
        )
    print("ok  %-44s %s" % (what, "accepted" if tag is None else "rejected (%s)" % tag))


def check_manifest() -> None:
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == list(run.PER_LAYER)
    print("ok  BENCHMARK.json matches bench/run.py")


def main() -> int:
    check_manifest()
    sys.path.insert(0, str(SRC))
    from noma_secrecy.cli import main as cli_main

    out_dir = HERE / "out" / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)

    # Sweep: a rate off in the sixth digit.
    (sweep,) = workloads.make_round("sweep", 0)
    spec = copy.deepcopy(sweep.spec)
    spec["sweep"]["values"] = [32, 64]
    files = _outputs(cli_main, spec, sweep.args, out_dir, "sweep")
    _expect(checks.check_sweep, spec, files, None, "sweep")
    bad = dict(files, users=_edit(
        files["users"],
        lambda r: r["allocator"] == "proposed" and r["role"] == "user",
        "legit",
        lambda x, r: x * (1.0 + 1e-5),
    ))
    _expect(checks.check_sweep, spec, bad, "rate", "sweep, legit rate off in the sixth digit")

    # EE: an uplink power over its cap, and a falling lambda.
    (ee,) = workloads.make_round("optimize-ee", 0)
    files = _outputs(cli_main, ee.spec, ee.args, out_dir, "ee")
    _expect(checks.check_optimize_ee, ee.spec, files, None, "optimize-ee")
    p_max = checks.db_to_linear(ee.spec["powers"]["p_max_db"])
    bad = dict(files, users=_edit(
        files["users"], lambda r: r["role"] == "user", "p", lambda x, r: p_max * 1.001
    ))
    _expect(checks.check_optimize_ee, ee.spec, bad, "budget", "optimize-ee, uplink power over its cap")
    n_lambda = sum(1 for r in csv.DictReader(io.StringIO(files["trace"])) if r["kind"] == "lambda")
    bad = dict(files, trace=_edit(
        files["trace"],
        lambda r: r["kind"] == "lambda" and int(r["step"]) == n_lambda - 1,
        "value",
        lambda x, r: x * 0.999,
    ))
    _expect(checks.check_optimize_ee, ee.spec, bad, "lambda", "optimize-ee, falling lambda")

    # Validate: one moment row shifted by 8 standard errors, away from its
    # prediction.
    command = workloads.make_round("validate", 0)[0]
    spec = dict(command.spec, trials=500)
    files = _outputs(cli_main, spec, command.args, out_dir, "validate")
    _expect(checks.check_validate, spec, files, None, "validate")
    row = lambda r: r["kind"] == "moment" and r["name"] == "own_beam_power"  # noqa: E731
    sign = lambda r: 1.0 if float(r["z_score"]) >= 0.0 else -1.0  # noqa: E731
    shifted = _edit(
        files["users"], row, "empirical", lambda x, r: x + 8.0 * sign(r) * float(r["stderr"])
    )
    shifted = _edit(shifted, row, "z_score", lambda x, r: x + 8.0 * sign(r))
    _expect(checks.check_validate, spec, dict(files, users=shifted), "band",
            "validate, moment row shifted by 8 sigma")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
