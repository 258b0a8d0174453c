"""Golden outputs: rerun the CLI commands of tests/golden/make_goldens.py
and compare with the files committed beside it.

Closed-form (`rates`) and Monte Carlo (`validate`) files must match byte
for byte. Solver files (`optimize`, `sweep`) must match cell for cell,
except the solver columns, which may move by SOLVER_RTOL relative, or by
SOLVER_ATOL absolute for cells near zero (AN slots the solver switches
off, for one). The projected-gradient kernel and the DC loop stop on
tests that rounding noise can decide, so reordering the objective's
arithmetic moves these cells by up to about 6e-7 relative. Trace files
must match on row kinds and counts, and their objective and lambda values
at the same tolerance; epsilon values are per-round gaps that end near
zero, so only their rows are compared.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import math
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("make_goldens", GOLDEN / "make_goldens.py")
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)

SOLVER_RTOL = 1e-6
SOLVER_ATOL = 1e-9
SOLVER_COLUMNS = {
    "p", "q", "rho", "legit", "eaves", "secrecy", "sum_secrecy", "ee",
    "uplink_power", "downlink_power", "an_power", "lambda_final",
}
TRACE_VALUE_KINDS = {"objective", "lambda"}


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _close(new: str, old: str) -> bool:
    return math.isclose(float(new), float(old), rel_tol=SOLVER_RTOL, abs_tol=SOLVER_ATOL)


def _compare_solver_file(new: Path, old: Path, trace: bool) -> None:
    new_rows, old_rows = _rows(new), _rows(old)
    header = old_rows[0]
    assert new_rows[0] == header, old.name
    assert len(new_rows) == len(old_rows), old.name
    for line, (n, o) in enumerate(zip(new_rows[1:], old_rows[1:]), start=2):
        for column, a, b in zip(header, n, o):
            where = "%s line %d column %s: %s against golden %s" % (old.name, line, column, a, b)
            if trace and column == "value":
                assert o[3] not in TRACE_VALUE_KINDS or _close(a, b), where
            elif column in SOLVER_COLUMNS and a and b:
                assert _close(a, b), where
            else:
                assert a == b, where


def test_outputs_match_goldens(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        goldens.run(str(GOLDEN), str(tmp_path))
    commands = {stem: args[0] for stem, args, _ in goldens.COMMANDS}
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.glob("*.csv"))
    for name in written:
        new, old = tmp_path / name, GOLDEN / name
        stem = new.stem.removesuffix("_summary").removesuffix("_trace")
        if commands[stem] in ("rates", "validate"):
            assert new.read_bytes() == old.read_bytes(), name
        else:
            _compare_solver_file(new, old, trace=new.stem.endswith("_trace"))
