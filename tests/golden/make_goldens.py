"""Write the golden specs and CLI outputs in this directory.

    PYTHONPATH=src python tests/golden/make_goldens.py           # regenerate
    PYTHONPATH=src python tests/golden/make_goldens.py --check   # report only

Each spec in SPECS is written as <name>.json, and each entry of COMMANDS
runs the CLI on one spec into <output>.csv (plus its companion files).
tests/test_golden.py reruns COMMANDS and compares against these files, so
a regenerated golden is a reviewed change: list every moved field and its
largest deviation when committing one. `--check` writes everything into a
temporary directory instead, touches no file here, and prints for each
golden either "identical" or each moved column with its largest relative
deviation (absolute where the golden cell is 0); that is the list. It
exits 0 whatever moved: tests/test_golden.py is the gate.

The specs are tiny on purpose, so the comparison stays cheap. Two are
ragged, one of them with beta_E = 0; `wide` puts the Monte Carlo checks
at N_t = 256; `pairs` has equal-size clusters, so its sweep also runs the
time-shared benchmark. `power-sweep` sweeps q_max_db on the ragged
beta_E = 0 layout with a circuit power, so it runs `proposed_ee`; `pool`
sweeps users_per_cluster over a drawn pool of total_users gains, cut into
two one-user clusters and then one two-user cluster, each with `oma` rows.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

SPECS = {
    "ragged": {
        "scenario": "golden-ragged",
        "system": {
            "n_antennas": 8,
            "clusters": [[70.0, 15.0, 4.0], [50.0]],
            "coherence_len": 300,
            "eav_gain": 10.0,
        },
        "powers": {"p_max_db": 0.0, "q_max_db": 20.0},
        "allocation": {"an_fraction": 0.2},
        "trials": 200,
        "seed": 3,
    },
    "wide": {
        "scenario": "golden-wide",
        "system": {
            "n_antennas": 256,
            "clusters": [[80.0, 20.0], [60.0]],
            "coherence_len": 300,
            "eav_gain": 10.0,
        },
        "powers": {"p_max_db": 0.0, "q_max_db": 20.0},
        "trials": 100,
        "seed": 5,
    },
    "silent-eve": {
        "scenario": "golden-silent-eve",
        "system": {
            "n_antennas": 4,
            "clusters": [[20.0, 5.0], [10.0]],
            "coherence_len": 300,
            "eav_gain": 0.0,
        },
        "powers": {"p_max_db": 0.0, "q_max_db": 10.0, "circuit_power_db": 0.0},
        "seed": 1,
    },
    "pairs": {
        "scenario": "golden-pairs",
        "system": {
            "n_antennas": 4,
            "clusters": [[50.0, 12.0], [30.0, 6.0]],
            "coherence_len": 300,
            "eav_gain": 10.0,
        },
        "powers": {"p_max_db": 0.0, "q_max_db": 10.0},
        "sweep": {"axis": "n_antennas", "values": [4, 8]},
        "seed": 1,
    },
    "power-sweep": {
        "scenario": "golden-power-sweep",
        "system": {
            "n_antennas": 4,
            "clusters": [[20.0, 5.0], [10.0]],
            "coherence_len": 300,
            "eav_gain": 0.0,
        },
        "powers": {"p_max_db": 0.0, "q_max_db": 5.0, "circuit_power_db": 5.0},
        "sweep": {"axis": "q_max_db", "values": [0.0, 5.0]},
        "seed": 1,
    },
    "pool": {
        "scenario": "golden-pool",
        "system": {
            "n_antennas": 4,
            "n_clusters": 1,
            "users_per_cluster": 2,
            "total_users": 2,
            "coherence_len": 300,
            "eav_gain": 10.0,
        },
        "powers": {"p_max_db": 0.0, "q_max_db": 10.0},
        "sweep": {"axis": "users_per_cluster", "values": [1, 2]},
        "seed": 4,
    },
}

# (output stem, CLI arguments before --spec, spec name)
COMMANDS = (
    ("rates-ragged", ("rates",), "ragged"),
    ("rates-silent-eve", ("rates",), "silent-eve"),
    ("validate-ragged", ("validate",), "ragged"),
    ("validate-wide", ("validate",), "wide"),
    ("se-ragged", ("optimize", "--mode", "se"), "ragged"),
    ("se-silent-eve", ("optimize", "--mode", "se"), "silent-eve"),
    ("ee-silent-eve", ("optimize", "--mode", "ee"), "silent-eve"),
    ("sweep-pairs", ("sweep",), "pairs"),
    ("sweep-power", ("sweep",), "power-sweep"),
    ("sweep-pool", ("sweep",), "pool"),
)


def spec_path(directory: str, name: str) -> str:
    return os.path.join(directory, name + ".json")


def run(directory: str, out_directory: str) -> None:
    """Run every command on the specs in `directory`, writing into
    `out_directory`."""
    from noma_secrecy.cli import main

    for stem, args, spec in COMMANDS:
        out = os.path.join(out_directory, stem + ".csv")
        code = main([*args, "--spec", spec_path(directory, spec), "--out", out])
        if code != 0:
            raise SystemExit("%s failed with exit code %d" % (stem, code))


def regenerate(directory: str) -> None:
    """Write every spec and every output into `directory`."""
    for name, spec in SPECS.items():
        with open(spec_path(directory, name), "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=2)
            fh.write("\n")
    with contextlib.redirect_stdout(io.StringIO()):  # main prints every path it writes
        run(directory, directory)


def _rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _moved_columns(new: str, old: str) -> str:
    """Each column whose cells differ between two CSV files, with the
    largest relative deviation of its numeric cells, or "text" when a
    non-numeric cell changed, and the number of changed cells."""
    new_rows, old_rows = _rows(new), _rows(old)
    if new_rows[:1] != old_rows[:1] or len(new_rows) != len(old_rows):
        return "header or row count differs (%d rows, golden %d)" % (len(new_rows), len(old_rows))
    moved: dict[str, list] = {}  # column -> [largest deviation or "text", changed cells]
    for n, o in zip(new_rows[1:], old_rows[1:]):
        for column, a, b in zip(old_rows[0], n, o):
            if a != b:
                entry = moved.setdefault(column, [0.0, 0])
                entry[1] += 1
                try:
                    x, y = float(a), float(b)
                    entry[0] = max(entry[0], abs(x - y) / abs(y) if y else abs(x - y))
                except (TypeError, ValueError):  # a text cell, or a column already "text"
                    entry[0] = "text"
    return ", ".join(
        "%s %s (%d cells)" % (column, dev if dev == "text" else "%.3g" % dev, cells)
        for column, (dev, cells) in moved.items()
    )


def check() -> None:
    """Regenerate into a temporary directory and print what moved."""
    specs = sorted(name + ".json" for name in SPECS)
    outputs = sorted(f for f in os.listdir(HERE) if f.endswith(".csv"))
    identical = {"outputs": 0, "specs": 0}
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(tmp)
        for kind, files in (("specs", specs), ("outputs", outputs)):
            for name in files:
                new, old = os.path.join(tmp, name), os.path.join(HERE, name)
                if not os.path.exists(new):
                    report = "no longer written"
                else:
                    with open(new, "rb") as fa, open(old, "rb") as fb:
                        same = fa.read() == fb.read()
                    identical[kind] += same
                    report = "identical" if same else "differs"
                    if not same and kind == "outputs":
                        report = _moved_columns(new, old)
                print("%s: %s" % (name, report))
        for name in sorted(set(os.listdir(tmp)) - set(specs) - set(outputs)):
            print("%s: new, not committed" % name)
    print(
        "%d of %d outputs and %d of %d specs identical"
        % (identical["outputs"], len(outputs), identical["specs"], len(specs))
    )


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        check()
    elif sys.argv[1:]:
        raise SystemExit("usage: make_goldens.py [--check]")
    else:
        regenerate(HERE)
