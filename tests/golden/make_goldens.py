"""Write the golden specs and CLI outputs in this directory.

    PYTHONPATH=src python tests/golden/make_goldens.py

Each spec in SPECS is written as <name>.json, and each entry of COMMANDS
runs the CLI on one spec into <output>.csv (plus its companion files).
tests/test_golden.py reruns COMMANDS and compares against these files, so
a regenerated golden is a reviewed change: list every moved field and its
largest deviation when committing one.

The specs are tiny on purpose, so the comparison stays cheap. Two are
ragged, one of them with beta_E = 0; `wide` puts the Monte Carlo checks
at N_t = 256; `pairs` has equal-size clusters, so its sweep also runs the
time-shared benchmark.
"""

from __future__ import annotations

import json
import os
import sys

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


if __name__ == "__main__":
    for name, spec in SPECS.items():
        with open(spec_path(HERE, name), "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=2)
            fh.write("\n")
    sys.stdout = open(os.devnull, "w")  # main prints every path it writes
    run(HERE, HERE)
