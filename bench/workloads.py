"""Benchmark inputs: one round of CLI commands per workload, made from the
workload seed with the standard library only (the harness must not import
numpy before it has timed the program's set-up).

Each seed scales every gain of a fixed base layout by its own factor drawn
uniformly from [1 - JITTER, 1 + JITTER]. Every seed is therefore a distinct
instance, while the solver work per command stays within a few percent of
the base layout's: kernel iterations of one EE solve varied by 3% over
five seeds, where with gains drawn uniformly on (0, 100), as the CLI does
without explicit clusters, one EE solve took 12 s to 17 s (2-core 2.1 GHz
Xeon VM). The spread between seeds then shows the machine rather than the
instance.

A run repeats the same round, so every round does the same work and the
per-layer counts of a round repeat exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("sweep", "optimize-ee", "validate")

JITTER = 0.02
P_MAX_DB = 0.0
Q_MAX_DB = 20.0
CIRCUIT_POWER_DB = -5.0
COHERENCE_LEN = 300
EAV_GAIN = 10.0
AN_FRACTION = 0.2

# Base layouts: large-scale gains per cluster, strongest user first.
SWEEP_GAINS = ((80.0, 20.0), (60.0, 10.0), (40.0, 8.0))
SWEEP_ANTENNAS = (32, 64, 128, 256)
SWEEP_THREADS = 2
EE_GAINS = ((80.0, 20.0), (60.0, 10.0))
EE_ANTENNAS = 64
# Two Monte Carlo specs: many users at few antennas, few users at many
# antennas, so per-trial overhead and per-antenna arithmetic both show.
VALIDATE_LAYOUTS = (
    (((80.0, 20.0, 5.0), (60.0, 10.0, 2.0), (40.0, 8.0, 1.0), (30.0, 6.0, 1.5)), 64),
    (((80.0, 20.0), (60.0, 10.0)), 256),
)
VALIDATE_TRIALS = 2000


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand arguments, its spec, and the work
    units it completes (sweep points, EE solves or Monte Carlo trials)."""

    args: tuple[str, ...]
    spec: dict
    units: int


def _gains(rng: random.Random, base) -> list[list[float]]:
    return [
        sorted((g * (1.0 + JITTER * rng.uniform(-1.0, 1.0)) for g in row), reverse=True)
        for row in base
    ]


def _spec(name: str, gains, n_antennas: int, seed: int, **extra) -> dict:
    spec = {
        "scenario": name,
        "system": {
            "n_antennas": n_antennas,
            "clusters": gains,
            "pilot_len": len(gains),
            "coherence_len": COHERENCE_LEN,
            "eav_gain": EAV_GAIN,
        },
        "powers": {"p_max_db": P_MAX_DB, "q_max_db": Q_MAX_DB},
        "allocation": {"an_fraction": AN_FRACTION},
        "seed": seed,
    }
    spec.update(extra)
    return spec


def make_round(workload: str, seed: int) -> list[Command]:
    """The commands of one round of `workload`, a pure function of seed."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "sweep":
        spec = _spec(
            "bench-sweep",
            _gains(rng, SWEEP_GAINS),
            SWEEP_ANTENNAS[0],
            seed,
            sweep={"axis": "n_antennas", "values": list(SWEEP_ANTENNAS)},
        )
        args = ("sweep", "--threads", str(SWEEP_THREADS))
        return [Command(args, spec, len(SWEEP_ANTENNAS))]
    if workload == "optimize-ee":
        spec = _spec("bench-ee", _gains(rng, EE_GAINS), EE_ANTENNAS, seed)
        spec["powers"]["circuit_power_db"] = CIRCUIT_POWER_DB
        return [Command(("optimize", "--mode", "ee"), spec, 1)]
    if workload == "validate":
        commands = []
        for i, (base, n_antennas) in enumerate(VALIDATE_LAYOUTS):
            spec = _spec(
                "bench-validate-%d" % i,
                _gains(rng, base),
                n_antennas,
                rng.randrange(2**31),
                trials=VALIDATE_TRIALS,
            )
            commands.append(Command(("validate",), spec, VALIDATE_TRIALS))
        return commands
    raise ValueError("unknown workload %r (choose from %s)" % (workload, ", ".join(WORKLOADS)))
