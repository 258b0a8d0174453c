"""Benchmark of the noma_secrecy CLI, run in-process as a closed loop with
one client: each command starts after the previous one has finished.

    python3 bench/run.py --workload sweep|optimize-ee|validate \
        --seed N --seconds S --trace 0|1

Each run builds one round of commands from the seed (bench/workloads.py),
times the program's cold set-up, then repeats the round until about S
seconds have been spent inside the commands. The first round's outputs
are checked by bench/checks.py; later rounds must reproduce its bytes.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it first
runs one untraced reference round, then traces the program's layers
(bench/tracer.py) and reports per-round layer metrics. The last line of
standard output is the result as JSON; spans, specs, CSVs and results are
written under bench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import checks
import workloads
from setup_probe import SRC, timed_setup

HERE = Path(__file__).resolve().parent
SETUP_CHILDREN = 6  # fresh interpreters timed besides this one

END_TO_END = (
    ("units_per_s", "1/s"),
    ("objective_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
PER_LAYER = (
    ("projgrad.maximize.calls", "count"),
    ("projgrad.maximize.iterations", "count"),
    ("projgrad.maximize.cap_hits", "count"),
    ("projgrad.maximize.floor_stops", "count"),
    ("projgrad.maximize.self_s", "s"),
    ("projgrad.project.calls", "count"),
    ("projgrad.project.s", "s"),
    ("projgrad.accepted_step_ratio", "ratio"),
    ("optimize.objective_evals", "count"),
    ("optimize.objective_eval.s", "s"),
    ("optimize.uplink_dc_step.calls", "count"),
    ("optimize.uplink_dc_step.s", "s"),
    ("optimize.downlink_dc_step.calls", "count"),
    ("optimize.downlink_dc_step.s", "s"),
    ("optimize.smooth_secrecy_sum.calls", "count"),
    ("optimize.smooth_secrecy_sum.s", "s"),
    ("optimize.maximize_se.calls", "count"),
    ("optimize.maximize_se.s", "s"),
    ("optimize.baseline_uplink_se.s", "s"),
    ("optimize.baseline_downlink_se.s", "s"),
    ("optimize.optimize_oma_tdma.s", "s"),
    ("optimize.maximize_ee.s", "s"),
    ("optimize.dinkelbach_rounds", "count"),
    ("rates.secrecy_report.calls", "count"),
    ("rates.secrecy_report.s", "s"),
    ("rates.legit_rate.calls", "count"),
    ("rates.eaves_rate.calls", "count"),
    ("model.compute_rho.calls", "count"),
    ("model.compute_rho.s", "s"),
    ("montecarlo.moment_suite.s", "s"),
    ("montecarlo.ergodic_rate_oracle.s", "s"),
    ("montecarlo.draw_realization.calls", "count"),
    ("montecarlo.draw_realization.s", "s"),
    ("montecarlo.build_estimates.calls", "count"),
    ("montecarlo.build_estimates.s", "s"),
    ("montecarlo.trials", "count"),
    ("experiments.run_sweep.s", "s"),
    ("experiments.run_sweep.parallelism", "ratio"),
    ("experiments.load_spec.s", "s"),
    ("experiments.csv_bytes", "bytes"),
    ("bench.trace_slowdown", "ratio"),
)

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _kind(path: str) -> str:
    for kind in ("summary", "trace"):
        if path.endswith("_%s.csv" % kind):
            return kind
    return "users"


class Session:
    """Runs rounds of commands and checks what they write."""

    def __init__(self, commands, out_dir: Path):
        self.cli_main = None  # noma_secrecy.cli.main, set once imported
        self.commands = commands
        self.spec_paths = []
        self.out_paths = []
        for i, command in enumerate(commands):
            spec_path = out_dir / ("spec%d.json" % i)
            spec_path.write_text(json.dumps(command.spec, indent=1) + "\n", encoding="utf-8")
            self.spec_paths.append(str(spec_path))
            self.out_paths.append(str(out_dir / ("out%d.csv" % i)))
        self.reference: list[dict | None] = [None] * len(commands)
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.round_units = 0
        self.objective = 0.0
        self.objective_reference = 0.0
        self.round_bytes = 0

    def _run(self, i: int):
        command = self.commands[i]
        argv = list(command.args) + ["--spec", self.spec_paths[i], "--out", self.out_paths[i]]
        printed = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                code = self.cli_main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = -1
        elapsed = perf_counter() - t0
        if code != 0:
            return None, elapsed
        files = {}
        for path in printed.getvalue().split():
            with open(path, "rb") as fh:
                files[_kind(path)] = fh.read()
        return files, elapsed

    def round(self, tracer=None) -> float:
        """Run each command once; return the seconds spent inside them."""
        elapsed = 0.0
        self.round_units = 0
        self.round_bytes = 0
        for i, command in enumerate(self.commands):
            if tracer is not None:
                tracer.command += 1
            files, seconds = self._run(i)
            elapsed += seconds
            self.attempted += 1
            if files is None:
                self.failed += 1
                continue
            self.round_units += command.units
            self.round_bytes += sum(len(b) for b in files.values())
            scenario = command.spec["scenario"]
            if self.reference[i] is None:
                self.reference[i] = files
                text = {kind: data.decode("utf-8") for kind, data in files.items()}
                verdict = checks.CHECKERS[command.args[0]](command.spec, text)
                self.errors += ["%s: %s" % (scenario, e) for e in verdict.errors]
                self.objective += verdict.objective
                self.objective_reference += verdict.reference
            elif files != self.reference[i]:
                self.errors.append("%s: output bytes differ from the first round" % scenario)
        return elapsed


def _per_layer(tracer, rounds: int, session: Session, slowdown: float) -> dict[str, float]:
    """Per-round layer metrics; a layer the round never entered reads 0."""
    values = {name: total / rounds for name, total in tracer.totals().items()}
    evals = values.get("optimize.objective_eval.calls", 0.0)
    iterations = values.get("projgrad.maximize.iterations", 0.0)
    values.update({
        "optimize.objective_evals": evals,
        "projgrad.accepted_step_ratio": iterations / evals if evals else 0.0,
        "experiments.run_sweep.parallelism": tracer.parallelism("experiments.run_sweep"),
        "experiments.csv_bytes": session.round_bytes,
        "bench.trace_slowdown": slowdown,
    })
    return {name: values.get(name, 0.0) for name, _ in PER_LAYER}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "noma_secrecy" / "cli.py").is_file():
        print("error: the program's source is not at %s" % SRC, file=sys.stderr)
        return 2
    out_dir = HERE / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    session = Session(workloads.make_round(args.workload, args.seed), out_dir)
    spec0 = session.spec_paths[0]

    # Cold set-up, first in this process (nothing has imported numpy yet),
    # then in fresh interpreters; the median is reported.
    setup = [timed_setup(spec0)]
    for _ in range(SETUP_CHILDREN):
        child = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), spec0],
            capture_output=True, text=True, timeout=120, check=True,
        )
        setup.append(float(child.stdout.split()[-1]))
    from noma_secrecy.cli import main as cli_main

    session.cli_main = cli_main
    tracer = None
    reference_s = None
    if args.trace:
        from tracer import Tracer

        reference_s = session.round()
        tracer = Tracer()
        tracer.install()
    timed = 0.0
    rates = []
    cpu = []  # process CPU seconds per round, all threads: shows host steal
    # Stop once another round would more likely end past the target.
    while not rates or timed + 0.5 * timed / len(rates) < args.seconds:
        c0 = process_time()
        seconds = session.round(tracer)
        cpu.append(process_time() - c0)
        timed += seconds
        rates.append(session.round_units / seconds)
    rounds = len(rates)

    if tracer is None:
        values = {
            "units_per_s": statistics.median(rates),
            "objective_ratio": (
                session.objective / session.objective_reference
                if session.objective_reference else 0.0
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        units = dict(END_TO_END)
    else:
        tracer.remove()
        tracer.write_spans(out_dir / "spans.csv")
        values = _per_layer(tracer, rounds, session, (timed / rounds) / reference_s)
        units = dict(PER_LAYER)

    result = {
        "correct": not session.errors,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    details = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        round_units_per_s=rates,
        round_cpu_s=cpu,
        round_units=session.round_units,
        setup_samples=setup,
        errors=session.errors,
        absent=tracer.absent if tracer else [],
    )
    (out_dir / ("result-trace%d.json" % args.trace)).write_text(
        json.dumps(details, indent=1) + "\n", encoding="utf-8"
    )
    for line in session.errors[:20]:
        print("check failed: %s" % line, file=sys.stderr)
    if tracer is not None and tracer.absent:
        print("absent (reported as 0): %s" % ", ".join(tracer.absent), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
