"""Command-line entry point.

Subcommands mirror the experiment drivers: `rates` (closed-form
evaluation), `validate` (closed forms vs Monte Carlo), `optimize`
(power-allocation solve, --mode se|ee) and `sweep` (parameter sweep over
every allocator). Results are written as CSV; powers are dB-valued in
the spec file and on these flags only.

NOMA_SECRECY_LOG selects the log level: DEBUG, INFO, WARNING (the
default, also when it is empty), ERROR or CRITICAL, in any case.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from .experiments import load_spec, run_optimize, run_rates, run_sweep, run_validate

log = logging.getLogger("noma_secrecy")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-secrecy",
        description=(
            "Secrecy-rate evaluation and power allocation for an AN-aided "
            "massive MIMO-NOMA downlink."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("rates", "closed-form per-user rates under the fixed power split"),
        ("validate", "closed forms against Monte Carlo with 3-sigma bands"),
        ("optimize", "run the SE or EE power-allocation algorithm"),
        ("sweep", "sweep one axis across every allocator"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--spec", required=True, help="path to the JSON experiment spec")
        cmd.add_argument("--out", help="output CSV path (default: spec's output field)")
        cmd.add_argument("--seed", type=int, help="override the spec's seed")
        cmd.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility (>= 1); sweep points and Monte Carlo "
            "trials run on every available CPU whatever the value, and the value "
            "does not change the output",
        )
        if name == "optimize":
            cmd.add_argument(
                "--mode",
                choices=("se", "ee"),
                default="se",
                help="maximize the secrecy sum (se) or its energy efficiency (ee)",
            )
    return parser


_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _configure_logging() -> None:
    value = os.environ.get("NOMA_SECRECY_LOG", "")
    level_name = value.upper() or "WARNING"
    if level_name not in _LEVELS:
        raise ValueError(
            "NOMA_SECRECY_LOG must be one of %s, got %r" % (", ".join(_LEVELS), value)
        )
    logging.basicConfig(
        level=getattr(logging, level_name), format="%(levelname)s %(name)s: %(message)s"
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _configure_logging()
        spec = load_spec(args.spec)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        out = args.out or spec.output
        if out is None:
            raise ValueError("no output path: pass --out or set 'output' in the spec")
        if args.threads < 1:
            raise ValueError("--threads must be >= 1")

        log.info("running %s for scenario %r", args.command, spec.scenario)
        if args.command == "rates":
            written = run_rates(spec, out)
        elif args.command == "validate":
            written = run_validate(spec, out)
        elif args.command == "optimize":
            written = run_optimize(spec, out, mode=args.mode)
        else:
            written = run_sweep(spec, out)
        for path in written:
            print(path)
        return 0
    except (OSError, ValueError, KeyError, FloatingPointError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory: %s" % (str(exc) or "MemoryError"), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
