"""Set-up time of the program in a fresh interpreter: import of
noma_secrecy.cli, one spec load and one config build.

Run as `python3 bench/setup_probe.py <spec.json>`; prints the seconds.
The benchmark also calls `timed_setup` in its own process before it has
imported numpy, so both measure the same cold start.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def timed_setup(spec_path: str) -> float:
    t0 = perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import noma_secrecy.cli  # noqa: F401
    from noma_secrecy.experiments import build_config, load_spec

    build_config(load_spec(spec_path))
    return perf_counter() - t0


if __name__ == "__main__":
    print(repr(timed_setup(sys.argv[1])))
