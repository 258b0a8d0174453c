"""Per-layer tracing from outside the program.

The tracer wraps public functions of the noma_secrecy modules wherever a
module holds them by name (`optimize` imports `maximize`, `experiments`
imports `maximize_se`, ...), so calls through any of those names are seen.
A wrapped function records a span: id, name, start, end, thread CPU time,
parent span, thread and the id of the benchmark command that caused it.
Spans stay in memory until the run ends.

Calls made inside the projected-gradient kernel's loop (the objective it is
handed, and `projgrad.project`) are too many to keep one span each; they
are summed per enclosing span instead, and that sum is part of the
enclosing span's children when its self time is computed.

Each thread keeps its own stack and records, so the sweep pool's threads
need no lock. A span opened on a pool thread with an empty stack takes the
innermost open span of the thread that installed the tracer as its parent,
which keeps the pool's work under `run_sweep`.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time

PACKAGE = "noma_secrecy"

# (module, function): spans with calls and inclusive/self time.
SPANNED = (
    ("projgrad", "maximize"),
    ("optimize", "uplink_dc_step"),
    ("optimize", "downlink_dc_step"),
    ("optimize", "smooth_secrecy_sum"),
    ("optimize", "maximize_se"),
    ("optimize", "baseline_uplink_se"),
    ("optimize", "baseline_downlink_se"),
    ("optimize", "optimize_oma_tdma"),
    ("optimize", "maximize_ee"),
    ("rates", "secrecy_report"),
    ("model", "compute_rho"),
    ("montecarlo", "moment_suite"),
    ("montecarlo", "ergodic_rate_oracle"),
    ("montecarlo", "draw_realization"),
    ("montecarlo", "build_estimates"),
    ("experiments", "run_sweep"),
    ("experiments", "load_spec"),
)
# Summed per enclosing span (calls and time), no span of their own.
SUMMED = (("projgrad", "project"),)
# Counted only.
COUNTED = (("rates", "legit_rate"), ("rates", "eaves_rate"))

OBJECTIVE = "optimize.objective_eval"


class _ThreadState:
    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.summed_under: dict[int, float] = defaultdict(float)


class Tracer:
    def __init__(self):
        self.command = 0
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._register = threading.Lock()
        self._origin = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = perf_counter()

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._register:
                self._states.append(state)
        return state

    def _parent(self, state: _ThreadState):
        if state.stack:
            return state.stack[-1]
        if state.ident != self._origin:
            for other in list(self._states):
                if other.ident == self._origin and other.stack:
                    return other.stack[-1]
        return None

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, func, after=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            parent = tracer._parent(state)
            sid = next(tracer._ids)
            state.stack.append(sid)
            c0 = thread_time()
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                cpu = thread_time() - c0
                state.stack.pop()
                state.spans.append((sid, name, t0, t1, cpu, parent, state.ident, tracer.command))
            if after is not None:
                after(state, args, kwargs, result)
            return result

        return wrapper

    def _summed(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            t0 = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                state.counts[name + ".calls"] += 1
                state.counts[name + ".s"] += dt
                if state.stack:
                    state.summed_under[state.stack[-1]] += dt

        return wrapper

    def _counted(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer._state().counts[name + ".calls"] += 1
            return func(*args, **kwargs)

        return wrapper

    def _kernel(self, func):
        """projgrad.maximize: hand the kernel a counting copy of its
        objective, and count iterations, cap hits and floor stops."""
        tracer = self
        objective = lambda f: tracer._summed(OBJECTIVE, f)  # noqa: E731
        signature = inspect.signature(func)

        def after(state, args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            state.counts["projgrad.maximize.iterations"] += result.iterations
            if not result.converged:
                state.counts["projgrad.maximize.cap_hits"] += 1
            elif result.stationarity > bound.arguments["tol"]:
                state.counts["projgrad.maximize.floor_stops"] += 1

        spanned = self._spanned("projgrad.maximize", func, after)

        @functools.wraps(func)
        def wrapper(problem, *args, **kwargs):
            counted = dataclasses.replace(problem, evaluate=objective(problem.evaluate))
            return spanned(counted, *args, **kwargs)

        return wrapper

    def _wrap(self, module: str, name: str, func):
        key = "%s.%s" % (module, name)
        if (module, name) == ("projgrad", "maximize"):
            return self._kernel(func)
        if (module, name) in SUMMED:
            return self._summed(key, func)
        if (module, name) in COUNTED:
            return self._counted(key, func)
        after = None
        if name == "maximize_ee":
            def after(state, args, kwargs, result):
                state.counts["optimize.dinkelbach_rounds"] += len(result[3].epsilons)
        elif name in ("moment_suite", "ergodic_rate_oracle"):
            signature = inspect.signature(func)

            def after(state, args, kwargs, result):
                trials = signature.bind(*args, **kwargs).arguments["n_trials"]
                state.counts["montecarlo.trials"] += trials
        return self._spanned(key, func, after)

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        """Patch every target in every loaded noma_secrecy module that
        holds it by name. A target missing from its module is recorded in
        `absent` and skipped."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module, name in SPANNED + SUMMED + COUNTED:
            home = sys.modules.get("%s.%s" % (PACKAGE, module))
            original = getattr(home, name, None) if home is not None else None
            if not callable(original):
                self.absent.append("%s.%s" % (module, name))
                continue
            wrapped = self._wrap(module, name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def spans(self) -> list[tuple]:
        return sorted(span for state in self._states for span in state.spans)

    def totals(self) -> dict[str, float]:
        """Counts and times summed over the run: the counters, and for
        each spanned name `.calls`, `.s` (inclusive) and `.self_s` (minus
        same-thread child spans and the kernel calls summed under it)."""
        spans = self.spans()
        by_id = {s[0]: s for s in spans}
        children_same = defaultdict(float)
        for sid, _, t0, t1, cpu, parent, thread, _ in spans:
            if parent is not None and by_id[parent][6] == thread:
                children_same[parent] += t1 - t0
        summed_under = defaultdict(float)
        out: dict[str, float] = defaultdict(float)
        for state in self._states:
            for sid, dt in state.summed_under.items():
                summed_under[sid] += dt
            for key, value in state.counts.items():
                out[key] += value
        for sid, name, t0, t1, cpu, parent, thread, _ in spans:
            out[name + ".calls"] += 1
            out[name + ".s"] += t1 - t0
            out[name + ".self_s"] += t1 - t0 - children_same[sid] - summed_under[sid]
        return dict(out)

    def parallelism(self, name: str) -> float:
        """Thread CPU time of the direct children of `name`'s spans, in any
        thread, over those spans' wall time (0 when `name` never ran).
        Threads that wait on the interpreter lock add no CPU time, so a
        pool that runs no two threads at once reads at most 1."""
        spans = self.spans()
        own = {s[0]: s[3] - s[2] for s in spans if s[1] == name}
        wall = sum(own.values())
        cpu = sum(s[4] for s in spans if s[5] in own)
        return cpu / wall if wall else 0.0

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,cpu_s,parent,thread,command\n")
            for sid, name, t0, t1, cpu, parent, thread, command in self.spans():
                fh.write("%d,%s,%.9f,%.9f,%.9f,%s,%d,%d\n" % (
                    sid, name, t0 - self.t0, t1 - self.t0, cpu,
                    "" if parent is None else parent, thread, command,
                ))
