"""In-process tracer for one qdrive command, installed from outside ``src``.

:func:`install` wraps every public function and public method of every
``qdrive`` module, plus the artifact I/O helpers of ``qdrive.cli``, and
rebinds each wrapper under every module name that refers to the original.
``from x import y`` binds a copy of ``y`` in the importing module, so
patching only ``x.y`` would miss calls such as ``pipeline.minimize`` or
``estimator.density_matrix``.

Each thread keeps its own span stack.  A span's self time is its duration
minus the time its child spans on the same thread cover.  Aggregates (calls,
outermost inclusive time, self time) are kept per thread and per function;
per-call durations are kept for the objective functions only, and spans down
to depth 2 are kept whole.  Nothing is written while the command runs:
:meth:`Tracer.report` builds the summary when it ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import threading
import time
from collections import Counter, defaultdict

# private names that are layer boundaries all the same (artifact I/O)
EXTRA_NAMES = {"cli": ("_write_json", "_read_json")}
# per-call durations are kept for these
SAMPLED = ("optimize.vqd_objective", "optimize.pseudovariance_objective")
SPAN_DEPTH = 2


class _ThreadState:
    def __init__(self, name: str):
        self.thread = name
        self.stack: list[list] = []  # [name, start, child_seconds]
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.samples: defaultdict = defaultdict(list)
        self.in_minimize: list[float] = []  # objective durations under minimize
        self.spans: list[tuple] = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self.counts: Counter = Counter()
        self.estimators: list = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, name: str, fn, observe=None):
        clock = time.monotonic  # the clock of orchestrator trace events

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            frame = [name, clock(), 0.0]
            stack.append(frame)
            state.active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - frame[1]
                stack.pop()
                state.active[name] -= 1
                if stack:
                    stack[-1][2] += duration
                state.calls[name] += 1
                state.self_time[name] += duration - frame[2]
                if not state.active[name]:
                    state.inclusive[name] += duration
                if name in SAMPLED:
                    state.samples[name].append(duration)
                    if state.active["optimize.minimize"]:
                        state.in_minimize.append(duration)
                if len(stack) <= SPAN_DEPTH:
                    parent = stack[-1][0] if stack else None
                    state.spans.append((name, parent, state.thread, frame[1], end))
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def report(self) -> dict:
        """Per-function aggregates merged over threads, plus observed counts."""
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        samples: defaultdict = defaultdict(list)
        in_minimize: list[float] = []
        spans: list[tuple] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            calls.update(state.calls)
            inclusive.update(state.inclusive)
            self_time.update(state.self_time)
            for key, values in state.samples.items():
                samples[key].extend(values)
            in_minimize.extend(state.in_minimize)
            spans.extend(state.spans)
        counts = Counter(self.counts)
        counts["estimator.circuits_run"] = sum(e.circuits_run for e in self.estimators)
        return {
            "calls": dict(calls),
            "inclusive_s": dict(inclusive),
            "self_s": dict(self_time),
            "samples_s": dict(samples),
            "objective_in_minimize_s": in_minimize,
            "counts": dict(counts),
            "spans": sorted(spans, key=lambda s: s[3]),
        }


# -- observers: counts that src computes and drops -------------------------


def _observe_shots(tracer, args, result):
    tracer.counts["simulator.shots_drawn"] += int(result.shots)


def _observe_zne(tracer, args, result):
    tracer.counts[f"mitigation.zne_branch.{result.branch}"] += 1


def _observe_readout(tracer, args, result):
    tracer.counts["mitigation.readout_clamped"] += bool(result[2])


def _observe_inversion(tracer, args, result):
    tracer.counts["mitigation.invert_distribution_clamped"] += bool(result[1])


def _observe_minimize(tracer, args, result):
    tracer.counts["optimize.budget_exhausted"] += bool(result.exhausted)
    tracer.counts["optimize.nft_downgrades"] += result.kind == "nft->trust_region"


def _observe_estimator(tracer, args, result):
    tracer.estimators.append(args[0])


OBSERVERS = {
    "simulator.sample_shots": _observe_shots,
    "mitigation.zne_extrapolate": _observe_zne,
    "mitigation.readout_invert": _observe_readout,
    "mitigation.invert_distribution": _observe_inversion,
    "optimize.minimize": _observe_minimize,
    "estimator.Estimator.__init__": _observe_estimator,
}


def _targets(module, short: str):
    """(owner, attribute, qualified name) of every function to wrap."""
    for attr, value in list(vars(module).items()):
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) and (
            not attr.startswith("_") or attr in EXTRA_NAMES.get(short, ())
        ):
            yield module, attr, f"{short}.{attr}"
        elif inspect.isclass(value):
            for meth, fn in list(vars(value).items()):
                qualified = f"{short}.{attr}.{meth}"
                if inspect.isfunction(fn) and (
                    not meth.startswith("_") or qualified in OBSERVERS
                ):
                    yield value, meth, qualified


def install() -> Tracer:
    """Wrap the qdrive functions and return the tracer collecting spans."""
    tracer = Tracer()
    root = importlib.import_module("qdrive")
    modules = [
        importlib.import_module(f"qdrive.{info.name}")
        for info in pkgutil.iter_modules(root.__path__)
    ]
    wrappers: dict[int, object] = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for owner, attr, name in _targets(module, short):
            original = vars(owner)[attr]
            wrapper = tracer.wrap(name, original, OBSERVERS.get(name))
            wrappers[id(original)] = wrapper
            setattr(owner, attr, wrapper)
    # rebind the copies that ``from x import y`` left in other modules
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
    return tracer
