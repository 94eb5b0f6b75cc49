"""Span tracing for the benchmark's traced pass.

`install` replaces each public function or method listed in `WRAPPED` with a
wrapper that times each call as one span, all spans of one pass sharing the
tracer's `trace_id`.  A name is replaced where its caller looks it up (the
module attribute or class attribute), so the package's own sources stay
untouched.  `uninstall` restores the originals.

A traced pass of the gaussian panel makes about 12 million spans, so spans
are not kept: each is added to its name's call count, self time and total
time when it closes.  The wrapper's own cost per call is measured once per
tracer, as the part inside the timed interval (`inner_ns`) and the part the
caller pays outside it (`outer_ns`).  A span's self time is its duration,
minus `inner_ns`, minus what its child spans cost it: each child's duration
plus `outer_ns`.  A span's total time is its duration minus `inner_ns` and
minus the whole wrapper cost of every span below it.  So tracer time is
charged to no span.
"""

import importlib
import statistics
import time
import uuid

# span name -> where callers look the function up, as (module, dotted attribute)
WRAPPED = {
    "cli.parse": [("cli", "parse")],
    "cli.build_config": [("cli", "build_config")],
    "cli.emit_csv": [("cli", "emit_csv")],
    "harness.run_experiment": [("cli", "harness.run_experiment")],
    "harness.aggregate": [("cli", "harness.aggregate")],
    "hierarchy.sample_task": [("harness", "hierarchy.sample_task")],
    "hierarchy.realize_reward": [("harness", "hierarchy.realize_reward")],
    "hierarchy.instant_regret": [("harness", "hierarchy.instant_regret")],
    "agents.begin_task": [("agents", "GaussianFamilyAgent.begin_task"),
                          ("agents", "MixtureFamilyAgent.begin_task")],
    "agents.act": [("agents", "GaussianFamilyAgent.act"),
                   ("agents", "MixtureFamilyAgent.act")],
    "agents.observe": [("agents", "GaussianFamilyAgent.observe"),
                       ("agents", "MixtureFamilyAgent.observe")],
    "agents.end_task": [("agents", "GaussianFamilyAgent.end_task"),
                        ("agents", "MixtureFamilyAgent.end_task")],
    "agents.ts_select": [("agents", "ts_select")],
    "agents.end_task_linear": [("agents", "end_task_linear")],
    "agents.mixture_ts_select": [("agents", "mixture_ts_select")],
    "agents.mixture_update": [("agents", "mixture_update")],
    "gauss_core.cholesky": [("gauss_core", "cholesky")],
    "gauss_core.mvn_sample": [("agents", "mvn_sample"), ("hierarchy", "mvn_sample")],
    "gauss_core.solve_spd": [("agents", "solve_spd")],
    "gauss_core.spd_inverse": [("agents", "spd_inverse")],
}

NAMES = tuple(WRAPPED)
PACKAGE = "metabandit"


class Tracer:
    """Accumulates per-name call counts, self time and total time of one pass."""

    def __init__(self, wrapper_ns=None):
        """`wrapper_ns` is (inner_ns, outer_ns); measured when not given."""
        self.trace_id = uuid.uuid4().hex
        self.inner_ns, self.outer_ns = wrapper_ns or measure_wrapper_ns()
        self.absent = []              # "module:attr" lookups that did not resolve
        self.calls = [0] * len(NAMES)
        self.self_ns = [0.0] * len(NAMES)
        self.total_ns = [0.0] * len(NAMES)
        # Each open span has a frame [ns charged to its children, spans below
        # it]; the root frame collects the top-level spans.
        self._root = [0.0, 0]
        self._stack = [self._root]
        self._restore = []

    @property
    def spans(self):
        return self._root[1]

    @property
    def covered_ns(self):
        """Time inside top-level spans, with their wrapper cost."""
        return self._root[0]

    @property
    def wrapper_ns(self):
        return self.inner_ns + self.outer_ns

    def _wrap(self, i, fn):
        stack, clock = self._stack, time.perf_counter_ns
        inner_ns, outer_ns, wrapper_ns = self.inner_ns, self.outer_ns, self.wrapper_ns
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns

        def traced(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                calls[i] += 1
                self_ns[i] += dur - inner_ns - frame[0]
                total_ns[i] += dur - inner_ns - wrapper_ns * frame[1]
                parent = stack[-1]
                parent[0] += dur + outer_ns
                parent[1] += frame[1] + 1

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every name in WRAPPED; unresolvable ones go to `absent`."""
        for index, name in enumerate(NAMES):
            for module_name, dotted in WRAPPED[name]:
                *path, attr = dotted.split(".")
                try:
                    owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.absent.append(f"{module_name}:{dotted}")
                    continue
                own = attr in vars(owner)
                self._restore.append((owner, attr, original, own))
                setattr(owner, attr, self._wrap(index, original))

    def uninstall(self):
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()


def measure_wrapper_ns(calls=20_000, repeats=7):
    """Medians of the wrapper's cost per call, as (inner_ns, outer_ns).

    Loops of wrapped and of direct calls to a two-argument no-op, each less
    an empty loop: the recorded durations exceed the direct calls by
    `inner_ns`, and the wrapped calls exceed the recorded durations by
    `outer_ns`."""
    probe = Tracer(wrapper_ns=(0.0, 0.0))
    direct = lambda a, b: None  # noqa: E731
    wrapped = probe._wrap(0, direct)
    clock = time.perf_counter_ns
    inner, outer = [], []
    for _ in range(repeats):
        recorded = probe.total_ns[0]
        start = clock()
        for _ in range(calls):
            wrapped(1, 2)
        looped = clock() - start
        recorded = probe.total_ns[0] - recorded
        start = clock()
        for _ in range(calls):
            direct(1, 2)
        called = clock() - start
        start = clock()
        for _ in range(calls):
            pass
        empty = clock() - start
        inner.append((recorded - called + empty) / calls)
        outer.append((looped - empty - recorded) / calls)
    return statistics.median(inner), statistics.median(outer)
