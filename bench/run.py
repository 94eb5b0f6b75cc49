"""Agent-round throughput benchmark for metabandit.

Run from the repository root:

    python3 bench/run.py --workload gaussian-panel --seed 1 --seconds 24 --trace 0

A pass is one in-process ``metabandit run`` call, ``cli.main(argv)`` with
``--threads 1``, on one of the fixed workload shapes below.  ``--seed`` is
passed through as the experiment seed, so a seed fixes the inputs.  Whole
passes are repeated for about ``--seconds`` seconds: at least two with
``--trace 0``, so that the byte-identity check always compares two passes,
and at least one with ``--trace 1``, whose traced pass is compared with the
untraced ones.  Every pass is checked: ``cli.main`` returns 0, every CSV
cell is finite, each agent's mean cumulative regret never decreases, the
workload's regret orderings hold beyond one combined stderr, and all passes
of one invocation write identical bytes.  An (agent, run) pair is one unit; a pass that fails
any check counts all its units as failed.

``--trace 0`` prints the end-to-end metrics: ``agent_rounds_per_s`` (median
over passes), ``setup_s`` (median over fresh interpreters that import the
CLI, parse the argv and build the ExperimentConfig) and ``peak_rss_mib``.
``--trace 1`` adds one traced pass after the untraced ones and prints the
per-layer metrics from its spans (see ``spans.py``):

* ``<span>.calls``, ``<span>.self_us`` (self time per call) and
  ``<span>.calls_per_agent_round`` for every wrapped name, zero for names
  the workload never calls;
* ``<span>.s``, inclusive seconds of the spans that run once per pass;
* ``<layer>.self_us_per_agent_round``, the layer's summed self time;
* ``hierarchy.tasks_sampled_per_task`` and
  ``gauss_core.cholesky_per_agent_round``;
* ``trace.*``: traced throughput, its difference from the untraced median,
  the extra wall time per span against the untraced median, the measured
  wrapper cost per span that is kept out of every span's time, the share of
  traced wall time outside every top-level span and its wrapper, and the
  span and absent-name counts.

Which layer should move which workload: per-round work (``agents.act``,
``agents.observe``, ``hierarchy.realize_reward``) moves ``gaussian-panel``;
factorizations move ``linear-panel`` per round and ``linear-many-tasks`` per
task, as do task sampling and ``begin_task``/``end_task``;
``mixture-panel`` runs the scalar Beta path and should not move when the
Gaussian families are reworked.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  Earlier
lines give the machine facts, the CSV sha256 and, when traced, the per-span
table.  The program is imported from ``src/`` next to this directory;
without it the benchmark exits with code 2 and prints no result.

Self-test: ``python3 -m pytest -q bench/test_bench.py``.
"""

import argparse
import contextlib
import csv
from dataclasses import dataclass
import hashlib
import io
import json
import math
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
import time

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7

HEADER = ["agent", "task", "round", "mean_cum_regret", "stderr"]


@dataclass(frozen=True)
class Workload:
    why: str
    shape: tuple          # `metabandit run` flags fixing the environment
    agents: tuple
    tasks: int
    rounds: int
    runs: int
    # (worse, better): worse's final mean regret exceeds better's by more
    # than the sum of their stderrs.  `runs` is sized so that these hold at
    # any seed: measured over 300 gaussian, 200 linear and 2000 mixture runs,
    # every expected margin clears one summed stderr by at least 3.5 of its
    # standard deviations across seeds.
    orderings: tuple = ()

    @property
    def units(self):
        return len(self.agents) * self.runs

    @property
    def agent_rounds(self):
        return self.units * self.tasks * self.rounds

    def argv(self, seed, out):
        return ["run", *self.shape,
                "--tasks", str(self.tasks), "--rounds", str(self.rounds),
                "--runs", str(self.runs), "--agents", ",".join(self.agents),
                "--seed", str(seed), "--threads", "1", "--out", str(out)]


WORKLOADS = {
    "gaussian-panel": Workload(
        why="criterion-1 panel: cheap rounds where per-round Python overhead "
            "dominates; almost no linear algebra",
        shape=("--env", "gaussian", "--arms", "2", "--sigma-q", "0.5",
               "--sigma-0", "0.1", "--noise", "1"),
        agents=("ts", "oracle-ts", "meta-ts", "ada-ts", "ada-ts+", "ada-ts-"),
        tasks=20, rounds=200, runs=100,
        orderings=(("ts", "meta-ts"), ("meta-ts", "ada-ts"), ("ada-ts", "oracle-ts")),
    ),
    "linear-panel": Workload(
        why="criterion-3 panel: about three Cholesky factorizations per round, "
            "so factorization cost dominates",
        shape=("--env", "linear", "--dim", "2", "--arms", "10", "--sigma-q", "1",
               "--sigma-0", "0.1", "--noise", "1"),
        agents=("meta-ts", "ada-ts", "ada-ts-forced"),
        tasks=20, rounds=200, runs=40,
        orderings=(("meta-ts", "ada-ts"),),
    ),
    "linear-many-tasks": Workload(
        why="linear layers with short tasks: task sampling, task set-up and "
            "meta-updates are a large share of the time",
        shape=("--env", "linear", "--dim", "4", "--arms", "20", "--sigma-q", "1",
               "--sigma-0", "0.1", "--noise", "1"),
        agents=("ts", "oracle-ts", "meta-ts", "ada-ts", "ada-ts-forced"),
        tasks=400, rounds=5, runs=10,
    ),
    "mixture-panel": Workload(
        why="scalar Beta path that a batched Gaussian engine leaves alone; "
            "predicted not to move",
        shape=("--env", "bernoulli-mixture", "--arms", "3", "--mixture", "9:1;1:9"),
        agents=("ts", "oracle-ts", "meta-ts", "ada-ts", "misassigned-ts"),
        tasks=10, rounds=50, runs=50,
        orderings=(("misassigned-ts", "ada-ts"),),
    ),
}

# Fresh-interpreter set-up: import the CLI, parse the argv, build the config,
# then print the system-wide monotonic clock so the parent can time it.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from metabandit import cli\n"
    "cli.build_config(cli.parse(sys.argv[2:]))\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)


def machine_facts():
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas_env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in blas_env},
    }


@dataclass
class Pass:
    code: int
    wall_s: float
    data: bytes


def run_pass(cli, workload, seed, out):
    """Time one `cli.main` call, from parse to CSV written."""
    argv = workload.argv(seed, out)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    data = b""
    with contextlib.suppress(FileNotFoundError):
        data = out.read_bytes()
        out.unlink()
    return Pass(code, wall, data)


def check_csv(workload, data):
    """Problems found in one pass's aggregate CSV; empty when it is correct."""
    try:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        if not rows or rows[0] != HEADER:
            return [f"bad header {rows[:1]!r}"]
        curves = {}
        for agent, _task, _round, mean, err in rows[1:]:
            curves.setdefault(agent, []).append((float(mean), float(err)))
    except ValueError as err:
        return [f"malformed CSV: {err}"]
    if tuple(curves) != workload.agents:
        return [f"agents {tuple(curves)} != {workload.agents}"]
    problems = []
    for agent, points in curves.items():
        if len(points) != workload.tasks * workload.rounds:
            problems.append(f"{agent}: {len(points)} rows")
        if not all(math.isfinite(cell) for point in points for cell in point):
            problems.append(f"{agent}: non-finite cell")
        means = [mean for mean, _ in points]
        if any(b < a for a, b in zip(means, means[1:])):
            problems.append(f"{agent}: mean cumulative regret decreases")
    for worse, better in workload.orderings:
        (mean_w, err_w), (mean_b, err_b) = curves[worse][-1], curves[better][-1]
        if not mean_w - mean_b > err_w + err_b:
            problems.append(
                f"{worse} final regret {mean_w!r} does not exceed {better}'s "
                f"{mean_b!r} by more than the summed stderr {err_w + err_b!r}"
            )
    return problems


class Tally:
    """Units attempted and failed, and the CSV digest every pass must match."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def record(self, label, result):
        digest = hashlib.sha256(result.data).hexdigest()
        problems = [] if result.code == 0 else [f"cli.main returned {result.code}"]
        problems += check_csv(self.workload, result.data)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"CSV sha256 {digest} differs from the first pass's {self.digest}")
        self.attempted += self.workload.units
        if problems:
            self.failed += self.workload.units
            for problem in problems:
                print(f"check failed ({label}): {problem}", file=sys.stderr)


def untraced_passes(cli, workload, seed, seconds, min_passes, out, tally):
    """At least `min_passes` whole passes, then more for about `seconds`; a
    pass starts only if the previous one's duration says it will end in time.

    Returns the pass wall times and the peak RSS in MiB after the first
    pass, which does not depend on how many passes fit in `seconds`.
    """
    walls = []
    begin = time.perf_counter()
    while True:
        result = run_pass(cli, workload, seed, out)
        tally.record(f"pass {len(walls) + 1}", result)
        walls.append(result.wall_s)
        if len(walls) == 1:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if (len(walls) >= min_passes
                and time.perf_counter() - begin + result.wall_s > seconds):
            return walls, peak_rss_mib


def median_rate(workload, walls):
    return statistics.median(workload.agent_rounds / wall for wall in walls)


def setup_seconds(workload, seed, out):
    """Median over SETUP_REPEATS fresh interpreters of the time from spawn
    to the config being built.  The child reports when it is done, because
    waiting with a timeout polls the child in steps of up to 50 ms."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *workload.argv(seed, out)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        child = subprocess.run(argv, check=True, timeout=120, cwd=ROOT, text=True,
                               stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        times.append(float(child.stdout.split()[-1]) - start)
    return statistics.median(times)


def traced_pass(cli, workload, seed, out):
    """One pass with every name in spans.WRAPPED traced; returns (Pass, Tracer)."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run_pass(cli, workload, seed, out)
    finally:
        tracer.uninstall()
    return result, tracer


def end_to_end_metrics(workload, walls, setup_s, peak_rss_mib):
    return {
        "agent_rounds_per_s": (median_rate(workload, walls), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


# Inclusive wall time is reported for the spans that run once per pass.
ONCE_PER_PASS = ("cli.parse", "cli.build_config", "cli.emit_csv",
                 "harness.run_experiment", "harness.aggregate")


def layer_metrics(tracer, workload, traced, untraced_rate):
    names = spans.NAMES
    calls = dict(zip(names, tracer.calls))
    self_ns = dict(zip(names, tracer.self_ns))
    total_ns = dict(zip(names, tracer.total_ns))
    rounds = workload.agent_rounds
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = (calls[name], "count")
        per_call = self_ns[name] / 1e3 / calls[name] if calls[name] else 0.0
        metrics[f"{name}.self_us"] = (per_call, "us")
        metrics[f"{name}.calls_per_agent_round"] = (calls[name] / rounds, "1/agent-round")
    for name in ONCE_PER_PASS:
        metrics[f"{name}.s"] = (total_ns[name] / 1e9, "s")
    for layer in dict.fromkeys(name.split(".")[0] for name in names):
        layer_ns = sum(ns for name, ns in self_ns.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_us_per_agent_round"] = (layer_ns / 1e3 / rounds, "us/agent-round")
    metrics["hierarchy.tasks_sampled_per_task"] = (
        calls["hierarchy.sample_task"] / (workload.runs * workload.tasks), "1/task")
    metrics["gauss_core.cholesky_per_agent_round"] = (
        calls["gauss_core.cholesky"] / rounds, "1/agent-round")
    metrics["cli.csv_bytes"] = (len(traced.data), "bytes")
    traced_rate = rounds / traced.wall_s
    metrics["trace.agent_rounds_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_agent_rounds_per_s"] = (traced_rate - untraced_rate, "1/s")
    extra_s = traced.wall_s - rounds / untraced_rate
    metrics["trace.overhead_us_per_span"] = (extra_s * 1e6 / max(tracer.spans, 1), "us")
    metrics["trace.wrapper_us_per_span"] = (tracer.wrapper_ns / 1e3, "us")
    uncovered = traced.wall_s * 1e9 - tracer.covered_ns
    metrics["trace.uncovered_pct"] = (100.0 * uncovered / (traced.wall_s * 1e9), "%")
    metrics["trace.spans"] = (tracer.spans, "count")
    metrics["trace.absent_names"] = (len(tracer.absent), "count")
    return metrics


def print_span_table(tracer):
    print(f"trace {tracer.trace_id}: {tracer.spans} spans, wrapper cost "
          f"{tracer.inner_ns:.1f} ns inside + {tracer.outer_ns:.1f} ns outside each span")
    for name in tracer.absent:
        print(f"trace absent: {name}")
    for i, name in enumerate(spans.NAMES):
        calls = tracer.calls[i]
        if calls:
            print(f"span {name:28s} calls={calls:<10d} "
                  f"self_ms={tracer.self_ns[i] / 1e6:.3f} total_ms={tracer.total_ns[i] / 1e6:.3f}")


def measure(cli, args, workload, out):
    tally = Tally(workload)
    setup_s = None if args.trace else setup_seconds(workload, args.seed, out)
    walls, peak_rss_mib = untraced_passes(cli, workload, args.seed, args.seconds,
                                          1 if args.trace else 2, out, tally)
    if not args.trace:
        metrics = end_to_end_metrics(workload, walls, setup_s, peak_rss_mib)
    else:
        traced, tracer = traced_pass(cli, workload, args.seed, out)
        tally.record("traced pass", traced)
        print_span_table(tracer)
        metrics = layer_metrics(tracer, workload, traced, median_rate(workload, walls))
    print(f"digest {args.workload} seed={args.seed} sha256={tally.digest}")
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "metabandit"
    if not (package / "__init__.py").is_file():
        print(f"error: no metabandit sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from metabandit import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        print(f"error: imported metabandit from {cli.__file__}", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-{os.getpid()}.csv"
    try:
        tally, metrics = measure(cli, args, workload, out)
    finally:
        with contextlib.suppress(FileNotFoundError):
            out.unlink()
        with contextlib.suppress(OSError):
            OUT.rmdir()
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
