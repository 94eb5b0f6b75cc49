"""Fast self-test of the benchmark (a few seconds).

    python3 -m pytest -q bench/test_bench.py

Each workload runs at a tiny run count, once untraced and once traced.  The
two CSVs must be byte-identical, and the traced counts must match what the
program is known to do, which shows that the wrappers see its real calls.
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

import run
import spans

sys.path.insert(0, str(run.SRC))
from metabandit import cli  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def passes():
    """workload name -> (tiny workload, untraced Pass, traced Pass, Tracer)."""
    results = {}
    run.OUT.mkdir(exist_ok=True)
    try:
        for name, workload in run.WORKLOADS.items():
            # the regret orderings need the full run count; the other checks do not
            tiny = dataclasses.replace(workload, runs=2, orderings=())
            out = run.OUT / f"selftest-{name}.csv"
            plain = run.run_pass(cli, tiny, SEED, out)
            traced, tracer = run.traced_pass(cli, tiny, SEED, out)
            results[name] = (tiny, plain, traced, tracer)
    finally:
        run.OUT.rmdir()
    return results


def layer_metrics(passes, name):
    tiny, plain, traced, tracer = passes[name]
    return run.layer_metrics(tracer, tiny, traced, tiny.agent_rounds / plain.wall_s)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_pass_writes_the_untraced_bytes(passes, name):
    tiny, plain, traced, tracer = passes[name]
    assert plain.code == traced.code == 0
    assert run.check_csv(tiny, plain.data) == []
    assert plain.data and traced.data == plain.data
    assert tracer.absent == []


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tasks_are_sampled_once_per_agent(passes, name):
    tiny = passes[name][0]
    metrics = layer_metrics(passes, name)
    assert metrics["hierarchy.tasks_sampled_per_task"][0] == len(tiny.agents)


def test_linear_panel_factors_three_times_per_round(passes):
    metrics = layer_metrics(passes, "linear-panel")
    assert 2.95 < metrics["gauss_core.cholesky_per_agent_round"][0] < 3.1


def test_wrappers_are_removed_after_the_traced_pass(passes):
    assert not hasattr(cli.parse, "__wrapped__")
    assert not hasattr(cli.harness.run_experiment, "__wrapped__")
    assert not hasattr(cli.agents_mod.GaussianFamilyAgent.act, "__wrapped__")


def test_missing_name_is_reported_not_fatal(monkeypatch):
    monkeypatch.setitem(spans.WRAPPED, "cli.parse",
                        [("cli", "parse"), ("cli", "no_such_function")])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hasattr(cli.parse, "__wrapped__")
    finally:
        tracer.uninstall()
    assert tracer.absent == ["cli:no_such_function"]
    assert not hasattr(cli.parse, "__wrapped__")


def test_self_times_partition_the_traced_time():
    """With the wrapper cost fixed, self times add up exactly to the time
    under the top-level spans less the wrapper cost of every span, and so
    does the total time of the top-level name."""
    tracer = spans.Tracer(wrapper_ns=(50.0, 300.0))
    inner = tracer._wrap(2, lambda: sum(range(200)))
    middle = tracer._wrap(1, lambda: [inner() for _ in range(2)])
    outer = tracer._wrap(0, lambda: [middle() for _ in range(5)])
    outer()
    outer()
    assert tracer.calls[:3] == [2, 10, 20]
    assert tracer.spans == 32
    untraced_ns = tracer.covered_ns - tracer.spans * tracer.wrapper_ns
    assert sum(tracer.self_ns) == pytest.approx(untraced_ns, rel=1e-12)
    assert tracer.total_ns[0] == pytest.approx(untraced_ns, rel=1e-12)


def test_wrapper_cost_is_kept_out_of_self_times():
    """A wrapped no-op parent of many wrapped no-op children, and each child,
    has a self time near zero: far below the wrapper cost per call.  The
    figures are medians over fresh tracers, so that a burst of load on the
    machine while one tracer measures its wrapper cost does not decide it."""
    children = 5000
    trials = []
    for _ in range(7):
        tracer = spans.Tracer()
        child = tracer._wrap(1, lambda a, b: None)

        def body():
            for _ in range(children):
                child(1, 2)

        tracer._wrap(0, body)()
        trials.append((tracer.wrapper_ns, tracer.self_ns[0] / children,
                       tracer.self_ns[1] / children))
    wrapper_ns, parent_ns, child_ns = np.median(trials, axis=0)
    assert wrapper_ns > 100
    assert abs(parent_ns) < wrapper_ns / 4
    assert abs(child_ns) < wrapper_ns / 4


def test_benchmark_json_names_the_printed_metrics(passes):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tiny = passes["gaussian-panel"][0]
    end_to_end = run.end_to_end_metrics(tiny, [1.0], 0.1, 50.0)
    per_layer = layer_metrics(passes, "gaussian-panel")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in end_to_end.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in per_layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in run.WORKLOADS.values()]
