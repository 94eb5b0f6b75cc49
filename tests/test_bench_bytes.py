"""The benchmark's workloads write the CSV bytes pinned here, and each plays
as one block.

bench/run.py is loaded by path, as tests/test_bench_names.py loads
bench/spans.py, and each of its WORKLOADS is run once at seed 1 through its
own `run_pass`.  A change that claims unchanged bytes must keep these.
"""

import hashlib
import importlib.util
from pathlib import Path
import sys

import numpy as np
import pytest

from metabandit import agents, cli, harness

BENCH = Path(__file__).resolve().parents[1] / "bench"

BENCH_CSV_DIGESTS = {
    "gaussian-panel": "b5e1222c3fb530d5e3470cac8c0487d668b9e0c533b183de0cd6c4018c1c3db5",
    "linear-panel": "4e9311db7dd46a0ba31eae059fd36b7cbd161b3462590eb53e855ad901ef5be3",
    "linear-many-tasks": "9f61ddd6b5d06afd99f01b79c074fd9dae98d45c8be3cfb1512c4643290a3a33",
    "mixture-panel": "f6e3ce003f73b6a135102e0fabea0dfb1df431f287b66e3d0784a617d7247dbd",
}


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_run():
    # run.py imports its tracer as the top-level module `spans`
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setitem(sys.modules, "spans", load("spans"))
        yield load("run")


def test_every_workload_has_a_pinned_digest(bench_run):
    assert sorted(bench_run.WORKLOADS) == sorted(BENCH_CSV_DIGESTS)


@pytest.mark.parametrize("name", list(BENCH_CSV_DIGESTS))
def test_workload_writes_its_pinned_bytes_at_seed_1(bench_run, name, tmp_path):
    result = bench_run.run_pass(cli, bench_run.WORKLOADS[name], 1, tmp_path / f"{name}.csv")
    assert result.code == 0
    assert hashlib.sha256(result.data).hexdigest() == BENCH_CSV_DIGESTS[name]


@pytest.mark.parametrize("name", list(BENCH_CSV_DIGESTS))
def test_workload_plays_one_sequential_block(bench_run, name, tmp_path, monkeypatch):
    """Every agent of a workload plays its tasks one after another in one
    lockstep block: one _run_agent call over all (agent, run) rows, in
    config order.  The block's play is stubbed out; only its worlds are
    sampled, for the task hashes."""
    argv = bench_run.WORKLOADS[name].argv(1, tmp_path / f"{name}.csv")
    config = cli.build_config(cli.parse(argv))
    played = []

    def recording(config, rows, sampled):
        played.append(rows)
        harness._sample_world(config, rows, sampled)
        lead = (len(rows),)
        return np.zeros(lead + (config.m, config.n)), agents.initial_meta_posterior(config.spec, lead)

    monkeypatch.setattr(harness, "_run_agent", recording)
    harness.run_experiment(config)
    assert played == [[(kind, run) for kind in config.agents for run in range(config.runs)]]
