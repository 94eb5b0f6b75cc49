"""The benchmark's workloads write the CSV bytes pinned here, and play as
the blocks pinned here.

bench/run.py is loaded by path, as tests/test_bench_names.py loads
bench/spans.py, and each of its WORKLOADS is run once at seed 1 through its
own `run_pass`.  A change that claims unchanged bytes must keep these.
"""

import hashlib
import importlib.util
from pathlib import Path
import sys

import pytest

from metabandit import agents, cli, harness

BENCH = Path(__file__).resolve().parents[1] / "bench"

BENCH_CSV_DIGESTS = {
    "gaussian-panel": "b5e1222c3fb530d5e3470cac8c0487d668b9e0c533b183de0cd6c4018c1c3db5",
    "linear-panel": "4e9311db7dd46a0ba31eae059fd36b7cbd161b3462590eb53e855ad901ef5be3",
    "linear-many-tasks": "9f61ddd6b5d06afd99f01b79c074fd9dae98d45c8be3cfb1512c4643290a3a33",
    "mixture-panel": "fc1884b9e4d42164bdaf79c331aa4f18e1ffb348e5e26f4303f98a708cc25523",
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
def test_workload_plays_one_sequential_block(bench_run, name, tmp_path):
    """Every agent that plays its tasks one after another shares one
    lockstep block; each agent that plays all tasks at once has its own."""
    argv = bench_run.WORKLOADS[name].argv(1, tmp_path / f"{name}.csv")
    config = cli.build_config(cli.parse(argv))
    at_once = [kind for kind in config.agents
               if agents.plays_tasks_at_once(kind, config.spec.family)]
    sequential = [kind for kind in config.agents if kind not in at_once]
    assert sequential
    blocks = harness._blocks(config)
    assert blocks.count(sequential) == 1
    assert [block for block in blocks if block != sequential] == [[kind] for kind in at_once]
