"""Structural cost of the linear path: one Cholesky factorization per round,
and the jitter ladder is never climbed on well-posed runs."""

import numpy as np
import pytest

from metabandit import agents, gauss_core, harness, hierarchy


@pytest.fixture
def counted_cholesky(monkeypatch):
    """Count numpy Cholesky calls and the LinAlgErrors they raise."""
    counts = {"calls": 0, "errors": 0}
    real = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        counts["calls"] += 1
        try:
            return real(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            counts["errors"] += 1
            raise

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return counts


@pytest.mark.parametrize("dim,rounds", [(2, 200), (4, 200), (8, 200), (4, 1000)])
def test_linear_run_factors_once_per_round(counted_cholesky, dim, rounds):
    kinds = tuple(
        agents.AgentKind.from_name(name)
        for name in ("ts", "oracle-ts", "meta-ts", "ada-ts", "ada-ts-forced")
    )
    config = harness.ExperimentConfig(
        spec=hierarchy.linear_env(dim, 1.0, 0.1, 1.0),
        agents=kinds, m=3, n=rounds, runs=2, seed=5,
    )
    harness.run_experiment(config)
    agent_rounds = len(kinds) * config.runs * config.m * config.n
    assert counted_cholesky["calls"] <= 1.05 * agent_rounds
    assert counted_cholesky["errors"] == 0


def test_cholesky_fast_path_is_numpy_factor(counted_cholesky):
    rng = np.random.default_rng(0)
    root = rng.standard_normal((4, 4))
    a = root @ root.T + 0.1 * np.eye(4)
    assert np.array_equal(gauss_core.cholesky(a), np.linalg.cholesky(a))
    assert counted_cholesky["errors"] == 0


def test_cholesky_rank_one_still_escalates(counted_cholesky):
    lower = gauss_core.cholesky(np.ones((2, 2)))
    assert counted_cholesky["errors"] >= 1
    assert np.max(np.abs(lower @ lower.T - np.ones((2, 2)))) <= 1e-7
