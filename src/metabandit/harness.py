"""Experiment orchestration: seeded runs, regret traces, aggregation.

Every (agent, run) pair draws from its own random streams, derived from
(seed, purpose, agent label, run index), so its output does not depend on
which other runs or agents are simulated beside it.  Every agent plays all
runs of an experiment in lockstep: its state carries a leading run axis and
one round of every run is a few array operations (see
agents.GaussianFamilyAgent and agents.MixtureFamilyAgent), while each run
still consumes its own streams exactly as it would alone.  Streams whose
draws have a fixed size are drawn in per-task blocks; a Bernoulli-mixture
agent's own stream is drawn run by run instead, because its Beta draws
consume a variable amount of stream.

When ``common_tasks`` is set, the task-generation stream drops the agent
label, so every agent in a run faces the same action set, meta-parameter and
task sequence, sampled once per run, while still drawing its own reward
noise.
"""

from dataclasses import dataclass
import hashlib

import numpy as np

from . import agents as agents_mod
from . import hierarchy
from .gauss_core import RngStream, RunStreams


class EmptyTrace(Exception):
    """No successful runs to aggregate."""


# Raised for an agent label missing from a trace or curve.
UnknownAgent = agents_mod.UnknownAgent


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    spec: hierarchy.EnvironmentSpec
    agents: tuple
    m: int
    n: int
    runs: int
    seed: int
    common_tasks: bool = True

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.runs < 1:
            raise ValueError("m, n and runs must be positive")
        labels = [kind.label for kind in self.agents]
        if len(labels) != len(set(labels)):
            raise ValueError("duplicate agent labels")
        if not labels:
            raise ValueError("need at least one agent")


@dataclass
class RegretTrace:
    """Per-round instant regret for every (agent, run)."""

    config: ExperimentConfig
    instant: dict            # label -> array (runs, m, n)
    task_hashes: dict        # (label, run) -> hex digest of the task sequence

    def cumulative(self, label):
        """Cumulative regret over the flattened (task, round) axis."""
        if label not in self.instant:
            raise UnknownAgent(f"no trace for agent {label!r}")
        runs = self.instant[label].shape[0]
        flat = self.instant[label].reshape(runs, -1)
        return np.cumsum(flat, axis=1).reshape(self.instant[label].shape)


@dataclass
class AggregateCurve:
    """Across-run mean and standard error of cumulative regret."""

    config: ExperimentConfig
    mean: dict               # label -> array (m, n)
    stderr: dict             # label -> array (m, n)


def _stream_id(purpose, label, run):
    digest = hashlib.sha256(f"{purpose}|{label}|{run}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _stream(config, purpose, label, run):
    if purpose == "tasks" and config.common_tasks:
        label = ""
    return RngStream(config.seed, _stream_id(purpose, label, run))


def _streams(config, label, run):
    """(tasks, rewards, agent) streams for one unit of work."""
    return tuple(_stream(config, purpose, label, run) for purpose in ("tasks", "rewards", "agent"))


def _sample_run_actions(spec, rng):
    """Per-run linear action set, uniform on the centered unit box; vectors
    that land outside the unit ball are pulled back onto it."""
    actions = rng.uniform(-0.5, 0.5, size=(spec.num_arms, spec.dim))
    norms = np.linalg.norm(actions, axis=1)
    over = norms > 1.0
    if np.any(over):
        actions[over] /= norms[over, None]
    return spec.with_actions(actions)


def _task_digest(run_spec, mu_star, tasks):
    h = hashlib.sha256()
    if run_spec.family == hierarchy.LINEAR:
        h.update(np.ascontiguousarray(run_spec.actions).tobytes())
    if run_spec.family == hierarchy.BERNOULLI_MIXTURE:
        h.update(str(int(mu_star)).encode())
    else:
        h.update(np.ascontiguousarray(mu_star).tobytes())
    for task in tasks:
        h.update(np.ascontiguousarray(task.theta).tobytes())
    return h.hexdigest()


@dataclass(frozen=True, eq=False)
class _World:
    """What one run's agent faces: its environment spec (with the run's own
    action set for linear), mu_star, the task sequence and its digest."""

    spec: hierarchy.EnvironmentSpec
    mu_star: object
    tasks: list
    digest: str


def _sample_world(config, label, run):
    tasks_rng = _stream(config, "tasks", label, run)
    spec = config.spec
    if spec.family == hierarchy.LINEAR and spec.actions is None:
        spec = _sample_run_actions(spec, tasks_rng)
    mu_star = hierarchy.sample_meta_parameter(spec, tasks_rng)
    tasks = [hierarchy.sample_task(spec, mu_star, tasks_rng) for _ in range(config.m)]
    return _World(spec, mu_star, tasks, _task_digest(spec, mu_star, tasks))


def _play(config, kind, runs, spec, agent, tasks, rewards):
    """Play the task sequence; instant regret (len(runs), m, n).

    `agent`, `tasks` and `rewards` cover all of `runs` at once, with a run
    axis.  A float overflow or invalid operation fails the run instead of
    reaching its regret; a failure in task set-up names round 0.
    """
    instant = np.zeros((len(runs), config.m, config.n))
    s = t = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for s, task in enumerate(tasks, start=1):
                t = 0
                agent.begin_task(s, config.m)
                for t in range(1, config.n + 1):
                    action = agent.act(t)
                    observation = hierarchy.realize_reward(spec, task, action, rewards)
                    instant[:, s - 1, t - 1] = hierarchy.instant_regret(spec, task, action)
                    agent.observe(action, observation)
                agent.end_task()
    except Exception as err:
        where = runs[0] if len(runs) == 1 else f"{runs[0]}..{runs[-1]}"
        raise RuntimeError(
            f"run failed at agent={kind.label} run={where} task={s} round={t}: {err}"
        ) from err
    return instant


def _spanning_features(run_spec):
    """One run's linear forced-exploration plan as feature vectors, one row
    per exploring round (action-set rows, or the fallback basis)."""
    plan, _ = agents_mod.choose_spanning_actions(run_spec.actions)
    return hierarchy.linear_feature(run_spec, np.asarray(plan))


def _run_agent(config, kind, runs, worlds):
    """Instant regret (len(runs), m, n) of one agent kind over `runs`, given
    each run's world; one agent plays all of them in lockstep."""

    def lockstep(purpose):
        streams = [_stream(config, purpose, kind.label, run) for run in runs]
        return RunStreams(streams, block=config.n)

    spec = config.spec
    if spec.family == hierarchy.LINEAR and spec.actions is None:
        spec = spec.with_actions(np.stack([world.spec.actions for world in worlds]))
    mu_star = np.stack([world.mu_star for world in worlds])
    if spec.family == hierarchy.BERNOULLI_MIXTURE:
        agent = agents_mod.MixtureFamilyAgent(kind, spec, lockstep("agent"), mu_star)
    else:
        exploration = None
        if kind.base == agents_mod.ADA_TS_FORCED and spec.family == hierarchy.LINEAR:
            exploration = np.stack([_spanning_features(world.spec) for world in worlds], axis=1)
        agent = agents_mod.GaussianFamilyAgent(kind, spec, lockstep("agent"), mu_star, exploration)
    tasks = (hierarchy.stack_tasks([world.tasks[s] for world in worlds]) for s in range(config.m))
    return _play(config, kind, runs, spec, agent, tasks, lockstep("rewards"))


def run_single(config, kind, run):
    """Execute one (agent, run) unit; returns (instant (m, n), task hash).

    Output is a pure function of (config.spec, config.seed, common_tasks,
    kind, run): agent order and the other runs play no role.
    """
    world = _sample_world(config, kind.label, run)
    return _run_agent(config, kind, [run], [world])[0], world.digest


def run_experiment(config):
    """Run every agent over every run.  With common tasks each run's world is
    sampled once and shared by all agents."""
    runs = list(range(config.runs))
    shared = None
    if config.common_tasks:
        shared = [_sample_world(config, "", run) for run in runs]
    instant, hashes = {}, {}
    for kind in config.agents:
        worlds = shared or [_sample_world(config, kind.label, run) for run in runs]
        instant[kind.label] = _run_agent(config, kind, runs, worlds)
        for run, world in zip(runs, worlds):
            hashes[(kind.label, run)] = world.digest
    return RegretTrace(config, instant, hashes)


def aggregate(trace):
    """Mean cumulative regret and its standard error across runs."""
    mean, stderr = {}, {}
    for kind in trace.config.agents:
        label = kind.label
        if label not in trace.instant or trace.instant[label].shape[0] == 0:
            raise EmptyTrace(f"no successful runs for agent {label!r}")
        cum = trace.cumulative(label)
        runs = cum.shape[0]
        mean[label] = cum.mean(axis=0)
        if runs > 1:
            stderr[label] = cum.std(axis=0, ddof=1) / np.sqrt(runs)
        else:
            stderr[label] = np.zeros_like(mean[label])
    return AggregateCurve(trace.config, mean, stderr)


def final_regret(curve, label):
    """Mean cumulative regret at the last round of the last task."""
    if label not in curve.mean:
        raise UnknownAgent(f"no curve for agent {label!r}")
    return float(curve.mean[label][-1, -1])
