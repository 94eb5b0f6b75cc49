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

Each run's world (linear action set, meta-parameter, task sequence) is
sampled from that run's own task stream, and the worlds of all runs are
stacked once along the run axis.  When ``common_tasks`` is set, the
task-generation stream drops the agent label, so every agent in a run faces
the same world, sampled once, while still drawing its own reward noise.
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
    """What an agent faces in each of its runs, stacked along a leading run
    axis: the environment spec (for linear, each run's own action set as
    (runs, K, d) when they are sampled per run), mu_star per run, the m tasks,
    each stacked by `stack_tasks`, and one task-sequence digest per run."""

    spec: hierarchy.EnvironmentSpec
    mu_star: np.ndarray
    tasks: list
    digests: tuple


def _sample_world(config, label, runs):
    """Each of `runs` sampled from its own task stream, as it would be alone,
    then stacked once."""
    spec, worlds = config.spec, []
    sampled = spec.family == hierarchy.LINEAR and spec.actions is None
    for run in runs:
        tasks_rng = _stream(config, "tasks", label, run)
        run_spec = _sample_run_actions(spec, tasks_rng) if sampled else spec
        mu_star = hierarchy.sample_meta_parameter(run_spec, tasks_rng)
        tasks = [hierarchy.sample_task(run_spec, mu_star, tasks_rng) for _ in range(config.m)]
        worlds.append((run_spec.actions, mu_star, tasks, _task_digest(run_spec, mu_star, tasks)))
    actions, mu_stars, tasks, digests = zip(*worlds)
    if sampled:
        spec = spec.with_actions(np.stack(actions))
    stacked = [hierarchy.stack_tasks(per_run) for per_run in zip(*tasks)]
    return _World(spec, np.stack(mu_stars), stacked, digests)


def _run_agent(config, kind, runs, world):
    """Instant regret (len(runs), m, n) of one agent kind over `runs`, given
    their stacked world; one agent plays all of them in lockstep.

    A float overflow or invalid operation fails the run instead of reaching
    its regret.  The error names the agent, the runs, the task and the
    round: a failure in task set-up names round 0, and one while the agent
    is built names task 0.
    """

    def lockstep(purpose):
        streams = [_stream(config, purpose, kind.label, run) for run in runs]
        return RunStreams(streams, block=config.n)

    if world.spec.family == hierarchy.BERNOULLI_MIXTURE:
        agent_class = agents_mod.MixtureFamilyAgent
    else:
        agent_class = agents_mod.GaussianFamilyAgent
    spec, rewards = world.spec, lockstep("rewards")
    instant = np.zeros((len(runs), config.m, config.n))
    s = t = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            agent = agent_class(kind, spec, lockstep("agent"), world.mu_star)
            for s, task in enumerate(world.tasks, start=1):
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


def run_single(config, kind, run):
    """Execute one (agent, run) unit; returns (instant (m, n), task hash).

    Output is a pure function of (config.spec, config.seed, common_tasks,
    kind, run): agent order and the other runs play no role.
    """
    world = _sample_world(config, kind.label, [run])
    return _run_agent(config, kind, [run], world)[0], world.digests[0]


def run_experiment(config):
    """Run every agent over every run.  With common tasks the world of all
    runs is sampled once and shared by all agents."""
    runs = list(range(config.runs))
    shared = _sample_world(config, "", runs) if config.common_tasks else None
    instant, hashes = {}, {}
    for kind in config.agents:
        world = shared or _sample_world(config, kind.label, runs)
        instant[kind.label] = _run_agent(config, kind, runs, world)
        for run, digest in zip(runs, world.digests):
            hashes[(kind.label, run)] = digest
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
