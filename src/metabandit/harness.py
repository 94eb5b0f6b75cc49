"""Experiment orchestration: seeded runs, regret traces, aggregation.

Every (agent, run) pair draws from its own random streams, derived from
(seed, purpose, agent label, run index), so its output does not depend on
which other runs or agents are simulated beside it.  Every agent plays all
runs of an experiment in lockstep: its state carries a leading shape `lead`
of rows, and one round of every row is a few array operations (see
agents.GaussianFamilyAgent and agents.MixtureFamilyAgent), while each row
still consumes its own streams exactly as it would alone.  A row is one
(agent, run) pair: agents that share a base, such as ada-ts, ada-ts+ and
ada-ts-, play as one block of (agent, run) rows, each with its own
meta-prior width.  Agents that play all tasks at once
(agents.plays_tasks_at_once: Gaussian ts and oracle-ts) have the leading
shape (m, rows) and play n lockstep rounds instead of m * n.  Streams whose
draws have a fixed size are drawn in blocks (gauss_core.RunStreams): one
block of n rounds for all tasks at once, and otherwise a refill every
max(n, MIN_BLOCK) draws, so that short tasks played one after another share
a refill.  A Bernoulli-mixture agent's own stream is drawn run by run
instead, because its Beta draws consume a variable amount of stream.  Next
to the regret, a RegretTrace keeps every agent's final meta-posterior.

Each run's world (linear action set, meta-parameter, task sequence) is
sampled from that run's own task stream, its m tasks as one stack, and the
worlds of all runs are stacked once along the run axis, which for the tasks
is the last: one (m, runs) stack.  When ``common_tasks`` is set, the
task-generation stream drops the agent label, so every agent in a run faces
the same world, sampled once, while still drawing its own reward noise.
"""

from dataclasses import dataclass, field, fields
import hashlib

import numpy as np

from . import agents as agents_mod
from . import hierarchy
from .gauss_core import RngStream, RunStreams


# Fewest draws per row that a stream of tasks played one after another
# makes in one refill (see gauss_core.RunStreams): short tasks then share a
# refill instead of making one each.
MIN_BLOCK = 256


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
    """Per-round instant regret for every (agent, run), and every agent's
    meta-posterior after its last task."""

    config: ExperimentConfig
    instant: dict            # label -> array (runs, m, n)
    task_hashes: dict        # (label, run) -> hex digest of the task sequence
    # label -> the agent's meta-posterior after its last task, a belief
    # (agents.DiagonalTaskPosterior, FullTaskPosterior or MixtureTaskState)
    # with the leading shape (runs,)
    final_meta: dict = field(default_factory=dict)

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


def stream(seed, purpose, label, run):
    """The stream of one (purpose, agent label, run) under `seed`; purpose is
    "tasks", "rewards" or "agent", and the label of common tasks is ""."""
    digest = hashlib.sha256(f"{purpose}|{label}|{run}".encode()).digest()
    return RngStream(seed, int.from_bytes(digest[:8], "big"))


def _stream(config, purpose, label, run):
    if purpose == "tasks" and config.common_tasks:
        label = ""
    return stream(config.seed, purpose, label, run)


def _task_digest(run_spec, mu_star, tasks):
    h = hashlib.sha256()
    if run_spec.family == hierarchy.LINEAR:
        h.update(np.ascontiguousarray(run_spec.actions).tobytes())
    if run_spec.family == hierarchy.BERNOULLI_MIXTURE:
        h.update(str(int(mu_star)).encode())
    else:
        h.update(np.ascontiguousarray(mu_star).tobytes())
    h.update(np.ascontiguousarray(tasks.theta).tobytes())
    return h.hexdigest()


@dataclass(frozen=True, eq=False)
class _World:
    """What an agent faces in each of its rows: the environment spec (for
    linear, each row's own action set as (rows, K, d) when they are sampled
    per run), mu_star per row, the tasks as one (m, rows) stack, and one
    task-sequence digest per row."""

    spec: hierarchy.EnvironmentSpec
    mu_star: np.ndarray
    tasks: hierarchy.TaskInstance
    digests: tuple


def _sample_world(config, label, runs):
    """Each of `runs` sampled from its own task stream, as it would be alone,
    then stacked once."""
    spec, worlds = config.spec, []
    sampled = spec.family == hierarchy.LINEAR and spec.actions is None
    for run in runs:
        rng = _stream(config, "tasks", label, run)
        run_spec = spec.with_actions(hierarchy.sample_actions(spec, rng)) if sampled else spec
        mu_star = hierarchy.sample_meta_parameter(run_spec, rng)
        tasks = hierarchy.sample_task(run_spec, mu_star, rng, (config.m,))
        worlds.append((run_spec.actions, mu_star, tasks, _task_digest(run_spec, mu_star, tasks)))
    actions, mu_stars, tasks, digests = zip(*worlds)
    if sampled:
        spec = spec.with_actions(np.stack(actions))
    return _World(spec, np.stack(mu_stars), hierarchy.stack_tasks(tasks), digests)


def _join_worlds(worlds):
    """Worlds of the same runs for several agents, one after another along
    the row axis: the world of a block of (agent, run) rows."""
    if len(worlds) == 1:
        return worlds[0]
    spec = worlds[0].spec
    if spec.family == hierarchy.LINEAR and spec.actions.ndim == 3:
        spec = spec.with_actions(np.concatenate([world.spec.actions for world in worlds]))
    tasks = hierarchy.TaskInstance(*(
        np.concatenate([getattr(world.tasks, field.name) for world in worlds], axis=1)
        for field in fields(hierarchy.TaskInstance)))
    mu_star = np.concatenate([world.mu_star for world in worlds])
    return _World(spec, mu_star, tasks, sum((world.digests for world in worlds), ()))


def _rows(belief, index):
    """A belief's rows at `index` of its first axis; every belief class
    takes its slots, in order, as its constructor's arguments."""
    return type(belief)(*(getattr(belief, name)[index] for name in belief.__slots__))


def _run_agent(config, kinds, runs, world):
    """Instant regret (len(kinds) * len(runs), m, n) of agent kinds that
    share a base, one row per (kind, run) in that order, given the world of
    those rows, and the agent's final meta-posterior with the leading shape
    (rows,); one agent plays all rows in lockstep, each row with its
    kind's meta-prior width.  An agent that plays all tasks at once
    (agents.plays_tasks_at_once) plays the whole (m, rows) stack of tasks in
    n rounds; any other plays task s as the view `world.tasks[s - 1]`.

    A float overflow or invalid operation fails the rows instead of reaching
    their regret.  The error names the agents, the runs, the task (1..m for
    all tasks at once) and the round: a failure in task set-up names round
    0, and one while the agent is built names task 0.
    """
    spec, kind = world.spec, kinds[0]
    at_once = agents_mod.plays_tasks_at_once(kind, spec.family)

    def lockstep(purpose):
        streams = [_stream(config, purpose, k.label, run) for k in kinds for run in runs]
        if at_once:
            return RunStreams(streams, block=config.n, tasks=config.m)
        return RunStreams(streams, block=max(config.n, MIN_BLOCK))

    instant = np.zeros((len(kinds) * len(runs), config.m, config.n))
    if at_once:
        blocks = [(f"1..{config.m}", world.tasks, instant.swapaxes(0, 1))]
    else:
        blocks = [(s, world.tasks[s - 1], instant[:, s - 1]) for s in range(1, config.m + 1)]
    if spec.family == hierarchy.BERNOULLI_MIXTURE:
        agent_class = agents_mod.MixtureFamilyAgent
    else:
        agent_class = agents_mod.GaussianFamilyAgent
    scale = np.repeat([k.scale for k in kinds], len(runs))
    rewards = lockstep("rewards")
    s = t = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            agent = agent_class(kind, spec, lockstep("agent"), world.mu_star, scale)
            # all tasks at once begin as task 1 does
            for first, (s, task, regret) in enumerate(blocks, start=1):
                t = 0
                agent.begin_task(first, config.m)
                for t in range(1, config.n + 1):
                    action = agent.act(t)
                    observation = hierarchy.realize_reward(spec, task, action, rewards)
                    regret[..., t - 1] = hierarchy.instant_regret(spec, task, action)
                    agent.observe(action, observation)
                agent.end_task()
    except Exception as err:
        labels = ",".join(k.label for k in kinds)
        where = runs[0] if len(runs) == 1 else f"{runs[0]}..{runs[-1]}"
        raise RuntimeError(
            f"run failed at agent={labels} run={where} task={s} round={t}: {err}"
        ) from err
    # an agent that plays all tasks at once never updates its meta-posterior,
    # so every task holds the same one
    return instant, (_rows(agent.meta, 0) if at_once else agent.meta)


def run_single(config, kind, run):
    """Execute one (agent, run) unit; returns (instant (m, n), task hash).

    Output is a pure function of (config.spec, config.seed, common_tasks,
    kind, run): agent order and the other runs play no role.
    """
    world = _sample_world(config, kind.label, [run])
    instant, _ = _run_agent(config, (kind,), [run], world)
    return instant[0], world.digests[0]


def _blocks(config):
    """The agents of `config` grouped into blocks that play as one agent:
    agents with the same base, which differ only in their meta-prior width,
    such as ada-ts, ada-ts+ and ada-ts-."""
    blocks = {}
    for kind in config.agents:
        blocks.setdefault(kind.base, []).append(kind)
    return list(blocks.values())


def run_experiment(config):
    """Run every agent over every run.  With common tasks the world of all
    runs is sampled once and shared by all agents."""
    runs = list(range(config.runs))
    shared = _sample_world(config, "", runs) if config.common_tasks else None
    rows, hashes, final_meta = {}, {}, {}
    for kinds in _blocks(config):
        world = _join_worlds([shared or _sample_world(config, kind.label, runs)
                              for kind in kinds])
        instant, meta = _run_agent(config, kinds, runs, world)
        for i, kind in enumerate(kinds):
            own = slice(i * len(runs), (i + 1) * len(runs))
            rows[kind.label] = instant[own]
            final_meta[kind.label] = _rows(meta, own)
        keys = [(kind.label, run) for kind in kinds for run in runs]
        hashes.update(zip(keys, world.digests))
    instant = {kind.label: rows[kind.label] for kind in config.agents}
    final_meta = {kind.label: final_meta[kind.label] for kind in config.agents}
    return RegretTrace(config, instant, hashes, final_meta)


def aggregate(trace):
    """Mean cumulative regret and its standard error across runs."""
    mean, stderr = {}, {}
    for kind in trace.config.agents:
        label = kind.label
        if label not in trace.instant or trace.instant[label].shape[0] == 0:
            raise EmptyTrace(f"no successful runs for agent {label!r}")
        mean[label], stderr[label] = _mean_and_stderr(trace.cumulative(label))
    return AggregateCurve(trace.config, mean, stderr)


def _mean_and_stderr(cum):
    """Across-run mean and standard error of one agent's cumulative regret;
    a function of its own, so that each agent's `cum` is freed before the
    next one's is built."""
    runs = cum.shape[0]
    mean = cum.mean(axis=0)
    if runs > 1:
        return mean, cum.std(axis=0, ddof=1) / np.sqrt(runs)
    return mean, np.zeros_like(mean)


def final_regret(curve, label):
    """Mean cumulative regret at the last round of the last task."""
    if label not in curve.mean:
        raise UnknownAgent(f"no curve for agent {label!r}")
    return float(curve.mean[label][-1, -1])
