"""Experiment orchestration: seeded runs, regret traces, aggregation.

Every (agent, run) pair draws from its own random streams, derived from
(seed, purpose, agent label, run index), so its output does not depend on
which other runs or agents are simulated beside it.  Every agent plays all
runs of an experiment in lockstep: its state carries a leading shape `lead`
of rows, and one round of every row is a few array operations (see
agents.GaussianFamilyAgent and agents.MixtureFamilyAgent), while each row
still consumes its own streams exactly as it would alone.  A row is one
(agent, run) pair, and every agent that plays its tasks one after another
plays in one block of (agent, run) rows, one m * n loop, each row with its
own policy and meta-prior width.  Agents that play all tasks at once
(agents.plays_tasks_at_once: Gaussian ts and oracle-ts) each play a block
of their own, with the leading shape (m, rows), in n lockstep rounds
instead of m * n.  Every draw has a fixed size, so streams are drawn in
blocks (gauss_core.RunStreams), each row refilling its own: one block of n
rounds for all tasks at once, and otherwise a refill every max(n,
MIN_BLOCK) draws of the row, so that short tasks played one after another
share a refill.  A Bernoulli-mixture agent's draw is tens of uniforms
(agents.mixture_draw_size), so its own stream refills every
MIXTURE_REFILL uniforms of the row instead.  Rows of a block draw unequally
(only meta-ts rows draw at task start, and ada-ts-forced rows draw nothing
in opening rounds), so a draw may take only some rows, and advances only
their streams.  Next to the regret, a RegretTrace keeps every agent's final
meta-posterior.

Each (agent, run) row faces its run's world (linear action set,
meta-parameter, task sequence), sampled from the run's own task stream,
its m tasks as one stack.  A block's world comes from its list of rows:
each task stream's world is sampled once per experiment, and the rows'
worlds are stacked along the row axis, which for the tasks is the last:
one (m, rows) stack.  When ``common_tasks`` is set, the task stream drops
the agent label, so every agent in a run faces the same world, sampled
once, while still drawing its own reward noise.
"""

from dataclasses import dataclass, field
import hashlib

import numpy as np

from . import agents as agents_mod
from . import hierarchy
from .gauss_core import SEED_BOUND, RngStream, RunStreams


# Fewest draws per row that a stream of tasks played one after another
# makes in one refill (see gauss_core.RunStreams): short tasks then share a
# refill instead of making one each.
MIN_BLOCK = 256
# Uniforms per row that a mixture agent's stream makes in one refill: the
# refill is sized in uniforms, not draws, so that 250 rows hold about 1 MiB
# (20 draws of 25 uniforms at 3 arms).
MIXTURE_REFILL = 2 * MIN_BLOCK


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
        if not 0 <= self.seed < SEED_BOUND:
            raise ValueError(f"seed must be in [0, 2**53), got {self.seed}")
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


def _task_key(config, kind, run):
    """The (label, run) of a row's task stream: with common tasks every
    agent in a run shares the label ""."""
    return ("" if config.common_tasks else kind.label, run)


def _sample_world(config, rows, sampled):
    """The world of (kind, run) rows: the environment spec (for linear, each
    row's own action set as (rows, K, d) when they are sampled per run),
    mu_star per row, and the tasks as one (m, rows) stack.  Each task
    stream's world is sampled once, as it would be alone, and kept in
    `sampled`, which maps the stream's key to (actions, mu_star, tasks,
    digest)."""
    spec = config.spec
    per_run = spec.family == hierarchy.LINEAR and spec.actions is None
    worlds = []
    for kind, run in rows:
        key = _task_key(config, kind, run)
        if key not in sampled:
            rng = stream(config.seed, "tasks", *key)
            run_spec = spec.with_actions(hierarchy.sample_actions(spec, rng)) if per_run else spec
            mu_star = hierarchy.sample_meta_parameter(run_spec, rng)
            tasks = hierarchy.sample_task(run_spec, mu_star, rng, (config.m,))
            digest = _task_digest(run_spec, mu_star, tasks)
            sampled[key] = (run_spec.actions, mu_star, tasks, digest)
        worlds.append(sampled[key])
    actions, mu_stars, tasks, _ = zip(*worlds)
    if per_run:
        spec = spec.with_actions(np.stack(actions))
    return spec, np.stack(mu_stars), hierarchy.stack_tasks(tasks)


def _run_agent(config, rows, sampled):
    """Instant regret (len(rows), m, n) of (kind, run) rows, one row per
    (kind, run) in that order, and the agent's final meta-posterior with the
    leading shape (rows,); one agent plays all rows in lockstep, each row
    with its kind's policy and meta-prior width, in the world of those rows
    (see _sample_world).  Either every kind plays all tasks at once
    (agents.plays_tasks_at_once), and the agent plays the whole (m, rows)
    stack of tasks in n rounds, or none does, and it plays task s as the
    view `tasks[s - 1]`.

    A float overflow or invalid operation fails the rows instead of reaching
    their regret.  The error names the agents, the runs, the task (1..m for
    all tasks at once) and the round: a failure in task set-up names round
    0, and one while the agent is built names task 0.
    """
    spec, mu_star, tasks = _sample_world(config, rows, sampled)
    kinds = [kind for kind, _ in rows]
    at_once = agents_mod.plays_tasks_at_once(kinds[0], spec.family)

    def lockstep(purpose):
        streams = [stream(config.seed, purpose, k.label, run) for k, run in rows]
        if at_once:
            return RunStreams(streams, block=config.n, tasks=config.m)
        if purpose == "agent" and spec.family == hierarchy.BERNOULLI_MIXTURE:
            size = agents_mod.mixture_draw_size(spec.num_arms)
            return RunStreams(streams, block=max(1, MIXTURE_REFILL // size))
        return RunStreams(streams, block=max(config.n, MIN_BLOCK))

    instant = np.zeros((len(rows), config.m, config.n))
    if at_once:
        blocks = [(f"1..{config.m}", tasks, instant.swapaxes(0, 1))]
    else:
        blocks = [(s, tasks[s - 1], instant[:, s - 1]) for s in range(1, config.m + 1)]
    if spec.family == hierarchy.BERNOULLI_MIXTURE:
        agent_class = agents_mod.MixtureFamilyAgent
    else:
        agent_class = agents_mod.GaussianFamilyAgent
    rewards = lockstep("rewards")
    s = t = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            agent = agent_class(kinds, spec, lockstep("agent"), mu_star)
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
        labels = ",".join(dict.fromkeys(k.label for k, _ in rows))
        runs = [run for _, run in rows]
        where = runs[0] if len(set(runs)) == 1 else f"{runs[0]}..{runs[-1]}"
        raise RuntimeError(
            f"run failed at agent={labels} run={where} task={s} round={t}: {err}"
        ) from err
    # an agent that plays all tasks at once never updates its meta-posterior,
    # so every task holds the same one
    return instant, (agents_mod.select_rows(agent.meta, 0) if at_once else agent.meta)


def run_single(config, kind, run):
    """Execute one (agent, run) unit; returns (instant (m, n), task hash).

    Output is a pure function of (config.spec, config.seed, common_tasks,
    kind, run): agent order and the other runs play no role.
    """
    sampled = {}
    instant, _ = _run_agent(config, [(kind, run)], sampled)
    return instant[0], sampled[_task_key(config, kind, run)][-1]


def _blocks(config):
    """The agents of `config` grouped into blocks that play as one agent, in
    config order: every agent that plays its tasks one after another in one
    block, and each agent that plays all tasks at once
    (agents.plays_tasks_at_once) in a block of its own."""
    blocks = {}
    for kind in config.agents:
        at_once = agents_mod.plays_tasks_at_once(kind, config.spec.family)
        blocks.setdefault(kind if at_once else None, []).append(kind)
    return list(blocks.values())


def run_experiment(config):
    """Run every agent over every run, each block of agents (see _blocks)
    over its (kind, run) rows.  Every run's world is sampled once per task
    stream: with common tasks, once for all agents."""
    runs = range(config.runs)
    sampled, instant, hashes, final_meta = {}, {}, {}, {}
    for kinds in _blocks(config):
        rows = [(kind, run) for kind in kinds for run in runs]
        block, meta = _run_agent(config, rows, sampled)
        for i, kind in enumerate(kinds):
            own = slice(i * config.runs, (i + 1) * config.runs)
            instant[kind.label] = block[own]
            final_meta[kind.label] = agents_mod.select_rows(meta, own)
        hashes.update(((k.label, run), sampled[_task_key(config, k, run)][-1]) for k, run in rows)
    instant = {kind.label: instant[kind.label] for kind in config.agents}
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
