"""Experiment orchestration: determinism, shared tasks, aggregation."""

import hashlib
import math

import numpy as np
import pytest

from metabandit import agents, harness, hierarchy


def small_config(agent_names=("ts", "ada-ts"), runs=3, m=4, n=10, seed=11, **kwargs):
    spec = kwargs.pop("spec", None) or hierarchy.gaussian_env(2, 0.5, 0.1, 1.0)
    kinds = tuple(agents.AgentKind.from_name(name) for name in agent_names)
    return harness.ExperimentConfig(
        spec=spec, agents=kinds, m=m, n=n, runs=runs, seed=seed, **kwargs
    )


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(runs=0)
    with pytest.raises(ValueError):
        small_config(agent_names=())
    with pytest.raises(ValueError):
        small_config(agent_names=("ts", "ts"))
    for seed in (-1, 2**53, 2**64 + 1):
        with pytest.raises(ValueError, match="seed"):
            small_config(seed=seed)
    assert small_config(seed=2**53 - 1).seed == 2**53 - 1


def test_run_single_shape_and_determinism():
    config = small_config()
    kind = config.agents[1]
    first, digest_a = harness.run_single(config, kind, 0)
    second, digest_b = harness.run_single(config, kind, 0)
    assert first.shape == (4, 10)
    assert np.array_equal(first, second)
    assert digest_a == digest_b
    other_run, _ = harness.run_single(config, kind, 1)
    assert not np.array_equal(first, other_run)


def test_run_single_is_independent_of_agent_roster():
    """A unit's trace depends only on (seed, run, kind), never on which other
    agents happen to be in the experiment."""
    alone = small_config(agent_names=("ada-ts",))
    together = small_config(agent_names=("ts", "oracle-ts", "ada-ts"))
    kind = agents.AgentKind.from_name("ada-ts")
    solo, _ = harness.run_single(alone, kind, 2)
    crowd, _ = harness.run_single(together, kind, 2)
    assert np.array_equal(solo, crowd)


def test_common_tasks_share_hashes_across_agents():
    config = small_config(agent_names=("ts", "oracle-ts", "ada-ts"))
    trace = harness.run_experiment(config)
    for run in range(config.runs):
        digests = {trace.task_hashes[(k.label, run)] for k in config.agents}
        assert len(digests) == 1
    run_digests = {trace.task_hashes[("ts", run)] for run in range(config.runs)}
    assert len(run_digests) == config.runs


def test_independent_tasks_differ_across_agents():
    config = small_config(agent_names=("ts", "oracle-ts"), common_tasks=False)
    trace = harness.run_experiment(config)
    assert trace.task_hashes[("ts", 0)] != trace.task_hashes[("oracle-ts", 0)]


FAMILY_SPECS = {
    "gaussian": lambda: hierarchy.gaussian_env(2, 0.5, 0.1, 1.0),
    "semibandit": lambda: hierarchy.semibandit_env(5, 2, 0.5, 0.1, 1.0),
    "linear": lambda: hierarchy.linear_env(2, 1.0, 0.1, 1.0),
    "mixture": lambda: hierarchy.mixture_env(3, [[9, 9, 9], [1, 1, 1]], [[1, 1, 1], [9, 9, 9]]),
}


@pytest.mark.parametrize("family", list(FAMILY_SPECS))
@pytest.mark.parametrize("common_tasks", [True, False])
def test_batch_of_runs_equals_each_one_run_slice(family, common_tasks):
    """All runs of an agent played together give, run by run, the bits of
    that run played alone."""
    spec = FAMILY_SPECS[family]()
    names = ("ts", "meta-ts", "ada-ts") + (() if family == "mixture" else ("ada-ts-forced",))
    config = small_config(agent_names=names, spec=spec, runs=4, m=5, n=7,
                          common_tasks=common_tasks)
    trace = harness.run_experiment(config)
    for kind in config.agents:
        for run in range(config.runs):
            alone, digest = harness.run_single(config, kind, run)
            assert np.array_equal(trace.instant[kind.label][run], alone)
            assert trace.task_hashes[(kind.label, run)] == digest


def test_common_tasks_are_sampled_once_per_run(monkeypatch):
    """Counts the tasks drawn: each call draws prod(lead) of them.  ada-ts,
    ada-ts+ and ada-ts- play as one block of three kinds, whose rows of one
    run share their world only with common tasks."""
    calls = {"n": 0}
    real = hierarchy.sample_task

    def counting(spec, mu_star, rng, lead=()):
        calls["n"] += math.prod(lead)
        return real(spec, mu_star, rng, lead)

    monkeypatch.setattr(hierarchy, "sample_task", counting)
    names = ("ts", "oracle-ts", "ada-ts", "ada-ts+", "ada-ts-")
    widths = ("ada-ts", "ada-ts+", "ada-ts-")
    config = small_config(agent_names=names, runs=3, m=4)
    trace = harness.run_experiment(config)
    assert calls["n"] == config.runs * config.m
    for run in range(config.runs):
        assert len({trace.task_hashes[(label, run)] for label in widths}) == 1
    calls["n"] = 0
    trace = harness.run_experiment(small_config(agent_names=names, runs=3, m=4,
                                                common_tasks=False))
    assert calls["n"] == len(names) * config.runs * config.m
    for run in range(config.runs):
        assert len({trace.task_hashes[(label, run)] for label in widths}) == len(widths)


# ---------------------------------------------------------------------------
# engine equivalence: sha256 of every agent's instant-regret trace, then of
# the task hashes, pinned from the one-run-at-a-time engine this one replaced
# ---------------------------------------------------------------------------

GAUSSIAN_KINDS = ("ts", "oracle-ts", "meta-ts", "ada-ts", "ada-ts+", "ada-ts-", "ada-ts-forced")
MIXTURE_KINDS = ("ts", "oracle-ts", "meta-ts", "ada-ts", "misassigned-ts")

ENGINE_SPECS = {
    "gaussian": lambda: hierarchy.gaussian_env(3, 0.5, 0.1, 1.0),
    "semibandit": lambda: hierarchy.semibandit_env(6, 3, 0.5, 0.1, 1.0),
    "linear": lambda: hierarchy.linear_env(3, 1.0, 0.1, 1.0, num_arms=8),
    # point-mass meta-prior: meta-ts samples its center without noise
    "gaussian-point-meta": lambda: hierarchy.gaussian_env(2, 0.0, 0.1, 1.0, mu_q=[0.4, -0.3]),
    "gaussian-zero-width-arms": lambda: hierarchy.gaussian_env(3, 0.5, [0.0, 0.1, 0.0], 1.0),
    "semibandit-zero-width-arms": lambda: hierarchy.semibandit_env(
        4, 2, 0.5, [0.0, 0.1, 0.0, 0.1], 1.0),
    # dense point mass: meta-ts draws nothing from its stream
    "linear-point-meta": lambda: hierarchy.linear_env(2, 0.0, 0.1, 1.0, mu_q=[0.3, -0.2]),
    # collinear actions: every agent but ada-ts-forced, which refuses a set
    # that cannot span R^d
    "linear-collinear-actions": lambda: hierarchy.linear_env(
        2, 1.0, 0.1, 1.0, actions=[[0.5, 0.0], [0.25, 0.0], [0.1, 0.0]]),
    # singular task prior: oracle-ts posteriors factor only with jitter
    "linear-jitter": lambda: hierarchy.linear_env(2, 0.5, [0.1, 0.0], 1.0),
    "mixture": lambda: hierarchy.mixture_env(
        3, [[9, 9, 9], [1, 1, 1]], [[1, 1, 1], [9, 9, 9]]),
}

ENGINE_DIGESTS = {
    ("gaussian", True): "fc255485f7b4421bce53bfae855739dc4c5365fda416345d8e7e5c16c357c243",
    ("gaussian", False): "680ba2c705eee98758c6341e42a2b016d0bf55a4e9b07c55bd908b25ffa9ef0f",
    ("semibandit", True): "78f153e7a1a79df207147b0bd6f0ec842965da0c29026ab44453c6a810718afa",
    ("semibandit", False): "f42001baf80391e7f26febeb0dcc6e33062b3837cbc2b2a1347ef7824c298120",
    ("linear", True): "3aba890cf52c189cc34f21fb6fb1440b1bf35fa6cd4e13f57ca2f424786c2f73",
    ("linear", False): "698e3852bc0e9d212bf895d1ba69b83c476811a87605554c09786c95462b0f70",
    ("gaussian-point-meta", True): "7c592f51ca0c03a7796d4bec17a51ce0af0487477a91e1fc21df21f771880045",
    ("gaussian-point-meta", False): "5a31a29661d36623a1a3f837b3cbe1ee3699fcaeaa749e17586576f2f77f30fa",
    ("gaussian-zero-width-arms", True): "dd59a8c58d661227405a37c2c1f39956fe1d027c5776202681b18e733490e470",
    ("gaussian-zero-width-arms", False): "8f9afda06d0e3d982d54d1416414b2d8992646731e617d0bbb66c1e419744cd1",
    ("semibandit-zero-width-arms", True): "9bf3e5fdbaeb76968b8770483dcd9d6fab63719bc503a5b63c27106f00115feb",
    ("semibandit-zero-width-arms", False): "0dfad568238ecea3a5e036200ff532800b0f5f41d826a2dde13dfacad9dac1f9",
    ("linear-point-meta", True): "7e3928709fe928a9fd2013480dee6bba9614a038c6b3d06d5bcb95253c4e3b27",
    ("linear-point-meta", False): "4530ec0f86b30a056d25b90d4fbf7b27a3a39160e02217409ed8db96d97fcdd0",
    ("linear-collinear-actions", True): "80ea8c8083009bcb87dfbbf18cc181d7c94188d16c4cc46dbaf539398a520a2d",
    ("linear-collinear-actions", False): "8b37f18181a601c6581b0aa6ed8406c20484bb2aecc422a0c303faf0b1f39f1c",
    ("linear-jitter", True): "cf99de25962165aebb0f4b5a6423599a191721bae035ff5d2352f2185fa2b2ea",
    ("linear-jitter", False): "b6305ed8877eb1f0f0b3ddc01718d72aab60f6f19fb76ec4a29dd326b55c06ce",
    ("mixture", True): "cd9dc7aa8e85085b327db29e53b72f4c590e3c80ebbd6a1aade1620c28de5d94",
    ("mixture", False): "99019ad1ceaaadc59470c1cde78df1e797870157a89cc78e08fe13261286f8f8",
}


@pytest.mark.parametrize("name,common_tasks", list(ENGINE_DIGESTS))
def test_engine_reproduces_pinned_traces(name, common_tasks):
    spec = ENGINE_SPECS[name]()
    mixture = spec.family == hierarchy.BERNOULLI_MIXTURE
    kinds = MIXTURE_KINDS if mixture else GAUSSIAN_KINDS
    if name == "linear-collinear-actions":
        kinds = tuple(kind for kind in kinds if kind != "ada-ts-forced")
    config = small_config(agent_names=kinds, spec=spec, runs=3, m=5, n=12,
                          common_tasks=common_tasks)
    trace = harness.run_experiment(config)
    h = hashlib.sha256()
    for kind in config.agents:
        h.update(trace.instant[kind.label].tobytes())
    for key in sorted(trace.task_hashes):
        h.update(f"{key}={trace.task_hashes[key]}".encode())
    assert h.hexdigest() == ENGINE_DIGESTS[(name, common_tasks)]


def _replay_run(config, kind, run):
    """One run played task by task by a one-run agent from the run's own
    streams, as criterion 7's fixture does: (instant regret, final meta)."""
    spec = config.spec
    # common tasks: the task stream drops the agent label
    tasks_label = "" if config.common_tasks else kind.label
    tasks_rng = harness.stream(config.seed, "tasks", tasks_label, run)
    rewards_rng = harness.stream(config.seed, "rewards", kind.label, run)
    agent_rng = harness.stream(config.seed, "agent", kind.label, run)
    if spec.family == hierarchy.LINEAR and spec.actions is None:
        spec = spec.with_actions(hierarchy.sample_actions(spec, tasks_rng))
    mu_star = hierarchy.sample_meta_parameter(spec, tasks_rng)
    tasks = [hierarchy.sample_task(spec, mu_star, tasks_rng) for _ in range(config.m)]
    if spec.family == hierarchy.BERNOULLI_MIXTURE:
        agent = agents.MixtureFamilyAgent(kind, spec, agent_rng, mu_star)
    else:
        agent = agents.GaussianFamilyAgent(kind, spec, agent_rng, mu_star)
    instant = np.zeros((config.m, config.n))
    for s, task in enumerate(tasks, start=1):
        agent.begin_task(s, config.m)
        for t in range(1, config.n + 1):
            action = agent.act(t)
            assert np.ndim(action) == (spec.family == hierarchy.SEMIBANDIT)
            reward = hierarchy.realize_reward(spec, task, action, rewards_rng)
            instant[s - 1, t - 1] = hierarchy.instant_regret(spec, task, action)
            agent.observe(action, reward)
        agent.end_task()
    return instant, agent.meta


@pytest.mark.parametrize("common_tasks", [True, False])
def test_lockstep_mixture_agents_replay_as_one_run_agents(monkeypatch, common_tasks):
    """Every run of the lockstep mixture engine is what a one-run agent
    plays from that run's streams, bit for bit, with three components of
    unequal weight; one of them has Beta parameters <= 1, where numpy draws
    Beta variates by another algorithm."""
    built = []

    class Recorded(agents.MixtureFamilyAgent):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(agents, "MixtureFamilyAgent", Recorded)
    spec = hierarchy.mixture_env(
        4,
        alphas=[[9, 1, 1, 1], [1, 9, 1, 1], [0.5, 0.8, 2, 6]],
        betas=[[1, 9, 9, 9], [9, 1, 9, 9], [0.5, 0.9, 2, 1]],
        weights=[0.5, 0.3, 0.2],
    )
    config = small_config(agent_names=MIXTURE_KINDS, spec=spec, runs=5, m=4, n=9,
                          seed=23, common_tasks=common_tasks)
    trace = harness.run_experiment(config)
    # every mixture agent plays its tasks one after another: one block of
    # (kind, run) rows
    (lockstep,) = built
    assert lockstep.lead == (len(config.agents) * config.runs,)
    assert lockstep.kinds == tuple(kind for kind in config.agents for _ in range(config.runs))
    monkeypatch.undo()
    for kind in config.agents:
        for run in range(config.runs):
            instant, meta = _replay_run(config, kind, run)
            assert trace.instant[kind.label][run].tobytes() == instant.tobytes()
            if kind.label == "ada-ts":
                row = config.agents.index(kind) * config.runs + run
                whole = lockstep.meta.weights[row]
                assert whole.tobytes() == meta.weights.tobytes()
                kept = trace.final_meta["ada-ts"].weights[run]
                assert kept.tobytes() == meta.weights.tobytes()


@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_final_meta_is_each_runs_meta_after_its_last_task(family):
    """Every agent's final meta-posterior, kept with the leading shape
    (runs,), is row by row the one a one-run agent ends with; for the
    agents that play all tasks at once it is the meta-prior."""
    names = MIXTURE_KINDS if family == "mixture" else GAUSSIAN_KINDS
    config = small_config(agent_names=names, spec=FAMILY_SPECS[family](), runs=3, m=4,
                          n=6, seed=17, common_tasks=False)
    trace = harness.run_experiment(config)
    assert list(trace.final_meta) == list(names)
    for kind in config.agents:
        kept = trace.final_meta[kind.label]
        for run in range(config.runs):
            _, meta = _replay_run(config, kind, run)
            assert type(kept) is type(meta)
            for name in meta.__slots__:
                assert getattr(kept, name).shape[0] == config.runs
                assert getattr(kept, name)[run].tobytes() == getattr(meta, name).tobytes()


@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_traces_do_not_depend_on_the_refill_size(monkeypatch, family):
    """Streams refilled at every task, once per run, or every MIN_BLOCK
    draws give every row the same draws: the same traces, task hashes and
    final meta-posteriors."""
    names = MIXTURE_KINDS if family == "mixture" else GAUSSIAN_KINDS
    config = small_config(agent_names=names, spec=FAMILY_SPECS[family](), runs=3, m=5, n=7)
    traces = []
    for floor in (1, config.m * config.n + 3, harness.MIN_BLOCK):
        monkeypatch.setattr(harness, "MIN_BLOCK", floor)
        traces.append(harness.run_experiment(config))
    first = traces[0]
    for trace in traces[1:]:
        assert trace.task_hashes == first.task_hashes
        for label in names:
            assert trace.instant[label].tobytes() == first.instant[label].tobytes()
            for name in first.final_meta[label].__slots__:
                kept = getattr(trace.final_meta[label], name)
                assert kept.tobytes() == getattr(first.final_meta[label], name).tobytes()


@pytest.mark.parametrize("family", ["gaussian", "mixture"])
@pytest.mark.parametrize("n", [7, 300])
def test_only_streams_with_a_task_axis_refill_per_task(monkeypatch, family, n):
    """Agents that play all tasks at once draw one task's rounds per block,
    for every task at once; any other agent's streams refill every
    max(n, 256) draws or more."""
    built = []

    class Recorded(harness.RunStreams):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(harness, "RunStreams", Recorded)
    names = ("ts", "oracle-ts", "meta-ts", "ada-ts") + (() if family == "mixture" else ("ada-ts+",))
    config = small_config(agent_names=names, spec=FAMILY_SPECS[family](), runs=3, m=2, n=n)
    harness.run_experiment(config)
    at_once = sum(agents.plays_tasks_at_once(kind, config.spec.family) for kind in config.agents)
    assert at_once == (2 if family == "gaussian" else 0)
    # an agent and a reward stream for each block: one of the agents that
    # play their tasks one after another, and one per agent that plays all
    # tasks at once
    assert len(built) == 2 * (1 + at_once)
    assert sum(len(streams.lead) == 2 for streams in built) == 2 * at_once
    for streams in built:
        if len(streams.lead) == 2:
            assert (streams.block, streams.lead) == (n, (config.m, config.runs))
        else:
            assert streams.block >= max(n, 256)


@pytest.mark.parametrize("family", ["gaussian", "semibandit", "linear"])
@pytest.mark.parametrize("common_tasks", [True, False])
def test_agents_that_play_all_tasks_at_once_replay_task_by_task(monkeypatch, family,
                                                                common_tasks):
    """ts and oracle-ts play all m tasks of every run at once; each run is
    what a one-run agent plays task by task from the run's streams."""
    leads = []
    real_act = agents.GaussianFamilyAgent.act

    def recording(agent, t):
        leads.append(agent.lead)
        return real_act(agent, t)

    monkeypatch.setattr(agents.GaussianFamilyAgent, "act", recording)
    config = small_config(agent_names=("ts", "oracle-ts"), spec=FAMILY_SPECS[family](),
                          runs=3, m=4, n=6, seed=19, common_tasks=common_tasks)
    trace = harness.run_experiment(config)
    assert leads == [(config.m, config.runs)] * (2 * config.n)
    monkeypatch.undo()
    for kind in config.agents:
        for run in range(config.runs):
            instant, _ = _replay_run(config, kind, run)
            assert trace.instant[kind.label][run].tobytes() == instant.tobytes()


@pytest.mark.parametrize("family", ["gaussian", "semibandit", "linear"])
@pytest.mark.parametrize("common_tasks", [True, False])
def test_rescaled_agents_play_as_one_batch_with_the_bits_of_each_alone(monkeypatch, family,
                                                                       common_tasks):
    """ada-ts, ada-ts+ and ada-ts- play as one agent over (agent, run) rows,
    each label with its own world when tasks are not common; every label's
    trace and task hashes are those it gets played alone."""
    built = []
    real_init = agents.GaussianFamilyAgent.__init__

    def recording(agent, *args, **kwargs):
        real_init(agent, *args, **kwargs)
        built.append(agent.lead)

    monkeypatch.setattr(agents.GaussianFamilyAgent, "__init__", recording)
    names = ("ada-ts", "ts", "ada-ts+", "ada-ts-")
    kwargs = dict(spec=FAMILY_SPECS[family](), runs=3, m=4, n=6, seed=29,
                  common_tasks=common_tasks)
    trace = harness.run_experiment(small_config(agent_names=names, **kwargs))
    assert list(trace.instant) == list(names)
    assert sorted(built) == [(4, 3), (9,)]
    monkeypatch.undo()
    for name in names:
        alone = harness.run_experiment(small_config(agent_names=(name,), **kwargs))
        assert trace.instant[name].tobytes() == alone.instant[name].tobytes()
        for run in range(3):
            assert trace.task_hashes[(name, run)] == alone.task_hashes[(name, run)]


@pytest.mark.parametrize("family", list(FAMILY_SPECS))
@pytest.mark.parametrize("common_tasks", [True, False])
def test_a_block_of_every_policy_has_the_bits_of_each_alone(monkeypatch, family, common_tasks):
    """Every policy that plays its tasks one after another shares one block
    of (kind, run) rows; each label's trace, task hashes and final
    meta-posterior are those it gets played alone."""
    leads = []
    agent_class = agents.MixtureFamilyAgent if family == "mixture" else agents.GaussianFamilyAgent
    real_init = agent_class.__init__

    def recording(agent, *args, **kwargs):
        real_init(agent, *args, **kwargs)
        leads.append(agent.lead)

    monkeypatch.setattr(agent_class, "__init__", recording)
    names = MIXTURE_KINDS if family == "mixture" else GAUSSIAN_KINDS
    kwargs = dict(spec=FAMILY_SPECS[family](), runs=3, m=5, n=6, seed=31,
                  common_tasks=common_tasks)
    config = small_config(agent_names=names, **kwargs)
    trace = harness.run_experiment(config)
    sequential = [kind for kind in config.agents
                  if not agents.plays_tasks_at_once(kind, config.spec.family)]
    assert (len(sequential) * config.runs,) in leads
    assert len(leads) == 1 + len(config.agents) - len(sequential)
    monkeypatch.undo()
    for name in names:
        alone = harness.run_experiment(small_config(agent_names=(name,), **kwargs))
        assert trace.instant[name].tobytes() == alone.instant[name].tobytes()
        for run in range(config.runs):
            assert trace.task_hashes[(name, run)] == alone.task_hashes[(name, run)]
        for slot in alone.final_meta[name].__slots__:
            kept = getattr(trace.final_meta[name], slot)
            assert kept.tobytes() == getattr(alone.final_meta[name], slot).tobytes()


def test_cumulative_is_monotone_and_flattened():
    config = small_config()
    trace = harness.run_experiment(config)
    for kind in config.agents:
        cum = trace.cumulative(kind.label)
        flat = cum.reshape(config.runs, -1)
        assert np.all(np.diff(flat, axis=1) >= 0)
        inst = trace.instant[kind.label].reshape(config.runs, -1)
        assert np.allclose(np.diff(flat, axis=1), inst[:, 1:])
        assert np.allclose(flat[:, 0], inst[:, 0])


def test_cumulative_unknown_agent():
    trace = harness.run_experiment(small_config())
    with pytest.raises(harness.UnknownAgent):
        trace.cumulative("ucb")


def test_harness_and_agents_share_unknown_agent():
    assert harness.UnknownAgent is agents.UnknownAgent


def test_aggregate_hand_example():
    config = small_config(agent_names=("ts",), runs=2, m=1, n=1)
    trace = harness.RegretTrace(
        config,
        {"ts": np.array([[[1.0]], [[3.0]]])},
        {("ts", 0): "a", ("ts", 1): "b"},
    )
    curve = harness.aggregate(trace)
    assert curve.mean["ts"][0, 0] == pytest.approx(2.0)
    assert curve.stderr["ts"][0, 0] == pytest.approx(1.0)  # std sqrt(2) / sqrt(2)


def test_aggregate_single_run_zero_stderr():
    config = small_config(agent_names=("ts",), runs=1)
    curve = harness.aggregate(harness.run_experiment(config))
    assert np.all(curve.stderr["ts"] == 0.0)


def test_aggregate_empty_runs_rejected():
    config = small_config(agent_names=("ts",), runs=1)
    trace = harness.RegretTrace(
        config, {"ts": np.zeros((0, config.m, config.n))}, {}
    )
    with pytest.raises(harness.EmptyTrace):
        harness.aggregate(trace)


def test_final_regret_reads_last_cell():
    config = small_config(agent_names=("ts",), runs=2, m=2, n=3)
    trace = harness.run_experiment(config)
    curve = harness.aggregate(trace)
    expected = trace.cumulative("ts")[:, -1, -1].mean()
    assert harness.final_regret(curve, "ts") == pytest.approx(expected)
    with pytest.raises(harness.UnknownAgent):
        harness.final_regret(curve, "ucb")


def test_oracle_with_point_task_prior_never_errs():
    spec = hierarchy.gaussian_env(3, sigma_q=0.5, sigma_0=0.0, noise_sigma=1.0)
    config = small_config(agent_names=("oracle-ts",), spec=spec, runs=2)
    trace = harness.run_experiment(config)
    assert np.all(trace.instant["oracle-ts"] == 0.0)


def test_no_agent_beats_oracle_meaningfully():
    config = small_config(
        agent_names=("ts", "meta-ts", "ada-ts", "oracle-ts"), runs=8, m=6, n=40
    )
    curve = harness.aggregate(harness.run_experiment(config))
    oracle = harness.final_regret(curve, "oracle-ts")
    oracle_err = curve.stderr["oracle-ts"][-1, -1]
    for label in ("ts", "meta-ts", "ada-ts"):
        margin = 2.0 * (oracle_err + curve.stderr[label][-1, -1])
        assert harness.final_regret(curve, label) >= oracle - margin


def test_linear_runs_resample_action_sets():
    spec = hierarchy.linear_env(2, sigma_q=1.0, sigma_0=0.1, noise_sigma=1.0)
    config = small_config(agent_names=("ada-ts",), spec=spec, runs=2, m=2, n=8)
    trace = harness.run_experiment(config)
    assert trace.instant["ada-ts"].shape == (2, 2, 8)
    assert trace.task_hashes[("ada-ts", 0)] != trace.task_hashes[("ada-ts", 1)]


def test_forced_linear_agent_runs_end_to_end(monkeypatch):
    """On sampled action sets every action of ada-ts-forced, its opening
    rounds included, is an index into each run's own set, and no instant
    regret is negative."""
    played = []
    real_act = agents.GaussianFamilyAgent.act

    def recording(agent, t):
        action = real_act(agent, t)
        played.append(action)
        return action

    monkeypatch.setattr(agents.GaussianFamilyAgent, "act", recording)
    for dim in (2, 3):
        played.clear()
        spec = hierarchy.linear_env(dim, sigma_q=1.0, sigma_0=0.1, noise_sigma=1.0)
        config = small_config(agent_names=("ada-ts-forced",), spec=spec, runs=4, m=5, n=6)
        trace = harness.run_experiment(config)
        assert len(played) == config.m * config.n
        for action in played:
            assert action.shape == (config.runs,) and action.dtype.kind == "i"
            assert np.all((0 <= action) & (action < spec.num_arms))
        assert np.all(trace.instant["ada-ts-forced"] >= 0.0)


def test_mixture_family_runs_end_to_end():
    spec = hierarchy.mixture_env(
        3,
        alphas=[[9, 9, 9], [1, 1, 1]],
        betas=[[1, 1, 1], [9, 9, 9]],
    )
    config = small_config(
        agent_names=("ada-ts", "oracle-ts", "misassigned-ts"), spec=spec, runs=2, m=3, n=12
    )
    trace = harness.run_experiment(config)
    for label in ("ada-ts", "oracle-ts", "misassigned-ts"):
        assert np.all(trace.instant[label] >= 0.0)


def test_failure_diagnostic_names_the_unit(monkeypatch):
    config = small_config(agent_names=("ada-ts",), runs=1, m=3, n=4)
    real = hierarchy.realize_reward
    calls = {"left": 6}  # blow up mid-task-2 (after 4 + 2 rewards)

    def flaky(spec, task, action, rng):
        if calls["left"] == 0:
            raise FloatingPointError("synthetic numeric failure")
        calls["left"] -= 1
        return real(spec, task, action, rng)

    monkeypatch.setattr(hierarchy, "realize_reward", flaky)
    with pytest.raises(RuntimeError, match="agent=ada-ts run=0 task=2 round=3"):
        harness.run_single(config, config.agents[0], 0)
    monkeypatch.undo()
    real_begin = agents.GaussianFamilyAgent.begin_task

    def failing_setup(agent, s, m):
        if s == 2:
            raise FloatingPointError("synthetic set-up failure")
        real_begin(agent, s, m)

    monkeypatch.setattr(agents.GaussianFamilyAgent, "begin_task", failing_setup)
    with pytest.raises(RuntimeError, match="agent=ada-ts run=0 task=2 round=0"):
        harness.run_single(config, config.agents[0], 0)


def _fail_after(monkeypatch, rewards):
    """Make realize_reward raise once it has been called `rewards` times."""
    real = hierarchy.realize_reward
    calls = {"left": rewards}

    def flaky(spec, task, action, rng):
        if calls["left"] == 0:
            raise FloatingPointError("synthetic numeric failure")
        calls["left"] -= 1
        return real(spec, task, action, rng)

    monkeypatch.setattr(hierarchy, "realize_reward", flaky)


def test_failure_of_all_tasks_at_once_names_every_task(monkeypatch):
    config = small_config(agent_names=("oracle-ts",), runs=3, m=5, n=4)
    _fail_after(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"agent=oracle-ts run=0\.\.2 task=1\.\.5 round=3:"):
        harness.run_experiment(config)


def test_failure_of_a_batch_names_every_agent_in_it(monkeypatch):
    config = small_config(agent_names=("ada-ts", "ada-ts+", "ada-ts-"), runs=3, m=3, n=4)
    _fail_after(monkeypatch, 6)
    with pytest.raises(RuntimeError, match=r"run failed at agent=ada-ts,ada-ts\+,ada-ts- "
                                           r"run=0\.\.2 task=2 round=3:"):
        harness.run_experiment(config)


def test_failure_of_a_block_of_policies_names_every_agent_in_it(monkeypatch):
    config = small_config(agent_names=("meta-ts", "ada-ts"), runs=3, m=3, n=4)
    _fail_after(monkeypatch, 6)
    with pytest.raises(RuntimeError, match=r"run failed at agent=meta-ts,ada-ts "
                                           r"run=0\.\.2 task=2 round=3:"):
        harness.run_experiment(config)


def test_failure_while_the_agent_is_built_names_the_unit():
    """Forced exploration refuses a collinear action set when the agent is
    built; the error names the agent and runs like any other run failure."""
    spec = hierarchy.linear_env(2, 1.0, 0.1, 1.0, actions=[[0.5, 0.0], [0.25, 0.0], [0.1, 0.0]])
    config = small_config(agent_names=("ada-ts-forced",), spec=spec)
    with pytest.raises(RuntimeError, match=r"run failed at agent=ada-ts-forced run=0\.\.2 "
                                           r"task=0 round=0: the 3 actions do not span R\^2"):
        harness.run_experiment(config)
