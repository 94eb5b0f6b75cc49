"""Acceptance suite: behaviour guarantees on the reference configurations.

Every test prints one ``ACCEPTANCE <n> <name>: PASS|FAIL`` line (run with
``pytest -s`` to see them for passing tests too) and then asserts its
clauses.  The heavyweight experiments are shared across criteria through
module-scoped fixtures.
"""

import time

import numpy as np
import pytest
from scipy.special import logsumexp

from metabandit import agents, bounds, cli, harness, hierarchy
from metabandit.gauss_core import RngStream, solve_spd, spd_inverse

SEED = 7


def verdict(num, name, ok):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def experiment(spec, names, m, n, runs):
    kinds = tuple(agents.AgentKind.from_name(name) for name in names)
    config = harness.ExperimentConfig(
        spec=spec, agents=kinds, m=m, n=n, runs=runs, seed=SEED
    )
    start = time.perf_counter()
    trace = harness.run_experiment(config)
    elapsed = time.perf_counter() - start
    return harness.aggregate(trace), elapsed


def final_and_stderr(curve, label):
    return harness.final_regret(curve, label), float(curve.stderr[label][-1, -1])


@pytest.fixture(scope="module")
def gaussian_panel():
    spec = hierarchy.gaussian_env(2, sigma_q=0.5, sigma_0=0.1, noise_sigma=1.0)
    names = ("ts", "oracle-ts", "meta-ts", "ada-ts", "ada-ts+", "ada-ts-")
    return experiment(spec, names, m=20, n=200, runs=100)


@pytest.fixture(scope="module")
def wide_gaussian_panel():
    spec = hierarchy.gaussian_env(2, sigma_q=1.0, sigma_0=0.1, noise_sigma=1.0)
    return experiment(spec, ("oracle-ts", "meta-ts", "ada-ts"), m=20, n=200, runs=100)


@pytest.fixture(scope="module")
def linear_panel():
    spec = hierarchy.linear_env(2, sigma_q=1.0, sigma_0=0.1, noise_sigma=1.0)
    curve, elapsed = experiment(
        spec, ("meta-ts", "ada-ts", "ada-ts-forced"), m=20, n=200, runs=100
    )
    return spec, curve, elapsed


@pytest.fixture(scope="module")
def semibandit_panel():
    spec = hierarchy.semibandit_env(
        8, budget=2, sigma_q=0.5,
        sigma_0=[0.0, 0.0, 0.0, 0.0, 0.1, 0.1, 0.1, 0.1], noise_sigma=1.0,
    )
    curve, _ = experiment(spec, ("ada-ts-forced",), m=20, n=100, runs=50)
    return spec, curve


@pytest.fixture(scope="module")
def mixture_panel():
    spec = hierarchy.mixture_env(
        3,
        alphas=[[9.0, 9.0, 9.0], [1.0, 1.0, 1.0]],
        betas=[[1.0, 1.0, 1.0], [9.0, 9.0, 9.0]],
    )
    m, n, runs = 10, 50, 200
    kinds = tuple(agents.AgentKind.from_name(name) for name in ("ada-ts", "misassigned-ts"))
    config = harness.ExperimentConfig(
        spec=spec, agents=kinds, m=m, n=n, runs=runs, seed=SEED
    )
    trace = harness.run_experiment(config)
    curve = harness.aggregate(trace)
    # the adaptive agent's final component weights, at each run's true
    # component; common tasks: the task stream drops the agent label
    weights = trace.final_meta["ada-ts"].weights
    true_weights = []
    for run in range(runs):
        tasks_rng = harness.stream(SEED, "tasks", "", run)
        component = hierarchy.sample_meta_parameter(spec, tasks_rng)
        true_weights.append(weights[run, int(component)])
    return curve, float(np.mean(true_weights))


# ---------------------------------------------------------------------------
# 1. narrow-meta-prior ordering
# ---------------------------------------------------------------------------


def test_criterion_1_gaussian_ordering(gaussian_panel):
    curve, elapsed = gaussian_panel
    final, err = {}, {}
    for label in ("ts", "oracle-ts", "meta-ts", "ada-ts"):
        final[label], err[label] = final_and_stderr(curve, label)
    gaps_ok = (
        final["ada-ts"] - final["oracle-ts"] > err["ada-ts"] + err["oracle-ts"]
        and final["meta-ts"] - final["ada-ts"] > err["meta-ts"] + err["ada-ts"]
        and final["ts"] - final["meta-ts"] > err["ts"] + err["meta-ts"]
    )
    ratio = final["ada-ts"] / final["meta-ts"]
    ratio_ok = 0.55 <= ratio <= 0.90
    time_ok = elapsed < 120.0
    ok = verdict(
        1,
        f"gaussian ordering (ratio {ratio:.3f}, {elapsed:.0f}s)",
        gaps_ok and ratio_ok and time_ok,
    )
    assert ok, (final, err, ratio, elapsed)


# ---------------------------------------------------------------------------
# 2. wide meta-prior: near-oracle adaptivity
# ---------------------------------------------------------------------------


def test_criterion_2_wide_prior_near_oracle(wide_gaussian_panel):
    curve, _ = wide_gaussian_panel
    oracle, _ = final_and_stderr(curve, "oracle-ts")
    ada, _ = final_and_stderr(curve, "ada-ts")
    meta, _ = final_and_stderr(curve, "meta-ts")
    near_oracle = ada <= 1.25 * oracle
    meta_gap = meta >= 1.5 * ada
    ok = verdict(
        2,
        f"wide-prior near-oracle (ada/oracle {ada / oracle:.2f}, meta/ada {meta / ada:.2f})",
        near_oracle and meta_gap,
    )
    assert ok, (oracle, ada, meta)


# ---------------------------------------------------------------------------
# 3. linear family advantage
# ---------------------------------------------------------------------------


def test_criterion_3_linear_ratio(linear_panel):
    _, curve, elapsed = linear_panel
    meta, _ = final_and_stderr(curve, "meta-ts")
    ada, _ = final_and_stderr(curve, "ada-ts")
    ratio = meta / ada
    ok = verdict(
        3, f"linear advantage (meta/ada {ratio:.2f}, {elapsed:.0f}s)",
        ratio >= 2.5 and elapsed < 300.0,
    )
    assert ok, (meta, ada, elapsed)


# ---------------------------------------------------------------------------
# 4. misspecified meta-prior widths
# ---------------------------------------------------------------------------


def test_criterion_4_misspecification_tolerance(gaussian_panel):
    curve, _ = gaussian_panel
    ada, _ = final_and_stderr(curve, "ada-ts")
    wide, _ = final_and_stderr(curve, "ada-ts+")
    narrow, _ = final_and_stderr(curve, "ada-ts-")
    dev_wide = abs(wide - ada) / ada
    dev_narrow = abs(narrow - ada) / ada
    ok = verdict(
        4,
        f"misspecification tolerance (+{dev_wide:.1%} / -{dev_narrow:.1%})",
        dev_wide <= 0.35 and dev_narrow <= 0.35,
    )
    assert ok, (ada, wide, narrow)


# ---------------------------------------------------------------------------
# 5. bound domination
# ---------------------------------------------------------------------------


def min_run_exploration_strength(spec, runs):
    """Smallest spanning strength any run's chosen exploration actions
    achieve; the conservative bound input."""
    etas = []
    for run in range(runs):
        actions = hierarchy.sample_actions(spec, harness.stream(SEED, "tasks", "", run))
        _, eta = agents.choose_spanning_actions(actions)
        etas.append(eta)
    return min(etas)


def test_criterion_5_bounds_dominate(linear_panel, semibandit_panel):
    lin_spec, lin_curve, _ = linear_panel
    lin_empirical, _ = final_and_stderr(lin_curve, "ada-ts-forced")
    eta = min_run_exploration_strength(lin_spec, runs=100)
    lin_bound, _ = bounds.total_bound_linear(
        bounds.inputs_from_env(lin_spec, m=20, n=200, eta=eta)
    )
    semi_spec, semi_curve = semibandit_panel
    semi_empirical, _ = final_and_stderr(semi_curve, "ada-ts-forced")
    semi_bound, _ = bounds.total_bound_semibandit(
        bounds.inputs_from_env(semi_spec, m=20, n=100)
    )
    ok = verdict(
        5,
        "bound domination "
        f"(linear {lin_empirical:.0f} < {lin_bound:.0f}, "
        f"semibandit {semi_empirical:.0f} < {semi_bound:.0f})",
        lin_bound > lin_empirical and semi_bound > semi_empirical,
    )
    assert ok, (lin_empirical, lin_bound, semi_empirical, semi_bound)


# ---------------------------------------------------------------------------
# 6. oracle-equivalence identity suite
# ---------------------------------------------------------------------------


def batch_diagonal(spec, summaries):
    prec = 1.0 / np.diag(spec.sigma_q)
    shift = spec.mu_q * prec
    for summary in summaries:
        pulled = summary.counts > 0
        w = summary.counts[pulled] / (
            summary.counts[pulled] * np.diag(spec.sigma_0)[pulled]
            + spec.noise_sigma**2
        )
        prec[pulled] += w
        shift[pulled] += w * summary.sums[pulled] / summary.counts[pulled]
    return shift / prec, 1.0 / prec


def batch_linear(spec, summaries):
    noise_var = spec.noise_sigma**2
    prec = spd_inverse(spec.sigma_q)
    shift = prec @ spec.mu_q
    for summary in summaries:
        c = summary.gram / noise_var
        b = summary.weighted / noise_var
        deflate = c @ spd_inverse(spd_inverse(spec.sigma_0) + c)
        prec = prec + c - deflate @ c
        shift = shift + b - deflate @ b
    return solve_spd(prec, shift), spd_inverse(prec)


def recursive_vs_batch_agree():
    rng = np.random.default_rng(60)
    spec = hierarchy.gaussian_env(3, 0.8, 0.15, 1.1)
    meta = agents.initial_meta_posterior(spec)
    summaries = []
    for _ in range(5):
        summary = agents.ArmSummary(3)
        for _ in range(int(rng.integers(0, 10))):
            summary.add(int(rng.integers(3)), float(rng.standard_normal()))
        summaries.append(summary)
        meta = agents.end_task_gaussian(meta, summary, spec)
    mean, var = batch_diagonal(spec, summaries)
    diag_ok = np.allclose(meta.mean, mean, rtol=1e-8) and np.allclose(
        meta.var, var, rtol=1e-8
    )
    actions = rng.uniform(-0.5, 0.5, size=(10, 2))
    lin_spec = hierarchy.linear_env(2, 1.0, 0.1, 1.0, actions=actions)
    lin_meta = agents.initial_meta_posterior(lin_spec)
    lin_summaries = []
    for _ in range(5):
        summary = agents.LinearSummary(2)
        for _ in range(int(rng.integers(1, 12))):
            summary.add(actions[rng.integers(10)], float(rng.standard_normal()))
        lin_summaries.append(summary)
        lin_meta = agents.end_task_linear(lin_meta, summary, lin_spec)
    lin_mean, lin_cov = batch_linear(lin_spec, lin_summaries)
    lin_ok = np.allclose(lin_meta.mean, lin_mean, rtol=1e-8, atol=1e-10) and np.allclose(
        lin_meta.cov, lin_cov, rtol=1e-8, atol=1e-10
    )
    return diag_ok and lin_ok


def grid_oracle_agrees():
    """Brute-force scalar posterior over the task-prior mean on a 2001**2
    grid, against the closed-form recursion; two tasks of three rounds."""
    sigma_q, sigma_0, noise = 1.0, 0.3, 1.0
    rewards = [(0.9, 1.1, 0.7), (1.2, 0.8, 1.0)]
    grid = np.linspace(-6.0, 6.0, 2001)
    log_post = -0.5 * grid**2 / sigma_q**2
    kernel = -0.5 * (grid[:, None] - grid[None, :]) ** 2 / sigma_0**2
    for task in rewards:
        loglik = np.zeros_like(grid)
        for y in task:
            loglik += -0.5 * (y - grid) ** 2 / noise**2
        log_post += logsumexp(kernel + loglik[None, :], axis=1)
    pdf = np.exp(log_post - log_post.max())
    pdf /= np.trapezoid(pdf, grid)
    grid_mean = np.trapezoid(grid * pdf, grid)
    grid_var = np.trapezoid((grid - grid_mean) ** 2 * pdf, grid)

    spec = hierarchy.gaussian_env(1, sigma_q, sigma_0, noise)
    meta = agents.initial_meta_posterior(spec)
    for task in rewards:
        summary = agents.ArmSummary(1)
        for y in task:
            summary.add(0, y)
        meta = agents.end_task_gaussian(meta, summary, spec)
    mean_ok = abs(meta.mean[0] - grid_mean) <= 1e-3 * abs(grid_mean)
    var_ok = abs(meta.var[0] - grid_var) <= 1e-3 * grid_var
    return mean_ok and var_ok


def basis_embedding_agrees():
    gauss = hierarchy.gaussian_env(2, 0.5, 0.1, 1.0)
    lin = hierarchy.linear_env(
        2, 0.5, 0.1, 1.0, num_arms=2, actions=np.eye(2)
    )
    arm_agent = agents.GaussianFamilyAgent(
        agents.AgentKind("ada-ts"), gauss, RngStream(SEED, 1)
    )
    lin_agent = agents.GaussianFamilyAgent(
        agents.AgentKind("ada-ts"), lin, RngStream(SEED, 1)
    )
    rewards = RngStream(SEED, 2)
    for s in range(1, 4):
        arm_agent.begin_task(s, 3)
        lin_agent.begin_task(s, 3)
        for t in range(1, 8):
            a1, a2 = arm_agent.act(t), lin_agent.act(t)
            if a1 != a2:
                return False
            y = float(rewards.normal())
            arm_agent.observe(a1, y)
            lin_agent.observe(a2, y)
        arm_agent.end_task()
        lin_agent.end_task()
        if not np.allclose(lin_agent.meta.mean, arm_agent.meta.mean, atol=1e-10):
            return False
        if not np.allclose(np.diag(lin_agent.meta.cov), arm_agent.meta.var, atol=1e-10):
            return False
    return True


def point_mass_identity_holds():
    mu_q = np.array([0.4, -0.3])
    spec = hierarchy.gaussian_env(2, 0.0, 0.1, 1.0, mu_q=mu_q)
    ada = agents.GaussianFamilyAgent(agents.AgentKind("ada-ts"), spec, RngStream(SEED, 3))
    oracle = agents.GaussianFamilyAgent(
        agents.AgentKind("oracle-ts"), spec, RngStream(SEED, 3), mu_star=mu_q
    )
    rewards = RngStream(SEED, 4)
    for s in range(1, 4):
        ada.begin_task(s, 3)
        oracle.begin_task(s, 3)
        for t in range(1, 6):
            a1, a2 = ada.act(t), oracle.act(t)
            if a1 != a2:
                return False
            y = float(rewards.normal())
            ada.observe(a1, y)
            oracle.observe(a2, y)
            if not (
                np.array_equal(ada.post.mean, oracle.post.mean)
                and np.array_equal(ada.post.var, oracle.post.var)
            ):
                return False
        ada.end_task()
        oracle.end_task()
    return True


def concentration_monotone(sequences=1000):
    rng = np.random.default_rng(61)
    for _ in range(sequences):
        k = int(rng.integers(1, 4))
        spec = hierarchy.gaussian_env(
            k,
            float(rng.uniform(0.2, 1.5)),
            float(rng.uniform(0.05, 0.5)),
            float(rng.uniform(0.5, 1.5)),
        )
        meta = agents.initial_meta_posterior(spec)
        for _ in range(2):
            summary = agents.ArmSummary(k)
            for _ in range(int(rng.integers(0, 4))):
                summary.add(int(rng.integers(k)), float(rng.standard_normal()))
            new = agents.end_task_gaussian(meta, summary, spec)
            if np.any(new.var > meta.var + 1e-12):
                return False
            meta = new
        post = agents.DiagonalTaskPosterior(np.zeros(k), np.full(k, 1.0))
        for _ in range(3):
            new_post = post.copy()
            new_post.update(int(rng.integers(k)), float(rng.standard_normal()), 1.0)
            if np.any(new_post.var > post.var + 1e-15):
                return False
            post = new_post
    return True


def test_criterion_6_identity_suite():
    start = time.perf_counter()
    results = {
        "recursive=batch": recursive_vs_batch_agree(),
        "grid oracle": grid_oracle_agrees(),
        "basis embedding": basis_embedding_agrees(),
        "point mass": point_mass_identity_holds(),
        "monotone": concentration_monotone(),
    }
    elapsed = time.perf_counter() - start
    ok = verdict(
        6, f"identity suite ({elapsed:.1f}s)", all(results.values()) and elapsed < 30.0
    )
    assert ok, (results, elapsed)


# ---------------------------------------------------------------------------
# 7. mixture-prior adaptivity
# ---------------------------------------------------------------------------


def test_criterion_7_mixture_identification(mixture_panel):
    curve, mean_true_weight = mixture_panel
    ada, ada_err = final_and_stderr(curve, "ada-ts")
    wrong, wrong_err = final_and_stderr(curve, "misassigned-ts")
    weight_ok = mean_true_weight > 0.9
    regret_ok = wrong - ada > 2.0 * (ada_err + wrong_err)
    ok = verdict(
        7,
        f"mixture identification (weight {mean_true_weight:.3f}, "
        f"regret {ada:.2f} vs {wrong:.2f})",
        weight_ok and regret_ok,
    )
    assert ok, (mean_true_weight, ada, wrong, ada_err, wrong_err)


# ---------------------------------------------------------------------------
# 8. reproducibility
# ---------------------------------------------------------------------------


def test_criterion_8_byte_identical_csv(tmp_path, capsys):
    argv = [
        "run", "--env", "gaussian", "--arms", "2", "--sigma-q", "0.5",
        "--sigma-0", "0.1", "--noise", "1", "--tasks", "20", "--rounds", "200",
        "--runs", "6", "--agents", "ts,oracle-ts,meta-ts,ada-ts", "--seed", "7",
    ]
    paths = [tmp_path / name for name in ("first.csv", "second.csv", "threaded.csv")]
    codes = [
        cli.main(argv + ["--out", str(paths[0])]),
        cli.main(argv + ["--out", str(paths[1])]),
        cli.main(argv + ["--out", str(paths[2]), "--threads", "8"]),
    ]
    capsys.readouterr()
    blobs = [path.read_bytes() for path in paths]
    ok = verdict(
        8, "byte-identical reruns and thread independence",
        codes == [0, 0, 0] and blobs[0] == blobs[1] == blobs[2],
    )
    assert ok, codes
