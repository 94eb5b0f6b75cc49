"""Policies and their conjugate updates, across all reward families."""

import math
import re

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy import stats
from scipy.special import betaln, expit

from metabandit import agents, hierarchy
from metabandit.gauss_core import RngStream, RunStreams, cholesky, spd_inverse, solve_spd


def gauss_spec(num_arms=2, sigma_q=1.0, sigma_0=0.1, noise=1.0, mu_q=None):
    return hierarchy.gaussian_env(num_arms, sigma_q, sigma_0, noise, mu_q=mu_q)


# ---------------------------------------------------------------------------
# AgentKind and misspecification
# ---------------------------------------------------------------------------


def test_agent_kind_names():
    kind = agents.AgentKind.from_name("ts")
    assert kind.base == agents.AGNOSTIC_TS and kind.scale == 1.0 and kind.label == "ts"
    wide = agents.AgentKind.from_name("ada-ts+")
    assert wide.base == agents.ADA_TS and wide.scale == 3.0 and wide.label == "ada-ts+"
    narrow = agents.AgentKind.from_name("ada-ts-")
    assert narrow.scale == pytest.approx(1 / 3)
    with pytest.raises(agents.UnknownAgent):
        agents.AgentKind.from_name("ucb")


def test_scale_meta_prior():
    spec = gauss_spec(sigma_q=0.5)
    prior = np.diag(spec.sigma_q)
    assert agents.initial_meta_posterior(spec, scale=1.0).var.tobytes() == prior.tobytes()
    assert np.allclose(agents.initial_meta_posterior(spec, scale=3.0).var, 9 * prior)
    assert np.allclose(agents.initial_meta_posterior(spec, scale=1 / 3).var, prior / 9)
    per_row = agents.initial_meta_posterior(spec, (4, 3), scale=[1.0, 3.0, 1 / 3])
    assert per_row.var.shape == (4, 3, 2)
    assert np.allclose(per_row.var[0], [prior, 9 * prior, prior / 9])
    mixture = hierarchy.mixture_env(1, alphas=[[9], [1]], betas=[[1], [9]])
    with pytest.raises(ValueError):
        agents.initial_meta_posterior(mixture, scale=3.0)


# ---------------------------------------------------------------------------
# begin_task priors
# ---------------------------------------------------------------------------


def test_first_task_prior_is_meta_prior_plus_task_width():
    spec = gauss_spec(sigma_q=0.5, sigma_0=0.1)
    meta = agents.initial_meta_posterior(spec)
    post = agents.begin_task(agents.AgentKind("ada-ts"), meta, spec, RngStream(0))
    assert np.allclose(post.mean, spec.mu_q)
    assert np.allclose(post.var, 0.25 + 0.01)


@pytest.mark.parametrize("family", ["gaussian", "semibandit", "linear", "bernoulli-mixture"])
def test_agnostic_meta_posterior_stays_the_meta_prior(family):
    """ts takes ada-ts's task prior from a meta-posterior it never updates:
    after tasks with data it is still initial_meta_posterior, bit for bit."""
    runs, lead = 3, (3,)
    data = np.random.default_rng(23)
    if family == "bernoulli-mixture":
        spec = hierarchy.mixture_env(2, alphas=[[9, 1], [1, 9]], betas=[[1, 9], [9, 1]],
                                     weights=[0.3, 0.7])
        agent_class, mu_star = agents.MixtureFamilyAgent, np.array([0, 1, 1])
    else:
        spec = {"gaussian": hierarchy.gaussian_env(3, 0.5, [0.1, 0.0, 0.2], 1.0),
                "semibandit": hierarchy.semibandit_env(4, 2, 0.5, 0.1, 1.0),
                "linear": hierarchy.linear_env(2, 1.0, 0.1, 1.0, num_arms=6)}[family]
        if family == "linear":
            spec = spec.with_actions(data.uniform(-0.5, 0.5, (runs, 6, 2)))
        agent_class = agents.GaussianFamilyAgent
        mu_star = data.standard_normal((runs, spec.param_dim))
    rng = RunStreams([RngStream(6, r) for r in range(runs)], block=4)
    agent = agent_class(agents.AgentKind("ts"), spec, rng, mu_star)
    for s in range(1, 4):
        agent.begin_task(s, 3)
        for t in range(1, 6):
            action = agent.act(t)
            if family == "bernoulli-mixture":
                reward = data.integers(0, 2, runs).astype(float)
            else:
                reward = data.standard_normal(np.shape(action))
            agent.observe(action, reward)
        agent.end_task()
    prior = agents.initial_meta_posterior(spec, lead)
    assert type(agent.meta) is type(prior)
    for name in prior.__slots__:
        assert getattr(agent.meta, name).tobytes() == getattr(prior, name).tobytes()


def test_oracle_prior_centres_on_mu_star():
    spec = gauss_spec()
    meta = agents.initial_meta_posterior(spec)
    post = agents.begin_task(
        agents.AgentKind("oracle-ts"), meta, spec, RngStream(0), mu_star=[0.3, -0.2]
    )
    assert np.allclose(post.mean, [0.3, -0.2])
    assert np.allclose(post.var, 0.01)
    with pytest.raises(ValueError):
        agents.begin_task(agents.AgentKind("oracle-ts"), meta, spec, RngStream(0))


FAMILY_SPECS = {
    "gaussian": lambda: hierarchy.gaussian_env(3, 0.5, [0.1, 0.0, 0.2], 1.0),
    "semibandit": lambda: hierarchy.semibandit_env(4, 2, 0.5, 0.1, 1.0),
    "linear": lambda: hierarchy.linear_env(2, 1.0, 0.1, 1.0, num_arms=6),
    "bernoulli-mixture": lambda: hierarchy.mixture_env(
        2, alphas=[[9, 1], [1, 9], [2, 2]], betas=[[1, 9], [9, 1], [2, 2]],
        weights=[0.2, 0.5, 0.3]),
}


def _prior_at(spec, center, width):
    """The task prior of `spec`'s family written out: N(center, width) for
    the Gaussian families, or for the mixture the component log-weights
    `center` with the prior's Beta tables."""
    if spec.family == hierarchy.BERNOULLI_MIXTURE:
        return agents.MixtureTaskState(center, spec.mixture_alphas, spec.mixture_betas)
    if spec.family == hierarchy.LINEAR:
        return agents.FullTaskPosterior(center, width)
    return agents.DiagonalTaskPosterior(center, width)


def _assert_same_belief(got, expected):
    assert type(got) is type(expected)
    for name in expected.__slots__:
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name


@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_begin_task_serves_every_family(family):
    """One begin_task gives each policy its task prior, whatever the belief:
    ts and ada-ts the meta-posterior integrated into the task prior, and the
    others the task prior centred on a meta-parameter: oracle-ts on mu_star,
    misassigned-ts on the next component, meta-ts on one draw of the
    meta-posterior, which uses the stream as `meta.draw` does."""
    spec, runs = FAMILY_SPECS[family](), 3
    mixture = family == "bernoulli-mixture"
    meta = agents.initial_meta_posterior(spec, (runs,))
    data = np.random.default_rng(29)
    if mixture:
        # the Beta tables move off the prior's, which a task prior keeps
        meta.update(np.array([0, 1, 0]), np.array([1.0, 0.0, 1.0]), None)
        mu_star = np.array([0, 1, 2])
        integrated = _prior_at(spec, meta.log_weights, None)

        def centered(center):
            return _prior_at(spec, np.where(np.arange(3) == center[:, None], 0.0, -np.inf), None)
    else:
        linear = family == "linear"
        observed = data.uniform(-0.5, 0.5, (runs, 2)) if linear else np.arange(runs)
        meta.update(observed, data.standard_normal(runs), 1.0)
        mu_star = data.standard_normal((runs, spec.param_dim))
        width = spec.sigma_0 if linear else np.diag(spec.sigma_0)
        integrated = _prior_at(spec, meta.mean, (meta.cov if linear else meta.var) + width)

        def centered(center):
            return _prior_at(spec, center, width)

    def rng():
        return RunStreams([RngStream(31, r) for r in range(runs)], block=2)

    for name in ("ts", "ada-ts"):
        _assert_same_belief(agents.begin_task(agents.AgentKind(name), meta, spec, rng()),
                            integrated)
    oracle = agents.begin_task(agents.AgentKind("oracle-ts"), meta, spec, rng(), mu_star)
    _assert_same_belief(oracle, centered(mu_star))
    if mixture:
        assert np.array_equal(np.exp(oracle.log_weights), np.eye(3)[mu_star])
        wrong = agents.begin_task(agents.AgentKind("misassigned-ts"), meta, spec, rng(), mu_star)
        _assert_same_belief(wrong, centered(np.array([1, 2, 0])))
    else:
        with pytest.raises(agents.UnknownAgent):
            agents.begin_task(agents.AgentKind("misassigned-ts"), meta, spec, rng(), mu_star)

    played, drawn = rng(), rng()
    post = agents.begin_task(agents.AgentKind("meta-ts"), meta, spec, played)
    _assert_same_belief(post, centered(meta.draw(drawn)))
    assert [s.random() for s in played.streams] == [s.random() for s in drawn.streams]


def test_point_mass_linear_meta_ts_draws_nothing():
    """A point-mass dense meta-posterior is its own draw: meta-ts centres on
    its mean exactly and leaves the stream untouched."""
    spec = FAMILY_SPECS["linear"]()
    meta = agents.FullTaskPosterior(np.array([[0.3, -0.2], [0.1, 0.4]]), np.zeros((2, 2)))
    played = RunStreams([RngStream(32, r) for r in range(2)], block=2)
    post = agents.begin_task(agents.AgentKind("meta-ts"), meta, spec, played)
    _assert_same_belief(post, agents.FullTaskPosterior(meta.mean, spec.sigma_0))
    fresh = [RngStream(32, r).random() for r in range(2)]
    assert [s.random() for s in played.streams] == fresh


def test_dense_point_mass_test_is_made_per_row():
    """Rows of a dense meta-posterior that are point masses return their
    mean and draw nothing from their streams; the other rows draw as each
    would alone."""
    means = np.array([[0.3, -0.2], [0.1, 0.4], [-0.5, 0.2]])
    covs = np.stack([np.zeros((2, 2)), [[1.0, 0.3], [0.3, 0.5]], np.zeros((2, 2))])
    played = RunStreams([RngStream(33, r) for r in range(3)], block=2)
    drawn = agents.FullTaskPosterior(means, covs).draw(played)
    after = played.standard_normal((2,))
    for r in range(3):
        alone = RngStream(33, r)
        assert drawn[r].tobytes() == agents.FullTaskPosterior(means[r], covs[r]).draw(alone).tobytes()
        assert after[r].tobytes() == alone.standard_normal(2).tobytes()
    assert np.array_equal(drawn[[0, 2]], means[[0, 2]])


def test_agent_takes_one_kind_or_one_per_row():
    spec = gauss_spec()
    ada, meta = agents.AgentKind("ada-ts"), agents.AgentKind("meta-ts")
    rows = RunStreams([RngStream(34, r) for r in range(3)], block=2)
    with pytest.raises(ValueError, match="2 agent kinds"):
        agents.GaussianFamilyAgent([ada, meta], spec, rows)
    tasks = RunStreams([RngStream(34, r) for r in range(2)], block=2, tasks=4)
    with pytest.raises(ValueError, match="different policies"):
        agents.GaussianFamilyAgent([ada, meta], spec, tasks)
    agent = agents.GaussianFamilyAgent([ada, meta, ada], spec, rows)
    assert agent.kinds == (ada, meta, ada) and agent.lead == (3,)


def test_degenerate_meta_ts_equals_ada_ts():
    spec = gauss_spec()
    meta = agents.DiagonalTaskPosterior([0.7, -0.1], [0.0, 0.0])
    meta_post = agents.begin_task(agents.AgentKind("meta-ts"), meta, spec, RngStream(0))
    ada_post = agents.begin_task(agents.AgentKind("ada-ts"), meta, spec, RngStream(1))
    assert np.array_equal(meta_post.mean, ada_post.mean)
    assert np.array_equal(meta_post.var, ada_post.var)


# ---------------------------------------------------------------------------
# ts_select
# ---------------------------------------------------------------------------


def test_select_deterministic_posterior():
    post = agents.DiagonalTaskPosterior([0.0, 5.0, 1.0], [0.0, 0.0, 0.0])
    rng = RngStream(0)
    assert all(agents.ts_select(post, 3, rng) == 1 for _ in range(20))


def test_select_linear_argmax():
    actions = np.array([[0.0, 1.0], [1.0, 0.0]])
    post = agents.FullTaskPosterior([1.0, 0.0], 1e-18 * np.eye(2))
    assert agents.ts_select(post, actions, RngStream(0)) == 1


def test_select_semibandit_top_subset():
    post = agents.DiagonalTaskPosterior([1.0, 3.0, 2.0, 0.0], np.zeros(4))
    assert np.array_equal(agents.ts_select(post, (4, 2), RngStream(0)), [1, 2])


def test_select_symmetric_arms_even_split():
    post = agents.DiagonalTaskPosterior([0.0, 0.0], [1.0, 1.0])
    rng = RngStream(12)
    picks = np.array([agents.ts_select(post, 2, rng) for _ in range(100_000)])
    assert abs(picks.mean() - 0.5) < 0.01


def test_diagonal_belief_draws_the_rows_of_the_dense_one():
    """Both Gaussian beliefs draw one row per row of the mean beyond the
    stream's leading shape: a stacked diagonal belief gives three different
    rows from one stream, the rows that a dense belief with covariance
    diag(var) draws from the same stream, bit for bit."""
    mean = np.tile([0.3, -1.2], (3, 1))
    var = np.array([0.5, 2.0])
    diag = agents.DiagonalTaskPosterior(mean, var).sample(RngStream(4))
    full = agents.FullTaskPosterior(mean, np.diag(var)).sample(RngStream(4))
    assert len({row.tobytes() for row in diag}) == 3
    assert diag.tobytes() == full.tobytes()


def test_select_shift_invariant():
    class Fixed:
        def __init__(self, theta):
            self.theta = np.asarray(theta, dtype=float)

        def sample(self, rng):
            return self.theta

    rng = np.random.default_rng(13)
    for _ in range(100):
        theta = rng.standard_normal(5)
        base = agents.ts_select(Fixed(theta), 5, RngStream(0))
        shifted = agents.ts_select(Fixed(theta + 3.7), 5, RngStream(0))
        assert base == shifted


def test_select_tie_breaks_to_lowest_index():
    post = agents.DiagonalTaskPosterior([2.0, 2.0, 1.0], np.zeros(3))
    assert agents.ts_select(post, 3, RngStream(0)) == 0
    assert np.array_equal(agents.ts_select(post, (3, 2), RngStream(0)), [0, 1])


# ---------------------------------------------------------------------------
# within-task updates
# ---------------------------------------------------------------------------


def test_single_pull_scalar_conjugacy():
    post = agents.DiagonalTaskPosterior([0.0], [0.25])
    out = post.copy()
    out.update(0, 1.0, 1.0)
    assert out.mean[0] == pytest.approx(0.25 / 1.25)
    assert out.var[0] == pytest.approx(0.25 / 1.25)
    # the original is untouched
    assert post.mean[0] == 0.0 and post.var[0] == 0.25


def test_empty_semibandit_observation_is_identity():
    post = agents.DiagonalTaskPosterior([0.1, 0.2], [0.3, 0.4])
    out = post.copy()
    out.update(np.array([], dtype=int), np.array([]), 1.0)
    assert np.array_equal(out.mean, post.mean)
    assert np.array_equal(out.var, post.var)


def test_linear_basis_pulls_match_per_arm_updates():
    diag = agents.DiagonalTaskPosterior([0.0, 0.0], [0.5, 0.5])
    full = agents.FullTaskPosterior([0.0, 0.0], 0.5 * np.eye(2))
    rewards = [0.8, -0.3]
    for arm, y in enumerate(rewards):
        diag.update(arm, y, 1.0)
        full.update(np.eye(2)[arm], y, 1.0)
    assert np.allclose(full.mean, diag.mean, atol=1e-12)
    assert np.allclose(full.cov, np.diag(diag.var), atol=1e-12)


def test_incremental_linear_equals_batch_normal_equations():
    rng = np.random.default_rng(14)
    prior_mean = rng.standard_normal(3)
    prior_cov = np.diag([0.5, 1.0, 2.0])
    post = agents.FullTaskPosterior(prior_mean, prior_cov)
    feats, ys = [], []
    for _ in range(12):
        a = rng.uniform(-0.5, 0.5, 3)
        y = rng.standard_normal()
        feats.append(a)
        ys.append(y)
        post.update(a, y, 1.0)
    feats = np.array(feats)
    prec = spd_inverse(prior_cov) + feats.T @ feats
    mean = solve_spd(prec, spd_inverse(prior_cov) @ prior_mean + feats.T @ np.array(ys))
    assert np.allclose(post.mean, mean, atol=1e-10)
    assert np.allclose(post.cov, spd_inverse(prec), atol=1e-10)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_rank_one_updates_track_batch_normal_equations(dim):
    """1000 Sherman-Morrison updates stay on the batch normal-equation
    posterior, computed independently from one precision factorization."""
    rng = np.random.default_rng(100 + dim)
    noise_var = 0.8
    prior_mean = rng.standard_normal(dim)
    root = rng.standard_normal((dim, dim))
    prior_cov = 0.1 * (root @ root.T) / dim + 0.05 * np.eye(dim)
    post = agents.FullTaskPosterior(prior_mean, prior_cov)
    feats = rng.uniform(-0.5, 0.5, size=(1000, dim))
    ys = rng.standard_normal(1000)
    for a, y in zip(feats, ys):
        post.update(a, y, noise_var)
    prior_prec = spd_inverse(prior_cov)
    prec = prior_prec + feats.T @ feats / noise_var
    mean = solve_spd(prec, prior_prec @ prior_mean + feats.T @ ys / noise_var)
    assert np.allclose(post.mean, mean, rtol=0, atol=1e-10)
    assert np.allclose(post.cov, spd_inverse(prec), rtol=0, atol=1e-10)


def test_zero_width_task_prior_stays_point_mass():
    center = np.array([0.3, -0.7, 0.2])
    post = agents.FullTaskPosterior(center, np.zeros((3, 3)))
    rng = np.random.default_rng(18)
    for _ in range(50):
        post.update(rng.uniform(-0.5, 0.5, 3), float(rng.standard_normal()), 1.0)
    assert np.array_equal(post.mean, center)
    assert np.array_equal(post.cov, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# end-of-task meta updates
# ---------------------------------------------------------------------------


def quadrature_posterior(mu_q, var_q, obs_mean, obs_var):
    """Brute-force posterior over mu from one Gaussian estimate of it."""
    grid = np.linspace(-8.0, 8.0, 400_001)
    log_pdf = -0.5 * (grid - mu_q) ** 2 / var_q - 0.5 * (obs_mean - grid) ** 2 / obs_var
    pdf = np.exp(log_pdf - log_pdf.max())
    pdf /= np.trapezoid(pdf, grid)
    mean = np.trapezoid(grid * pdf, grid)
    var = np.trapezoid((grid - mean) ** 2 * pdf, grid)
    return mean, var


def test_meta_update_matches_quadrature():
    spec = gauss_spec(num_arms=1, sigma_q=1.0, sigma_0=0.1, noise=1.0)
    meta = agents.initial_meta_posterior(spec)
    summary = agents.ArmSummary(1)
    for y in (0.5, 0.5, 0.5, 0.5):  # four pulls summing to 2
        summary.add(0, y)
    out = agents.end_task_gaussian(meta, summary, spec)
    assert 1.0 / out.var[0] == pytest.approx(1.0 + 4.0 / 1.04, rel=1e-12)
    assert out.mean[0] == pytest.approx((4.0 / 1.04) * 0.5 / (1.0 + 4.0 / 1.04), rel=1e-12)
    # marginalizing theta: the sample mean estimates mu with variance
    # sigma_0^2 + sigma^2 / T
    q_mean, q_var = quadrature_posterior(0.0, 1.0, 0.5, 0.01 + 0.25)
    assert out.mean[0] == pytest.approx(q_mean, abs=1e-6)
    assert out.var[0] == pytest.approx(q_var, abs=1e-6)


def test_meta_update_skips_unpulled_arms():
    spec = gauss_spec(num_arms=3, sigma_q=0.5)
    meta = agents.initial_meta_posterior(spec)
    summary = agents.ArmSummary(3)
    summary.add(1, 0.4)
    out = agents.end_task_gaussian(meta, summary, spec)
    assert out.mean[0] == meta.mean[0] and out.var[0] == meta.var[0]
    assert out.mean[2] == meta.mean[2] and out.var[2] == meta.var[2]
    assert out.var[1] < meta.var[1]


def test_meta_update_no_data_identity():
    spec = gauss_spec(num_arms=2)
    meta = agents.initial_meta_posterior(spec)
    out = agents.end_task_gaussian(meta, agents.ArmSummary(2), spec)
    assert np.array_equal(out.mean, meta.mean)
    assert np.array_equal(out.var, meta.var)


def test_meta_precision_increment_saturates_at_task_width():
    """One infinitely long task still leaves 1/sigma_0^2 of uncertainty."""
    spec = gauss_spec(num_arms=1, sigma_q=1.0, sigma_0=0.1, noise=1.0)
    meta = agents.initial_meta_posterior(spec)
    summary = agents.ArmSummary(1)
    summary.counts[0] = 1_000_000
    summary.sums[0] = 0.0
    out = agents.end_task_gaussian(meta, summary, spec)
    increment = 1.0 / out.var[0] - 1.0 / meta.var[0]
    assert abs(increment - 100.0) <= 1e-4 * 100.0


def test_linear_meta_update_matches_one_dim_gaussian():
    spec = hierarchy.linear_env(
        1, sigma_q=1.0, sigma_0=0.1, noise_sigma=1.0, num_arms=1, actions=np.eye(1)
    )
    meta = agents.initial_meta_posterior(spec)
    summary = agents.LinearSummary(1)
    summary.gram[0, 0] = 4.0
    summary.weighted[0] = 2.0
    out = agents.end_task_linear(meta, summary, spec)
    assert 1.0 / out.cov[0, 0] == pytest.approx(1.0 + 4.0 / 1.04, rel=1e-10)
    assert out.mean[0] == pytest.approx(25.0 / 63.0, rel=1e-10)


def test_linear_meta_update_zero_gram_identity():
    spec = hierarchy.linear_env(2, 1.0, 0.1, 1.0, num_arms=2, actions=np.eye(2))
    meta = agents.initial_meta_posterior(spec)
    out = agents.end_task_linear(meta, agents.LinearSummary(2), spec)
    assert np.allclose(out.mean, meta.mean, atol=1e-12)
    assert np.allclose(out.cov, meta.cov, atol=1e-12)


def test_linear_meta_update_reduces_to_diagonal_on_basis_pulls():
    gauss = gauss_spec(num_arms=2, sigma_q=0.7, sigma_0=0.2, noise=1.3)
    lin = hierarchy.linear_env(
        2, sigma_q=0.7, sigma_0=0.2, noise_sigma=1.3, num_arms=2, actions=np.eye(2)
    )
    arm_meta = agents.initial_meta_posterior(gauss)
    lin_meta = agents.initial_meta_posterior(lin)
    arm_summary = agents.ArmSummary(2)
    lin_summary = agents.LinearSummary(2)
    pulls = [(0, 0.5), (0, -0.1), (1, 0.9)]
    for arm, y in pulls:
        arm_summary.add(arm, y)
        lin_summary.add(np.eye(2)[arm], y)
    arm_out = agents.end_task_gaussian(arm_meta, arm_summary, gauss)
    lin_out = agents.end_task_linear(lin_meta, lin_summary, lin)
    assert np.allclose(lin_out.mean, arm_out.mean, atol=1e-10)
    assert np.allclose(np.diag(lin_out.cov), arm_out.var, atol=1e-10)
    assert np.allclose(lin_out.cov, np.diag(np.diag(lin_out.cov)), atol=1e-10)


def batch_diagonal_meta(spec, summaries):
    """Independent all-tasks-at-once version of the per-arm meta update."""
    prec = 1.0 / np.diag(spec.sigma_q)
    shift = spec.mu_q * prec
    for summary in summaries:
        pulled = summary.counts > 0
        w = summary.counts[pulled] / (
            summary.counts[pulled] * np.diag(spec.sigma_0)[pulled] + spec.noise_sigma**2
        )
        prec[pulled] += w
        shift[pulled] += w * summary.sums[pulled] / summary.counts[pulled]
    return shift / prec, 1.0 / prec


def batch_linear_meta(spec, summaries):
    """Independent all-tasks-at-once version of the dense meta update."""
    noise_var = spec.noise_sigma**2
    prec = spd_inverse(spec.sigma_q)
    shift = prec @ spec.mu_q
    for summary in summaries:
        c = summary.gram / noise_var
        b = summary.weighted / noise_var
        deflate = c @ spd_inverse(spd_inverse(spec.sigma_0) + c)
        prec = prec + c - deflate @ c
        shift = shift + b - deflate @ b
    cov = spd_inverse(prec)
    return solve_spd(prec, shift), cov


def test_recursive_equals_batch_diagonal():
    rng = np.random.default_rng(15)
    spec = gauss_spec(num_arms=3, sigma_q=0.8, sigma_0=0.15, noise=1.1)
    meta = agents.initial_meta_posterior(spec)
    summaries = []
    for _ in range(6):
        summary = agents.ArmSummary(3)
        for _ in range(int(rng.integers(0, 9))):
            summary.add(int(rng.integers(3)), float(rng.standard_normal()))
        summaries.append(summary)
        meta = agents.end_task_gaussian(meta, summary, spec)
    mean, var = batch_diagonal_meta(spec, summaries)
    assert np.allclose(meta.mean, mean, rtol=1e-8)
    assert np.allclose(meta.var, var, rtol=1e-8)


def test_recursive_equals_batch_linear():
    rng = np.random.default_rng(16)
    actions = rng.uniform(-0.5, 0.5, size=(10, 2))
    spec = hierarchy.linear_env(2, 1.0, 0.1, 1.0, actions=actions)
    meta = agents.initial_meta_posterior(spec)
    summaries = []
    for _ in range(5):
        summary = agents.LinearSummary(2)
        for _ in range(int(rng.integers(1, 12))):
            summary.add(actions[rng.integers(10)], float(rng.standard_normal()))
        summaries.append(summary)
        meta = agents.end_task_linear(meta, summary, spec)
    mean, cov = batch_linear_meta(spec, summaries)
    assert np.allclose(meta.mean, mean, rtol=1e-8, atol=1e-10)
    assert np.allclose(meta.cov, cov, rtol=1e-8, atol=1e-10)


def test_recursive_equals_batch_linear_anisotropic_dim_4():
    """Per-coordinate widths make C sigma_0 and cov P non-commuting products."""
    rng = np.random.default_rng(19)
    actions = rng.uniform(-0.5, 0.5, size=(20, 4))
    spec = hierarchy.linear_env(4, [1.0, 0.5, 0.8, 1.2], [0.1, 0.2, 0.1, 0.3], 0.9,
                                actions=actions)
    meta = agents.initial_meta_posterior(spec)
    summaries = []
    for _ in range(12):
        summary = agents.LinearSummary(4)
        for _ in range(int(rng.integers(0, 40))):
            summary.add(actions[rng.integers(20)], float(rng.standard_normal()))
        summaries.append(summary)
        meta = agents.end_task_linear(meta, summary, spec)
    mean, cov = batch_linear_meta(spec, summaries)
    assert np.allclose(meta.mean, mean, rtol=1e-8, atol=1e-10)
    assert np.allclose(meta.cov, cov, rtol=1e-8, atol=1e-10)


def test_linear_meta_update_point_masses_stay_exact():
    """A zero meta-covariance never moves; a zero-width task prior passes the
    task's evidence through undeflated."""
    rng = np.random.default_rng(20)
    actions = rng.uniform(-0.5, 0.5, size=(10, 3))
    summary = agents.LinearSummary(3)
    for _ in range(30):
        summary.add(actions[rng.integers(10)], float(rng.standard_normal()))
    mu_q = np.array([0.4, -0.3, 0.1])
    fixed = hierarchy.linear_env(3, 0.0, 0.1, 1.0, actions=actions, mu_q=mu_q)
    meta = agents.initial_meta_posterior(fixed)
    out = agents.end_task_linear(meta, summary, fixed)
    assert np.array_equal(out.mean, mu_q)
    assert np.array_equal(out.cov, np.zeros((3, 3)))
    exact = hierarchy.linear_env(3, 1.0, 0.0, 1.0, actions=actions)
    meta = agents.initial_meta_posterior(exact)
    out = agents.end_task_linear(meta, summary, exact)
    prec = np.eye(3) + summary.gram
    assert np.allclose(out.cov, spd_inverse(prec), atol=1e-12)
    assert np.allclose(out.mean, solve_spd(prec, summary.weighted), atol=1e-12)


def test_semibandit_update_equals_k_armed_update():
    """A semibandit agent's meta-update is the K-armed update applied to its
    subset-membership counts."""
    spec = hierarchy.semibandit_env(3, 1, sigma_q=0.6, sigma_0=0.1, noise_sigma=1.0)
    agent = agents.GaussianFamilyAgent(agents.AgentKind("ada-ts"), spec, RngStream(0))
    meta = agent.meta.copy()
    agent.begin_task(1, 1)
    for arm, reward in ((0, 0.4), (2, -0.2)):
        agent.observe(np.array([arm]), np.array([reward]))
    agent.end_task()
    arm = agents.end_task_gaussian(meta, agent.summary, spec)
    assert np.array_equal(agent.meta.mean, arm.mean)
    assert np.array_equal(agent.meta.var, arm.var)


def test_semibandit_zero_width_arm_gains_full_precision():
    spec = hierarchy.semibandit_env(
        2, 1, sigma_q=[0.5, 0.5], sigma_0=[0.0, 0.1], noise_sigma=1.0
    )
    meta = agents.initial_meta_posterior(spec)
    summary = agents.ArmSummary(2)
    for _ in range(4):
        summary.add(np.array([0]), np.array([0.3]))
    out = agents.end_task_gaussian(meta, summary, spec)
    increment = 1.0 / out.var[0] - 1.0 / meta.var[0]
    assert increment == pytest.approx(4.0, rel=1e-12)


def test_semibandit_single_membership_increment():
    spec = hierarchy.semibandit_env(
        3, 3, sigma_q=0.5, sigma_0=[0.1, 0.2, 0.3], noise_sigma=1.0
    )
    meta = agents.initial_meta_posterior(spec)
    summary = agents.ArmSummary(3)
    summary.add(np.array([0, 1, 2]), np.array([0.1, 0.2, 0.3]))
    out = agents.end_task_gaussian(meta, summary, spec)
    for k, width in enumerate((0.1, 0.2, 0.3)):
        increment = 1.0 / out.var[k] - 1.0 / meta.var[k]
        assert increment == pytest.approx(1.0 / (width**2 + 1.0), rel=1e-12)


def test_monotone_concentration_random_sequences():
    """Meta variances never grow; within-task covariance never grows."""
    rng = np.random.default_rng(17)
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        spec = gauss_spec(
            num_arms=k,
            sigma_q=float(rng.uniform(0.2, 1.5)),
            sigma_0=float(rng.uniform(0.05, 0.5)),
            noise=float(rng.uniform(0.5, 1.5)),
        )
        meta = agents.initial_meta_posterior(spec)
        for _ in range(2):
            summary = agents.ArmSummary(k)
            for _ in range(int(rng.integers(0, 4))):
                summary.add(int(rng.integers(k)), float(rng.standard_normal()))
            new = agents.end_task_gaussian(meta, summary, spec)
            assert np.all(new.var <= meta.var + 1e-12)
            meta = new
        post = agents.FullTaskPosterior(np.zeros(k), np.eye(k))
        for _ in range(3):
            a = rng.uniform(-0.5, 0.5, k)
            new_post = post.copy()
            new_post.update(a, float(rng.standard_normal()), 1.0)
            cholesky(post.cov - new_post.cov)  # PSD or NotPsd raises
            post = new_post


# ---------------------------------------------------------------------------
# oracle-equivalence identities
# ---------------------------------------------------------------------------


def test_point_mass_meta_prior_reduces_to_oracle():
    """With a zero-width meta-prior the adaptive policy IS the oracle."""
    mu_q = np.array([0.4, -0.3])
    spec = gauss_spec(num_arms=2, sigma_q=0.0, sigma_0=0.1, mu_q=mu_q)
    ada = agents.GaussianFamilyAgent(agents.AgentKind("ada-ts"), spec, RngStream(3, 1))
    oracle = agents.GaussianFamilyAgent(
        agents.AgentKind("oracle-ts"), spec, RngStream(3, 1), mu_star=mu_q
    )
    reward_rng = RngStream(3, 2)
    for s in range(1, 4):
        ada.begin_task(s, 3)
        oracle.begin_task(s, 3)
        assert np.array_equal(ada.post.mean, oracle.post.mean)
        assert np.array_equal(ada.post.var, oracle.post.var)
        for t in range(1, 6):
            a1, a2 = ada.act(t), oracle.act(t)
            assert a1 == a2
            y = float(reward_rng.normal())
            ada.observe(a1, y)
            oracle.observe(a2, y)
            assert np.array_equal(ada.post.mean, oracle.post.mean)
            assert np.array_equal(ada.post.var, oracle.post.var)
        ada.end_task()
        oracle.end_task()
        # the point mass survives the meta update exactly
        assert np.array_equal(ada.meta.mean, mu_q)
        assert np.array_equal(ada.meta.var, np.zeros(2))


def test_basis_embedding_agents_agree():
    """K-armed adaptive TS and its standard-basis linear encoding make the
    same choices and learn the same meta-posterior."""
    gauss = gauss_spec(num_arms=2, sigma_q=0.5, sigma_0=0.1)
    lin = hierarchy.linear_env(
        2, sigma_q=0.5, sigma_0=0.1, noise_sigma=1.0, num_arms=2, actions=np.eye(2)
    )
    arm_agent = agents.GaussianFamilyAgent(agents.AgentKind("ada-ts"), gauss, RngStream(4, 1))
    lin_agent = agents.GaussianFamilyAgent(agents.AgentKind("ada-ts"), lin, RngStream(4, 1))
    reward_rng = RngStream(4, 2)
    for s in range(1, 4):
        arm_agent.begin_task(s, 3)
        lin_agent.begin_task(s, 3)
        for t in range(1, 8):
            a1, a2 = arm_agent.act(t), lin_agent.act(t)
            assert a1 == a2
            y = float(reward_rng.normal())
            arm_agent.observe(a1, y)
            lin_agent.observe(a2, y)
        arm_agent.end_task()
        lin_agent.end_task()
        assert np.allclose(lin_agent.meta.mean, arm_agent.meta.mean, atol=1e-10)
        assert np.allclose(np.diag(lin_agent.meta.cov), arm_agent.meta.var, atol=1e-10)


# ---------------------------------------------------------------------------
# forced exploration
# ---------------------------------------------------------------------------


def test_exploring_tasks_schedule():
    assert agents.exploring_tasks(20) == {1, 2, 5, 10, 17}
    assert agents.exploring_tasks(1) == {1}


def test_plan_empty_outside_schedule():
    spec = gauss_spec(num_arms=3)
    assert 3 not in agents.exploring_tasks(20)
    assert 17 in agents.exploring_tasks(20)
    assert agents.opening_actions(spec) == [0, 1, 2]


def test_covering_subsets():
    subsets = agents.covering_subsets(5, 2)
    assert subsets == [(0, 1), (2, 3), (0, 4)]
    assert set().union(*subsets) == set(range(5))
    assert all(len(sub) == 2 for sub in subsets)


def test_semibandit_plan_covers_all_arms():
    spec = hierarchy.semibandit_env(5, 2, 0.5, 0.1, 1.0)
    plan = agents.opening_actions(spec)
    assert set().union(*plan) == set(range(5))


def test_choose_spanning_actions_from_generic_set():
    rng = np.random.default_rng(18)
    actions = rng.uniform(-0.5, 0.5, size=(10, 2))
    plan, eta = agents.choose_spanning_actions(actions)
    assert len(plan) == 2 and all(isinstance(i, int) for i in plan)
    assert eta > 1e-6
    features = actions[plan]
    assert eta == pytest.approx(np.linalg.eigvalsh(features.T @ features)[0])


@pytest.mark.parametrize("actions", [
    [[0.5, 0.0], [0.25, 0.0], [0.1, 0.0]],  # collinear
    [[0.5, 0.0]],                           # fewer actions than dimensions
], ids=["collinear", "too-few"])
def test_choose_spanning_actions_refuses_a_set_that_cannot_span(actions):
    with pytest.raises(ValueError, match="do not span R\\^2"):
        agents.choose_spanning_actions(np.array(actions))


def test_linear_plan_requires_actions():
    spec = hierarchy.linear_env(2, 1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        agents.opening_actions(spec)


def test_forced_agent_follows_plan_then_samples():
    spec = gauss_spec(num_arms=3, sigma_q=0.5)
    agent = agents.GaussianFamilyAgent(agents.AgentKind("ada-ts-forced"), spec, RngStream(5, 1))
    agent.begin_task(1, 20)
    assert [agent.act(t) for t in (1, 2, 3)] == [0, 1, 2]
    agent.begin_task(3, 20)
    assert agent.plan == []


# ---------------------------------------------------------------------------
# mixture variant
# ---------------------------------------------------------------------------


def mixture_spec(num_arms=1, scale=1.0):
    """Two components, 0.9 and 0.1 on every arm, at Beta concentration
    10 * scale."""
    alphas = [[9.0 * scale] * num_arms, [scale] * num_arms]
    betas = [[scale] * num_arms, [9.0 * scale] * num_arms]
    return hierarchy.mixture_env(num_arms, alphas=alphas, betas=betas)


def outcomes(history, num_arms=1):
    """The ArmSummary of (arm, outcome) pairs that mixture_update takes."""
    summary = agents.ArmSummary(num_arms)
    for arm, outcome in history:
        summary.add(arm, outcome)
    return summary


def test_mixture_update_empty_history_identity():
    meta = agents.initial_meta_posterior(mixture_spec())
    out = agents.mixture_update(meta, outcomes([]))
    assert np.allclose(out.weights, meta.weights)


def test_mixture_update_matches_marginal_likelihood():
    meta = agents.initial_meta_posterior(mixture_spec())
    out = agents.mixture_update(meta, outcomes([(0, 1)] * 10))
    # marginal of ten straight successes under Beta(a, b):
    # prod_{r<10} (a + r) / (a + b + r)
    def marginal(a, b):
        val = 1.0
        for r in range(10):
            val *= (a + r) / (a + b + r)
        return val

    m0, m1 = marginal(9, 1), marginal(1, 9)
    expected = 0.5 * m0 / (0.5 * m0 + 0.5 * m1)
    assert out.weights[0] == pytest.approx(expected, rel=1e-10)
    assert out.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_mixture_update_symmetric_components_stay_even():
    spec = hierarchy.mixture_env(2, alphas=[[2, 2], [2, 2]], betas=[[3, 3], [3, 3]])
    meta = agents.initial_meta_posterior(spec)
    out = agents.mixture_update(meta, outcomes([(0, 1), (1, 0), (0, 0)], 2))
    assert np.allclose(out.weights, [0.5, 0.5], atol=1e-12)


def test_beta_log_evidence_matches_scipy_betaln():
    """Each arm's evidence is scipy's difference of log Beta functions, at
    ordinary concentrations and counts."""
    rng = np.random.default_rng(3)
    alphas, betas = rng.uniform(0.5, 300.0, (2, 20_000))
    ones, zeros = rng.integers(0, 201, (2, 20_000))
    expected = betaln(alphas + ones, betas + zeros) - betaln(alphas, betas)
    got = agents.beta_log_evidence(alphas, betas, ones, zeros)
    np.testing.assert_allclose(got, expected, rtol=1e-11)


def test_within_task_weights_match_end_of_task_marginals():
    """Sequential predictive reweighting and the one-shot marginal agree, at
    every Beta concentration: differencing log-gamma values would lose
    digits of the evidence from about 1e8 and all of them by 1e15."""
    history = [(0, 1), (1, 0), (0, 1), (0, 0), (1, 1)]
    for scale in (1.0, 1e8, 1e12, 1e15, 1e16):
        meta = agents.initial_meta_posterior(mixture_spec(num_arms=2, scale=scale))
        state = agents.MixtureTaskState(meta.log_weights, meta.alphas, meta.betas)
        for arm, outcome in history:
            state.update(arm, outcome, None)
        end = agents.mixture_update(meta, outcomes(history, 2))
        assert np.allclose(state.log_weights, end.log_weights, rtol=0, atol=1e-12), scale


def test_within_task_beta_posteriors_accumulate_counts():
    spec = mixture_spec(num_arms=2)
    meta = agents.initial_meta_posterior(spec)
    state = agents.MixtureTaskState(meta.log_weights, meta.alphas, meta.betas)
    state.update(0, 1, None)
    state.update(0, 0, None)
    assert np.allclose(state.alphas[:, 0], meta.alphas[:, 0] + 1)
    assert np.allclose(state.betas[:, 0], meta.betas[:, 0] + 1)
    assert np.allclose(state.alphas[:, 1], meta.alphas[:, 1])


def test_mixture_select_degenerate_weights_use_single_component():
    spec = hierarchy.mixture_env(
        2, alphas=[[500, 1], [1, 500]], betas=[[1, 500], [500, 1]]
    )
    state = agents.MixtureTaskState(
        np.log([1.0, 1e-300]), spec.mixture_alphas, spec.mixture_betas
    )
    rng = RngStream(6)
    # component 0 concentrates arm 0 near 1 and arm 1 near 0
    assert all(agents.mixture_ts_select(state, rng) == 0 for _ in range(50))


def test_mixture_select_symmetric_even_split():
    """100,000 picks in one call on a state of as many rows, from one
    stream: a draw has a fixed size, so its first rows are what one-row
    calls pick in turn."""
    spec = hierarchy.mixture_env(2, alphas=[[2, 2], [2, 2]], betas=[[2, 2], [2, 2]])
    state = agents.MixtureTaskState(
        np.log(np.full((100_000, 2), 0.5)), spec.mixture_alphas, spec.mixture_betas
    )
    picks = agents.mixture_ts_select(state, RngStream(7))
    one = agents.MixtureTaskState(np.log([0.5, 0.5]), spec.mixture_alphas, spec.mixture_betas)
    rng = RngStream(7)
    assert picks[:5].tolist() == [agents.mixture_ts_select(one, rng) for _ in range(5)]
    assert abs(picks.mean() - 0.5) < 0.01


@pytest.mark.parametrize("alpha,beta", [(0.3, 0.7), (1, 1), (9, 1), (1, 9), (50, 3),
                                        (1e6, 2e6)])
def test_mixture_sample_draws_beta_means(alpha, beta):
    """Each arm's sampled mean, mapped back from its log-odds, is
    Beta(alpha, beta): a Kolmogorov-Smirnov test against scipy's Beta, at a
    fixed seed, over 20,000 one-row draws made as one call."""
    state = agents.MixtureTaskState(np.zeros((20_000, 1)), [[alpha]], [[beta]])
    log_odds = state.sample(RngStream(31, 2))[:, 0]
    assert np.all(np.isfinite(log_odds))
    assert stats.kstest(expit(log_odds), stats.beta(alpha, beta).cdf).pvalue > 0.01


@settings(max_examples=200, deadline=None)
@given(st.floats(-300, 300), st.floats(-300, 300), st.integers(0, 2**32))
def test_mixture_sample_is_finite_at_every_shape(log_alpha, log_beta, seed):
    """Beta parameters from 1e-300 to 1e300 give finite log-odds, with no
    floating-point error of any kind, so a mean in [0, 1]."""
    state = agents.MixtureTaskState(np.zeros((64, 1)), [[10.0**log_alpha]], [[10.0**log_beta]])
    with np.errstate(all="raise"):
        log_odds = state.sample(RngStream(seed))
    assert np.all(np.isfinite(log_odds))
    means = expit(log_odds)
    assert np.all((means >= 0.0) & (means <= 1.0))


def test_true_component_weight_grows_with_task_length():
    """More observations per task push more posterior mass onto the
    component that generated the data."""
    spec = mixture_spec(num_arms=2)
    means = {}
    for n in (5, 20, 80):
        final = []
        for rep in range(200):
            rng = RngStream(100 + rep, n)
            task = hierarchy.sample_task(spec, 0, rng)
            meta = agents.initial_meta_posterior(spec)
            history = [
                (arm, hierarchy.realize_reward(spec, task, arm, rng))
                for arm in np.arange(n) % 2
            ]
            meta = agents.mixture_update(meta, outcomes([(int(a), y) for a, y in history], 2))
            final.append(meta.weights[0])
        means[n] = np.mean(final)
    assert means[5] < means[20] < means[80]
    assert means[80] > 0.9


def test_mixture_agent_kinds_pin_expected_components():
    spec = mixture_spec(num_arms=2)
    rng = RngStream(8)
    oracle = agents.MixtureFamilyAgent(agents.AgentKind("oracle-ts"), spec, rng, mu_star=1)
    oracle.begin_task(1, 5)
    assert np.allclose(np.exp(oracle.post.log_weights), [0.0, 1.0])
    wrong = agents.MixtureFamilyAgent(agents.AgentKind("misassigned-ts"), spec, rng, mu_star=1)
    wrong.begin_task(1, 5)
    assert np.allclose(np.exp(wrong.post.log_weights), [1.0, 0.0])
    with pytest.raises(agents.UnknownAgent):
        agents.MixtureFamilyAgent(agents.AgentKind("ada-ts-forced"), spec, rng)


def test_lockstep_mixture_observe_rejects_non_bernoulli_outcomes():
    spec = mixture_spec(num_arms=2)
    rng = RunStreams([RngStream(8, r) for r in range(3)], block=4)
    agent = agents.MixtureFamilyAgent(agents.AgentKind("ada-ts"), spec, rng, np.zeros(3, int))
    agent.begin_task(1, 5)
    arms = agent.act(1)
    assert arms.shape == (3,)
    with pytest.raises(ValueError, match="0 or 1"):
        agent.observe(arms, np.array([1.0, 0.5, 0.0]))
    with pytest.raises(ValueError, match="0 or 1"):
        agent.observe(arms, np.array([1.0, np.nan, 0.0]))
    agent.observe(arms, np.array([1.0, 0.0, 0.0]))


def test_component_pick_clamps_to_the_last_component():
    """Per run, the pick is searchsorted(cumsum(weights), u, 'right') clamped
    to C - 1: a uniform at or above the last cumulative weight, which
    rounding can leave below one, picks the last component."""
    weights = np.array([[0.1] * 10, [0.5, 0.5, 0.0] + [0.0] * 7])
    assert np.cumsum(weights[0])[-1] < 1.0
    last = np.cumsum(weights, axis=1)[:, -1]
    assert np.array_equal(hierarchy.pick_component(weights, last), [9, 9])
    assert np.array_equal(hierarchy.pick_component(weights, np.nextafter(last, 2.0)), [9, 9])
    for u in np.linspace(0.0, 1.0, 41):
        expected = [min(int(np.searchsorted(np.cumsum(w), u, side="right")), 9)
                    for w in weights]
        assert np.array_equal(hierarchy.pick_component(weights, np.full(2, u)), expected)
        assert hierarchy.pick_component(weights[0], u) == expected[0]


@pytest.mark.parametrize("name", ["ada-ts+", "ada-ts-"])
def test_mixture_agent_rejects_rescaled_meta_prior(name):
    kind = agents.AgentKind.from_name(name)
    with pytest.raises(agents.UnknownAgent, match=re.escape(repr(name))):
        agents.MixtureFamilyAgent(kind, mixture_spec(), RngStream(9), mu_star=0)


@pytest.mark.parametrize("spec", [
    hierarchy.gaussian_env(2, 0.5, 0.1, 1.0),
    hierarchy.linear_env(2, 1.0, 0.1, 1.0),
    hierarchy.semibandit_env(4, 2, 0.5, 0.1, 1.0),
], ids=["gaussian", "linear", "semibandit"])
def test_gaussian_agent_rejects_misassigned_ts(spec):
    kind = agents.AgentKind.from_name("misassigned-ts")
    with pytest.raises(agents.UnknownAgent, match="'misassigned-ts'"):
        agents.GaussianFamilyAgent(kind, spec, RngStream(9), mu_star=np.zeros(2))


# ---------------------------------------------------------------------------
# runs in lockstep
# ---------------------------------------------------------------------------


def _state(obj):
    return [np.asarray(getattr(obj, name)) for name in obj.__slots__]


@pytest.mark.parametrize("family", ["gaussian", "semibandit", "linear"])
@pytest.mark.parametrize("name", ["ts", "oracle-ts", "meta-ts", "ada-ts", "ada-ts+",
                                  "ada-ts-forced"])
def test_lockstep_agent_matches_each_run_played_alone(family, name):
    """An agent built with a RunStreams acts, and holds posteriors and
    meta-posteriors, bit for bit as one scalar agent per run."""
    runs, m, n = 3, 3, 6
    kind = agents.AgentKind.from_name(name)
    data = np.random.default_rng(21)
    if family == "gaussian":
        specs = [hierarchy.gaussian_env(3, 0.5, [0.1, 0.0, 0.2], 1.0)] * runs
    elif family == "semibandit":
        specs = [hierarchy.semibandit_env(5, 2, 0.5, 0.1, 1.0)] * runs
    else:
        specs = [hierarchy.linear_env(2, 1.0, 0.1, 1.0, actions=data.uniform(-0.5, 0.5, (6, 2)))
                 for _ in range(runs)]
    mu_star = data.standard_normal((runs, specs[0].param_dim))
    solo = [agents.GaussianFamilyAgent(kind, spec, RngStream(5, r), mu_star[r])
            for r, spec in enumerate(specs)]
    batch_spec = specs[0]
    if family == "linear":
        batch_spec = specs[0].with_actions(np.stack([spec.actions for spec in specs]))
    batch = agents.GaussianFamilyAgent(
        kind, batch_spec, RunStreams([RngStream(5, r) for r in range(runs)], block=4), mu_star)
    for s in range(1, m + 1):
        batch.begin_task(s, m)
        for agent in solo:
            agent.begin_task(s, m)
        for t in range(1, n + 1):
            actions = batch.act(t)
            rewards = data.standard_normal((runs, 2) if family == "semibandit" else runs)
            for r, agent in enumerate(solo):
                action = agent.act(t)
                assert np.array_equal(np.asarray(action), actions[r])
                agent.observe(action, rewards[r])
            batch.observe(actions, rewards)
            for r, agent in enumerate(solo):
                for whole, alone in zip(_state(batch.post), _state(agent.post)):
                    assert np.array_equal(whole[r], alone)
        batch.end_task()
        for r, agent in enumerate(solo):
            agent.end_task()
            for whole, alone in zip(_state(batch.meta), _state(agent.meta)):
                assert np.array_equal(whole[r], alone)
