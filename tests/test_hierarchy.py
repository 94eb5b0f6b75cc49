"""Generative environment: meta-parameter, tasks, rewards, regret."""

import itertools

import numpy as np
import pytest

from metabandit import hierarchy
from metabandit.gauss_core import RngStream, RunStreams


def stream(seed=0, sid=0):
    return RngStream(seed, sid)


# ---------------------------------------------------------------------------
# spec construction
# ---------------------------------------------------------------------------


def test_gaussian_builder_scalar_widths():
    spec = hierarchy.gaussian_env(2, sigma_q=0.5, sigma_0=0.1, noise_sigma=1.0)
    assert np.allclose(spec.sigma_q, 0.25 * np.eye(2))
    assert np.allclose(spec.sigma_0, 0.01 * np.eye(2))
    assert np.array_equal(spec.mu_q, np.zeros(2))


def test_linear_builder_defaults_five_d_arms():
    spec = hierarchy.linear_env(2, sigma_q=1.0, sigma_0=0.1, noise_sigma=1.0)
    assert spec.num_arms == 10
    assert spec.actions is None
    assert spec.param_dim == 2


def test_semibandit_builder_budget_check():
    with pytest.raises(ValueError):
        hierarchy.semibandit_env(4, budget=5, sigma_q=1.0, sigma_0=0.1, noise_sigma=1.0)


def test_mixture_builder_normalizes_weights():
    spec = hierarchy.mixture_env(
        2, alphas=[[9, 9], [1, 1]], betas=[[1, 1], [9, 9]], weights=[2.0, 2.0]
    )
    assert np.allclose(spec.mixture_weights, [0.5, 0.5])
    assert spec.num_components == 2


def test_mixture_weights_must_be_nonnegative():
    with pytest.raises(ValueError):
        hierarchy.mixture_env(1, alphas=[[9], [1]], betas=[[1], [9]], weights=[2.0, -1.0])


def test_mixture_weights_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        hierarchy.mixture_env(2, alphas=[[9, 9], [1, 1]], betas=[[1, 1], [9, 9]],
                              weights=[np.nan, 1.0])


def test_mixture_weights_need_one_per_component():
    for weights in ([0.3, 0.3, 0.4], [1.0]):
        with pytest.raises(ValueError, match="one mixture weight per component"):
            hierarchy.mixture_env(2, alphas=[[9, 9], [1, 1]], betas=[[1, 1], [9, 9]],
                                  weights=weights)


def test_noise_sigma_must_be_positive():
    with pytest.raises(ValueError):
        hierarchy.gaussian_env(2, sigma_q=0.5, sigma_0=0.1, noise_sigma=0.0)


def test_linear_actions_norm_cap():
    bad = np.array([[1.2, 0.0]] * 10)
    with pytest.raises(ValueError):
        hierarchy.linear_env(2, 1.0, 0.1, 1.0, actions=bad)


def test_vector_widths_become_diagonal():
    spec = hierarchy.semibandit_env(
        3, budget=2, sigma_q=[0.5, 0.5, 0.5], sigma_0=[0.0, 0.1, 0.2], noise_sigma=1.0
    )
    assert np.allclose(np.diag(spec.sigma_0), [0.0, 0.01, 0.04])


# ---------------------------------------------------------------------------
# sample_meta_parameter
# ---------------------------------------------------------------------------


def test_point_mass_meta_prior():
    spec = hierarchy.gaussian_env(3, sigma_q=0.0, sigma_0=0.1, noise_sigma=1.0, mu_q=[1, 2, 3])
    draw = hierarchy.sample_meta_parameter(spec, stream())
    assert np.max(np.abs(draw - [1, 2, 3])) < 1e-3


def test_meta_prior_variance_matches_width():
    spec = hierarchy.gaussian_env(2, sigma_q=0.5, sigma_0=0.1, noise_sigma=1.0)
    rng = stream(1)
    draws = np.array([hierarchy.sample_meta_parameter(spec, rng) for _ in range(100_000)])
    assert np.all(np.abs(draws.var(axis=0) - 0.25) <= 0.05 * 0.25)


def test_mixture_degenerate_weights_pick_component_zero():
    spec = hierarchy.mixture_env(
        2, alphas=[[9, 9], [1, 1]], betas=[[1, 1], [9, 9]], weights=[1.0, 0.0]
    )
    rng = stream(2)
    assert all(hierarchy.sample_meta_parameter(spec, rng) == 0 for _ in range(200))


def test_mixture_component_frequencies():
    spec = hierarchy.mixture_env(
        1, alphas=[[9], [1]], betas=[[1], [9]], weights=[0.25, 0.75]
    )
    rng = stream(3)
    draws = [hierarchy.sample_meta_parameter(spec, rng) for _ in range(40_000)]
    assert abs(np.mean(np.array(draws) == 1) - 0.75) < 0.01


# ---------------------------------------------------------------------------
# sample_task
# ---------------------------------------------------------------------------


def test_task_with_zero_width_prior_copies_mu_star():
    spec = hierarchy.gaussian_env(3, sigma_q=0.5, sigma_0=0.0, noise_sigma=1.0)
    mu = np.array([0.2, 0.9, -0.1])
    task = hierarchy.sample_task(spec, mu, stream())
    assert np.max(np.abs(task.theta - mu)) < 1e-3
    assert task.optimal_action == 1


def test_semibandit_optimal_subset_matches_enumeration():
    spec = hierarchy.semibandit_env(4, budget=2, sigma_q=0.5, sigma_0=0.0, noise_sigma=1.0)
    theta = np.array([1.0, 3.0, 2.0, 0.0])
    task = hierarchy.sample_task(spec, theta, stream())
    assert np.array_equal(task.optimal_action, [1, 2])
    assert task.optimal_value == pytest.approx(5.0)
    best = max(
        itertools.combinations(range(4), 2), key=lambda sub: sum(theta[list(sub)])
    )
    assert np.array_equal(sorted(best), task.optimal_action)


def test_linear_optimal_action():
    actions = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    spec = hierarchy.linear_env(2, 1.0, 0.0, 1.0, actions=actions)
    task = hierarchy.sample_task(spec, np.array([2.0, 1.0]), stream())
    assert task.optimal_action == 0
    assert task.optimal_value == pytest.approx(2.0, abs=1e-2)


def test_mixture_task_draws_beta_means():
    spec = hierarchy.mixture_env(
        2, alphas=[[50, 50], [1, 1]], betas=[[1, 1], [50, 50]], weights=[0.5, 0.5]
    )
    task = hierarchy.sample_task(spec, 0, stream(4))
    assert np.all(task.theta > 0.5)  # Beta(50,1) concentrates near 1
    task = hierarchy.sample_task(spec, 1, stream(4))
    assert np.all(task.theta < 0.5)
    assert np.all(task.theta >= hierarchy.BETA_MEAN_FLOOR)


def test_optimal_action_tie_breaks_to_lowest_index():
    spec = hierarchy.gaussian_env(3, sigma_q=0.5, sigma_0=0.0, noise_sigma=1.0)
    task = hierarchy.sample_task(spec, np.array([1.0, 1.0, 0.0]), stream())
    assert task.optimal_action == 0
    again = hierarchy.sample_task(spec, np.array([1.0, 1.0, 0.0]), stream())
    assert again.optimal_action == task.optimal_action


# ---------------------------------------------------------------------------
# realize_reward
# ---------------------------------------------------------------------------


def test_reward_noiseless_limit():
    spec = hierarchy.gaussian_env(2, sigma_q=0.5, sigma_0=0.0, noise_sigma=1e-9)
    task = hierarchy.TaskInstance(np.array([0.3, 0.7]), 1, 0.7)
    assert hierarchy.realize_reward(spec, task, 1, stream()) == pytest.approx(0.7, abs=1e-6)


def test_semibandit_reward_per_arm_in_action_order():
    spec = hierarchy.semibandit_env(4, budget=2, sigma_q=0.5, sigma_0=0.0, noise_sigma=1e-9)
    task = hierarchy.TaskInstance(np.array([1.0, 3.0, 2.0, 0.0]), np.array([1, 2]), 5.0)
    ordered = hierarchy.realize_reward(spec, task, (0, 2), stream())
    assert np.allclose(ordered, [1.0, 2.0], rtol=0, atol=1e-6)
    swapped = hierarchy.realize_reward(spec, task, (2, 0), stream())
    assert swapped.tobytes() == ordered[::-1].tobytes()


def test_reward_sample_mean_clt():
    spec = hierarchy.gaussian_env(2, sigma_q=0.5, sigma_0=0.0, noise_sigma=1.0)
    task = hierarchy.sample_task(spec, np.array([1.0, 0.0]), stream())
    rng = stream(5)
    pulls = np.array([hierarchy.realize_reward(spec, task, 0, rng) for _ in range(100_000)])
    assert abs(pulls.mean() - 1.0) < 0.013


def test_mixture_reward_is_bernoulli():
    spec = hierarchy.mixture_env(
        2, alphas=[[9, 9], [1, 1]], betas=[[1, 1], [9, 9]], weights=[1.0, 0.0]
    )
    task = hierarchy.sample_task(spec, 0, stream(6))
    rng = stream(7)
    vals = {hierarchy.realize_reward(spec, task, 0, rng) for _ in range(100)}
    assert vals <= {0.0, 1.0}


def test_invalid_actions_rejected():
    gauss = hierarchy.gaussian_env(2, 0.5, 0.1, 1.0)
    task = hierarchy.sample_task(gauss, np.zeros(2), stream())
    with pytest.raises(hierarchy.InvalidAction):
        hierarchy.realize_reward(gauss, task, 5, stream())
    semi = hierarchy.semibandit_env(4, 2, 0.5, 0.1, 1.0)
    semi_task = hierarchy.sample_task(semi, np.zeros(4), stream())
    with pytest.raises(hierarchy.InvalidAction):
        hierarchy.instant_regret(semi, semi_task, (0, 1, 2))
    with pytest.raises(hierarchy.InvalidAction):
        hierarchy.instant_regret(semi, semi_task, (0, 0))


VIEW_SPECS = {
    "gaussian": lambda: hierarchy.gaussian_env(3, 0.5, 0.1, 1.0),
    "linear": lambda: hierarchy.linear_env(
        2, 1.0, 0.1, 1.0, actions=np.random.default_rng(30).uniform(-0.5, 0.5, (6, 2))),
    "semibandit": lambda: hierarchy.semibandit_env(5, 2, 0.5, 0.1, 1.0),
    "mixture": lambda: hierarchy.mixture_env(3, [[9, 9, 9], [1, 1, 1]], [[1, 1, 1], [9, 9, 9]]),
}

VIEW_ACTIONS = {
    "gaussian": [0, 2, np.int64(1)],
    "linear": [0, 5, np.array([0.5, 0.0])],  # an index, or a raw feature vector
    "semibandit": [(0, 3), np.array([1, 4]), (2, 4)],
    "mixture": [2, 0, np.int64(1)],
}


@pytest.mark.parametrize("family", list(VIEW_SPECS))
def test_one_run_call_is_the_stacked_call_on_one_run(family):
    """A one-run reward or regret is, bit for bit, the stacked call on a
    stack of one run that draws from a same-seeded RunStreams."""
    spec = VIEW_SPECS[family]()
    rng = stream(31)
    task = hierarchy.sample_task(spec, hierarchy.sample_meta_parameter(spec, rng), rng)
    alone, lockstep = stream(32), RunStreams([stream(32)], block=4)
    stack = hierarchy.stack_tasks([task])
    for action in VIEW_ACTIONS[family] * 3:
        reward = hierarchy.realize_reward(spec, task, action, alone)
        stacked = hierarchy.realize_reward(spec, stack, np.asarray(action)[None], lockstep)
        assert np.asarray(reward).tobytes() == stacked[0].tobytes()
        regret = hierarchy.instant_regret(spec, task, action)
        assert isinstance(regret, float)
        assert regret == hierarchy.instant_regret(spec, stack, np.asarray(action)[None])[0]


def row_offset_index(shape, index):
    """flat_index written out case by case: the index itself without a run
    axis, else each run's row offset plus its index (or row of indexes)."""
    if len(shape) == 1:
        return index
    runs, width = shape
    offsets = np.arange(0, runs * width, width)
    return (offsets[:, None] if np.ndim(index) == 2 else offsets) + index


@pytest.mark.parametrize("shape,index", [
    ((5,), 3), ((5,), np.int64(0)), ((5,), np.array([1, 4])),
    ((3, 5), np.array([0, 4, 2])), ((3, 5), np.array([[0, 1], [2, 4], [3, 4]])),
    ((1, 5), np.array([[4, 0]])),
])
def test_flat_index_is_row_offset_plus_index(shape, index):
    flat = hierarchy.flat_index(shape, index)
    assert np.shape(flat) == np.shape(index)
    assert np.array_equal(flat, row_offset_index(shape, index))


# ---------------------------------------------------------------------------
# instant_regret
# ---------------------------------------------------------------------------


def test_regret_zero_at_optimum():
    spec = hierarchy.gaussian_env(3, 0.5, 0.1, 1.0)
    task = hierarchy.sample_task(spec, np.array([0.0, 2.0, 1.0]), stream())
    assert hierarchy.instant_regret(spec, task, task.optimal_action) == 0.0


def test_regret_direct_subtraction():
    spec = hierarchy.gaussian_env(2, 0.5, 0.0, 1.0)
    task = hierarchy.sample_task(spec, np.array([1.0, 0.0]), stream())
    assert hierarchy.instant_regret(spec, task, 1) == pytest.approx(1.0, abs=1e-3)


def test_semibandit_regret_matches_enumeration():
    spec = hierarchy.semibandit_env(4, 2, 0.5, 0.0, 1.0)
    theta = np.array([1.0, 3.0, 2.0, 0.0])
    task = hierarchy.sample_task(spec, theta, stream())
    assert hierarchy.instant_regret(spec, task, (0, 3)) == pytest.approx(4.0, abs=1e-3)
    for sub in itertools.combinations(range(4), 2):
        expected = task.optimal_value - sum(task.theta[list(sub)])
        assert hierarchy.instant_regret(spec, task, sub) == pytest.approx(expected)


def test_regret_nonnegative_over_random_instances():
    rng = stream(8)
    arms_rng = np.random.default_rng(8)
    gauss = hierarchy.gaussian_env(4, 0.7, 0.2, 1.0)
    semi = hierarchy.semibandit_env(5, 2, 0.7, 0.2, 1.0)
    actions = np.random.default_rng(9).uniform(-0.5, 0.5, size=(8, 3))
    lin = hierarchy.linear_env(3, 0.7, 0.2, 1.0, actions=actions)
    for _ in range(300):
        mu = hierarchy.sample_meta_parameter(gauss, rng)
        task = hierarchy.sample_task(gauss, mu, rng)
        assert hierarchy.instant_regret(gauss, task, int(arms_rng.integers(4))) >= 0
        mu = hierarchy.sample_meta_parameter(semi, rng)
        task = hierarchy.sample_task(semi, mu, rng)
        sub = tuple(sorted(arms_rng.choice(5, size=2, replace=False)))
        assert hierarchy.instant_regret(semi, task, sub) >= 0
        mu = hierarchy.sample_meta_parameter(lin, rng)
        task = hierarchy.sample_task(lin, mu, rng)
        assert hierarchy.instant_regret(lin, task, int(arms_rng.integers(8))) >= 0


def test_basis_embedding_matches_k_armed():
    """A K-armed task and its standard-basis linear encoding agree exactly."""
    gauss = hierarchy.gaussian_env(3, 0.5, 0.1, 1.0)
    lin = hierarchy.linear_env(3, 0.5, 0.1, 1.0, num_arms=3, actions=np.eye(3))
    theta = np.array([0.4, -0.2, 0.9])
    g_task = hierarchy.sample_task(gauss, theta, stream(10))
    l_task = hierarchy.sample_task(lin, theta, stream(10))
    assert np.array_equal(g_task.theta, l_task.theta)
    assert g_task.optimal_action == l_task.optimal_action
    for arm in range(3):
        assert hierarchy.instant_regret(gauss, g_task, arm) == pytest.approx(
            hierarchy.instant_regret(lin, l_task, arm)
        )


def test_marginal_task_variance_is_sum_of_widths():
    """Marginally theta ~ N(mu_q, sigma_q^2 + sigma_0^2) per coordinate."""
    spec = hierarchy.gaussian_env(2, sigma_q=0.5, sigma_0=0.1, noise_sigma=1.0)
    rng = stream(11)
    thetas = []
    for _ in range(100_000):
        mu = hierarchy.sample_meta_parameter(spec, rng)
        thetas.append(hierarchy.sample_task(spec, mu, rng).theta)
    var = np.array(thetas).var(axis=0)
    assert np.all(np.abs(var - 0.26) <= 0.05 * 0.26)
