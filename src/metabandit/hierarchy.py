"""Hierarchical bandit environments.

A meta-parameter mu_star is drawn once per run from the meta-prior, each task
draws its own parameter theta from the task prior centered at mu_star, and
rewards are noisy observations of theta.  Four families share this structure:

* ``gaussian``           K independent arms, Gaussian rewards.
* ``linear``             d-dimensional linear rewards over a finite action set.
* ``semibandit``         pull a subset of L arms per round, observe each arm.
* ``bernoulli-mixture``  Bernoulli arms; the meta-prior is a finite mixture of
                         per-arm Beta priors and mu_star is a component index.
"""

from dataclasses import dataclass, fields, replace
import functools
import math

import numpy as np

from .gauss_core import dot, mvn_sample, symmetrize

GAUSSIAN = "gaussian"
LINEAR = "linear"
SEMIBANDIT = "semibandit"
BERNOULLI_MIXTURE = "bernoulli-mixture"

FAMILIES = (GAUSSIAN, LINEAR, SEMIBANDIT, BERNOULLI_MIXTURE)

# Sampled Bernoulli means are clamped away from {0, 1} so that posterior
# updates and log-likelihoods stay finite.
BETA_MEAN_FLOOR = 1e-6


class InvalidAction(Exception):
    """Action outside the environment's action set."""


def _as_cov(width_or_cov, dim):
    """Coerce a scalar width, per-coordinate width vector, or full matrix
    into a covariance matrix (widths are standard deviations)."""
    arr = np.asarray(width_or_cov, dtype=float)
    if arr.ndim == 0:
        return float(arr) ** 2 * np.eye(dim)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise ValueError(f"width vector length {arr.shape[0]} != {dim}")
        return np.diag(arr**2)
    if arr.shape != (dim, dim):
        raise ValueError(f"covariance shape {arr.shape} != ({dim}, {dim})")
    return symmetrize(arr)


@dataclass(frozen=True, eq=False)
class EnvironmentSpec:
    """Static description of one environment family.

    ``sigma_q`` and ``sigma_0`` are covariance matrices (not widths).  For the
    linear family ``actions`` may be None, in which case the harness samples a
    fresh action set per run, uniform on [-0.5, 0.5]^dim; the harness stacks
    those per-run sets along a leading run axis for agents that play all runs
    in lockstep.
    """

    family: str
    num_arms: int
    noise_sigma: float
    mu_q: np.ndarray = None
    sigma_q: np.ndarray = None
    sigma_0: np.ndarray = None
    dim: int = None
    actions: np.ndarray = None
    budget: int = None
    mixture_alphas: np.ndarray = None
    mixture_betas: np.ndarray = None
    mixture_weights: np.ndarray = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.num_arms < 1:
            raise ValueError("num_arms must be positive")
        if self.family == BERNOULLI_MIXTURE:
            if self.mixture_alphas is None or self.mixture_betas is None:
                raise ValueError("mixture family needs alpha/beta tables")
            if np.any(self.mixture_alphas <= 0) or np.any(self.mixture_betas <= 0):
                raise ValueError("Beta parameters must be positive")
            weights = self.mixture_weights
            if weights is None or not np.all(np.isfinite(weights)) or np.any(weights < 0):
                raise ValueError("mixture weights must be finite and non-negative")
            if self.mixture_weights.shape != (self.num_components,):
                raise ValueError(
                    f"need one mixture weight per component ({self.num_components}), "
                    f"got shape {self.mixture_weights.shape}"
                )
            if abs(float(np.sum(self.mixture_weights)) - 1.0) > 1e-9:
                raise ValueError("mixture weights must sum to one")
            return
        if self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be positive")
        p = self.param_dim
        if self.mu_q is None or self.mu_q.shape != (p,):
            raise ValueError(f"mu_q must have shape ({p},)")
        for name in ("sigma_q", "sigma_0"):
            mat = getattr(self, name)
            if mat is None or mat.shape != (p, p):
                raise ValueError(f"{name} must have shape ({p}, {p})")
            if np.max(np.abs(mat - mat.T)) > 1e-12 * max(1.0, np.max(np.abs(mat))):
                raise ValueError(f"{name} must be symmetric")
        if self.family == LINEAR:
            if self.dim is None or self.dim < 1:
                raise ValueError("linear family needs dim >= 1")
            if self.actions is not None:
                if self.actions.ndim not in (2, 3) or (
                    self.actions.shape[-2:] != (self.num_arms, self.dim)
                ):
                    raise ValueError("actions must have shape ([runs,] num_arms, dim)")
                norms = np.linalg.norm(self.actions, axis=-1)
                if np.any(norms > 1.0 + 1e-12):
                    raise ValueError("linear actions must have norm <= 1")
        if self.family == SEMIBANDIT:
            if self.budget is None or not 1 <= self.budget <= self.num_arms:
                raise ValueError("budget must be in [1, num_arms]")

    @property
    def param_dim(self):
        """Dimension of mu_star / theta: d for linear, K otherwise."""
        return self.dim if self.family == LINEAR else self.num_arms

    @property
    def num_components(self):
        return None if self.mixture_alphas is None else self.mixture_alphas.shape[0]

    def with_actions(self, actions):
        return replace(self, actions=np.asarray(actions, dtype=float))


def gaussian_env(num_arms, sigma_q, sigma_0, noise_sigma, mu_q=None):
    mu_q = np.zeros(num_arms) if mu_q is None else np.asarray(mu_q, dtype=float)
    return EnvironmentSpec(
        family=GAUSSIAN,
        num_arms=num_arms,
        noise_sigma=float(noise_sigma),
        mu_q=mu_q,
        sigma_q=_as_cov(sigma_q, num_arms),
        sigma_0=_as_cov(sigma_0, num_arms),
    )


def linear_env(dim, sigma_q, sigma_0, noise_sigma, num_arms=None, actions=None, mu_q=None):
    """Linear family; defaults to 5*dim actions sampled per run by the harness."""
    if actions is not None:
        actions = np.asarray(actions, dtype=float)
        num_arms = actions.shape[0]
    elif num_arms is None:
        num_arms = 5 * dim
    mu_q = np.zeros(dim) if mu_q is None else np.asarray(mu_q, dtype=float)
    return EnvironmentSpec(
        family=LINEAR,
        num_arms=num_arms,
        noise_sigma=float(noise_sigma),
        mu_q=mu_q,
        sigma_q=_as_cov(sigma_q, dim),
        sigma_0=_as_cov(sigma_0, dim),
        dim=dim,
        actions=actions,
    )


def semibandit_env(num_arms, budget, sigma_q, sigma_0, noise_sigma, mu_q=None):
    mu_q = np.zeros(num_arms) if mu_q is None else np.asarray(mu_q, dtype=float)
    return EnvironmentSpec(
        family=SEMIBANDIT,
        num_arms=num_arms,
        noise_sigma=float(noise_sigma),
        mu_q=mu_q,
        sigma_q=_as_cov(sigma_q, num_arms),
        sigma_0=_as_cov(sigma_0, num_arms),
        budget=budget,
    )


def mixture_env(num_arms, alphas, betas, weights=None):
    """Bernoulli arms with a finite mixture of per-arm Beta priors.

    ``alphas`` / ``betas`` have shape (num_components, num_arms).
    """
    alphas = np.atleast_2d(np.asarray(alphas, dtype=float))
    betas = np.atleast_2d(np.asarray(betas, dtype=float))
    if alphas.shape != betas.shape or alphas.shape[1] != num_arms:
        raise ValueError("alpha/beta tables must share shape (components, arms)")
    if weights is None:
        weights = np.full(alphas.shape[0], 1.0 / alphas.shape[0])
    weights = np.asarray(weights, dtype=float)
    return EnvironmentSpec(
        family=BERNOULLI_MIXTURE,
        num_arms=num_arms,
        noise_sigma=0.5,
        mixture_alphas=alphas,
        mixture_betas=betas,
        mixture_weights=weights / np.sum(weights),
    )


@dataclass(frozen=True, eq=False)
class TaskInstance:
    """One sampled task: parameter, best action, and its mean reward.

    ``means`` holds the mean reward of each arm, or of each row of a linear
    action set, which linear rewards and regret read back.  A stack of tasks
    has a leading shape on every field: (m,) for a run's tasks, (rows,) for
    one task per row in lockstep, or (m, rows) for all tasks of all rows.
    Indexing it indexes that shape: `tasks[s - 1]` is task s of every row.
    """

    theta: np.ndarray
    optimal_action: object
    optimal_value: float
    means: np.ndarray = None

    def __getitem__(self, index):
        return TaskInstance(*(getattr(self, field.name)[index] for field in fields(self)))


def sample_meta_parameter(spec, rng):
    """Draw mu_star from the meta-prior (a component index for mixtures)."""
    if spec.family == BERNOULLI_MIXTURE:
        return int(pick_component(spec.mixture_weights, rng.random()))
    return mvn_sample(spec.mu_q, spec.sigma_q, rng)


def pick_component(weights, u):
    """The component a uniform `u` selects from categorical `weights`: the
    first whose cumulative weight exceeds `u`, or the last when rounding
    leaves the total at or below `u`.  With a run axis on `weights` and `u`,
    one component per run."""
    cum = np.cumsum(weights, axis=-1)
    picked = np.sum(cum <= np.asarray(u)[..., None], axis=-1)
    return np.minimum(picked, cum.shape[-1] - 1)


def top_subset(theta, budget):
    """Indices of the `budget` largest entries, ties to the lowest index, as
    a sorted int array (budget,), or per run (runs, budget)."""
    return np.sort(np.argsort(-theta, axis=-1, kind="stable")[..., :budget], axis=-1)


def sample_task(spec, mu_star, rng, lead=()):
    """Draw a stack of tasks with the leading shape `lead` (see TaskInstance)
    from the task prior and locate their optima: (m,) draws a run's m tasks
    from `rng` exactly as m one-task calls, with lead (), would draw them."""
    if spec.family == BERNOULLI_MIXTURE:
        shape, j = lead + (spec.num_arms,), int(mu_star)
        pairs = (np.broadcast_to(table[j], shape).ravel().tolist()
                 for table in (spec.mixture_alphas, spec.mixture_betas))
        theta = np.reshape(rng.beta_row(*pairs), shape)
        theta = np.clip(theta, BETA_MEAN_FLOOR, 1.0 - BETA_MEAN_FLOOR)
    else:
        theta = mvn_sample(np.broadcast_to(mu_star, lead + np.shape(mu_star)), spec.sigma_0, rng)
    if spec.family == SEMIBANDIT:
        subset = top_subset(theta, spec.budget)
        return TaskInstance(theta, subset, _per_run(theta, subset).sum(axis=-1), theta)
    # a linear task's recorded optimum is the float max of its per-action
    # means, which regret reads back, so regret is never < 0
    means = dot(spec.actions, theta[..., None, :]) if spec.family == LINEAR else theta
    best = np.argmax(means, axis=-1)
    return TaskInstance(theta, best, _per_run(means, best), means)


def stack_tasks(tasks):
    """Stacks of tasks with one leading shape, stacked along a new last axis
    of it, the row axis: one task per row becomes a (rows,) stack, and the
    (m,) stacks of each row's tasks become one (m, rows) stack.  The fields
    are C-contiguous, as `flat_view` needs."""
    axis = np.ndim(tasks[0].optimal_value)
    return TaskInstance(*(np.stack([getattr(task, field.name) for task in tasks], axis)
                          for field in fields(TaskInstance)))


def _check_arm(spec, arm):
    if np.ndim(arm) or np.asarray(arm).dtype.kind not in "iu" or not 0 <= arm < spec.num_arms:
        raise InvalidAction(f"arm {arm!r} not in [0, {spec.num_arms})")


def linear_feature(spec, action):
    """Feature vectors of linear actions: an index into the action set, or
    one index per row, gives its row.  With a (rows, K, d) action set,
    `action` has a leading shape whose last axis is the rows, (rows,) or
    (m, rows), and each row indexes its own set."""
    if spec.actions.ndim == 2:
        return spec.actions[action]
    return spec.actions[np.arange(spec.actions.shape[0]), action]


def _check_subset(spec, arms):
    if arms.shape != (spec.budget,) or len(set(arms.tolist())) != spec.budget:
        raise InvalidAction(f"subset {arms!r} must hold {spec.budget} distinct arms")
    for k in arms:
        _check_arm(spec, k)
    return np.sort(arms)


def _one_run(spec, task, action):
    """A one-run call's task and action as a stack of one run (see
    `stack_tasks`).  The action is checked first; a semibandit subset is
    stacked sorted, as agents play it."""
    action = np.asarray(action)
    if spec.family == SEMIBANDIT:
        action = _check_subset(spec, action)
    else:
        _check_arm(spec, action)
    return stack_tasks([task]), action[None]


def flat_view(table):
    """`table` flattened without a copy, so that writes reach `table`."""
    if not table.flags.c_contiguous:
        raise ValueError(f"array with strides {table.strides} has no flat view")
    return table.reshape(-1)


def flat_index(shape, index):
    """Where the entries that `index` names sit in `flat_view` of an array of
    `shape`: `index` names one entry, or a row of entries (trailing axis k),
    in each row along the last axis of `shape`.  Indexing a flat view is
    several times cheaper than indexing by (rows, index)."""
    return _row_offsets(shape, np.ndim(index)) + index


@functools.lru_cache(maxsize=64)
def _row_offsets(shape, index_ndim):
    """Flat offset of each row along the last axis of `shape`, shaped to
    broadcast against an index of `index_ndim` axes; built once per pair and
    read-only, since the cache shares it."""
    lead = shape[:-1]
    offsets = np.arange(0, math.prod(shape), shape[-1])
    offsets = offsets.reshape(lead + (1,) * (index_ndim - len(lead)))
    offsets.flags.writeable = False
    return offsets


def _per_run(table, index):
    """The entries of `table` that `index` names per row of its leading
    shape, as `flat_index` reads them."""
    return flat_view(table)[flat_index(table.shape, index)]


def _means(spec, task, action):
    """Mean reward of each run's action in a stack of tasks, per arm of a
    semibandit subset; agents only play valid actions, so none is checked.
    Linear indices read the task's mean-reward table, so each matches the
    recorded optimum bit for bit."""
    return _per_run(task.means if spec.family == LINEAR else task.theta, action)


def realize_reward(spec, task, action, rng):
    """Draw the observed feedback for playing `action` in `task`.

    An action is an arm, an index into the linear action set, or a
    semibandit subset of arms.  For a stack of tasks (see TaskInstance)
    with the leading shape `rng.lead`, (rows,) or (m, rows), `action` holds
    one action per row, `rng` is a RunStreams, and the result has one reward
    per row: an array of shape lead, or lead + (budget,) in the order of each
    row's sorted subset.  A one-run call (a task without a run axis,
    an RngStream) is the same code on a stack of one run: it returns a float,
    or for the semibandit family an array with one reward per arm in the
    action's order.  It checks the action first: anything else, a feature
    vector among them, is an InvalidAction.
    """
    if task.theta.ndim == 1:
        stack, arms = _one_run(spec, task, action)
        reward = realize_reward(spec, stack, arms, rng)[0]
        if spec.family == SEMIBANDIT:
            return reward[np.searchsorted(arms[0], action)]
        return float(reward)
    mean = _means(spec, task, action)
    if spec.family == BERNOULLI_MIXTURE:
        return (rng.random() < mean).astype(float)
    return mean + spec.noise_sigma * rng.standard_normal(mean.shape[len(rng.lead):])


def instant_regret(spec, task, action):
    """Gap between the task's optimal mean reward and the action's, per row
    of a stack of tasks, or as a float for one run."""
    if task.theta.ndim == 1:
        return float(instant_regret(spec, *_one_run(spec, task, action))[0])
    mean = _means(spec, task, action)
    return task.optimal_value - (mean.sum(axis=-1) if spec.family == SEMIBANDIT else mean)
