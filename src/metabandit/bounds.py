"""Numeric evaluation of the Bayes-regret upper bounds.

These evaluators turn an environment's actual covariances into the closed-form
bound values, term by term, so experiment output can be checked against the
guarantees.  Totals decompose into labeled terms:

* ``learning_mu_star``        the price of estimating the task-prior mean,
* ``per_task``                m-plus-sqrt(m) copies of the known-prior regret,
* ``forced_exploration``      the opening-round exploration cost,
* ``zero_width_arms``         (semibandit only) arms whose task prior is a
                              point mass.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import hierarchy


class InvalidInput(Exception):
    """Bound inputs outside their domain."""


@dataclass(frozen=True, eq=False)
class BoundInputs:
    """Everything the evaluators need, already reduced to scalars/vectors.

    The eigenvalue fields feed the linear-family bound; the per-arm width
    vectors feed the semibandit bound.  ``eta`` is the smallest eigenvalue of
    the forced-exploration Gram matrix and ``action_count`` is |A|.
    """

    m: int
    n: int
    noise_sigma: float
    delta: float
    dim: int = None
    num_arms: int = None
    budget: int = None
    action_count: int = None
    lambda1_sigma_q: float = None
    lambda1_sigma_0: float = None
    lambda_d_sigma_0: float = None
    eta: float = None
    sigma_q_arms: np.ndarray = None
    sigma_0_arms: np.ndarray = None
    mu_star_norm_sq: float = 0.0
    trace_term: float = 0.0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InvalidInput("m and n must be positive")
        if self.noise_sigma <= 0:
            raise InvalidInput("noise_sigma must be positive")
        if not 0.0 < self.delta <= 1.0:
            raise InvalidInput("delta must lie in (0, 1]")
        for name in ("lambda1_sigma_q", "lambda1_sigma_0", "lambda_d_sigma_0",
                     "mu_star_norm_sq", "trace_term"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise InvalidInput(f"{name} must be non-negative")
        if self.eta is not None and self.eta <= 0:
            raise InvalidInput("eta must be positive")
        for name in ("sigma_q_arms", "sigma_0_arms"):
            vec = getattr(self, name)
            if vec is not None and np.any(np.asarray(vec) < 0):
                raise InvalidInput(f"{name} must be non-negative")


def _require(inputs, *names):
    for name in names:
        if getattr(inputs, name) is None:
            raise InvalidInput(f"missing bound input {name!r}")


def _width_ratio(var, noise_var):
    """var / log(1 + var / noise**2), continuously extended to noise**2 at 0."""
    var = np.asarray(var, dtype=float)
    out = np.where(var > 0, var / np.log1p(np.where(var > 0, var, 1.0) / noise_var),
                   noise_var)
    return out if out.ndim else float(out)


def per_task_bound_linear(inputs):
    """High-probability regret of one linear task when mu_star is known."""
    _require(inputs, "dim", "action_count", "lambda1_sigma_0")
    n, d = inputs.n, inputs.dim
    s2 = inputs.noise_sigma**2
    lam0 = inputs.lambda1_sigma_0
    confidence = 4.0 * math.sqrt(
        _width_ratio(lam0, s2) * math.log(4.0 * inputs.action_count / inputs.delta)
    )
    info = math.sqrt(n * (d / 2.0) * math.log1p(n * lam0 / s2))
    return confidence * info + n * math.sqrt(2.0 * inputs.delta * lam0)


def total_bound_linear(inputs):
    """Total m-task bound for the linear family; returns (total, terms)."""
    _require(inputs, "dim", "action_count", "lambda1_sigma_q", "lambda1_sigma_0",
             "lambda_d_sigma_0", "eta")
    m, n, d = inputs.m, inputs.n, inputs.dim
    s2 = inputs.noise_sigma**2
    lam_q, lam_0 = inputs.lambda1_sigma_q, inputs.lambda1_sigma_0
    learn = (
        4.0
        * math.sqrt(
            _width_ratio(lam_q + lam_0, s2)
            * math.log(4.0 * inputs.action_count / inputs.delta)
        )
        * math.sqrt(
            m * n * (d / 2.0)
            * math.log1p(m * lam_q / (inputs.lambda_d_sigma_0 + s2 / n))
        )
    )
    if lam_0 > 0:
        multiplier = m + (1.0 + s2 / (inputs.eta * lam_0)) * math.sqrt(m)
        per_task = multiplier * per_task_bound_linear(inputs)
    else:
        per_task = 0.0  # a point-mass task prior has no within-task regret term
    forced = math.sqrt(m * d * (inputs.mu_star_norm_sq + inputs.trace_term))
    terms = {
        "learning_mu_star": learn,
        "per_task": per_task,
        "forced_exploration": forced,
    }
    return learn + per_task + forced, terms


def per_task_bound_semibandit(inputs):
    """High-probability regret of one semibandit task when mu_star is known."""
    _require(inputs, "num_arms", "budget", "sigma_0_arms")
    n, num_arms, budget = inputs.n, inputs.num_arms, inputs.budget
    s2 = inputs.noise_sigma**2
    s0 = np.asarray(inputs.sigma_0_arms, dtype=float) ** 2
    body = float(np.mean(_width_ratio(s0, s2) * np.log1p(n * s0 / s2)))
    confidence = 4.0 * math.sqrt(body * math.log(4.0 * num_arms / inputs.delta))
    first = confidence * math.sqrt(n * num_arms * budget)
    second = n * math.sqrt(2.0 * inputs.delta * float(np.mean(s0)))
    return first + second


def total_bound_semibandit(inputs):
    """Total m-task bound for the semibandit family; returns (total, terms)."""
    _require(inputs, "num_arms", "budget", "sigma_q_arms", "sigma_0_arms")
    m, n, num_arms, budget = inputs.m, inputs.n, inputs.num_arms, inputs.budget
    s2 = inputs.noise_sigma**2
    s0 = np.asarray(inputs.sigma_0_arms, dtype=float) ** 2
    sq = np.asarray(inputs.sigma_q_arms, dtype=float) ** 2
    body = float(
        np.mean(_width_ratio(s0 + sq, s2) * np.log1p(m * sq / (s0 + s2 / n)))
    )
    learn = (
        4.0
        * math.sqrt(body * math.log(4.0 * num_arms / inputs.delta))
        * math.sqrt(m * n * num_arms * budget)
    )
    forced = 2.0 * math.sqrt(
        m * num_arms * (inputs.mu_star_norm_sq + float(np.sum(s0 + sq)))
    )
    zero_frac = float(np.mean(np.where(s0 == 0, s2, 0.0)))
    zero_width = 2.0 * m**0.75 * n * math.sqrt(inputs.delta * zero_frac)
    positive = s0 > 0
    if np.any(positive):
        multiplier = m + (1.0 + float(np.max(s2 / s0[positive]))) * math.sqrt(m)
        per_task = multiplier * per_task_bound_semibandit(inputs)
    else:
        per_task = 0.0
    terms = {
        "learning_mu_star": learn,
        "per_task": per_task,
        "forced_exploration": forced,
        "zero_width_arms": zero_width,
    }
    return learn + per_task + forced + zero_width, terms


def mutual_info_caps(inputs):
    """Information budgets: (per-task cap, meta-level cap).

    Both scale with the parameter dimension; the meta cap shrinks as the
    task prior widens relative to the per-task estimation noise.
    """
    _require(inputs, "lambda1_sigma_q", "lambda1_sigma_0", "lambda_d_sigma_0")
    d = inputs.dim if inputs.dim is not None else inputs.num_arms
    if d is None:
        raise InvalidInput("mutual_info_caps needs dim or num_arms")
    s2 = inputs.noise_sigma**2
    per_task = (d / 2.0) * math.log1p(inputs.n * inputs.lambda1_sigma_0 / s2)
    meta = (d / 2.0) * math.log1p(
        inputs.m * inputs.lambda1_sigma_q / (inputs.lambda_d_sigma_0 + s2 / inputs.n)
    )
    return per_task, meta


def extreme_eigenvalues(mat):
    """(largest, smallest) eigenvalue of a symmetric matrix."""
    vals = np.linalg.eigvalsh(np.asarray(mat, dtype=float))
    return float(vals[-1]), float(vals[0])


def inputs_from_env(spec, m, n, delta=None, eta=None):
    """Reduce an environment spec to bound inputs.

    ``delta`` defaults to 1/n**2.  ``mu_star_norm_sq`` is the squared norm of
    the meta-prior mean, the natural plug-in for Bayes regret.
    """
    if delta is None:
        delta = 1.0 / n**2
    mu_star_norm_sq = float(spec.mu_q @ spec.mu_q)
    if spec.family == hierarchy.LINEAR:
        lam_q1, _ = extreme_eigenvalues(spec.sigma_q)
        lam_01, lam_0d = extreme_eigenvalues(spec.sigma_0)
        return BoundInputs(
            m=m,
            n=n,
            noise_sigma=spec.noise_sigma,
            delta=delta,
            dim=spec.dim,
            action_count=spec.num_arms,
            lambda1_sigma_q=lam_q1,
            lambda1_sigma_0=lam_01,
            lambda_d_sigma_0=lam_0d,
            eta=eta,
            mu_star_norm_sq=mu_star_norm_sq,
            trace_term=float(np.trace(spec.sigma_q + spec.sigma_0)),
        )
    if spec.family == hierarchy.SEMIBANDIT:
        return BoundInputs(
            m=m,
            n=n,
            noise_sigma=spec.noise_sigma,
            delta=delta,
            num_arms=spec.num_arms,
            budget=spec.budget,
            sigma_q_arms=np.sqrt(np.diag(spec.sigma_q)),
            sigma_0_arms=np.sqrt(np.diag(spec.sigma_0)),
            mu_star_norm_sq=mu_star_norm_sq,
            trace_term=float(np.trace(spec.sigma_q + spec.sigma_0)),
        )
    raise InvalidInput(f"no bound evaluator for family {spec.family!r}")
