"""Thompson sampling policies over hierarchical task sequences.

All policies share the same within-task machinery (conjugate Gaussian or Beta
updates plus posterior sampling) and differ only in the prior they place on
each new task:

* ``ts``            the meta-prior marginalized into the task prior, the
                    same for every task: ada-ts that never learns,
* ``oracle-ts``     the exact task prior centered at the true mu_star,
* ``meta-ts``       a point estimate of mu_star sampled once per task,
* ``ada-ts``        the meta-posterior marginalized into the task prior,
* ``ada-ts-forced`` ada-ts plus deterministic exploration rounds at the start
                    of a sparse subset of tasks.

Between tasks the adaptive policies absorb the task's sufficient statistics
into a meta-posterior over the task-prior mean (Gaussian families) or over
the mixture component (Bernoulli mixture family).  One belief class per
representation holds the meta-posterior and the task posteriors alike:
DiagonalTaskPosterior (K-armed and semibandit), FullTaskPosterior (linear)
and MixtureTaskState (Bernoulli mixture).  All three answer one protocol,
so one `begin_task` and one agent serve every family: `update(observed,
reward, noise_var)` conditions on an arm (or a row of arms) or a feature
vector (the mixture ignores `noise_var`); a meta-posterior's
`task_prior(spec)` is the task prior integrated over it, `draw(rng)` draws
one meta-parameter per row, and `centered(center, spec)` is the task prior
at a meta-parameter.  The Gaussian beliefs `sample(rng)` one draw per row
of the mean beyond rng's leading shape, as gauss_core.mvn_sample does.

The state of every family (posteriors, meta-posteriors, sufficient
statistics) has a leading shape `lead`: (rows,) for many rows in lockstep,
and () for one run, which is the same code on a stack of one run.  A row is
one run of one policy, and rows of different policies play as one agent:
each row has its own kind, and so its own policy and meta-prior width.  The
agent builds each row's task prior by its policy's rule on that rule's rows
(`select_rows`) and joins them row-wise (`join_rows`), and folds only the
rows that learn, so a row does only the work it would do alone.  Policies
that neither learn between tasks nor draw at task start
(`plays_tasks_at_once`) play all m tasks of a run at once, with the leading
shape (m, rows); per-row data broadcasts against either shape from the
right.  Each row still draws from its own stream: Gaussian draws come in
blocks (gauss_core.RunStreams), and a draw that only some rows make (a
meta-ts row's draw at task start, the rows that sample while ada-ts-forced
rows play their opening actions) takes those rows of the streams
(`rng.rows`), while a mixture agent's draws are made run by run, because a
Beta draw uses a variable amount of stream.
"""

from dataclasses import dataclass
import numpy as np

from . import hierarchy
from .gauss_core import dot, matvec, mvn_sample, symmetrize
# Not used here: the benchmark's tracer wraps these names in this module and
# checks that a linear round calls neither.
from .gauss_core import solve_spd, spd_inverse  # noqa: F401

AGNOSTIC_TS = "ts"
ORACLE_TS = "oracle-ts"
META_TS = "meta-ts"
ADA_TS = "ada-ts"
ADA_TS_FORCED = "ada-ts-forced"
MISASSIGNED_TS = "misassigned-ts"

_BASE_KINDS = (AGNOSTIC_TS, ORACLE_TS, META_TS, ADA_TS, ADA_TS_FORCED, MISASSIGNED_TS)
# Policies whose task prior is the meta-posterior integrated into it, and
# policies that update their meta-posterior between tasks.
_INTEGRATING = (AGNOSTIC_TS, ADA_TS, ADA_TS_FORCED)
_LEARNING = (META_TS, ADA_TS, ADA_TS_FORCED)

# Meta-prior width rescalings for the deliberately misspecified variants.
_ALIASES = {
    "ada-ts+": (ADA_TS, 3.0),
    "ada-ts-": (ADA_TS, 1.0 / 3.0),
}


class UnknownAgent(Exception):
    """Agent name not recognised."""


@dataclass(frozen=True)
class AgentKind:
    """A policy identity: base behaviour plus meta-prior width rescaling."""

    base: str
    scale: float = 1.0
    label: str = None

    def __post_init__(self):
        if self.base not in _BASE_KINDS:
            raise UnknownAgent(f"unknown agent base {self.base!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.label is None:
            object.__setattr__(self, "label", self.base)

    @classmethod
    def from_name(cls, name):
        name = name.strip()
        if name in _ALIASES:
            base, scale = _ALIASES[name]
            return cls(base, scale, name)
        if name in _BASE_KINDS:
            return cls(name)
        raise UnknownAgent(f"unknown agent {name!r}")


def require_family(kind, family):
    """Raise UnknownAgent, naming the agent, unless `kind` is defined for the
    reward `family`: misassigned-ts pins a wrong mixture component, so it
    needs the mixture family, while forced exploration and the rescaled
    meta-prior of ada-ts+/ada-ts- need a Gaussian one."""
    if family == hierarchy.BERNOULLI_MIXTURE:
        undefined = kind.base == ADA_TS_FORCED or kind.scale != 1.0
    else:
        undefined = kind.base == MISASSIGNED_TS
    if undefined:
        raise UnknownAgent(f"agent {kind.label!r} is not defined for the {family} family")


def plays_tasks_at_once(kind, family):
    """Whether all m tasks of a run can be played at once, along a leading
    task axis.  Gaussian-family ts and oracle-ts neither learn between tasks
    nor draw at task start, so every task starts from the same
    state and its draws follow the previous task's in the run's streams.  A
    mixture agent's Beta draws use a variable amount of stream, so its tasks
    stay one after another."""
    return kind.base in (AGNOSTIC_TS, ORACLE_TS) and family != hierarchy.BERNOULLI_MIXTURE


# ---------------------------------------------------------------------------
# Meta-posteriors: the meta-prior, and the Gaussian updates between tasks
# ---------------------------------------------------------------------------


def initial_meta_posterior(spec, lead=(), scale=1.0):
    """Meta-posterior before any task: the meta-prior itself, repeated over
    the leading shape `lead`.  For the mixture family it is the prior
    component weights, in a MixtureTaskState whose Beta tables are the
    prior's.

    `scale` rescales a Gaussian meta-prior's width (its covariance by
    scale * scale), by one factor or by one per row of lead's last axis.
    It models an agent whose believed meta-prior is too wide (scale > 1) or
    too narrow (scale < 1); the environment itself is unchanged.
    """
    scale = np.asarray(scale, dtype=float)
    if spec.family == hierarchy.BERNOULLI_MIXTURE:
        if np.any(scale != 1.0):
            raise ValueError(f"family {spec.family!r} has no Gaussian meta-prior to scale")
        log_w = _log_weights(spec.mixture_weights)
        log_w = _normalize_log_weights(np.broadcast_to(log_w, lead + log_w.shape))
        return MixtureTaskState(log_w, spec.mixture_alphas, spec.mixture_betas)
    mean = np.broadcast_to(spec.mu_q, lead + spec.mu_q.shape)
    factor = (scale * scale)[..., None]
    if spec.family == hierarchy.LINEAR:
        return FullTaskPosterior(mean, factor[..., None] * spec.sigma_q)
    return DiagonalTaskPosterior(mean, factor * np.diag(spec.sigma_q))


def end_task_gaussian(meta, summary, spec):
    """Fold one finished K-armed task into the meta-posterior.

    Each pulled arm contributes an estimate sums/counts of mu_star's arm mean
    with variance sigma_0 + noise**2 / counts; unpulled arms are untouched.
    Semibandit tasks use the same update: their counts come from subset
    membership, so each arm in a played subset counts as one pull.  The
    update is in variance form, so zero-variance arms and zero-width task
    priors stay exact point masses.
    """
    out = meta.copy()
    mean, var = out.mean, out.var
    counts, sums = summary.counts, summary.sums
    sigma0_var = np.broadcast_to(np.diag(spec.sigma_0), var.shape)
    # zero-variance arms are point masses: data cannot move them, and
    # skipping them keeps the stored mean bit-exact
    pulled = (counts > 0) & (var > 0)
    if np.any(pulled):
        obs_var = sigma0_var[pulled] + spec.noise_sigma**2 / counts[pulled]
        obs_mean = sums[pulled] / counts[pulled]
        mean[pulled], var[pulled] = _fuse(mean[pulled], var[pulled], obs_mean, obs_var)
    return out


def end_task_linear(meta, summary, spec):
    """Fold one finished linear task into the dense meta-posterior.

    With C = gram / noise**2 and b = weighted / noise**2, the task adds
    P = (I + C sigma_0)^{-1} C of meta-precision and s = (I + C sigma_0)^{-1} b
    to the mean-side vector (C - C (sigma_0^{-1} + C)^{-1} C and its shift,
    rewritten by the push-through identity).  The new covariance and mean are
    (I + cov P)^{-1} [cov | mean + cov s].  Both steps are linear solves
    against I plus a product of PSD matrices, whose eigenvalues are >= 1, so
    nothing is inverted: a zero-width task prior or a point-mass
    meta-posterior stays exact.
    """
    noise_var = spec.noise_sigma**2
    dim = meta.mean.shape[-1]
    eye = np.eye(dim)
    c = summary.gram / noise_var
    b = summary.weighted / noise_var
    inc = np.linalg.solve(eye + c @ spec.sigma_0, np.concatenate([c, b[..., None]], axis=-1))
    prec_inc, shift_inc = inc[..., :dim], inc[..., dim]
    shifted = meta.mean + matvec(meta.cov, shift_inc)
    out = np.linalg.solve(
        eye + meta.cov @ prec_inc,
        np.concatenate([meta.cov, shifted[..., None]], axis=-1),
    )
    return FullTaskPosterior(out[..., dim], out[..., :dim])


# ---------------------------------------------------------------------------
# Within-task sufficient statistics, and the Gaussian beliefs
# ---------------------------------------------------------------------------


class ArmSummary:
    """Pull counts and reward sums per arm for one task, as `lead` +
    (num_arms,) arrays."""

    __slots__ = ("counts", "sums")

    def __init__(self, num_arms, lead=()):
        shape = lead + (num_arms,)
        self.counts = np.zeros(shape, dtype=int)
        self.sums = np.zeros(shape)

    def add(self, arm, reward):
        """Count a pull of `arm` (an arm, or an array of distinct arms; per
        run, one arm or one row of arms for each run) with its reward."""
        at = hierarchy.flat_index(self.counts.shape, arm)
        counts, sums = hierarchy.flat_view(self.counts), hierarchy.flat_view(self.sums)
        counts[at] += 1
        sums[at] += reward


class LinearSummary:
    """Gram matrix and reward-weighted feature sum for one task, with the
    leading shape `lead`."""

    __slots__ = ("gram", "weighted")

    def __init__(self, dim, lead=()):
        self.gram = np.zeros(lead + (dim, dim))
        self.weighted = np.zeros(lead + (dim,))

    def add(self, feature, reward):
        self.gram += feature[..., :, None] * feature[..., None, :]
        self.weighted += feature * np.asarray(reward)[..., None]


def _fuse(mean, var, obs, obs_var):
    """Independent Gaussian beliefs N(mean, var) fused with observations
    `obs` of variance `obs_var`, in variance form: (mean, var) after."""
    denom = var + obs_var
    return (mean * obs_var + obs * var) / denom, var * obs_var / denom


class DiagonalTaskPosterior:
    """Independent per-arm Gaussian belief, updated in variance form so
    zero-variance arms remain exact: a task posterior over theta, or the
    meta-posterior over the task-prior mean of the K-armed and semibandit
    families.  `var` is repeated along any run axis `mean` has.  It answers
    the protocol as FullTaskPosterior does, and draws as one with the
    covariance diag(var) would, bit for bit."""

    __slots__ = ("mean", "var")

    def __init__(self, mean, var):
        self.mean = np.array(mean, dtype=float, order="C")
        self.var = np.array(np.broadcast_to(var, self.mean.shape), dtype=float, order="C")

    def copy(self):
        return DiagonalTaskPosterior(self.mean, self.var)

    def update(self, arm, reward, noise_var):
        """Condition on `reward` from `arm`: arms and rewards as in
        ArmSummary.add."""
        at = hierarchy.flat_index(self.var.shape, arm)
        mean, var = hierarchy.flat_view(self.mean), hierarchy.flat_view(self.var)
        mean[at], var[at] = _fuse(mean[at], var[at], reward, noise_var)

    def sample(self, rng):
        """One draw per row of `mean` beyond rng's leading shape, as
        mvn_sample draws them."""
        z = rng.standard_normal(self.mean.shape[len(rng.lead):])
        return self.mean + np.sqrt(self.var) * z

    draw = sample

    def task_prior(self, spec):
        return DiagonalTaskPosterior(self.mean, self.var + np.diag(spec.sigma_0))

    def centered(self, center, spec):
        center = np.broadcast_to(center, self.mean.shape)
        return DiagonalTaskPosterior(center, np.diag(spec.sigma_0))


class FullTaskPosterior:
    """Dense Gaussian belief in covariance form: a task posterior over theta,
    or the linear family's meta-posterior over the task-prior mean.

    Each observation is folded in by a Sherman-Morrison rank-one update, so
    no update factors or inverts anything; the only factorization is the one
    `sample` needs.  The downdate term outer(cf, cf) is exactly symmetric,
    and a zero covariance (a point-mass prior) stays exactly zero.  `cov` is
    repeated along any run axis `mean` has, and `update` then takes one
    feature and reward per run.
    """

    __slots__ = ("mean", "cov")

    def __init__(self, mean, cov):
        self.mean = np.array(mean, dtype=float)
        self.cov = symmetrize(np.broadcast_to(cov, self.mean.shape + self.mean.shape[-1:]))

    def copy(self):
        return FullTaskPosterior(self.mean, self.cov)

    def update(self, feature, reward, noise_var):
        cf = matvec(self.cov, feature)
        denom = noise_var + dot(feature, cf)
        gain = (reward - dot(feature, self.mean)) / denom
        self.mean = self.mean + cf * gain[..., None]
        self.cov = self.cov - cf[..., :, None] * cf[..., None, :] / denom[..., None, None]

    def sample(self, rng):
        return mvn_sample(self.mean, self.cov, rng)

    def draw(self, rng):
        """`sample`, except that a point mass returns its mean exactly and
        draws nothing, where a Cholesky factor would add jitter noise.  The
        test is made per row of rng: only the rows that are not point masses
        factor and draw."""
        lead = self.cov.shape[:len(rng.lead)]
        point = ~np.any(self.cov.reshape(lead + (-1,)), axis=-1)
        if np.all(point):
            return self.mean
        if not np.any(point):
            return self.sample(rng)
        spread = np.flatnonzero(~point)
        out = self.mean.copy()
        out[spread] = select_rows(self, spread).sample(rng.rows(spread))
        return out

    def task_prior(self, spec):
        return FullTaskPosterior(self.mean, self.cov + spec.sigma_0)

    def centered(self, center, spec):
        return FullTaskPosterior(np.broadcast_to(center, self.mean.shape), spec.sigma_0)


def select_rows(state, index):
    """The rows `index` of a belief or a within-task summary, along the
    first axis of each of its slots; a slice gives views."""
    out = object.__new__(type(state))
    for name in state.__slots__:
        setattr(out, name, getattr(state, name)[index])
    return out


def join_rows(parts):
    """One belief from (index, part) pairs whose indices partition its rows:
    row index[j] of the result is row j of that part."""
    first = parts[0][1]
    count = sum(len(index) for index, _ in parts)
    out = object.__new__(type(first))
    for name in first.__slots__:
        kept = getattr(first, name)
        joined = np.empty((count,) + kept.shape[1:], kept.dtype)
        for index, part in parts:
            joined[index] = getattr(part, name)
        setattr(out, name, joined)
    return out


def _rule(kind):
    """The base whose task-start rule `kind` follows (see begin_task)."""
    return ADA_TS if kind.base in _INTEGRATING else kind.base


def begin_task(kind, meta, spec, rng, mu_star=None):
    """Task prior for a fresh task under the given policy, with the leading
    shape of the meta-posterior `meta` of any family; `mu_star` broadcasts
    against it from the right.  ts, ada-ts and ada-ts-forced integrate the
    meta-posterior into the task prior (ts never updates it); meta-ts
    centres the task prior on one draw of it, oracle-ts on mu_star, and
    misassigned-ts on the mixture component after mu_star's."""
    if kind.base in _INTEGRATING:
        return meta.task_prior(spec)
    if kind.base == META_TS:
        return meta.centered(meta.draw(rng), spec)
    if mu_star is None:
        raise ValueError(f"{kind.base} needs the true mu_star")
    if kind.base == MISASSIGNED_TS:
        require_family(kind, spec.family)
        mu_star = (np.asarray(mu_star) + 1) % spec.num_components
    return meta.centered(mu_star, spec)


def ts_select(posterior, actions, rng):
    """Sample a parameter from the posterior and play greedily against it.

    ``actions`` is the arm count (int), the feature matrix (linear, with a
    leading row axis when each row has its own), or a (num_arms, budget) pair
    (semibandit).  Ties go to the lowest index.  Per row of the posterior's
    leading shape, the action is an index or a sorted int array of arms; a
    per-row feature matrix broadcasts against that shape from the right, so
    it serves every task of its row when the shape is (m, rows).
    """
    theta = posterior.sample(rng)
    if isinstance(actions, tuple):
        _, budget = actions
        return hierarchy.top_subset(theta, budget)
    if not isinstance(actions, (int, np.integer)):
        theta = matvec(np.asarray(actions), theta)
    return np.argmax(theta, axis=-1)


def _action_set(spec):
    """The `actions` argument of ts_select for `spec`."""
    if spec.family == hierarchy.LINEAR:
        return spec.actions
    if spec.family == hierarchy.SEMIBANDIT:
        return (spec.num_arms, spec.budget)
    return spec.num_arms


# ---------------------------------------------------------------------------
# Forced exploration
# ---------------------------------------------------------------------------


def exploring_tasks(m):
    """Tasks that open with forced exploration: {i*i + 1 : i = 0, 1, ...} up
    to m, a set whose size grows like sqrt(m)."""
    out = set()
    i = 0
    while i * i + 1 <= m:
        out.add(i * i + 1)
        i += 1
    return out


def covering_subsets(num_arms, budget):
    """Subsets of size `budget` that jointly cover all arms; the last one is
    padded with the first arms when the counts do not divide evenly."""
    subsets = []
    for start in range(0, num_arms, budget):
        chunk = list(range(start, min(start + budget, num_arms)))
        filler = 0
        while len(chunk) < budget:
            if filler not in chunk:
                chunk.append(filler)
            filler += 1
        subsets.append(tuple(sorted(chunk)))
    return subsets


# Smallest exploration strength (Gram eigenvalue) that counts as spanning.
SPAN_FLOOR = 1e-6


def choose_spanning_actions(actions):
    """Pick d actions from the set that jointly span, greedily maximizing the
    smallest eigenvalue of the running Gram matrix.

    Returns (row indices, eta) where eta is the smallest eigenvalue of the
    chosen Gram.  Raises ValueError if the set cannot reach eta >= SPAN_FLOOR,
    as a set of fewer than d actions never can.
    """
    actions = np.asarray(actions, dtype=float)
    num, dim = actions.shape
    chosen = []
    gram = np.zeros((dim, dim))
    for _ in range(min(dim, num)):
        best_idx, best_score = None, None
        for idx in range(num):
            if idx in chosen:
                continue
            cand = gram + np.outer(actions[idx], actions[idx])
            score = tuple(np.linalg.eigvalsh(cand))
            if best_score is None or score > best_score:
                best_idx, best_score = idx, score
        chosen.append(best_idx)
        gram += np.outer(actions[best_idx], actions[best_idx])
    eta = float(np.linalg.eigvalsh(gram)[0])
    if eta < SPAN_FLOOR:
        raise ValueError(
            f"the {num} actions do not span R^{dim}: the best {len(chosen)} reach "
            f"exploration strength {eta:.3g} < {SPAN_FLOOR:g}"
        )
    return chosen, eta


def opening_actions(spec):
    """The actions forced exploration plays, one per opening round: every
    arm (K-armed), covering subsets (semibandit), or the rows of the action
    set that span R^d (linear).  For a (runs, K, d) set each round holds one
    row index per run."""
    if spec.family == hierarchy.LINEAR:
        if spec.actions is None:
            raise ValueError("linear forced exploration needs an action set")
        sets = spec.actions.reshape((-1,) + spec.actions.shape[-2:])
        rows = np.array([choose_spanning_actions(actions)[0] for actions in sets])
        return list(rows.T.reshape((spec.dim,) + spec.actions.shape[:-2]))
    if spec.family == hierarchy.SEMIBANDIT:
        return covering_subsets(spec.num_arms, spec.budget)
    return list(range(spec.num_arms))


# ---------------------------------------------------------------------------
# Bernoulli mixture variant
# ---------------------------------------------------------------------------


def _normalize_log_weights(log_w):
    top = np.max(log_w, axis=-1, keepdims=True)
    return log_w - (top + np.log(np.sum(np.exp(log_w - top), axis=-1, keepdims=True)))


def _log_weights(weights):
    """Log of mixture weights; a zero weight is -inf, without a warning."""
    with np.errstate(divide="ignore"):
        return np.log(weights)


def _log_rising(x, count):
    """log x(x+1)...(x+count-1) elementwise, for integer-valued counts >= 0:
    one log per factor, summed per element by bincount."""
    x, count = np.broadcast_arrays(x, count)
    count = count.astype(int).ravel()
    at = np.repeat(np.arange(count.size), count)
    steps = np.arange(at.size) - np.repeat(np.cumsum(count) - count, count)
    return np.bincount(at, np.log(x.ravel()[at] + steps), count.size).reshape(x.shape)


def beta_log_evidence(alphas, betas, successes, failures):
    """log B(alpha + s, beta + f) - log B(alpha, beta) elementwise: the log
    probability of a sequence of `successes` ones and `failures` zeros under
    Beta(alphas, betas), the product that MixtureTaskState.update builds one
    outcome at a time.  It is summed as logs of rising factorials, because a
    difference of log-gamma values cancels at large alpha + beta: at 1e15
    it loses every digit of the evidence."""
    return (_log_rising(alphas, successes) + _log_rising(betas, failures)
            - _log_rising(alphas + betas, successes + failures))


def mixture_update(meta, summary):
    """Reweight components by the marginal likelihood of one task's data.

    ``summary`` is the task's ArmSummary of Bernoulli outcomes: per arm (and
    per run) ``sums`` successes in ``counts`` pulls.  Each component's log
    marginal is its beta_log_evidence summed over arms.  The result keeps
    the meta-posterior's Beta tables, the prior's.
    """
    ones = summary.sums[..., None, :]
    zeros = (summary.counts - summary.sums)[..., None, :]
    log_marginals = np.sum(beta_log_evidence(meta.alphas, meta.betas, ones, zeros), axis=-1)
    return MixtureTaskState(
        _normalize_log_weights(meta.log_weights + log_marginals), meta.alphas, meta.betas
    )


class MixtureTaskState:
    """Mixture belief: component log-weights plus per-component Beta
    posteriors, all conditioned on the same data.  Within a task it is the
    task posterior; between tasks it holds the meta-posterior over which
    component generates the tasks, with the prior's Beta tables.  With a run
    axis the log-weights are (runs, C) and the Beta tables (runs, C, K)."""

    __slots__ = ("log_weights", "alphas", "betas")

    def __init__(self, log_weights, alphas, betas):
        self.log_weights = np.array(log_weights, dtype=float)
        shape = self.log_weights.shape + np.shape(alphas)[-1:]
        self.alphas = np.array(np.broadcast_to(alphas, shape), dtype=float, order="C")
        self.betas = np.array(np.broadcast_to(betas, shape), dtype=float, order="C")

    @property
    def weights(self):
        return np.exp(self.log_weights)

    def update(self, arm, outcome, noise_var):
        """Condition on one Bernoulli observation, or on one per run: the
        components are reweighted by their predictive probability, then their
        Beta posteriors absorb the outcome.  `noise_var` is ignored: a
        Bernoulli outcome carries its own noise."""
        outcome = np.asarray(outcome, dtype=float)
        if not np.all((outcome == 0.0) | (outcome == 1.0)):
            raise ValueError(f"Bernoulli outcome must be 0 or 1, got {outcome!r}")
        at = hierarchy.flat_index(self.alphas.shape, np.asarray(arm)[..., None])
        alphas, betas = hierarchy.flat_view(self.alphas), hierarchy.flat_view(self.betas)
        a, b = alphas[at], betas[at]
        hit = outcome[..., None]
        self.log_weights = _normalize_log_weights(
            self.log_weights + np.log(np.where(hit, a, b) / (a + b))
        )
        alphas[at] = a + hit
        betas[at] = b + (1.0 - hit)

    def task_prior(self, spec):
        return MixtureTaskState(self.log_weights, spec.mixture_alphas, spec.mixture_betas)

    def draw(self, rng):
        """One component per row of the log-weights, picked by one `random()`
        from each of rng's streams in turn."""
        u = np.reshape([stream.random() for stream in rng.streams], self.log_weights.shape[:-1])
        return hierarchy.pick_component(self.weights, u)

    def centered(self, center, spec):
        log_w = np.full(self.log_weights.shape, -np.inf)
        at = hierarchy.flat_index(log_w.shape, np.asarray(center, dtype=int))
        hierarchy.flat_view(log_w)[at] = 0.0
        return MixtureTaskState(log_w, spec.mixture_alphas, spec.mixture_betas)


def mixture_ts_select(state, rng):
    """Sample a component, then arm means from its Beta posteriors, and play
    the greedy arm; ties to the lowest index.

    The result holds one arm per run of the leading shape of `state`, whose
    runs are the streams of `rng`.  Each run's stream gives one `random()`
    (the component, picked by `state.draw` as meta-ts picks its task's),
    then one scalar Beta draw per arm, as it would alone: Beta draws use a
    variable amount of stream, so they cannot be drawn in blocks.
    """
    streams = rng.streams
    rows = np.ravel(hierarchy.flat_index(state.log_weights.shape, state.draw(rng)))
    num_arms = state.alphas.shape[-1]
    alphas = state.alphas.reshape(-1, num_arms)[rows].tolist()
    betas = state.betas.reshape(-1, num_arms)[rows].tolist()
    theta = [stream.beta_row(a, b) for stream, a, b in zip(streams, alphas, betas)]
    return np.argmax(np.reshape(theta, state.alphas.shape[:-2] + (num_arms,)), axis=-1)


# ---------------------------------------------------------------------------
# Harness-facing policy state machines
# ---------------------------------------------------------------------------


class _FamilyAgent:
    """The state of one or more policies across a run of tasks, for every
    reward family.

    The agent plays the rows of `rng` in lockstep with the leading shape
    `lead` = `rng.lead`: (R,) for a RunStreams of R rows, (m, R) for one
    with a task axis, whose tasks are all played at once (see
    `plays_tasks_at_once`), and () for an RngStream.  `kinds` is one
    AgentKind for every row, or one per row of lead's last axis: a row is
    one run of one policy, and rows of different policies play as one
    agent.  Each row's meta-prior width is its kind's `scale`.  All state
    has the leading shape; so has each action of `act`: an arm or a linear
    index into the row's action set, or a sorted int array of arms.
    `mu_star` (R, P), or each run's mixture component, and a linear action
    set, shared or one (K, d) per row, broadcast against lead from the
    right.  `observe` takes an action and its reward, or the array of its
    arms' rewards.

    A row does only the work, and makes only the draws, that it would make
    alone, so each row uses its own stream as it would alone.  `begin_task`
    takes the (first) task number and sets the task posterior `post` to
    each row's task prior (module `begin_task`), built for each rule on that
    rule's rows (`select_rows`, through `rng.rows`) and joined row-wise
    (`join_rows`); only meta-ts rows draw there.  ada-ts-forced works out
    the `opening_actions` of its rows once, when it is built: a linear
    action set that cannot span R^d raises ValueError there.  In an opening
    round its rows play them while the other rows sample.  A linear
    `observe` turns an action index into its feature vector first, and
    `end_task` folds the task into the meta-posterior of the learning rows
    with end_task_linear, mixture_update or end_task_gaussian, by family.
    """

    def __init__(self, kinds, spec, rng, mu_star=None):
        self.kinds = (kinds,) if isinstance(kinds, AgentKind) else tuple(kinds)
        if len(self.kinds) != 1 and rng.lead[-1:] != (len(self.kinds),):
            raise ValueError(f"{len(self.kinds)} agent kinds for the leading shape {rng.lead}")
        for kind in dict.fromkeys(self.kinds):
            require_family(kind, spec.family)
        self.spec = spec
        self.rng = rng
        self.lead = rng.lead
        self.mu_star = mu_star
        scale = [kind.scale for kind in self.kinds]
        self.meta = initial_meta_posterior(spec, self.lead, scale if len(scale) > 1 else scale[0])
        self.noise_var = spec.noise_sigma**2
        self._linear = spec.family == hierarchy.LINEAR
        self._mixture = spec.family == hierarchy.BERNOULLI_MIXTURE
        self._actions = _action_set(spec)
        self._starts = [(AgentKind(rule), self._rows_where(lambda k, rule=rule: _rule(k) == rule))
                        for rule in dict.fromkeys(map(_rule, self.kinds))]
        self._learn = self._rows_where(lambda k: k.base in _LEARNING)
        self._keep = self._rows_where(lambda k: k.base not in _LEARNING)
        self._forced = self._rows_where(lambda k: k.base == ADA_TS_FORCED)
        self._free = self._rows_where(lambda k: k.base != ADA_TS_FORCED)
        self._opening = []
        if self._forced is not None:
            _, forced_spec, forced_rng, _ = self._forced
            per_run = (spec.budget,) if spec.family == hierarchy.SEMIBANDIT else ()
            self._opening = [np.broadcast_to(a, forced_rng.lead + per_run)
                             for a in opening_actions(forced_spec)]
        self.post = None
        self.summary = None
        self.plan = []

    def _rows_where(self, test):
        """The rows whose kind passes `test` as (rows, spec, rng, mu_star):
        for every row, slice(None) and the agent's own spec, rng and
        mu_star; for some, their indices and their part of each; for none,
        None.  Rows of different kinds lie along a leading shape (R,)."""
        passed = [test(kind) for kind in self.kinds]
        if all(passed):
            return slice(None), self.spec, self.rng, self.mu_star
        if not any(passed):
            return None
        if len(self.lead) != 1:
            raise ValueError(f"rows of different policies with the leading shape {self.lead}")
        rows = np.flatnonzero(passed)
        spec = self.spec
        if self._linear and spec.actions.ndim == 3:
            spec = spec.with_actions(spec.actions[rows])
        mu_star = None if self.mu_star is None else self.mu_star[rows]
        return rows, spec, self.rng.rows(rows), mu_star

    def begin_task(self, s, m):
        priors = [(rows, begin_task(kind, select_rows(self.meta, rows), spec, rng, mu_star))
                  for kind, (rows, spec, rng, mu_star) in self._starts]
        self.post = priors[0][1] if len(priors) == 1 else join_rows(priors)
        summary = LinearSummary if self._linear else ArmSummary
        self.summary = summary(self.spec.param_dim, self.lead)
        self.plan = self._opening if self._opening and s in exploring_tasks(m) else []

    def act(self, t):
        if t > len(self.plan):
            return ts_select(self.post, self._actions, self.rng)
        if self._free is None:
            return self.plan[t - 1]
        rows, spec, rng, _ = self._free
        own = ts_select(select_rows(self.post, rows), _action_set(spec), rng)
        action = np.empty(self.lead + own.shape[1:], own.dtype)
        action[rows] = own
        action[self._forced[0]] = self.plan[t - 1]
        return action

    def observe(self, action, observation):
        if self._linear:
            action = hierarchy.linear_feature(self.spec, action)
        self.post.update(action, observation, self.noise_var)
        self.summary.add(action, observation)

    def end_task(self):
        if self._learn is None:
            return
        rows = self._learn[0]
        meta, summary = select_rows(self.meta, rows), select_rows(self.summary, rows)
        if self._mixture:
            meta = mixture_update(meta, summary)
        else:
            meta = (end_task_linear if self._linear else end_task_gaussian)(meta, summary, self.spec)
        if self._keep is not None:
            keep = self._keep[0]
            meta = join_rows([(rows, meta), (keep, select_rows(self.meta, keep))])
        self.meta = meta


class GaussianFamilyAgent(_FamilyAgent):
    """The agent of the Gaussian reward families: K-armed, linear and
    semibandit.  It and MixtureFamilyAgent are siblings, neither the other's
    subclass, so a tracer that wraps each class's methods wraps none twice."""


class MixtureFamilyAgent(_FamilyAgent):
    """The agent of the Bernoulli mixture family.

    ``ada-ts`` keeps the full component posterior; ``meta-ts`` samples one
    component per task; ``oracle-ts`` pins the true component and
    ``misassigned-ts`` pins a wrong one; ``ts`` plays as ada-ts but never
    updates its component posterior, so every task starts from the prior
    weights.  Only the agent's draws are made run by run, from each run's
    own stream in the order it would use alone.  Every kind's `scale` must
    be 1: a mixture meta-prior has no width to rescale.
    """

    def act(self, t):
        return mixture_ts_select(self.post, self.rng)
