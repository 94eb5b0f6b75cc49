"""Dense SPD linear algebra and seeded random streams used by every component.

Covariances in this package are small (dimension at most a few dozen), so
everything here works on plain dense ndarrays, or on stacks of them with a
leading run axis.  Factorizations retry with an escalating diagonal jitter so
that degenerate (rank-deficient) covariances, which arise naturally from
point-mass priors, still factor.
"""

import numpy as np
import scipy.linalg

# Diagonal jitter ladder tried in order until the factorization succeeds.
JITTERS = (0.0, 1e-12, 1e-10, 1e-8)


class NotPsd(Exception):
    """Matrix failed to factor even at the largest jitter level."""


def symmetrize(a):
    """Return (a + a.T) / 2 for a matrix or each matrix of a stack; apply
    after any update that can drift asymmetric."""
    a = np.asarray(a, dtype=float)
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def matvec(a, x):
    """a @ x for a matrix (or stack) `a` and a vector (or stack) `x`.

    Every product goes through the same BLAS matrix-vector call, with or
    without a run axis, so a stack gives each run's product bit for bit.
    """
    return (a @ x[..., None])[..., 0]


def dot(x, y):
    """x @ y for vectors, or row by row for stacks of them."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def cholesky(a):
    """Lower-triangular L with L @ L.T == a + jitter * I.

    A matrix that factors as given returns numpy's factor unchanged; only on
    failure does the jitter escalate through the rest of `JITTERS`.  A stack
    of matrices is factored in one call; if any of them fails, each is
    factored on its own, so only the failing ones take jitter.  Raises NotPsd
    if a matrix is indefinite beyond repair.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotPsd(f"expected a square matrix, got shape {a.shape}")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    if a.ndim > 2:
        return np.stack([cholesky(matrix) for matrix in a])
    eye = np.eye(a.shape[0])
    for jitter in JITTERS[1:]:
        try:
            return np.linalg.cholesky(a + jitter * eye)
        except np.linalg.LinAlgError:
            continue
    raise NotPsd(f"matrix of dim {a.shape[0]} is not PSD at any jitter level")


def solve_spd(a, b):
    """Solve a @ x = b for SPD `a` via Cholesky."""
    lower = cholesky(a)
    return scipy.linalg.cho_solve((lower, True), np.asarray(b, dtype=float))


def spd_inverse(a):
    """Inverse of an SPD matrix, re-symmetrized."""
    lower = cholesky(a)
    inv = scipy.linalg.cho_solve((lower, True), np.eye(lower.shape[0]))
    return symmetrize(inv)


def mvn_sample(mean, cov, rng):
    """One draw from N(mean, cov) as mean + L @ z with L = cholesky(cov);
    with a run axis (and `rng` a RunStreams), one draw per run."""
    mean = np.asarray(mean, dtype=float)
    lower = cholesky(cov)
    z = rng.standard_normal(mean.shape[-1])
    return mean + matvec(lower, z)


class RngStream:
    """Counter-based random stream fully determined by (seed, stream_id).

    Streams with distinct ids are statistically independent, and the same
    (seed, stream_id) pair reproduces the identical draw sequence on any
    machine, so a run gives the same output whether it is played alone or
    in lockstep with others.  It serves as a RunStreams of one run without
    a run axis: its `streams` are itself and its `lead` shape is ().
    """

    MASK = (1 << 64) - 1
    lead = ()
    streams = property(lambda self: (self,))

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed) & self.MASK
        self.stream_id = int(stream_id) & self.MASK
        self.gen = np.random.Generator(
            np.random.Philox(key=[self.seed, self.stream_id])
        )

    def standard_normal(self, size=None):
        return self.gen.standard_normal(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.gen.normal(loc, scale, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)

    def random(self, size=None):
        return self.gen.random(size)

    def beta_row(self, alphas, betas):
        """One Beta(alpha, beta) draw per pair, as a list of floats.

        The draws are scalar calls made in order.  A Beta draw uses a
        variable amount of stream, and an array-argument call makes its draws
        the same way, one element after another, so the bits are the same;
        for a few pairs the scalar calls cost a fraction of the array call.
        """
        beta = self.gen.beta
        return [beta(a, b) for a, b in zip(alphas, betas)]

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


class RunStreams:
    """One RngStream per run, drawn from in lockstep.

    `standard_normal(size)` and `random(size)` return one draw of shape
    `size` per run, stacked as (runs, *size).  The draws come from blocks of
    `block` draws that each stream makes in one call.  A block draw consumes
    a stream exactly as the same draws made one by one, so every run sees the
    numbers it would see alone, however the block boundaries fall, as long as
    all draws from one stream have one kind and shape.  A request of another
    kind or shape while a block still holds draws would reorder the streams
    and raises ValueError.  Draws whose consumption varies (Beta variates)
    cannot be blocked: take them from each of `streams` in turn.  `lead` is
    the leading shape, (runs,), of state played from it.
    """

    def __init__(self, streams, block):
        self.streams = tuple(streams)
        self.lead = (len(self.streams),)
        self.block = int(block)
        self._drawn = ()
        self._pending = None  # (method, size) the pending block was drawn for
        self._next = 0

    @property
    def runs(self):
        return len(self.streams)

    def _draw(self, method, size):
        if self._next == len(self._drawn):
            shape = () if size is None else tuple(np.atleast_1d(size))
            self._drawn = np.stack(
                [getattr(s, method)((self.block, *shape)) for s in self.streams], axis=1
            )
            self._pending = (method, size)
            self._next = 0
        elif (method, size) != self._pending:
            raise ValueError(
                f"{method} draw of size {size} while {self._pending[0]} draws "
                f"of size {self._pending[1]} are pending"
            )
        self._next += 1
        return self._drawn[self._next - 1]

    def standard_normal(self, size=None):
        return self._draw("standard_normal", size)

    def random(self, size=None):
        return self._draw("random", size)
