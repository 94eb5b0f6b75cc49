"""Dense SPD linear algebra and seeded random streams used by every component.

Covariances in this package are small (dimension at most a few dozen), so
everything here works on plain dense ndarrays.  Factorizations retry with an
escalating diagonal jitter so that degenerate (rank-deficient) covariances,
which arise naturally from point-mass priors, still factor.
"""

import numpy as np
import scipy.linalg

# Diagonal jitter ladder tried in order until the factorization succeeds.
JITTERS = (0.0, 1e-12, 1e-10, 1e-8)


class NotPsd(Exception):
    """Matrix failed to factor even at the largest jitter level."""


def symmetrize(a):
    """Return (a + a.T) / 2; apply after any update that can drift asymmetric."""
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


def cholesky(a):
    """Lower-triangular L with L @ L.T == a + jitter * I.

    A matrix that factors as given returns numpy's factor unchanged; only on
    failure does the jitter escalate through the rest of `JITTERS`.  Raises
    NotPsd if the matrix is indefinite beyond repair.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotPsd(f"expected a square matrix, got shape {a.shape}")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
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
    """One draw from N(mean, cov) as mean + L @ z with L = cholesky(cov)."""
    mean = np.asarray(mean, dtype=float)
    lower = cholesky(cov)
    z = rng.standard_normal(mean.shape[0])
    return mean + lower @ z


class RngStream:
    """Counter-based random stream fully determined by (seed, stream_id).

    Streams with distinct ids are statistically independent, and the same
    (seed, stream_id) pair reproduces the identical draw sequence on any
    machine and under any scheduling, which is what makes concurrent
    experiment runs reproducible.
    """

    MASK = (1 << 64) - 1

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

    def beta(self, a, b, size=None):
        return self.gen.beta(a, b, size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
