"""Dense SPD linear algebra and seeded random streams used by every component.

Covariances in this package are small (dimension at most a few dozen), so
everything here works on plain dense ndarrays, or on stacks of them with a
leading run axis.  Factorizations retry with an escalating diagonal jitter so
that degenerate (rank-deficient) covariances, which arise naturally from
point-mass priors, still factor.
"""

import functools

import numpy as np

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
    """Solve a @ x = b for SPD `a` via Cholesky: two solves against the
    factor.  A reference for the tests; the package solves with its own
    factors."""
    lower = cholesky(a)
    return np.linalg.solve(lower.T, np.linalg.solve(lower, np.asarray(b, dtype=float)))


def spd_inverse(a):
    """Inverse of an SPD matrix, re-symmetrized; a reference like solve_spd."""
    return symmetrize(solve_spd(a, np.eye(np.shape(a)[-1])))


def mvn_sample(mean, cov, rng):
    """Draws from N(mean, cov) as mean + L @ z with L = cholesky(cov), one
    per row of `mean`: one per run from a RunStreams, or m from an RngStream
    for an (m, d) mean, with the bits of m one-row calls."""
    mean = np.asarray(mean, dtype=float)
    lower = cholesky(cov)
    z = rng.standard_normal(mean.shape[len(rng.lead):])
    return mean + matvec(lower, z)


# Uniforms per Gamma variate (see log_gamma): two for the Box-Muller normal
# of one Marsaglia-Tsang candidate, one to accept it, then one boost uniform
# for a shape below 1.  One candidate rejects in 4.8 % of draws at shape 1,
# the worst case, in 1.8 % at shape 2, 0.33 % at 9 and 0.06 % at 50 (2e6
# draws each); on the mixture-panel benchmark 1.6 % of variates fall back to
# a spill draw.  A second candidate costs more in uniforms and arithmetic
# than the spill draws it saves: a pass of that panel took 0.37-0.50 s with
# two, 0.25-0.34 s with one (2-core Xeon, numpy 2.4).
GAMMA_UNIFORMS = 4
# Below this |w|, _mt_exponent sums four terms of its series (relative error
# below 1e-12); from it up it takes the direct form, whose rounding error is
# below 1e-6 of g there and falls as |w| grows.
_MT_SERIES_BELOW = 1e-3
# Largest magnitude of a boost term log(U) / shape: a shape below about
# 1e-307 could overflow it, and a variate that small is 0 in any float.
_BOOST_FLOOR = 2.0**1020


def _mt_exponent(w):
    """g(w) = (log1p(w) - w) / (3 w**2) + 1/6 - w/9, for w > -1.

    Marsaglia and Tsang accept a candidate v = (1 + c z)**3 when log U <
    z**2/2 + d (1 - v + log v).  With w = c z and d c**2 = 1/9 that bound is
    z**2 g(w), which does not cancel at large d as d (1 - v + log v) does.
    g(w) <= 0, and near 0 it is -w**2/12 + w**3/15 - w**4/18 + w**5/21.
    Below |w| = 1e-100 it is taken as 0: z**2 g(w) is then far smaller than
    every nonzero log U, so no test changes, and w**2 would underflow.  An
    entry with w <= -1 gives g(1); it rejects anyway.
    """
    near = np.abs(w) < _MT_SERIES_BELOW
    far = np.where(near | (w <= -1.0), 1.0, w)
    g = (np.log1p(far) - far) / (3.0 * far * far) + (1.0 / 6.0 - far / 9.0)
    at = np.flatnonzero(near)
    if at.size:
        x = w.flat[at]
        x[np.abs(x) < 1e-100] = 0.0
        g.flat[at] = x * x * (-1.0 / 12.0 + x * (1.0 / 15.0 + x * (-1.0 / 18.0 + x / 21.0)))
    return g


def log_gamma(shape, u, rng):
    """The log of one Gamma(shape) variate per entry of the array `shape`,
    made from the uniforms `u`, GAMMA_UNIFORMS per entry along a last axis.

    Marsaglia and Tsang's (2000) method turns a normal and a uniform into a
    candidate that is accepted or rejected; each entry makes one candidate.
    So every variate takes the same number of uniforms, and they can be
    drawn in blocks.  A shape below 1 draws at shape + 1 and adds log(U) /
    shape from its boost uniform.  An entry whose candidate rejects draws
    `standard_gamma` from the `spill` generator of its row of rng (rows of
    `rng.lead`, which `shape` extends to the right, its entries in order),
    so the variate is exactly Gamma and a row's draws depend on no other
    row.  The result is a log, so that shapes from 1e-300 to 1e300 give
    finite values.
    """
    dims, shape, u = shape.shape, shape.ravel(), u.reshape(-1, GAMMA_UNIFORMS)
    small = np.flatnonzero(shape < 1.0)
    boosted = shape.copy()
    boosted[small] += 1.0
    d = boosted - 1.0 / 3.0
    c = 1.0 / (3.0 * np.sqrt(d))
    # 1 - u lies in (0, 1], so each log is finite
    z = np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.cos(2.0 * np.pi * u[:, 1])
    w = c * z
    inside = w > -1.0
    accept = inside & (np.log1p(-u[:, 2]) < z * z * _mt_exponent(w))
    log_x = np.log(d) + 3.0 * np.log1p(np.where(inside, w, 0.0))
    missed = np.flatnonzero(~accept)
    if missed.size:
        owner = missed // (shape.size // len(rng.streams))
        spills = [rng.streams[row].spill for row in owner.tolist()]
        drawn = [spill.standard_gamma(a) for spill, a in zip(spills, boosted[missed].tolist())]
        log_x[missed] = np.log(drawn)
    if small.size:
        a = shape[small]
        log_x[small] += np.maximum(np.log1p(-u[small, 3]), -_BOOST_FLOOR * a) / a
    return log_x.reshape(dims)


# Seeds are integers in [0, SEED_BOUND): see RngStream.
SEED_BOUND = 2**53


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
        # numpy turns the key [seed, stream_id] into float64 when one of the
        # two is below 2**63 and the other is not, as about half of the
        # harness's hashed stream ids are, and rounds both to 53 bits.  So
        # the cli and harness.ExperimentConfig refuse seeds from SEED_BOUND
        # up, two of which could share a stream.  Every stream rests on this
        # key, so it stays; only a value that rounds up to 2**64, which does
        # not cast back to the key's uint64, is held at the double below.
        key = np.array([self.seed, self.stream_id])
        if key.dtype == np.float64:
            key = np.minimum(key, np.nextafter(2.0**64, 0.0))
        self._key = key
        self.gen = np.random.Generator(np.random.Philox(key=key))

    @functools.cached_property
    def spill(self):
        """A second generator of this stream, for the few draws of variable
        size that blocks of `gen` cannot hold (see log_gamma): built on
        first use from the stream's key, 2**128 draws ahead of `gen` (the
        counter of Philox.jumped()), so its draws depend on neither `gen`'s
        state nor any other stream."""
        return np.random.Generator(np.random.Philox(key=self._key, counter=[0, 0, 1, 0]))

    def standard_normal(self, size=None):
        return self.gen.standard_normal(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.gen.normal(loc, scale, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)

    def random(self, size=None):
        return self.gen.random(size)

    def beta_row(self, alphas, betas):
        """One Beta(alpha, beta) draw per pair, as a list of floats: the
        tasks of a mixture world (hierarchy.sample_task).

        The draws are scalar calls made in order.  A Beta draw uses a
        variable amount of stream, and an array-argument call makes its draws
        the same way, one element after another, so the bits are the same;
        for a few pairs the scalar calls cost a fraction of the array call.
        The agents' Beta draws take a fixed number of uniforms instead (see
        log_gamma), so that they can be drawn in blocks.
        """
        beta = self.gen.beta
        return [beta(a, b) for a, b in zip(alphas, betas)]

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


class RunStreams:
    """One RngStream per row, drawn from in lockstep.

    `standard_normal(size)` and `random(size)` return one draw of shape
    `size` per row, stacked as lead + size in a C-contiguous float64 array of
    its own.  The leading shape `lead` of state played from it is (rows,).
    A row is one run of one agent; a block of agents that play together has
    one row per (agent, run).  `rows(index)` is a view of some of the rows
    (a boolean mask, integer indices or a slice) that draws as a RunStreams
    of its own: its draws advance only its rows.

    The draws come from blocks, and each row keeps its own count of the
    draws it has used.  When a row's block runs out, that row's stream
    makes `block` draws in one call, written in place into its row of one
    (rows, block, *size) array.  A block draw consumes a stream exactly as
    the same draws made one by one, so every row sees the numbers it would
    see alone, however the block boundaries fall and whichever rows each
    draw takes, as long as all draws from one stream have one kind and
    shape.  `block` is then only the number of draws per refill, free of
    the task length.  A request of another kind or shape while any row's
    block still holds draws would reorder the streams and raises
    ValueError.  A draw whose consumption varies cannot be blocked: a Beta
    variate is therefore made from a fixed number of uniforms (log_gamma),
    and only the rare variate that they do not settle is drawn from its
    row's own `spill` generator.
    """

    def __init__(self, streams, block):
        self.streams = tuple(streams)
        self.lead = (len(self.streams),)
        self.block = int(block)
        # flat offset of each row's block in the (rows, block) layout, and
        # of each row's next draw: every row starts used up
        self._start = np.arange(len(self.streams)) * self.block
        self._at = self._start + self.block
        self._left = 0  # draws of every row before some row refills
        self._drawn = self._flat = None
        self._pending = None  # (method, size) of the last request
        self._kind = None  # (method, shape) the blocks were drawn for

    def rows(self, index):
        return _RowStreams(self, np.arange(len(self.streams))[index])

    def _used(self):
        """Draws each row has used of its block."""
        return self._at - self._start

    def _draw(self, method, size, rows=None):
        if (method, size) != self._pending:
            # 2 and (2,) are one shape: compare shapes only here, off the
            # path of repeated requests
            shape = () if size is None else tuple(int(n) for n in np.atleast_1d(size))
            if (method, shape) != self._kind:
                if self._kind is not None and np.any(self._used() < self.block):
                    raise ValueError(
                        f"{method} draw of shape {shape} while {self._kind[0]} draws "
                        f"of shape {self._kind[1]} are pending"
                    )
                self._drawn = np.empty((len(self.streams), self.block, *shape))
                self._flat = self._drawn.reshape((-1, *shape))
                self._kind = (method, shape)
            self._pending = (method, size)
        if rows is None:
            if not self._left:
                self._refill(method, np.flatnonzero(self._used() == self.block))
                self._left = self.block - int(self._used().max())
            self._left -= 1
            out = self._flat.take(self._at, axis=0)
            self._at += 1
            return out
        used = self._used()[rows]
        self._refill(method, rows[used == self.block])
        at = self._at[rows]
        self._at[rows] = at + 1
        self._left = self.block - int(self._used().max())
        return self._flat.take(at, axis=0)

    def _refill(self, method, rows):
        for row in rows:
            getattr(self.streams[row].gen, method)(out=self._drawn[row])
            self._at[row] = self._start[row]

    def standard_normal(self, size=None):
        return self._draw("standard_normal", size)

    def random(self, size=None):
        return self._draw("random", size)


class _RowStreams:
    """Rows of a RunStreams (see RunStreams.rows), with their streams and
    the leading shape of state played from them."""

    def __init__(self, of, index):
        self._of, self._index = of, index
        self.streams = tuple(of.streams[row] for row in index)
        self.lead = (len(index),)

    def rows(self, index):
        return _RowStreams(self._of, self._index[index])

    def standard_normal(self, size=None):
        return self._of._draw("standard_normal", size, self._index)

    def random(self, size=None):
        return self._of._draw("random", size, self._index)
