"""Dense Gaussian linear algebra and the seeded stream wrapper."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metabandit import gauss_core as gc


def random_spd(rng, dim):
    m = rng.standard_normal((dim, dim))
    return m @ m.T + 0.1 * np.eye(dim)


# ---------------------------------------------------------------------------
# cholesky
# ---------------------------------------------------------------------------


def test_cholesky_identity():
    lower = gc.cholesky(np.eye(3))
    assert np.allclose(lower, np.eye(3))


def test_cholesky_known_factor():
    a = np.array([[4.0, 2.0], [2.0, 3.0]])
    lower = gc.cholesky(a)
    expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
    assert np.allclose(lower, expected, atol=1e-12)
    assert np.allclose(lower @ lower.T, a, atol=1e-12)


def test_cholesky_rank_one_succeeds_with_jitter():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    lower = gc.cholesky(a)
    assert lower[0, 1] == 0.0
    assert lower[0, 0] > 0 and lower[1, 1] > 0
    # the largest jitter level bounds the reconstruction error
    assert np.max(np.abs(lower @ lower.T - a)) <= 1e-7


def test_cholesky_rejects_indefinite():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(gc.NotPsd):
        gc.cholesky(a)


def test_cholesky_stack_jitters_only_the_failing_matrix():
    rng = np.random.default_rng(8)
    stack = np.stack([random_spd(rng, 3), np.ones((3, 3)), random_spd(rng, 3)])
    lower = gc.cholesky(stack)
    assert lower.shape == (3, 3, 3)
    for matrix, factor in zip(stack, lower):
        assert np.array_equal(factor, gc.cholesky(matrix))
    # the positive definite ones get numpy's own factor
    assert np.array_equal(lower[0], np.linalg.cholesky(stack[0]))
    assert np.array_equal(lower[2], np.linalg.cholesky(stack[2]))


def test_cholesky_stack_is_per_matrix_factor():
    rng = np.random.default_rng(9)
    stack = np.stack([random_spd(rng, 4) for _ in range(20)])
    lower = gc.cholesky(stack)
    assert all(np.array_equal(lower[i], gc.cholesky(stack[i])) for i in range(20))


def test_cholesky_roundtrip_random_spd():
    rng = np.random.default_rng(0)
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        a = random_spd(rng, dim)
        lower = gc.cholesky(a)
        err = np.linalg.norm(lower @ lower.T - a)
        assert err <= 1e-9 * np.linalg.norm(a)
        assert np.allclose(lower, np.tril(lower))


# ---------------------------------------------------------------------------
# solve_spd / spd_inverse
# ---------------------------------------------------------------------------


def test_solve_identity():
    b = np.array([3.0, -1.0])
    assert np.allclose(gc.solve_spd(np.eye(2), b), b)


def test_solve_diagonal():
    x = gc.solve_spd(np.diag([2.0, 5.0]), np.array([4.0, 10.0]))
    assert np.allclose(x, [2.0, 2.0])


def test_solve_residual():
    a = np.array([[4.0, 2.0], [2.0, 3.0]])
    b = np.array([2.0, 1.0])
    x = gc.solve_spd(a, b)
    assert np.linalg.norm(a @ x - b) < 1e-10


def test_solve_matrix_right_hand_side():
    rng = np.random.default_rng(3)
    a = random_spd(rng, 4)
    b = rng.standard_normal((4, 2))
    x = gc.solve_spd(a, b)
    assert np.linalg.norm(a @ x - b) < 1e-8 * np.linalg.norm(b)


def test_spd_inverse_diagonal():
    assert np.allclose(gc.spd_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))


def test_spd_inverse_identity():
    assert np.allclose(gc.spd_inverse(np.eye(5)), np.eye(5))


def test_spd_inverse_residual_and_symmetry():
    rng = np.random.default_rng(1)
    a = random_spd(rng, 4)
    inv = gc.spd_inverse(a)
    assert np.max(np.abs(a @ inv - np.eye(4))) < 1e-8
    assert np.array_equal(inv, inv.T)


def test_spd_inverse_involution():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = random_spd(rng, int(rng.integers(1, 7)))
        back = gc.spd_inverse(gc.spd_inverse(a))
        assert np.max(np.abs(back - a)) <= 1e-7 * max(1.0, np.max(np.abs(a)))


def test_symmetrize_exact():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.standard_normal((5, 5))
        s = gc.symmetrize(a)
        assert np.array_equal(s, s.T)


# ---------------------------------------------------------------------------
# mvn_sample
# ---------------------------------------------------------------------------


def test_mvn_zero_cov_collapses_to_mean():
    rng = gc.RngStream(0, 0)
    mean = np.array([1.0, -2.0, 3.0])
    draw = gc.mvn_sample(mean, np.zeros((3, 3)), rng)
    assert np.max(np.abs(draw - mean)) < 1e-3


def _one_row_draws(mean, cov, rng, count):
    """`count` one-row mvn_sample calls, which an (N, d) mean's one call
    draws as its first rows."""
    return np.array([gc.mvn_sample(mean, cov, rng) for _ in range(count)])


def test_mvn_moments():
    cov = np.diag([1.0, 4.0])
    n = 100_000
    draws = gc.mvn_sample(np.zeros((n, 2)), cov, gc.RngStream(5, 0))
    assert draws[:5].tobytes() == _one_row_draws(np.zeros(2), cov, gc.RngStream(5, 0), 5).tobytes()
    sample_cov = np.cov(draws.T)
    assert np.all(np.abs(np.diag(sample_cov) - [1.0, 4.0]) <= 0.05 * np.array([1.0, 4.0]))
    # per-coordinate mean within 4 sigma / sqrt(N)
    bound = 4.0 * np.sqrt([1.0, 4.0]) / math.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0)) <= bound)


def test_mvn_correlated_cov():
    cov = np.array([[2.0, 0.8], [0.8, 1.0]])
    draws = gc.mvn_sample(np.zeros((60_000, 2)), cov, gc.RngStream(6, 0))
    assert draws[:5].tobytes() == _one_row_draws(np.zeros(2), cov, gc.RngStream(6, 0), 5).tobytes()
    assert np.max(np.abs(np.cov(draws.T) - cov)) < 0.05 * np.max(cov)


# ---------------------------------------------------------------------------
# RngStream
# ---------------------------------------------------------------------------


def test_stream_determinism():
    a = gc.RngStream(1, 0).standard_normal(16)
    b = gc.RngStream(1, 0).standard_normal(16)
    assert np.array_equal(a, b)


def test_streams_differ_by_id_and_seed():
    base = gc.RngStream(1, 0).standard_normal(8)
    other_stream = gc.RngStream(1, 1).standard_normal(8)
    other_seed = gc.RngStream(2, 0).standard_normal(8)
    assert not np.array_equal(base, other_stream)
    assert not np.array_equal(base, other_seed)


def test_stream_accepts_large_ids():
    big = 2**63 + 12345
    a = gc.RngStream(2**64 - 1, big).random(4)
    b = gc.RngStream(2**64 - 1, big).random(4)
    assert np.array_equal(a, b)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, gc.SEED_BOUND - 1), st.integers(0, 2**64 - 1))
@example(0, 2**64 - 1)
@example(gc.SEED_BOUND - 1, 2**63)
def test_every_accepted_seed_and_id_build_one_stream(seed, stream_id):
    """Every seed the cli and harness accept builds a stream with any id,
    with no floating-point error on the way to numpy's key, and the same
    pair draws the same numbers."""
    with np.errstate(all="raise"):
        first, second = gc.RngStream(seed, stream_id), gc.RngStream(seed, stream_id)
    assert first.random(3).tobytes() == second.random(3).tobytes()


def test_stream_keys_keep_numpys_conversion():
    """The key is the one numpy makes of [seed, stream_id]: exact while both
    are below 2**63, rounded to a double once one of them is not."""
    for seed, stream_id in ((5, 7), (5, 2**63 + 5), (2**53 - 1, 2**64 - 2048), (2**64 - 1, 2**63)):
        numpys = np.random.Generator(np.random.Philox(key=[seed, stream_id])).random(3)
        assert gc.RngStream(seed, stream_id).random(3).tobytes() == numpys.tobytes()


def test_block_draw_equals_mixed_size_sequential_draws():
    """One standard_normal(n) call consumes a stream exactly like n single
    draws made in calls of any sizes; batched runs rest on this."""
    sizes = [None, 3, (2, 2), 1, None, 5, (4, 3), None]
    counts = [1 if size is None else int(np.prod(size)) for size in sizes]
    for stream_id in range(20):
        one_by_one = gc.RngStream(3, stream_id)
        pieces = [np.ravel(one_by_one.standard_normal(size)) for size in sizes]
        block = gc.RngStream(3, stream_id).standard_normal(sum(counts))
        assert np.array_equal(np.concatenate(pieces), block)


def test_run_streams_give_each_run_its_solo_draws():
    ids = [4, 9, 1]
    streams = gc.RunStreams([gc.RngStream(7, i) for i in ids], block=5)
    drawn = np.array([streams.standard_normal(2) for _ in range(12)])  # crosses blocks
    assert drawn.shape == (12, 3, 2)
    for run, stream_id in enumerate(ids):
        solo = gc.RngStream(7, stream_id)
        assert np.array_equal(drawn[:, run], [solo.standard_normal(2) for _ in range(12)])
    scalars = gc.RunStreams([gc.RngStream(7, i) for i in ids], block=4)
    assert scalars.standard_normal().shape == (3,)


def test_run_streams_refuse_a_new_shape_while_draws_are_pending():
    streams = gc.RunStreams([gc.RngStream(7, 0), gc.RngStream(7, 1)], block=3)
    streams.standard_normal(2)
    with pytest.raises(ValueError):
        streams.standard_normal(3)
    streams.standard_normal(2)
    streams.standard_normal(2)
    assert streams.standard_normal(3).shape == (2, 3)  # block used up: any shape


def test_run_streams_block_draw_uniforms_as_each_run_would_alone():
    ids = [4, 9, 1]
    streams = gc.RunStreams([gc.RngStream(7, i) for i in ids], block=5)
    drawn = np.array([streams.random() for _ in range(12)])  # crosses blocks
    assert drawn.shape == (12, 3)
    for run, stream_id in enumerate(ids):
        solo = gc.RngStream(7, stream_id)
        assert np.array_equal(drawn[:, run], [solo.random() for _ in range(12)])
    pairs = gc.RunStreams([gc.RngStream(7, i) for i in ids], block=4)
    drawn = np.array([pairs.random(2) for _ in range(6)])
    solo = gc.RngStream(7, ids[1])
    assert np.array_equal(drawn[:, 1], [solo.random(2) for _ in range(6)])


def test_run_streams_refuse_another_kind_while_draws_are_pending():
    streams = gc.RunStreams([gc.RngStream(7, 0), gc.RngStream(7, 1)], block=3)
    streams.standard_normal()
    with pytest.raises(ValueError, match="random draw"):
        streams.random()
    streams.standard_normal()
    streams.standard_normal()
    streams.random()  # block used up: any kind
    with pytest.raises(ValueError, match="standard_normal draw"):
        streams.standard_normal()


@pytest.mark.parametrize("method", ["standard_normal", "random"])
@pytest.mark.parametrize("size", [None, 2])
def test_row_masked_draws_give_each_row_its_solo_draws(method, size):
    """Draws over random row masks, with whole-row draws among them, give
    each row the numbers its stream gives one by one: a draw advances only
    its rows, and each row refills on its own when its block runs out."""
    ids, pick = [4, 9, 1, 6, 3], np.random.default_rng(0)
    streams = gc.RunStreams([gc.RngStream(7, i) for i in ids], block=3)
    drawn = [[] for _ in ids]
    for _ in range(40):
        mask = pick.random(len(ids)) < 0.5
        if not mask.any():
            mask[:] = True  # a whole-row draw
            out = getattr(streams, method)(size)
        else:
            view = streams.rows(mask)
            assert view.lead == (mask.sum(),)
            assert view.streams == tuple(np.array(streams.streams)[mask])
            out = getattr(view, method)(size)
        assert out.shape == (mask.sum(),) + (() if size is None else (size,))
        for row, draw in zip(np.flatnonzero(mask), out):
            drawn[row].append(draw)
    for row, stream_id in enumerate(ids):
        solo = gc.RngStream(7, stream_id)
        expected = [getattr(solo, method)(size) for _ in drawn[row]]
        assert np.array(drawn[row]).tobytes() == np.array(expected).tobytes()


def test_rows_of_a_view_are_rows_of_the_whole():
    streams = gc.RunStreams([gc.RngStream(7, i) for i in range(4)], block=2)
    inner = streams.rows([1, 2, 3]).rows([0, 2])
    assert inner.streams == (streams.streams[1], streams.streams[3])
    draws = np.array([inner.standard_normal() for _ in range(5)])
    for column, stream_id in enumerate((1, 3)):
        solo = gc.RngStream(7, stream_id)
        assert draws[:, column].tobytes() == solo.standard_normal(5).tobytes()


def test_row_masked_draws_refuse_another_kind_while_any_row_holds_draws():
    streams = gc.RunStreams([gc.RngStream(7, 0), gc.RngStream(7, 1)], block=2)
    streams.rows([0]).standard_normal()
    with pytest.raises(ValueError, match="random draw"):
        streams.rows([1]).random()  # row 1 holds none, but row 0 does
    streams.rows([0]).standard_normal()
    streams.rows([1]).random()  # every block used up: any kind


@pytest.mark.parametrize("method", ["standard_normal", "random"])
@pytest.mark.parametrize("size", [(), (3,)])
def test_task_axis_run_streams_give_each_task_its_draws(method, size):
    """A task axis lays the m tasks of each run side by side: the draw of
    (task, run, round) is the one a per-task RunStreams gives that round."""
    ids, m, n = [4, 9, 1], 5, 7
    per_task = gc.RunStreams([gc.RngStream(7, i) for i in ids], block=n)
    at_once = gc.RunStreams([gc.RngStream(7, i) for i in ids], block=n, tasks=m)
    assert at_once.lead == (m, 3)
    task_by_task = np.array([getattr(per_task, method)(size) for _ in range(m * n)])
    all_tasks = np.array([getattr(at_once, method)(size) for _ in range(n)])
    assert all_tasks.shape == (n, m, 3) + size
    for task in range(m):
        for t in range(n):
            assert all_tasks[t, task].tobytes() == task_by_task[task * n + t].tobytes()


@pytest.mark.parametrize("tasks", [None, 3])
@pytest.mark.parametrize("method", ["standard_normal", "random"])
@pytest.mark.parametrize("size", [None, 2, (2, 3)])
def test_run_stream_draws_are_c_contiguous_arrays_of_their_own(tasks, method, size):
    """Every draw is a C-contiguous float64 array that owns its data, in
    lead + size order: writing into one leaves the later draws unchanged."""
    def streams():
        return gc.RunStreams([gc.RngStream(7, i) for i in (4, 9)], block=3, tasks=tasks)

    written, clean = streams(), streams()
    shape = written.lead + (() if size is None else tuple(np.atleast_1d(size)))
    for _ in range(7):  # crosses blocks
        draw = getattr(written, method)(size)
        assert draw.shape == shape and draw.dtype == np.float64
        assert draw.flags.c_contiguous and draw.flags.owndata
        assert draw.tobytes() == getattr(clean, method)(size).tobytes()
        draw[...] = np.nan


def test_beta_row_draws_the_bits_of_one_array_call():
    """Scalar Beta draws consume a stream as one array-argument call does,
    in both of numpy's Beta algorithms (a, b <= 1, and otherwise)."""
    alphas = [9.0, 0.5, 1.0, 2.5, 0.3]
    betas = [1.0, 0.7, 9.0, 0.5, 0.9]
    for stream_id in range(50):
        rows = gc.RngStream(5, stream_id)
        whole = gc.RngStream(5, stream_id)
        for _ in range(4):
            assert np.array_equal(rows.beta_row(alphas, betas), whole.gen.beta(alphas, betas))
        assert rows.random() == whole.random()


def test_mvn_sample_stack_matches_each_run():
    """A RunStreams draws one row per run as each run would alone, and an
    RngStream given an (m, d) mean draws the m rows that m one-row calls
    draw from it, bit for bit."""
    rng = np.random.default_rng(10)
    for dim in (2, 3, 4, 8, 16):
        covs = np.stack([random_spd(rng, dim) for _ in range(4)])
        means = rng.standard_normal((4, dim))
        streams = gc.RunStreams([gc.RngStream(2, i) for i in range(4)], block=2)
        draws = gc.mvn_sample(means, covs, streams)
        for run in range(4):
            alone = gc.mvn_sample(means[run], covs[run], gc.RngStream(2, run))
            assert np.array_equal(draws[run], alone)
        stacked, one = gc.RngStream(3, dim), gc.RngStream(3, dim)
        rows = gc.mvn_sample(means, covs[0], stacked)
        for row, mean in zip(rows, means):
            assert row.tobytes() == gc.mvn_sample(mean, covs[0], one).tobytes()
        assert stacked.random() == one.random()


def test_mvn_sample_bitwise_reproducible():
    cov = np.array([[1.0, 0.3], [0.3, 2.0]])
    one = gc.mvn_sample(np.zeros(2), cov, gc.RngStream(1, 0))
    two = gc.mvn_sample(np.zeros(2), cov, gc.RngStream(1, 0))
    assert np.array_equal(one, two)
