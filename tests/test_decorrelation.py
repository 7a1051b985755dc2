import math
import tracemalloc
import warnings

import numpy as np
import pytest

from decorgnn import decorrelation as dc
from decorgnn.encoder import Workspace


def transcription_cov(zi, zj, w, f_bank, g_bank):
    """Term-by-term oracle: row n contributes (w_n f(z_i,n) - fbar) outer
    (w_n g(z_j,n) - gbar); means divide by N, the sum by N - 1."""
    n = len(zi)
    f_rows = [math.sqrt(2.0) * np.cos(f_bank[0] * zi[k] + f_bank[1])
              for k in range(n)]
    g_rows = [math.sqrt(2.0) * np.cos(g_bank[0] * zj[k] + g_bank[1])
              for k in range(n)]
    f_bar = sum(w[k] * f_rows[k] for k in range(n)) / n
    g_bar = sum(w[k] * g_rows[k] for k in range(n)) / n
    total = sum(np.outer(w[k] * f_rows[k] - f_bar, w[k] * g_rows[k] - g_bar)
                for k in range(n))
    return total / (n - 1)


def test_rff_fixed_vectors():
    bank = np.array([[0.0], [np.pi / 2.0]])  # frequencies, then phases
    assert abs(dc.feature_matrix([3.7], bank)[0, 0]) < 1e-12
    phases = np.array([0.0, 1.0, 2.5])
    bank = np.array([np.ones(3), phases])
    assert np.allclose(dc.feature_matrix([0.0], bank)[0],
                       np.sqrt(2.0) * np.cos(phases))


def test_rff_moments_mean_zero_variance_one():
    bank = dc.sample_bank(20_000, np.random.default_rng(4))
    mapped = dc.feature_matrix([1.7], bank)[0]
    assert abs(mapped.mean()) < 3.0 / math.sqrt(20_000)
    assert abs(mapped.var() - 1.0) < 0.03


def test_feature_matrix_matches_scalar_map_and_identity():
    rng = np.random.default_rng(1)
    z = rng.standard_normal(6)
    bank = dc.sample_bank(4, rng)
    mat = dc.feature_matrix(z, bank)
    for row, x in zip(mat, z):
        assert np.allclose(row, dc.feature_matrix([x], bank)[0], atol=1e-14)
        assert np.allclose(row, np.sqrt(2.0) * np.cos(bank[0] * x + bank[1]),
                           atol=1e-14)
    assert np.array_equal(dc.feature_matrix(z, None), z[:, None])


def test_weighted_partial_cov_matches_transcription():
    rng = np.random.default_rng(8)
    zi, zj = rng.standard_normal(3), rng.standard_normal(3)
    w = rng.uniform(0.5, 1.5, 3)
    fb, gb = dc.sample_bank(2, rng), dc.sample_bank(2, rng)
    got = dc.weighted_partial_cov(zi, zj, w, fb, gb)
    assert got.shape == (2, 2)
    assert np.allclose(got, transcription_cov(zi, zj, w, fb, gb), atol=1e-12)


def test_uniform_weights_reduce_to_plain_cross_covariance():
    rng = np.random.default_rng(15)
    n = 64
    zi, zj = rng.standard_normal(n), rng.standard_normal(n)
    fb, gb = dc.sample_bank(3, rng), dc.sample_bank(3, rng)
    f = dc.feature_matrix(zi, fb)
    g = dc.feature_matrix(zj, gb)
    # independent unweighted route, written out longhand
    plain = np.zeros((3, 3))
    for k in range(n):
        plain += np.outer(f[k] - f.mean(axis=0), g[k] - g.mean(axis=0))
    plain /= n - 1
    got = dc.weighted_partial_cov(zi, zj, np.ones(n), fb, gb)
    assert np.abs(got - plain).max() < 1e-12


def test_objective_is_sum_of_pair_norms():
    rng = np.random.default_rng(21)
    z = rng.standard_normal((10, 4))
    banks = dc.sample_banks(4, 2, rng)
    pairs = dc.sample_pairs(4, 1.0, rng)
    total = dc.decorrelation_objective(z, np.ones(10), banks, pairs)
    by_hand = sum(
        np.linalg.norm(dc.weighted_partial_cov(
            z[:, i], z[:, j], np.ones(10), banks[i][0], banks[j][1])) ** 2
        for i, j in pairs)
    assert math.isclose(total, by_hand, rel_tol=1e-12)
    assert dc.decorrelation_objective(z, np.ones(10), banks.tolist(), pairs) == total


def test_single_pair_objective_is_squared_frobenius_norm():
    rng = np.random.default_rng(22)
    z = rng.standard_normal((8, 2))
    banks = dc.sample_banks(2, 1, rng)
    c = dc.weighted_partial_cov(z[:, 0], z[:, 1], np.ones(8), banks[0][0], banks[1][1])
    total = dc.decorrelation_objective(z, np.ones(8), banks, [(0, 1)])
    assert math.isclose(total, float(np.sum(c * c)), rel_tol=1e-12)


def test_swapping_pair_roles_transposes_the_covariance():
    # With one shared bank per dimension for both roles, scoring (j, i)
    # produces the transpose of scoring (i, j), so the objective is
    # direction-free.
    rng = np.random.default_rng(23)
    z = rng.standard_normal((12, 2))
    shared = [dc.sample_bank(3, rng) for _ in range(2)]
    w = rng.uniform(0.5, 2.0, 12)
    c_ij = dc.weighted_partial_cov(z[:, 0], z[:, 1], w, shared[0], shared[1])
    c_ji = dc.weighted_partial_cov(z[:, 1], z[:, 0], w, shared[1], shared[0])
    assert np.allclose(c_ji, c_ij.T, atol=1e-12)
    assert math.isclose(float(np.sum(c_ij ** 2)), float(np.sum(c_ji ** 2)),
                        rel_tol=1e-12)


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(30)
    z = rng.standard_normal((8, 4))
    banks = dc.sample_banks(4, 2, rng)
    pairs = dc.sample_pairs(4, 1.0, rng)
    w = rng.uniform(0.5, 1.5, 8)
    lam = 0.7

    analytic = dc.objective_grad_weights(z, w, banks, pairs, l2_lambda=lam)
    step = 1e-6
    numeric = np.zeros_like(w)
    for k in range(w.size):
        hi, lo = w.copy(), w.copy()
        hi[k] += step
        lo[k] -= step
        f_hi = dc.decorrelation_objective(z, hi, banks, pairs) + lam * hi @ hi
        f_lo = dc.decorrelation_objective(z, lo, banks, pairs) + lam * lo @ lo
        numeric[k] = (f_hi - f_lo) / (2 * step)
    rel = np.abs(analytic - numeric) / np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    assert rel.max() < 1e-4


def test_gradient_with_identity_maps_matches_finite_differences():
    rng = np.random.default_rng(31)
    z = rng.standard_normal((10, 3))
    banks = None  # identity maps
    pairs = [(0, 1), (0, 2), (1, 2)]
    w = rng.uniform(0.8, 1.2, 10)
    analytic = dc.objective_grad_weights(z, w, banks, pairs)
    step = 1e-6
    for k in range(w.size):
        hi, lo = w.copy(), w.copy()
        hi[k] += step
        lo[k] -= step
        num = (dc.decorrelation_objective(z, hi, banks, pairs)
               - dc.decorrelation_objective(z, lo, banks, pairs)) / (2 * step)
        assert abs(analytic[k] - num) / max(abs(analytic[k]), abs(num), 1e-8) < 1e-4


def test_sample_pairs_full_enumeration_and_subsets():
    assert dc.sample_pairs(4, 1.0, 0) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    sub = dc.sample_pairs(10, 0.2, 5)
    assert len(sub) == 1  # ceil(2) dims -> one pair
    assert sub == dc.sample_pairs(10, 0.2, 5)
    i, j = sub[0]
    assert 0 <= i < j < 10
    with pytest.raises(ValueError):
        dc.sample_pairs(4, 0.25, 0)  # keeps a single dimension
    with pytest.raises(ValueError):
        dc.sample_pairs(1, 1.0, 0)


def _raw_banks(rng, d, q):
    """sample_banks' [d × 2 × 2 × q] array written out with the generator's
    own calls: per dimension f's bank, then g's; frequencies before phases."""
    return np.array([[[rng.standard_normal(q),
                       rng.uniform(0.0, 2.0 * np.pi, size=q)]
                      for _role in range(2)] for _dim in range(d)])


def _solve(z, w0, **settings):
    """optimize_weights with the settings a test leaves out filled in:
    20 steps of 0.01, l2_lambda 1, q 1, every pair, seed 0."""
    return dc.optimize_weights(z, w0, **{
        "steps": 20, "lr_w": 0.01, "l2_lambda": 1.0, "q": 1,
        "pair_fraction": 1.0, "seed": 0, **settings})


def _reference_optimize(z, w0, frozen, linear, *, steps, lr_w, l2_lambda, q,
                        pair_fraction, seed):
    """optimize_weights from public pieces: one generator draws the banks,
    then the pairs; each step scores them and projects."""
    n, d = z.shape
    rng = np.random.default_rng(seed)
    banks = None if linear else dc.sample_banks(d, q, rng)
    pairs = dc.sample_pairs(d, pair_fraction, rng)

    def penalized(w):
        return dc.decorrelation_objective(z, w, banks, pairs) + l2_lambda * float(w @ w)

    w, history = w0.copy(), []
    for _ in range(steps):
        history.append(penalized(w))
        step = lr_w * dc.objective_grad_weights(z, w, banks, pairs, l2_lambda)
        step[:frozen] = 0.0
        w = dc.project_weights(w - step, total=float(n), frozen=frozen)
    history.append(penalized(w))
    return w, history


def _stream_case(layout):
    """(z, w0, frozen) for one layout of frozen rows: a count of leading
    frozen rows out of 12 (11 leaves one free row, 12 none), or a 2-group
    memory batch (96 rows, the first 64 frozen at their stored weights,
    d = 64)."""
    rng = np.random.default_rng(44)
    if layout == "memory":
        z = rng.standard_normal((96, 64))
        w0 = np.concatenate([rng.uniform(0.5, 1.5, 64), np.ones(32)])
        return z, w0, 64
    base = rng.standard_normal(12)
    z = np.column_stack([base, base ** 2, np.sin(base), rng.standard_normal((12, 3))])
    return z, np.ones(12), layout


@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("fraction", [1.0, 0.5])
@pytest.mark.parametrize("linear", [False, True])
@pytest.mark.parametrize("layout", [0, 4, 11, 12, "memory"])
def test_optimize_weights_follows_the_public_stream_exactly(q, fraction, linear, layout):
    z, w0, frozen = _stream_case(layout)
    settings = dict(steps=6, lr_w=0.05, l2_lambda=0.1, q=q,
                    pair_fraction=fraction, seed=13)
    got = dc.optimize_weights(z, w0, frozen=frozen, linear=linear, **settings)
    want_w, want_history = _reference_optimize(z, w0, frozen, linear, **settings)
    assert np.array_equal(got.weights, want_w)
    assert got.objectives == want_history
    # sample_banks draws in the documented order, so the stream is pinned to
    # the generator's calls and not only to this module's own draw helper
    assert np.array_equal(dc.sample_banks(6, q, 13),
                          _raw_banks(np.random.default_rng(13), 6, q))


def test_optimize_weights_in_a_reused_workspace_matches_fresh_buffers():
    # every layout and setting of the stream test, one workspace for all,
    # twice in opposite orders, so each solve meets buffers another shape
    # grew and filled
    cases = [(layout, q, fraction, linear)
             for layout in ("memory", 0, 4, 11, 12)
             for q in (1, 3) for fraction in (1.0, 0.5)
             for linear in (False, True)]
    work = Workspace()
    for order in (cases, cases[::-1]):
        for layout, q, fraction, linear in order:
            z, w0, frozen = _stream_case(layout)
            settings = dict(steps=4, lr_w=0.05, l2_lambda=0.1, q=q,
                            pair_fraction=fraction, seed=17, frozen=frozen,
                            linear=linear)
            want = dc.optimize_weights(z, w0, **settings)
            got = dc.optimize_weights(z, w0, work=work, **settings)
            assert np.array_equal(got.weights, want.weights)
            assert got.objectives == want.objectives


def test_a_warmed_memory_solve_allocates_nothing_of_its_size():
    z, w0, frozen = _stream_case("memory")
    for fraction in (1.0, 0.5):
        for linear in (False, True):
            q = 1 if linear else 3
            settings = dict(steps=5, lr_w=0.05, l2_lambda=0.1, q=q,
                            pair_fraction=fraction, seed=19, frozen=frozen,
                            linear=linear, work=Workspace())
            tracemalloc.start()
            try:
                dc.optimize_weights(z, w0, **settings)  # grows the workspace
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                dc.optimize_weights(z, w0, **settings)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # Nothing as large as the [N × 2·K·q] map block of the K kept
            # dimensions may be allocated, so the peak rises by less than
            # one. numpy's own iterator buffers, at most 8192 entries each,
            # are what remains; at fraction 0.5 they leave less than the
            # [N × K] column slice free under the bound, so a fresh slice
            # would show too.
            kept = dc.dims_kept(z.shape[1], fraction)
            assert peak - before < len(z) * 2 * kept * q * 8, (fraction, linear)


def _reference_objective(w, f, g, mask, l2_lambda):
    """The per-step objective and gradient as first written: fresh centred
    blocks, a masked copy of C and one product per gradient term."""
    wf = w[:, None] * f
    wg = w[:, None] * g
    a = wf - wf.mean(axis=0)
    b = wg - wg.mean(axis=0)
    cm = (a.T @ b / (w.size - 1)) * mask
    objective = float(np.vdot(cm, cm)) + l2_lambda * float(w @ w)
    term1 = ((f @ cm) * b).sum(axis=1)
    term2 = ((a @ cm) * g).sum(axis=1)
    return objective, (2.0 / (w.size - 1)) * (term1 + term2) + 2.0 * l2_lambda * w


def _reference_maps(z, fields):
    """The f and g maps as the solve first built them, one fresh array each:
    a [2 × N × d × q] temporary split in two."""
    if fields is None:
        return z, z
    freqs, phases = np.transpose(fields, (2, 1, 0, 3))[:, :, None]
    f, g = np.sqrt(2.0) * np.cos(z[:, :, None] * freqs + phases)
    return f.reshape(z.shape[0], -1), g.reshape(z.shape[0], -1)


def _objective_case(rng, n, frozen, d, q, fraction, linear):
    """(z, fields, mask, weight draws) for one objective shape; every draw
    holds the first ``frozen`` weights at one."""
    z = rng.standard_normal((n, d))
    fields = None if linear else dc._draw(rng, (d, 2), q)
    mask = dc._mask(*dc._pair_index(d, fraction, rng), d, 1 if linear else q)
    draws = [np.ones(n)] + [np.concatenate([np.ones(frozen),
                                            rng.uniform(0.2, 3.0, n - frozen)])
                            for _ in range(3)]
    return z, fields, mask, draws


def _check_workspace_solve(work, z, fields, mask, draws, head_rows):
    """A problem built as a solve builds it, in ``work``, with the first
    ``head_rows`` weights frozen, against the reference on every draw."""
    f, g = _reference_maps(z, fields)
    head = draws[-1][:head_rows]
    problem = dc._Problem(dc._maps(z, fields, work), mask, 0.3, head=head,
                          work=work)
    for w in draws + draws[::-1]:
        w = np.concatenate([head, w[head_rows:]])
        want_obj, want_grad = _reference_objective(w, f, g, mask, 0.3)
        got_obj, got_grad = problem(w, True)
        assert got_obj == want_obj
        assert np.array_equal(got_grad, want_grad[head_rows:])


@pytest.mark.parametrize("n, frozen, d, q, fraction, linear", [
    (96, 64, 64, 1, 1.0, False),  # a 2-group memory batch
    (31, 0, 32, 3, 1.0, False),
    (33, 0, 32, 1, 1.0, True),
    (96, 64, 64, 1, 0.5, False),
    (32, 0, 128, 1, 1.0, False),
])
def test_workspace_matches_the_reference_objective_bit_for_bit(n, frozen, d, q,
                                                               fraction, linear):
    # The stacked product [F; A] @ C must give the rows the two separate
    # products give, and a problem whose leading rows are frozen must give
    # the free rows' entries. BLAS libraries do not promise that a row's
    # result is independent of the row count, so it is pinned on workload
    # shapes, for the free tail of a memory batch.
    rng = np.random.default_rng(47)
    z, fields, mask, draws = _objective_case(rng, n, frozen, d, q, fraction,
                                             linear)
    f, g = _reference_maps(z, fields)
    fg = dc._maps(z, fields)
    assert np.array_equal(fg, np.concatenate([f, g], axis=1))
    problem = dc._Problem(fg, mask, 0.3)
    lo = n - n // 3
    for w in draws + draws[::-1]:  # revisits catch state left in a buffer
        want_obj, want_grad = _reference_objective(w, f, g, mask, 0.3)
        got_obj, got_grad = problem(w, True)
        assert got_obj == want_obj
        assert np.array_equal(got_grad, want_grad)
        assert problem(w, False) == (want_obj, None)
        got_obj, got_grad = dc._Problem(fg, mask, 0.3, head=w[:lo])(w, True)
        assert got_obj == want_obj
        assert np.array_equal(got_grad, want_grad[lo:])

    # Solves in one workspace, with a frozen head weighted and folded once,
    # alternating with a solve of another shape: a buffer left longer than
    # the next solve needs, or holding the last solve's values, must not
    # show. The head's fold is exact only if numpy's axis-0 sum is a left
    # fold over rows, which this pins on every shape.
    other = _objective_case(rng, n // 2 + 5, 0, d // 2, q, fraction, linear)
    work = Workspace()
    for _ in range(2):
        _check_workspace_solve(work, z, fields, mask, draws, frozen or n // 3)
        _check_workspace_solve(work, *other, head_rows=7)


@pytest.mark.parametrize("maps, q", [("rff", 1), ("rff", 3), ("identity", 1)])
@pytest.mark.parametrize("layout", [4, "memory"])
def test_kept_dimensions_match_the_full_width_mask(maps, q, layout):
    # A solve maps and scores only the dimensions its pairs name, and so do
    # the public pieces; dropping the all-zero rows and columns of the mask
    # regroups the sums, so they agree with the full-width problem to
    # rounding, not bit for bit.
    z, w0, frozen = _stream_case(layout)
    n, d = z.shape
    rng = np.random.default_rng(53)
    banks = None if maps == "identity" else dc.sample_banks(d, q, rng)
    w = np.concatenate([w0[:frozen], rng.uniform(0.2, 3.0, n - frozen)])

    def full_width(pairs):
        rows, cols = np.array(pairs).T
        problem = dc._Problem(dc._maps(z, banks), dc._mask(rows, cols, d, q),
                              0.1, head=w[:frozen])
        return problem(w, True)

    def assert_close(got_obj, got_grad, want_obj, want_grad):
        assert math.isclose(got_obj, want_obj, rel_tol=1e-12)
        assert np.abs(got_grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()

    # the solve's problem: the kept dimensions of a sampled stream, every
    # pair among them, the frozen head weighted once, the free rows' gradient
    dims = dc._kept_dims(d, 0.5, np.random.default_rng(7))
    kept = dc._Problem(dc._maps(*dc._columns(z, banks, dims)),
                       dc._full_mask(dims.size, q), 0.1, head=w[:frozen])
    assert_close(*kept(w, True), *full_width(dc.sample_pairs(d, 0.5, 7)))

    # the public pieces, on the sampled pairs and on a list that skips
    # dimensions without pairing all of those it names
    for pairs in (dc.sample_pairs(d, 0.5, 7), [(0, 2), (2, d - 1)]):
        want_obj, want_grad = full_width(pairs)
        got_obj = (dc.decorrelation_objective(z, w, banks, pairs)
                   + 0.1 * float(w @ w))
        got_grad = dc.objective_grad_weights(z, w, banks, pairs, 0.1)[frozen:]
        assert_close(got_obj, got_grad, want_obj, want_grad)


def test_a_sampled_solve_maps_only_its_kept_dimensions(monkeypatch):
    z, w0, frozen = _stream_case("memory")
    mapped = []
    real_maps = dc._maps

    def spy(cols, fields, work=None):
        mapped.append(cols.shape)
        return real_maps(cols, fields, work)

    monkeypatch.setattr(dc, "_maps", spy)
    for fraction in (0.5, 1.0):
        _solve(z, w0, pair_fraction=fraction, frozen=frozen, steps=2, q=3)
    assert mapped == [(96, 32), (96, 64)]


@pytest.mark.parametrize("q", [1, 3])
def test_full_pair_mask_is_shared_read_only_and_draws_nothing(q):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    want = dc._mask(*dc._pair_index(7, 1.0, rng), 7, q)
    assert rng.bit_generator.state == state
    mask = dc._full_mask(7, q)
    assert np.array_equal(mask, want)
    assert dc._full_mask(7, q) is mask
    with pytest.raises(ValueError):
        mask[0, q] = 0.0
    assert np.array_equal(mask, want)


@pytest.mark.parametrize("pair", [(1, 1), (2, 1), (0, 4), (-1, 0)])
def test_objective_rejects_invalid_pairs(pair):
    rng = np.random.default_rng(45)
    z = rng.standard_normal((8, 4))
    banks = dc.sample_banks(4, 2, rng)
    with pytest.raises(ValueError, match="invalid for d=4"):
        dc.decorrelation_objective(z, np.ones(8), banks, [(0, 1), pair])
    with pytest.raises(ValueError, match="invalid for d=4"):
        dc.objective_grad_weights(z, np.ones(8), banks, [pair])


def test_objective_rejects_banks_of_another_shape():
    rng = np.random.default_rng(46)
    z = rng.standard_normal((8, 2))
    for banks in (dc.sample_banks(3, 2, rng),      # drawn for another d
                  dc.sample_banks(2, 2, rng)[0],   # one dimension's pair
                  dc.sample_bank(2, rng),          # a single bank
                  dc.sample_banks(2, 2, rng)[None],  # of another rank
                  np.empty((2, 2, 2, 0))):         # banks of width 0
        with pytest.raises(ValueError, match=r"shape \(2, 2, 2, q\), got"):
            dc.decorrelation_objective(z, np.ones(8), banks, [(0, 1)])
        with pytest.raises(ValueError, match=r"shape \(2, 2, 2, q\), got"):
            dc.objective_grad_weights(z, np.ones(8), banks, [(0, 1)])


def test_empty_banks_are_refused_before_any_draw():
    rng = np.random.default_rng(48)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="at least one component"):
        dc.sample_bank(0, rng)
    with pytest.raises(ValueError, match="at least one component"):
        dc.sample_banks(2, 0, rng)
    assert rng.bit_generator.state == state


def test_project_weights_constraints_and_iterated_clamping():
    w = np.array([5.0, dc.W_MIN, dc.W_MIN, dc.W_MIN])
    out = dc.project_weights(w)  # naive single rescale would dip under the floor
    assert abs(out.sum() - 4.0) < 1e-9
    assert out.min() >= dc.W_MIN - 1e-15
    # all entries at the floor scale back up
    out = dc.project_weights(np.full(5, dc.W_MIN))
    assert abs(out.sum() - 5.0) < 1e-9


def test_project_weights_respects_frozen_entries():
    w = np.array([0.5, 0.5, 3.0, 5.0])
    out = dc.project_weights(w, frozen=2)
    assert out[0] == 0.5 and out[1] == 0.5
    assert abs(out.sum() - 4.0) < 1e-9
    assert np.allclose(out[2:], [3.0 * 3 / 8, 5.0 * 3 / 8])
    with pytest.raises(dc.OptimizationError):
        # frozen entries alone exhaust the total; free ones cannot go to zero
        dc.project_weights(np.array([2.0, 2.0, 1.0, 1.0]), frozen=2)


def _reference_project(w, total=None, frozen=0):
    """project_weights as first written: one clamp-and-rescale loop that
    builds the free mask and re-sums the frozen entries on every call."""
    w = np.array(w, dtype=np.float64)
    if total is None:
        total = float(w.size)
    free_mask = np.arange(w.size) >= frozen
    idx = np.flatnonzero(free_mask)
    if idx.size == 0:
        return w
    target = total - float(w[~free_mask].sum())
    if target < dc.W_MIN * idx.size - 1e-12:
        raise dc.OptimizationError("infeasible")
    vals = np.maximum(w[idx], dc.W_MIN)
    for _ in range(idx.size):
        above = vals > dc.W_MIN
        if not above.any():
            vals[:] = max(target / idx.size, dc.W_MIN)
            break
        pinned = dc.W_MIN * float(np.count_nonzero(~above))
        scaled = vals[above] * ((target - pinned) / vals[above].sum())
        if scaled.min() >= dc.W_MIN:
            vals[above] = scaled
            break
        vals[above] = np.maximum(scaled, dc.W_MIN)
    w[idx] = vals
    return w


def test_project_weights_matches_the_reference_loop_bit_for_bit():
    rng = np.random.default_rng(48)
    floor = dc.W_MIN
    cases = [
        (rng.uniform(0.5, 2.0, 40), None, 0),  # no clamp: one rescale
        (np.array([1000.0, 2e-4, 3e-4, 1.0]), None, 0),  # above floor, rescale dips
        (np.array([5.0, floor, floor, floor]), None, 0),
        (np.array([50.0, 3e-4, -2.0, 2e-4, 1e-3, 0.9]), None, 0),  # several passes
        (np.full(5, floor), None, 0),
        (np.full(4, -1.0), 4 * floor - 1e-13, 0),  # all at the floor, roundoff short
        (np.array([0.5, 0.5, 3.0, 5.0]), None, 2),
        (np.array([0.7, 1e-5, 9.0, 0.2, 3.0]), 6.0, 2),  # a frozen entry under the floor
        (np.array([1.0, 2.0]), None, 2),
    ]
    for _ in range(200):
        n = int(rng.integers(2, 40))
        w = rng.standard_normal(n) * rng.choice([0.01, 1.0, 30.0])
        frozen = int(rng.integers(0, n + 1)) if rng.random() < 0.5 else 0
        cases.append((w, float(n), frozen))
    for w, total, frozen in cases:
        try:
            want = _reference_project(w, total, frozen)
        except dc.OptimizationError:
            with pytest.raises(dc.OptimizationError):
                dc.project_weights(w, total, frozen)
            continue
        assert np.array_equal(dc.project_weights(w, total, frozen), want)


def test_optimize_weights_with_nothing_free_keeps_w0():
    rng = np.random.default_rng(49)
    z = rng.standard_normal((10, 3))
    w0 = rng.uniform(0.5, 1.5, 10)
    result = _solve(z, w0, steps=4, seed=3, frozen=10)
    assert np.array_equal(result.weights, w0)
    assert result.weights is not w0
    assert len(result.objectives) == 4 + 1


def test_optimize_weights_zero_epochs_returns_input():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((6, 3))
    w0 = np.ones(6)
    result = _solve(z, w0, steps=0)
    assert np.array_equal(result.weights, w0)
    assert len(result.objectives) == 1
    assert result.improved


def test_optimize_weights_descends_on_dependent_data():
    rng = np.random.default_rng(40)
    base = rng.standard_normal(64)
    z = np.column_stack([base, base ** 2 - 1.0, rng.standard_normal(64)])
    result = _solve(z, np.ones(64), steps=20, lr_w=0.5, l2_lambda=0.0, q=2,
                    seed=9)
    assert result.objectives[-1] <= 0.5 * result.objectives[0]
    assert result.improved


def test_optimize_weights_keeps_constraints_every_step():
    rng = np.random.default_rng(41)
    z = 3.0 * rng.standard_normal((16, 4))
    seen = []

    def telemetry(step, objective, weights):
        seen.append(step)
        assert abs(weights.sum() - 16.0) <= 1e-6
        assert weights.min() >= dc.W_MIN - 1e-15

    result = _solve(z, np.ones(16), steps=15, lr_w=0.05, l2_lambda=0.0,
                    seed=2, telemetry=telemetry)
    assert seen == list(range(15))
    assert abs(result.weights.sum() - 16.0) <= 1e-6
    assert float(np.std(result.weights)) > 0.0  # actually moved


def test_optimize_weights_frozen_entries_never_move():
    rng = np.random.default_rng(42)
    base = rng.standard_normal(12)
    z = np.column_stack([base, base ** 3, rng.standard_normal(12)])
    result = _solve(z, np.ones(12), steps=10, lr_w=0.05, l2_lambda=0.1,
                    seed=7, frozen=4)
    assert np.array_equal(result.weights[:4], np.ones(4))
    assert abs(result.weights.sum() - 12.0) <= 1e-6


@pytest.mark.parametrize("frozen", [-1, 13])
def test_a_frozen_count_outside_zero_to_n_is_refused(frozen):
    z = np.random.default_rng(50).standard_normal((12, 3))
    with pytest.raises(ValueError, match=r"frozen must lie in \[0, 12\]"):
        _solve(z, np.ones(12), steps=2, frozen=frozen)
    with pytest.raises(ValueError, match=r"frozen must lie in \[0, 12\]"):
        dc.project_weights(np.ones(12), frozen=frozen)


def test_optimize_weights_deterministic_per_seed():
    rng = np.random.default_rng(43)
    z = rng.standard_normal((10, 3))
    a = _solve(z, np.ones(10), steps=5, seed=11)
    b = _solve(z, np.ones(10), steps=5, seed=11)
    assert np.array_equal(a.weights, b.weights)
    assert a.objectives == b.objectives


def test_objective_separates_dependent_from_independent_columns():
    rng = np.random.default_rng(50)
    wins = 0
    for trial in range(20):
        z = rng.standard_normal(128)
        other = rng.standard_normal(128)
        banks = dc.sample_banks(2, 1, rng)
        dep = dc.decorrelation_objective(
            np.column_stack([z, z]), np.ones(128), banks, [(0, 1)])
        indep = dc.decorrelation_objective(
            np.column_stack([z, other]), np.ones(128), banks, [(0, 1)])
        wins += dep > indep
    assert wins >= 18


def test_hsic_matches_explicit_centering_transcription():
    rng = np.random.default_rng(60)
    x = rng.standard_normal(8)
    y = rng.standard_normal(8)

    def explicit(v):
        d = np.abs(v[:, None] - v[None, :])
        bw = np.median(d[d > 0])
        return np.exp(-(d ** 2) / (2 * bw ** 2))

    k, l = explicit(x), explicit(y)
    h = np.eye(8) - np.ones((8, 8)) / 8.0
    expected = np.trace(k @ h @ l @ h) / 64.0
    assert math.isclose(dc.hsic_gaussian(x, y), expected, rel_tol=1e-12)


def test_hsic_identical_inputs_clearly_significant():
    x = np.random.default_rng(61).standard_normal(256)
    stat, threshold = dc.hsic_permutation_threshold(x, x, rng_seed=1)
    assert stat > 2.0 * threshold


def test_hsic_independent_inputs_rarely_significant():
    rng = np.random.default_rng(62)
    below = 0
    for trial in range(20):
        x = rng.standard_normal(128)
        y = rng.standard_normal(128)
        stat, threshold = dc.hsic_permutation_threshold(x, y, rng_seed=trial)
        below += stat <= threshold
    assert below >= 16  # 95th-percentile null threshold


def test_hsic_detects_nonlinear_dependence_without_correlation():
    rng = np.random.default_rng(63)
    x = rng.standard_normal(256)
    y = np.cos(3.0 * x) + 0.1 * rng.standard_normal(256)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.15
    stat, threshold = dc.hsic_permutation_threshold(x, y, rng_seed=3)
    assert stat > threshold


@pytest.mark.parametrize("seed", [3, 4, 8, 21])
def test_permutation_threshold_matches_the_two_take_gather_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(64)
    y = x ** 2 + 0.3 * rng.standard_normal(64)
    stat, threshold = dc.hsic_permutation_threshold(x, y, shuffles=50,
                                                    rng_seed=seed)
    kc = dc._center(dc._gaussian_kernel(x, None))
    l = dc._gaussian_kernel(y, None)
    perm_rng = np.random.default_rng(seed)
    null = np.empty(50)
    for s in range(50):
        p = perm_rng.permutation(64)
        null[s] = np.vdot(kc, l.take(p, 0).take(p, 1)) / 64 ** 2
    assert stat == dc.hsic_gaussian(x, y)
    assert threshold == float(np.quantile(null, 0.95))


def test_permutation_statistics_match_direct_recomputation():
    rng = np.random.default_rng(64)
    x = rng.standard_normal(32)
    y = rng.standard_normal(32)
    p = rng.permutation(32)
    kc = dc._center(dc._gaussian_kernel(x, None))
    l = dc._gaussian_kernel(y, None)
    fast = float(np.vdot(kc, l[np.ix_(p, p)])) / 32 ** 2
    assert math.isclose(fast, dc.hsic_gaussian(x, y[p]), rel_tol=1e-12)


def test_hsic_degenerate_and_invalid_inputs():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert dc.hsic_gaussian(np.ones(8), np.arange(8.0)) == 0.0
    with pytest.warns(UserWarning):
        dc.hsic_gaussian(np.ones(8), np.arange(8.0))
    with pytest.raises(ValueError):
        dc.hsic_gaussian(np.arange(3.0), np.arange(3.0))
    with pytest.raises(ValueError):
        dc.hsic_gaussian(np.arange(8.0), np.arange(8.0), bandwidth=-1.0)


def test_optimize_weights_rejects_bad_initial_weights():
    z = np.random.default_rng(70).standard_normal((4, 3))
    for w0 in (np.ones(3), np.ones(5), np.ones((4, 1))):
        with pytest.raises(ValueError, match="expected 4 weights"):
            _solve(z, w0, steps=2)
    for bad in (np.nan, np.inf):
        for steps, frozen in ((2, 0), (0, 0), (2, 1)):
            with pytest.raises(dc.OptimizationError, match="initial weights"):
                _solve(z, np.array([bad, 1.0, 1.0, 1.0]), steps=steps,
                       frozen=frozen)
