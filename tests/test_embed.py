import importlib
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spherelets.datasets import enneper, noisy_spiral, sphere_sample
from spherelets.embed import (
    DISTANCE_MODES,
    EXAGGERATION,
    EXAGGERATION_ITERS,
    MOMENTUM_EARLY,
    MOMENTUM_LATE,
    MOMENTUM_SWITCH,
    EmbedConfig,
    Pairs,
    affinities,
    conditional_affinities,
    embed,
    euclidean_knn_distances,
    kl_divergence,
    kl_gradient,
    kl_objective,
    knn_distances,
    spherical_knn_distances,
)
from spherelets.exceptions import ParameterError, SingularProjectionError
from spherelets.numeric import knn_indices, seeded_gaussian, unit_scale
from spherelets.spca import (
    fit_sphere,
    fit_spheres,
    project_sphere,
    project_spheres,
    sphere_arcs,
    sphere_distance,
)

embed_mod = importlib.import_module("spherelets.embed")


def _dense(S, absent):
    """The n x n array of pairs S, with `absent` off their support."""
    A = np.full((S.n, S.n), absent)
    A[S.rows, S.cols] = S.vals
    return A


def _pairs_of(D):
    """The finite entries of a dense distance matrix as pairs."""
    rows, cols = np.nonzero(np.isfinite(D))
    return Pairs(len(D), rows, cols, D[rows, cols])


# -- spherical distances ------------------------------------------------------


def test_spherical_distances_on_unit_circle_match_arcs():
    theta = np.linspace(0, 2 * np.pi, 60, endpoint=False)
    X = np.column_stack([np.cos(theta), np.sin(theta)])
    D = _dense(spherical_knn_distances(X, 1, 8), np.inf)
    for i in range(60):
        for j in np.nonzero(np.isfinite(D[i]))[0]:
            dt = abs(theta[i] - theta[j])
            arc = min(dt, 2 * np.pi - dt)
            assert abs(D[i, j] - arc) < 1e-6


def test_spherical_distances_collinear_fallback():
    t = np.linspace(0, 1, 30)
    X = np.column_stack([t, 2 * t])
    S, fallbacks = spherical_knn_distances(X, 1, 6, return_info=True)
    D = _dense(S, np.inf)
    assert fallbacks == 30
    for i in range(30):
        for j in np.nonzero(np.isfinite(D[i]))[0]:
            assert np.isclose(D[i, j], np.linalg.norm(X[i] - X[j]), atol=1e-12)


def test_spherical_distances_arc_dominates_chord():
    rng = np.random.default_rng(0)
    X = sphere_sample(80, 1, 3, 0.0, 2.0, seed=1) + rng.normal(0, 0.02, (80, 3))
    D = _dense(spherical_knn_distances(X, 1, 10), np.inf)
    # arcs measured between projected points can never undershoot the
    # projected chord; compare against the original chord with the
    # projection displacement as slack
    E = _dense(euclidean_knn_distances(X, 10), np.inf)
    both = np.isfinite(D) & np.isfinite(E)
    assert np.all(D[both] >= E[both] - 0.1)


def test_spherical_distances_symmetric_support():
    X = sphere_sample(40, 1, 2, 0.0, 1.0, seed=2)
    D = _dense(spherical_knn_distances(X, 1, 6), np.inf)
    assert np.array_equal(np.isfinite(D), np.isfinite(D.T))
    fin = np.isfinite(D)
    assert np.allclose(D[fin], D.T[fin])


def test_spherical_distances_validation():
    X = np.zeros((10, 2))
    with pytest.raises(ParameterError):
        spherical_knn_distances(X, 1, 3)  # k < d+3
    with pytest.raises(ParameterError):
        spherical_knn_distances(np.zeros((4, 2)), 1, 9)
    with pytest.raises(ParameterError):
        knn_distances(X, 1, 4, "hyperbolic")


# -- affinities ---------------------------------------------------------------


def test_affinities_two_points():
    D = np.array([[np.inf, 3.0], [3.0, np.inf]])
    P = _dense(affinities(_pairs_of(D), 2.0), 0.0)
    assert np.isclose(P[0, 1], 1.0)
    assert np.isclose(P[1, 0], 1.0)
    assert P[0, 0] == P[1, 1] == 0.0


def test_affinities_symmetric_zero_diagonal():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(25, 3))
    P = _dense(affinities(euclidean_knn_distances(X, 6), 1.5), 0.0)
    assert np.array_equal(P, P.T)
    assert np.all(np.diag(P) == 0.0)
    assert np.all(P >= 0.0)


def test_conditional_rows_sum_to_one():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 3))
    cond = _dense(conditional_affinities(euclidean_knn_distances(X, 5), 0.7), 0.0)
    assert np.allclose(cond.sum(axis=1), 1.0, atol=1e-12)


def test_affinities_hand_softmax_chain():
    # five points in a chain; support = adjacent pairs only
    gaps = [1.0, 2.0, 0.5, 1.5]
    D = np.full((5, 5), np.inf)
    for i, g in enumerate(gaps):
        D[i, i + 1] = D[i + 1, i] = g
    sigma = 1.3
    cond = _dense(conditional_affinities(_pairs_of(D), sigma), 0.0)
    # direct softmax oracle
    for i in range(5):
        sup = [j for j in range(5) if np.isfinite(D[i, j]) and j != i]
        w = np.exp(-np.array([D[i, j] for j in sup]) / sigma**2)
        for j, wj in zip(sup, w / w.sum()):
            assert np.isclose(cond[i, j], wj, atol=1e-14)
    P = _dense(affinities(_pairs_of(D), sigma), 0.0)
    assert np.allclose(P, 0.5 * (cond + cond.T))


def test_affinities_empty_support_error():
    D = np.full((3, 3), np.inf)
    D[0, 1] = D[1, 0] = 1.0
    with pytest.raises(ParameterError):
        affinities(_pairs_of(D), 1.0)


# -- KL divergence ------------------------------------------------------------


def _random_pair_dist(rng, n):
    A = rng.uniform(0.1, 1.0, size=(n, n))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    return A / A.sum()


def test_kl_zero_when_equal():
    rng = np.random.default_rng(5)
    P = _random_pair_dist(rng, 6)
    assert kl_divergence(P, P) == 0.0


def test_kl_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(20):
        P = _random_pair_dist(rng, 5)
        Q = _random_pair_dist(rng, 5)
        assert kl_divergence(P, Q) >= -1e-15


def test_kl_matches_double_loop_oracle():
    rng = np.random.default_rng(7)
    P = _random_pair_dist(rng, 7)
    Q = _random_pair_dist(rng, 7)
    total = 0.0
    for i in range(7):
        for j in range(7):
            if i != j and P[i, j] > 0:
                total += P[i, j] * np.log(P[i, j] / Q[i, j])
    assert np.isclose(kl_divergence(P, Q), total, rtol=1e-12)


def test_kl_infinite_when_q_vanishes():
    P = np.array([[0.0, 0.5], [0.5, 0.0]])
    Q = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert kl_divergence(P, Q) == np.inf


# -- embedding optimizer ------------------------------------------------------


def test_embed_two_points_reaches_zero_kl():
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    cfg = EmbedConfig(m=2, iters=60, seed=0, kl_every=10)
    Y, log = embed(P, cfg, return_log=True)
    assert log[-1][1] < 1e-6


def test_embed_gradient_matches_central_differences():
    rng = np.random.default_rng(8)
    n, m = 20, 2
    P = _random_pair_dist(rng, n)
    Y = rng.normal(size=(n, m))
    grad = kl_gradient(P, Y)
    fd = np.zeros_like(Y)
    h = 1e-5
    for i in range(n):
        for j in range(m):
            Yp, Ym = Y.copy(), Y.copy()
            Yp[i, j] += h
            Ym[i, j] -= h
            fd[i, j] = (kl_objective(P, Yp) - kl_objective(P, Ym)) / (2 * h)
    assert np.linalg.norm(grad - fd) <= 1e-5 * (1 + np.linalg.norm(grad))


def test_embed_deterministic():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 3))
    P = affinities(euclidean_knn_distances(X, 8), 1.0)
    cfg = EmbedConfig(m=2, iters=120, seed=4, kl_every=30)
    a = embed(P, cfg)
    b = embed(P, cfg)
    assert np.array_equal(a, b)


def test_embed_kl_invariant_under_rigid_motion():
    rng = np.random.default_rng(10)
    P = _random_pair_dist(rng, 12)
    Y = rng.normal(size=(12, 2))
    Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    t = rng.normal(size=2)
    assert np.isclose(kl_objective(P, Y), kl_objective(P, Y @ Q.T + t), rtol=1e-10)


def test_embed_recorded_kl_non_increasing():
    rng = np.random.default_rng(11)
    X = np.vstack(
        [rng.normal(0, 0.3, (20, 3)), rng.normal(4, 0.3, (20, 3))]
    )
    P = affinities(euclidean_knn_distances(X, 6), 1.0)
    cfg = EmbedConfig(m=2, iters=400, seed=1, kl_every=50)
    Y, log = embed(P, cfg, return_log=True)
    kls = [v for _, v in log]
    assert all(b <= a + 1e-15 for a, b in zip(kls, kls[1:]))
    assert kls[-1] < kls[0]
    assert Y.shape == (40, 2)


def test_embed_config_validation():
    with pytest.raises(ParameterError):
        EmbedConfig(m=4)
    with pytest.raises(ParameterError):
        EmbedConfig(iters=0)
    with pytest.raises(ParameterError):
        EmbedConfig(sigma=0.0)
    with pytest.raises(ParameterError):
        EmbedConfig(distance_mode="cosine")


@pytest.mark.parametrize("kl_every", [0, -2])
def test_embed_config_rejects_kl_every_below_one(kl_every):
    # 0 divided by zero at iteration 1; -2 logged KL every 2 iterations
    with pytest.raises(ParameterError, match="kl_every must be >= 1"):
        EmbedConfig(kl_every=kl_every)


def test_embed_rejects_bad_affinities():
    with pytest.raises(ParameterError):
        embed(np.array([[0.0, 1.0], [0.5, 0.0]]), EmbedConfig(iters=5))
    with pytest.raises(ParameterError):
        embed(np.array([[1.0, 0.5], [0.5, 0.0]]), EmbedConfig(iters=5))


@pytest.mark.parametrize("rows, cols, vals", [
    ([0, 1], [1, 0], [1.0, 0.5]),  # values differ from the transpose's
    ([0, 1], [1, 2], [1.0, 1.0]),  # transposes absent
    ([0, 0, 1], [0, 1, 0], [1.0, 0.5, 0.5]),  # diagonal entry
    ([1, 0], [0, 1], [0.5, 0.5]),  # not sorted
    ([0, 0, 1], [1, 1, 0], [0.5, 0.5, 1.0]),  # repeated pair, one transpose
    ([0, 1], [1, 0], [-1.0, -1.0]),
    ([0, 1], [1, 0], [np.nan, np.nan]),
])
def test_embed_rejects_bad_pairs(rows, cols, vals):
    P = Pairs(3, np.array(rows), np.array(cols), np.array(vals))
    with pytest.raises(ParameterError):
        embed(P, EmbedConfig(iters=5))


def test_embed_recovers_from_huge_learning_rate():
    # an exploding step makes the next gradient non-finite; the optimizer
    # reverts to the best iterate and halves the step instead of dying
    rng = np.random.default_rng(12)
    A = rng.uniform(0.1, 1.0, (8, 8))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    cfg = EmbedConfig(m=2, iters=80, learning_rate=1e300, seed=0, kl_every=20)
    Y, log = embed(A, cfg, return_log=True)
    assert np.all(np.isfinite(Y))
    kls = [v for _, v in log]
    assert all(b <= a + 1e-15 for a, b in zip(kls, kls[1:]))


def test_embed_divergence_error_when_unrecoverable(monkeypatch):
    # if the gradient stays non-finite no matter how far the step shrinks,
    # the halving loop must give up after 20 strikes
    import importlib

    embed_mod = importlib.import_module("spherelets.embed")
    from spherelets.exceptions import DivergenceError

    monkeypatch.setattr(
        embed_mod, "kl_gradient", lambda P, Y: np.full_like(Y, np.nan)
    )
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DivergenceError):
        embed_mod.embed(P, EmbedConfig(m=2, iters=30, seed=0, kl_every=10))


def test_embed_rejects_non_finite_affinities():
    P = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(ParameterError):
        embed(P, EmbedConfig(iters=5))


def _mixed_cloud():
    """Noisy circle points, a ring around its own center point (singular
    projection for every hood holding it) and a collinear segment."""
    theta = 2 * np.pi * np.arange(8) / 8
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    hub = np.vstack([ring, [[0.0, 0.0]]]) + [100.0, 0.0]
    line = np.column_stack([np.linspace(0, 1, 9), np.linspace(0, 2, 9)]) + [0.0, 100.0]
    rng = np.random.default_rng(4)
    circle = sphere_sample(120, 1, 2, 0.0, 3.0, seed=5) + rng.normal(0, 0.05, (120, 2))
    return np.vstack([circle, hub, line])


def _looped_spherical_distances(X, d, k):
    """Per-point loop over fit_sphere / project_sphere / sphere_distance."""
    n = len(X)
    nbr = knn_indices(X, k)
    dist, fallbacks = np.full((n, n), np.inf), 0
    for i in range(n):
        hood = X[nbr[i]]
        s, _ = fit_sphere(hood, d)
        try:
            if s.degenerate:
                raise SingularProjectionError("degenerate")
            p_self, p_hood = project_sphere(X[i], s), project_sphere(hood, s)
            row = [sphere_distance(p_self, p, s) for p in p_hood]
        except SingularProjectionError:
            fallbacks += 1
            row = np.linalg.norm(hood - X[i], axis=1)
        dist[i, nbr[i]] = row
    np.fill_diagonal(dist, np.inf)
    return np.minimum(dist, dist.T), fallbacks


def test_spherical_distances_match_looped_fits():
    # 18 = 9 collinear points + the ring center + the 8 ring points whose
    # neighborhoods hold the center
    X = _mixed_cloud()
    S, fallbacks = spherical_knn_distances(X, 1, 9, return_info=True)
    D = _dense(S, np.inf)
    expect, looped_fallbacks = _looped_spherical_distances(X, 1, 9)
    assert fallbacks == looped_fallbacks == 18
    fin = np.isfinite(expect)
    assert np.array_equal(np.isfinite(D), fin)
    assert np.max(np.abs(D[fin] - expect[fin]) / expect[fin]) <= 1e-10


def _reference_spherical_distances(X, d, k):
    """spherical_knn_distances by its earlier row formulas: np.linalg.norm
    rows and np.sum dot products."""
    n, D = X.shape
    X, e = unit_scale(X)
    nbr = knn_indices(X, k)
    hoods = X[nbr]
    fits = fit_spheres(hoods.reshape(n * k, D), np.arange(0, n * k, k), d)
    c, r = fits.center[:, None, :], fits.radius[:, None]
    P = np.concatenate([X[:, None, :], hoods], axis=1)
    W = ((P - c) @ fits.frame) @ np.swapaxes(fits.frame, 1, 2)
    norms = np.linalg.norm(W, axis=-1)
    ok = ~fits.degenerate & (norms >= 1e-12 * r).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        U = c + (r / norms)[..., None] * W - c  # the projections, relative to the center
    cosang = np.sum(U[:, :1] * U[:, 1:], axis=-1) / (r * r)
    rows = np.linalg.norm(hoods - X[:, None, :], axis=2)
    rows[ok] = (r * np.arccos(np.clip(cosang, -1.0, 1.0)))[ok]
    return embed_mod._knn_pairs(nbr, np.ldexp(rows, e))


def test_spherical_distances_equal_the_formulas_they_replaced():
    X = noisy_spiral(4000, 0.2, seed=0).points
    got, expect = spherical_knn_distances(X, 1, 20), _reference_spherical_distances(X, 1, 20)
    for field in ("rows", "cols", "vals"):
        assert np.array_equal(getattr(got, field), getattr(expect, field))


def test_spherical_distances_fit_every_hood_in_one_call(monkeypatch):
    X = _mixed_cloud()
    calls, real = [], embed_mod.fit_spheres

    def counting(rows, starts, d):
        calls.append((rows.shape, np.asarray(starts).tolist()))
        return real(rows, starts, d)

    monkeypatch.setattr(embed_mod, "fit_spheres", counting)
    spherical_knn_distances(X, 1, 9)
    assert calls == [((len(X) * 9, 2), list(range(0, len(X) * 9, 9)))]


def test_euclidean_distances_match_rowwise_loop():
    X = _mixed_cloud()
    nbr = knn_indices(X, 7)
    expect = np.full((len(X), len(X)), np.inf)
    for i in range(len(X)):
        expect[i, nbr[i]] = np.linalg.norm(X[nbr[i]] - X[i], axis=1)
    np.fill_diagonal(expect, np.inf)
    assert np.array_equal(_dense(euclidean_knn_distances(X, 7), np.inf),
                          np.minimum(expect, expect.T))


def _dense_distances(X, d, k, mode):
    """The dense n x n distances the pairs replaced: row i's directed k-NN
    distances, inf elsewhere and on the diagonal, symmetrized by the
    entrywise minimum. Measured on X scaled exactly by 2^-e, e the
    exponent of max |x|, and scaled back, so that subnormal input keeps
    its nonzero distances."""
    n, D = X.shape
    e = np.frexp(np.max(np.abs(X)))[1]
    X = np.ldexp(X, -e)
    nbr = knn_indices(X, k)
    hoods = X[nbr]
    rows = np.linalg.norm(hoods - X[:, None, :], axis=2)
    if mode == "spherical":
        fits = fit_spheres(hoods.reshape(n * k, D), np.arange(0, n * k, k), d)
        proj, ok = project_spheres(np.concatenate([X[:, None, :], hoods], axis=1), fits)
        c = fits.center[ok][:, None, :]
        rows[ok] = sphere_arcs(proj[ok, :1] - c, proj[ok, 1:] - c, fits.radius[ok][:, None])
    dist = np.full((n, n), np.inf)
    dist[np.arange(n)[:, None], nbr] = rows
    np.fill_diagonal(dist, np.inf)
    return np.ldexp(np.minimum(dist, dist.T), e)


def _dense_affinities(D, sigma):
    """The dense affinities the pairs replaced: exp(-D / sigma^2) over the
    finite off-diagonal entries, row-normalized, averaged with its
    transpose."""
    support = np.isfinite(D)
    np.fill_diagonal(support, False)
    K = np.zeros(D.shape)
    K[support] = np.exp(-D[support] / (sigma * sigma))
    cond = K / np.sum(K, axis=1, keepdims=True)
    return 0.5 * (cond + cond.T)


def _sorted_pairs(S):
    return bool(np.all(np.diff(S.rows * S.n + S.cols) > 0))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_pipeline_matches_dense_formulas(data):
    # repeated rows: with more copies of a point than k, a copy's k-NN list
    # holds only lower-indexed copies, not the row itself
    pts = data.draw(st.lists(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
                             min_size=6, max_size=30), label="points")
    copies = data.draw(st.lists(st.integers(0, len(pts) - 1), max_size=15), label="copies")
    X = np.array(pts + [pts[i] for i in copies])
    d = data.draw(st.integers(1, 2), label="d")
    k = data.draw(st.integers(d + 3, min(len(X), 12)), label="k")
    sigma = data.draw(st.floats(0.3, 3.0), label="sigma")
    for mode in DISTANCE_MODES:
        S = knn_distances(X, d, k, mode)
        D = _dense_distances(X, d, k, mode)
        assert _sorted_pairs(S)
        assert np.array_equal(_dense(S, np.inf), D, equal_nan=True)
        A = affinities(S, sigma)
        P, expect = _dense(A, 0.0), _dense_affinities(D, sigma)
        assert _sorted_pairs(A)
        assert np.array_equal(P, P.T)
        assert np.all(np.abs(P - expect) <= 1e-12 * expect)


@pytest.mark.parametrize("mode", DISTANCE_MODES)
def test_distances_are_scale_free(mode):
    X = enneper(300, seed=0)
    unit = knn_distances(X, 2, 20, mode)
    exact = knn_distances(np.ldexp(X, -40), 2, 20, mode)
    assert np.array_equal(exact.rows, unit.rows) and np.array_equal(exact.cols, unit.cols)
    assert np.array_equal(exact.vals, np.ldexp(unit.vals, -40))
    # squares that would overflow or underflow at these scales
    for scale in (1e160, 1e-170):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            S = knn_distances(X * scale, 2, 20, mode)
        assert np.array_equal(S.rows, unit.rows) and np.array_equal(S.cols, unit.cols)
        assert np.all(np.isfinite(S.vals) & (S.vals > 0.0))
        expect = scale * unit.vals
        assert np.all(np.abs(S.vals - expect) <= 1e-9 * expect)


def test_distances_and_affinities_memory_stays_below_a_dense_matrix():
    n = 3000
    X = enneper(n, seed=0) + seeded_gaussian(n, 3, 0.01, 1)
    for mode in DISTANCE_MODES:
        tracemalloc.start()
        try:
            P = affinities(knn_distances(X, 2, 20, mode), 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert P.n == n
        # one n x n float64 array would be 72 MB
        assert peak < n * n * 8 / 4, (mode, peak)


# -- support-restricted optimizer kernel -------------------------------------


def _dense_oracle(P, Y):
    """The dense n x n gradient and KL the blocked kernel replaced."""
    sq = np.sum(Y * Y, axis=1)
    W = 1.0 / (1.0 + np.maximum(sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T), 0.0))
    np.fill_diagonal(W, 0.0)
    Q = W / np.sum(W)
    PQ = (P - Q) * W
    return 4.0 * (PQ.sum(axis=1)[:, None] * Y - PQ @ Y), kl_divergence(P, Q)


def _knn_affinities(n, seed):
    rng = np.random.default_rng(seed)
    P = _dense(affinities(euclidean_knn_distances(rng.normal(size=(n, 3)), 7), 1.0), 0.0)
    return P / P.sum()


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("block", ["one row", "default", "all rows"])
def test_kl_kernel_matches_dense_oracle(monkeypatch, block):
    rng = np.random.default_rng(13)
    for n, P in [(37, _random_pair_dist(rng, 37)), (150, _knn_affinities(150, 14)),
                 (1100, _knn_affinities(1100, 15))]:
        size = {"one row": 1, "default": embed_mod.REPULSION_BLOCK, "all rows": n * n + 1}[block]
        monkeypatch.setattr(embed_mod, "REPULSION_BLOCK", size)
        # the initial scale up to the extent of a finished embedding; beyond
        # it both formulas lose digits to the Gram form's |y|^2 terms
        for scale in (1e-4, 1.0, 10.0):
            Y = rng.normal(0.0, scale, size=(n, 2))
            grad, kl = _dense_oracle(P, Y)
            support = embed_mod._pairs(P)
            for form in (P, support):
                assert _rel(kl_gradient(form, Y), grad) <= 1e-12
                assert abs(kl_objective(form, Y) - kl) <= 1e-12 * kl


def _dense_repulsion(Y):
    """Z and the rows sum_j w_ij^2 (y_i - y_j) from every ordered pair's
    difference."""
    diff = Y[:, None, :] - Y[None, :, :]
    W = 1.0 / (1.0 + np.sum(diff * diff, axis=2))
    np.fill_diagonal(W, 0.0)
    return W.sum(), np.einsum("ij,ijc->ic", W * W, diff)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 300), m=st.integers(1, 3),
       block=st.one_of(st.just(1), st.integers(2, 300 * 300), st.none()),
       log_scale=st.floats(-4.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(n=7, m=2, block=20, log_scale=0.0, seed=0)  # blocks of 2, 4 and 1 rows; the last may take 20
def test_repulsion_matches_dense_formula(n, m, block, log_scale, seed):
    # block None: one block holds every pair
    Y = np.random.default_rng(seed).normal(0.0, 10.0**log_scale, size=(n, m))
    with mock.patch.object(embed_mod, "REPULSION_BLOCK", n * n + 1 if block is None else block):
        Z, rep = embed_mod._repulsion(Y)
    Z_dense, rep_dense = _dense_repulsion(Y)
    assert abs(Z - Z_dense) <= 1e-12 * Z_dense
    assert _rel(rep, rep_dense) <= 1e-12


def test_kl_gradient_reads_a_symmetric_p_once_per_pair():
    rng = np.random.default_rng(18)
    n = 40
    P = _random_pair_dist(rng, n) * (rng.random((n, n)) < 0.3)
    P = np.maximum(P, P.T)
    Y = rng.normal(size=(n, 2))
    # the lower triangle rebuilt from the upper one, in pair order upper first
    rows, cols = np.nonzero(np.triu(P, 1))
    mirrored = Pairs(n, np.concatenate([rows, cols]), np.concatenate([cols, rows]),
                     np.tile(P[rows, cols], 2))
    expect = _dense_oracle(P, Y)[0]
    for form in (P, embed_mod._pairs(P), mirrored):
        assert _rel(kl_gradient(form, Y), expect) <= 1e-12


def test_kl_objective_takes_z_from_the_repulsion_pass():
    P = embed_mod._pairs(_knn_affinities(300, 16))
    Y = np.random.default_rng(17).normal(size=(300, 2))
    keep = P.vals > 0.0
    q = embed_mod._support_kernel(P.rows[keep], P.cols[keep], Y)[1] / embed_mod._repulsion(Y)[0]
    assert kl_objective(P, Y) == float(np.sum(P.vals[keep] * np.log(P.vals[keep] / q)))


def test_kl_gradient_selects_the_upper_triangle_once_per_pairs():
    dense = _knn_affinities(200, 18)
    P = embed_mod._pairs(dense)
    Y = np.random.default_rng(19).normal(size=(200, 2))
    grad = kl_gradient(P, Y)
    rows, cols, vals = upper = P.upper
    assert P.upper is upper  # kept on the frozen pairs, not selected again
    assert np.all(rows < cols) and 2 * rows.size == P.rows.size
    assert np.array_equal(dense[rows, cols], vals)
    assert np.array_equal(kl_gradient(P, Y), grad)
    assert np.array_equal(kl_gradient(dense, Y), grad)  # a dense P selects its own


def test_kl_objective_infinite_when_support_q_vanishes():
    P = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    Y = np.array([[0.0, 0.0], [1e300, 0.0], [1.0, 0.0]])
    assert kl_objective(P, Y) == np.inf


def test_kl_non_finite_where_the_squared_norms_overflow():
    # |y|^2 overflows at |y| = 1e200, so Z is NaN, not finite: the objective
    # is still inf where a support w vanishes, and otherwise non-finite, as
    # is the gradient, so the optimizer's safeguard sees both
    Y = np.array([[0.0, 0.0], [1e200, 0.0], [1e200, 1.0], [1.0, 0.0]])
    far, near = np.zeros((4, 4)), np.zeros((4, 4))
    far[0, 1] = far[1, 0] = 0.5  # w_01 = 1 / (1 + 1e400) = 0
    near[1, 2] = near[2, 1] = 0.5  # w_12 = 1 / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kl_objective(far, Y) == np.inf
        assert not np.isfinite(kl_objective(near, Y))
        for P in (far, near):
            assert not np.all(np.isfinite(kl_gradient(P, Y)))


def _dense_oracle_embed(P, cfg):
    """The dense optimizer loop the support kernel replaced."""
    P = P / P.sum()
    rng = np.random.default_rng(cfg.seed)
    Y = rng.normal(0.0, 1e-4, size=(P.shape[0], cfg.m))
    velocity, lr = np.zeros_like(Y), cfg.learning_rate
    best_Y, best_kl = Y.copy(), _dense_oracle(P, Y)[1]
    log = [(0, best_kl)]
    for it in range(1, cfg.iters + 1):
        P_eff = P * EXAGGERATION if it <= EXAGGERATION_ITERS else P
        mom = MOMENTUM_EARLY if it < MOMENTUM_SWITCH else MOMENTUM_LATE
        velocity = mom * velocity - lr * _dense_oracle(P_eff, Y)[0]
        Y = Y + velocity
        if it % cfg.kl_every == 0 or it == cfg.iters:
            kl = _dense_oracle(P, Y)[1]
            if kl < best_kl:
                best_kl, best_Y = kl, Y.copy()
            elif kl > log[-1][1]:
                Y, lr, kl = best_Y.copy(), lr * 0.5, best_kl
                velocity[:] = 0.0
            log.append((it, min(kl, log[-1][1])))
    return best_Y, log


def test_embed_matches_dense_oracle_loop():
    # at this n the default step of 100 is chaotic: a last-bit change in
    # one gradient moves the result by tens of percent, so the loops are
    # compared at a step of 30, where one KL checkpoint still reverts and
    # halves the step
    P = _knn_affinities(120, 16) * 7.0
    cfg = EmbedConfig(m=2, iters=300, learning_rate=30.0, seed=2, kl_every=25)
    Y, log = embed(P, cfg, return_log=True)
    Y_oracle, log_oracle = _dense_oracle_embed(P, cfg)
    assert _rel(Y, Y_oracle) <= 1e-12
    assert [it for it, _ in log] == [it for it, _ in log_oracle]
    kls, kls_oracle = np.array([v for _, v in log]), np.array([v for _, v in log_oracle])
    assert np.max(np.abs(kls - kls_oracle) / kls_oracle) <= 1e-12
    assert np.all(np.diff(kls) <= 0.0)
    assert np.any(np.diff(kls) == 0.0)  # the revert path ran
    assert kls[-1] < kls[0]


def test_kl_gradient_memory_stays_below_one_dense_matrix():
    n, k = 2000, 10
    rng = np.random.default_rng(17)
    nbr = knn_indices(rng.normal(size=(n, 3)), k + 1)[:, 1:]  # each row's k others
    own = np.repeat(np.arange(n), k)
    rows, cols = np.concatenate([own, nbr.ravel()]), np.concatenate([nbr.ravel(), own])
    vals = np.full(rows.size, 1.0 / rows.size)
    Y = rng.normal(size=(n, 2))
    tracemalloc.start()
    try:
        grad = kl_gradient(Pairs(n, rows, cols, vals), Y)
        kl_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(grad))
    # one n x n float64 array would be 32 MB; the kernel holds the O(nk)
    # support terms and one repulsion block
    assert kl_peak < n * n * 8 / 8
