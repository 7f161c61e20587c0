import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherelets.exceptions import DimensionError, ParameterError
from spherelets.numeric import (
    knn,
    knn_indices,
    pairwise_sq_dists,
    seeded_gaussian,
    sym_eig,
)


def test_sym_eig_identity():
    res = sym_eig(np.eye(3))
    assert np.allclose(res.eigenvalues, [1.0, 1.0, 1.0])


def test_sym_eig_diagonal():
    res = sym_eig(np.diag([3.0, 1.0]))
    assert np.allclose(res.eigenvalues, [3.0, 1.0])
    assert np.allclose(np.abs(res.eigenvectors), np.eye(2))
    # sign convention: largest-magnitude entry of each column is positive
    assert res.eigenvectors[0, 0] > 0 and res.eigenvectors[1, 1] > 0


def test_sym_eig_reconstruction_random():
    rng = np.random.default_rng(42)
    A = rng.normal(size=(5, 5))
    S = A + A.T
    res = sym_eig(S)
    recon = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.T
    assert np.linalg.norm(S - recon) <= 1e-8 * (1 + np.linalg.norm(S))
    # columns orthonormal
    G = res.eigenvectors.T @ res.eigenvectors
    assert np.max(np.abs(G - np.eye(5))) < 1e-10
    # decreasing order
    assert np.all(np.diff(res.eigenvalues) <= 0)


def test_sym_eig_trace_invariant():
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rng.normal(size=(6, 6))
        S = A @ A.T
        res = sym_eig(S)
        assert np.isclose(np.trace(S), res.eigenvalues.sum(), rtol=1e-8)


def test_sym_eig_sign_convention_deterministic():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    S = A + A.T
    Q = sym_eig(S).eigenvectors
    for j in range(4):
        assert Q[np.argmax(np.abs(Q[:, j])), j] > 0


def test_sym_eig_rejects_asymmetric_and_nonsquare():
    with pytest.raises(DimensionError):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DimensionError):
        sym_eig(np.ones((2, 3)))


def test_knn_simple_1d():
    X = np.array([[0.0], [1.0], [10.0]])
    res = knn(X, np.array([0.4]), 1)
    assert res.indices.tolist() == [0]
    assert np.isclose(res.distances[0], 0.4)


def test_knn_exclude_self():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    res = knn(X, X[1], 2, exclude_self=True)
    assert 1 not in res.indices.tolist()
    assert sorted(res.indices.tolist()) == [0, 2]


def test_knn_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(100, 3))
    q = rng.normal(size=3)
    res = knn(X, q, 5)
    # independent brute-force scan
    dist = np.array([np.sqrt(((row - q) ** 2).sum()) for row in X])
    expect = np.argsort(dist, kind="stable")[:5]
    assert res.indices.tolist() == expect.tolist()
    assert np.allclose(res.distances, dist[expect])
    assert np.all(np.diff(res.distances) >= 0)


def test_knn_integer_ties_exact():
    # distances must equal the exhaustive scan exactly on integer input
    X = np.array([[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    res = knn(X, np.array([0.0, 0.0]), 4, exclude_self=True)
    assert res.distances.tolist() == [1.0, 1.0, 1.0, 1.0]
    # ties broken by lower row index
    assert res.indices.tolist() == [1, 2, 3, 4]


def test_knn_k_out_of_range():
    X = np.zeros((4, 2))
    with pytest.raises(ParameterError):
        knn(X, np.zeros(2), 0)
    with pytest.raises(ParameterError):
        knn(X, np.zeros(2), 5)
    with pytest.raises(ParameterError):
        knn(X, np.zeros(2), 4, exclude_self=True)


def test_pairwise_sq_dists_nonnegative_and_exact():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(10, 4))
    D2 = pairwise_sq_dists(A, A)
    assert np.all(D2 >= 0)
    assert np.allclose(np.diag(D2), 0.0, atol=1e-12)
    i, j = 3, 7
    assert np.isclose(D2[i, j], ((A[i] - A[j]) ** 2).sum())


def test_seeded_gaussian_sigma_zero():
    assert np.array_equal(seeded_gaussian(5, 3, 0.0, 1), np.zeros((5, 3)))


def test_seeded_gaussian_reproducible():
    a = seeded_gaussian(20, 4, 2.0, 123)
    b = seeded_gaussian(20, 4, 2.0, 123)
    assert np.array_equal(a, b)
    c = seeded_gaussian(20, 4, 2.0, 124)
    assert not np.array_equal(a, c)


def test_seeded_gaussian_moments():
    x = seeded_gaussian(10_000, 1, 1.0, 5)
    assert abs(x.mean()) < 0.05
    assert abs(x.std() - 1.0) < 0.05


def test_seeded_gaussian_negative_sigma():
    with pytest.raises(ParameterError):
        seeded_gaussian(5, 2, -1.0, 0)


def test_knn_large_n_ties_match_exhaustive():
    # n > 10 000 on an integer grid: exact ties at the k-th distance must
    # still go to the lower row index, and exclude_self must drop the query
    X = np.array([(i // 100, i % 100) for i in range(10_000)] + [(100, 0)], dtype=float)
    q = np.array([49.5, 49.5])
    dist = np.sqrt(((X - q) ** 2).sum(axis=1))
    dist_self = np.sqrt(((X - X[17]) ** 2).sum(axis=1))
    dist_self[17] = np.inf
    exhaustive = np.argsort(dist, kind="stable")[:6]
    exhaustive_self = np.argsort(dist_self, kind="stable")[:4]
    via_scan = knn(X, q, 6)
    via_scan_self = knn(X, X[17], 4, exclude_self=True)
    assert np.array_equal(exhaustive, via_scan.indices)
    assert np.allclose(dist[exhaustive], via_scan.distances)
    assert np.array_equal(exhaustive_self, via_scan_self.indices)
    assert 17 not in via_scan_self.indices
    assert via_scan.indices.tolist() == [4949, 4950, 5049, 5050, 4849, 4850]
    assert via_scan_self.indices.tolist() == [16, 18, 117, 116]


def test_knn_duplicates_drop_lowest_zero_row():
    X = np.zeros((10_001, 2))
    X[1::2] = 1.0
    res = knn(X, X[0], 4, exclude_self=True)
    assert res.indices.tolist() == [2, 4, 6, 8]
    assert np.array_equal(res.distances, np.zeros(4))


def _knn_oracle(X, k, exclude_self):
    dist = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    if exclude_self:
        np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_knn_indices_matches_stable_argsort(data):
    # small integer coordinates: many exact ties and duplicate rows, all
    # distances exact, so the oracle's order is the contract's order
    import spherelets.numeric as num

    n = data.draw(st.integers(1, 40), label="n")
    D = data.draw(st.integers(1, 3), label="D")
    X = np.array(
        data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=D, max_size=D),
                           min_size=n, max_size=n), label="X"),
        dtype=float,
    )
    exclude_self = n > 1 and data.draw(st.booleans(), label="exclude_self")
    k = data.draw(st.integers(1, n - 1 if exclude_self else n), label="k")
    block = data.draw(st.integers(1, 3 * n), label="block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(num, "KNN_BLOCK", block)
        got = num.knn_indices(X, k, exclude_self=exclude_self)
    assert got.shape == (n, k)
    assert np.array_equal(got, _knn_oracle(X, k, exclude_self))


def test_knn_indices_matches_dense_stable_sort():
    # real-valued data over several blocks: identical to sorting the full
    # n x n distance matrix, the algorithm the blocked scan replaced
    from spherelets.datasets import noisy_spiral

    X = noisy_spiral(2000, 0.2, seed=0).points
    dense = np.sqrt(pairwise_sq_dists(X, X))
    for exclude_self in (False, True):
        D = dense.copy()
        if exclude_self:
            np.fill_diagonal(D, np.inf)
        expect = np.argsort(D, axis=1, kind="stable")[:, :36]
        assert np.array_equal(knn_indices(X, 36, exclude_self=exclude_self), expect)


def test_knn_indices_k_equals_n_and_single_point(monkeypatch):
    import spherelets.numeric as num

    monkeypatch.setattr(num, "KNN_BLOCK", 7)
    assert num.knn_indices(np.array([[2.0, 5.0]]), 1).tolist() == [[0]]
    X = np.array([[0.0], [1.0], [-1.0], [1.0], [0.0]])
    assert np.array_equal(num.knn_indices(X, 5), _knn_oracle(X, 5, False))
    assert np.array_equal(num.knn_indices(X, 4, exclude_self=True), _knn_oracle(X, 4, True))
    with pytest.raises(ParameterError):
        num.knn_indices(np.zeros((1, 2)), 1, exclude_self=True)


def test_knn_indices_nan_rows_fall_back_to_stable_order():
    X = np.array([[0.0], [np.nan], [1.0], [2.0]])
    assert np.array_equal(knn_indices(X, 3), _knn_oracle(X, 3, False))


def test_knn_self_distance_exactly_zero():
    # self exclusion keys off an exact zero distance; the norm expansion
    # trick would leave cancellation residue here
    rng = np.random.default_rng(22)
    X = rng.normal(size=(50, 3)) * 10
    for i in (0, 13, 49):
        res = knn(X, X[i], 3, exclude_self=True)
        assert i not in res.indices
        assert np.all(res.distances > 0)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_knn_indices_clustered_matches_oracle(data):
    # real-valued clusters far apart, with duplicate rows; small leaves
    # and blocks so that the leaf boxes prune. Coordinates on a 2^-10 grid
    # keep every distance exact, so the oracle's order is the contract's
    import spherelets.numeric as num

    D = data.draw(st.integers(1, 3), label="D")
    centers = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=D, max_size=D),
                                 min_size=1, max_size=4), label="centers")
    offsets = data.draw(st.lists(st.lists(st.floats(-4, 4), min_size=D, max_size=D),
                                 min_size=1, max_size=40), label="offsets")
    owner = data.draw(st.lists(st.integers(0, len(centers) - 1), min_size=len(offsets),
                               max_size=len(offsets)), label="owner")
    X = 1000.0 * np.array(centers, dtype=float)[owner] + np.round(np.array(offsets) * 1024) / 1024
    dup = data.draw(st.lists(st.integers(0, len(X) - 1), max_size=10), label="dup")
    X = np.vstack([X, X[dup]])
    n = len(X)
    exclude_self = n > 1 and data.draw(st.booleans(), label="exclude_self")
    k = data.draw(st.integers(1, n - 1 if exclude_self else n), label="k")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(num, "KNN_LEAF", data.draw(st.integers(1, 16), label="leaf"))
        mp.setattr(num, "KNN_BLOCK", data.draw(st.integers(1, 3 * n), label="block"))
        got = num.knn_indices(X, k, exclude_self=exclude_self)
    assert np.array_equal(got, _knn_oracle(X, k, exclude_self))


def _full_scan(X, k, exclude_self):
    # the blocked full scan the leaf boxes replaced: every distance, as
    # pairwise_sq_dists computes it, then a stable sort of each row
    n, out = len(X), []
    step = max(1, (1 << 20) // n)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        dist = np.sqrt(pairwise_sq_dists(X[rows], X))
        if exclude_self:
            dist[rows - lo, rows] = np.inf
        out.append(np.argsort(dist, axis=1, kind="stable")[:, :k])
    return np.vstack(out)


def test_knn_indices_large_offset_matches_full_scan():
    # around 1e6 the norm expansion rounds squared distances by ~2.4e-4,
    # as much as the spacing of these points: the computed order differs
    # from the exact one, and only the rounding slack of the leaf bound
    # keeps the full scan's. On a 2^-6 grid in 2-D every product is exact
    # and each sum has two terms, so every evaluation order (BLAS block
    # shape, FMA or not) computes the same distances
    from spherelets.datasets import noisy_spiral

    X = 1e6 + np.round(noisy_spiral(3000, 0.05, seed=4).points * 64 / 20) / 64
    for exclude_self in (False, True):
        expect = _full_scan(X, 20, exclude_self)
        assert np.array_equal(knn_indices(X, 20, exclude_self=exclude_self), expect)
    exact = np.sqrt(((X[:300, None] - X[None]) ** 2).sum(axis=2))
    np.fill_diagonal(exact, np.inf)
    assert not np.array_equal(np.argsort(exact, axis=1, kind="stable")[:, :20], expect[:300])


def test_knn_indices_evaluates_few_distances(monkeypatch):
    # on the 4000-point spiral the leaf boxes leave most of the n^2
    # distances unevaluated, and no call holds more than KNN_BLOCK of them
    import spherelets.numeric as num
    from spherelets.datasets import noisy_spiral

    X = noisy_spiral(4000, 0.2, seed=0).points
    sizes, plain = [], num.pairwise_sq_dists

    def counting(A, B):
        out = plain(A, B)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(num, "pairwise_sq_dists", counting)
    num.knn_indices(X, 36)
    assert sum(sizes) < 0.25 * len(X) ** 2
    assert max(sizes) <= num.KNN_BLOCK


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_knn_indices_extreme_scales_match_full_scan(scale):
    # squares that underflow (the slack's `tiny` term) or overflow (no
    # pruning at all) leave the full scan's answer in place
    X = np.random.default_rng(23).normal(size=(700, 2)) * scale
    for exclude_self in (False, True):
        assert np.array_equal(knn_indices(X, 5, exclude_self=exclude_self),
                              _full_scan(X, 5, exclude_self))
