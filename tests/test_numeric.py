import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import sym_eig
from spherelets.exceptions import DimensionError, ParameterError
from spherelets.numeric import (
    _sq_dists,
    eig_desc,
    knn_indices,
    row_dots,
    seeded_gaussian,
    unit_scale,
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


@settings(max_examples=200, deadline=None)
@given(D=st.integers(0, 16), lead=st.lists(st.integers(1, 5), max_size=2),
       broadcast=st.booleans(), special=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_row_dots_equal_numpy_row_reductions_property(D, lead, broadcast, special, seed):
    # narrow rows add one column at a time: the same sums as NumPy's row
    # reduction, so every D gives its values bit for bit, NaN and inf too
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(*lead, D)) * 10.0 ** rng.integers(-200, 200, size=(*lead, D))
    B = rng.normal(size=(*lead[:-1], 1, D) if broadcast and lead else (*lead, D))
    if special and A.size:
        A.flat[rng.integers(A.size)] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 5e-324])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(row_dots(A, B), np.sum(A * B, axis=-1), equal_nan=True)
        assert np.array_equal(np.sqrt(row_dots(A, A)), np.linalg.norm(A, axis=-1), equal_nan=True)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), stack=st.lists(st.integers(1, 4), max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_eig_desc_equals_sym_eig_on_symmetric_matrices(n, stack, seed):
    A = np.random.default_rng(seed).normal(size=(*stack, n, n + 3))
    S = A @ np.swapaxes(A, -1, -2)
    S = np.triu(S) + np.swapaxes(np.triu(S, 1), -1, -2)  # exactly symmetric
    got, expect = eig_desc(S), sym_eig(S)
    assert np.array_equal(got.eigenvalues, expect.eigenvalues)
    assert np.array_equal(got.eigenvectors, expect.eigenvectors)


def test_knn_integer_ties_exact():
    # the centre's four neighbors lie at exactly 1, ties broken by lower
    # row index; a leaf's neighbors at exactly 1 and sqrt(2) likewise
    X = np.array([[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    nbr = knn_indices(X, 5)
    assert nbr[0].tolist() == [0, 1, 2, 3, 4]
    assert nbr[3].tolist() == [3, 0, 2, 4, 1]


def test_knn_k_out_of_range():
    X = np.zeros((4, 2))
    with pytest.raises(ParameterError):
        knn_indices(X, 0)
    with pytest.raises(ParameterError):
        knn_indices(X, 5)


def test_pairwise_sq_dists_nonnegative_and_exact():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(10, 4))
    D2 = _sq_dists(A, A, row_dots(A, A), row_dots(A, A))
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
    # still go to the lower row index, in the leaves of the grid's interior
    # and at its edges, and next to the extra point off the grid
    X = np.array([(i // 100, i % 100) for i in range(10_000)] + [(100, 0)], dtype=float)
    nbr = knn_indices(X, 6)
    for i in (0, 17, 4949, 5050, 9900, 10_000):
        dist = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
        assert np.array_equal(nbr[i], np.argsort(dist, kind="stable")[:6])
    assert nbr[17].tolist() == [17, 16, 18, 117, 116, 118]
    assert nbr[10_000].tolist() == [10_000, 9900, 9901, 9800, 9801, 9902]


def _knn_oracle(X, k):
    dist = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
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
    k = data.draw(st.integers(1, n), label="k")
    block = data.draw(st.integers(1, 3 * n), label="block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(num, "KNN_BLOCK", block)
        got = num.knn_indices(X, k)
    assert got.shape == (n, k)
    assert np.array_equal(got, _knn_oracle(X, k))


def test_knn_indices_matches_dense_stable_sort():
    # real-valued data over several blocks: identical to sorting the full
    # n x n distance matrix, the algorithm the blocked scan replaced
    from spherelets.datasets import noisy_spiral

    X = noisy_spiral(2000, 0.2, seed=0).points
    dense = np.sqrt(_sq_dists(X, X, row_dots(X, X), row_dots(X, X)))
    expect = np.argsort(dense, axis=1, kind="stable")[:, :36]
    assert np.array_equal(knn_indices(X, 36), expect)


def test_knn_indices_k_equals_n_and_single_point(monkeypatch):
    import spherelets.numeric as num

    monkeypatch.setattr(num, "KNN_BLOCK", 7)
    assert num.knn_indices(np.array([[2.0, 5.0]]), 1).tolist() == [[0]]
    X = np.array([[0.0], [1.0], [-1.0], [1.0], [0.0]])
    assert np.array_equal(num.knn_indices(X, 5), _knn_oracle(X, 5))
    with pytest.raises(ParameterError):
        num.knn_indices(X, 6)
    # rows of any other shape than (n, D)
    for bad in (X.ravel(), X[None], np.float64(1.0)):
        with pytest.raises(DimensionError):
            num.knn_indices(bad, 1)


def test_knn_indices_nan_rows_fall_back_to_stable_order():
    X = np.array([[0.0], [np.nan], [1.0], [2.0]])
    assert np.array_equal(knn_indices(X, 3), _knn_oracle(X, 3))


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
    k = data.draw(st.integers(1, n), label="k")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(num, "KNN_LEAF", data.draw(st.integers(1, 16), label="leaf"))
        mp.setattr(num, "KNN_BLOCK", data.draw(st.integers(1, 3 * n), label="block"))
        got = num.knn_indices(X, k)
    assert np.array_equal(got, _knn_oracle(X, k))


def _full_scan(X, k):
    # the blocked full scan the leaf boxes replaced: every distance, as
    # _sq_dists computes it from the rows' squared norms, then a stable
    # sort of each row
    n, out = len(X), []
    step = max(1, (1 << 20) // n)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        dist = np.sqrt(_sq_dists(X[rows], X, row_dots(X[rows], X[rows]), row_dots(X, X)))
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
    expect = _full_scan(X, 20)
    assert np.array_equal(knn_indices(X, 20), expect)
    exact = np.sqrt(((X[:300, None] - X[None]) ** 2).sum(axis=2))
    assert not np.array_equal(np.argsort(exact, axis=1, kind="stable")[:, :20], expect[:300])


def test_knn_indices_evaluates_few_distances(monkeypatch):
    # on the 4000-point spiral the leaf boxes leave most of the n^2
    # distances unevaluated, and no block holds more than KNN_BLOCK of them
    import spherelets.numeric as num
    from spherelets.datasets import noisy_spiral

    X = noisy_spiral(4000, 0.2, seed=0).points
    sizes, plain = [], num._sq_dists

    def counting(A, B, *args):
        out = plain(A, B, *args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(num, "_sq_dists", counting)
    num.knn_indices(X, 36)
    assert sum(sizes) < 0.1 * len(X) ** 2
    assert max(sizes) <= num.KNN_BLOCK


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_knn_indices_parent_cell_bounds_match_oracle(data):
    # k above KNN_LEAF: leaves below the root hold fewer than k rows (k
    # only where an odd k stops a split), so they bound their rows' k-th
    # distances within their parent cells. From D = NARROW_ROW on, the
    # boxes span only some of the axes. Coordinates on a 2^-10 grid keep
    # every distance exact, and duplicate rows tie, so the oracle's order
    # is the contract's
    import spherelets.numeric as num

    D = data.draw(st.integers(1, 10), label="D")
    leaf = data.draw(st.integers(1, 6), label="leaf")
    coords = st.lists(st.integers(-4096, 4096), min_size=D, max_size=D)
    X = np.array(data.draw(st.lists(coords, min_size=leaf + 1, max_size=60), label="X")) / 1024
    dup = data.draw(st.lists(st.integers(0, len(X) - 1), max_size=10), label="dup")
    X = np.vstack([X, X[dup]])
    n = len(X)
    k = data.draw(st.integers(leaf + 1, n), label="k")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(num, "KNN_LEAF", leaf)
        mp.setattr(num, "KNN_BLOCK", data.draw(st.integers(1, 3 * n), label="block"))
        got = num.knn_indices(X, k)
        order, edges, bounds = num._kd_leaves(X, k)
    assert np.array_equal(got, _knn_oracle(X, k))
    # the leaves hold every row once, each leaf's rows sorted; so do the
    # bounded rows, each within a cell of k rows or more that bounds its
    # k-th distance
    assert edges[0] == 0 and edges[-1] == n and np.array_equal(np.sort(order), np.arange(n))
    assert all(np.all(np.diff(rows) > 0) for rows in np.split(order, edges[1:-1]))
    assert np.array_equal(np.sort(np.concatenate([rows for rows, _ in bounds])), np.arange(n))
    assert all(cell.size >= k and np.isin(rows, cell).all() for rows, cell in bounds)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_knn_indices_orders_interior_ties_by_index(data):
    # points of an integer lattice, drawn without repeats and shuffled:
    # many rows have equal distances inside their k nearest, below the
    # k-th, which the one sort must still leave in index order. Every
    # distance is exact, so the oracle's order is the contract's
    import spherelets.numeric as num

    D = data.draw(st.integers(1, 3), label="D")
    grid = np.stack(np.meshgrid(*[np.arange(-3, 4)] * D, indexing="ij"), axis=-1).reshape(-1, D)
    pick = data.draw(st.lists(st.integers(0, len(grid) - 1), min_size=2, max_size=60,
                              unique=True), label="pick")
    X = grid[pick].astype(float)
    n = len(X)
    k = data.draw(st.integers(2, n), label="k")
    dist = np.sort(np.sqrt(((X[:, None] - X[None]) ** 2).sum(axis=2)), axis=1)
    inner = np.any(dist[:, 1:k] == dist[:, : k - 1], axis=1)
    assume(np.any(inner & (dist[:, k - 1] < (dist[:, k] if k < n else np.inf))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(num, "KNN_LEAF", data.draw(st.integers(1, 16), label="leaf"))
        mp.setattr(num, "KNN_BLOCK", data.draw(st.integers(1, 3 * n), label="block"))
        got = num.knn_indices(X, k)
    assert np.array_equal(got, _knn_oracle(X, k))


def test_knn_indices_results_share_no_memory():
    # every block is written into one reused workspace; the results are
    # still fresh arrays, apart from each other and from the input
    X = np.random.default_rng(24).normal(size=(500, 2))
    first, second = knn_indices(X, 8), knn_indices(X, 8)
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, X) and not np.shares_memory(second, X)


@pytest.mark.parametrize("scale", [1e-170, 1e160, 2.0**-565, 2.0**532])
def test_knn_indices_extreme_scales_match_full_scan(scale):
    # squares that would underflow to ties or overflow to NaN at this
    # scale: the points keep the neighbors they have at unit scale
    X = np.random.default_rng(23).normal(size=(700, 2))
    assert np.array_equal(knn_indices(X * scale, 5), _full_scan(X, 5))


@pytest.mark.parametrize("X", [np.zeros((0, 3)), np.array([[1.0, np.nan], [3.0, 4.0]]),
                               np.array([[np.inf, 2.0]]), np.array([[3.0, -5.0]])],
                         ids=["empty", "nan", "inf", "finite"])
def test_unit_scale_result_shares_no_memory_with_input(X):
    scaled, e = unit_scale(X)
    assert not np.shares_memory(scaled, X)
    assert np.array_equal(np.ldexp(scaled, e), X, equal_nan=True)
    scaled[...] = 7.0  # writing to the result leaves the input alone
    assert not np.any(X == 7.0)
