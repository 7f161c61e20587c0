import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import piece_record, piece_residual_sq, sym_eig
from spherelets.datasets import enneper, euler_spiral, sphere_sample
from spherelets.exceptions import ParameterError
from spherelets.model import fit
from spherelets.numeric import NARROW_ROW, row_dots
from spherelets.spca import fit_pieces
from spherelets.partition import (
    Internal,
    Leaf,
    SplitRule,
    build_tree,
    iter_leaves,
    _goes_left,
    _score,
    leaf_index,
    route,
)


def _root_split(X, n_min=3):
    """The root rule of a tree forced to split (eps below any MSE) and the
    member sets of its two children."""
    tree, pieces, _ = build_tree(X, 0, 1e-300, n_min, "pca")
    assert isinstance(tree, Internal) and pieces.radius.size == len(list(iter_leaves(tree)))
    return tree.rule, _members(tree.left), _members(tree.right)


def _members(node):
    return sorted(np.concatenate([l.member_indices for l in iter_leaves(node)]).tolist())


def _depth(node):
    """Levels of a tree: 1 for a leaf."""
    return 1 if isinstance(node, Leaf) else 1 + max(_depth(node.left), _depth(node.right))


def route_many(X, tree):
    """Cell id of each row of X from one ``leaf_index`` pass, which must
    give every row the depth-first number of a leaf."""
    at, leaves = leaf_index(X, tree), list(iter_leaves(tree))
    assert at.shape == (X.shape[0],) and at.dtype == np.intp
    assert np.all((0 <= at) & (at < len(leaves)))
    return np.array([leaves[j].cell_id for j in at.tolist()], dtype=int)


def test_split_cell_1d_signs():
    """A cell splits by the sign of the first principal-component score."""
    X = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
    rule, left, right = _root_split(X)
    assert sorted(X[left].ravel().tolist()) == [1.0, 1.5, 2.0]
    assert sorted(X[right].ravel().tolist()) == [-2.0, -1.5, -1.0]


def test_split_cell_point_at_mean_goes_right():
    X = np.array([[-1.0], [0.0], [1.0], [-3.0], [3.0], [-2.0], [2.0]])  # mean exactly 0
    rule, left, right = _root_split(X)
    assert 1 in right  # the PC1 = 0 point
    assert left == [2, 4, 6]


def test_split_cell_direction_matches_eig_oracle():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 2)) * np.array([4.0, 0.5])
    rule, _, _ = _root_split(X)
    Xc = X - X.mean(axis=0)
    v1 = sym_eig(Xc.T @ Xc).eigenvectors[:, 0]
    assert np.allclose(rule.direction, v1, rtol=0.0, atol=1e-12)
    assert np.allclose(rule.mu, X.mean(axis=0), rtol=0.0, atol=1e-12)


def test_split_cell_degenerate():
    """Identical points have MSE 0, so they stay one leaf at any eps."""
    for fitter in ("spca", "pca"):
        tree, pieces, _ = build_tree(np.ones((5, 2)), 0, 1e-300, 3, fitter)
        assert isinstance(tree, Leaf) and pieces.radius.size == 1
        assert np.array_equal(pieces.mu[0], [1.0, 1.0])
        assert tree.member_indices.tolist() == list(range(5))


def test_build_tree_circle_single_leaf():
    X = sphere_sample(100, 1, 2, 0.0, 1.0, seed=0)
    tree, pieces, _ = build_tree(X, 1, 1e-6, 10, "spca")
    assert isinstance(tree, Leaf)
    assert pieces.sphere.tolist() == [True] and np.isclose(pieces.radius[0], 1.0)


def test_build_tree_validation():
    X = np.random.default_rng(0).normal(size=(50, 2))
    with pytest.raises(ParameterError):
        build_tree(X, 1, -1.0, 10, "spca")
    with pytest.raises(ParameterError):
        build_tree(X, 1, 1e-3, 2, "spca")  # n_min < d+3
    with pytest.raises(ParameterError):
        build_tree(X, 1, 1e-3, 60, "spca")  # n < n_min
    with pytest.raises(ParameterError):
        build_tree(X, 1, 1e-3, 10, "svd")


def _leaf_list(tree):
    return list(iter_leaves(tree))


def test_leaves_partition_training_set():
    X = euler_spiral(600, 2.0, seed=2).points
    tree, _, _ = build_tree(X, 1, 1e-7, 10, "spca")
    leaves = _leaf_list(tree)
    all_idx = np.concatenate([l.member_indices for l in leaves])
    assert sorted(all_idx.tolist()) == list(range(600))
    # depth-first numbering, every leaf at least n_min members
    assert [l.cell_id for l in leaves] == list(range(len(leaves)))
    assert min(len(l.member_indices) for l in leaves) >= 10
    assert _depth(tree) <= 600


def test_route_replays_training_membership():
    X = euler_spiral(500, 2.0, seed=3).points
    tree, _, _ = build_tree(X, 1, 1e-7, 10, "spca")
    for leaf in _leaf_list(tree):
        for i in leaf.member_indices:
            assert route(X[i], tree) == leaf.cell_id


def test_route_boundary_point_goes_right():
    X = euler_spiral(500, 2.0, seed=4).points
    tree, _, _ = build_tree(X, 1, 1e-7, 10, "spca")
    assert isinstance(tree, Internal)
    rng = np.random.default_rng(1)
    w = rng.normal(size=2)
    w -= (w @ tree.rule.direction) * tree.rule.direction
    x = tree.rule.mu + w  # score exactly... up to fp; force it
    assert abs((x - tree.rule.mu) @ tree.rule.direction) < 1e-10
    got = route(x, tree)
    right_ids = {l.cell_id for l in _leaf_list(tree.right)}
    if (x - tree.rule.mu) @ tree.rule.direction <= 0.0:
        assert got in right_ids


def test_route_matches_independent_replay():
    X = euler_spiral(800, 2.0, seed=5).points
    tree, _, _ = build_tree(X, 1, 1e-8, 10, "spca")

    def replay(x, node):
        while isinstance(node, Internal):
            score = float((x - node.rule.mu) @ node.rule.direction)
            node = node.left if score > 0.0 else node.right
        return node.cell_id

    rng = np.random.default_rng(9)
    pts = rng.uniform(-0.2, 1.2, size=(1000, 2))
    for x in pts:
        assert route(x, tree) == replay(x, tree)


def test_leaf_guard_mse_or_small():
    # every leaf meets the MSE target or was blocked from splitting
    X = euler_spiral(2000, 2.0, seed=6).points
    eps, n_min = 1e-8, 10
    tree, pieces, _ = build_tree(X, 1, eps, n_min, "spca")
    for leaf in _leaf_list(tree):
        cell = X[leaf.member_indices]
        mse = float(np.mean(piece_residual_sq(piece_record(pieces, leaf.cell_id), cell)))
        assert mse <= eps or len(leaf.member_indices) <= 2 * n_min


def test_build_tree_pca_fitter_splits():
    X = euler_spiral(600, 2.0, seed=7).points
    tree_s, _, _ = build_tree(X, 1, 1e-8, 10, "spca")
    tree_p, _, _ = build_tree(X, 1, 1e-8, 10, "pca")
    # line pieces need more cells than sphere pieces at equal target
    assert len(_leaf_list(tree_p)) > len(_leaf_list(tree_s))


def _int_vector(data, D, lo, hi, label):
    return np.array(data.draw(st.lists(st.integers(lo, hi), min_size=D, max_size=D), label=label),
                    dtype=float)


def _draw_tree(data, D, depth, ids):
    """A random tree with small-integer split means and directions, so every
    score is computed exactly and points on a split hyperplane score 0."""
    if depth == 0 or data.draw(st.booleans(), label="leaf"):
        return Leaf(cell_id=ids.pop(), member_indices=np.zeros(0, dtype=int))
    mu = _int_vector(data, D, -3, 3, "mu")
    direction = _int_vector(data, D, -2, 2, "direction")
    if not direction.any():
        direction[data.draw(st.integers(0, D - 1), label="axis")] = 1.0
    return Internal(rule=SplitRule(mu=mu, direction=direction),
                    left=_draw_tree(data, D, depth - 1, ids),
                    right=_draw_tree(data, D, depth - 1, ids))


def _split_means(node):
    if isinstance(node, Leaf):
        return []
    return [node.rule.mu] + _split_means(node.left) + _split_means(node.right)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_route_many_equals_route_property(data):
    # leaf_index sends the rows where the one-point route sends them; integer
    # points on integer hyperplanes: many rows score exactly 0, and the
    # split means themselves are always included
    D = data.draw(st.integers(1, 3), label="D")
    ids = data.draw(st.permutations(range(32)), label="ids")
    tree = _draw_tree(data, D, data.draw(st.integers(0, 4), label="depth"), list(ids))
    n = data.draw(st.integers(0, 30), label="n")
    X = np.array([_int_vector(data, D, -4, 4, "x") for _ in range(n)]).reshape(n, D)
    X = np.vstack([X] + [mu[None, :] for mu in _split_means(tree)])
    assert route_many(X, tree).tolist() == [route(x, tree) for x in X]


def test_route_many_point_on_hyperplane_goes_right():
    rule = SplitRule(mu=np.array([1.0, 2.0]), direction=np.array([0.6, 0.8]))
    tree = Internal(rule=rule, left=Leaf(0, np.zeros(0, dtype=int)), right=Leaf(1, np.zeros(0, dtype=int)))
    X = np.array([[1.0, 2.0], [2.0, 2.0], [0.0, 2.0]])  # at the mean: score exactly 0
    assert route_many(X, tree).tolist() == [1, 0, 1]
    assert [route(x, tree) for x in X] == [1, 0, 1]
    assert route_many(np.zeros((0, 2)), tree).tolist() == []


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_training_rows_route_to_their_leaf_property(data):
    D = data.draw(st.integers(2, 3), label="D")
    n = data.draw(st.integers(13, 90), label="n")
    rows = st.lists(st.floats(-10, 10, allow_subnormal=False), min_size=D, max_size=D)
    X = np.array(data.draw(st.lists(rows, min_size=n, max_size=n), label="X"))
    fitter = data.draw(st.sampled_from(["spca", "pca"]), label="fitter")
    tree, _, _ = build_tree(X, 1, data.draw(st.sampled_from([1e-6, 1e-2, 1.0])), 10, fitter)
    cells = route_many(X, tree)
    for leaf in _leaf_list(tree):
        assert np.all(cells[leaf.member_indices] == leaf.cell_id)


@st.composite
def _grown_sets(draw):
    """Rows for a grown tree in R^D, D = 1-16: a cloud longest along its
    first axis and symmetric under flipping that axis and under -x, whose
    scatter has that axis as an exact eigenvector, with rows on the root
    split's hyperplane (first coordinate 0), all turned by a random
    rotation and moved: those rows score a rounding error of either sign."""
    D = draw(st.integers(1, 16), label="D")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    Y = rng.normal(size=(draw(st.integers(4, 30), label="k"), D))
    Y[:, 0] *= 4.0
    W = rng.normal(size=(draw(st.integers(0, 30), label="on_split"), D))
    W[:, 0] = 0.0
    flip = np.ones(D)
    flip[0] = -1.0
    Q = np.linalg.qr(rng.normal(size=(D, D)))[0]
    return np.vstack([Y, Y * flip, -Y, -Y * flip, W, -W]) @ Q.T + rng.uniform(-10, 10, D)


@settings(max_examples=60, deadline=None)
@given(X=_grown_sets(), d=st.integers(0, 2), fitter=st.sampled_from(["spca", "pca"]),
       seed=st.integers(0, 2**32 - 1))
def test_grown_tree_routes_each_training_row_to_its_leaf_property(X, d, fitter, seed):
    # growth splits a cell by the signs of its fit's own scores; leaf_index
    # and the one-point route score those rows by the same sums at every
    # D, so each training row reaches the leaf whose members hold it
    tree, _, _ = build_tree(X, d, 1e-12, d + 3, fitter)
    leaves = _leaf_list(tree)
    owner = np.full(X.shape[0], -1)
    for j, leaf in enumerate(leaves):
        owner[leaf.member_indices] = j
    assert np.array_equal(leaf_index(X, tree), owner)
    sample = np.random.default_rng(seed).choice(X.shape[0], size=min(X.shape[0], 20), replace=False)
    assert [route(X[i], tree) for i in sample] == [leaves[owner[i]].cell_id for i in sample]


def test_route_many_matches_route_on_fitted_tree():
    X = euler_spiral(800, 2.0, seed=5).points
    tree, _, _ = build_tree(X, 1, 1e-8, 10, "spca")
    pts = np.vstack([X, np.random.default_rng(9).uniform(-0.2, 1.2, size=(1000, 2))])
    assert route_many(pts, tree).tolist() == [route(x, tree) for x in pts]


# -- the per-cell loop build_tree replaced -------------------------------------


def _per_cell_tree(X, d, eps, n_min, fitter):
    """The tree as the per-cell loop grew it: each cell's MSE from its
    piece's own squared residuals, its sides from one product per cell.
    Nested tuples ("split", mu, direction, left, right) and ("leaf",
    members, piece)."""
    levels, cells = [], [np.arange(X.shape[0])]
    while cells:
        sizes = np.array([rows.size for rows in cells])
        fits = fit_pieces(X[np.concatenate(cells)], np.cumsum(sizes) - sizes, d, fitter)
        level, children = [], []
        for i, (rows, axis) in enumerate(zip(cells, fits.axis)):
            piece = piece_record(fits.pieces, i)
            if rows.size > n_min and float(np.mean(piece_residual_sq(piece, X[rows]))) > eps:
                left = (X[rows] - piece.mu) @ axis > 0.0
                if n_min <= np.count_nonzero(left) <= rows.size - n_min:
                    level.append(("split", piece.mu, axis, len(children)))
                    children += [rows[left], rows[~left]]
                    continue
            level.append(("leaf", rows, piece))
        levels.append(level)
        cells = children

    def node(t, i):
        entry = levels[t][i]
        if entry[0] == "leaf":
            return entry
        return entry[:3] + (node(t + 1, entry[3]), node(t + 1, entry[3] + 1))

    return node(0, 0)


def _same_tree(node, ref, pieces):
    if ref[0] == "leaf":
        piece = piece_record(pieces, node.cell_id) if isinstance(node, Leaf) else None
        return (isinstance(node, Leaf) and np.array_equal(node.member_indices, ref[1])
                and type(piece) is type(ref[2]) and np.array_equal(piece.frame, ref[2].frame)
                and np.array_equal(piece.mu, ref[2].mu))
    return (isinstance(node, Internal) and np.array_equal(node.rule.mu, ref[1])
            and np.array_equal(node.rule.direction, ref[2])
            and _same_tree(node.left, ref[3], pieces) and _same_tree(node.right, ref[4], pieces))


@pytest.mark.parametrize("name,d,eps,fitter", [
    ("spiral", 1, 1e-8, "spca"), ("spiral", 1, 1e-8, "pca"), ("enneper", 2, 1e-5, "spca"),
    ("enneper", 2, 1e-5, "pca"), ("enneper10", 2, 1e-5, "spca")])
def test_build_tree_equals_the_per_cell_loop_it_replaced(name, d, eps, fitter):
    # closed-form MSEs and row_dots sides move a decision only within
    # rounding of eps or of a hyperplane; on these inputs the trees are equal
    X = {"spiral": lambda: euler_spiral(1500, 2.0, seed=41).points,
         "enneper": lambda: enneper(3000, 1.0, seed=42),
         "enneper10": lambda: enneper(3000, 1.0, seed=43) @ np.linalg.qr(
             np.random.default_rng(43).normal(size=(10, 3)))[0].T}[name]()
    tree, pieces, _ = build_tree(X, d, eps, 10, fitter)
    assert isinstance(tree, Internal)
    assert _same_tree(tree, _per_cell_tree(X, d, eps, 10, fitter), pieces)


# -- batch independence ------------------------------------------------------


def _rules(node):
    if isinstance(node, Leaf):
        return []
    return [node.rule] + _rules(node.left) + _rules(node.right)


def _points_on_splits(tree, n, seed):
    """n real-valued points, each on the hyperplane of a random split of
    the tree up to rounding: the split mean plus an offset whose component
    along the split direction is removed, so its score is a rounding error
    of either sign."""
    rules = _rules(tree)
    rng = np.random.default_rng(seed)
    picks = rng.integers(len(rules), size=n)
    mu = np.array([rules[k].mu for k in picks])
    v = np.array([rules[k].direction for k in picks])
    W = 0.1 * rng.normal(size=mu.shape)
    W -= np.sum(W * v, axis=1, keepdims=True) * v
    return mu + W


@functools.cache
def _split_models():
    # the Enneper surface in R^3, where rows are scored one column at a
    # time, and turned into R^10, where they take NumPy's row reduction
    Q = np.linalg.qr(np.random.default_rng(32).normal(size=(10, 3)))[0]
    return {3: fit(enneper(2000, 1.0, seed=31), 2, 1e-5),
            10: fit(enneper(2000, 1.0, seed=32) @ Q.T, 2, 1e-5)}


@pytest.mark.parametrize("D", [3, 10])
def test_route_is_batch_independent_on_split_hyperplanes(D):
    # a row's leaf is the one-point route's, whether it is routed alone, in
    # batches of 7 or among all rows
    tree = _split_models()[D].tree
    X = _points_on_splits(tree, 2000, seed=D)
    expect = [route(x, tree) for x in X]
    assert len(set(expect)) > 10
    for batch in (1, 7, len(X)):
        got = np.concatenate([route_many(X[lo : lo + batch], tree)
                              for lo in range(0, len(X), batch)])
        assert got.tolist() == expect, batch


@pytest.mark.parametrize("D", range(1, 17))
def test_one_row_score_is_row_dots_bit_for_bit(D):
    # route scores one row in Python floats: its scores are the ones the
    # fit that grew the split gives the same rows (the column-order sum at
    # every D), and below NARROW_ROW also the ones row_dots gives them
    rng = np.random.default_rng(D)
    X = rng.normal(size=(500, D)) * 10.0 ** rng.integers(-8, 9, size=(500, 1))
    fits = fit_pieces(X, [0], 0, "pca")
    rule = SplitRule(mu=fits.pieces.mu[0], direction=fits.axis[0])
    got = np.array([_score(x, rule) for x in X])
    assert got.tobytes() == fits.score.tobytes()
    column_order = functools.reduce(np.add, ((X[:, j] - rule.mu[j]) * rule.direction[j] for j in range(D)))
    assert got.tobytes() == column_order.tobytes()
    assert np.array_equal(got > 0.0, _goes_left(X, rule.mu[None], rule.direction[None]))
    if D < NARROW_ROW:
        assert got.tobytes() == row_dots(X - rule.mu, rule.direction).tobytes()


@pytest.mark.parametrize("D", [3, 10])
def test_project_is_batch_independent_on_split_hyperplanes(D):
    # SphereletModel.project(x) is row i of project_many(X), bit for bit
    model = _split_models()[D]
    X = _points_on_splits(model.tree, 1000, seed=D + 1)
    P = model.project_many(X)
    for x, p in zip(X, P):
        assert np.array_equal(model.project(x), p)
