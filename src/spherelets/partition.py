"""Recursive PC1-sign partitioning of ambient space.

Each internal node stores the cell mean and the leading eigenvector of
the cell scatter; a point goes left when its centered score along that
direction is strictly positive, right otherwise. Because the rule is a
sign test, it extends from the training rows to a total partition of
R^D, so unseen points can be routed through the same tree.

The tree grows a level at a time: one ragged ``spca.fit_pieces`` call
fits every cell of a level and gives each row's squared residual to its
cell's piece and its ``score``, its first reduced coordinate along the
cell's first principal axis. A cell is split while its piece's MSE (one
segment sum of those residuals) exceeds ``eps`` and it retains more than
``n_min`` members, at the piece's mean along that axis, by the sign of
the fit's own score, the same sign test that routes points; a split
leaving either side below ``n_min`` is rejected. The next level's cells
are the split cells' rows in one stable sort by (cell, side), so no row
is scored twice. Leaves are numbered depth-first once the tree's shape
is known, and their pieces gathered into one ``spca.PieceTable`` whose
row j is the piece of leaf j; each row keeps its residual from the level
at which its cell became a leaf.

Routing (``leaf_index``) moves a whole batch down the tree a level at a
time, every row one step per level, over arrays of the split means,
directions and children, and gives each row its leaf's depth-first
number: the row of its piece in the table. Growth, batch routing and the
one-point ``route`` all score a row by the same column-order sum
(x_0 - mu_0) v_0 + (x_1 - mu_1) v_1 + ... at every D, so a training row
routes to the leaf that holds it, and a row's leaf does not depend on
the batch it is routed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterError
from .spca import PieceTable, fit_pieces


@dataclass(frozen=True)
class SplitRule:
    """Cell mean and unit direction of the first principal component."""

    mu: np.ndarray
    direction: np.ndarray


@dataclass(frozen=True)
class Internal:
    rule: SplitRule
    left: "Internal | Leaf"
    right: "Internal | Leaf"


@dataclass(frozen=True)
class Leaf:
    cell_id: int
    member_indices: np.ndarray


PartitionNode = Internal | Leaf


def build_tree(
    X: np.ndarray,
    d: int,
    eps: float,
    n_min: int,
    fitter: str = "spca",
) -> tuple[PartitionNode, PieceTable, np.ndarray]:
    """Grow the PC1-sign tree level by level until every cell meets the MSE
    target or runs out of points. Returns the tree, its leaves numbered in
    depth-first order; the piece table, row j the piece of leaf j; and
    each row's squared residual (n,) to its leaf's piece."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not 0.0 < eps < math.inf:
        raise ParameterError(f"eps must be finite and > 0, got {eps}")
    if n_min < d + 3:
        raise ParameterError(f"n_min must be >= d+3 = {d + 3}, got {n_min}")
    if X.shape[0] < n_min:
        raise ParameterError(f"n={X.shape[0]} is below n_min={n_min}")

    # levels[t] holds the rows of the leaves of level t, cell i's from
    # bounds[i] to bounds[i + 1], the pieces and first axes of its cells,
    # and for each cell the index j of its left child in level t + 1 (its
    # right child is j + 1), or -1 for a leaf
    levels, index, sizes = [], np.arange(X.shape[0]), np.array([X.shape[0]])
    residual_sq = np.empty(X.shape[0])
    while sizes.size:
        starts = np.cumsum(sizes) - sizes
        fits = fit_pieces(X.take(index, axis=0), starts, d, fitter)
        mse = np.add.reduceat(fits.residual_sq, starts) / sizes
        left = fits.score > 0.0  # the split's sign test, scored by the fit itself
        n_left = np.add.reduceat(left, starts, dtype=np.intp)
        split = (sizes > n_min) & (mse > eps) & (n_min <= n_left) & (n_left <= sizes - n_min)
        parted = np.repeat(split, sizes)  # the rows of the split cells
        bounds = np.concatenate(([0], np.cumsum(np.where(split, 0, sizes))))
        kept = index[~parted]  # only leaves keep rows, and their residuals
        residual_sq[kept] = fits.residual_sq[~parted]
        levels.append((kept, bounds.tolist(), fits.pieces, fits.axis,
                       np.where(split, 2 * np.cumsum(split) - 2, -1).tolist()))
        # the next level's cells: each split cell's left rows, then its
        # right rows, each in their order
        side = 2 * np.repeat(np.arange(sizes.size), sizes)[parted] + ~left[parted]
        index = index[parted].take(np.argsort(side.astype(np.min_scalar_type(side.max(initial=0))),
                                              kind="stable"))
        sizes = np.column_stack([n_left, sizes - n_left])[split].ravel()

    order, stack = [], [(0, 0)]  # (level, cell) of each node, depth-first
    while stack:
        t, i = stack.pop()
        order.append((t, i))
        j = levels[t][4][i]  # the left child's index in level t + 1
        if j >= 0:
            stack += [(t + 1, j + 1), (t + 1, j)]
    # each leaf's row among the cells of all levels, by cell id
    offset = np.cumsum([0] + [len(level[4]) for level in levels])
    leaf_at = [offset[t] + i for t, i in order if levels[t][4][i] < 0]
    pieces = PieceTable(*map(np.concatenate, zip(*(level[2] for level in levels)))).take(leaf_at)
    built, cell_id = [], len(leaf_at)
    for t, i in reversed(order):  # children before parents, the right child first
        rows, bounds, table, axis, child = levels[t]
        if child[i] < 0:
            cell_id -= 1
            built.append(Leaf(cell_id=cell_id, member_indices=rows[bounds[i] : bounds[i + 1]]))
        else:
            left, right = built.pop(), built.pop()
            built.append(Internal(rule=SplitRule(mu=table.mu[i], direction=axis[i]), left=left, right=right))
    return built.pop(), pieces, residual_sq


def _goes_left(X: np.ndarray, mu: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """The sign test of every row of X against its own split: a positive
    centred score goes left. The score is the column-order sum
    (x_0 - mu_0) v_0 + (x_1 - mu_1) v_1 + ... at every D, the same products
    and sums as the first reduced coordinate growth's fit gives its rows
    (``spca.PieceFits.score``). Elementwise, so a row's side does not
    depend on the rows beside it."""
    A = X - mu
    s = A[:, 0] * direction[:, 0]
    for j in range(1, A.shape[1]):
        s += A[:, j] * direction[:, j]
    return s > 0.0


def route(x: np.ndarray, tree: PartitionNode) -> int:
    """Cell id of the leaf that x falls into: the one-point walk, node by
    node down x's own path."""
    x = np.asarray(x, dtype=float)
    node = tree
    while isinstance(node, Internal):
        node = node.left if _score(x, node.rule) > 0.0 else node.right
    return node.cell_id


def _score(x: np.ndarray, rule: SplitRule) -> float:
    """The centred score of one row x that ``_goes_left`` tests, bit for
    bit: the same IEEE products and column-order sums in Python floats,
    without NumPy's per-call cost on 0-d arrays."""
    a, b = (x - rule.mu).tolist(), rule.direction.tolist()
    s = a[0] * b[0]
    for j in range(1, len(a)):
        s += a[j] * b[j]
    return s


def _split_arrays(tree: PartitionNode) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Leaf], int]:
    """The splits of a tree as arrays, in depth-first order: means (k, D),
    directions (k, D) and children (2k,), split c's left child at 2c and
    its right at 2c + 1; the leaves in depth-first order; and the root's
    code. A code c >= 0 names split c, c < 0 names leaf ~c. One walk over
    the nodes, without recursion."""
    mu, direction, child, leaves = [], [], [], []
    root = [0]
    stack = [(tree, root, 0)]  # a node, and where its code goes
    while stack:
        node, slot, at = stack.pop()
        if isinstance(node, Leaf):
            slot[at] = ~len(leaves)
            leaves.append(node)
        else:
            slot[at] = len(mu)
            stack += [(node.right, child, len(child) + 1), (node.left, child, len(child))]
            mu.append(node.rule.mu)
            direction.append(node.rule.direction)
            child += [0, 0]
    return np.array(mu), np.array(direction), np.array(child, dtype=np.intp), leaves, root[0]


def leaf_index(X: np.ndarray, tree: PartitionNode) -> np.ndarray:
    """Each row's leaf (n,), numbered depth-first: the row of its piece in
    the model's table. All rows move down the tree together, one level per
    step, each by the sign test of its split."""
    mu, direction, child, _, root = _split_arrays(tree)
    leaf = np.full(X.shape[0], root, dtype=np.intp)  # each row's code, a leaf's once it reaches one
    rows, at, x = np.arange(X.shape[0]), leaf.copy(), X  # the rows still moving, their splits
    while root >= 0 and rows.size:
        left = _goes_left(x, mu.take(at, axis=0), direction.take(at, axis=0))
        at = child.take(2 * at + 1 - left)
        done = at < 0
        if done.any():
            leaf[rows[done]] = at[done]
            rows, at, x = rows[~done], at[~done], x[~done]
    return ~leaf


def iter_leaves(tree: PartitionNode):
    """Depth-first iteration over leaves."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            yield node
        else:
            stack.append(node.right)
            stack.append(node.left)
