"""Recursive PC1-sign partitioning of ambient space.

Each internal node stores the cell mean and the leading eigenvector of
the cell scatter; a point goes left when its centered score along that
direction is strictly positive, right otherwise. Because the rule is a
sign test, it extends from the training rows to a total partition of
R^D, so unseen points can be routed through the same tree.

The tree grows a level at a time: one ragged ``spca.fit_pieces`` call
fits every cell of a level. A cell is split while its piece's MSE
exceeds ``eps`` and it retains more than ``n_min`` members, at the
piece's mean along the fit's own first principal axis, by the same sign
test that routes points; a split leaving either side below ``n_min`` is
rejected. Leaves keep pieces and are numbered depth-first once the
tree's shape is known.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterError
from .spca import Piece, fit_pieces


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
    piece: Piece | None = None


PartitionNode = Internal | Leaf


def build_tree(
    X: np.ndarray,
    d: int,
    eps: float,
    n_min: int,
    fitter: str = "spca",
) -> PartitionNode:
    """Grow the PC1-sign tree level by level until every cell meets the MSE
    target or runs out of points; leaves are numbered in depth-first order."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if eps <= 0:
        raise ParameterError(f"eps must be > 0, got {eps}")
    if n_min < d + 3:
        raise ParameterError(f"n_min must be >= d+3 = {d + 3}, got {n_min}")
    if X.shape[0] < n_min:
        raise ParameterError(f"n={X.shape[0]} is below n_min={n_min}")

    # levels[t][i] is (rule, j) for a split cell whose children are cells
    # j and j + 1 of level t + 1, or (member indices, piece) for a leaf
    levels, cells = [], [np.arange(X.shape[0])]
    while cells:
        sizes = np.array([rows.size for rows in cells])
        starts = np.cumsum(sizes) - sizes
        pieces, axes = fit_pieces(X.take(np.concatenate(cells), axis=0), starts, d, fitter)
        level, children = [], []
        for rows, piece, axis in zip(cells, pieces, axes):
            cell = X.take(rows, axis=0)
            if rows.size > n_min and float(np.mean(piece.residual_sq(cell))) > eps:
                rule = SplitRule(mu=piece.mu, direction=axis)
                left = (cell - rule.mu) @ rule.direction > 0.0
                if n_min <= np.count_nonzero(left) <= rows.size - n_min:
                    level.append((rule, len(children)))
                    children += [rows[left], rows[~left]]
                    continue
            level.append((rows, piece))
        levels.append(level)
        cells = children

    cell_ids = itertools.count()

    def node(t: int, i: int) -> PartitionNode:
        a, b = levels[t][i]
        if isinstance(a, SplitRule):
            return Internal(rule=a, left=node(t + 1, b), right=node(t + 1, b + 1))
        return Leaf(cell_id=next(cell_ids), member_indices=a, piece=b)

    return node(0, 0)


def route(x: np.ndarray, tree: PartitionNode) -> int:
    """Cell id of the leaf that x falls into (the one-point reference walk)."""
    node = tree
    while isinstance(node, Internal):
        score = float((x - node.rule.mu) @ node.rule.direction)
        node = node.left if score > 0.0 else node.right
    return node.cell_id


def leaf_rows(X: np.ndarray, tree: PartitionNode):
    """(leaf, increasing row indices) for each leaf that receives rows of X,
    partitioning the indices recursively by the sign test of each split."""
    stack = [(tree, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if isinstance(node, Leaf):
            yield node, rows
            continue
        left = (X.take(rows, axis=0) - node.rule.mu) @ node.rule.direction > 0.0
        stack.append((node.right, rows[~left]))
        stack.append((node.left, rows[left]))


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
