"""Recursive PC1-sign partitioning of ambient space.

Each internal node stores the cell mean and the leading eigenvector of
the cell scatter; a point goes left when its centered score along that
direction is strictly positive, right otherwise. Because the rule is a
sign test, it extends from the training rows to a total partition of
R^D, so unseen points can be routed through the same tree.

Each cell is fitted once (``spca.fit_piece``) and split while that
piece's MSE exceeds ``eps`` and it retains more than ``n_min`` members;
a split leaving either side below ``n_min`` is rejected. Leaves keep pieces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateSplitError, ParameterError
from .numeric import sym_eig
from .spca import Piece, fit_piece


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


def split_cell(X_cell: np.ndarray) -> tuple[SplitRule, np.ndarray, np.ndarray]:
    """Split rows by the sign of the first principal-component score.

    Rows with strictly positive score go left; scores <= 0 (including
    points exactly at the mean) go right. Raises DegenerateSplitError on
    zero scatter or when one side would be empty.
    """
    X_cell = np.atleast_2d(np.asarray(X_cell, dtype=float))
    n = X_cell.shape[0]
    if n < 2:
        raise DegenerateSplitError(f"cannot split a cell of {n} point(s)")
    mu = X_cell.mean(axis=0)
    Xc = X_cell - mu
    scatter = Xc.T @ Xc
    if not np.any(np.abs(scatter) > 0.0):
        raise DegenerateSplitError("zero scatter: all points identical")
    v1 = sym_eig(scatter).eigenvectors[:, 0]
    scores = Xc @ v1
    left = np.nonzero(scores > 0.0)[0]
    right = np.nonzero(scores <= 0.0)[0]
    if left.size == 0 or right.size == 0:
        raise DegenerateSplitError("split leaves one side empty")
    return SplitRule(mu=mu, direction=v1), left, right


def build_tree(
    X: np.ndarray,
    d: int,
    eps: float,
    n_min: int,
    fitter: str = "spca",
) -> PartitionNode:
    """Grow the PC1-sign tree until every cell meets the MSE target or
    runs out of points; leaves are numbered in depth-first order."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if eps <= 0:
        raise ParameterError(f"eps must be > 0, got {eps}")
    if n_min < d + 3:
        raise ParameterError(f"n_min must be >= d+3 = {d + 3}, got {n_min}")
    if X.shape[0] < n_min:
        raise ParameterError(f"n={X.shape[0]} is below n_min={n_min}")

    cell_ids = itertools.count()

    def grow(indices: np.ndarray) -> PartitionNode:
        cell = X[indices]
        piece = fit_piece(cell, d, fitter)
        if indices.size > n_min and float(np.mean(piece.residual_sq(cell))) > eps:
            try:
                rule, left_loc, right_loc = split_cell(cell)
                if left_loc.size >= n_min and right_loc.size >= n_min:
                    return Internal(rule=rule, left=grow(indices[left_loc]),
                                    right=grow(indices[right_loc]))
            except DegenerateSplitError:
                pass  # the cell stays a leaf
        return Leaf(cell_id=next(cell_ids), member_indices=indices.copy(), piece=piece)

    return grow(np.arange(X.shape[0]))


def route(x: np.ndarray, tree: PartitionNode) -> int:
    """Cell id of the leaf that x falls into (the one-point reference walk)."""
    node = tree
    while isinstance(node, Internal):
        score = float((x - node.rule.mu) @ node.rule.direction)
        node = node.left if score > 0.0 else node.right
    return node.cell_id


def leaf_rows(X: np.ndarray, tree: PartitionNode):
    """(leaf, increasing row indices) for each leaf that receives rows of X,
    partitioning the indices recursively by the sign test of ``split_cell``."""
    stack = [(tree, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if isinstance(node, Leaf):
            yield node, rows
            continue
        left = (X[rows] - node.rule.mu) @ node.rule.direction > 0.0
        stack.append((node.right, rows[~left]))
        stack.append((node.left, rows[left]))


def route_many(X: np.ndarray, tree: PartitionNode) -> np.ndarray:
    """Cell id of the leaf each row of X falls into, as ``route`` gives it."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    cells = np.empty(X.shape[0], dtype=int)
    for leaf, rows in leaf_rows(X, tree):
        cells[rows] = leaf.cell_id
    return cells


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


def tree_depth(tree: PartitionNode) -> int:
    if isinstance(tree, Leaf):
        return 1
    return 1 + max(tree_depth(tree.left), tree_depth(tree.right))
