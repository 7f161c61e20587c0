"""Piecewise-spherical manifold models.

A fitted model is a PC1-sign partition tree whose leaves keep the piece
fitted to their cell: a spherelet under the ``spca`` fitter (with
hyperplane fallback on degeneracy) or a d-dimensional hyperplane under
``pca``. Projection routes a batch through the tree and maps each leaf's
rows onto its piece, so held-out data can be projected without refitting.

Models serialize to versioned JSON with explicit arrays; floats are
written with shortest round-trip precision so save/load is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DimensionError,
    ParameterError,
    ParseError,
    SingularProjectionError,
    VersionError,
)
from .partition import (
    Internal,
    Leaf,
    PartitionNode,
    SplitRule,
    build_tree,
    iter_leaves,
    leaf_rows,
)
from .spca import Hyperplane, Piece, Spherelet

FORMAT_VERSION = 1

# load() rejects a piece frame F with Frobenius |F'F - I| above this
FRAME_TOL = 1e-9


@dataclass
class SphereletModel:
    tree: PartitionNode
    d: int
    D: int
    fitter: str
    provenance: dict = field(default_factory=dict)

    @property
    def leaves(self) -> dict[int, Piece]:
        """The piece of every leaf, by cell id."""
        return {leaf.cell_id: leaf.piece for leaf in iter_leaves(self.tree)}

    @property
    def n_pieces(self) -> int:
        return len(self.leaves)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Project a single D-vector onto the estimated manifold."""
        return self.project_many(np.asarray(x, dtype=float).ravel())[0]

    def project_many(self, X: np.ndarray) -> np.ndarray:
        return self._route_project(X)[0]

    def _route_project(self, X: np.ndarray) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Projections of the rows of X, one ``project`` call per leaf, and
        the rows each leaf received."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.D:
            raise DimensionError(f"point dimension {X.shape[1]} != model dimension {self.D}")
        P = np.empty_like(X)
        cells = {}
        for leaf, rows in leaf_rows(X, self.tree):
            try:
                # a stack of 1 x D rows: BLAS then takes each row's product
                # alone, so its image does not depend on the batch it is in
                P[rows] = leaf.piece.project(X[rows][:, None, :])[:, 0]
            except SingularProjectionError as exc:
                row = int(rows[exc.row])
                raise SingularProjectionError(
                    f"row {row} projects onto the sphere center of cell {leaf.cell_id}", row=row
                ) from None
            cells[leaf.cell_id] = rows
        return P, cells

    def mse(self, X: np.ndarray) -> tuple[float, dict[int, float]]:
        """Overall and per-cell mean squared projection residual.

        Works identically for training and held-out data; cells that
        receive no rows are omitted from the per-cell map.
        """
        return self.project_mse(X)[1:]

    def project_mse(self, X: np.ndarray) -> tuple[np.ndarray, float, dict[int, float]]:
        """``project_many(X)`` and ``mse(X)`` from one route-and-project pass."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] == 0:
            raise ParameterError("cannot compute MSE of an empty dataset")
        P, cells = self._route_project(X)
        sq = np.sum((X - P) ** 2, axis=1)
        per_cell = {cid: float(np.mean(sq[rows])) for cid, rows in sorted(cells.items())}
        return P, float(np.mean(sq)), per_cell

    def save(self, path: str) -> None:
        save(self, path)


def fit(
    X: np.ndarray,
    d: int,
    eps: float,
    n_min: int | None = None,
    fitter: str = "spca",
    provenance: dict | None = None,
) -> SphereletModel:
    """Fit a piecewise model: grow the partition tree, which fits one piece
    per cell. ``n_min`` defaults to max(10, d+3)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if n_min is None:
        n_min = max(10, d + 3)
    tree = build_tree(X, d, eps, n_min, fitter)
    prov = dict(provenance or {})
    prov.setdefault("eps", eps)
    prov.setdefault("n_min", n_min)
    return SphereletModel(tree=tree, d=d, D=X.shape[1], fitter=fitter, provenance=prov)


# -- serialization ----------------------------------------------------------


def _tree_to_obj(node: PartitionNode):
    if isinstance(node, Leaf):
        return {"leaf": node.cell_id, "members": node.member_indices.tolist()}
    return {
        "split": {"mu": node.rule.mu.tolist(), "direction": node.rule.direction.tolist()},
        "left": _tree_to_obj(node.left),
        "right": _tree_to_obj(node.right),
    }


def _piece_to_obj(cell_id: int, piece: Piece):
    sphere = isinstance(piece, Spherelet)
    return {
        "id": cell_id,
        "kind": "sphere" if sphere else "plane",
        "mu": piece.mu.tolist(),
        "frame": piece.frame.tolist(),
        "center": piece.center.tolist() if sphere else None,
        "radius": piece.radius if sphere else None,
    }


def save(model: SphereletModel, path: str) -> None:
    obj = {
        "version": FORMAT_VERSION,
        "d": model.d,
        "D": model.D,
        "fitter": model.fitter,
        "provenance": model.provenance,
        "tree": _tree_to_obj(model.tree),
        "leaves": [_piece_to_obj(cid, p) for cid, p in sorted(model.leaves.items())],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _vector(value, D: int, name: str) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.shape != (D,) or not np.all(np.isfinite(v)):
        raise ValueError(f"{name}: expected {D} finite numbers, got {value!r}")
    return v


def _obj_to_tree(obj, where: str, pieces: dict[int, Piece], D: int) -> PartitionNode:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    try:
        if "leaf" in obj:
            cid = int(obj["leaf"])
            return Leaf(
                cell_id=cid,
                member_indices=np.asarray(obj.get("members", []), dtype=int),
                piece=pieces.get(cid),
            )
        rule = SplitRule(
            mu=_vector(obj["split"]["mu"], D, "split.mu"),
            direction=_vector(obj["split"]["direction"], D, "split.direction"),
        )
        left, right = obj["left"], obj["right"]
    except KeyError as exc:
        raise ParseError(f"{where}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc
    return Internal(
        rule=rule,
        left=_obj_to_tree(left, where + ".left", pieces, D),
        right=_obj_to_tree(right, where + ".right", pieces, D),
    )


def _obj_to_piece(obj, where: str, d: int, D: int) -> tuple[int, Piece]:
    try:
        cid, kind = int(obj["id"]), obj["kind"]
        where = f"{where} (leaf {cid})"
        if kind not in ("plane", "sphere"):
            raise ValueError(f"unknown piece kind {kind!r}")
        sphere = kind == "sphere"
        mu, frame = _vector(obj["mu"], D, "mu"), np.asarray(obj["frame"], dtype=float)
        if (frame.ndim != 2 or frame.shape[0] != D or (sphere and frame.shape[1] != d + 1)
                or not np.all(np.isfinite(frame))):
            want = f"{D} x {d + 1}" if sphere else f"{D}-row"
            raise ValueError(f"frame must be a finite {want} matrix, got shape {frame.shape}")
        ortho = np.linalg.norm(frame.T @ frame - np.eye(frame.shape[1]))
        if ortho > FRAME_TOL:
            raise ValueError(f"frame columns are not orthonormal: |F'F - I| = {ortho:.3g}")
        if not sphere:
            return cid, Hyperplane(mu=mu, frame=frame)
        radius = float(obj["radius"])
        if not (math.isfinite(radius) and radius > 0.0):
            raise ValueError(f"sphere radius {radius!r} is not finite and positive")
        return cid, Spherelet(frame=frame, center=_vector(obj["center"], D, "center"),
                              radius=radius, mu=mu)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def load(path: str) -> SphereletModel:
    """Load a model file; raises ParseError / VersionError on bad input,
    including a piece or split whose shapes do not fit d and D, a
    non-finite array, a frame whose columns are not orthonormal within
    ``FRAME_TOL``, a sphere radius that is not finite and positive, and
    leaf ids that do not pair each tree leaf with exactly one piece."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be an object")
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: unsupported model version {version!r}")
    for key in ("d", "D", "fitter", "tree", "leaves"):
        if key not in obj:
            raise ParseError(f"{path}: missing field {key!r}")
    try:
        d, D = int(obj["d"]), int(obj["D"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    parsed = [_obj_to_piece(o, f"leaves[{i}]", d, D) for i, o in enumerate(obj["leaves"])]
    tree = _obj_to_tree(obj["tree"], "tree", dict(parsed), D)
    leaf_ids = sorted(leaf.cell_id for leaf in iter_leaves(tree))
    piece_ids = sorted(cid for cid, _ in parsed)
    if leaf_ids != piece_ids:  # also catches an id used twice on either side
        raise ParseError(f"{path}: tree leaves {leaf_ids} do not match pieces {piece_ids}")
    return SphereletModel(
        tree=tree,
        d=d,
        D=D,
        fitter=str(obj["fitter"]),
        provenance=obj.get("provenance", {}),
    )
