"""Piecewise-spherical manifold models.

A fitted model is a PC1-sign partition tree and one ``spca.PieceTable``
of the pieces fitted to its cells, row j the j-th leaf's depth first: a
spherelet under the ``spca`` fitter (with hyperplane fallback on
degeneracy) or a d-dimensional hyperplane under ``pca``. ``fit`` grows
the tree a level at a time, each level one ragged fit whose per-row
residuals give every cell's MSE and, kept for the rows of each leaf,
the fit's ``train_mse``; ``load`` builds the table once. Projection
routes a batch down the tree a level at a time to each row's piece index
(``partition.leaf_index``) and maps the rows onto the pieces they index
by ``spca.project_pieces``, so held-out data can be projected without
refitting; a row at its sphere's center goes onto the piece's d-plane
and is counted. The per-cell MSEs group the rows by the same index.
Routing and projection treat each row on its own, so a row's leaf and
image do not depend on the batch it is in: ``project(x)`` is row i of
``project_many(X)`` bit for bit.

Models serialize to versioned JSON with explicit arrays, on one line by
the C encoder of ``json.dumps``, without the training rows of each leaf;
floats are written with shortest round-trip precision so save/load is
exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DimensionError,
    NonFiniteError,
    ParameterError,
    ParseError,
    VersionError,
)
from .numeric import row_dots
from .partition import (
    Internal,
    Leaf,
    PartitionNode,
    SplitRule,
    _split_arrays,
    build_tree,
    iter_leaves,
    leaf_index,
)
from .spca import PieceTable, project_pieces

FORMAT_VERSION = 1

# load() rejects a piece frame F with Frobenius |F'F - I| above this
FRAME_TOL = 1e-9
# _project_routed gathers each row's D x W frame from the piece table: at
# most this many frame and row elements at once (512 KiB), which holds a
# block's gathered pieces and images in cache and below the fit's peak memory
PROJECT_BLOCK = 1 << 16


@dataclass
class SphereletModel:
    tree: PartitionNode
    pieces: PieceTable
    d: int
    D: int
    fitter: str
    provenance: dict = field(default_factory=dict)
    train_mse: float | None = None  # from tree growth; None for a loaded model

    @property
    def n_pieces(self) -> int:
        return self.pieces.radius.size

    def project(self, x: np.ndarray) -> np.ndarray:
        """Project a single D-vector onto the estimated manifold."""
        return self.project_many(np.asarray(x, dtype=float).ravel())[0]

    def project_many(self, X: np.ndarray) -> np.ndarray:
        """The rows of X projected onto their leaves' pieces; a row at its
        sphere's center goes onto the piece's d-plane."""
        X = self._rows(X)
        return self._project_routed(X, leaf_index(X, self.tree))[0]

    def _rows(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.D:
            raise DimensionError(f"point dimension {X.shape[1]} != model dimension {self.D}")
        return X

    def _project_routed(self, X: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, int]:
        """Projections of the rows of X, row i onto piece ``at[i]`` of the
        table as a 1 x D stack, so its image does not depend on the batch
        it is in, and the number of rows that lie at their sphere's center,
        whose images ``project_pieces`` puts on the piece's d-plane."""
        P, centre_rows = np.empty_like(X), 0
        step = max(1, PROJECT_BLOCK // (self.D * (self.pieces.frame.shape[2] + 1)))
        for lo in range(0, X.shape[0], step):
            sub = slice(lo, lo + step)
            images, regular = project_pieces(X[sub, None], self.pieces.take(at[sub]))
            P[sub] = images[:, 0]
            centre_rows += int(regular.size - np.count_nonzero(regular))
        return P, centre_rows

    def _cell_ids(self) -> list[int]:
        """The cell id of each piece of the table, the leaves depth-first."""
        return [leaf.cell_id for leaf in iter_leaves(self.tree)]

    def mse(self, X: np.ndarray) -> tuple[float, dict[int, float]]:
        """Overall and per-cell mean squared projection residual.

        Works identically for training and held-out data; cells that
        receive no rows are omitted from the per-cell map.
        """
        return self.project_mse(X)[1:3]

    def project_mse(self, X: np.ndarray) -> tuple[np.ndarray, float, dict[int, float], int]:
        """``project_many(X)`` and ``mse(X)`` from one route-and-project
        pass, and the number of rows at their sphere's center."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] == 0:
            raise ParameterError("cannot compute MSE of an empty dataset")
        X = self._rows(X)
        at = leaf_index(X, self.tree)
        (P, centre_rows), ids = self._project_routed(X, at), self._cell_ids()
        R = X - P
        sq = row_dots(R, R)
        # each cell's rows in turn, in increasing order; NumPy's stable sort
        # of 8- and 16-bit keys is a radix sort
        order = np.argsort(at.astype(np.min_scalar_type(len(ids) - 1)), kind="stable")
        by_cell, at = sq.take(order), at.take(order)
        bounds = np.flatnonzero(np.diff(at, prepend=-1, append=-1))
        # np.mean of each cell's slice, the same sum and division without its per-call cost
        per_cell = sorted((ids[j], float(np.add.reduce(by_cell[lo:hi]) / (hi - lo))) for j, lo, hi
                          in zip(at[bounds[:-1]].tolist(), bounds.tolist(), bounds[1:].tolist()))
        return P, float(np.mean(sq)), dict(per_cell), centre_rows

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
    per cell. ``n_min`` defaults to max(10, d+3). ``train_mse`` is the mean
    of the growth fits' residuals of the rows X: ``mse(X)[0]`` up to rounding.
    Raises DimensionError for d above the rows' dimension D."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if d > X.shape[1]:
        raise DimensionError(f"d={d} exceeds ambient dimension {X.shape[1]}")
    if n_min is None:
        n_min = max(10, d + 3)
    tree, pieces, residual_sq = build_tree(X, d, eps, n_min, fitter)
    prov = dict(provenance or {})
    prov.setdefault("eps", eps)
    prov.setdefault("n_min", n_min)
    return SphereletModel(tree=tree, pieces=pieces, d=d, D=X.shape[1], fitter=fitter, provenance=prov,
                          train_mse=float(np.mean(residual_sq)))


# -- serialization ----------------------------------------------------------


def _tree_to_obj(tree: PartitionNode) -> dict:
    """The tree as nested split and leaf objects, the split vectors from
    one ``tolist`` of each stacked array. A leaf is its id alone: the
    training rows it was grown on are not written."""
    mu, direction, child, leaves, root = _split_arrays(tree)
    mu, direction, child = mu.tolist(), direction.tolist(), child.tolist()
    splits, leaf_objs = [None] * len(mu), [{"leaf": leaf.cell_id} for leaf in leaves]

    def node(code: int) -> dict:
        return splits[code] if code >= 0 else leaf_objs[~code]

    for c in reversed(range(len(mu))):  # a split's children come after it
        splits[c] = {"split": {"mu": mu[c], "direction": direction[c]},
                     "left": node(child[2 * c]), "right": node(child[2 * c + 1])}
    return node(root)


def _pieces_to_obj(pieces: PieceTable, ids: list[int]) -> list[dict]:
    """The piece objects of a table whose row j is the piece of leaf
    ``ids[j]``, in increasing id order; the vectors of all pieces of one
    kind and frame width from one ``tolist`` of each stacked array."""
    objs = [None] * len(ids)
    for sphere, width, rows in pieces.groups():
        mu, frame = pieces.mu[rows].tolist(), pieces.frame[rows, :, :width].tolist()
        none = [None] * rows.size
        center = pieces.center[rows].tolist() if sphere else none
        radius = pieces.radius[rows].tolist() if sphere else none
        for j, m, F, c, r in zip(rows.tolist(), mu, frame, center, radius):
            objs[j] = {"id": ids[j], "kind": "sphere" if sphere else "plane",
                       "mu": m, "frame": F, "center": c, "radius": r}
    return sorted(objs, key=lambda o: o["id"])


def save(model: SphereletModel, path: str) -> None:
    """Write the model file; raises NonFiniteError, and writes nothing,
    when a number in the model is not finite, naming the first such piece
    as ``load`` would, else the first such split."""
    obj = {
        "version": FORMAT_VERSION,
        "d": model.d,
        "D": model.D,
        "fitter": model.fitter,
        "provenance": model.provenance,
        "tree": _tree_to_obj(model.tree),
        "leaves": _pieces_to_obj(model.pieces, model._cell_ids()),
    }
    try:
        text = json.dumps(obj, allow_nan=False)  # json.dump would run the pure-Python encoder
    except ValueError:
        raise NonFiniteError(f"{_non_finite_entry(obj)} is not finite; {path} not written") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _non_finite_entry(obj: dict) -> str:
    """The name of the first entry of a model object that holds a NaN or
    an infinity: a piece in file order, else a split in depth-first
    order, else the provenance."""
    nodes, paths = _tree_nodes(obj["tree"])
    entries = [*((_piece_name(i, piece), piece) for i, piece in enumerate(obj["leaves"])),
               *((path, node["split"]) for node, path in zip(nodes, paths) if "split" in node)]
    for name, entry in entries:
        try:
            json.dumps(entry, allow_nan=False)
        except ValueError:
            return name
    return "provenance"


# what a malformed value of a parsed model file raises when it is read
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, OverflowError)


def _named(check, entries: list, name_of):
    """``check(entries)``, one stacked check of a list of model-file
    entries. When it fails, each entry is checked alone in list order and
    ParseError names the first that fails, entry i as ``name_of(i)``, with
    the reason."""
    try:
        return check(entries)
    except _MALFORMED as exc:
        failure = exc
    for i, entry in enumerate(entries):
        try:
            check([entry])
        except _MALFORMED as exc:
            raise ParseError(f"{name_of(i)}: {_reason(exc)}") from exc
    raise ParseError(_reason(failure)) from failure


def _reason(exc: Exception) -> str:
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)


def _numbers(values: list, name: str) -> np.ndarray:
    """Nested lists of JSON numbers as one float array. NumPy reads the
    string "0.5" and true as numbers too, so each entry's type is read
    where one can hide: where the lists are not all numbers (a string
    turns them all into text) or where an entry is 0 or 1."""
    a = np.array(values)
    if a.dtype.kind in "fiu" and not ((a == 0) | (a == 1)).any():
        return a.astype(float, copy=False)
    a = np.array(values, dtype=float)  # NumPy's error for a word or a ragged list
    for v in np.array(values, dtype=object).flat:
        if type(v) is not float and type(v) is not int:  # a bool is an int
            raise ValueError(f"{name}: {v!r} is not a JSON number")
    return a


def _finite(values: list, shape: tuple[int, int], name: str) -> np.ndarray:
    """The vectors ``values`` stacked into a finite array of this shape;
    the error shows the first vector, the one a one-entry check holds."""
    a = _numbers(values, name) if values else np.empty(shape)
    if a.shape != shape or not np.isfinite(a).all():
        raise ValueError(f"{name}: expected {shape[1]} finite numbers, got {values[0]!r}")
    return a


def _frame_errors(F: np.ndarray) -> np.ndarray:
    """Frobenius |F'F - I| of each frame of a stack (m, D, w)."""
    return np.linalg.norm(np.swapaxes(F, 1, 2) @ F - np.eye(F.shape[2]), axis=(1, 2))


def _width(frame) -> int:
    """The length of a frame's first row; 0 when it has none."""
    try:
        return len(frame[0])
    except _MALFORMED:
        return 0


def _check_pieces(objs: list, d: int, D: int) -> tuple[list[int], PieceTable]:
    """The id of each piece object and the table of their pieces in that
    order, checked together for all pieces of one kind and frame width."""
    ids = [_integer(o["id"], "piece id") for o in objs]
    for o in objs:
        if o["kind"] not in ("plane", "sphere"):
            raise ValueError(f"unknown piece kind {o['kind']!r}")
    m, W = len(objs), min(d + 1, D)
    pieces = PieceTable(sphere=np.array([o["kind"] == "sphere" for o in objs], dtype=bool),
                        width=np.array([_width(o["frame"]) for o in objs], dtype=np.intp),
                        mu=np.empty((m, D)), frame=np.zeros((m, D, W)), center=np.empty((m, D)),
                        radius=np.full(m, math.inf))
    for sphere, width, members in pieces.groups():
        group = [objs[i] for i in members]
        mu = _finite([o["mu"] for o in group], (members.size, D), "mu")
        F = _numbers([o["frame"] for o in group], "frame")
        # what fit writes: a sphere's frame or a d-wide plane; files of
        # earlier versions also hold (d+1)-wide planes of degenerate spheres
        widths = [d + 1] if sphere else sorted({min(d, D), min(d + 1, D)})
        if F.shape != (members.size, D, width) or width not in widths or not np.isfinite(F).all():
            want = (f"{D} x {d + 1} matrix" if sphere else
                    f"{D}-row matrix, {' or '.join(map(str, widths))} columns wide")
            raise ValueError(f"frame must be a finite {want}, got shape {F.shape[1:]}")
        ortho = _frame_errors(F).max()
        if ortho > FRAME_TOL:
            raise ValueError(f"frame columns are not orthonormal: |F'F - I| = {ortho:.3g}")
        pieces.mu[members], pieces.frame[members, :, :width] = mu, F
        pieces.center[members] = mu
        if sphere:
            radius = _numbers([o["radius"] for o in group], "radius")
            if radius.shape != (members.size,):
                raise ValueError(f"sphere radius must be a number, got {group[0]['radius']!r}")
            bad = ~(np.isfinite(radius) & (radius > 0.0))
            if bad.any():
                raise ValueError(f"sphere radius {float(radius[bad][0])!r} is not finite and positive")
            pieces.center[members] = _finite([o["center"] for o in group], (members.size, D), "center")
            pieces.radius[members] = radius
    return ids, pieces


def _integer(value, name: str) -> int:
    """A model file's integer field; a float or a bool is not a JSON integer."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _members(values) -> np.ndarray:
    """The training rows a leaf of an earlier file lists: JSON integers >= 0."""
    if not isinstance(values, list):
        raise ValueError(f"members must be a list, got {values!r}")
    for v in values:
        if type(v) is not int or v < 0:
            raise ValueError(f"members must be integers >= 0, got {v!r}")
    return np.array(values, dtype=np.intp)


def _piece_name(i: int, obj) -> str:
    """``leaves[i] (leaf <id>)``, without the id when it is not an integer."""
    cid = obj.get("id") if isinstance(obj, dict) else None
    return f"leaves[{i}] (leaf {cid})" if type(cid) is int else f"leaves[{i}]"


def _tree_nodes(tree) -> tuple[list, list[str]]:
    """The nodes of a tree object in depth-first order and the path of
    each, e.g. ``tree.right.left``. A node is walked into only when it is
    a split object; ``_check_nodes`` checks them all."""
    nodes, paths, stack = [], [], [(tree, "tree")]
    while stack:
        node, path = stack.pop()
        nodes.append(node)
        paths.append(path)
        if isinstance(node, dict) and "leaf" not in node:
            stack += [(node[side], f"{path}.{side}") for side in ("right", "left") if side in node]
    return nodes, paths


def _check_nodes(nodes: list, D: int) -> tuple[list[SplitRule], list[tuple[int, np.ndarray]]]:
    """The split rules and the (id, members) of the leaves among tree node
    objects, each in the nodes' order; the splits are checked together."""
    if not all(isinstance(o, dict) for o in nodes):
        raise TypeError("expected an object")
    splits = [o for o in nodes if "leaf" not in o]
    mu = _finite([o["split"]["mu"] for o in splits], (len(splits), D), "split.mu")
    direction = _finite([o["split"]["direction"] for o in splits], (len(splits), D),
                        "split.direction")
    for o in splits:
        if "left" not in o or "right" not in o:
            raise KeyError("left" if "left" not in o else "right")
    leaves = [(_integer(o["leaf"], "leaf id"), _members(o.get("members", []))) for o in nodes if "leaf" in o]
    return [SplitRule(mu=m, direction=v) for m, v in zip(mu, direction)], leaves


def load(path: str) -> SphereletModel:
    """Load a model file; raises ParseError / VersionError on bad input,
    including a version, d, D, leaf id or piece id that is not an integer
    (0 <= d <= D, D >= 1), a fitter other than spca or pca, a provenance that
    is not an object, a piece or split whose shapes do not fit d and D, a
    string or a bool where a number belongs, a non-finite number or one
    out of float range, leaf members that are not integers >= 0 (files of
    earlier versions list them), a frame whose columns are
    not orthonormal within ``FRAME_TOL``, a sphere radius that is not
    finite and positive, leaf ids that do not pair each tree leaf with
    exactly one piece, and nesting too deep to parse. A bad piece is named
    as the first in file order, a bad tree node as the first in
    depth-first order."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be an object")
    version = obj.get("version")
    if type(version) is not int or version != FORMAT_VERSION:  # true and 1.0 equal 1
        raise VersionError(f"{path}: unsupported model version {version!r}")
    for key in ("d", "D", "fitter", "tree", "leaves"):
        if key not in obj:
            raise ParseError(f"{path}: missing field {key!r}")
    if not isinstance(obj["leaves"], list):
        raise ParseError(f"{path}: leaves must be a list")
    for key, least in (("d", 0), ("D", 1)):
        if type(obj[key]) is not int or obj[key] < least:  # a bool is not a JSON integer
            raise ParseError(f"{path}: {key} must be an integer >= {least}, got {obj[key]!r}")
    if obj["fitter"] not in ("spca", "pca"):
        raise ParseError(f"{path}: fitter must be 'spca' or 'pca', got {obj['fitter']!r}")
    provenance = obj.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ParseError(f"{path}: provenance must be an object, got {provenance!r}")
    d, D = obj["d"], obj["D"]
    if d > D:  # fit never writes such a file
        raise ParseError(f"{path}: d={d} exceeds D={D}")
    objs = obj["leaves"]
    ids, pieces = _named(lambda entries: _check_pieces(entries, d, D), objs,
                         lambda i: _piece_name(i, objs[i]))
    nodes, paths = _tree_nodes(obj["tree"])
    rules, leaves = _named(lambda entries: _check_nodes(entries, D), nodes, paths.__getitem__)
    leaf_ids = sorted(cid for cid, _ in leaves)
    if leaf_ids != sorted(ids):  # also catches an id used twice on either side
        raise ParseError(f"{path}: tree leaves {leaf_ids} do not match pieces {sorted(ids)}")
    row = {cid: i for i, cid in enumerate(ids)}  # the table is put in the leaves' depth-first order
    pieces, built = pieces.take([row[cid] for cid, _ in leaves]), []
    for node in reversed(nodes):  # children before parents, the right child first
        if "leaf" in node:
            cid, members = leaves.pop()
            built.append(Leaf(cell_id=cid, member_indices=members))
        else:
            left, right = built.pop(), built.pop()
            built.append(Internal(rule=rules.pop(), left=left, right=right))
    return SphereletModel(
        tree=built.pop(),
        pieces=pieces,
        d=d,
        D=D,
        fitter=obj["fitter"],
        provenance=provenance,
    )
