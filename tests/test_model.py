import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Hyperplane, leaf_pieces, project_piece, project_plane
from spherelets import model as model_mod
from spherelets import partition, spca
from spherelets.datasets import enneper, euler_spiral, sphere_sample
from spherelets.exceptions import (
    NonFiniteError,
    ParameterError,
    ParseError,
    SingularProjectionError,
    VersionError,
)
from spherelets.model import fit, load, save
from spherelets.partition import iter_leaves, route
from spherelets.spca import Spherelet, project_sphere


def _circle_model(n=120, r=1.0, seed=0):
    X = sphere_sample(n, 1, 2, 0.0, r, seed=seed)
    return fit(X, 1, 1e-6, fitter="spca"), X


def test_fit_circle_single_piece():
    model, X = _circle_model()
    assert model.n_pieces == 1
    piece = leaf_pieces(model)[0]
    assert isinstance(piece, Spherelet)
    assert np.allclose(piece.center, [0.0, 0.0], atol=1e-9)
    assert np.isclose(piece.radius, 1.0, atol=1e-9)
    overall, _ = model.mse(X)
    assert overall < 1e-12


def test_fit_pca_on_line_zero_mse():
    t = np.linspace(0, 1, 80)
    X = np.column_stack([t, 3.0 * t])
    model = fit(X, 1, 1e-6, fitter="pca")
    assert model.n_pieces == 1
    overall, _ = model.mse(X)
    assert overall < 1e-20


def test_project_unit_circle():
    model, _ = _circle_model()
    assert np.allclose(model.project(np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-9)


def test_project_idempotent_within_cell():
    model, X = _circle_model()
    rng = np.random.default_rng(1)
    for _ in range(25):
        x = rng.uniform(-2, 2, 2)
        p = model.project(x)
        if route(p, model.tree) == route(x, model.tree):
            assert np.allclose(model.project(p), p, atol=1e-9)


def test_project_matches_route_plus_piece_projection():
    X = euler_spiral(900, 2.0, seed=1).points
    model = fit(X, 1, 1e-7, fitter="spca")
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.2, 1.2, size=(100, 2))
    for x in pts:
        piece = leaf_pieces(model)[route(x, model.tree)]
        expect = (
            project_sphere(x, piece)
            if isinstance(piece, Spherelet)
            else project_plane(x, piece)
        )
        assert np.allclose(model.project(x), expect, atol=0.0)


def test_mse_single_point_distance():
    model, _ = _circle_model()
    overall, per_cell = model.mse(np.array([[3.0, 0.0]]))
    assert np.isclose(overall, 4.0, atol=1e-9)  # distance 2, squared
    assert set(per_cell) == {0}


def test_mse_weighted_mean_identity():
    X = euler_spiral(800, 2.0, seed=3).points
    model = fit(X, 1, 1e-7, fitter="spca")
    rng = np.random.default_rng(4)
    probe = X + rng.normal(0, 0.01, X.shape)
    overall, per_cell = model.mse(probe)
    cells = np.array([route(x, model.tree) for x in probe])
    recombined = sum(per_cell[c] * np.sum(cells == c) for c in per_cell) / len(probe)
    assert np.isclose(overall, recombined, rtol=1e-12)


def test_mse_empty_input():
    model, _ = _circle_model()
    with pytest.raises(ParameterError):
        model.mse(np.zeros((0, 2)))


def test_save_load_round_trip(tmp_path):
    X = euler_spiral(700, 2.0, seed=5).points
    model = fit(X, 1, 1e-7, fitter="spca")
    path = tmp_path / "model.json"
    save(model, str(path))
    clone = load(str(path))
    assert clone.n_pieces == model.n_pieces
    assert (clone.d, clone.D, clone.fitter) == (model.d, model.D, model.fitter)
    rng = np.random.default_rng(6)
    probes = rng.uniform(-0.3, 1.3, size=(100, 2))
    for x in probes:
        assert route(x, clone.tree) == route(x, model.tree)
        assert np.max(np.abs(clone.project(x) - model.project(x))) <= 1e-12


def test_load_truncated_file(tmp_path):
    X = sphere_sample(60, 1, 2, 0.0, 1.0, seed=7)
    model = fit(X, 1, 1e-6)
    path = tmp_path / "model.json"
    save(model, str(path))
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ParseError):
        load(str(path))


def test_load_version_mismatch(tmp_path):
    X = sphere_sample(60, 1, 2, 0.0, 1.0, seed=8)
    model = fit(X, 1, 1e-6)
    path = tmp_path / "model.json"
    save(model, str(path))
    obj = json.loads(path.read_text())
    obj["version"] = 99
    path.write_text(json.dumps(obj))
    with pytest.raises(VersionError):
        load(str(path))


def test_load_handwritten_single_leaf(tmp_path):
    # one-leaf unit circle written by hand; projection follows the
    # closest-point formula c + r (x-c)/|x-c| in the plane
    obj = {
        "version": 1,
        "d": 1,
        "D": 2,
        "fitter": "spca",
        "tree": {"leaf": 0, "members": []},
        "leaves": [
            {
                "id": 0,
                "kind": "sphere",
                "mu": [0.0, 0.0],
                "frame": [[1.0, 0.0], [0.0, 1.0]],
                "center": [0.0, 0.0],
                "radius": 1.0,
            }
        ],
    }
    path = tmp_path / "hand.json"
    path.write_text(json.dumps(obj))
    model = load(str(path))
    p = model.project(np.array([3.0, 4.0]))
    assert np.allclose(p, [0.6, 0.8], atol=1e-15)


def test_load_rejects_leaf_piece_mismatch(tmp_path):
    obj = {
        "version": 1,
        "d": 1,
        "D": 2,
        "fitter": "spca",
        "tree": {"leaf": 0, "members": []},
        "leaves": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError):
        load(str(path))


def test_serialized_numbers_survive_exactly(tmp_path):
    model, _ = _circle_model(seed=9)
    path = tmp_path / "model.json"
    save(model, str(path))
    clone = load(str(path))
    a: Spherelet = leaf_pieces(model)[0]
    b: Spherelet = leaf_pieces(clone)[0]
    assert np.array_equal(a.frame, b.frame)
    assert np.array_equal(a.center, b.center)
    assert a.radius == b.radius


@functools.cache
def _property_models():
    spiral = euler_spiral(600, 2.0, seed=11).points
    surface = enneper(600, 1.0, seed=12)
    return [fit(spiral, 1, 1e-7, fitter="spca"), fit(spiral, 1, 1e-7, fitter="pca"),
            fit(surface, 2, 1e-5, fitter="spca")]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_project_many_rows_equal_project_property(data):
    model = data.draw(st.sampled_from(_property_models()), label="model")
    n = data.draw(st.integers(1, 25), label="n")
    rows = st.lists(st.floats(-3, 3, allow_subnormal=False), min_size=model.D, max_size=model.D)
    X = np.array(data.draw(st.lists(rows, min_size=n, max_size=n), label="X"))
    try:
        P = model.project_many(X)
    except SingularProjectionError as exc:
        with pytest.raises(SingularProjectionError):
            model.project(X[exc.row])
        return
    assert P.shape == X.shape
    pieces = leaf_pieces(model)
    for i, x in enumerate(X):
        scale = max(1.0, float(np.max(np.abs(x))))
        assert np.max(np.abs(P[i] - model.project(x))) <= 1e-12 * scale
        # the one-point reference: scalar route, then that leaf's piece
        assert np.max(np.abs(P[i] - project_piece(pieces[route(x, model.tree)], x))) <= 1e-12 * scale


def _depth(node):
    """Levels of a tree: 1 for a leaf."""
    if isinstance(node, partition.Leaf):
        return 1
    return 1 + max(_depth(node.left), _depth(node.right))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_fit_train_mse_is_the_routed_mse_property(data):
    # fit reads its train MSE off the growth fits' closed-form residuals;
    # routing the training rows and projecting them gives the same mean,
    # up to the rounding of each image, about (D + 2) units of max|x| in
    # each coordinate of x - P
    D = data.draw(st.integers(2, 5), label="D")
    d = data.draw(st.integers(0, D - 1), label="d")
    fitter = data.draw(st.sampled_from(["spca", "pca"]), label="fitter")
    eps = 10.0 ** data.draw(st.floats(-12, -2), label="log_eps")
    n = data.draw(st.integers(max(10, d + 3), 300), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans(), label="curved"):  # near a (D-1)-sphere, so spheres fit closely
        noise = 10.0 ** data.draw(st.floats(-8, -1), label="log_noise")
        X = sphere_sample(n, D - 1, D, rng.uniform(-10, 10, D), rng.uniform(0.1, 10), seed=seed % 2**31)
        X += noise * rng.normal(size=X.shape)
    else:
        X = rng.uniform(-10, 10, D) + rng.uniform(0.01, 10) * rng.normal(size=(n, D))
    model = fit(X, d, eps, fitter=fitter)
    routed = model.mse(X)[0]
    slack = (D + 2) * np.finfo(float).eps * np.abs(X).max() * np.sqrt(routed)
    assert abs(model.train_mse - routed) <= 1e-12 * routed + slack


@pytest.mark.parametrize("fitter", ["spca", "pca"])
def test_fit_calls_fit_pieces_once_per_level(monkeypatch, fitter):
    calls = {"fit_pieces": 0, "_centred_pca": 0}
    fit_pieces, centred_pca = partition.fit_pieces, spca._centred_pca

    def counting_fit_pieces(X, starts, d, f):
        calls["fit_pieces"] += 1
        return fit_pieces(X, starts, d, f)

    def counting_centred_pca(X, starts, sizes):
        calls["_centred_pca"] += 1
        return centred_pca(X, starts, sizes)

    def refuse(*args):
        raise AssertionError("fit projected a cell onto its piece for its MSE")

    monkeypatch.setattr(partition, "fit_pieces", counting_fit_pieces)
    monkeypatch.setattr(spca, "_centred_pca", counting_centred_pca)
    X = euler_spiral(1500, 2.0, seed=13).points
    with monkeypatch.context() as mp:
        # every cell's MSE comes from the level fit's own per-row residuals
        for name in ("project_sphere", "_plane_images", "_sphere_images"):
            mp.setattr(spca, name, refuse)
        model = fit(X, 1, 1e-8, fitter=fitter)
    depth = _depth(model.tree)
    assert model.n_pieces > 5
    assert depth > 3
    assert calls["fit_pieces"] == depth
    assert calls["_centred_pca"] == depth  # one PCA of all a level's cells, whatever their pieces
    # each leaf's row of the table is the piece of its own cell, fitted on
    # its members
    for j, leaf in enumerate(iter_leaves(model.tree)):
        assert leaf.cell_id == j
        expect = spca.fit_pieces(X[leaf.member_indices], [0], 1, fitter).pieces
        for a, b in zip(model.pieces.take([j]), expect):
            assert np.array_equal(a, b)


def _two_sphere_model():
    # x > 0 goes left to the circle around (3, 0), the rest to the one
    # around (-3, 0)
    def sphere(cid, cx):
        return {"id": cid, "kind": "sphere", "mu": [cx, 0.0], "frame": [[1.0, 0.0], [0.0, 1.0]],
                "center": [cx, 0.0], "radius": 1.0}
    return {
        "version": 1, "d": 1, "D": 2, "fitter": "spca",
        "tree": {"split": {"mu": [0.0, 0.0], "direction": [1.0, 0.0]},
                 "left": {"leaf": 0, "members": []}, "right": {"leaf": 1, "members": []}},
        "leaves": [sphere(0, 3.0), sphere(1, -3.0)],
    }


def test_singular_projection_names_row_of_batch(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps(_two_sphere_model()))
    model = load(str(path))
    X = np.array([[4.0, 0.0], [3.0, 2.0], [5.0, 1.0], [2.0, 0.5], [3.5, -1.0],
                  [-3.0, 0.0], [-1.0, 0.0]])
    assert model.project_many(np.delete(X, 5, axis=0)).shape == (6, 2)
    with pytest.raises(SingularProjectionError, match=r"^row 5 projects onto the sphere center") as exc:
        model.project_many(X)
    assert exc.value.row == 5


def _hand_model(**piece):
    obj = {
        "version": 1, "d": 1, "D": 2, "fitter": "spca",
        "tree": {"leaf": 7, "members": []},
        "leaves": [{"id": 7, "kind": "sphere", "mu": [0.0, 0.0], "frame": [[1.0, 0.0], [0.0, 1.0]],
                    "center": [0.0, 0.0], "radius": 1.0}],
    }
    obj["leaves"][0].update(piece)
    return obj


@pytest.mark.parametrize("piece,message", [
    ({"radius": -1.0}, "radius -1.0 is not finite and positive"),
    ({"radius": 0.0}, "radius 0.0 is not finite and positive"),
    ({"radius": float("inf")}, "radius inf is not finite and positive"),
    ({"mu": [0.0, 0.0, 0.0]}, "mu: expected 2 finite numbers"),
    ({"center": [0.0]}, "center: expected 2 finite numbers"),
    ({"center": [float("nan"), 0.0]}, "center: expected 2 finite numbers"),
    ({"frame": [[1.0, 0.0]]}, "frame must be a finite 2 x 2 matrix"),
    ({"frame": [[1.0], [0.0]]}, "frame must be a finite 2 x 2 matrix"),
    ({"kind": "plane", "frame": [[1.0, 0.0, 0.0]]}, "frame must be a finite 2-row matrix"),
    ({"kind": "cone"}, "unknown piece kind 'cone'"),
    ({"frame": [[1.0, 0.0], [0.0, 1.0 + 1e-8]]}, "frame columns are not orthonormal"),
    ({"kind": "plane", "frame": [[0.6], [0.8 + 1e-6]]}, "frame columns are not orthonormal"),
    ({"kind": "plane", "frame": [[1.0, 1.0], [0.0, 1.0]]}, "frame columns are not orthonormal"),
])
def test_load_rejects_bad_piece(tmp_path, piece, message):
    # a negative radius used to load, and projected points by reflection
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_hand_model(**piece)))
    with pytest.raises(ParseError, match=r"leaves\[0\] \(leaf 7\).*" + message.replace("[", r"\[")):
        load(str(path))


@pytest.mark.parametrize("where", ["tree", "leaves"])
def test_load_rejects_duplicate_leaf_ids(tmp_path, where):
    # two tree leaves sharing id 0 used to load, and the right half of the
    # plane was projected onto the left leaf's circle
    obj = _two_sphere_model()
    if where == "tree":
        obj["tree"]["right"]["leaf"] = 0
        obj["leaves"] = obj["leaves"][:1]
    else:
        obj["leaves"].append(dict(obj["leaves"][1]))
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match="do not match pieces"):
        load(str(path))


def test_load_rejects_bad_split(tmp_path):
    obj = _two_sphere_model()
    obj["tree"]["split"]["direction"] = [1.0, 0.0, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=r"^tree: split\.direction: expected 2 finite numbers"):
        load(str(path))


def _set_entry(obj, where, field, index, value):
    """Set one number of a two-sphere model, in its split or in leaves[1]
    (a frame's in its second row), and return the number it replaced."""
    entry = obj["tree"]["split"] if where == "split" else obj["leaves"][1]
    if index is None:
        holder, key = entry, field
    else:
        holder, key = (entry[field][index], 1) if field == "frame" else (entry[field], index)
    old, holder[key] = holder[key], value
    return old


@pytest.mark.parametrize("where,field,index", [
    ("piece", "mu", 0), ("piece", "frame", 1), ("piece", "center", 1), ("piece", "radius", None),
    ("split", "mu", 1), ("split", "direction", 0),
])
@pytest.mark.parametrize("value", ["0.47", "1", True, False])
def test_load_rejects_strings_and_bools_for_numbers(tmp_path, where, field, index, value):
    # NumPy read "0.47" as 0.47 and true as 1.0, so such files used to load
    obj = _two_sphere_model()
    number = _set_entry(obj, where, field, index, value)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    name = r"tree: split\." if where == "split" else r"leaves\[1\] \(leaf 1\): "
    with pytest.raises(ParseError, match=f"^{name}{field}: {value!r} is not a JSON number$"):
        load(str(path))
    _set_entry(obj, where, field, index, int(number))  # a JSON integer is a number
    path.write_text(json.dumps(obj))
    assert load(str(path)).pieces.radius.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("members", [[0.7, True, -3], [0, -3], [2.0], [True], [[0]], "0 1", None])
def test_load_rejects_leaf_members_that_are_not_row_indices(tmp_path, members):
    # files of earlier versions list each leaf's training rows; they were
    # cast to int, so [0.7, true, -3] loaded as [0, 1, -3]
    obj = _two_sphere_model()
    obj["tree"]["right"]["members"] = members
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=r"^tree\.right: members must be"):
        load(str(path))


def test_leaves_derived_from_tree():
    # the piece table has a row per leaf, the j-th leaf depth first's in
    # row j, and its frames are zero past each row's width
    for model in (_circle_model()[0], _mixed_model(), *_property_models()):
        pieces = model.pieces
        assert model.n_pieces == len(list(iter_leaves(model.tree))) == pieces.radius.size
        assert all(a.shape[0] == model.n_pieces for a in pieces)
        assert pieces.frame.shape[1:] == (model.D, min(model.d + 1, model.D))
        for j in range(model.n_pieces):
            assert not pieces.frame[j, :, pieces.width[j]:].any()
        assert np.array_equal(pieces.center[~pieces.sphere], pieces.mu[~pieces.sphere])
        assert np.all(pieces.radius[~pieces.sphere] == np.inf)
        assert np.all(np.isfinite(pieces.radius[pieces.sphere]))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_save_load_round_trip_exact_property(data, tmp_path_factory):
    # re-saving a loaded model writes the same bytes, and the clone
    # projects every probe bit for bit as the fitted model does
    kind = data.draw(st.sampled_from(["spiral", "enneper", "cloud"]), label="kind")
    seed = data.draw(st.integers(0, 10_000), label="seed")
    n = data.draw(st.integers(40, 300), label="n")
    if kind == "spiral":
        X, d = euler_spiral(n, 2.0, seed=seed).points, 1
    elif kind == "enneper":
        X, d = enneper(n, 1.0, seed=seed), 2
    else:
        X, d = np.random.default_rng(seed).normal(size=(n, 3)), 1
    fitter = data.draw(st.sampled_from(["spca", "pca"]), label="fitter")
    eps = data.draw(st.sampled_from([1e-2, 1e-4, 1e-7]), label="eps")
    model = fit(X, d, eps, fitter=fitter)
    folder = tmp_path_factory.mktemp("round_trip")
    first, second = folder / "a.json", folder / "b.json"
    save(model, str(first))
    clone = load(str(first))
    save(clone, str(second))
    assert first.read_bytes() == second.read_bytes()
    probes = np.vstack([X, np.random.default_rng(seed + 1).uniform(-3, 3, size=(50, X.shape[1]))])
    try:
        expect = model.project_many(probes)
    except SingularProjectionError:
        with pytest.raises(SingularProjectionError):
            clone.project_many(probes)
        return
    assert np.array_equal(clone.project_many(probes), expect)


def _per_leaf_projection(model, X):
    # the reference: each leaf's rows projected by its own piece, one 1 x D
    # stack at a time
    P, pieces, at = np.empty_like(X), leaf_pieces(model), partition.leaf_index(X, model.tree)
    for j, leaf in enumerate(iter_leaves(model.tree)):
        rows = np.flatnonzero(at == j)
        P[rows] = project_piece(pieces[leaf.cell_id], X[rows][:, None, :])[:, 0]
    return P


def _mixed_model():
    # one leaf of each projection kind in R^3: a sphere, the 1-wide d-plane
    # of a degenerate sphere fit, and planes of widths 1 and 2
    rng = np.random.default_rng(21)
    frame = np.stack([np.linalg.qr(rng.normal(size=(3, 2)))[0] for _ in range(4)])
    frame[1:3, :, 1] = 0.0
    mu = rng.normal(size=(4, 3))
    pieces = spca.PieceTable(sphere=np.array([True, False, False, False]), width=np.array([2, 1, 1, 2]),
                             mu=mu, frame=frame, center=np.vstack([mu[0] + 0.1, mu[1:]]),
                             radius=np.array([0.7, np.inf, np.inf, np.inf]))
    leaves = [partition.Leaf(cell_id=i, member_indices=np.arange(0)) for i in range(4)]

    def split(direction, left, right):
        rule = partition.SplitRule(mu=np.zeros(3), direction=np.array(direction, dtype=float))
        return partition.Internal(rule=rule, left=left, right=right)

    tree = split([1, 0, 0], split([0, 1, 0], leaves[0], leaves[1]),
                 split([0, 0, 1], leaves[2], leaves[3]))
    return model_mod.SphereletModel(tree=tree, pieces=pieces, d=1, D=3, fitter="spca")


@pytest.mark.parametrize("block", [model_mod.PROJECT_BLOCK, 1, 40])
def test_project_many_matches_each_leaf_projected_alone(monkeypatch, block):
    # the stacked kernels reproduce the per-leaf projections bit for bit,
    # whatever the row blocks
    monkeypatch.setattr(model_mod, "PROJECT_BLOCK", block)
    rng = np.random.default_rng(22)
    models = [*_property_models(), _mixed_model()]
    kinds = {(type(p), p.frame.shape[1]) for p in leaf_pieces(models[-1]).values()}
    assert len(kinds) == 3
    for model in models:
        X = rng.uniform(-2, 2, size=(500, model.D))
        assert np.array_equal(model.project_many(X), _per_leaf_projection(model, X))


def test_singular_projection_names_first_row_in_routing_order(tmp_path):
    # rows 1 and 4 hit the center of leaf 1, row 3 that of leaf 0, which
    # routing visits first
    path = tmp_path / "two.json"
    path.write_text(json.dumps(_two_sphere_model()))
    model = load(str(path))
    X = np.array([[4.0, 0.0], [-3.0, 0.0], [-4.0, 1.0], [3.0, 0.0], [-3.0, 0.0]])
    with pytest.raises(SingularProjectionError, match=r"^row 3 .* cell 0$") as exc:
        model.project_many(X)
    assert exc.value.row == 3
    with pytest.raises(SingularProjectionError, match=r"^row 1 .* cell 1$"):
        model.project_many(np.delete(X, 3, axis=0))


def test_save_load_save_writes_identical_bytes(tmp_path):
    model = fit(enneper(800, 1.0, seed=23), 2, 1e-5)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save(model, str(first))
    save(load(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().count("\n") == 1


def test_model_in_indent_one_layout_loads_and_projects_identically(tmp_path):
    # files written before the one-line layout hold the same JSON value
    # spread over one line per number
    model = fit(euler_spiral(700, 2.0, seed=24).points, 1, 1e-7)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    save(model, str(new))
    with open(old, "w", encoding="utf-8") as fh:
        json.dump(json.loads(new.read_text()), fh, indent=1)
        fh.write("\n")
    clone = load(str(old))
    probes = np.random.default_rng(25).uniform(-0.3, 1.3, size=(300, 2))
    assert np.array_equal(clone.project_many(probes), model.project_many(probes))
    save(clone, str(old))
    assert old.read_bytes() == new.read_bytes()


def _keys(text: str) -> set[str]:
    """Every object key anywhere in a JSON text."""
    keys = set()
    json.loads(text, object_pairs_hook=lambda pairs: keys.update(k for k, _ in pairs) or dict(pairs))
    return keys


def _with_members(obj: dict, model) -> dict:
    """A model file object as files written before the training members
    were dropped hold it: each leaf ``{"leaf": id, "members": rows}``."""
    members = {leaf.cell_id: leaf.member_indices.tolist() for leaf in iter_leaves(model.tree)}
    stack = [obj["tree"]]
    while stack:
        node = stack.pop()
        if "leaf" in node:
            node["members"] = members[node["leaf"]]
        else:
            stack += [node["left"], node["right"]]
    return obj


def test_model_file_with_members_loads_and_projects_identically(tmp_path):
    # the writer no longer keeps each leaf's training rows; files that do
    # still load, project and save as the model the writer saves now
    X = enneper(1500, 1.0, seed=26)
    model = fit(X, 2, 1e-5)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    save(model, str(new))
    assert "members" not in _keys(new.read_text())
    old.write_text(json.dumps(_with_members(json.loads(new.read_text()), model)) + "\n")
    assert "members" in _keys(old.read_text())
    with_members, without = load(str(old)), load(str(new))
    probes = enneper(2000, 1.2, seed=27) + 0.01
    P, overall, per_cell = model.project_mse(probes)
    for clone in (with_members, without):
        Q, clone_overall, clone_per_cell = clone.project_mse(probes)
        assert Q.tobytes() == P.tobytes() and (clone_overall, clone_per_cell) == (overall, per_cell)
    save(with_members, str(old))
    assert old.read_bytes() == new.read_bytes()


def test_a_loaded_model_has_no_train_mse_and_mse_routes_the_rows(tmp_path):
    # model files do not keep the training residuals; mse(X) routes the rows
    X = enneper(800, 1.0, seed=23)
    path = tmp_path / "m.json"
    model = fit(X, 2, 1e-5)
    save(model, str(path))
    loaded = load(str(path))
    assert loaded.train_mse is None and model.train_mse > 0.0
    assert loaded.mse(X)[0] > 0.0


def test_save_refuses_a_non_finite_model_and_writes_nothing(tmp_path):
    # the first non-finite piece in file order is named as load names it,
    # else the first non-finite split by its path
    model = fit(enneper(800, 1.0, seed=23), 2, 1e-5)
    ids = sorted(leaf_pieces(model))
    assert ids == list(range(model.n_pieces))  # leaf i is row i of the table
    path = tmp_path / "m.json"
    model.pieces.mu[5, 1] = np.inf
    model.pieces.mu[3, 0] = np.nan
    with pytest.raises(NonFiniteError, match=rf"^leaves\[3\] \(leaf {ids[3]}\) is not finite; "):
        save(model, str(path))
    model.pieces.mu[3, 0] = model.pieces.mu[5, 1] = 0.0
    model.tree.left.rule.direction[0] = np.nan
    with pytest.raises(NonFiniteError, match=r"^tree\.left is not finite; "):
        save(model, str(path))
    assert not path.exists()


def test_load_checks_valid_pieces_together(tmp_path):
    # the pieces of each kind and frame width are checked as one stack; an
    # invalid file is named by its first bad piece in file order
    obj = _two_sphere_model()
    obj["tree"]["right"] = {"split": {"mu": [0.0, 0.0], "direction": [0.0, 1.0]},
                            "left": {"leaf": 1, "members": []}, "right": {"leaf": 2, "members": []}}
    obj["leaves"][1]["kind"] = "plane"
    obj["leaves"].append({"id": 2, "kind": "plane", "mu": [0.0, 0.0], "frame": [[0.6], [0.8]]})
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    model = load(str(path))
    assert [type(p).__name__ for _, p in sorted(leaf_pieces(model).items())] == [
        "Spherelet", "Hyperplane", "Hyperplane"]
    obj["leaves"][2]["frame"] = [[0.6], [0.9]]
    obj["leaves"][1]["mu"] = [0.0, float("nan")]
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=r"^leaves\[1\] \(leaf 1\): mu: expected 2 finite"):
        load(str(path))
    # the sphere stack, which holds leaves[0], is checked before the plane
    # stack of leaves[2], but leaves[2] comes first in the file
    obj["leaves"][1]["mu"] = [0.0, 0.0]
    obj["tree"]["right"]["right"] = {"split": {"mu": [0.0, 0.0], "direction": [1.0, 0.0]},
                                     "left": {"leaf": 2, "members": []},
                                     "right": {"leaf": 3, "members": []}}
    obj["leaves"].append(dict(obj["leaves"][0], id=3, radius=-1.0))
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=r"^leaves\[2\] \(leaf 2\): frame columns are not orth"):
        load(str(path))


def test_leaf_members_are_the_rows_routing_gives():
    X = enneper(3000, 1.0, seed=6)
    model = fit(X, 2, 1e-5)
    at = partition.leaf_index(X, model.tree)
    for j, leaf in enumerate(iter_leaves(model.tree)):
        assert np.flatnonzero(at == j).tolist() == leaf.member_indices.tolist()
    _, per_cell = model.mse(X)
    assert len(per_cell) == model.n_pieces > 3


def test_load_checks_valid_splits_together(tmp_path):
    # all splits are checked as one stack; an invalid split is named by its
    # path, the first bad one in depth-first order
    def split(mu, direction, left, right):
        return {"split": {"mu": mu, "direction": direction}, "left": left, "right": right}

    def leaf(cid):
        return {"leaf": cid, "members": []}

    obj = _two_sphere_model()
    obj["tree"] = split([0.0, 0.0], [1.0, 0.0], split([2.0, 0.0], [0.0, -1.0], leaf(0), leaf(1)),
                        split([0.0, 0.0], [0.0, 1.0], leaf(2), leaf(3)))
    obj["leaves"] += [{"id": c, "kind": "plane", "mu": [0.0, 0.0], "frame": [[0.6], [0.8]]}
                      for c in (2, 3)]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    model = load(str(path))
    root = model.tree
    assert isinstance(root.left, partition.Internal) and isinstance(root.right, partition.Internal)
    assert [(n.rule.mu.tolist(), n.rule.direction.tolist()) for n in (root, root.left, root.right)] == [
        ([0.0, 0.0], [1.0, 0.0]), ([2.0, 0.0], [0.0, -1.0]), ([0.0, 0.0], [0.0, 1.0])]
    assert [route(np.array(x), root) for x in ([1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0])] == [
        0, 1, 2, 3]
    for bad, message in [
        ({"mu": [0.0, float("inf")], "direction": [0.0, 1.0]},
         r"^tree\.right: split\.mu: expected 2 finite numbers"),
        ({"mu": [0.0, 0.0], "direction": [0.0, 1.0, 0.0]},
         r"^tree\.right: split\.direction: expected 2 finite numbers"),
        ({"mu": "origin", "direction": [0.0, 1.0]}, r"^tree\.right: could not convert"),
        ({"direction": [0.0, 1.0]}, r"^tree\.right: missing field 'mu'"),
    ]:
        obj["tree"]["right"]["split"] = bad
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match=message):
            load(str(path))
    obj["tree"]["right"] = {"split": {"mu": [0.0, 0.0], "direction": [0.0, 1.0]}, "left": {"leaf": 1}}
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=r"^tree\.right: missing field 'right'"):
        load(str(path))
    obj["tree"]["right"]["right"] = [3]
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=r"^tree\.right\.right: expected an object"):
        load(str(path))
    # tree.left.left comes before tree.right depth first, after it breadth first
    obj["tree"]["right"] = split([0.0, 0.0], [0.0, 1.0, 0.0], leaf(2), leaf(3))
    obj["tree"]["left"]["left"] = split([0.0, float("nan")], [1.0, 0.0], leaf(0), leaf(4))
    obj["leaves"].append(dict(obj["leaves"][2], id=4))
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=r"^tree\.left\.left: split\.mu: expected 2 finite"):
        load(str(path))


def test_flat_cell_projects_onto_the_pca_plane(tmp_path):
    # a sphere fit to flat data degenerates; its piece is the pca plane of
    # the cell, not the (d+1)-wide reduction plane, which is all of R^D
    # here and used to map every row onto itself with an MSE of 0
    rng = np.random.default_rng(31)
    t = rng.uniform(-1, 1, 300)
    flat = np.column_stack([rng.uniform(-1, 1, (300, 2)), np.zeros(300)])
    line = np.column_stack([t, 0.5 * t + 0.25])
    for d, X, x, image in ((2, flat, [0.1, 0.2, 5.0], [0.1, 0.2, 0.0]),
                           (1, line, [0.3, 0.9], [0.5, 0.5])):
        spherical, planar = fit(X, d, 1e-6), fit(X, d, 1e-6, fitter="pca")
        T = np.vstack([x, X + rng.normal(size=X.shape)])
        assert spherical.n_pieces == planar.n_pieces == 1
        assert np.array_equal(spherical.project_many(T), planar.project_many(T))
        assert spherical.mse(T) == planar.mse(T)
        assert np.allclose(spherical.project(x), image, atol=1e-12)
    # a file written with the earlier (d+1)-wide plane loads and projects
    # as stored: onto all of R^2, every row onto itself
    path = tmp_path / "old.json"
    save(spherical, str(path))
    obj = json.loads(path.read_text())
    obj["leaves"][0]["frame"] = [[1.0, 0.0], [0.0, 1.0]]
    path.write_text(json.dumps(obj))
    assert np.allclose(load(str(path)).project_many(T), T, rtol=0.0, atol=1e-12)


def test_fit_leaves_no_reference_cycle():
    import gc

    X = enneper(3000, 1.0, seed=32)
    gc.collect()
    gc.disable()
    try:
        model = fit(X, 2, 1e-6)
        assert model.n_pieces > 3
        del model
        assert gc.collect() == 0
    finally:
        gc.enable()


DATA = Path(__file__).resolve().parent / "data"


def test_committed_model_file_resaves_to_its_own_bytes(tmp_path):
    # a quarter circle and a straight segment, fitted at d = 1: one sphere
    # leaf and the plane of a degenerate sphere fit. Writing involves no
    # BLAS, so the bytes are the same on every platform
    source, again = DATA / "arc_and_segment.json", tmp_path / "again.json"
    model = load(str(source))
    assert sorted(model.pieces.sphere.tolist()) == [False, True]
    assert sorted(model.pieces.width.tolist()) == [1, 2]
    save(model, str(again))
    assert again.read_bytes() == source.read_bytes()


def test_legacy_file_with_members_and_wide_plane_projects_as_hand_built_pieces(tmp_path):
    # written in the indented layout, with each leaf's training members, a
    # (d+1)-wide plane, and leaf ids that are not in depth-first order
    model = load(str(DATA / "legacy_members_wide_plane.json"))
    assert [leaf.cell_id for leaf in iter_leaves(model.tree)] == [4, 1, 2]
    sphere = Spherelet(frame=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
                       center=np.array([2.0, 0.0, 0.0]), radius=1.0, mu=np.array([2.0, 0.5, 0.0]))
    wide = Hyperplane(mu=np.array([-1.0, 1.0, 0.0]),
                           frame=np.array([[0.6, 0.0], [0.8, 0.0], [0.0, 1.0]]))
    narrow = Hyperplane(mu=np.array([-1.0, -1.0, 0.0]), frame=np.array([[0.0], [0.6], [0.8]]))

    def reference(x):  # the file's two splits, by hand
        return (4, sphere) if x[0] > 0.0 else (1, wide) if x[1] > 0.0 else (2, narrow)

    X = np.vstack([[[3.0, 1.0, 2.0], [-1.0, 2.0, 5.0], [2.5, -0.5, -1.0], [-2.0, -1.0, 1.0],
                    [-0.5, -3.0, 0.0]],
                   np.random.default_rng(28).uniform(-3, 3, size=(200, 3))])
    P, overall, per_cell = model.project_mse(X)
    cells = np.array([reference(x)[0] for x in X])
    for x, p in zip(X, P):
        assert np.array_equal(p, project_piece(reference(x)[1], x))
    sq = np.sum((X - P) ** 2, axis=1)
    assert np.isclose(overall, sq.mean(), rtol=1e-15)
    assert sorted(per_cell) == [1, 2, 4]
    for cid, mse in per_cell.items():
        assert np.isclose(mse, sq[cells == cid].mean(), rtol=1e-15)
    # the members number the first five rows, which route as they say
    at = partition.leaf_index(X[:5], model.tree)
    for j, leaf in enumerate(iter_leaves(model.tree)):
        assert np.flatnonzero(at == j).tolist() == sorted(leaf.member_indices.tolist())
    # the writer drops the members; the rewritten file projects the same
    path = tmp_path / "m.json"
    save(model, str(path))
    assert "members" not in _keys(path.read_text())
    assert load(str(path)).project_many(X).tobytes() == P.tobytes()


@pytest.mark.parametrize("fitter", ["spca", "pca"])
def test_fit_save_load_gives_the_same_piece_table(tmp_path, fitter):
    # the table load builds equals the one fit built, array for array and
    # bit for bit
    model = fit(enneper(1500, 1.0, seed=29), 2, 1e-5, fitter=fitter)
    path = tmp_path / "m.json"
    save(model, str(path))
    clone = load(str(path))
    assert clone.pieces._fields == model.pieces._fields
    for name, a, b in zip(model.pieces._fields, model.pieces, clone.pieces):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert model.n_pieces > 3
    if fitter == "pca":
        assert not model.pieces.sphere.any()
