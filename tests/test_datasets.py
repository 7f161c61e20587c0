import math
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spherelets.datasets import (
    CurveSample,
    _euler_curve,
    _euler_fixed,
    _parse_lines,
    curve_grid,
    distance_to_curve,
    enneper,
    enneper_map,
    euler_spiral,
    load_csv,
    load_iris,
    noisy_spiral,
    save_csv,
    sphere_sample,
)
from spherelets.exceptions import DimensionError, ParameterError, ParseError
from spherelets.numeric import seeded_gaussian
from spherelets.spca import fit_sphere


# -- euler spiral -------------------------------------------------------------


def test_euler_starts_at_origin():
    assert np.allclose(_euler_curve(np.array([0.0])), [[0.0, 0.0]], atol=1e-14)


def test_euler_unit_speed_chord_bound():
    sample = euler_spiral(200, 2.0, seed=0)
    order = np.argsort(sample.params)
    pts, s = sample.points[order], sample.params[order]
    chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert np.all(chords <= np.diff(s) + 1e-12)


def test_euler_gamma_one_frozen_value():
    # independent quadrature oracle, computed up front and frozen
    g1 = _euler_curve(np.array([1.0]))[0]
    assert np.allclose(g1, [0.904524237900272, 0.310268301723381], atol=1e-9)


def test_euler_matches_quad_oracle():
    for s in (0.3, 0.9, 1.7, 2.0):
        cx, _ = quad(lambda t: np.cos(t * t), 0.0, s, epsabs=1e-12)
        sx, _ = quad(lambda t: np.sin(t * t), 0.0, s, epsabs=1e-12)
        assert np.allclose(_euler_curve(np.array([s]))[0], [cx, sx], atol=1e-9)


def test_euler_quadrature_step_halving_stable():
    a = _euler_fixed(np.array([2.0]), 64)
    b = _euler_fixed(np.array([2.0]), 128)
    assert np.max(np.abs(a - b)) < 1e-9


def test_euler_spiral_seeded_and_validated():
    a = euler_spiral(50, 2.0, seed=1)
    b = euler_spiral(50, 2.0, seed=1)
    assert np.array_equal(a.points, b.points)
    with pytest.raises(ParameterError):
        euler_spiral(1, 2.0)
    with pytest.raises(ParameterError):
        euler_spiral(10, 3.0)


@pytest.mark.parametrize("draw", [
    lambda: euler_spiral(10, 2.0, seed=-1),
    lambda: noisy_spiral(10, 0.0, seed=-1),
    lambda: enneper(10, seed=-1),
    lambda: sphere_sample(10, 1, 2, seed=-1),
    lambda: seeded_gaussian(10, 2, 1.0, -1),
], ids=["euler", "spiral", "enneper", "sphere", "gaussian"])
def test_negative_seed_is_a_parameter_error(draw):
    # NumPy's generator raises ValueError; an unused seed passed silently
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        draw()


# -- noisy spiral -------------------------------------------------------------


def test_spiral_zero_noise_is_clean():
    sample = noisy_spiral(50, 0.0, seed=2)
    assert np.array_equal(sample.points, sample.clean)


def test_spiral_polar_radius():
    sample = noisy_spiral(100, 0.0, seed=3)
    assert np.allclose(np.linalg.norm(sample.clean, axis=1), 2 * sample.params, rtol=1e-12)


def test_spiral_noise_energy_chi_square():
    sd = 0.2
    sample = noisy_spiral(10_000, sd, seed=4)
    energy = np.mean(np.sum((sample.points - sample.clean) ** 2, axis=1))
    assert abs(energy - 2 * sd * sd) < 0.1 * 2 * sd * sd


# -- enneper ------------------------------------------------------------------


def test_enneper_map_values():
    assert np.allclose(enneper_map(0.0, 0.0), [[0.0, 0.0, 0.0]])
    assert np.allclose(enneper_map(1.0, 0.0), [[2.0 / 3.0, 0.0, 1.0]])


def test_enneper_mirror_symmetry():
    rng = np.random.default_rng(5)
    u, v = rng.uniform(-1, 1, 30), rng.uniform(-1, 1, 30)
    a = enneper_map(u, v)
    b = enneper_map(-u, v)
    assert np.allclose(b[:, 0], -a[:, 0], atol=1e-12)
    assert np.allclose(b[:, 1:], a[:, 1:], atol=1e-12)


def test_enneper_generator_stays_on_surface():
    pts = enneper(200, 1.5, seed=6)
    assert pts.shape == (200, 3)
    with pytest.raises(ParameterError):
        enneper(10, -1.0)


# -- sphere samples -----------------------------------------------------------


def test_sphere_sample_norms_and_mean():
    c = np.array([2.0, -1.0, 0.5])
    X = sphere_sample(4000, 2, 3, c, 1.5, seed=7)
    assert np.max(np.abs(np.linalg.norm(X - c, axis=1) - 1.5)) < 1e-12
    assert np.linalg.norm(X.mean(axis=0) - c) < 5 / np.sqrt(4000) * 1.5


def test_sphere_sample_fit_recovers():
    X = sphere_sample(60, 1, 4, 0.3, 2.5, seed=8)
    s, _ = fit_sphere(X, 1)
    assert np.isclose(s.radius, 2.5, rtol=1e-9)


def test_sphere_sample_validation():
    with pytest.raises(ParameterError):
        sphere_sample(10, 3, 3, 0.0, 1.0)
    with pytest.raises(ParameterError):
        sphere_sample(10, 1, 3, 0.0, -1.0)


# -- csv ----------------------------------------------------------------------


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(20, 4)) * 1e3
    path = tmp_path / "data.csv"
    save_csv(X, str(path))
    Y = load_csv(str(path))
    assert np.array_equal(X, Y)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_save_csv_bytes_match_per_value_format(data):
    # the writer writes exactly the bytes of formatting each value on its
    # own: -0.0, inf, nan, subnormals and extremes included
    import tempfile

    import spherelets.datasets as ds

    D = data.draw(st.integers(1, 4), label="D")
    rows = data.draw(st.lists(st.lists(st.floats(width=64), min_size=D, max_size=D),
                              max_size=12), label="rows")
    extremes = [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, np.inf, -np.inf, np.nan]
    X = np.vstack([np.array(rows, dtype=float).reshape(-1, D), np.resize(extremes, (7, D))])
    chunk = data.draw(st.integers(1, 5), label="chunk")
    header = [f"x{j}" for j in range(D)]
    expect = "# a\n" + ",".join(header) + "\n"
    expect += "".join(",".join(f"{v:.17g}" for v in r) + "\n" for r in X)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ds, "CSV_CHUNK_ROWS", chunk)
        path = f"{tmp}/x.csv"
        ds.save_csv(X, path, header=header, comments=["a"])
        with open(path, "rb") as fh:
            assert fh.read() == expect.encode()


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _nudged(v: float, ulps: int) -> float:
    """The double `ulps` steps above the positive double v."""
    return _double(struct.unpack("<Q", struct.pack("<d", v))[0] + ulps)


def _tie(j: int) -> st.SearchStrategy[float]:
    """Odd k times 2^-j where k * 5^j has 18 digits: 17 significant digits
    sit exactly halfway between two neighbours, so round-half-even decides."""
    lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
    return st.integers(lo, hi - 1).map(lambda k: math.ldexp(k | 1, -j))


_EDGE_VALUES = st.one_of(
    st.builds(_nudged, st.sampled_from([1e-4, 1e16] + [10.0**e for e in range(-5, 18)]),
              st.integers(-3, 3)),
    st.integers(2, 22).flatmap(_tie),
    st.integers(-(2**60), 2**60).map(float),
    st.sampled_from([0.0, -0.0]),
    st.integers(0, 2**64 - 1).map(_double),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_save_csv_fast_path_edges_match_per_value_format(data):
    # the exact integer path covers 1e-4 <= |v| < 1e16: its edges, powers of
    # ten where floor(log10) may be one off, ties at the 18th digit, and
    # rows that end on a block boundary
    import spherelets.datasets as ds

    D = data.draw(st.integers(1, 8), label="D")
    chunk = data.draw(st.integers(1, 4), label="chunk")
    n = chunk * data.draw(st.integers(1, 3), label="blocks")
    signs = data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n * D, max_size=n * D))
    values = data.draw(st.lists(_EDGE_VALUES, min_size=n * D, max_size=n * D), label="values")
    X = (np.array(values) * np.array(signs)).reshape(n, D)
    expect = "".join(",".join("%.17g" % v for v in row) + "\n" for row in X.tolist())
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ds, "CSV_CHUNK_ROWS", chunk)
        path = f"{tmp}/x.csv"
        ds.save_csv(X, path)
        with open(path, "rb") as fh:
            assert fh.read() == expect.encode()


def test_save_csv_no_rows_or_no_columns(tmp_path):
    # n = 0 rows: the header alone; D = 0 columns: one empty line per row
    path = tmp_path / "e.csv"
    save_csv(np.empty((0, 3)), str(path), header=["a", "b", "c"], comments=["c"])
    assert path.read_bytes() == b"# c\na,b,c\n"
    save_csv(np.empty((4, 0)), str(path), header=[])
    assert path.read_bytes() == b"\n" * 5
    save_csv(np.empty((4, 0)), str(path))
    assert path.read_bytes() == b"\n" * 4
    save_csv(np.empty((0, 0)), str(path))
    assert path.read_bytes() == b""


@pytest.mark.parametrize("kwargs", [
    {"comments": ["a\nb"]},
    {"comments": ["ok", "a\rb"]},
    {"header": ["a"]},
    {"header": ["a", "b", "c", "d"]},
    {"header": ["a,b", "c", "d"]},
    {"header": ["a", "b\n", "c"]},
    {"header": ["a", "b", "c\r"]},
], ids=["comment-lf", "comment-cr", "header-short", "header-long", "header-comma",
        "header-lf", "header-cr"])
def test_save_csv_rejects_header_or_comment_it_could_not_read_back(tmp_path, kwargs):
    # each used to write a file that load_csv rejects or misreads
    path = tmp_path / "x.csv"
    with pytest.raises(ParameterError):
        save_csv(np.ones((2, 3)), str(path), **kwargs)
    assert not path.exists()


def test_csv_header_detected(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    X = load_csv(str(path))
    assert X.shape == (2, 2)


def test_csv_byte_order_mark_is_not_a_header(tmp_path):
    # a mark read as text makes the first cell "\ufeff1", no float, and
    # the first data row would be taken for a header
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeff1,2\n3,4\n".encode("utf-8"))
    assert load_csv(str(path)).tobytes() == np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes()
    path.write_bytes("\ufeffa,b\n1,2\n3,4\n".encode("utf-8"))
    assert load_csv(str(path)).tobytes() == np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes()


def test_csv_comments_skipped(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# provenance\n1,2\n3,4\n")
    assert load_csv(str(path)).shape == (2, 2)


def test_csv_seals_format_shape(tmp_path):
    rng = np.random.default_rng(10)
    X = rng.normal(size=(1155, 4))
    path = tmp_path / "seals_like.csv"
    save_csv(X, str(path), header=["lat", "long", "delta_lat", "delta_long"])
    Y = load_csv(str(path))
    assert Y.shape == (1155, 4)


def test_csv_ragged_row_error(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ParseError, match="row 2"):
        load_csv(str(path))


def test_csv_non_numeric_cell_error(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError, match="column 2"):
        load_csv(str(path))


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "NaN"])
def test_csv_non_finite_cell_error(tmp_path, cell):
    path = tmp_path / "f.csv"
    path.write_text(f"x,y\n1,2\n3,{cell}\n")
    with pytest.raises(ParseError, match=f"row 3, column 2: not a finite number: '{cell}'"):
        load_csv(str(path))


_FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_CELL = st.tuples(
    st.sampled_from(["", " ", "  ", "\t"]),
    st.one_of(
        _FINITE.map(lambda v: "%.17g" % v),
        _FINITE.map(repr),
        st.integers(-10**6, 10**6).map(str),
        st.integers(1000, 10**9).map(lambda i: f"{i:_}"),              # float() only
        st.integers(0, 10**6).map(lambda i: str(i).translate(_FULL_WIDTH)),  # float() only
    ),
    st.sampled_from(["", " ", "\t"]),
).map("".join)
# a defect breaks one data row after the first, leaves no data row, or puts
# a header wider than the rows; np.loadtxt would skip the separator \x1c
# around a number, float() does not
_DEFECTS = {"ragged": None, "word": "oops", "nan": "nan", "inf": "-Infinity", "huge": "1e400",
            "separator": "4\x1c", "empty body": None, "wide header": None}


def _outcome(path: str, load) -> tuple[str, object]:
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning may escape
        try:
            return "rows", load(path)
        except ParseError as exc:
            return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_csv_matches_checked_loop(data):
    # the one-call loadtxt parse gives the per-cell float() loop's array bit
    # for bit, or raises its ParseError text
    defect = data.draw(st.sampled_from([None, *_DEFECTS]), label="defect")
    inner = defect == "separator"  # strip() drops a separator at either end of a line
    width = data.draw(st.integers(1 + inner, 4), label="width")
    rows = data.draw(st.lists(st.lists(_CELL, min_size=width, max_size=width),
                              min_size=2, max_size=8), label="rows")
    header = data.draw(st.booleans(), label="header")
    if defect == "empty body":
        rows = []
    elif defect not in (None, "wide header"):
        r = data.draw(st.integers(1, len(rows) - 1))
        c = data.draw(st.integers(0, width - 1 - inner))
        if defect == "ragged":
            rows[r] = rows[r] + ["1"] if width == 1 or data.draw(st.booleans()) else rows[r][1:]
        else:
            rows[r][c] = _DEFECTS[defect]
    names = [f"c{j}" for j in range(width + (defect == "wide header"))]
    lines = [",".join(names)] if header or defect in ("empty body", "wide header") else []
    for row in rows:
        lines += data.draw(st.lists(st.sampled_from(["", "   ", "# note", " #x,y"]), max_size=2))
        lines.append(",".join(row))
    lines.insert(0, "# provenance")
    newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
    text = newline.join(lines) + data.draw(st.sampled_from(["", newline]))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/x.csv"
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        got = _outcome(path, load_csv)
        expect = _outcome(path, lambda p: _parse_lines(p, text.replace("\r\n", "\n")))
    assert got[0] == expect[0] == ("rows" if defect is None else "error")
    if defect is None:
        assert got[1].shape == (len(rows), width) and got[1].dtype == np.float64
        assert got[1].tobytes() == expect[1].tobytes()
    else:
        assert got[1] == expect[1]


def test_load_csv_float_only_cells_and_empty_body(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("x,y\n1_000, ２\n-0,2.5\n", encoding="utf-8")
    X = load_csv(str(path))
    assert X.tobytes() == np.array([[1000.0, 2.0], [-0.0, 2.5]]).tobytes()
    path.write_text("# only a header\nx,y\n\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(str(path))


def test_iris_fixture():
    X, labels = load_iris()
    assert X.shape == (150, 4)
    assert np.bincount(labels).tolist() == [50, 50, 50]


# -- distance to curve --------------------------------------------------------


def test_distance_to_curve_clean_points_small():
    sample = noisy_spiral(100, 0.0, seed=11)
    d = distance_to_curve(sample.points, "spiral", 50_000)
    grid = curve_grid("spiral", 50_000)
    spacing = np.max(np.linalg.norm(np.diff(grid, axis=0), axis=1))
    assert np.all(d <= spacing)


def test_distance_to_curve_constructed_offset():
    sample = noisy_spiral(50, 0.0, seed=12)
    grid = curve_grid("spiral", 100_000)
    spacing = np.max(np.linalg.norm(np.diff(grid, axis=0), axis=1))
    # push each point along the outward radial direction (normal-ish)
    radial = sample.clean / np.linalg.norm(sample.clean, axis=1, keepdims=True)
    delta = 0.37
    d = distance_to_curve(sample.clean + delta * radial, "spiral", 100_000)
    assert np.all(np.abs(d - delta) <= delta * 0.05 + spacing)


def test_distance_to_curve_refinement_monotone():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-10, 10, size=(40, 2))
    d1 = distance_to_curve(pts, "spiral", 2000)
    d2 = distance_to_curve(pts, "spiral", 4000)
    assert np.all(d2 <= d1 + 0.0)


def test_distance_to_curve_validation():
    with pytest.raises(ParameterError):
        distance_to_curve(np.zeros((3, 2)), "spiral", 10)
    with pytest.raises(ParameterError):
        curve_grid("helix", 2000)
    with pytest.raises(DimensionError):
        distance_to_curve(np.zeros((3, 5)), "spiral", 2000)


def test_curve_sample_shapes():
    s = euler_spiral(10, 1.0, seed=15)
    assert isinstance(s, CurveSample)
    assert s.points.shape == s.clean.shape == (10, 2)
    assert s.params.shape == (10,)
