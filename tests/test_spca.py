from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    Hyperplane,
    column_sums,
    fit_plane,
    optimal_offset,
    outer_sums,
    piece_record,
    piece_residual_sq,
    principal_angles,
    project_piece,
    project_plane,
    reference_fit_spheres,
    row_major_fit_pieces,
    sphere_distance,
    sphere_fit_loss,
    sphere_residual_sq,
    sym_eig,
)
from spherelets import spca
from spherelets.datasets import sphere_sample
from spherelets.exceptions import (
    DimensionError,
    InsufficientDataError,
    ParameterError,
    SingularProjectionError,
)
from spherelets.model import load
from spherelets.spca import (
    Spherelet,
    fit_pieces,
    fit_sphere,
    project_pieces,
    project_sphere,
)

DATA = Path(__file__).resolve().parent / "data"


# -- hyperplane fit: a row of the pca table ---------------------------------


def test_fit_hyperplane_line():
    t = np.linspace(-1, 1, 9)
    X = np.column_stack([t, t])  # y = x
    plane = fit_plane(X, 1)
    v = plane.frame[:, 0]
    assert np.allclose(np.abs(v), [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_fit_hyperplane_full_dimension_is_identity():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 3))
    plane = fit_plane(X, 3)  # w = D
    x = rng.normal(size=3)
    assert np.allclose(project_plane(x, plane), x, atol=1e-10)


def test_fit_hyperplane_matches_eig_oracle():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(200, 4)) * np.array([5.0, 2.0, 1.0, 0.3])
    plane = fit_plane(X, 2)
    Xc = X - X.mean(axis=0)
    oracle = sym_eig(Xc.T @ Xc).eigenvectors[:, :2]
    assert principal_angles(plane.frame, oracle).max() < 1e-10


def test_fit_hyperplane_errors():
    with pytest.raises(InsufficientDataError):
        fit_pieces(np.zeros((0, 3)), [0], 1, "pca")
    with pytest.raises(DimensionError):
        fit_pieces(np.zeros((5, 2, 1)), [0], 1, "pca")  # not (N, D) rows


# -- reduction ---------------------------------------------------------------


def test_reduce_fixes_points_in_subspace():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 4))
    plane = fit_plane(X, 2)
    Y = project_plane(X, plane)
    assert np.allclose(project_plane(Y, plane), Y, atol=1e-10)


def test_reduce_orthogonal_complement_maps_to_mean():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 4))
    plane = fit_plane(X, 2)
    w = rng.normal(size=4)
    w -= plane.frame @ (plane.frame.T @ w)  # orthogonal to the frame
    x = plane.mu + w
    assert np.allclose(project_plane(x, plane), plane.mu, atol=1e-10)


def test_reduce_residual_orthogonal_to_frame():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(25, 5))
    plane = fit_plane(X, 2)
    resid = X - project_plane(X, plane)
    assert np.max(np.abs(resid @ plane.frame)) < 1e-10


# -- sphere fit --------------------------------------------------------------


def test_fit_sphere_symmetric_four_points():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    s, _ = fit_sphere(X, 1)
    assert np.allclose(s.center, [0.0, 0.0], atol=1e-12)
    assert np.isclose(s.radius, 1.0, atol=1e-12)


def test_fit_sphere_circumcircle():
    # circumcircle through three points, from perpendicular bisectors
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    s, fits = fit_sphere(X, 1)
    assert np.allclose(s.center, [0.5, 0.5], atol=1e-10)
    assert np.isclose(s.radius, np.sqrt(0.5), atol=1e-10)
    assert np.mean(fits.residual_sq) < 1e-20


def test_fit_sphere_exact_recovery_r5():
    c = np.array([1.0, -2.0, 0.5, 3.0, -1.5])
    X = sphere_sample(50, 2, 5, c, 2.0, seed=9)
    s, _ = fit_sphere(X, 2)
    assert abs(s.radius - 2.0) < 1e-6 * 2.0
    assert np.linalg.norm(s.center - c) < 1e-6 * (1 + np.linalg.norm(c))


def test_fit_sphere_center_in_affine_subspace():
    # circle living in an offset plane: center must lie in mu + span(V)
    theta = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    X = np.column_stack([np.cos(theta), np.sin(theta), np.full_like(theta, 2.5)])
    s, _ = fit_sphere(X, 1)
    assert np.allclose(s.center, [0.0, 0.0, 2.5], atol=1e-9)
    off = s.center - s.mu
    out_of_plane = off - s.frame @ (s.frame.T @ off)
    assert np.linalg.norm(out_of_plane) <= 1e-8 * (1 + np.linalg.norm(s.center))


def test_fit_sphere_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_sphere(np.zeros((2, 3)), 1)


def test_fit_sphere_degenerates_on_collinear_points():
    t = np.linspace(0, 1, 30)
    X = np.column_stack([t, 2 * t])
    s, fits = fit_sphere(X, 1)
    assert s.degenerate
    assert fits.h_condition[0] > 1e12
    # degenerate projection goes onto the fit's d-plane, the line itself
    # (the 2-wide reduction plane is all of R^2 and would map x to itself)
    x = np.array([0.5, 1.3])
    line = Hyperplane(mu=s.mu, frame=s.frame[:, :1])
    assert np.array_equal(project_sphere(x, s), project_plane(x, line))
    assert np.array_equal(sphere_residual_sq(x, s), piece_residual_sq(line, np.atleast_2d(x)))
    assert np.allclose(project_sphere(x, s), [0.62, 1.24], atol=1e-12)
    assert np.allclose(sphere_residual_sq(x, s), [0.018], atol=1e-12)


def test_fit_sphere_rigid_motion_equivariance():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 4)) * np.array([3.0, 2.0, 1.0, 0.5])
    s0, _ = fit_sphere(X, 1)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    t = rng.normal(size=4)
    s1, _ = fit_sphere(X @ Q.T + t, 1)
    assert np.isclose(s1.radius, s0.radius, rtol=1e-8)
    assert np.linalg.norm(s1.center - (Q @ s0.center + t)) < 1e-8 * (1 + np.linalg.norm(s0.center))
    assert principal_angles(s1.frame, Q @ s0.frame).max() < 1e-8


def test_fit_sphere_similarity_scaling():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(35, 3)) * np.array([2.0, 1.0, 0.4])
    s0, _ = fit_sphere(X, 1)
    s1, _ = fit_sphere(3.5 * X, 1)
    assert np.isclose(s1.radius, 3.5 * s0.radius, rtol=1e-8)
    assert np.allclose(s1.center, 3.5 * s0.center, rtol=1e-8, atol=1e-10)


# -- algebraic loss stationarity ---------------------------------------------


def _fit_and_loss(seed):
    rng = np.random.default_rng(seed)
    X = sphere_sample(30, 1, 3, rng.uniform(-1, 1, 3), 2.0, seed=seed)
    X = X + rng.normal(0, 0.05, X.shape)
    s, _ = fit_sphere(X, 1)
    Y = project_plane(X, Hyperplane(mu=s.mu, frame=s.frame))
    f_hat = -2.0 * s.center
    return Y, f_hat, sphere_fit_loss(Y, f_hat)


def test_loss_gradient_vanishes_at_minimizer():
    Y, f_hat, g0 = _fit_and_loss(21)
    h = 1e-6
    grad = np.zeros(len(f_hat))
    for j in range(len(f_hat)):
        e = np.zeros(len(f_hat))
        e[j] = h
        grad[j] = (sphere_fit_loss(Y, f_hat + e) - sphere_fit_loss(Y, f_hat - e)) / (2 * h)
    assert np.linalg.norm(grad) <= 1e-6 * (1 + abs(g0))


def test_loss_perturbations_never_decrease():
    Y, f_hat, g0 = _fit_and_loss(22)
    rng = np.random.default_rng(100)
    for _ in range(100):
        delta = rng.normal(size=len(f_hat))
        delta *= 1e-3 / np.linalg.norm(delta)
        assert sphere_fit_loss(Y, f_hat + delta) >= g0 - 1e-9 * (1 + abs(g0))


def test_offset_stationarity():
    # db/dg = 0 at the closed-form optimal offset, by central differences
    Y, f_hat, _ = _fit_and_loss(23)
    b_hat = optimal_offset(Y, f_hat)
    h = 1e-6 * (1 + abs(b_hat))
    db = (sphere_fit_loss(Y, f_hat, b_hat + h) - sphere_fit_loss(Y, f_hat, b_hat - h)) / (2 * h)
    g0 = sphere_fit_loss(Y, f_hat, b_hat)
    assert abs(db) <= 1e-6 * (1 + abs(g0))


# -- sphere projection -------------------------------------------------------


def _unit_circle_r2():
    return fit_sphere(sphere_sample(40, 1, 2, 0.0, 1.0, seed=30), 1)[0]


def test_project_sphere_axis_point():
    s = _unit_circle_r2()
    assert np.allclose(project_sphere(np.array([2.0, 0.0]), s), [1.0, 0.0], atol=1e-9)


def test_project_sphere_345():
    s = _unit_circle_r2()
    assert np.allclose(project_sphere(np.array([3.0, 4.0]), s), [0.6, 0.8], atol=1e-9)


def test_project_sphere_r3_circle_beats_grid():
    theta = np.linspace(0, 2 * np.pi, 48, endpoint=False)
    circ = np.column_stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)])
    s, _ = fit_sphere(circ, 1)
    x = np.array([0.0, 2.0, 5.0])
    p = project_sphere(x, s)
    assert np.allclose(p, [0.0, 1.0, 0.0], atol=1e-9)
    grid_t = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
    grid = np.column_stack([np.cos(grid_t), np.sin(grid_t), np.zeros_like(grid_t)])
    assert np.linalg.norm(x - p) <= np.linalg.norm(grid - x, axis=1).min() + 1e-12


def test_project_sphere_output_on_sphere_and_idempotent():
    rng = np.random.default_rng(31)
    s, _ = fit_sphere(sphere_sample(50, 2, 4, rng.uniform(-1, 1, 4), 1.7, seed=31), 2)
    for _ in range(20):
        x = rng.uniform(-3, 3, 4)
        p = project_sphere(x, s)
        assert abs(np.linalg.norm(p - s.center) - s.radius) <= 1e-10 * s.radius
        assert np.allclose(project_sphere(p, s), p, atol=1e-10)


def test_project_sphere_singular_at_center():
    s = _unit_circle_r2()
    with pytest.raises(SingularProjectionError):
        project_sphere(s.center, s)


def test_project_sphere_dimension_mismatch():
    s = _unit_circle_r2()
    with pytest.raises(DimensionError):
        project_sphere(np.zeros(3), s)


def test_project_plane_trivial_and_idempotent():
    plane = fit_plane(np.column_stack([np.linspace(0, 1, 10), np.zeros(10)]), 1)
    p = project_plane(np.array([3.0, 4.0]), plane)
    assert np.allclose(p, [3.0, 0.0], atol=1e-12)
    assert np.allclose(project_plane(p, plane), p, atol=1e-12)


# -- spherical distance ------------------------------------------------------


def test_sphere_distance_quarter_arc():
    s = _unit_circle_r2()
    d = sphere_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]), s)
    assert np.isclose(d, np.pi / 2, atol=1e-9)


def test_sphere_distance_zero_and_antipodal():
    s = _unit_circle_r2()
    x = np.array([1.0, 0.0])
    assert sphere_distance(x, x, s) <= 1e-9
    assert np.isclose(sphere_distance(x, -x, s), np.pi, atol=1e-9)


def test_sphere_distance_clamps_roundoff():
    s = _unit_circle_r2()
    x = np.array([1.0, 0.0])
    # dot product fractionally above r^2 must clamp to distance 0
    y = x * (1.0 + 1e-12)
    assert sphere_distance(x, y, s) < 1e-5


def test_sphere_distance_degenerate_falls_back_to_euclidean():
    t = np.linspace(0, 1, 20)
    s, _ = fit_sphere(np.column_stack([t, 2 * t]), 1)
    assert s.degenerate
    x, y = np.array([0.0, 0.0]), np.array([3.0, 4.0])
    assert np.isclose(sphere_distance(x, y, s), 5.0)


# -- exact recovery sweep (module-level; the full 200-config run is in the
#    acceptance suite) ------------------------------------------------------


def test_exact_recovery_small_sweep():
    rng = np.random.default_rng(77)
    for d in (1, 2, 3):
        for D in (d + 1, min(d + 4, 10)):
            r = float(rng.uniform(0.5, 5.0))
            c = rng.uniform(-2, 2, D)
            seed = int(rng.integers(0, 2**31))
            X = sphere_sample(50, d, D, c, r, seed=seed)
            s, _ = fit_sphere(X, d)
            assert not s.degenerate
            assert abs(s.radius - r) < 1e-6 * r
            assert np.linalg.norm(s.center - c) < 1e-6 * (1 + np.linalg.norm(c))
            g = np.random.default_rng(seed)
            A = g.normal(size=(D, d + 1))
            V, R = np.linalg.qr(A)
            V = V * np.sign(np.diag(R))[None, :]
            assert principal_angles(s.frame, V).max() < 1e-6


def test_reduced_solve_matches_ambient_pseudoinverse_on_centered_data():
    # for mean-zero data the ambient normal equations solved with the
    # Moore-Penrose inverse (H^+ = V Lambda^-1 V') give the same center
    # as the reduced-coordinate solve
    rng = np.random.default_rng(55)
    X = sphere_sample(40, 1, 4, rng.uniform(-1, 1, 4), 1.8, seed=56)
    X = X + rng.normal(0, 0.03, X.shape)
    X = X - X.mean(axis=0)
    s, _ = fit_sphere(X, 1)
    Y = project_plane(X, Hyperplane(mu=s.mu, frame=s.frame))
    Yc = Y - Y.mean(axis=0)
    H = Yc.T @ Yc
    l = np.sum(Y * Y, axis=1)
    xi = Yc.T @ (l - l.mean())
    c_ambient = 0.5 * (np.linalg.pinv(H) @ xi)
    assert np.allclose(s.center, c_ambient, atol=1e-9)


# -- stacked fits -------------------------------------------------------------


def _rel_close(a, b, rtol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    return np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)


def _ragged(sets):
    """Rows and segment starts of a sequence of point sets."""
    sizes = np.array([len(S) for S in sets])
    return np.concatenate(sets), np.cumsum(sizes) - sizes


def _fits_match_looped(H, d):
    """Stacked spca fits agree with fit_sphere row by row; returns the
    stack's ``PieceFits``."""
    fits = fit_pieces(*_ragged(H), d, "spca")
    pieces = fits.pieces
    for i, hood in enumerate(H):
        s, one = fit_sphere(hood, d)
        assert bool(pieces.sphere[i]) != s.degenerate
        assert _rel_close(pieces.frame[i], s.frame)
        assert _rel_close(pieces.mu[i], s.mu)
        assert _rel_close(pieces.center[i], s.center)
        if s.degenerate:
            assert pieces.radius[i] == np.inf
        else:
            assert _rel_close(pieces.radius[i], s.radius)
        assert fits.h_condition[i] == one.h_condition[0] or _rel_close(
            fits.h_condition[i], one.h_condition[0]
        )
    return fits


def _circle(n, c, r, phase=0.0):
    theta = phase + 2 * np.pi * np.arange(n) / n
    return np.asarray(c) + r * np.column_stack([np.cos(theta), np.sin(theta)])


def test_fit_pieces_exact_spheres_match_looped():
    H = np.stack([_circle(12, [0.0, 0.0], 1.0), _circle(12, [3.0, -1.0], 2.5, 0.3),
                  _circle(12, [-7.0, 4.0], 0.1, 1.1)])
    pieces = _fits_match_looped(H, 1).pieces
    assert pieces.sphere.all()
    assert np.allclose(pieces.center, [[0, 0], [3, -1], [-7, 4]], atol=1e-10)
    assert np.allclose(pieces.radius, [1.0, 2.5, 0.1], atol=1e-10)
    S = np.stack([sphere_sample(30, 2, 4, c, r, seed=s)
                  for s, (c, r) in enumerate([(0.0, 1.0), (2.0, 3.0), (-1.0, 0.5)])])
    pieces = _fits_match_looped(S, 2).pieces
    assert pieces.sphere.all()
    assert np.allclose(pieces.radius, [1.0, 3.0, 0.5], atol=1e-8)


def test_fit_pieces_collinear_row_falls_back_alone():
    t = np.linspace(0, 1, 12)
    line = np.column_stack([t, 2 * t])
    H = np.stack([_circle(12, [0.0, 0.0], 1.0), line, _circle(12, [5.0, 5.0], 2.0)])
    fits = _fits_match_looped(H, 1)
    assert fits.pieces.sphere.tolist() == [True, False, True]
    assert not fits.h_condition[1] <= spca.H_CONDITION_LIMIT
    assert np.array_equal(fits.pieces.center[1], fits.pieces.mu[1])


def test_fit_pieces_near_flat_row_hits_radius_limit(monkeypatch):
    # a clean arc trips the condition limit before the radius limit; a
    # lower radius limit exercises that branch on a well-conditioned arc
    monkeypatch.setattr(spca, "RADIUS_DIAMETER_RATIO", 1e3)
    x = np.linspace(-1, 1, 12)
    flat = np.column_stack([x, 1e-5 * x**2])
    H = np.stack([_circle(12, [0.0, 0.0], 1.0), flat])
    fits = _fits_match_looped(H, 1)
    assert fits.pieces.sphere.tolist() == [True, False]
    assert fits.h_condition[1] <= spca.H_CONDITION_LIMIT


def test_fit_pieces_failed_solve_marks_only_its_row(monkeypatch):
    H = np.stack([_circle(12, [0.0, 0.0], 1.0), _circle(12, [0.0, 0.0], 7.0),
                  _circle(12, [2.0, 0.0], 1.5)])
    clean = fit_pieces(*_ragged(H), 1, "spca").pieces
    real_solve = np.linalg.solve

    def solve(a, b):
        # the radius-7 circle has by far the largest reduced scatter
        if np.any(a[..., 0, 0] > 100.0):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    fits = fit_pieces(*_ragged(H), 1, "spca").pieces
    assert fits.sphere.tolist() == [True, False, True]
    assert fits.radius[1] == np.inf
    for i in (0, 2):
        assert np.array_equal(fits.center[i], clean.center[i])
        assert fits.radius[i] == clean.radius[i]


def test_project_pieces_matches_each_piece_and_one_row_calls():
    # a sphere of width d + 1 = 2, a d-wide plane and a (d+1)-wide plane as
    # files of earlier versions hold, in R^3, with 4 points for each row
    pieces = load(str(DATA / "legacy_members_wide_plane.json")).pieces
    kinds = sorted(zip(pieces.sphere.tolist(), pieces.width.tolist()))
    assert kinds == [(False, 1), (False, 2), (True, 2)]
    rng = np.random.default_rng(31)
    table = pieces.take(rng.permutation(np.arange(12) % 3))
    P = rng.uniform(-3, 3, size=(12, 4, 3))
    images, regular = project_pieces(P, table)
    assert images.shape == P.shape and regular.shape == (12, 4) and regular.all()
    for i in range(12):
        # each row is the call on that row alone, bit for bit
        one, ok = project_pieces(P[i : i + 1], table.take([i]))
        assert np.array_equal(one[0], images[i]) and ok.all()
        assert np.allclose(images[i], project_piece(piece_record(table, i), P[i]), rtol=0, atol=1e-12)


def test_project_pieces_point_at_center_lands_on_d_plane():
    H = [_circle(12, [0.0, 0.0], 1.0), _circle(12, [5.0, 5.0], 2.0)]
    pieces = fit_pieces(*_ragged(H), 1, "spca").pieces
    P = np.array([[[0.0, 0.0], [2.0, 0.0]], [[9.0, 5.0], [5.0, 3.0]]])
    P[0, 0] = pieces.center[0]
    images, regular = project_pieces(P, pieces)
    assert regular.tolist() == [[False, True], [True, True]]
    s0, s1 = piece_record(pieces, 0), piece_record(pieces, 1)
    with pytest.raises(SingularProjectionError):
        project_sphere(P[0], s0)
    # the point at the center goes onto the piece's d-plane mu + span(frame[:, :1])
    line = Hyperplane(mu=pieces.mu[0], frame=pieces.frame[0, :, :1])
    assert np.allclose(images[0, 0], project_plane(P[0, 0], line), rtol=0, atol=1e-12)
    one, ok = project_pieces(P[:1, :1], pieces.take([0]))
    assert np.array_equal(one[0, 0], images[0, 0]) and not ok.any()
    assert _rel_close(images[0, 1], project_sphere(P[0, 1], s0))
    assert _rel_close(images[1], project_sphere(P[1], s1))
    assert np.allclose(images[1], [[7.0, 5.0], [5.0, 3.0]], atol=1e-10)


def test_project_pieces_degenerate_fit_projects_onto_its_plane():
    t = np.linspace(0, 1, 12)
    H = [np.column_stack([t, 2 * t]), _circle(12, [0.0, 0.0], 1.0)]
    pieces = fit_pieces(*_ragged(H), 1, "spca").pieces
    assert pieces.sphere.tolist() == [False, True]
    images, regular = project_pieces(np.array([[[0.5, 0.5]], [[3.0, 0.0]]]), pieces)
    assert regular.all()
    # the foot of (0.5, 0.5) on the line y = 2x through the collinear set
    assert np.allclose(images[0], [[0.3, 0.6]], rtol=0, atol=1e-12)
    assert np.allclose(images[1], [[1.0, 0.0]], atol=1e-10)


def test_stacked_pca_matches_hyperplane_fit():
    # one PCA per call: both fitters give the sets the same means and axes
    rng = np.random.default_rng(12)
    H = rng.normal(size=(5, 9, 3)) * np.array([3.0, 1.0, 0.2])
    planes, spheres = fit_pieces(*_ragged(H), 2, "pca"), fit_pieces(*_ragged(H), 2, "spca")
    assert np.array_equal(planes.axis, spheres.axis)
    for i in range(5):
        plane = fit_plane(H[i], 2)
        assert np.array_equal(planes.pieces.mu[i], plane.mu)
        assert np.array_equal(spheres.pieces.mu[i], plane.mu)
        assert np.array_equal(planes.pieces.frame[i, :, :2], plane.frame)
        assert np.array_equal(spheres.pieces.frame[i, :, :2], plane.frame)


def test_fit_pieces_validation():
    with pytest.raises(InsufficientDataError):
        fit_sphere(np.zeros((2, 3)), 1)
    with pytest.raises(DimensionError):
        fit_sphere(np.zeros((5, 2)), 2)  # a 3-wide frame in R^2
    with pytest.raises(DimensionError):
        fit_sphere(np.zeros((4, 5, 2)), 1)
    with pytest.raises(ParameterError):
        fit_sphere(np.zeros((5, 2)), -1)
    with pytest.raises(DimensionError):
        fit_pieces(np.zeros((4, 5, 2)), [0], 1, "spca")
    # the ragged fit gives such sets planes: a d-plane for 2 < d + 2 rows,
    # the whole R^2 for d + 1 > D
    short, wide = fit_pieces(np.zeros((8, 3)), [0, 2, 4, 6], 1, "spca"), fit_pieces(
        np.zeros((20, 2)), [0, 5, 10, 15], 2, "spca")
    assert not short.pieces.sphere.any() and short.pieces.width.tolist() == [1] * 4
    assert not wide.pieces.sphere.any() and wide.pieces.width.tolist() == [2] * 4


def test_segments_shorter_than_a_sphere_raise():
    X = np.random.default_rng(13).normal(size=(12, 3))
    with pytest.raises(InsufficientDataError):
        fit_sphere(X[4:6], 1)  # 2 < d + 2 rows
    # in a ragged fit that set's piece is its PCA line
    assert fit_pieces(X, [0, 4, 6], 1, "spca").pieces.sphere.tolist() == [True, False, True]
    with pytest.raises(InsufficientDataError):
        fit_pieces(X, [0, 4, 4], 1, "spca")  # an empty middle set
    with pytest.raises(InsufficientDataError):
        fit_pieces(X, [0, 6, 12], 1, "spca")  # an empty last set
    with pytest.raises(InsufficientDataError):
        fit_pieces(X[:0], [0], 1, "spca")


def test_empty_segment_fails_pca():
    X = np.random.default_rng(14).normal(size=(6, 2))
    with pytest.raises(InsufficientDataError):
        fit_pieces(X, [0, 3, 3], 1, "pca")
    with pytest.raises(InsufficientDataError):
        fit_pieces(X, [0, 6], 1, "pca")
    fits = fit_pieces(X, [0, 1, 5], 1, "pca")  # one-row sets are fine
    assert np.array_equal(fits.pieces.mu[0], X[0])


@pytest.mark.parametrize("starts", [[1, 4], [0, 5, 3], np.array([0, 5, 3], dtype=np.uint64),
                                    [0, 13], [], [[0, 4]], [0.0, 4.0]])
def test_segment_starts_must_begin_at_zero_and_increase(starts):
    X = np.random.default_rng(15).normal(size=(12, 3))
    for fitter in ("spca", "pca"):
        with pytest.raises(ParameterError):
            fit_pieces(X, starts, 1, fitter)


def test_fit_pieces_policy_per_set():
    t = np.linspace(0, 1, 12)
    circle, line = _circle(12, [0.0, 0.0], 1.0), np.column_stack([t, 2 * t])
    short = np.array([[0.0, 1.0], [1.0, 1.0]])
    X, starts = _ragged([circle, short, line])
    pieces, axes, _, score, h_condition = fit_pieces(X, starts, 1, "spca")
    assert pieces.sphere.tolist() == [True, False, False] and pieces.width.tolist() == [2, 1, 1]
    assert isinstance(piece_record(pieces, 0), Spherelet)
    assert np.allclose(pieces.center[0], 0.0, atol=1e-12) and np.isclose(pieces.radius[0], 1.0)
    # too short for a circle, or collinear (a degenerate circle): the
    # 1-wide PCA plane, the piece the pca fitter gives the set bit for bit,
    # whose center is its mean and radius inf
    for i, S in ((1, short), (2, line)):
        plane = fit_pieces(S, [0], 1, "pca").pieces
        assert isinstance(piece_record(pieces, i), Hyperplane) and pieces.width[i] == 1
        assert np.array_equal(pieces.frame[i], plane.frame[0]) and np.array_equal(pieces.mu[i], plane.mu[0])
        assert not pieces.frame[i, :, 1].any()
        assert np.array_equal(pieces.center[i], pieces.mu[i]) and pieces.radius[i] == np.inf
    assert np.allclose(np.abs(axes[1]), [1.0, 0.0]) and np.allclose(axes[2], [1, 2] / np.sqrt(5))
    for i, S in enumerate([circle, short, line]):
        alone, axis, _, one, kappa = fit_pieces(S, [0], 1, "spca")
        for a, b in zip(alone, pieces.take([i])):
            assert np.array_equal(a, b)
        assert np.array_equal(axis[0], axes[i])
        assert np.array_equal(one, score[starts[i] : starts[i] + len(S)])
        assert np.array_equal(kappa[0], h_condition[i])
    # the short and the collinear set's scatters are singular
    assert h_condition[0] < spca.H_CONDITION_LIMIT and np.all(h_condition[1:] == np.inf)
    fits = fit_pieces(*_ragged([circle, line]), 1, "pca")
    planes = fits.pieces
    assert np.isnan(fits.h_condition).all()  # no sphere solved
    assert not planes.sphere.any() and planes.width.tolist() == [1, 1]
    assert planes.frame.shape == (2, 2, 2) and not planes.frame[:, :, 1].any()
    with pytest.raises(ParameterError):
        fit_pieces(circle, [0], 1, "svd")
    for fitter in ("spca", "pca"):  # pca once ended in a NumPy shape error
        with pytest.raises(ParameterError, match="d must be >= 0"):
            fit_pieces(circle, [0], -1, fitter)


@st.composite
def _ragged_sets(draw):
    """Point sets of random sizes >= d + 2, optionally with a set of
    exactly d + 2 rows, sets of 1 to d + 1 rows, too few for a d-sphere,
    and a collinear (degenerate) set between them."""
    d = draw(st.integers(1, 3), label="d")
    D = draw(st.integers(d + 1, d + 3), label="D")
    sizes = draw(st.lists(st.integers(d + 2, d + 15), min_size=1, max_size=6), label="sizes")
    if draw(st.booleans(), label="exact"):
        sizes.insert(draw(st.integers(0, len(sizes)), label="at"), d + 2)
    for k in draw(st.lists(st.integers(1, d + 1), max_size=3), label="small"):
        sizes.insert(draw(st.integers(0, len(sizes)), label="at"), k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    sets = [rng.uniform(-10, 10, D) + rng.uniform(1e-2, 1e2) * rng.normal(size=(k, D))
            for k in sizes]
    collinear = len(sets) // 2 if draw(st.booleans(), label="collinear") else None
    if collinear is not None:
        t = rng.normal(size=d + 2 + draw(st.integers(0, 10), label="extra"))
        sets.insert(collinear, rng.normal(size=D) + t[:, None] * rng.normal(size=D))
    return d, sets, collinear


@settings(max_examples=150, deadline=None)
@given(case=_ragged_sets(), fitter=st.sampled_from(["spca", "pca"]))
def test_ragged_rows_equal_single_set_calls_property(case, fitter):
    # every field of a set's fit, its rows' too, is that of the set's call
    # alone, bit for bit; a set too small for a sphere gets the pca
    # fitter's mean, frame and scores
    d, sets, collinear = case
    X, starts = _ragged(sets)
    fits = fit_pieces(X, starts, d, fitter)
    planes = fits if fitter == "pca" else fit_pieces(X, starts, d, "pca")
    if collinear is not None:
        assert not fits.pieces.sphere[collinear]
    for i, (S, lo) in enumerate(zip(sets, starts)):
        one, rows = fit_pieces(S, [0], d, fitter), slice(lo, lo + len(S))
        for got, alone in zip(fits.pieces, one.pieces):
            assert np.array_equal(got[i], alone[0], equal_nan=True)
        assert np.array_equal(fits.axis[i], one.axis[0])
        assert np.array_equal(fits.h_condition[i], one.h_condition[0], equal_nan=True)
        assert np.array_equal(fits.residual_sq[rows], one.residual_sq)
        assert np.array_equal(fits.score[rows], one.score)
        if len(S) < d + 2:
            assert not fits.pieces.sphere[i]
            assert np.array_equal(fits.pieces.mu[i], planes.pieces.mu[i])
            assert np.array_equal(fits.pieces.frame[i], planes.pieces.frame[i])
            assert np.array_equal(fits.score[rows], planes.score[rows])


# -- the kernels against the formulas they replaced -------------------------


def _eigvalsh_condition(Hs):
    """max|lambda| / min|lambda|, inf where a NaN-free scatter gives NaN."""
    lam = np.abs(np.linalg.eigvalsh(Hs))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = lam.max(axis=1) / lam.min(axis=1)
    return np.where(np.isnan(cond) & ~np.isnan(Hs).any(axis=(1, 2)), np.inf, cond)


@st.composite
def _wide_ragged_sets(draw):
    """Point sets of random sizes >= d + 2 in R^D for D up to 16, at
    scales from 1e-150 to 1e150, optionally with a collinear set."""
    D = draw(st.integers(1, 16), label="D")
    d = draw(st.integers(0, min(D - 1, 3)), label="d")
    sizes = draw(st.lists(st.integers(d + 2, 40), min_size=1, max_size=6), label="sizes")
    scale = 10.0 ** draw(st.integers(-150, 150), label="log_scale")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    sets = [scale * (rng.uniform(-10, 10, D) + rng.uniform(1e-2, 1e2) * rng.normal(size=(k, D)))
            for k in sizes]
    if draw(st.booleans(), label="collinear"):
        t = rng.normal(size=d + 2 + draw(st.integers(0, 10), label="extra"))
        sets.insert(len(sets) // 2, scale * (rng.normal(size=D) + t[:, None] * rng.normal(size=D)))
    return d, sets


def _generic_sets(D, d, seed, sizes=(20, 9, 33)):
    """A case of ``_wide_ragged_sets`` at a given D, for an @example."""
    rng = np.random.default_rng(seed)
    return d, [rng.uniform(-10, 10, D) + rng.uniform(1e-2, 1e2) * rng.normal(size=(k, D)) for k in sizes]


@settings(max_examples=200, deadline=None)
@given(case=_wide_ragged_sets(), fitter=st.sampled_from(["spca", "pca"]))
@example(case=_generic_sets(8, 2, 8), fitter="spca")
@example(case=_generic_sets(16, 3, 16), fitter="spca")
@example(case=_generic_sets(64, 1, 64), fitter="spca")
@example(case=_generic_sets(8, 0, 0), fitter="pca")  # a 0-wide plane, each row still scored
def test_fit_kernels_equal_the_formulas_they_replaced_property(case, fitter):
    # rows narrower than numeric.NARROW_ROW add one column at a time, the
    # sums NumPy's reduction makes for them; wider rows take that
    # reduction, so every output is bit-equal at every D; the reduced
    # coordinates and condition numbers are those of the current kernels.
    # Against the row-major kernels the (D, N) layout replaced, every
    # field is bit-equal, the per-row residuals and scores too
    d, sets = case
    X, starts = _ragged(sets)
    with np.errstate(over="ignore", invalid="ignore"):  # far centers of near-flat sets
        spheres = fit_pieces(X, starts, d, "spca")
        expect = reference_fit_spheres(X, starts, d, column_sums, _eigvalsh_condition)
        pieces = fit_pieces(X, starts, d, fitter)
        row_major_pieces = row_major_fit_pieces(X, starts, d, fitter)
    table, flat = spheres.pieces, expect.degenerate
    assert np.array_equal(table.sphere, ~flat)
    for got, old in ((table.mu, expect.mu), (table.center, expect.center), (table.radius, expect.radius),
                     (spheres.axis, expect.frame[:, :, 0]), (spheres.h_condition, expect.h_condition),
                     (spheres.score, expect.score)):
        assert np.array_equal(got, old, equal_nan=True)
    # a degenerate set's piece is the d-plane of its fit
    assert np.array_equal(table.frame[~flat], expect.frame[~flat])
    assert np.array_equal(table.frame[flat, :, :d], expect.frame[flat, :, :d])
    assert not table.frame[flat, :, d].any()
    for got, old in zip(pieces.pieces, row_major_pieces.pieces):
        assert np.array_equal(got, old, equal_nan=True)
    for got, old in zip(pieces[1:], row_major_pieces[1:]):  # axis, residual_sq, score, h_condition
        assert np.array_equal(got, old, equal_nan=True)
    scatter = spca._scatter_sums(X.T.copy(), starts)
    assert np.array_equal(scatter, outer_sums(X, X, starts))
    assert np.array_equal(scatter, np.swapaxes(scatter, 1, 2))


@settings(max_examples=200, deadline=None)
@given(case=_wide_ragged_sets())
def test_fit_pieces_match_the_blas_kernel_within_rounding_property(case):
    # the spca pieces against the reduced coordinates of one BLAS product
    # per row and the condition numbers of np.linalg.cond's SVD, which
    # round differently
    d, sets = case
    X, starts = _ragged(sets)
    # the cubic sums xi overflow once |x|^3 * N nears 1e308, and rounding
    # then decides whether a fit's radius is finite (seen for d = 0 at
    # scales of 1e106 and up): such draws are left out
    assume(3 * np.log(np.abs(X).max()) + np.log(X.shape[0]) < np.log(np.finfo(float).max))
    with np.errstate(over="ignore", invalid="ignore"):  # far centers of near-flat sets
        fits, old = fit_pieces(X, starts, d, "spca"), reference_fit_spheres(X, starts, d)
    pieces, finite = fits.pieces, ~old.degenerate  # the degenerate radius is inf
    assert np.array_equal(pieces.mu, old.mu) and np.array_equal(pieces.sphere, finite)
    assert np.array_equal(pieces.frame[:, :, :d], old.frame[:, :, :d])
    assert np.array_equal(pieces.frame[finite], old.frame[finite])
    scale = np.abs(old.center).max(axis=1)
    assert np.all(np.abs(pieces.center - old.center).max(axis=1) <= 1e-12 * scale)
    assert np.all(np.abs(pieces.radius[finite] - old.radius[finite]) <= 1e-12 * old.radius[finite])
    # a scatter's smallest eigenvalue rounds by ~eps * its largest, so a
    # condition number kappa rounds by ~eps * kappa relative; past the
    # limit (a numerically singular scatter) it is rounding noise, and
    # the equal degenerate flags already say both are past it
    well = old.h_condition <= spca.H_CONDITION_LIMIT
    kappa = old.h_condition[well]
    rtol = 1e-12 + 8 * np.finfo(float).eps * kappa
    assert np.all(np.abs(fits.h_condition[well] - kappa) <= rtol * kappa)


def test_singular_scatter_reports_infinite_condition():
    # an exactly singular reduced scatter reports inf, never the 0 / 0 NaN
    # of a set of identical rows, and the set degenerates
    t = np.linspace(-1, 1, 9)
    same = np.tile([3.0, -1.0, 2.0], (6, 1))
    on_axis = np.column_stack([t, 0 * t, 0 * t]) + [1.0, 2.0, 3.0]
    diagonal = np.column_stack([t, t, np.full_like(t, 5.0)])
    for d, sets in ((0, [same]), (1, [same, on_axis, diagonal])):
        fits = fit_pieces(*_ragged(sets), d, "spca")
        assert np.all(fits.h_condition == np.inf) and not fits.pieces.sphere.any()
        for S in sets:
            s, one = fit_sphere(S, d)
            assert one.h_condition[0] == np.inf and s.degenerate


def test_subnormal_scatter_eigenvalue_reports_infinite_condition():
    # five equal rows and one off them by a 1e-156 sliver: the smallest
    # eigenvalue of the reduced scatter is subnormal, so max / min overflows;
    # it reads inf without a warning, and the set degenerates
    X = np.array([[0.0, 0.0, 0.0]] * 5 + [[0.0, 1.0, 3.0795619843072637e-156]])
    fits = fit_pieces(X, np.array([0]), 1, "spca")
    assert np.all(fits.h_condition == np.inf) and not fits.pieces.sphere.any()


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_condition_limit_cut_matches_svd_condition(factor):
    # a rhombus of semi-axes 1 and b has the reduced scatter diag(2, 2 b^2)
    # in its own frame, condition number 1 / b^2: here just either side of
    # the limit, well clear of the ~eps * kappa rounding of either kernel
    b = 1.0 / np.sqrt(factor * spca.H_CONDITION_LIMIT)
    c, s = np.cos(0.3), np.sin(0.3)
    S = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, b], [0.0, -b]]) @ [[c, s], [-s, c]] + [2.0, -1.0]
    fits, old = fit_pieces(S, [0], 1, "spca"), reference_fit_spheres(S, [0], 1)
    assert old.h_condition[0] == pytest.approx(factor * spca.H_CONDITION_LIMIT, rel=1e-6)
    svd_flag = not old.h_condition[0] <= spca.H_CONDITION_LIMIT
    assert svd_flag == (factor > 1)
    assert fits.pieces.sphere[0] != svd_flag and fit_sphere(S, 1)[0].degenerate == svd_flag


@st.composite
def _piece_sets(draw):
    """Ragged point sets in R^D, D = 1-16, for d = 0-3 at scales 1e-100 to
    1e100: generic sets, sets too small for a d-sphere, collinear sets and
    sets of one repeated point."""
    D = draw(st.integers(1, 16), label="D")
    d = draw(st.integers(0, 3), label="d")
    scale = 10.0 ** draw(st.integers(-100, 100), label="log_scale")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    sets = []
    for kind in draw(st.lists(st.sampled_from(["generic", "small", "collinear", "repeated"]),
                              min_size=1, max_size=6), label="kinds"):
        k = draw(st.integers(1, d + 1) if kind == "small" else st.integers(d + 2, 40), label="k")
        offset = rng.uniform(-10, 10, D)
        if kind == "collinear":
            S = offset + rng.normal(size=k)[:, None] * rng.normal(size=D)
        elif kind == "repeated":
            S = np.repeat(offset[None, :], k, axis=0)
        else:
            S = offset + rng.uniform(1e-2, 1e2) * rng.normal(size=(k, D))
        sets.append(scale * S)
    return d, sets


@settings(max_examples=200, deadline=None)
@given(case=_piece_sets(), fitter=st.sampled_from(["spca", "pca"]))
def test_fit_pieces_residuals_equal_each_piece_property(case, fitter):
    # each row's closed-form residual is its piece's own residual_sq up to
    # rounding: within 1e-12 of the set's squared scale (its largest row
    # norm plus the piece's anchor norm and radius), all computed in the
    # ambient coordinates
    d, sets = case
    X, starts = _ragged(sets)
    with np.errstate(over="ignore", invalid="ignore"):  # far centers of near-flat sets
        fits = fit_pieces(X, starts, d, fitter)
    assert fits.residual_sq.shape == (X.shape[0],)
    for j, (S, lo) in enumerate(zip(sets, starts)):
        got = fits.residual_sq[lo : lo + len(S)]
        piece = piece_record(fits.pieces, j)
        with np.errstate(over="ignore", invalid="ignore"):
            expect = piece_residual_sq(piece, S)
        anchor = fits.pieces.center[j]
        radius = fits.pieces.radius[j] if fits.pieces.sphere[j] else 0.0
        scale = float(np.max(np.sqrt(np.sum(S * S, axis=1)))) + np.linalg.norm(anchor) + radius
        assert np.all(got >= 0.0)
        assert np.max(np.abs(got - expect)) <= 1e-12 * scale**2


def test_full_frame_residual_has_no_out_of_plane_term():
    # a frame of all D axes leaves nothing out of its plane: a row's distance
    # to the sphere is the in-plane term alone, good to a few ulps of the
    # scale, without the rounding of |x - x_bar|^2 - |z|^2, which on a
    # circle sampled 1e-6 off its radius put it off by up to 6e-10
    theta = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    wobble = 1.0 + 1e-6 * np.random.default_rng(41).uniform(-1.0, 1.0, theta.size)
    X = np.array([3.0, -2.0]) + wobble[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    fits = fit_pieces(X, [0], 1, "spca")
    c, r = fits.pieces.center[0].astype(np.longdouble), np.longdouble(fits.pieces.radius[0])
    exact = np.abs(np.sqrt(np.sum((X - c) ** 2, axis=1)) - r)
    assert np.all(np.abs(np.sqrt(fits.residual_sq) - exact) <= 8 * np.finfo(float).eps * 2 * r)
    for fitter in ("spca", "pca"):  # a 2-wide plane in R^2 holds every row
        plane = fit_pieces(X, [0], 2, fitter)
        assert not plane.pieces.sphere[0] and plane.pieces.width[0] == 2
        assert np.all(plane.residual_sq == 0.0)


def test_out_of_plane_residual_resolves_an_exact_circle():
    # |x - x_bar|^2 - |z|^2, a difference of two sums of the data's scale,
    # put the residuals of an exact circle in R^5 at ~6e-16. Each centred
    # coordinate less its lift V z is off by about (D + 2) units of
    # M = max|x - x_bar|, so a sum of their squares stays within
    # D ((D + 2) eps M)^2; so does the in-plane (|z - c_z| - r)^2
    center, D = np.array([2.0, -1.0, 0.5, 3.0, 0.0]), 5
    circle = sphere_sample(60, 1, D, center, 2.0, seed=1)
    v = np.random.default_rng(42).normal(size=D)
    line = center + np.linspace(-2.0, 2.0, 40)[:, None] * v / np.linalg.norm(v)

    def bound(X):
        Xc = X - X.mean(axis=0)
        return D * ((D + 2) * np.finfo(float).eps * np.sqrt(np.max(np.sum(Xc * Xc, axis=1)))) ** 2

    sphere, flat = fit_pieces(circle, [0], 1, "spca"), fit_pieces(line, [0], 1, "spca")
    assert sphere.pieces.sphere[0] and not flat.pieces.sphere[0]  # the line's piece is the d-plane of its fit
    assert sphere.residual_sq.max() <= bound(circle)
    assert flat.residual_sq.max() <= bound(line)
    for X, d in ((circle, 2), (line, 1), (line, 0)):  # planes narrower than D, a point at w = 0
        plane = fit_pieces(X, [0], d, "pca")
        ref = np.sum((X - X.mean(axis=0)) ** 2, axis=1) if d == 0 else 0.0
        assert np.all(np.abs(plane.residual_sq - ref) <= bound(X) + 1e-15 * np.max(ref)), d


# -- properties ----------------------------------------------------------------


def _random_frame(rng, D, k):
    Q, R = np.linalg.qr(rng.normal(size=(D, k)))
    return Q * np.sign(np.diag(R))


@st.composite
def _spheres(draw):
    """A d-sphere in R^D: dimensions, frame, center, radius and a seed."""
    d = draw(st.integers(1, 3), label="d")
    D = draw(st.integers(d + 1, d + 3), label="D")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    center = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=D, max_size=D), label="center"))
    radius = draw(st.floats(1e-3, 1e3), label="radius")
    return d, _random_frame(rng, D, d + 1), center, radius, rng


@settings(max_examples=200, deadline=None)
@given(sphere=_spheres(), extra=st.integers(0, 30))
def test_fit_sphere_exact_recovery_property(sphere, extra):
    # the 2(d+1) axis points of the sphere's frame keep the fit well posed;
    # the extra points are uniform on the sphere
    d, V, c, r, rng = sphere
    u = rng.normal(size=(extra, d + 1))
    u = np.vstack([np.eye(d + 1), -np.eye(d + 1), u / np.linalg.norm(u, axis=1, keepdims=True)])
    s, _ = fit_sphere(c + r * (u @ V.T), d)
    scale = r + np.max(np.abs(c))
    assert not s.degenerate
    assert abs(s.radius - r) <= 1e-9 * scale
    assert np.max(np.abs(s.center - c)) <= 1e-9 * scale


@settings(max_examples=200, deadline=None)
@given(sphere=_spheres(), kind=st.sampled_from(["sphere", "plane"]), n=st.integers(1, 20),
       spread=st.floats(1e-2, 1e2))
def test_projection_idempotent_property(sphere, kind, n, spread):
    d, V, c, r, rng = sphere
    if kind == "sphere":
        piece = spca.Spherelet(frame=V, center=c, radius=r, mu=c)
    else:
        piece = Hyperplane(mu=c, frame=V[:, :d])
    X = c + spread * rng.normal(size=(n, c.size))
    try:
        P = project_piece(piece, X)
    except SingularProjectionError:
        return
    scale = max(1.0, float(np.max(np.abs(X))), float(np.max(np.abs(c))) + r)
    assert np.max(np.abs(project_piece(piece, P) - P)) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(case=_piece_sets(), n=st.integers(1, 20))
def test_one_set_api_is_a_view_of_the_table_property(case, n):
    # fit_sphere's record is row 0 of the one-set spca table, bit for bit,
    # and project_sphere gives project_pieces' images wherever they are
    # regular
    d, sets = case
    S = sets[0]
    assume(S.shape[0] >= d + 2 and d + 1 <= S.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # far centers of near-flat sets
        s, _ = fit_sphere(S, d)
        pieces = fit_pieces(S, [0], d, "spca").pieces
    assert s.degenerate == (not pieces.sphere[0])
    w = pieces.width[0]
    assert np.array_equal(s.frame[:, :w], pieces.frame[0, :, :w]) and not pieces.frame[0, :, w:].any()
    assert np.array_equal(s.mu, pieces.mu[0]) and np.array_equal(s.center, pieces.center[0])
    assert s.radius == pieces.radius[0]  # inf for a degenerate fit
    rng = np.random.default_rng(n)
    P = S[rng.integers(0, S.shape[0], n)] + np.abs(S).max() * rng.normal(size=(n, S.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        images, regular = project_pieces(P[None], pieces)
    assume(regular.all())
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(project_sphere(P, s), images[0], equal_nan=True)
