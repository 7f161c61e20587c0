import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import fit_plane, project_plane
from spherelets.datasets import distance_to_curve, noisy_spiral, sphere_sample
from spherelets.denoise import METHODS, SUPPORT_SIGMAS, DenoiseConfig, blur_step, denoise
from spherelets.exceptions import ParameterError, SingularProjectionError
from spherelets.numeric import knn_indices
from spherelets.spca import fit_sphere, project_sphere

denoise_mod = importlib.import_module("spherelets.denoise")


def test_blur_step_uniform_limit_is_grand_mean():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    diam = np.max(np.linalg.norm(X - X.mean(axis=0), axis=1)) * 2
    Y = blur_step(X, 40, 1e9 * diam)
    assert np.max(np.abs(Y - X.mean(axis=0))) < 1e-6


def test_blur_step_single_point_identity():
    X = np.array([[1.0, 2.0]])
    assert np.array_equal(blur_step(X, 1, 1.0), X)


def test_blur_step_hand_computed_softmax():
    # three collinear points, k = 3, sigma = 1: direct weight computation
    X = np.array([[0.0], [1.0], [2.0]])
    Y = blur_step(X, 3, 1.0)
    w = np.exp(-np.array([0.0, 1.0, 4.0]) / 2.0)
    expect0 = (w * X.ravel()).sum() / w.sum()
    assert np.isclose(Y[0, 0], expect0, atol=1e-14)
    w1 = np.exp(-np.array([1.0, 0.0, 1.0]) / 2.0)
    assert np.isclose(Y[1, 0], (w1 * X.ravel()).sum() / w1.sum(), atol=1e-14)


def test_blur_step_convex_hull_box():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 2))
    nbr = knn_indices(X, 7)
    Y = blur_step(X, 7, 0.8)
    for i in range(60):
        hood = X[nbr[i]]
        assert np.all(Y[i] >= hood.min(axis=0) - 1e-12)
        assert np.all(Y[i] <= hood.max(axis=0) + 1e-12)


def test_blur_step_tiny_sigma_identity():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 2))
    diam = np.max(np.linalg.norm(X - X.mean(axis=0), axis=1)) * 2
    Y = blur_step(X, 5, 1e-12 * diam)
    assert np.max(np.abs(Y - X)) < 1e-9


def test_blur_step_validation():
    X = np.zeros((4, 2))
    with pytest.raises(ParameterError):
        blur_step(X, 5, 1.0)
    with pytest.raises(ParameterError):
        blur_step(X, 2, 0.0)


def test_config_validation():
    with pytest.raises(ParameterError):
        DenoiseConfig(method="magic", k=10)
    with pytest.raises(ParameterError):
        DenoiseConfig(method="smbms", k=3, d=1)  # k < d+3
    with pytest.raises(ParameterError):
        DenoiseConfig(method="gbms", k=10, iters=0)
    for method in ("ltp", "mbms"):  # once projected onto the (D-1)-plane
        with pytest.raises(ParameterError, match="d must be >= 0"):
            DenoiseConfig(method=method, k=10, d=-1)
    DenoiseConfig(method="gbms", k=2, d=1)  # blur-only carries no k >= d+3 bound


def test_lsp_fixes_points_on_circle():
    X = sphere_sample(80, 1, 2, 0.0, 1.0, seed=3)
    out = denoise(X, DenoiseConfig(method="lsp", k=10, sigma=1.0, d=1))
    assert np.max(np.abs(out - X)) < 1e-8


def test_gbms_collapses_to_grand_mean():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 2))
    diam = np.max(np.linalg.norm(X - X.mean(axis=0), axis=1)) * 2
    out = denoise(X, DenoiseConfig(method="gbms", k=50, sigma=1e9 * diam, iters=1))
    assert np.max(np.abs(out - X.mean(axis=0))) < 1e-6


def _support(X, nbr, i, cfg):
    """The leading members of row i of nbr within SUPPORT_SIGMAS * sigma
    of X[i], and never fewer than d + 3."""
    d2 = np.sum((X[nbr[i]] - X[i]) ** 2, axis=1)
    within = int(np.count_nonzero(d2 <= (SUPPORT_SIGMAS * cfg.sigma) ** 2))
    return nbr[i, : max(within, cfg.d + 3)]


def test_smbms_outputs_lie_on_local_spheres():
    sample = noisy_spiral(300, 0.1, seed=5)
    X = sample.points
    cfg = DenoiseConfig(method="smbms", k=20, sigma=1.0, d=1)
    out = denoise(X, cfg)
    # replicate the pass: blur on original neighborhoods, then fit on the
    # blurred images of each point's support
    nbr = knn_indices(X, cfg.k)
    Y = blur_step(X, cfg.k, cfg.sigma)
    for i in range(0, 300, 17):
        s, _ = fit_sphere(Y[_support(X, nbr, i, cfg)], 1)
        if s.degenerate:
            continue
        assert abs(np.linalg.norm(out[i] - s.center) - s.radius) < 1e-9


def test_smbms_improves_noisy_spiral():
    sample = noisy_spiral(400, 0.2, seed=6)
    before = np.mean(distance_to_curve(sample.points, "spiral", 50_000) ** 2)
    out = denoise(sample.points, DenoiseConfig(method="smbms", k=30, sigma=1.0, d=1))
    after = np.mean(distance_to_curve(out, "spiral", 50_000) ** 2)
    assert after < before


def test_smbms_beats_mbms_on_spiral():
    # the qualitative comparison the method is built around: spherical
    # projection tolerates wide bent neighborhoods that break tangent fits
    sample = noisy_spiral(500, 0.2, seed=0)
    out_s = denoise(sample.points, DenoiseConfig(method="smbms", k=36, sigma=1.0, d=1))
    out_m = denoise(sample.points, DenoiseConfig(method="mbms", k=36, sigma=1.0, d=1))
    msd_s = np.mean(distance_to_curve(out_s, "spiral", 50_000) ** 2)
    msd_m = np.mean(distance_to_curve(out_m, "spiral", 50_000) ** 2)
    assert msd_s < msd_m


def test_smbms_beats_gbms_away_from_curve_ends():
    # interior points only; test_criterion_6b checks the whole curve,
    # curve ends included
    sample = noisy_spiral(500, 0.2, seed=0)
    t = sample.params
    interior = (t > np.pi + 1.0) & (t < 4 * np.pi - 1.0)
    out_s = denoise(sample.points, DenoiseConfig(method="smbms", k=36, sigma=1.0, d=1))
    out_g = denoise(sample.points, DenoiseConfig(method="gbms", k=36, sigma=1.0, d=1))
    msd_s = np.mean(distance_to_curve(out_s[interior], "spiral", 50_000) ** 2)
    msd_g = np.mean(distance_to_curve(out_g[interior], "spiral", 50_000) ** 2)
    assert msd_s < msd_g


def test_mbms_equals_blur_then_ltp_when_neighborhoods_stable():
    # clusters of exactly k points, far apart: the k-NN sets are the
    # clusters themselves before and after blurring, so the two pipelines
    # compute the same fits
    rng = np.random.default_rng(7)
    k = 8
    centers = np.array([[0, 0], [100, 0], [0, 100], [100, 100], [50, 50]], dtype=float)
    X = np.vstack([c + rng.normal(0, 1.0, (k, 2)) for c in centers])
    Y = blur_step(X, k, 1.0)
    a, b = knn_indices(X, k), knn_indices(Y, k)
    assert all(set(a[i]) == set(b[i]) for i in range(len(X)))  # guard
    out_mbms = denoise(X, DenoiseConfig(method="mbms", k=k, sigma=1.0, d=1))
    out_ltp = denoise(Y, DenoiseConfig(method="ltp", k=k, sigma=1.0, d=1))
    assert np.allclose(out_mbms, out_ltp, atol=1e-12)


def test_denoise_validation_and_info():
    X = np.zeros((5, 2))
    with pytest.raises(ParameterError):
        denoise(X, DenoiseConfig(method="gbms", k=9))
    sample = noisy_spiral(60, 0.05, seed=8)
    out, fallbacks = denoise(
        sample.points, DenoiseConfig(method="smbms", k=8, sigma=1.0, d=1), return_info=True
    )
    assert out.shape == sample.points.shape
    assert fallbacks >= 0


def test_denoise_iterations_repeat_passes():
    sample = noisy_spiral(150, 0.1, seed=9)
    one = denoise(sample.points, DenoiseConfig(method="gbms", k=10, sigma=1.0, iters=1))
    two = denoise(sample.points, DenoiseConfig(method="gbms", k=10, sigma=1.0, iters=2))
    again = denoise(one, DenoiseConfig(method="gbms", k=10, sigma=1.0, iters=1))
    assert np.allclose(two, again, atol=1e-12)


def test_denoise_sphere_method_needs_room_for_frame():
    from spherelets.exceptions import DimensionError

    X = np.random.default_rng(10).normal(size=(30, 2))
    with pytest.raises(DimensionError):
        denoise(X, DenoiseConfig(method="smbms", k=10, sigma=1.0, d=2))


def _mixed_cloud():
    """Spiral points, a ring around its own center point (singular
    projection) and a collinear segment (condition-number fallback)."""
    theta = 2 * np.pi * np.arange(8) / 8
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    hub = np.vstack([ring, [[0.0, 0.0]]]) + [100.0, 0.0]
    line = np.column_stack([np.linspace(0, 1, 9), np.linspace(0, 2, 9)]) + [0.0, 100.0]
    return np.vstack([noisy_spiral(120, 0.1, seed=3).points, hub, line])


def _looped_pass(X, cfg):
    """One pass as a per-point loop over fit_sphere / project_sphere, each
    fitted to the point's support."""
    nbr = knn_indices(X, cfg.k)
    Y = blur_step(X, cfg.k, cfg.sigma) if cfg.method in ("mbms", "smbms") else X
    out, fallbacks = np.empty_like(X), 0
    for i in range(len(X)):
        hood = Y[_support(X, nbr, i, cfg)]
        if cfg.method in ("smbms", "lsp"):
            s, _ = fit_sphere(hood, cfg.d)
            if not s.degenerate:
                try:
                    out[i] = project_sphere(Y[i], s)
                    continue
                except SingularProjectionError:
                    pass
            fallbacks += 1
        out[i] = project_plane(Y[i], fit_plane(hood, cfg.d))
    return out, fallbacks


@pytest.mark.parametrize("method,seed_fallbacks", [("ltp", 0), ("mbms", 0), ("smbms", 20), ("lsp", 20)])
def test_stacked_pass_matches_looped_fits(method, seed_fallbacks):
    # 20 = (9 collinear points + the ring center) per pass, two passes
    X = _mixed_cloud()
    cfg = DenoiseConfig(method=method, k=9, sigma=1.0, iters=2, d=1)
    out, fallbacks = denoise(X, cfg, return_info=True)
    expect, total = X, 0
    for _ in range(cfg.iters):
        expect, fb = _looped_pass(expect, cfg)
        total += fb
    assert fallbacks == total == seed_fallbacks
    scale = np.abs(expect).max()
    assert np.max(np.abs(out - expect)) <= 1e-12 * scale


@pytest.mark.parametrize("method,fitter", [("ltp", "pca"), ("smbms", "spca")])
def test_pass_fits_every_support_in_one_call(monkeypatch, method, fitter):
    X = _mixed_cloud()
    cfg = DenoiseConfig(method=method, k=9, sigma=1.0, iters=2, d=1)
    d2 = np.sum((X[knn_indices(X, cfg.k)] - X[:, None, :]) ** 2, axis=2)
    sizes = np.maximum(np.count_nonzero(d2 <= (SUPPORT_SIGMAS * cfg.sigma) ** 2, axis=1), cfg.d + 3)
    assert np.unique(sizes).size > 1  # guard: the supports differ in size
    calls, real = [], denoise_mod.fit_pieces

    def counting(rows, starts, d, f):
        calls.append((len(starts), d, f))
        return real(rows, starts, d, f)

    monkeypatch.setattr(denoise_mod, "fit_pieces", counting)
    denoise(X, cfg)
    assert calls == [(len(X), cfg.d, fitter)] * cfg.iters


@pytest.mark.parametrize("method", METHODS)
def test_pass_blocks_change_no_bit(monkeypatch, method):
    X = _mixed_cloud()
    cfg = DenoiseConfig(method=method, k=9, sigma=1.0, iters=2, d=1)
    results = []
    for rows in (1, 9 * 10, 1 << 30):  # k = 9: blocks of 1 point, of 10 (not dividing n), of all
        monkeypatch.setattr(denoise_mod, "PASS_BLOCK_ROWS", rows)
        results.append(denoise(X, cfg, return_info=True))
    (out, fallbacks), *others = results
    assert fallbacks == (20 if method in ("smbms", "lsp") else 0)  # guard: fallbacks are exercised
    for other, other_fallbacks in others:
        assert other_fallbacks == fallbacks
        assert np.array_equal(other, out)


@pytest.mark.parametrize("method", ["ltp", "smbms"])
def test_pass_fits_each_block_in_one_call(monkeypatch, method):
    X = _mixed_cloud()
    cfg = DenoiseConfig(method=method, k=9, sigma=1.0, iters=2, d=1)
    calls, real = [], denoise_mod.fit_pieces

    def recording(rows, starts, d, f):
        calls.append((rows, starts))
        return real(rows, starts, d, f)

    monkeypatch.setattr(denoise_mod, "fit_pieces", recording)
    denoise(X, cfg)
    whole, calls[:] = calls[:], []  # the default block holds all the points
    assert len(whole) == cfg.iters
    monkeypatch.setattr(denoise_mod, "PASS_BLOCK_ROWS", 9 * 10)  # 10 points a block
    denoise(X, cfg)
    m = -(-len(X) // 10)
    assert len(calls) == m * cfg.iters
    for p, (rows, starts) in enumerate(whole):
        blocks = calls[p * m : (p + 1) * m]
        assert [len(s) for _, s in blocks] == [10] * (m - 1) + [len(X) - 10 * (m - 1)]
        # the blocks' supports, in order, are the one call's supports
        assert np.array_equal(np.vstack([r for r, _ in blocks]), rows)
        offsets = np.cumsum([0] + [len(r) for r, _ in blocks[:-1]])
        assert np.array_equal(np.concatenate([s + o for (_, s), o in zip(blocks, offsets)]), starts)


def test_one_smbms_pass_peaks_below_8_mb():
    # the pass's temporaries are block-sized: about 4 MB at its peak;
    # all n * k neighborhood rows gathered at once peak at about 25 MB
    X = noisy_spiral(4000, 0.2, seed=0).points
    cfg = DenoiseConfig(method="smbms", k=36, sigma=1.0, d=1)
    tracemalloc.start()
    try:
        denoise(X, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_local_fits_use_only_neighbors_within_support():
    # a circle arc whose k-neighborhoods also reach a cluster farther than
    # SUPPORT_SIGMAS * sigma away: fitted to the arc alone, the local
    # sphere is the circle, so lsp leaves the arc points where they are
    theta = np.linspace(0.0, 0.5, 12)
    arc = np.column_stack([np.cos(theta), np.sin(theta)])
    cluster = np.array([[10.0, 0.0], [10.0, 0.5], [10.5, 0.0], [10.5, 0.5], [10.2, 0.2]])
    X = np.vstack([arc, cluster])
    cfg = DenoiseConfig(method="lsp", k=15, sigma=1.0, d=1)
    nbr = knn_indices(X, cfg.k)
    assert all(np.isin(np.arange(12, 17), nbr[i]).any() for i in range(12))  # guard
    out = denoise(X, cfg)
    assert np.max(np.abs(out[:12] - arc)) < 1e-8

    # a point with fewer than d + 3 neighbors within reach is fitted to
    # its d + 3 nearest
    far = np.vstack([arc[:-1], [[0.0, 30.0]]])
    cfg = DenoiseConfig(method="ltp", k=8, sigma=1.0, d=1)
    out = denoise(far, cfg)
    nbr = knn_indices(far, cfg.k)
    expect = project_plane(far[-1], fit_plane(far[nbr[-1, : cfg.d + 3]], cfg.d))
    assert np.allclose(out[-1], expect, atol=1e-12)
    wide = project_plane(far[-1], fit_plane(far[nbr[-1]], cfg.d))
    assert not np.allclose(out[-1], wide, atol=1e-6)  # the floor is what decided


def test_hood_distances_equal_the_row_sum_they_replaced():
    # the squared distances add the columns in order, as np.sum over the
    # 2-wide rows does: bit-equal on the 4000-point spiral
    X = noisy_spiral(4000, 0.2, seed=0).points
    nbr = knn_indices(X, 36)
    hoods, d2 = denoise_mod._hoods(X, nbr)
    assert np.array_equal(hoods, X[nbr])
    assert np.array_equal(d2, np.sum((X[nbr] - X[:, None, :]) ** 2, axis=2))


_SCALED_SPIRAL = noisy_spiral(150, 0.2, seed=3).points


def _normal(a) -> bool:
    """Every nonzero |a| is a normal float."""
    a = np.abs(np.asarray(a, dtype=float))
    a = a[a != 0.0]
    return bool(np.all((a >= np.finfo(float).tiny) & (a <= np.finfo(float).max)))


@settings(max_examples=40, deadline=None)
@given(method=st.sampled_from(METHODS), e=st.integers(-600, 600),
       sigma=st.sampled_from([0.3, 1.0, 3.0]))
def test_denoise_commutes_with_power_of_two_scaling(method, e, sigma):
    X = _SCALED_SPIRAL
    Xe, sigma_e = np.ldexp(X, e), float(np.ldexp(sigma, e))
    assume(_normal(Xe) and _normal(sigma_e))
    cfg = DenoiseConfig(method=method, k=12, sigma=sigma, iters=2, d=1)
    out, fallbacks = denoise(X, cfg, return_info=True)
    scaled = DenoiseConfig(method=method, k=12, sigma=sigma_e, iters=2, d=1)
    out_e, fallbacks_e = denoise(Xe, scaled, return_info=True)
    assert fallbacks_e == fallbacks
    assert np.array_equal(out_e, np.ldexp(out, e))


@settings(max_examples=40, deadline=None)
@given(e=st.integers(-600, 600), k=st.sampled_from([1, 5, 12]), sigma=st.sampled_from([0.3, 1.0, 3.0]))
def test_blur_step_commutes_with_power_of_two_scaling(e, k, sigma):
    # one gbms pass of denoise, so scale-free as denoise is: at 2^-565 the
    # input's own scale used to give NaN rows
    X = _SCALED_SPIRAL
    Xe, sigma_e = np.ldexp(X, e), float(np.ldexp(sigma, e))
    assume(_normal(Xe) and _normal(sigma_e))
    out = blur_step(X, k, sigma)
    assert np.array_equal(out, denoise(X, DenoiseConfig(method="gbms", k=k, sigma=sigma)))
    assert np.array_equal(blur_step(Xe, k, sigma_e), np.ldexp(out, e))


def test_blur_step_at_two_to_the_minus_565_is_the_unit_result():
    X = noisy_spiral(4000, 0.2, seed=0).points
    out = blur_step(np.ldexp(X, -565), 36, float(np.ldexp(1.0, -565)))
    assert np.isfinite(out).all()
    assert np.array_equal(out, np.ldexp(blur_step(X, 36, 1.0), -565))
