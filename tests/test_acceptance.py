"""Acceptance gate: one test per criterion, run at the stated tolerances.

Each test prints a PASS line with its measured numbers (visible with
``pytest -s``); a failing assert prints the same measurements. Criterion
2 carries a clause (2b) that is structurally unattainable on this data;
it is implemented exactly as stated and fails honestly, with a passing
companion test pinning down the substance the clause was after.
"""

import time

import numpy as np

from oracles import Hyperplane, optimal_offset, principal_angles, project_plane, sphere_fit_loss
from spherelets.bench import rate_study
from spherelets.cli import EXIT_OK, main as cli_main
from spherelets.datasets import (
    distance_to_curve,
    euler_spiral,
    load_iris,
    noisy_spiral,
    sphere_sample,
)
from spherelets.denoise import DenoiseConfig, denoise
from spherelets.embed import (
    EmbedConfig,
    affinities,
    embed,
    kl_gradient,
    kl_objective,
    knn_distances,
)
from spherelets.model import fit, load
from spherelets.numeric import knn_indices
from spherelets.partition import route
from spherelets.spca import fit_sphere, project_sphere

SEED = 0


# -- criterion 1: exact sphere recovery ---------------------------------------


def test_criterion_1_exact_sphere_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst_r = worst_c = worst_ang = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        D = int(rng.integers(d + 1, 11))
        r = float(rng.uniform(0.5, 5.0))
        c = rng.uniform(-2.0, 2.0, size=D)
        seed = int(rng.integers(0, 2**31))
        X = sphere_sample(50, d, D, c, r, seed=seed)
        s, _ = fit_sphere(X, d)
        assert not s.degenerate
        g = np.random.default_rng(seed)
        V, R = np.linalg.qr(g.normal(size=(D, d + 1)))
        V = V * np.sign(np.diag(R))[None, :]
        worst_r = max(worst_r, abs(s.radius - r) / r)
        worst_c = max(worst_c, float(np.linalg.norm(s.center - c)) / (1 + float(np.linalg.norm(c))))
        worst_ang = max(worst_ang, float(principal_angles(s.frame, V).max()))
    elapsed = time.perf_counter() - t0
    assert worst_r < 1e-6
    assert worst_c < 1e-6
    assert worst_ang < 1e-6
    assert elapsed < 10.0
    print(
        f"PASS criterion 1: 200 configs, worst rel radius {worst_r:.2e}, "
        f"center {worst_c:.2e}, angle {worst_ang:.2e} rad, {elapsed:.2f}s"
    )


# -- criterion 2: euler spiral benchmark --------------------------------------


def _euler_min_leaves(method, target, eps_grid):
    train = euler_spiral(2500, 2.0, seed=SEED).points
    test = euler_spiral(2500, 2.0, seed=SEED + 1).points
    best = None
    for eps in eps_grid:
        model = fit(train, 1, eps, fitter=method)
        test_mse, _ = model.mse(test)
        if test_mse <= target and (best is None or model.n_pieces < best):
            best = model.n_pieces
    return best


def test_criterion_2a_spca_reaches_1e4_with_few_leaves():
    t0 = time.perf_counter()
    leaves = _euler_min_leaves("spca", 1e-4, [1e-3, 3e-4, 1e-4])
    elapsed = time.perf_counter() - t0
    assert leaves is not None and leaves <= 30
    print(f"PASS criterion 2a: spca reaches test MSE <= 1e-4 with {leaves} leaves, {elapsed:.1f}s")


def test_criterion_2b_pca_needs_80_leaves_for_1e4():
    # As stated: local PCA must need >= 80 leaves before its predictive
    # mean squared distance drops to 1e-4. On this curve a mean SQUARED
    # error of 1e-4 (RMS deviation 0.01 on a size-1 object) is reached by
    # a handful of tangent-line pieces, so the clause cannot hold; the
    # expected piece counts (tens of sphere pieces vs ~100+ line pieces)
    # emerge at squared error 1e-8, i.e. when the 1e-4 threshold is read
    # on the RMS scale. See the equal-error companion test below for that
    # rendition.
    t0 = time.perf_counter()
    leaves = _euler_min_leaves("pca", 1e-4, [1e-3, 3e-4, 1e-4])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert leaves is not None and leaves >= 80, (
        f"FAIL criterion 2b (known defect): pca reaches test MSE <= 1e-4 with "
        f"{leaves} leaves, not >= 80; the intended piece-count separation "
        f"corresponds to squared error ~1e-8 (RMS 1e-4)"
    )
    print(f"PASS criterion 2b: pca needs {leaves} leaves, {elapsed:.1f}s")


def test_criterion_2_companion_equal_error_1e8():
    # the substance of the benchmark at the squared-consistent error level:
    # spca needs ~14 pieces and pca ~120 where both reach MSE <= 1e-8
    t0 = time.perf_counter()
    target = 1e-8
    grid = [3e-8, 1e-8, 3e-9]
    spca_leaves = _euler_min_leaves("spca", target, grid)
    pca_leaves = _euler_min_leaves("pca", target, grid)
    elapsed = time.perf_counter() - t0
    assert spca_leaves is not None and spca_leaves <= 30
    assert pca_leaves is not None and pca_leaves >= 60
    assert pca_leaves >= 2.6 * spca_leaves
    assert elapsed < 60.0
    print(
        f"PASS criterion 2 companion: at MSE <= 1e-8, spca {spca_leaves} vs "
        f"pca {pca_leaves} leaves, {elapsed:.1f}s"
    )


# -- criterion 3: projection optimality ---------------------------------------


def test_criterion_3_projection_beats_dense_grid():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    checked = 0
    while checked < 100:
        d = int(rng.integers(1, 3))
        D = int(rng.integers(d + 1, 6))
        r = float(rng.uniform(0.5, 3.0))
        c = rng.uniform(-1.0, 1.0, size=D)
        X = sphere_sample(40, d, D, c, r, seed=checked + 77)
        s, _ = fit_sphere(X, d)
        x = rng.uniform(-3.0, 3.0, size=D)
        p = project_sphere(x, s)
        g = np.random.default_rng(checked + 1000)
        u = g.normal(size=(100_000, d + 1))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        grid = s.center + s.radius * (u @ s.frame.T)
        grid_min = float(np.linalg.norm(grid - x, axis=1).min())
        assert np.linalg.norm(x - p) <= grid_min + 1e-9
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 3: 100 projections beat their 1e5-point grids, {elapsed:.1f}s")


# -- criterion 4: error-rate separation ---------------------------------------


def test_criterion_4_rate_separation():
    t0 = time.perf_counter()
    alpha_grid = list(np.geomspace(0.05, 0.5, 6))
    slopes, records = rate_study(alpha_grid)
    spca_records = [r for r in records if r.method == "spca"]
    alpha_max = max(r.alpha for r in spca_records)
    theta = max(r.mse / r.alpha**4 for r in spca_records if r.alpha == alpha_max)
    violations = [r for r in spca_records if r.mse > theta * r.alpha**4 * (1 + 1e-9)]
    elapsed = time.perf_counter() - t0
    assert 3.5 <= slopes["pca"] <= 4.5
    assert slopes["spca"] >= slopes["pca"] + 1.5
    assert not violations
    assert elapsed < 30.0
    print(
        f"PASS criterion 4: pca slope {slopes['pca']:.2f}, spca slope "
        f"{slopes['spca']:.2f}, theta {theta:.2e} bounds all segments, {elapsed:.1f}s"
    )


# -- criterion 5: stationarity of the algebraic loss --------------------------


def test_criterion_5_stationarity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(999)
    n_sets = 0
    while n_sets < 50:
        d = int(rng.integers(1, 3))
        D = int(rng.integers(d + 1, 7))
        n = int(rng.integers(d + 5, 40))
        X = sphere_sample(n, d, D, rng.uniform(-1, 1, D), rng.uniform(0.5, 3.0), seed=n_sets)
        X = X + rng.normal(0.0, 0.1, size=X.shape)
        s, _ = fit_sphere(X, d)
        if s.degenerate:
            continue
        Y = project_plane(X, Hyperplane(mu=s.mu, frame=s.frame))
        f_hat = -2.0 * s.center
        g0 = sphere_fit_loss(Y, f_hat)
        h = 1e-6 * (1 + np.linalg.norm(f_hat))
        grad = np.zeros(D)
        for j in range(D):
            e = np.zeros(D)
            e[j] = h
            grad[j] = (sphere_fit_loss(Y, f_hat + e) - sphere_fit_loss(Y, f_hat - e)) / (2 * h)
        assert np.linalg.norm(grad) <= 1e-6 * (1 + abs(g0))
        b_hat = optimal_offset(Y, f_hat)
        hb = 1e-6 * (1 + abs(b_hat))
        db = (sphere_fit_loss(Y, f_hat, b_hat + hb) - sphere_fit_loss(Y, f_hat, b_hat - hb)) / (2 * hb)
        assert abs(db) <= 1e-6 * (1 + abs(g0))
        for _ in range(100):
            delta = rng.normal(size=D)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert sphere_fit_loss(Y, f_hat + delta) >= g0 - 1e-9 * (1 + abs(g0))
        n_sets += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 5: gradient and offset stationary on 50 datasets, {elapsed:.1f}s")


# -- criterion 6: denoising ----------------------------------------------------


def _denoise_msd(method):
    sample = noisy_spiral(500, 0.2, seed=SEED)
    base = float(np.mean(distance_to_curve(sample.points, "spiral", 100_000) ** 2))
    cfg = DenoiseConfig(method=method, k=36, sigma=1.0, iters=1, d=1)
    out = denoise(sample.points, cfg)
    msd = float(np.mean(distance_to_curve(out, "spiral", 100_000) ** 2))
    return base, msd


def test_criterion_6a_smbms_halves_error():
    t0 = time.perf_counter()
    base, msd = _denoise_msd("smbms")
    elapsed = time.perf_counter() - t0
    assert msd <= 0.5 * base
    assert elapsed < 30.0
    print(
        f"PASS criterion 6a: smbms msd {msd:.2e} vs noisy {base:.2e} "
        f"({(1 - msd / base) * 100:.0f}% reduction), {elapsed:.1f}s"
    )


def test_criterion_6b_smbms_at_least_matches_gbms():
    # As stated: with the prescribed parameters (k=36, sigma=1) smbms must
    # reduce the mean squared distance at least as much as blurring alone.
    # At the sparse outer end of this spiral the 36-point neighborhood
    # spans ~17 length units while adjacent strands are ~12.6 apart. The
    # local sphere is fitted only to the neighbors within
    # denoise.SUPPORT_SIGMAS * sigma = 6 of the point, the blur kernel's
    # effective support, so it sees one strand, as the blur weights do;
    # fitted to all 36 it would span two strands and misproject the
    # endpoint points (msd 9.9e-3 against gbms 4.3e-3 at this seed).
    t0 = time.perf_counter()
    base, msd_s = _denoise_msd("smbms")
    _, msd_g = _denoise_msd("gbms")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert msd_s <= msd_g, (
        f"FAIL criterion 6b (known defect): smbms msd {msd_s:.3e} vs gbms "
        f"{msd_g:.3e}; endpoint neighborhoods mix spiral strands at k=36"
    )
    print(f"PASS criterion 6b: smbms msd {msd_s:.2e} <= gbms {msd_g:.2e}, {elapsed:.1f}s")


# -- criterion 7: embedding -----------------------------------------------------


def test_criterion_7_iris_embedding():
    t0 = time.perf_counter()
    X, labels = load_iris()
    cfg = EmbedConfig(m=2, k=20, sigma=60.0, iters=1000, learning_rate=100.0,
                      distance_mode="spherical", seed=SEED)
    D = knn_distances(X, 2, cfg.k, cfg.distance_mode)
    P = affinities(D, cfg.sigma)
    Y, log = embed(P, cfg, return_log=True)
    kls = [v for _, v in log]
    assert all(b <= a + 1e-15 for a, b in zip(kls, kls[1:]))
    assert kls[-1] < kls[0]
    # each row's nearest other row (a duplicate of lower index comes first)
    nbr = knn_indices(Y, 2)
    nearest = np.where(nbr[:, 0] == np.arange(len(Y)), nbr[:, 1], nbr[:, 0])
    agreement = np.mean(labels[nearest] == labels)
    assert agreement >= 0.85

    # gradient of the KL objective vs central differences at n = 20
    rng = np.random.default_rng(8)
    n, m = 20, 2
    A = rng.uniform(0.1, 1.0, size=(n, n))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    Ps = A / A.sum()
    Ys = rng.normal(size=(n, m))
    grad = kl_gradient(Ps, Ys)
    fd = np.zeros_like(Ys)
    h = 1e-5
    for i in range(n):
        for j in range(m):
            Yp, Ym = Ys.copy(), Ys.copy()
            Yp[i, j] += h
            Ym[i, j] -= h
            fd[i, j] = (kl_objective(Ps, Yp) - kl_objective(Ps, Ym)) / (2 * h)
    rel = np.linalg.norm(grad - fd) / (1 + np.linalg.norm(grad))
    assert rel <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"PASS criterion 7: KL {kls[0]:.3f} -> {kls[-1]:.3f} non-increasing, "
        f"1-NN agreement {agreement:.3f}, grad-check {rel:.1e}, {elapsed:.1f}s"
    )


# -- criterion 8: determinism and round-trip ------------------------------------


def _run_cli(*argv):
    assert cli_main(list(argv)) == EXIT_OK


def test_criterion_8_cli_determinism_and_round_trip(tmp_path):
    t0 = time.perf_counter()
    data = tmp_path / "data.csv"
    noisy = tmp_path / "noisy.csv"
    model = tmp_path / "model.json"
    proj = tmp_path / "proj.csv"
    clean = tmp_path / "denoised.csv"
    emb = tmp_path / "emb.csv"
    emlog = tmp_path / "emlog.csv"
    bench_out = tmp_path / "bench.csv"
    rate_out = tmp_path / "rate.csv"

    def snapshot():
        _run_cli("generate", "--dataset", "euler", "--n", "300", "--seed", "0",
                 "--out", str(data))
        _run_cli("generate", "--dataset", "spiral", "--n", "150", "--noise", "0.2",
                 "--seed", "1", "--out", str(noisy))
        _run_cli("fit", "--input", str(data), "--d", "1", "--eps", "1e-6",
                 "--method", "spca", "--out", str(model))
        _run_cli("project", "--model", str(model), "--input", str(data),
                 "--out", str(proj))
        _run_cli("denoise", "--input", str(noisy), "--method", "smbms", "--k", "20",
                 "--sigma", "1.0", "--iters", "1", "--d", "1", "--out", str(clean))
        _run_cli("embed", "--input", str(noisy), "--mode", "spherical", "--d", "1",
                 "--m", "2", "--k", "12", "--sigma", "5.0", "--iters", "200",
                 "--lr", "50", "--seed", "0", "--out", str(emb), "--log", str(emlog))
        _run_cli("bench", "--dataset", "euler:ntrain=200,ntest=200", "--d", "1",
                 "--eps-grid", "1e-4,1e-6", "--methods", "spca,pca", "--seed", "0",
                 "--out", str(bench_out))
        _run_cli("rate", "--alpha-grid", "0.05,0.11,0.23,0.5", "--methods",
                 "spca,pca", "--out", str(rate_out))
        out = {}
        for p in (data, noisy, model, proj, clean, emb, emlog, rate_out):
            out[p.name] = p.read_text()
        # wall_time is measurement metadata, not a numeric result
        out["bench.csv"] = "\n".join(
            ",".join(line.split(",")[:5]) for line in bench_out.read_text().splitlines()
        )
        return out

    first = snapshot()
    second = snapshot()
    for name in first:
        assert first[name] == second[name], f"output {name} not reproducible"

    # model save/load round trip: 100 probes, identical routing, <= 1e-12 drift
    m0 = load(str(model))
    rng = np.random.default_rng(5)
    probes = rng.uniform(-0.3, 1.3, size=(100, 2))
    m0.save(str(tmp_path / "model2.json"))
    m1 = load(str(tmp_path / "model2.json"))
    drift = 0.0
    for x in probes:
        assert route(x, m0.tree) == route(x, m1.tree)
        drift = max(drift, float(np.max(np.abs(m0.project(x) - m1.project(x)))))
    assert drift <= 1e-12
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 8: all CLI outputs reproduce; round-trip drift {drift:.1e}, {elapsed:.1f}s")
