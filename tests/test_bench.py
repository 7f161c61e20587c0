import re

import numpy as np
import pytest

from spherelets.bench import bench_curve, parse_dataset_spec, rate_study
from spherelets.exceptions import ParameterError


def test_parse_dataset_spec():
    ds = parse_dataset_spec("euler:ntrain=400,ntest=200")
    assert ds == {"name": "euler", "ntrain": 400.0, "ntest": 200.0}
    assert parse_dataset_spec("circle") == {"name": "circle"}
    with pytest.raises(ParameterError):
        parse_dataset_spec("mnist")
    with pytest.raises(ParameterError):
        parse_dataset_spec("euler:oops")


def test_bench_eps_grid_validation():
    with pytest.raises(ParameterError):
        bench_curve("circle", 1, [])
    with pytest.raises(ParameterError):
        bench_curve("circle", 1, [1e-3, 1e-2])
    with pytest.raises(ParameterError, match="strictly decreasing"):
        bench_curve("circle", 1, [1e-3, float("nan")])  # used to fit at 1e-3 first
    with pytest.raises(ParameterError):
        bench_curve("circle", 1, [1e-2], methods=("svd",))


def test_bench_exact_circle_single_piece():
    records = bench_curve(
        "circle:ntrain=200,ntest=200", 1, [1e-2, 1e-4, 1e-6], methods=("spca",), seed=0
    )
    assert len(records) == 3
    for r in records:
        assert r.pieces == 1
        assert r.test_mse < 1e-10
        assert r.wall_time >= 0.0


def test_bench_huge_eps_single_piece_both_methods():
    records = bench_curve(
        "euler:ntrain=300,ntest=300", 1, [10.0], methods=("spca", "pca"), seed=0
    )
    assert all(r.pieces == 1 for r in records)


def test_bench_pieces_monotone_in_eps():
    eps_grid = [1e-3, 1e-5, 1e-7, 1e-9]
    records = bench_curve(
        "euler:ntrain=800,ntest=400", 1, eps_grid, methods=("spca", "pca"), seed=0
    )
    for method in ("spca", "pca"):
        pieces = [r.pieces for r in records if r.method == method]
        assert pieces == sorted(pieces)


def test_bench_deterministic():
    a = bench_curve("euler:ntrain=300,ntest=300", 1, [1e-5], seed=3)
    b = bench_curve("euler:ntrain=300,ntest=300", 1, [1e-5], seed=3)
    for ra, rb in zip(a, b):
        assert (ra.pieces, ra.train_mse, ra.test_mse) == (rb.pieces, rb.train_mse, rb.test_mse)


def test_rate_study_validation():
    with pytest.raises(ParameterError):
        rate_study([0.1, 0.5])  # under one decade
    for grid in ([], [np.nan, 1.0], [0.05, np.inf]):
        with pytest.raises(ParameterError, match="finite positive"):
            rate_study(grid)
    # arcs longer than the curve: there would be none to fit
    with pytest.raises(ParameterError, match=r"curve length 2.0, got 3.0, 5.0$"):
        rate_study([0.5, 5.0, 0.2, 3.0])


def test_rate_study_slopes_separate():
    slopes, records = rate_study(list(np.geomspace(0.05, 0.5, 5)))
    assert 3.5 <= slopes["pca"] <= 4.5
    assert slopes["spca"] >= slopes["pca"] + 1.5
    assert any(r.method == "spca" for r in records)
    assert all(r.mse >= 0 for r in records)


def test_parse_dataset_spec_counts_are_integers():
    ds = parse_dataset_spec("euler:ntrain=1e3, ntest=20,smax=1.5")
    assert ds == {"name": "euler", "ntrain": 1000, "ntest": 20, "smax": 1.5}
    assert type(ds["ntrain"]) is int and type(ds["smax"]) is float
    assert parse_dataset_spec("spiral:noise=0.1")["noise"] == 0.1
    assert parse_dataset_spec("circle:radius=2")["radius"] == 2.0


@pytest.mark.parametrize("spec,message", [
    ("euler:ntrain=abc", "option ntrain must be a finite integer, got 'abc'"),
    ("euler:ntrain=inf", "option ntrain must be a finite integer, got 'inf'"),
    ("euler:ntest=nan", "option ntest must be a finite integer, got 'nan'"),
    ("euler:ntrain=2.5", "option ntrain must be a finite integer, got '2.5'"),
    ("spiral:noise=inf", "option noise must be a finite number, got 'inf'"),
    ("circle:radius=", "option radius must be a finite number, got ''"),
    ("euler:bogus=1", "unknown option 'bogus' of dataset 'euler'; expected one of ntrain, ntest, smax"),
    ("circle:smax=1", "unknown option 'smax' of dataset 'circle'"),
    ("spiral:radius=1", "unknown option 'radius' of dataset 'spiral'"),
])
def test_parse_dataset_spec_rejects_bad_options(spec, message):
    # these used to end in a traceback, be truncated or be ignored
    with pytest.raises(ParameterError, match=re.escape(message)):
        parse_dataset_spec(spec)


def test_rate_study_rejects_unknown_method():
    # it used to fit the unknown method's segments as pca
    with pytest.raises(ParameterError, match="unknown method 'bogus'"):
        rate_study([0.05, 0.5], methods=("spca", "bogus"))
