"""Every script under demos/ and tools/ runs to completion, the
package exports every name it lists, and no removed name or parameter
comes back."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spherelets
from spherelets import bench, datasets, numeric, spca

ROOT = Path(__file__).resolve().parents[1]


def _run(tmp_path, script, *args):
    # run where its output files may land, against the sources in src/
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run([sys.executable, str(script), *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_exits_zero(tmp_path, demo):
    _run(tmp_path, demo)


@pytest.mark.parametrize("tool", sorted((ROOT / "tools").glob("*.py")), ids=lambda p: p.stem)
def test_tool_exits_zero(tmp_path, tool):
    # one timed call per step: this checks the tools still run, not their timings
    _run(tmp_path, tool, "--reps", "1")


def test_every_exported_name_resolves():
    missing = [name for name in spherelets.__all__ if not hasattr(spherelets, name)]
    assert not missing


# the one-set SPCA names whose forms now live in the piece table or in
# tests/oracles.py (README, "Removed names")
REMOVED_SPCA_NAMES = ("Hyperplane", "SphereFitDiagnostics", "fit_hyperplane", "project_plane",
                      "sphere_residual_sq", "sphere_distance", "sphere_fit_loss", "optimal_offset")


@pytest.mark.parametrize("name", REMOVED_SPCA_NAMES)
def test_removed_spca_name_stays_removed(name):
    assert not hasattr(spherelets, name) and name not in spherelets.__all__
    assert not hasattr(spca, name)


# the one-query neighbor search and its record, and the checked distance
# wrapper: knn_indices is the one neighbor search (README, "Removed names")
REMOVED_NUMERIC_NAMES = ("knn", "NeighborList", "pairwise_sq_dists")


@pytest.mark.parametrize("name", REMOVED_NUMERIC_NAMES)
def test_removed_numeric_name_stays_removed(name):
    assert not hasattr(spherelets, name) and name not in spherelets.__all__
    assert not hasattr(numeric, name)


@pytest.mark.parametrize("func, removed", [
    (datasets.euler_spiral, "equispaced"),
    (datasets.noisy_spiral, "equispaced"),
    (datasets.curve_grid, "param_max"),
    (datasets.distance_to_curve, "param_max"),
    (bench.rate_study, "seed"),
], ids=lambda v: getattr(v, "__name__", v))
def test_removed_parameter_stays_removed(func, removed):
    assert removed not in inspect.signature(func).parameters
