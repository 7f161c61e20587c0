"""The benchmark's own entry point runs on this checkout's library.

The sources, the benchmark and its manifest are copied into a temporary
directory, and ``perfbench/run.py`` runs a workload there at a twentieth
of its sizes for one second, untraced and traced: ``embed-enneper``;
``model-enneper``, whose ``fit -> project`` CLI unit and checks of the
model file's pieces and the printed ``overall_mse`` no other test runs;
and ``denoise-spiral``, whose ``denoise`` CLI unit is checked by the mean
squared distance of its output to the clean spiral, the path that
``numeric.knn_indices`` feeds. A library change that breaks the
benchmark's CLI runs, or its traced replay of the library's layers,
fails here.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, root / name, ignore=ignore)
    shutil.copy2(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def _assert_runs_correct(checkout, workload, trace):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--scale", "0.05", "--trace", trace],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result


@pytest.mark.parametrize("trace", ["0", "1"])
def test_embed_workload_runs_correct(checkout, trace):
    _assert_runs_correct(checkout, "embed-enneper", trace)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_model_workload_runs_correct(checkout, trace):
    _assert_runs_correct(checkout, "model-enneper", trace)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_denoise_workload_runs_correct(checkout, trace):
    _assert_runs_correct(checkout, "denoise-spiral", trace)
