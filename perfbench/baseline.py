"""Record a baseline: every workload, untraced and traced, at given seeds.

    python3 perfbench/baseline.py --seeds 0,77 --out perfbench/baseline.json

Runs ``run.py`` once per workload, seed and trace setting, with the
run length from BENCHMARK.json, and writes each result object together
with the environment and the per-command timings of its run record.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="comma list, e.g. 0,77")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for seed in (int(s) for s in args.seeds.split(",")):
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                proc = subprocess.run(
                    [*spec["command"], "--workload", workload, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
                )
                record = json.loads((ROOT / "perfbench" / "out" /
                                     f"{workload}-s{seed}-t{trace}.json").read_text(encoding="utf-8"))
                runs.append({
                    "workload": workload, "seed": seed, "trace": trace,
                    "result": json.loads(proc.stdout.strip().splitlines()[-1]),
                    "command_s": record["command_s"], "per_command_s": record["per_command_s"],
                    "quality": record["quality"], "environment": record["environment"],
                })
                print(workload, seed, trace, "done", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"run_seconds": spec["run_seconds"], "runs": runs}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
