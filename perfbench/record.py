"""Run every workload for one seed and record the results as the baseline.

    python3 perfbench/record.py --seed 1

Runs run.py on each workload with --trace 0 and then --trace 1, passing its
output through, so every metric is printed by name with its unit.  Then it
writes BENCHMARK.json (workloads, metrics and bounds, from spec.py) and
perfbench/baseline.json (run environment, these results, and which layer
metric is expected to move which end-to-end metric on which workload).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": spec.RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in spec.WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in spec.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in spec.PER_LAYER
        ],
    }


def _commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    results = {
        name: {"why": why, "end_to_end": _run(name, args.seed, 0), "per_layer": _run(name, args.seed, 1)}
        for name, why in spec.WORKLOADS
    }
    baseline = {
        "seed": args.seed,
        "commit": _commit(),
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "run_seconds": spec.RUN_SECONDS,
        "workloads": results,
        "predictions": spec.PREDICTIONS,
    }
    for path, doc in ((ROOT / "BENCHMARK.json", benchmark_json()), (HERE / "baseline.json", baseline)):
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0 if all(r[key]["correct"] for r in results.values() for key in ("end_to_end", "per_layer")) else 1


if __name__ == "__main__":
    sys.exit(main())
