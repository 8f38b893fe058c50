"""Check that the benchmark is steady: run it on several seeds per workload
and print, for each end-to-end metric, the median and the interquartile
spread as a share of the median, against the metric's bound.

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...] [--first-seed 1]

Each run is a separate ``run.py`` process with tracing off and the
``run_seconds`` of BENCHMARK.json.  Exits 1 if a spread (other than that of
``setup_s``) exceeds its bound or a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or WORKLOADS:
        values: dict = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n}={v[-1]:.4f}" for n, v in values.items()), flush=True)
        for name, vals in values.items():
            spread = stats.spread(vals)
            flag = "" if spread <= bounds[name] / 3 else "  (above a third of the bound)"
            if name != "setup_s" and spread > bounds[name]:
                ok, flag = False, "  ABOVE BOUND"
            print(f"{workload} {name}: median {stats.median(vals):.4f} "
                  f"spread {spread:.4f} bound {bounds[name]}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
