"""Run the benchmark: every workload, or one, each in a fresh process.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The program is imported from its `src/`
directory, never from an installed copy.  Each workload runs in a process
of its own, so that `peak_rss_mb`, a process high-water mark, belongs to that
workload alone.  BLAS threads are fixed before numpy loads in that process.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  Without
--workload, all four run in turn and the last line merges their results,
naming each metric `<workload>/<metric>`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train-desk", "train-paper", "eval-charades", "eval-tsu")
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
CHILD_TIMEOUT_S = 170


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"        # the same set and dict layouts in every run
    cmd = [sys.executable, str(Path(__file__).with_name("workload.py")), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"workload {name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "aan" / "__init__.py").is_file():
        print(f"no program to measure: {root / 'src' / 'aan'} is missing", file=sys.stderr)
        return 2
    print(json.dumps({"blas_threads": BLAS_THREADS}))

    if args.workload:
        print(json.dumps(run_workload(root, args.workload, args.seed, args.seconds, args.trace)))
        return 0

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result = run_workload(root, name, args.seed, args.seconds, args.trace)
        print(json.dumps({"workload": name, **result}))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
