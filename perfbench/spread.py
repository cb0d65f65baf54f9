"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py --workloads gate detector --seeds 1-10

Runs run.py once per seed and workload (untraced), then prints each metric's
median, quartiles and spread (quartile distance over the median, as
statistics.quantiles(values, n=4) gives them) next to the metric's bound from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(workloads, seeds, seconds):
    values = {w: {} for w in workloads}
    for w in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            if done.returncode != 0:
                raise SystemExit(f"{w} seed {seed} failed:\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"# {w} seed {seed}: {result['failed']} of {result['attempted']} runs failed")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"# {w} seed {seed}: " + "  ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
                + f"  (run took {wall:.1f} s)", flush=True)
    return values


def spread_table(values, bounds):
    for w, metrics in values.items():
        for name, vals in metrics.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            bound = bounds[name]["bound"]
            flag = "" if spread < bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"{w:12s} {name:16s} median {q2:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {spread:.4f}  bound {bound}{flag}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    spec, bounds = _bounds()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    values = collect(workloads, _seeds(args.seeds), args.seconds or spec["run_seconds"])
    spread_table(values, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
