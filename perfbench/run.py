"""Scenario benchmark for cvsim: one workload per call, or all of them.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the benchmark imports cvsim from
src/.  Each workload runs in a fresh worker process (worker.py): one client,
closed loop, scenarios one at a time.  Set-up is timed on SETUP_SAMPLES fresh
processes (the worker itself, then SETUP_SAMPLES - 1 probes that the worker
starts one at a time, spread over its pass) and reported as their median.
The BLAS thread count of every child is fixed here, not inherited.  The
last stdout line is one JSON object: correct, attempted, failed and metrics
(end-to-end with --trace 0, per-layer with --trace 1).
Generated scenarios and outputs live under .perfbench/tmp and are removed at
the end; results (and, when traced, spans) are kept under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
# One BLAS thread: the client is single-threaded and runs one scenario at a
# time, and on small matrices (the gate's 48x48 expm loop) extra OpenBLAS
# threads cost far more in hand-offs than they compute.
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": ("s", "lower"),
    "scenarios_per_s": ("1/s", "higher"),
    "run_p50_s": ("s", "lower"),
    "run_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class BenchmarkError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _spawn(args, tmp):
    """Start the worker; returns (seconds from start to `ready`, stdout after it)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp), "--probes", str(SETUP_SAMPLES - 1)]
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise BenchmarkError(f"worker did not get ready: {line!r}")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchmarkError(f"worker exited with {proc.returncode}")
        return setup, out
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def run_workload(args):
    tmp = ROOT / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setup, out = _spawn(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not out.strip():
        raise BenchmarkError("worker printed no result")
    result = json.loads(out.decode().strip().splitlines()[-1])
    summary = result["summary"]
    untraced = result["untraced"]
    setups = [setup] + untraced["setup_s"]
    if args.trace:
        metrics = result["per_layer"]
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "scenarios_per_s": untraced["completed"] / untraced["busy_s"],
            "run_p50_s": summary["p50"],
            "run_tail_s": summary["tail"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setups,
        "tail_percentile": summary["tail_pct"], "runs": summary["n"],
        "raw_p50_s": result["raw_summary"]["p50"], "raw_tail_s": result["raw_summary"]["tail"],
        "slowdown": result["slowdown"],
        "failed_frac": result["failed"] / result["attempted"],
        **{k: result.get(k) for k in ("attempted", "failed", "errors", "context",
                                      "spans_file", "spans")},
        "coupling_reuse": untraced["coupling_reuse"],
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record):
    """Human-readable lines: context, every metric by name and unit, failures."""
    print(f"# workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}")
    print(f"# context {json.dumps(record['context'], sort_keys=True)}")
    for name, m in record["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(record['setup_samples_s'])} fresh processes)"
        elif name == "run_tail_s" and record["tail_percentile"] == 50.0:
            note = f"  (the median: {record['runs']} runs leave no 10 above a higher one)"
        elif name == "run_tail_s":
            note = f"  (p{record['tail_percentile']:.1f} of {record['runs']} runs, 10 above it)"
        elif name == "run_p50_s":
            note = f"  ({record['runs']} runs; wall {record['raw_p50_s']:.6g} s)"
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(f"# run times are wall times over the machine slowdown measured by the "
          f"calibration kernel around each run (median {record['slowdown']:.4g})")
    print(f"failed_frac {record['failed_frac']:.6g} ratio  "
          f"({record['failed']} of {record['attempted']} scenario runs)")
    if record["coupling_reuse"] is not None:
        print(f"# coupling_g reuse {record['coupling_reuse']:.3f} of gate runs")
    if record.get("spans_file"):
        print(f"# {record['spans']} spans written to {record['spans_file']}")
    for error in record["errors"]:
        print(f"# failed: {error}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description="cvsim scenario benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cvsim" / "__init__.py").is_file():
        print(f"error: no cvsim sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = {}
    for name in names:
        try:
            records[name] = run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
        except (BenchmarkError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        report(records[name])

    def line(record):
        return {"correct": record["failed"] == 0, "attempted": record["attempted"],
                "failed": record["failed"], "metrics": record["metrics"]}

    if args.workload == "all":
        print(json.dumps({name: line(r) for name, r in records.items()}))
    else:
        print(json.dumps(line(records[args.workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
