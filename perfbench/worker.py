"""One benchmark pass in a fresh process: import, warm up, closed loop, checks.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --tmp DIR [--probe]

The worker prints `ready` once cvsim is imported and one untimed warm-up
scenario has run; run.py times process start to that line as set-up.  With
--probe it stops there.  Otherwise one client runs the workload's scenarios
one at a time through `cvsim.cli.main(["run", ...])` until --seconds have
passed, checks every run, runs the workload's pass-level check (if any) over
the whole pass, re-runs the pass's first scenario for a byte-identical
manifest.json, and prints one JSON line of results.  During
the untraced pass it starts --probes set-up probes (this script with --probe)
one at a time, spread evenly over the pass and off its clock, so the set-up
samples see the machine at different moments.  With --trace 1 a traced pass
follows, on scenarios drawn from a stream of its own.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, CheckFailed, check_manifest  # noqa: E402
from tracing import Tracer  # noqa: E402


class Client:
    """Runs scenarios through the in-process CLI, one at a time, and checks them."""

    def __init__(self, cli, workload, tmp):
        self.cli = cli
        self.workload = workload
        self.tmp = tmp
        self.root = ROOT
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.tracer = None
        self.pass_stats = []  # what the workload's check returned, for its pass check

    def run(self, kind, params, seed, check=None, scenario_id=-1):
        """One `cvsim run --strict`; returns (seconds, manifest bytes or None)."""
        self.count += 1
        self.attempted += 1
        scenario = self.tmp / f"scenario-{self.count}.json"
        out = self.tmp / f"out-{self.count}"
        scenario.write_text(json.dumps({"kind": kind, "seed": seed, "parameters": params}))
        argv = ["run", str(scenario), "--output-dir", str(out), "--strict"]
        if self.tracer is not None:
            self.tracer.current = scenario_id
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:  # a crash is a failed run, not a crashed benchmark
            traceback.print_exc()
            code = "exception"
        seconds = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.current = -1  # the checks below are not the program's work
        manifest = None
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            manifest = (out / "manifest.json").read_bytes()
            artifacts = check_manifest(out)
            stat = (check or self.workload.check)(kind, params, out)
            if stat is not None:
                self.pass_stats.append(stat)
            if self.tracer is not None and scenario_id >= 0:
                self.tracer.add("cli.artifact_bytes",
                                sum(a["bytes"] for a in artifacts["artifacts"]), scenario_id)
        except Exception as exc:  # any defect in the artifacts fails the run
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{kind} seed {seed}: {type(exc).__name__}: {exc}")
            manifest = None
        finally:
            shutil.rmtree(out, ignore_errors=True)
            scenario.unlink()
        return seconds, manifest


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


PROBE_TIMEOUT_S = 60.0


def probe_setup(argv):
    """Seconds from starting a --probe worker until its `ready` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        seconds = time.perf_counter() - t0
        if line.strip() != b"ready" or proc.wait(timeout=PROBE_TIMEOUT_S) != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
        return seconds
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def closed_loop(client, seed, seconds, traced=False, probes=0, probe_argv=None):
    """One pass: run scenarios back to back for `seconds`, then the pass checks.

    The workload's calibration kernel runs before the first scenario and after
    every one (untimed).  A run's slowdown is the mean of the kernel times on
    either side of it over the kernel's reference time; its corrected time is
    its wall time over that slowdown: seconds at the reference machine's speed.
    Set-up probes run between scenarios at every seconds/(probes + 1) of the
    pass; their time is not counted as the pass's.
    """
    workload = client.workload
    rng = random.Random(f"{workload.name}:{seed}" + (":traced" if traced else ""))
    times, couplings, setups = [], [], []
    kernel = [_timed(workload.kernel)]
    client.pass_stats = []
    completed = 0
    first = first_manifest = None
    start = time.perf_counter()
    paused = 0.0  # time spent in set-up probes, off the pass's clock
    while not times or time.perf_counter() - start - paused < seconds:
        if len(setups) < probes and (
                time.perf_counter() - start - paused >= (len(setups) + 1) * seconds / (probes + 1)):
            t0 = time.perf_counter()
            setups.append(probe_setup(probe_argv))
            paused += time.perf_counter() - t0
        kind, params = workload.draw(rng, len(times))
        scenario_seed = rng.randrange(2**31)
        dt, manifest = client.run(kind, params, scenario_seed,
                                  scenario_id=len(times) if traced else -1)
        kernel.append(_timed(workload.kernel))
        if first is None:
            first, first_manifest = (kind, params, scenario_seed), manifest
        times.append(dt)
        completed += manifest is not None
        if "coupling_g" in params:
            couplings.append(params["coupling_g"])

    while len(setups) < probes:  # a pass of a few long runs can end before its last probes
        setups.append(probe_setup(probe_argv))

    if workload.pass_check is not None:
        try:
            workload.pass_check(client.pass_stats)
        except CheckFailed as exc:
            client.failed += 1
            client.errors.append(f"pass check: {exc}")

    # reproducibility: the first scenario again must give the same manifest bytes
    _, again = client.run(*first)
    if first_manifest is not None and again is not None and again != first_manifest:
        client.failed += 1
        client.errors.append("rerun of the first scenario changed manifest.json")
    if workload.reference is not None:
        workload.reference(client)

    slowdown = [(a + b) / (2.0 * workload.kernel_ref_s) for a, b in zip(kernel, kernel[1:])]
    corrected = [t / s for t, s in zip(times, slowdown)]
    seen = set()
    reused = 0
    for g in couplings:
        reused += g in seen
        seen.add(g)
    return {
        "times": corrected,
        "raw_times": times,
        "slowdown": slowdown,
        "completed": completed,
        "busy_s": sum(corrected),
        "coupling_reuse": reused / len(couplings) if couplings else None,
        "setup_s": setups,
    }


def summarize(times):
    """Median and the highest order statistic with at least 10 runs above it."""
    ordered = sorted(times)
    n = len(ordered)
    p50 = statistics.median(ordered)
    rank = n - 10  # 1-based rank of the run with exactly 10 runs above it
    if rank < (n + 1) / 2:  # fewer than 21 runs: no tail beyond the median
        return {"p50": p50, "tail": p50, "tail_pct": 50.0, "n": n}
    return {"p50": p50, "tail": ordered[rank - 1], "tail_pct": 100.0 * rank / n, "n": n}


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_context():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = None
    src = ROOT / "src" / "cvsim"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cvsim_lines": lines,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--probes", type=int, default=0)
    args = parser.parse_args(argv)

    import cvsim
    from cvsim import cli

    workload = WORKLOADS[args.workload]
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=args.tmp))
    try:
        report = sys.stdout
        sys.stdout = open(os.devnull, "w")  # the CLI prints a line per run
        client = Client(cli, workload, tmp)
        kind, params = workload.draw(random.Random(f"{workload.name}:warmup:{args.seed}"), 0)
        client.run(kind, dict(params, **workload.warmup), args.seed)
        print("ready", file=report, flush=True)
        if args.probe:
            return 0
        probe_argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--tmp", args.tmp, "--probe"]
        untraced = closed_loop(client, args.seed, args.seconds,
                               probes=args.probes, probe_argv=probe_argv)
        result = {"untraced": untraced}
        if args.trace:
            client.tracer = tracer = Tracer()
            tracer.install(cvsim)
            t0 = time.perf_counter()
            traced = closed_loop(client, args.seed, args.seconds, traced=True)
            layers = tracer.per_layer(len(traced["times"]), traced["slowdown"])
            layers["trace.scenarios_per_s"] = traced["completed"] / traced["busy_s"]
            layers["trace.untraced_scenarios_per_s"] = untraced["completed"] / untraced["busy_s"]
            layers["trace.overhead_frac"] = (layers["trace.untraced_scenarios_per_s"]
                                             / layers["trace.scenarios_per_s"] - 1.0)
            # the untraced pass's uncorrected median and the correction behind it
            layers["calib.raw_run_p50_s"] = statistics.median(untraced["raw_times"])
            layers["calib.slowdown"] = statistics.median(untraced["slowdown"])
            result["per_layer"] = layers
            spans = ROOT / ".perfbench" / "spans" / f"{workload.name}-seed{args.seed}.npz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(spans, t0)
            result["spans_file"] = str(spans.relative_to(ROOT))
            result["spans"] = len(tracer.start)
        result.update(
            summary=summarize(untraced["times"]),
            raw_summary=summarize(untraced["raw_times"]),
            slowdown=statistics.median(untraced["slowdown"]),
            attempted=client.attempted,
            failed=client.failed,
            errors=client.errors,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            context=machine_context(),
        )
        print(json.dumps(result), file=report, flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
