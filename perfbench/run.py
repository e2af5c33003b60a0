"""Benchmark for fedpricing: three workloads, checked outputs, optional trace.

    python3 perfbench/run.py --workload desk|market|fleet --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy. The run repeats the workload's
operation until S seconds of operations have elapsed (at least once),
checks every operation's outputs with ``checks.py``, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.
With ``--trace 0`` the metrics are the end-to-end ones (op_s, cpu_s,
setup_s, peak_rss_mb); with ``--trace 1`` the calls into each module are
timed (``spans.py``) and the metrics are the per-layer ones, preceded by a
table of self time per layer. Without ``--workload`` every workload runs in
turn, each in its own process. Outputs go to ``perfbench/runs/``.

The BLAS thread pool is left at the library default, which is what users get.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
SETUP_PROBES = 9
WORKLOAD_NAMES = ("desk", "market", "fleet")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def import_package() -> tuple:
    """Import fedpricing from src/; returns (start, end) of the import."""
    if not os.path.isfile(os.path.join(SRC, "fedpricing", "__init__.py")):
        raise SystemExit(f"error: no package source at {os.path.join(SRC, 'fedpricing')}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import fedpricing
    end = time.perf_counter()
    if os.path.dirname(os.path.dirname(os.path.abspath(fedpricing.__file__))) != SRC:
        raise SystemExit(f"error: imported fedpricing from {fedpricing.__file__}, not {SRC}")
    return start, end


def probe(args) -> None:
    """Set-up only: import the package, build the workload's inputs, report ready."""
    import_package()
    import workloads
    workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)


def measure_setup(args) -> list:
    """Wall time from process start to built inputs, once per fresh interpreter."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe failed with exit code {code}")
        times.append(elapsed)
    return times


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0          # ru_maxrss is in KiB on Linux


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, read through its own API."""
    found = {}
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ} or "library default",
    }


def run_workload(args) -> int:
    setup_times = None if args.trace else measure_setup(args)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    import_start, import_end = import_package()
    import checks
    import workloads

    if tracer:
        tracer.record("setup.import", import_start, import_end)
        tracer.install()
    build_start = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    build_wall = time.perf_counter() - build_start
    if tracer:
        tracer.uninstall()
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"inputs {args.workload} seed={args.seed} {json.dumps(wl.describe(), sort_keys=True)}")

    run_dir = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    walls, cpus, digests = [], [], []
    attempted = failed = 0
    busy = 0.0
    while busy < args.seconds or attempted == 0:
        out_dir = os.path.join(run_dir, f"op{len(walls) + failed}")
        os.makedirs(out_dir)
        attempted += wl.ops_per_round
        if tracer:
            tracer.install()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            wl.operate(out_dir)
        except Exception:
            traceback.print_exc()
            failed += wl.ops_per_round
            busy += time.perf_counter() - t0
            continue
        finally:
            if tracer:
                tracer.uninstall()
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        busy += wall
        walls.append(wall)
        cpus.append(cpu)
        wl.save(out_dir)
        try:
            facts = wl.check(out_dir)
        except checks.CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
            return 1
        digests.append(checks.digest(out_dir))
        print(f"op {len(walls)}: wall {wall:.4f} s, cpu {cpu:.4f} s, checks passed {json.dumps(facts, sort_keys=True)}")
        shutil.rmtree(out_dir)
    shutil.rmtree(run_dir, ignore_errors=True)
    if not walls:
        print("error: every operation failed", file=sys.stderr)
        return 1
    print(f"digest {args.workload} seed={args.seed}: {digests[0]}"
          + ("" if len(set(digests)) == 1 else f" ({len(set(digests))} distinct digests over {len(digests)} operations)"))

    if tracer:
        os.makedirs(RUNS, exist_ok=True)
        trace_path = os.path.join(RUNS, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        wall = import_end - import_start + build_wall + sum(walls)
        print(f"traced op_s {statistics.median(walls):.4f} (median of {len(walls)}); spans in {trace_path}")
        print(tracer.table(wall))
        values = tracer.per_layer_metrics()
    else:
        values = {
            "op_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        print(f"setup probes (s): {' '.join(f'{t:.4f}' for t in setup_times)}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process, as the benchmark command runs them."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        probe(args)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
