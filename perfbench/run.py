"""renyi-ent benchmark: one command, closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload antisym-d5 --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy. With ``--trace 0`` the last
stdout line carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of one traced pass. The line before it records the environment and
the run's details. See ``perfbench/README.md`` for the reasons behind each
workload and metric.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "renyi_ent"
TRACE_DIR = Path(__file__).resolve().parent / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One thread, not nproc: on a 2-core shared host two BLAS threads made the
# antisym-d5 run medians spread wider (see README, Steadiness).
BLAS_THREADS = 1
SETUP_REPEATS = 5
MIN_PASSES = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many passes beyond it

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "certified_frac": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Pin every BLAS thread variable to BLAS_THREADS before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # slated for deletion; the benchmark measures the default path
    os.environ.pop("RENYI_ENT_THREADS", None)
    return BLAS_THREADS


def import_package():
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: {PACKAGE} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import renyi_ent

    if Path(renyi_ent.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"error: imported renyi_ent from {renyi_ent.__file__}, not {PACKAGE}")
    import workloads

    return renyi_ent, workloads


def blas_runtime_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if findable."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int, pinned: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a plain source tree has no commit to report
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc(),
        "blas_threads_pinned": pinned,
        "blas_threads_runtime": blas_runtime_threads(),
        "renyi_ent_threads": os.environ.get("RENYI_ENT_THREADS"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND passes beyond it.

    Returns (value, percentile, passes beyond). Below 2 * TAIL_BEYOND passes no
    percentile above the median qualifies, so the median is reported instead.
    """
    n = len(values)
    q = max(0.5, 1.0 - TAIL_BEYOND / n)
    ordered = sorted(values)
    rank = q * (n - 1)
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return value, 100.0 * q, sum(1 for v in values if v > value)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed:\n{proc.stderr}")
    return times


def run_passes(wl, inputs, seed: int, seconds: float, outcome):
    walls, cpus = [], []
    least = max(MIN_PASSES, wl.cycle)
    start = time.perf_counter()
    while True:
        k = len(walls)
        t0, c0 = time.perf_counter(), time.process_time()
        raw = wl.run_pass(inputs, seed, k)
        t1, c1 = time.perf_counter(), time.process_time()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        outcome.merge(wl.check(inputs, raw))
        elapsed = time.perf_counter() - start
        if len(walls) >= least and elapsed + statistics.median(walls) > seconds:
            return walls, cpus


def median_cycle(walls: list[float], cycle: int) -> tuple[range, float]:
    """The complete cycle of passes whose untraced total is the median one."""
    totals = [sum(walls[c * cycle:(c + 1) * cycle]) for c in range(len(walls) // cycle)]
    c = sorted(range(len(totals)), key=totals.__getitem__)[len(totals) // 2]
    return range(c * cycle, (c + 1) * cycle), totals[c]


def traced_passes(renyi_ent, workloads, wl, inputs, seed: int, passes: range, outcome):
    import tracing

    tracer = tracing.Tracer((renyi_ent.HermitianOperator, renyi_ent.DensityMatrix))
    raws = []
    with tracing.Instrumentation(tracer, renyi_ent, namespaces=(workloads,)):
        root = tracer.open(tracing.ROOT)
        for k in passes:
            raws.append(wl.run_pass(inputs, seed, k))
        tracer.close(root)
    for raw in raws:
        outcome.merge(wl.check(inputs, raw))
    return tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pinned = pin_blas_threads()
    renyi_ent, workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        wl.make_inputs(args.seed)
        return 0

    env = environment(args.seed, pinned)
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    inputs = wl.make_inputs(args.seed)
    outcome = workloads.Outcome()
    walls, cpus = run_passes(wl, inputs, args.seed, args.seconds, outcome)
    wall_median = statistics.median(walls)
    tail_value, tail_pct, beyond = tail(walls)
    detail = {
        "workload": args.workload,
        "environment": env,
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        # too input-dependent on simplex-solve to gate; recorded, not bounded
        "wall_tail_s": {"value": tail_value, "unit": "s", "percentile": tail_pct, "passes_beyond": beyond},
        "misses": outcome.notes[:20],
    }

    if args.trace:
        # trace the pass (or, for simplex-solve, the cycle of calls over one
        # input set) whose untraced time sits at the median, so the overhead
        # compares like with like
        passes, untraced_s = median_cycle(walls, wl.cycle)
        t0 = time.perf_counter()
        tracer = traced_passes(renyi_ent, workloads, wl, inputs, args.seed, passes, outcome)
        traced_s = time.perf_counter() - t0
        layer = tracer.metrics()
        layer["trace.pass_s"] = traced_s / len(passes)
        layer["trace.overhead_s"] = (traced_s - untraced_s) / len(passes)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(trace_file, "wt", encoding="utf-8") as fh:
            json.dump({"passes": [passes.start, passes.stop], **tracer.span_records()}, fh)
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        detail["traced_passes"] = [passes.start, passes.stop]
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layer.items()}
    else:
        detail["setup_s"] = setup_times
        values = {
            "wall_s": wall_median,
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "certified_frac": outcome.certified / outcome.attempted,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    detail["attempted"], detail["failed"], detail["wrong"] = outcome.attempted, outcome.failed, outcome.wrong
    detail["certified"] = outcome.certified
    print(json.dumps(detail))
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("margin_rel_min"):
        return "tol_cert"
    if name.endswith("decomp_n3"):
        return "n3"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
