"""lrcov benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a source checkout (lrcov is imported from ``src``):

    python3 perfbench/run.py --workload mc-verify --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including
the tracing overhead.  ``--smoke`` shrinks every size so the benchmark's
own tests run in seconds.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it print
every metric with its unit, sample count and, where one has at least ten
samples beyond it, a high percentile.  A run record (environment, every
check, every operation) and the spans land in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_IMPORTS = 9  # fresh interpreters timed for setup_s (plus one warm-up)
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def import_lrcov():
    """lrcov from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "lrcov", "__init__.py")):
        raise SystemExit(f"error: no lrcov sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import lrcov
    import lrcov.cli
    import lrcov.estimator
    import lrcov.io
    import lrcov.mc

    if not os.path.abspath(lrcov.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported lrcov from {lrcov.__file__}, not from {SRC}")
    return lrcov


def setup_seconds(count: int) -> list[float]:
    """Time ``import lrcov`` in fresh interpreters, as every CLI call and pool worker pays it."""
    code = "import time; t = time.perf_counter(); import lrcov; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = []
    for i in range(count + 1):
        res = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        if i:  # the first import compiles bytecode; users pay that once
            out.append(float(res.stdout.strip()))
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def blas_threads() -> int | None:
    """OpenBLAS's thread count as loaded (Linux only; None where it cannot be read)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(lrcov, nproc: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "lrcov", "*.py"))):
        with open(path, "rb") as fh:
            source.update(fh.read())
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_default": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LRCOV_THREADS")},
        "lrcov_version": lrcov.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def summary(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for p in (99.9, 99.0, 95.0, 90.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            out[f"p{p:g}"] = cuts[int(round(p * 10)) - 1]
            break
    return out


def show(name: str, unit: str, values: list[float]) -> dict:
    s = summary(values)
    tail = "".join(f", {k} {v:.6g}" for k, v in s.items() if k.startswith("p"))
    print(f"  {name:38s} {s['median']:14.6g} {unit:8s} (median of {s['n']}{tail})")
    return s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["mc-verify", "cli-pipeline", "long-window"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"), help="record directory")
    args = parser.parse_args(argv)

    lrcov = import_lrcov()
    sys.path.insert(0, HERE)
    import workloads
    from oracle import Check
    from spans import Tracer

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(args.out, exist_ok=True)
    os.environ["TMPDIR"] = work  # anything lrcov or its workers spill stays in the checkout
    tracer = Tracer()
    try:
        setup = setup_seconds(2 if args.smoke else SETUP_IMPORTS)
        ctx = workloads.Context(lrcov, work, args.seed, args.smoke, tracer, nproc)
        sizes = (workloads.SMOKE if args.smoke else workloads.FULL)[args.workload]
        wl = workloads.WORKLOADS[args.workload](ctx, sizes)
        input_bytes = wl.prepare()

        plain, traced, ops, checks = [], [], [], []
        targets = workloads.trace_targets(lrcov)
        k = 0
        while k < (2 if args.trace else 1) or sum(plain) + sum(traced) < args.seconds:
            with_spans = bool(args.trace) and k % 2 == 1
            recording = tracer.recording(f"pass-{k}", targets) if with_spans else nullcontext()
            with recording:
                t0 = time.perf_counter()
                pass_ops = wl.run_pass(k)
                (traced if with_spans else plain).append(time.perf_counter() - t0)
            ops += [(k, op) for op in pass_ops]
            try:
                pass_checks = wl.check(k)
            except Exception:  # a missing or unreadable output fails every operation of the pass
                error = traceback.format_exc(limit=3)
                pass_checks = {op.name: [Check("outputs_readable", math.nan, error, False)] for op in pass_ops}
            checks += [(k, op_name, c) for op_name, cs in pass_checks.items() for c in cs]
            k += 1
        layer = workloads.layer_metrics(wl, tracer, traced, plain) if args.trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # an operation fails if it raised, exited nonzero, or a counted check on its output failed;
    # checks filed under a name that is not an operation (the oracle self-check) count as one
    attempted = len({(k, op.name) for k, op in ops} | {(k, name) for k, name, _ in checks})
    failed = len({(k, op.name) for k, op in ops if not op.ok}
                 | {(k, name) for k, name, c in checks if c.counted and not c.ok})

    print(f"lrcov benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(plain)} untraced + {len(traced)} traced passes")
    misses = Counter((name, c.name, c.counted) for _, name, c in checks if not c.ok)
    for (name, check, counted), count in sorted(misses.items()):
        note = "FAILED" if counted else "outside the gate tolerance, recorded and not counted"
        print(f"  check {name}/{check}: {note} in {count} of {k} passes")
    for k_op, op in ops:
        if not op.ok:
            print(f"  operation {op.name} in pass {k_op} failed: {op.error}")
    named = {
        "setup_s": (setup, "s"),
        "wall_s": (plain, "s"),
        "peak_rss_mb": ([peak_rss_mb()], "MB"),
        "failed_ops_ratio": ([failed / attempted], "ratio"),
        **wl.named_metrics(plain, [op for _, op in ops]),
    }
    printed = {name: {"unit": unit, **show(name, unit, values)} for name, (values, unit) in named.items()}
    if args.trace:
        units = dict(workloads.LAYER_METRICS)
        for name, value in layer.items():
            show(name, units[name], [value])
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
        tracer.write(os.path.join(args.out, f"{args.workload}-seed{args.seed}-spans.json"))
    else:
        metrics = {name: {"value": printed[name]["median"], "unit": unit} for name, unit in E2E_UNITS.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "input_bytes": input_bytes,
        "environment": environment(lrcov, nproc),
        "passes": {"untraced_s": plain, "traced_s": traced},
        "end_to_end": printed, "metrics": metrics,
        "operations": [{"pass": k, **op._asdict()} for k, op in ops],
        "checks": [{"pass": k, "op": name, **c._asdict()} for k, name, c in checks],
        "warnings": ctx.warnings[:50], "warning_count": len(ctx.warnings),
        "missing_instrumentation": sorted(tracer.missing),
    }
    path = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    env = record["environment"]
    print(f"  record {path}: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']} with {env['blas_threads_default']} threads, input {input_bytes} bytes")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
