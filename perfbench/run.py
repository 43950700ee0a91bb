"""Benchmark runner for cograca: one workload, one seed, one process, one
BLAS thread.

    python3 perfbench/run.py --workload paper-default --seed 1 --seconds 35 --trace 0

The package is imported from `src/` of the checkout this file sits in. Set-up
(importing cograca in a fresh interpreter and making the workload's inputs
from the seed) runs SETUPS times and is timed apart from the passes. Passes
repeat until the next one would end after `--seconds`, with at least the
workload's minimum; correctness checks run after every pass, outside the
timed region. With `--trace 1` untraced and traced passes alternate, and the
per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Every metric, the workload-specific ones too,
is printed above it with its unit, and the whole record (environment,
passes, operations and, with tracing, every span) is written to
`.bench_out/<workload>-seed<seed>-trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5  # set-up repeats; setup_s reports their median
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Gated end-to-end metrics: every workload reports them and none is ever 0.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def prepare(root: Path) -> None:
    """Pin BLAS to one thread and import cograca from the checkout's src/.

    One thread: on a shared 2-core host, seed-to-seed spread of pipeline_s on
    evaluate-only was 5.7% with one BLAS thread and 10.1% with two, at the
    same median; only large-cohort runs faster with two (by about 15%).
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    importlib.import_module("cograca.cli")
    origin = Path(sys.modules["cograca"].__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"cograca was imported from {origin}, not from {src}")


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                 "import cograca.cli; print(time.perf_counter() - t)")


def import_seconds(root: Path) -> float:
    """Time `import cograca.cli` (numpy included) in a fresh interpreter; a
    module is imported only once per process, so this is the repeatable form."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(root / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def _blas_threads() -> int | None:
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(root: Path) -> dict:
    import numpy as np
    import cograca

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    src = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        src.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cograca": cograca.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": src.hexdigest(),
    }


def measure(wl, seconds: float, traced: bool) -> list:
    """Run passes until the next would end after `seconds`. With tracing,
    odd passes are traced and even ones not, and there are at least two."""
    from tracing import Tracer
    from workloads import Pass

    passes, first = [], None
    needed = max(wl.min_passes, 2 if traced else 1)
    start = perf_counter()
    while True:
        tracer = Tracer() if traced and len(passes) % 2 == 1 else None
        p = Pass(wl.work / f"pass{len(passes)}", tracer)
        p.root.mkdir(parents=True)
        if tracer:
            tracer.install()
        t0 = perf_counter()
        try:
            wl.run(p)
        finally:
            p.seconds = perf_counter() - t0
            if tracer:
                tracer.uninstall()
        wl.check(p)
        digests = wl.digests(p)
        if first is None:
            first = digests
        for key in sorted(set(first) | set(digests)):
            if first.get(key) != digests.get(key):
                p.fail(key.split("/")[0], f"{key} differs from the first pass")
        p.results = {}
        shutil.rmtree(p.root)
        passes.append(p)
        elapsed = perf_counter() - start
        if len(passes) >= needed and elapsed + median(q.seconds for q in passes) > seconds:
            return passes


def run_benchmark(wl, seconds: float, traced: bool) -> dict:
    """Set up `wl` SETUPS times, measure it, and return the full record."""
    from tracing import LAYER_METRICS, layer_metrics
    from workloads import STAGES

    setup_times = []
    for _ in range(SETUPS):
        import_s = import_seconds(ROOT)
        t0 = perf_counter()
        wl.generate()
        setup_times.append(import_s + perf_counter() - t0)
    passes = measure(wl, seconds, traced)
    plain = [p for p in passes if p.tracer is None]
    traced_passes = [p for p in passes if p.tracer is not None]
    ops = [op for p in passes for op in p.ops]
    failed = sum(op.error is not None for op in ops)

    values = {
        "setup_s": median(setup_times),
        "pipeline_s": median(p.seconds for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    extras = {"failed_frac": (failed / len(ops), "fraction")}
    for stage in STAGES:
        if any(op.stage == stage for op in ops):
            extras[f"{stage}_s"] = (median(p.stage_seconds(stage) for p in plain), "s")
    for key in sorted({k for p in plain for k in p.quality}):
        extras[key] = (median(p.quality[key] for p in plain if key in p.quality), "score")
    if traced:
        per_pass = [layer_metrics(p.tracer.spans) for p in traced_passes]
        traced_s = median(p.seconds for p in traced_passes)
        values = {name: median(m[name] for m in per_pass)
                  for name, _, _, _ in LAYER_METRICS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = traced_s - median(p.seconds for p in plain)
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        extras["pipeline_s"] = (median(p.seconds for p in plain), "s")
        extras["pipeline_s.traced"] = (traced_s, "s")
    record = {
        "workload": wl.name,
        "seed": wl.data_seed,
        "seconds": seconds,
        "trace": int(traced),
        "sizes": vars(wl.sizes),
        "env": environment(ROOT),
        "setup_samples_s": setup_times,
        "passes": [{"seconds": p.seconds, "traced": p.tracer is not None,
                    "quality": p.quality, "ops": [vars(op) for op in p.ops]} for p in passes],
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
        "extras": {name: {"value": float(v), "unit": u} for name, (v, u) in extras.items()},
    }
    if traced:
        record["spans"] = [[s.as_dict() for s in p.tracer.spans] for p in traced_passes]
    return record


def report_lines(record: dict) -> list[str]:
    from tracing import LAYER_METRICS

    computed = {name for name, _, _, is_computed in LAYER_METRICS if is_computed}
    passes = ", ".join(f"{p['seconds']:.3f}" for p in record["passes"])
    lines = [f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
             f"passes={len(record['passes'])} (s per pass: {passes})",
             "# env " + json.dumps(record["env"], sort_keys=True)]
    for op in (op for p in record["passes"] for op in p["ops"] if op["error"]):
        lines.append(f"# FAILED {op['name']}: {op['error']}")
    for section in ("metrics", "extras"):
        for name, m in record[section].items():
            label = " (computed)" if name in computed else ""
            lines.append(f"{name:34s} {m['value']:>16.6f} {m['unit']}{label}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prepare(ROOT)
    except ImportError as exc:
        print(f"perfbench: cannot import cograca: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        record = run_benchmark(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record) + "\n")
    print("\n".join(report_lines(record)))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
