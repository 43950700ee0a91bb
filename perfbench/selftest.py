"""Fast self-test of the benchmark harness (about fifteen seconds).

    python3 perfbench/selftest.py

Runs every workload on a tiny cohort for 2 epochs, untraced and traced,
checks that each reports every metric BENCHMARK.json names, that a
deliberately failing operation shows up in failed_frac, and that run.py
exits nonzero without printing a result where src/ is absent.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

TINY = {
    "paper-default": dict(subjects=14, rois=8, d_cog=8, dims=8, epochs=2, repeats=1,
                          ica_components=4),
    "evaluate-only": dict(subjects=14, rois=8, d_cog=8, dims=8, epochs=2, repeats=1,
                          ica_components=4),
    "large-cohort": dict(subjects=20, rois=8, epochs=2, ica_components=4),
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    run.prepare(run.ROOT)
    import tracing
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def names(entries):
        return [(m["name"], m["unit"], m["better"]) for m in entries]

    check(names(spec["end_to_end"]) == run.END_TO_END, "BENCHMARK.json end_to_end != run.py")
    check(names(spec["per_layer"]) == [m[:3] for m in tracing.LAYER_METRICS],
          "BENCHMARK.json per_layer != tracing.py")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json workloads != workloads.py")

    class FailingPaperDefault(workloads.PaperDefault):
        def run(self, p):
            super().run(p)
            p.cli("train", "missing", ["train", "--data", p.root / "missing", "--out",
                                       p.root / "missing-run"])

    work = run.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            sizes = workloads.Sizes(**TINY[name])
            for traced in (False, True):
                wl = cls(5, work / f"{name}-{int(traced)}", sizes)
                record = run.run_benchmark(wl, 0.0, traced)
                wanted = spec["per_layer" if traced else "end_to_end"]
                got = record["metrics"]
                check(record["correct"] and record["failed"] == 0,
                      f"{name} trace={traced}: {run.report_lines(record)}")
                check(sorted(got) == sorted(m["name"] for m in wanted),
                      f"{name} trace={traced} reports {sorted(got)}")
                check(all(math.isfinite(m["value"]) for m in got.values()),
                      f"{name}: non-finite metric")
                if not traced:
                    check(all(m["value"] > 0 for m in got.values()), f"{name}: zero metric")
                print(f"ok {name} trace={int(traced)} passes={len(record['passes'])}")
        wl = FailingPaperDefault(5, work / "failing", workloads.Sizes(**TINY["paper-default"]))
        record = run.run_benchmark(wl, 0.0, False)
        frac = record["extras"]["failed_frac"]["value"]
        check(not record["correct"] and record["failed"] == len(record["passes"]),
              f"the failing operation was not counted: {record['failed']} failed")
        check(frac == record["failed"] / record["attempted"] > 0, f"failed_frac is {frac}")
        print(f"ok deliberate failure: failed_frac={frac:.4f}")

        bare = work / "bare"
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper-default", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              f"run.py without src/ exited {proc.returncode} with {proc.stdout!r}")
        print(f"ok without src/: exit {proc.returncode}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
