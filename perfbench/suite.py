"""Run every workload over several seeds and print every metric by name and unit.

    python3 perfbench/suite.py --seeds 1-10 --seconds 35 --trace
    python3 perfbench/suite.py --seeds 1-10 --seconds 35 --trace --record "label"

Each run is a separate `run.py` process, one at a time. For every workload the
end-to-end metrics and the workload's own extras (stage times, failed_frac,
fingerprint quality) are printed as median, quartiles and spread (quartile
distance over median) over the seeds; `--trace` adds one traced run per
workload on the first seed and prints its per-layer metrics. `--record`
appends the summary to perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    if not record["correct"]:
        print("\n".join(line for line in proc.stdout.splitlines() if line.startswith("# FAILED")))
    return record


def summarize(records: list[dict], section: str) -> dict:
    out = {}
    for name in records[0][section]:
        values = [r[section][name]["value"] for r in records if name in r[section]]
        med = median(values)
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": records[0][section][name]["unit"], "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--record", metavar="LABEL", help="append to perfbench/trajectory.json")
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    summary, env = {}, None
    for workload in args.workloads.split(","):
        records = [one_run(workload, seed, args.seconds, 0) for seed in seeds]
        env = records[0]["env"]
        entry = {
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "end_to_end": summarize(records, "metrics"),
            "extras": summarize(records, "extras"),
        }
        print(f"== {workload}: {len(seeds)} seeds, {entry['attempted']} operations, "
              f"{entry['failed']} failed")
        for section in ("end_to_end", "extras"):
            for name, m in entry[section].items():
                print(f"{name:34s} median {m['median']:14.6f} {m['unit']:9s} "
                      f"q1 {m['q1']:.6f} q3 {m['q3']:.6f} spread {m['spread']:.4f}")
        if args.trace:
            traced = one_run(workload, seeds[0], args.seconds, 1)
            entry["per_layer"] = traced["metrics"]
            entry["per_layer_extras"] = traced["extras"]
            print(f"-- {workload}: traced run, seed {seeds[0]}")
            for name, m in {**traced["metrics"], **traced["extras"]}.items():
                print(f"{name:34s} {m['value']:16.6f} {m['unit']}")
        summary[workload] = entry
    if args.record:
        path = HERE / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append({
            "label": args.record,
            "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
            "seconds": args.seconds,
            "seeds": seeds,
            "env": env,
            "workloads": summary,
        })
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
        print(f"appended '{args.record}' to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
