"""Record a baseline: several seeds per workload, then one traced run each.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

With ``--seeds 1`` it is the one command that runs all three workloads and
prints every end-to-end metric by name and unit for each.

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``. For
every end-to-end metric it records the median, the quartiles and the
spread (interquartile range over median, as ``statistics.quantiles(n=4)``
gives it) over the seeds; for every per-layer metric the value of one
traced run with seed ``TRACE_SEED``. Runs go one after another, never in
parallel.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if result.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {result.returncode}:\n{result.stderr[-2000:]}")
    lines = result.stdout.strip().splitlines()
    parsed = json.loads(lines[-1])
    parsed["notes"] = [line for line in lines[:-1] if not line.startswith("  ")]
    parsed["wall_s"] = round(time.perf_counter() - started, 1)
    return parsed


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"python": platform.python_version(), "machine": platform.machine(),
              "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(workload, seed, runs[-1]["wall_s"], "s", runs[-1]["notes"], flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            summary = summarize([r["metrics"][name]["value"] for r in runs])
            summary["unit"] = runs[0]["metrics"][name]["unit"]
            summary["bound"] = bounds.get(name)
            metrics[name] = summary
            print(f"  {name:16s} median {summary['median']:12.4f} {summary['unit']:5s}"
                  f"  spread {summary['spread']:.4f}  bound {summary['bound']}", flush=True)
        traced = run_once(workload, TRACE_SEED, seconds, 1)
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "wall_s": [r["wall_s"] for r in runs],
            "notes": {seed: r["notes"] for seed, r in zip(seeds, runs)},
            "end_to_end": metrics,
            "traced": {"seed": TRACE_SEED, "notes": traced["notes"],
                       "attempted": traced["attempted"], "failed": traced["failed"],
                       "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
