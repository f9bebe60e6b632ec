"""Run the benchmark over several seeds and record the results in one file.

Usage, from the root of a spinlogic checkout:

    python3 perfbench/collect.py --seeds 10 [--workloads a,b] [--trace] [--out FILE]

For every workload it runs ``run.py`` once per seed (1..N) and reports each
end-to-end metric's median, quartiles and spread (interquartile range over
median) against the bound in BENCHMARK.json, the failed ratio, the pooled
sample count and the highest percentile with ten samples beyond it.  With
``--trace`` it adds one traced run per workload (seed 1).  The record also
holds the environment: Python and numpy versions, CPU count and model, the
git commit and thread-related variables.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import tail
from tracing import MOVES

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(proc.stderr.strip().splitlines()[-1])["detail"]
    return result, detail


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit() -> str:
    try:
        found = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return found.stdout.strip() or "unknown"


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    record: dict = {"commit": commit(), "cpu_model": cpu_model(), "run_seconds": args.seconds,
                    "seeds": list(range(1, args.seeds + 1)), "per_layer_moves": MOVES,
                    "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in record["seeds"]]
        walls = [w for _, detail in runs for w in detail["wall_s"]]
        entry = {
            "why": why[workload],
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "samples": len(walls),
            "tail_wall_s": tail(walls),
            "end_to_end": {},
        }
        entry["failed_ratio"] = entry["failed"] / entry["attempted"]
        for name in runs[0][0]["metrics"]:
            stats = spread([r["metrics"][name]["value"] for r, _ in runs])
            stats["bound"] = bounds.get(name)
            entry["end_to_end"][name] = stats
            print(f"{workload:12s} {name:12s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f} bound {stats['bound']}", file=sys.stderr)
        if args.trace:
            result, _ = run_once(workload, 1, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        record["workloads"][workload] = entry
        record["environment"] = runs[0][1]["environment"]
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
