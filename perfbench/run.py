"""End-to-end benchmark of the spinlogic CLI, with a traced breakdown per module.

Usage, from the root of a spinlogic checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run drives one workload (see ``workloads.py``) as a closed loop with a
single client: it starts the next CLI command, in a fresh interpreter with
``PYTHONPATH=src``, only after the previous one has exited, until the next
one would end after S seconds (at least three commands).  Every output is
checked against ``oracles.py``; a non-zero exit, a traceback on stderr or an
oracle mismatch counts the command as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` metrics, all with tracing off:

- ``wall_s``: median wall time of one command, spawn to exit, output included
- ``items_per_s``: work items (functions, grid points or triple pairs) per
  second of the median command
- ``peak_rss_mb``: median of the commands' max RSS, from ``os.wait4``
- ``setup_s``: median time of a fresh interpreter running
  ``import spinlogic.cli``, timed before every command (at least five times)

``--trace 1`` alternates untraced commands with traced ones
(``traced_cli.py``) and reports the (low) median of each per-layer metric of
``tracing.layer_metrics`` over the traced commands, plus
``tracing_overhead_s``, the traced minus the untraced median wall time.

One JSON line on standard error gives every sample, the highest percentile
with ten samples beyond it, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_IMPORTS = 5
MIN_SAMPLES = 3
COMMAND_TIMEOUT_S = 60
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    problems: list[str]


class Spawner:
    """Client of ``spawner.py``, which starts each command from a small
    process so that ``wait4`` reports the command's own peak memory."""

    def __init__(self, cwd: Path, env: dict) -> None:
        self.cwd, self.env = cwd, env
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str]) -> tuple[float, float, int, str]:
        """Run one command to its exit: wall seconds from spawn to exit, max
        RSS in MB, exit code and stderr."""
        request = {"argv": argv, "cwd": str(self.cwd), "env": self.env, "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        err = (self.cwd / "stderr.txt").read_text(errors="replace")
        return reply["wall_s"], reply["rss_mb"], reply["code"], err

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_command(workload: workloads.Workload, spawner: Spawner, traced: bool) -> Sample:
    out = spawner.cwd / "out.json"
    out.unlink(missing_ok=True)
    if traced:
        argv = [sys.executable, str(HERE / "traced_cli.py"), "spans.npz"]
    else:
        argv = [sys.executable, "-m", "spinlogic.cli"]
    wall, rss, code, err = spawner.run([*argv, *workload.argv, "--out", out.name])
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {err.strip()[-300:]}")
    elif "Traceback" in err:
        problems.append("traceback on stderr")
    else:
        try:
            problems.extend(workload.check(json.loads(out.read_text(encoding="utf-8"))))
        except (OSError, ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
            problems.append(f"malformed output: {exc!r}")
    return Sample(wall, rss, problems)


def check_program(src: Path, work: Path, env: dict) -> None:
    """Fail unless the children import spinlogic from this checkout."""
    found = subprocess.run(
        [sys.executable, "-c", "import spinlogic.cli; print(spinlogic.cli.__file__)"],
        cwd=work, env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
    )
    path = found.stdout.strip()
    if found.returncode != 0 or Path(path).resolve() != (src / "spinlogic" / "cli.py").resolve():
        raise SystemExit(f"error: cannot import spinlogic.cli from {src}: {found.stderr.strip()[-300:]}")


def time_import(spawner: Spawner) -> float:
    wall, _, code, err = spawner.run([sys.executable, "-c", "import spinlogic.cli"])
    if code != 0:
        raise SystemExit(f"error: import spinlogic.cli failed: {err.strip()[-300:]}")
    return wall


def keep_going(began: float, seconds: float, walls: list[float]) -> bool:
    """Closed loop: start another command while it would end within the run."""
    elapsed = time.perf_counter() - began
    if len(walls) < MIN_SAMPLES and elapsed < 3 * seconds:
        return True
    return elapsed + statistics.median(walls) <= seconds


def tail(values: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    percentile = (100 * (n - 10)) // n
    value = statistics.quantiles(values, n=100, method="inclusive")[percentile - 1]
    return {"percentile": percentile, "value": value}


def end_to_end(workload, spawner, seconds) -> tuple[list[Sample], list[float], dict]:
    """Commands alternate with set-up timings, so that both are sampled
    across the whole run."""
    samples: list[Sample] = []
    setup: list[float] = []
    began = time.perf_counter()
    while not samples or keep_going(began, seconds, [s.wall_s + t for s, t in zip(samples, setup)]):
        setup.append(time_import(spawner))
        samples.append(run_command(workload, spawner, traced=False))
    while len(setup) < SETUP_IMPORTS:
        setup.append(time_import(spawner))
    wall = statistics.median(s.wall_s for s in samples)
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "items_per_s": {"value": workload.items / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(s.rss_mb for s in samples), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    return samples, setup, metrics


def per_layer(workload, spawner, seconds) -> tuple[list[Sample], dict]:
    plain: list[Sample] = []
    traced: list[Sample] = []
    layers: list[dict] = []
    began = time.perf_counter()
    while not traced or keep_going(began, seconds, [p.wall_s + t.wall_s for p, t in zip(plain, traced)]):
        plain.append(run_command(workload, spawner, traced=False))
        traced.append(run_command(workload, spawner, traced=True))
        spans = spawner.cwd / "spans.npz"
        if spans.exists():
            layers.append(tracing.layer_metrics(spans))
            spans.unlink()
    if not layers:
        raise SystemExit(f"error: no traced command wrote spans: {traced[-1].problems}")
    metrics = {
        name: {"value": statistics.median_low(layer[name] for layer in layers), "unit": unit_of(name)}
        for name in layers[0]
    }
    overhead = statistics.median(s.wall_s for s in traced) - statistics.median(s.wall_s for s in plain)
    metrics["tracing_overhead_s"] = {"value": overhead, "unit": "s"}
    return plain + traced, metrics


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith(("_ratio", "_per_class")):
        return "ratio"
    return "count"


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "spinlogic" / "cli.py").is_file():
        print(f"error: {src / 'spinlogic' / 'cli.py'} not found; run from a spinlogic checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    workload = workloads.make(args.workload, args.seed)
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for name, text in workload.files.items():
            (work / name).write_text(text, encoding="utf-8")
        check_program(src, work, env)
        spawner = Spawner(work, env)
        try:
            if args.trace:
                setup = []
                samples, metrics = per_layer(workload, spawner, args.seconds)
            else:
                samples, setup, metrics = end_to_end(workload, spawner, args.seconds)
        finally:
            spawner.close()
    finally:
        shutil.rmtree(work)
        if not any((root / WORK_DIR).iterdir()):
            (root / WORK_DIR).rmdir()

    failed = [s for s in samples if s.problems]
    walls = [s.wall_s for s in samples]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(samples),
        "wall_s": walls,
        "peak_rss_mb": [s.rss_mb for s in samples],
        "setup_s": setup,
        "tail_wall_s": tail(walls),
        "failed_ratio": len(failed) / len(samples),
        "problems": [p for s in failed for p in s.problems][:10],
        "environment": environment(),
    }
    print(json.dumps({"detail": detail}), file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
