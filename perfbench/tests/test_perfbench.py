"""Tests of the benchmark itself: oracles, span accounting, input generation.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import copy
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spinlogic import cli, npn, pc, search, spinsim, ternary  # noqa: E402

SMALL = {"classify": None, "simulate": 8, "search_all": 8, "search_hits": 6}


def cli_output(workload: workloads.Workload, directory: Path, monkeypatch) -> object:
    monkeypatch.chdir(directory)
    for name, text in workload.files.items():
        Path(name).write_text(text)
    assert cli.main([*workload.argv, "--out", "out.json"]) == 0
    return json.loads(Path("out.json").read_text())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict:
    """A genuine CLI output for a small instance of every workload."""
    found = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name, size in SMALL.items():
            workload = workloads.make(name, 7, size)
            found[name] = (workload, cli_output(workload, tmp_path_factory.mktemp(name), monkeypatch))
    return found


def test_every_oracle_accepts_the_cli_output(outputs):
    for name, (workload, output) in outputs.items():
        assert workload.check(output) == [], name


def _set(path, value):
    def perturb(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value(doc[last]) if callable(value) else value
    return perturb


def _swap_sizes(doc):
    a, b = doc["npn_classes"][0], doc["npn_classes"][1]
    a["size"], b["size"] = b["size"], a["size"]


def _move_count(doc):
    # keeps the total, so only the per-class comparison can catch it
    rows = [r for r in doc if r["tables"] > 0]
    rows[0]["tables"] -= 1
    rows[1]["tables"] += 1


PERTURBATIONS = {
    "classify": [
        _set(["npn_class_count"], 83),
        _set(["burnside_count"], 85),
        _set(["pc_class_count"], 32),
        _swap_sizes,
        _set(["npn_classes", 10, "table", 1, 1], lambda v: (v + 2) % 3 - 1),
        _set(["pc_classes", 5, "member_count"], lambda v: v + 1),
        _set(["pc_classes", 7, "npn_canonicals"], lambda v: v[:-1]),
        lambda doc: doc["npn_classes"].pop(),
    ],
    "simulate": [
        _set(["values", 3, 4], lambda v: v + 1e-6),
        _set(["grid_a", 2], lambda v: v + 1e-6),
        lambda doc: doc["values"].pop(),
        lambda doc: doc["grid_b"].pop(),
    ],
    "search_all": [
        _move_count,
        _set([0, "tables"], lambda v: v + 1),
        _set([5, "size"], lambda v: v + 1),
        _set([9, "achievable"], lambda v: not v),
        lambda doc: doc.pop(),
    ],
    "search_hits": [
        lambda doc: doc.pop(),
        lambda doc: doc.append(copy.deepcopy(doc[0])),
        _set([0, "table_index"], lambda v: max(oracles.multiplication_orbit() - {v})),
        _set([1, "a_values", 0], lambda v: v + 1e-6),
        _set([2, "b_values"], lambda v: v[::-1]),
        _set([0, "canonical"], lambda v: v + 1),
        _set([0, "class_size"], 27),
        lambda doc: doc.reverse(),
    ],
}


@pytest.mark.parametrize(
    "name,index",
    [(name, i) for name, changes in PERTURBATIONS.items() for i in range(len(changes))],
)
def test_oracle_rejects_a_perturbed_output(outputs, name, index):
    workload, output = outputs[name]
    perturbed = copy.deepcopy(output)
    PERTURBATIONS[name][index](perturbed)
    assert perturbed != output
    assert workload.check(perturbed) != []


def test_hits_workload_has_hits_to_perturb(outputs):
    assert len(outputs["search_hits"][1]) >= 3


def test_oracle_group_facts():
    assert oracles.burnside_count() == 84
    assert len(np.unique(oracles.canonical_map())) == 84
    orbit = oracles.multiplication_orbit()
    assert len(orbit) == 54 and oracles.MULTIPLICATION in orbit


@pytest.mark.parametrize("name", sorted(workloads.SIZES))
def test_same_seed_same_inputs(name):
    first, again = workloads.make(name, 11), workloads.make(name, 11)
    assert (first.argv, first.files, first.items) == (again.argv, again.files, again.items)
    other = workloads.make(name, 12)
    assert other.items == first.items
    if name != "classify":  # classify takes no inputs
        assert (other.argv, other.files) != (first.argv, first.files)


def test_every_hits_seed_asks_for_the_same_work():
    counts = set()
    for seed in range(40):
        start_a, start_b = workloads.hits_starts(random.Random(f"search_hits:{seed}"))
        _, grid_a = workloads.lin(start_a, workloads.SIZES["search_hits"])
        _, grid_b = workloads.lin(start_b, workloads.SIZES["search_hits"])
        values = oracles.readouts(workloads.SINGLE_PULSE, grid_a, grid_b)
        assert oracles.threshold_margin(values) > 1e-3
        counts.add(len(oracles.expected_hits(oracles.quantize(values))))
    assert counts == {1472}


def test_self_time_on_a_synthetic_tree():
    #   0 [0,100]  children 1 [10,30] and 2 [25,50] overlap; 4 [90,120] is clipped to [90,100]
    #   1 [10,30]  child 3 [15,20]
    #   5 [200,210] a second root with no children
    parent = [-1, 0, 0, 1, 0, -1]
    start = [0, 10, 25, 15, 90, 200]
    end = [100, 30, 50, 20, 120, 210]
    assert tracing.self_times(parent, start, end).tolist() == [50, 15, 25, 5, 30, 10]


def test_self_time_matches_a_brute_force_union():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        parent = [-1] + [int(rng.integers(-1, i)) for i in range(1, n)]
        start = rng.integers(0, 60, n)
        end = start + rng.integers(0, 30, n)
        expected = []
        for i in range(n):
            covered = set()
            for j in range(n):
                if parent[j] == i:
                    covered |= set(range(max(start[i], start[j]), min(end[i], end[j])))
            expected.append(int(end[i] - start[i]) - len(covered))
        assert tracing.self_times(parent, start, end).tolist() == expected


def test_tracer_rebinds_imported_names_and_counts_search(tmp_path, monkeypatch):
    originals = (pc.decode, search.run_sequence, npn.canonical_map)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pc.decode is ternary.decode and pc.decode is not originals[0]
        assert search.run_sequence is spinsim.run_sequence and search.run_sequence is not originals[1]
        workload = workloads.make("search_hits", 3, 6)
        hits = cli_output(workload, tmp_path, monkeypatch)
    finally:
        tracer.uninstall()
    assert (pc.decode, search.run_sequence, npn.canonical_map) == originals
    tracer.dump(tmp_path / "spans.npz")
    metrics = tracing.layer_metrics(tmp_path / "spans.npz")
    assert metrics["search.pairs"] == math.comb(6, 3) ** 2
    assert metrics["search.hits"] == len(hits) == metrics["npn.orbit_calls"]
    assert metrics["spinsim.run_sequence_calls"] == 36
    assert metrics["cli.calls"] >= 1 and metrics["npn.canonical_map_s"] > 0
    total = sum(metrics[f"{m}.self_s"] for m in tracing.MODULES)
    top = tracer.end[0] - tracer.start[0]
    assert total == pytest.approx(top / 1e9)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_a_malformed_output_counts_as_a_failure(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    spawner = run.Spawner(tmp_path, env)
    try:
        workload = workloads.Workload(
            "binary", 16, ("classify", "--radix", "2", "--format", "json"), {},
            lambda output: output["no such key"],
        )
        sample = run.run_command(workload, spawner, traced=False)
    finally:
        spawner.close()
    assert sample.wall_s > 0 and sample.rss_mb > 0
    assert len(sample.problems) == 1 and "malformed output" in sample.problems[0]
