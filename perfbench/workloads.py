"""The benchmark's workloads: one CLI command each, with inputs made from a seed.

A seed only moves values: grid start offsets, peak offsets and T1s within
fixed ranges.  Sizes and structure never change, so every seed asks the
program for the same amount of work.  :func:`make` returns the command, the
files it reads and a check of its output against :mod:`oracles`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import oracles

TWO_PI = 2 * math.pi

# The two-pulse search fixes the first pulse's phase and the second pulse's
# flip angle; both are passed explicitly so the oracle does not rely on defaults.
PHI1 = 3 * math.pi / 2
BETA2 = math.pi / 2

# Grid starts of the hits search.  A seed picks one of the 32 images of this
# point under the symmetries of sin(a)*sin(b): a shift by pi or a mirror on
# either axis, and swapping the axes.  Each image quantizes to tables of the
# same classes, so every seed yields the same number of hits (the hits search
# pays one orbit computation per hit).
HITS_START = (1.5757, 3.7149)

SIZES = {"classify": 0, "simulate": 100, "search_all": 24, "search_hits": 12}


@dataclass(frozen=True)
class Workload:
    name: str
    items: int  # work items one command completes: functions, grid points or triple pairs
    argv: tuple[str, ...]  # CLI arguments; the runner appends --out
    files: dict  # file name -> text, written next to the command before it runs
    check: Callable[[object], list[str]]  # parsed JSON output -> mismatches


def lin(start: float, n: int) -> tuple[str, list[float]]:
    """A ``lin:`` spec for n points spanning one full turn from start, and the
    values the CLI parses from it."""
    stop = start + TWO_PI
    return f"lin:{start!r}:{stop!r}:{n}", [start + k * (stop - start) / (n - 1) for k in range(n)]


def _classify(rng: random.Random, size: int) -> Workload:
    expected = oracles.expected_classify()
    return Workload(
        "classify",
        oracles.NUM_FUNCTIONS,
        ("classify", "--radix", "3", "--format", "json"),
        {},
        lambda output: oracles.check_classify(output, expected),
    )


def simulate_template(rng: random.Random) -> dict:
    """Three peaks, two with T1: hard pulse $A, delay, a pulse at phase $B
    selective for the middle peak, delay."""
    return {
        "peaks": [
            {"label": "p1", "offset_rad_s": rng.uniform(1.5, 2.5), "t1_s": rng.uniform(0.5, 2.0)},
            {"label": "p2", "offset_rad_s": rng.uniform(4.5, 5.5), "t1_s": rng.uniform(0.5, 2.0)},
            {"label": "p3", "offset_rad_s": rng.uniform(7.5, 8.5)},
        ],
        "sequence": [
            {"type": "hard_pulse", "beta": "$A", "phi": 0.3},
            {"type": "delay", "tau": 0.25},
            {"type": "selective_pulse", "beta": math.pi / 2, "phi": "$B",
             "target_offset": 5.0, "tolerance": 1.0},
            {"type": "delay", "tau": 0.15},
        ],
    }


def _simulate(rng: random.Random, size: int) -> Workload:
    template = simulate_template(rng)
    spec_a, grid_a = lin(rng.uniform(0, TWO_PI), size)
    spec_b, grid_b = lin(rng.uniform(0, TWO_PI), size)
    expected = oracles.readouts(template, grid_a, grid_b)
    return Workload(
        "simulate",
        size * size,
        ("simulate", "--sequence", "template.json", "--grid-a", spec_a, "--grid-b", spec_b,
         "--format", "json"),
        {"template.json": json.dumps(template, indent=1) + "\n"},
        lambda output: oracles.check_simulate(output, grid_a, grid_b, expected),
    )


def two_pulse_document() -> dict:
    return {
        "peaks": [{"label": "s", "offset_rad_s": 0.0}],
        "sequence": [
            {"type": "hard_pulse", "beta": "$A", "phi": PHI1},
            {"type": "hard_pulse", "beta": BETA2, "phi": "$B"},
        ],
    }


def _search_all(rng: random.Random, size: int) -> Workload:
    # A draw with a readout within 1e-9 of a quantization threshold is drawn
    # again: there two correct simulators may round to different digits.
    while True:
        spec_a, grid_a = lin(rng.uniform(0, TWO_PI), size)
        spec_b, grid_b = lin(rng.uniform(0, TWO_PI), size)
        values = oracles.readouts(two_pulse_document(), grid_a, grid_b)
        if oracles.threshold_margin(values) > 1e-9:
            break
    pairs = math.comb(size, 3) ** 2
    expected = oracles.expected_search_all(oracles.quantize(values))
    return Workload(
        "search_all",
        pairs,
        ("search", "--sequence", "two-pulse", "--phi1", repr(PHI1), "--beta2", repr(BETA2),
         "--grid-a", spec_a, "--grid-b", spec_b, "--target", "all", "--format", "json"),
        {},
        lambda output: oracles.check_search_all(output, expected, pairs),
    )


SINGLE_PULSE = {
    "peaks": [{"label": "s", "offset_rad_s": 0.0}],
    "sequence": [{"type": "hard_pulse", "beta": "$A", "phi": "$B"}],
}


def hits_starts(rng: random.Random) -> tuple[float, float]:
    starts = []
    for start in HITS_START:
        if rng.random() < 0.5:
            start = -start
        if rng.random() < 0.5:
            start += math.pi
        starts.append(start % TWO_PI)
    if rng.random() < 0.5:
        starts.reverse()
    return starts[0], starts[1]


def _search_hits(rng: random.Random, size: int) -> Workload:
    start_a, start_b = hits_starts(rng)
    spec_a, grid_a = lin(start_a, size)
    spec_b, grid_b = lin(start_b, size)
    values = oracles.readouts(SINGLE_PULSE, grid_a, grid_b)
    if oracles.threshold_margin(values) <= 1e-9:
        raise AssertionError("hits grid has a readout on a quantization threshold")
    expected = oracles.expected_hits(oracles.quantize(values))
    return Workload(
        "search_hits",
        math.comb(size, 3) ** 2,
        ("search", "--sequence", "single-pulse", "--grid-a", spec_a, "--grid-b", spec_b,
         "--target", "multiplication", "--format", "json"),
        {},
        lambda output: oracles.check_search_hits(output, grid_a, grid_b, expected),
    )


_MAKERS = {
    "classify": _classify,
    "simulate": _simulate,
    "search_all": _search_all,
    "search_hits": _search_hits,
}


def make(name: str, seed: int, size: int | None = None) -> Workload:
    """Workload ``name`` for ``seed``; ``size`` overrides the grid points per
    axis (tests use small grids)."""
    return _MAKERS[name](random.Random(f"{name}:{seed}"), SIZES[name] if size is None else size)
