"""Mapping simulated experiments onto logic tables, and searching parameter
grids for implementations of target equivalence classes.

A sequence template is a pulse-sequence document in which numeric fields of
sequence elements may be the placeholder strings "$A" or "$B".  Binding three
values to each placeholder yields nine experiments whose quantized readouts
form a 3x3 logic table: the i-th chosen A value plays the logic input
``(-1, 0, +1)[i]``, and likewise for B.  Since permuting the three chosen
values only relabels an input, any one ordering of a value triple represents
all six, so the search enumerates ascending triples from each grid.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import npn
from .spinsim import Delay, document_from_dict, run_steps
from .ternary import TernaryFunction

RAW_SLACK = 1e-9

# Cells per step of every grid walk, which sizes its step from the grid shape:
# point-peaks of a readout block; per b-triple, a-values plus 27*27 cells of the
# class count, which keep each of its 27x27 slice products within this many
# multiply-adds; or a-values plus at most 27*27 a-triples of the hit search,
# whose a-triple blocks also hold at most this many pairs of uint16 function
# indices.  A few MB.
STEP_CELLS = 1 << 18

# Largest grid a command evaluates, largest linear grid spec it expands, and
# most hits a search lists: a grid's readouts are held as one float per point,
# a hit as seven int32 indices.
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class Quantizer:
    """Threshold map from readout to {-1, 0, +1}: magnitudes below epsilon
    become 0, everything else keeps its sign.  The threshold does not scale
    with a template's readout bound."""

    epsilon: float = 0.25

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")


def quantize(x, q: Quantizer = Quantizer(), bound: float = 1.0):
    """Logic value of a readout (an int), or of each one in an array (int8).
    A readout beyond ``bound`` (plus slack) indicates a simulator contract
    violation, not a logic value, and is an error."""
    x = np.asarray(x, dtype=float)
    over = np.abs(x) > bound + RAW_SLACK
    if over.any():
        raise ValueError(f"readout {x[over][0]} outside [-{bound}, {bound}]")
    values = (x >= q.epsilon).astype(np.int8) - (x <= -q.epsilon)
    return values if values.ndim else int(values)


PLACEHOLDERS = ("$A", "$B")


class SequenceTemplate:
    """Pulse-sequence document with exactly two free parameters, $A and $B.

    The document is parsed once, so its errors show before any simulation;
    a placeholder parses as 1.0, which every numeric element field accepts,
    and ``slots`` holds the (element position, field, placeholder) of each.

    ``readout_bound`` bounds the summed readout at every grid point: one
    transverse component per peak, each at most the peak's norm.  Pulses and
    precession preserve that norm and a T1 delay, moving mz toward 1, raises
    its square by at most 1, so a peak without T1 contributes 1 and a peak
    with T1 in a sequence of d delays sqrt(1 + d)."""

    def __init__(self, document: dict):
        self.system, self.sequence, self.slots = document_from_dict(document)
        for _, key, name in self.slots:
            if name not in PLACEHOLDERS:
                raise ValueError(f"unknown placeholder {name!r} in field {key!r}")
        missing = [p for p in PLACEHOLDERS if p not in {name for _, _, name in self.slots}]
        if missing:
            raise ValueError(f"template must use both $A and $B, missing {missing}")
        delays = sum(isinstance(e, Delay) for e in self.sequence.elements)
        self.readout_bound = sum(
            1.0 if p.t1 is None else math.sqrt(1 + delays) for p in self.system.peaks
        )

    @classmethod
    def from_json(cls, text: str) -> "SequenceTemplate":
        try:
            document = json.loads(text)
        except RecursionError:
            raise ValueError("template JSON is nested too deeply") from None
        return cls(document)

    def _checked(self, name: str, grid):
        """(position, field, values) for each slot of placeholder ``name``,
        every grid value checked once by the element's own validation."""
        for k, key, placeholder in self.slots:
            if placeholder == name:
                element = self.sequence.elements[k]
                yield k, key, [getattr(replace(element, **{key: v}), key) for v in grid]

    def readouts(self, grid_a, grid_b) -> np.ndarray:
        """Summed x readout at every grid point, shape (len(grid_a),
        len(grid_b)).  Each ``run_steps`` call takes a block of $A rows of
        at most STEP_CELLS point-peaks (at least one row), with the $A values
        repeated and the $B values tiled over the block."""
        n, m = len(grid_a), len(grid_b)
        rows = max(1, STEP_CELLS // (max(m, 1) * len(self.system.peaks)))
        a_slots = [(k, key, np.repeat(v, m)) for k, key, v in self._checked("$A", grid_a)]
        b_slots = [(k, key, np.tile(v, min(rows, n))) for k, key, v in self._checked("$B", grid_b)]
        steps = [(type(e), dict(vars(e))) for e in self.sequence.elements]
        out = np.empty((n, m))
        for start in range(0, n, rows):
            block = out[start : start + rows]
            for k, key, values in a_slots:
                steps[k][1][key] = values[start * m : start * m + block.size, None]
            for k, key, values in b_slots:
                steps[k][1][key] = values[: block.size, None]
            x, _, _ = run_steps(self.system, steps, block.size)
            block[:] = sum(x.T, 0.0).reshape(block.shape)  # peak by peak, like read_mx
        return out


def single_pulse_template() -> SequenceTemplate:
    """One on-resonance peak, one pulse: flip angle $A, phase $B."""
    return SequenceTemplate(
        {
            "peaks": [{"label": "s", "offset_rad_s": 0.0}],
            "sequence": [{"type": "hard_pulse", "beta": "$A", "phi": "$B"}],
        }
    )


def two_pulse_template(phi1: float = 3 * math.pi / 2, beta2: float = math.pi / 2) -> SequenceTemplate:
    """One peak, two pulses: first flip angle $A at fixed phase phi1, then a
    fixed beta2 rotation at phase $B."""
    return SequenceTemplate(
        {
            "peaks": [{"label": "s", "offset_rad_s": 0.0}],
            "sequence": [
                {"type": "hard_pulse", "beta": "$A", "phi": phi1},
                {"type": "hard_pulse", "beta": beta2, "phi": "$B"},
            ],
        }
    )


def selective_delay_template(omega_a: float = math.pi) -> SequenceTemplate:
    """Two peaks at omega_a and 2*omega_a, a selective pi/2 excitation at
    frequency $B, then a precession delay $A before acquisition."""
    if omega_a <= 0:
        raise ValueError(f"omega_a must be positive, got {omega_a}")
    return SequenceTemplate(
        {
            "peaks": [
                {"label": "A", "offset_rad_s": omega_a},
                {"label": "B", "offset_rad_s": 2 * omega_a},
            ],
            "sequence": [
                {
                    "type": "selective_pulse",
                    "beta": math.pi / 2,
                    "phi": math.pi / 2,
                    "target_offset": "$B",
                    "tolerance": omega_a / 4,
                },
                {"type": "delay", "tau": "$A"},
            ],
        }
    )


def selective_delay_inputs(
    omega_a: float = math.pi,
) -> tuple[SequenceTemplate, tuple[float, float, float], tuple[float, float, float]]:
    """The selective-delay template with the delay triple (0, quarter turn of
    peak A, half turn of peak A) and the frequency triple (peak A, midpoint,
    peak B)."""
    template = selective_delay_template(omega_a)
    delays = (0.0, math.pi / (2 * omega_a), math.pi / omega_a)
    frequencies = (omega_a, 1.5 * omega_a, 2 * omega_a)
    return template, delays, frequencies


@dataclass(frozen=True)
class ExperimentTable:
    """Nine experiments laid out as a logic table: raw readouts and their
    quantization, with row i driven by param_a[i] and column j by param_b[j]."""

    param_a: tuple[float, float, float]
    param_b: tuple[float, float, float]
    raw: tuple[tuple[float, float, float], ...]
    logic: TernaryFunction


def evaluate_table(
    template: SequenceTemplate,
    a_vals,
    b_vals,
    q: Quantizer = Quantizer(),
) -> ExperimentTable:
    """Run the 3x3 grid of experiments and quantize into a truth table."""
    a_vals, b_vals = tuple(a_vals), tuple(b_vals)
    if len(a_vals) != 3 or len(b_vals) != 3:
        raise ValueError("evaluate_table needs exactly 3 values per parameter")
    raw = template.readouts(a_vals, b_vals)
    logic = TernaryFunction.from_rows(quantize(raw, q, template.readout_bound).tolist())
    return ExperimentTable(a_vals, b_vals, tuple(map(tuple, raw.tolist())), logic)


@dataclass(frozen=True)
class SearchHit:
    a_values: tuple[float, float, float]
    b_values: tuple[float, float, float]
    index: int
    npn_class: npn.NpnClass


def _quantized_grid(template: SequenceTemplate, grid_a, grid_b, q: Quantizer) -> np.ndarray:
    """Digit (value + 1) readout for every grid point; triples index into this."""
    if len(grid_a) < 3 or len(grid_b) < 3:
        raise ValueError(f"grids need at least 3 points each, got {len(grid_a)} and {len(grid_b)}")
    readouts = template.readouts(grid_a, grid_b)
    return (quantize(readouts, q, template.readout_bound) + 1).astype(np.uint8)


_CODES = 27  # row codes: a table row of three digits read in base 3


def _triples(n: int, size: int):
    """Ascending index triples of range(n) in lexicographic order, as
    (k, 3) arrays of at most ``size`` rows."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), 3))
    while (chunk := np.fromiter(itertools.islice(flat, 3 * size), dtype=np.intp)).size:
        yield chunk.reshape(-1, 3)


def _row_codes(digits: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row code (0..26) of every grid row under every b-triple: the digits
    at the triple's three columns, read as a little-endian base-3 number.
    The table of a-triple (i, j, k) and b-triple l has function index
    ``code[i, l] + 27*code[j, l] + 729*code[k, l]``."""
    return digits[..., b[:, 0]] + 3 * digits[..., b[:, 1]] + 9 * digits[..., b[:, 2]]


def _class_counts(digits: np.ndarray) -> dict[int, int]:
    """Canonical index -> number of (a-triple, b-triple) pairs of the digit
    grid whose table lies in that class.

    Permuting a table's rows does not change its class, so for a fixed
    b-triple the class of an a-triple depends only on its three row codes.
    A b-triple whose histogram of row codes over the n rows is h contributes
    h_x*(h_y - [y=x])*(h_z - [z=x] - [z=y]) ordered triples of distinct rows
    with codes (x, y, z).  Summed over b-triples, that is the triple product
    of the histograms less pair products on the diagonals plus twice the
    single counts on the main diagonal.  Each unordered a-triple appears six
    times in the result, once per row order, all in the same class.

    A step takes k = STEP_CELLS // (n + 27*27) b-triples, at least one, and
    adds its triple product slice by slice: the slice of code z is the
    (27, k) @ (k, 27) product of the histograms with themselves weighted by
    the count of z.  So a step holds its (k, n) row codes and a few (k, 27)
    arrays, never a (k, 27*27) outer product, and with 27*27*k at most
    STEP_CELLS each product is small enough for BLAS to run on one thread."""
    n, m = digits.shape
    chunk = max(1, STEP_CELLS // (n + _CODES * _CODES))
    # float64 matrix products are exact while every partial sum is an integer below 2**53
    if chunk * n**3 >= 2**53:
        raise ValueError(f"grid of {n} a-values is too large to count exactly")
    triple = np.zeros((_CODES,) * 3, dtype=np.int64)
    step_triple = np.empty((_CODES,) * 3)
    pair = np.zeros((_CODES, _CODES), dtype=np.int64)
    single = np.zeros(_CODES, dtype=np.int64)
    for b in _triples(m, chunk):
        k = len(b)
        bins = _row_codes(digits, b).T + _CODES * np.arange(k)[:, None]
        hist = np.bincount(bins.ravel(), minlength=k * _CODES).reshape(k, _CODES)
        h = hist.astype(np.float64)
        for z in range(_CODES):
            np.matmul(h.T, h * h[:, z : z + 1], out=step_triple[z])
        triple += step_triple.astype(np.int64)
        pair += (h.T @ h).astype(np.int64)
        single += hist.sum(axis=0)
    diag = np.arange(_CODES)
    triple[diag, diag, :] -= pair
    triple[:, diag, diag] -= pair
    triple[diag, :, diag] -= pair
    triple[diag, diag, diag] += 2 * single
    # cell (x, y, z) holds rows with codes x, y, z: function index x + 27y + 729z
    ordered = triple.transpose(2, 1, 0).ravel()
    per_class = np.zeros(ordered.size, dtype=np.int64)
    np.add.at(per_class, npn.canonical_map(3), ordered)
    if (per_class % 6).any():
        raise AssertionError("ordered triple counts are not a multiple of the 6 row orders")
    hit = np.flatnonzero(per_class)
    return dict(zip(hit.tolist(), (per_class[hit] // 6).tolist()))


def hit_rows(
    template: SequenceTemplate,
    grid_a,
    grid_b,
    q: Quantizer = Quantizer(),
    targets=frozenset(),
) -> np.ndarray:
    """Every ascending triple choice whose table lands in a target class, as
    an (h, 7) int32 array in lexicographic triple order: each row holds the
    grid_a indices i < j < k, the grid_b indices x < y < z and the table's
    function index.  ``targets`` holds function indices; each is resolved to
    its canonical representative first.  An empty result is a valid answer
    (the template cannot realize the targets on these grids).

    One walk over the b-triples, as in ``_class_counts``: a step takes
    STEP_CELLS // (n + min(C(n,3), 27*27)) b-triples, at least one, and the
    row codes of all n rows under them; the a-triples are scored against
    those codes in blocks of STEP_CELLS // (b-triples in the step), whose
    uint16 function indices are built in place.  So each b-triple is made
    once and the working memory is bounded by STEP_CELLS cells plus the
    rows, which are sorted into triple order at the end.  Past
    MAX_GRID_POINTS kept rows the walk stops, drops them and raises a
    ValueError that names the exact number of hits, counted by
    ``_class_counts``."""
    classes = {npn.canonical_index(t) for t in targets}
    wanted = np.isin(npn.canonical_map(3), list(classes))
    digits = _quantized_grid(template, grid_a, grid_b, q)
    n, m = digits.shape
    found, kept = [], 0
    for b in _triples(m, max(1, STEP_CELLS // (n + min(math.comb(n, 3), _CODES * _CODES)))):
        codes = _row_codes(digits, b).astype(np.uint16)
        for a in _triples(n, max(1, STEP_CELLS // len(b))):
            # code_i + 27*code_j + 729*code_k, by Horner's rule
            index = codes[a[:, 2]]
            index *= _CODES
            index += codes[a[:, 1]]
            index *= _CODES
            index += codes[a[:, 0]]
            k, l = np.nonzero(wanted[index])
            rows = np.empty((len(k), 7), dtype=np.int32)
            rows[:, :3], rows[:, 3:6], rows[:, 6] = a[k], b[l], index[k, l]
            found.append(rows)
            kept += len(rows)
            if kept > MAX_GRID_POINTS:
                found.clear()
                total = sum(_class_counts(digits).get(c, 0) for c in classes)
                raise ValueError(
                    f"search has {total} hits, more than the limit of {MAX_GRID_POINTS}"
                )
    found = np.concatenate(found)
    # distinct (a-triple, b-triple) index tuples: their order is the triple order
    return found[np.lexsort(found[:, 5::-1].T)]


def search(
    template: SequenceTemplate,
    grid_a,
    grid_b,
    q: Quantizer = Quantizer(),
    targets=frozenset(),
) -> list[SearchHit]:
    """The hits of :func:`hit_rows` as grid values, function index and
    equivalence class, in the same order; each class's orbit is computed
    once."""
    rows = hit_rows(template, grid_a, grid_b, q, targets)
    canon = npn.canonical_map(3)
    classes = {c: npn.orbit(c) for c in sorted(set(canon[rows[:, 6]].tolist()))}
    return [
        SearchHit(
            tuple(grid_a[i] for i in row[:3]),
            tuple(grid_b[j] for j in row[3:6]),
            row[6],
            classes[int(canon[row[6]])],
        )
        for row in rows.tolist()
    ]


def achievable_classes(
    template: SequenceTemplate,
    grid_a,
    grid_b,
    q: Quantizer = Quantizer(),
) -> dict[int, int]:
    """Canonical index -> number of triple pairs realizing that class, over
    every ascending triple choice from the grids.

    Counted from row-code histograms (see ``_class_counts``) rather than
    pair by pair: the cost is about O(C(m,3) * (n + 27**3)) for n values of
    $A and m of $B, instead of O(C(n,3) * C(m,3)), and each step's working
    memory is bounded by STEP_CELLS, whatever the grid size."""
    return _class_counts(_quantized_grid(template, grid_a, grid_b, q))
