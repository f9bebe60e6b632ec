"""Mapping simulated experiments onto logic tables, and searching parameter
grids for implementations of target equivalence classes.

Binding three values to each placeholder of a sequence template
(:class:`spinlogic.spinsim.SequenceTemplate`) yields nine experiments whose
quantized readouts form a 3x3 logic table: the i-th chosen A value plays
the logic input ``(-1, 0, +1)[i]``, and likewise for B.  Since permuting the
three chosen values only relabels an input, any one ordering of a value
triple represents all six, so the search enumerates ascending triples from
each grid.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from . import npn
from .spinsim import MAX_GRID_POINTS, STEP_CELLS, SequenceTemplate
from .ternary import CheckedTuple, TernaryFunction

# numpy last, though spinsim loads it anyway: imported first, it would have
# spinsim compiled after numpy has loaded, which, without bytecode caches,
# left a search command about 0.4 MB more max RSS
import numpy as np

RAW_SLACK = 1e-9


class Quantizer(CheckedTuple, namedtuple("Quantizer", "epsilon")):
    """Threshold map from readout to {-1, 0, +1}: magnitudes below epsilon
    become 0, everything else keeps its sign.  The threshold does not scale
    with a template's readout bound.  A :class:`~spinlogic.ternary.CheckedTuple`."""

    __slots__ = ()

    def __new__(cls, epsilon=0.25) -> "Quantizer":
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        return tuple.__new__(cls, (epsilon,))


def quantize(x, q: Quantizer = Quantizer(), bound: float = 1.0):
    """Logic value of a readout (an int), or of each one in an array (int8).
    A readout beyond ``bound`` (plus slack), or NaN, indicates a simulator
    contract violation, not a logic value, and is an error."""
    x = np.asarray(x, dtype=float)
    over = ~(np.abs(x) <= bound + RAW_SLACK)
    if over.any():
        raise ValueError(f"readout {x[over][0]} outside [-{bound}, {bound}]")
    values = (x >= q.epsilon).astype(np.int8) - (x <= -q.epsilon)
    return values if values.ndim else int(values)


class ExperimentTable(namedtuple("ExperimentTable", "param_a param_b raw logic")):
    """Nine experiments laid out as a logic table: raw readouts and their
    quantization, with row i driven by param_a[i] and column j by param_b[j]."""

    __slots__ = ()


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


class SearchHit(namedtuple("SearchHit", "a_values b_values index npn_class")):
    """The a- and b-value triples of a hit, its function index and its class."""

    __slots__ = ()


def _quantized_grid(template: SequenceTemplate, grid_a, grid_b, q: Quantizer) -> np.ndarray:
    """Digit (value + 1) readout for every grid point; triples index into this.
    Each tile of readouts is quantized as it is simulated, so the float
    grid is never held whole."""
    if len(grid_a) < 3 or len(grid_b) < 3:
        raise ValueError(f"grids need at least 3 points each, got {len(grid_a)} and {len(grid_b)}")
    digits = np.empty((len(grid_a), len(grid_b)), dtype=np.uint8)
    for tile, values in template._tiles(grid_a, grid_b):
        digits[tile] = quantize(values, q, template.readout_bound) + 1
    return digits


_CODES = 27  # row codes: a table row of three digits read in base 3


def _triples(n: int, size: int):
    """Ascending index triples of range(n) in lexicographic order, as
    (k, 3) arrays of at most ``size`` rows, each chunk read by
    ``np.fromiter`` from one flat ``itertools.combinations`` iterator.  A
    step takes at most a few hundred b-triples, made at about 90 ns each,
    about 1 % of the 2-5 us that a fold spends on each."""
    total = math.comb(n, 3)
    combos = itertools.chain.from_iterable(itertools.combinations(range(n), 3))
    for low in range(0, total, size):
        k = min(size, total - low)
        yield np.fromiter(combos, dtype=np.intp, count=3 * k).reshape(k, 3)


def _walked(digits: np.ndarray) -> np.ndarray:
    """The digit grid as both folds walk it, with the axis of fewer triples
    as b: a pair and the swapped pair on the transpose lie in one class (the
    input swap is in the group), so a wider than tall grid is transposed."""
    return digits.T if digits.shape[1] > digits.shape[0] else digits


def _steps(digits: np.ndarray, cells: int, weights: np.ndarray | None = None):
    """The one walk over the b-triples of a digit grid of n rows, which the
    class count and the hit search each fold: (b, codes, h) per step, ``b``
    a (k, 3) chunk of b-triples in lexicographic order, ``codes`` the (n, k)
    row codes (0..26) of all n rows under them, the digits at each triple's
    three columns read as a little-endian base-3 number, and ``h`` their
    (k, 27) histograms, one per b-triple, from one ``bincount``: int64
    counts, or float64 sums that count row i ``weights[i]`` times.  The
    table of a-triple (i, j, k) and b-triple l has function index
    ``codes[i, l] + 27*codes[j, l] + 729*codes[k, l]``.

    A step takes k = STEP_CELLS // (n + 27*27 + cells) b-triples, at least
    one: per b-triple its n row codes, an allowance of 27*27 cells and the
    ``cells`` target cells of a hit search, so each b-triple is made once
    and a step stays near STEP_CELLS cells whatever the grid and targets:
    the hit search holds 27 histogram entries of the allowance, the count's
    28 x 28 moment corner 7 % more, past STEP_CELLS only below 56 rows."""
    size = max(1, STEP_CELLS // (len(digits) + _CODES * _CODES + cells))
    for b in _triples(digits.shape[1], size):
        codes, k = digits[:, b[:, 0]] + 3 * digits[:, b[:, 1]] + 9 * digits[:, b[:, 2]], len(b)
        # one expression, so no bins or tiled weights outlive the yield
        yield b, codes, np.bincount(
            (codes.T + _CODES * np.arange(k)[:, None]).ravel(),
            None if weights is None else np.tile(weights, k),
            minlength=k * _CODES,
        ).reshape(k, _CODES)


def _target_cells(wanted: np.ndarray) -> tuple[np.ndarray, ...]:
    """The row codes x <= y <= z of the wanted function indices x + 27y +
    729z, in ascending index order, and the repeats s1 = [y=x] and s2 =
    [z=x] + [z=y] of each cell, as five arrays.  A table's rows can be put
    in any order within its class, so both folds count ordered picks of
    distinct rows, one from each code's bucket: a b-triple whose row-code
    histogram is h holds h_x*(h_y - s1)*(h_z - s2) in a cell (s1 and s2
    rows of an equal code were picked before), (1 + s1)*(1 + s2) per
    a-triple."""
    z, y, x = np.indices((_CODES,) * 3, sparse=True)
    z, y, x = np.nonzero((x <= y) & (y <= z) & wanted.reshape((_CODES,) * 3))
    return x, y, z, (y == x) * 1, (z == x) * 1 + (z == y)


def _distinct_rows(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the digit grid and how often each occurs, found
    by a lexsort of the rows and a comparison of neighbours, which is 3 (on
    24x24) to 20 (on 300000x3) times faster than ``np.unique(axis=0)``."""
    ordered = digits[np.lexsort(digits.T)]
    starts = np.flatnonzero(np.concatenate(([True], np.any(ordered[1:] != ordered[:-1], axis=1))))
    return ordered[starts], np.diff(starts, append=len(ordered))


def _sorted_cells(rows: np.ndarray, occurs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The function index x + 27y + 729z of each of the 3,654 sorted cells
    x <= y <= z, and the number of (a-triple, b-triple) pairs of a digit grid
    of n rows, given as its distinct ``rows`` and how often each ``occurs``,
    whose a-triple's row codes under the b-triple are {x, y, z}.

    A cell's picks (``_target_cells``) under a b-triple with histogram h are
    h_x*h_y*h_z - s2*h_x*h_y - s1*h_x*h_z + s1*s2*h_x: given a unit code u
    that every b-triple holds once (h_u = 1), all three terms are entries of
    one moment sum over the b-triples, T[z, y, x] of h_x*h_y*h_z, as T[u, y,
    x] and T[u, u, x].  Equal rows have equal codes under every b-triple, so
    h counts the distinct rows weighted by how often each occurs.  A fold
    over ``_steps``: for each of the 28 codes z, a step adds to T the (z+1)
    x (z+1) corner of the product of its (28, k) histograms with themselves
    weighted by h_z, small enough for BLAS to run on one thread but for the
    28 x 28 corner on fewer than 56 rows."""
    triple = np.zeros((_CODES + 1,) * 3, dtype=np.int64)  # T[z, y, x] for x, y <= z
    for b, _, hist in _steps(rows, 0, occurs.astype(np.float64)):
        h = np.ones((_CODES + 1, len(b)))  # C-contiguous (28, k): a row per code, the unit code's last
        h[:_CODES] = hist.T
        del hist  # the step's own histograms, before the corner products
        # float64 is exact while every product and partial sum is an integer
        # below 2**53, which k * n**3 bounds; past that int64 is: a moment sum
        # is at most C(m,3)*n**3 <= (n*m)**3/6 < 2**63 for n*m up to 3.8e6
        if len(b) * n**3 >= 2**53:
            h = h.astype(np.int64)
        for z in range(_CODES + 1):
            triple[z, : z + 1, : z + 1] += (h[: z + 1] @ (h[: z + 1] * h[z]).T).astype(np.int64)
        del h  # before the next step's histograms
    x, y, z, s1, s2 = _target_cells(np.ones(_CODES**3, dtype=bool))
    m = triple[_CODES]  # m[y, x]: the sum of h_x*h_y, m[u, x]: that of h_x
    picks = triple[z, y, x] - s2 * m[y, x] - s1 * m[z, x] + s1 * s2 * m[_CODES, x]
    return x + _CODES * y + _CODES**2 * z, picks // ((1 + s1) * (1 + s2))


def _class_counts(digits: np.ndarray) -> dict[int, int]:
    """Canonical index -> number of (a-triple, b-triple) pairs of the digit
    grid whose table lies in that class.

    The grid is walked as ``_walked`` orients it.  Permuting a table's rows
    does not change its class, so the pairs are counted per sorted cell of
    row codes (``_sorted_cells``) over the distinct rows, and each cell is
    added into the class of its function index.  The class totals must sum
    to C(n,3)*C(m,3)."""
    digits = _walked(digits)
    n, m = digits.shape
    index, count = _sorted_cells(*_distinct_rows(digits), n)
    per_class = np.zeros(_CODES**3, dtype=np.int64)
    np.add.at(per_class, np.asarray(npn.canonical_map(3))[index], count)
    if int(per_class.sum()) != math.comb(n, 3) * math.comb(m, 3):
        raise AssertionError("class totals do not sum to the number of triple pairs")
    hit = np.flatnonzero(per_class)
    return dict(zip(hit.tolist(), per_class[hit].tolist()))


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

    A fold over the steps of ``_steps`` on the grid as ``_walked`` orients
    it, each step sized for its n rows and the target cells, so the (k,
    cells) picks of a step fit in STEP_CELLS.  Rows with equal codes under
    a b-triple are interchangeable, so its row-code histogram h fixes its
    hits, the picks of each target cell (``_target_cells``).  A step
    counts the picks of every (b-triple, cell) and expands only the
    nonzero ones, as one rank space walked in chunks of STEP_CELLS ranks:
    ``searchsorted`` over the cumulative picks finds a rank's (b-triple,
    cell), and mixed radix its picks, as offsets into the rows stably
    sorted by code, where bucket v starts at cumsum(h) - h.  A pick is kept
    only if its positions ascend, so each a-triple comes once where codes
    repeat; a chunk stacks its kept picks' rows (ascending), b-triple and
    function index as int32 rows.  A transposed walk's rows are mapped back
    at the end, their triples swapped and their index transposed, and all
    rows are sorted into triple order.  Once the hits counted so far pass
    MAX_GRID_POINTS the walk drops its rows and expands no further step, and
    then raises a ValueError that names the exact number of hits, counted
    by the rest of the same walk."""
    classes = {npn.canonical_index(t) for t in targets}
    wanted = np.isin(np.asarray(npn.canonical_map(3)), list(classes))
    digits = _quantized_grid(template, grid_a, grid_b, q)
    walked = _walked(digits)
    x, y, z, s1, s2 = _target_cells(wanted)
    cells, skip = np.stack((x, y, z)), np.stack((0 * x, s1, s2))  # skip: rows an equal code took before
    found, kept = [np.empty((0, 7), dtype=np.int32)], 0
    for b, codes, h in _steps(walked, len(x)):
        picks = h[:, x] * (h[:, y] - s1) * (h[:, z] - s2)
        l, cell = np.nonzero(picks)
        if not len(l):
            continue
        picks = picks[l, cell]
        kept += int((picks // np.prod(1 + skip[:, cell], axis=0)).sum())
        if kept > MAX_GRID_POINTS:  # count the rest of the walk, expand nothing more
            found.clear()
            continue
        # each pair's picks in mixed radix, and their offsets into its sorted rows
        radix = h[l, cells[:, cell]] - skip[:, cell]
        offset = (np.cumsum(h, axis=1) - h)[l, cells[:, cell]] + skip[:, cell]
        order, ends = np.argsort(codes, axis=0, kind="stable"), np.cumsum(picks)
        for start in range(0, ends[-1], STEP_CELLS):
            rank = np.arange(start, min(start + STEP_CELLS, ends[-1]))
            pair = ends.searchsorted(rank, "right")
            rank -= ends[pair] - picks[pair]  # the rank within its (b-triple, cell)
            rank, last = np.divmod(rank, radix[2, pair])
            # sorted positions of the picked rows
            pos = np.stack((*np.divmod(rank, radix[1, pair]), last)) + offset[:, pair]
            keep = (pos[0] < pos[1]) & (pos[1] < pos[2])
            col = l[pair[keep]]
            # ascending by a min/max network: 6 times faster than np.sort(axis=0),
            # and without its sort kernel's pages, 0.3 MB of a search's max RSS
            i, j, k = order[pos[:, keep], col]
            i, j = np.minimum(i, j), np.maximum(i, j)
            j, k = np.minimum(j, k), np.maximum(j, k)
            i, j = np.minimum(i, j), np.maximum(i, j)
            index = _CODES ** np.arange(3) @ codes[[i, j, k], col]  # uint8 codes, widened
            found.append(np.stack((i, j, k, *b[col].T, index), axis=1, dtype=np.int32))
    if kept > MAX_GRID_POINTS:
        raise ValueError(f"search has {kept} hits, more than the limit of {MAX_GRID_POINTS}")
    found = np.concatenate(found)
    if walked is not digits:  # swap the triples back and transpose each table:
        # digit 3*row + column of a function index moves to 3*column + row
        swap = np.arange(_CODES**3).reshape((3,) * 9).transpose(0, 3, 6, 1, 4, 7, 2, 5, 8)
        found = found[:, [3, 4, 5, 0, 1, 2, 6]]
        found[:, 6] = swap.flat[found[:, 6]]
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
    canon = np.asarray(npn.canonical_map(3))
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

    Counted from row-code histograms over the distinct rows (see
    ``_class_counts``) rather than pair by pair: for m the grid's shorter
    axis and d the distinct rows along the longer one, the cost is about
    O(C(m,3) * (d + 28**3/3)) instead of O(C(n,3) * C(m,3)), and each step's
    working memory is bounded by STEP_CELLS, whatever the grid size."""
    return _class_counts(_quantized_grid(template, grid_a, grid_b, q))
