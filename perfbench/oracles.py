"""Reference answers for the benchmark workloads, computed without spinlogic.

Everything here is re-derived from the definitions in the README: the
relabelling group acts on a 3x3 table by permuting its rows, permuting its
columns, optionally transposing, and permuting the output values; a readout
is the summed x magnetization after 3x3 rotation matrices, z precession and
T1 recovery; a table is quantized at +-0.25.  Each ``check_*`` function
takes the CLI's parsed JSON output and returns a list of mismatches, empty
when the output is correct.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

EPSILON = 0.25  # the CLI's default quantization threshold
READOUT_TOLERANCE = 1e-9
GRID_TOLERANCE = 1e-12
NUM_FUNCTIONS = 3**9
CELL_WEIGHTS = 3 ** np.arange(9, dtype=np.int64).reshape(3, 3)
MULTIPLICATION = int((CELL_WEIGHTS * (np.outer([-1, 0, 1], [-1, 0, 1]) + 1)).sum())


def all_tables() -> np.ndarray:
    """(19683, 3, 3) digit tables (logic value + 1); the row is input A."""
    index = np.arange(NUM_FUNCTIONS, dtype=np.int64)
    return ((index[:, None] // CELL_WEIGHTS.ravel()) % 3).reshape(-1, 3, 3)


def table_index(tables: np.ndarray) -> np.ndarray:
    return (tables * CELL_WEIGHTS).sum(axis=(-2, -1))


@functools.lru_cache(maxsize=None)
def group_images() -> np.ndarray:
    """(432, 19683): the index of every relabelling of every function."""
    tables = all_tables()
    perms = [np.array(p) for p in itertools.permutations(range(3))]
    images = []
    for rows in perms:
        for cols in perms:
            moved = tables[:, rows][:, :, cols]
            for placed in (moved, moved.transpose(0, 2, 1)):
                for out in perms:
                    images.append(table_index(out[placed]))
    return np.array(images, dtype=np.int32)


def canonical_map() -> np.ndarray:
    """Minimum orbit member for every function index, by brute force."""
    return group_images().min(axis=0)


def burnside_count() -> int:
    images = group_images()
    fixed = int((images == np.arange(NUM_FUNCTIONS)).sum())
    return fixed // len(images)


def multiplication_orbit() -> frozenset[int]:
    return frozenset(group_images()[:, MULTIPLICATION].tolist())


# --- classify -----------------------------------------------------------------


def _distinct_per_line(lines: np.ndarray) -> np.ndarray:
    """Distinct values in each length-3 line along the last axis."""
    x, y, z = lines[..., 0], lines[..., 1], lines[..., 2]
    return 1 + (x != y) + ((z != x) & (z != y))


def expected_classify() -> dict:
    canon = canonical_map()
    sizes = np.bincount(canon, minlength=NUM_FUNCTIONS)
    tables = all_tables()
    npn_classes = [
        {"canonical": int(c), "size": int(sizes[c]), "table": (tables[c] - 1).tolist()}
        for c in np.flatnonzero(sizes)
    ]
    rows = np.sort(_distinct_per_line(tables), axis=1).tolist()
    cols = np.sort(_distinct_per_line(tables.transpose(0, 2, 1)), axis=1).tolist()
    members: dict[tuple, list[int]] = {}
    for i, (r, c) in enumerate(zip(map(tuple, rows), map(tuple, cols))):
        members.setdefault((min(r, c), max(r, c)), []).append(i)
    pc_classes = [
        {
            "signature": [list(sig[0]), list(sig[1])],
            "member_count": len(found),
            "npn_canonicals": sorted({int(canon[i]) for i in found}),
        }
        for sig, found in sorted(members.items())
    ]
    return {
        "radix": 3,
        "function_count": NUM_FUNCTIONS,
        "npn_class_count": len(npn_classes),
        "burnside_count": burnside_count(),
        "pc_class_count": len(pc_classes),
        "self_check": "pass",
        "npn_classes": npn_classes,
        "pc_classes": pc_classes,
    }


def check_classify(report, expected: dict) -> list[str]:
    if not isinstance(report, dict):
        return ["classify report is not a JSON object"]
    problems = [
        f"{key}: got {report.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if key not in ("npn_classes", "pc_classes") and report.get(key) != value
    ]
    got_npn = [
        {k: c.get(k) for k in ("canonical", "size", "table")} for c in report.get("npn_classes", [])
    ]
    if got_npn != expected["npn_classes"]:
        problems.append("npn_classes differ from the brute-force (canonical, size, table) list")
    got_pc = [
        {k: c.get(k) for k in ("signature", "member_count", "npn_canonicals")}
        for c in report.get("pc_classes", [])
    ]
    if got_pc != expected["pc_classes"]:
        problems.append("pc_classes differ from the brute-force signatures and member counts")
    return problems


# --- spin simulation ------------------------------------------------------------


def _rotation(beta, phi) -> np.ndarray:
    """Rodrigues matrix for flip angle beta about (cos phi, sin phi, 0),
    broadcast over the shapes of beta and phi, matrix axes last."""
    beta, phi = np.broadcast_arrays(np.asarray(beta, float), np.asarray(phi, float))
    c, s = np.cos(beta), np.sin(beta)
    kx, ky = np.cos(phi), np.sin(phi)
    t = 1.0 - c
    return np.stack(
        [
            np.stack([c + t * kx * kx, t * kx * ky, s * ky], axis=-1),
            np.stack([t * kx * ky, c + t * ky * ky, -s * kx], axis=-1),
            np.stack([-s * ky, s * kx, c], axis=-1),
        ],
        axis=-2,
    )


def _z_rotation(angle) -> np.ndarray:
    """Precession by ``angle`` about z, matrix axes last."""
    c, s = np.cos(angle), np.sin(angle)
    zero, one = np.zeros_like(c), np.ones_like(c)
    return np.stack(
        [
            np.stack([c, -s, zero], axis=-1),
            np.stack([s, c, zero], axis=-1),
            np.stack([zero, zero, one], axis=-1),
        ],
        axis=-2,
    )


def readouts(document: dict, grid_a, grid_b) -> np.ndarray:
    """Summed x magnetization of a template document at every (a, b) point;
    rows follow grid_a and columns grid_b."""
    a = np.asarray(grid_a, float)[:, None]
    b = np.asarray(grid_b, float)[None, :]
    shape = (a.shape[0], b.shape[1])

    def field(element: dict, key: str) -> np.ndarray:
        raw = element[key]
        value = a if raw == "$A" else b if raw == "$B" else float(raw)
        return np.broadcast_to(value, shape)

    def turn(matrix: np.ndarray, m: np.ndarray) -> np.ndarray:
        return np.einsum("...ij,...j->...i", matrix, m)

    total = np.zeros(shape)
    for peak in document["peaks"]:
        offset = float(peak["offset_rad_s"])
        m = np.zeros(shape + (3,))
        m[..., 2] = 1.0
        for element in document["sequence"]:
            kind = element["type"]
            if kind == "delay":
                tau = field(element, "tau")
                m = turn(_z_rotation(offset * tau), m)
                if "t1_s" in peak:
                    m[..., 2] = 1.0 + (m[..., 2] - 1.0) * np.exp(-tau / float(peak["t1_s"]))
                continue
            rotated = turn(_rotation(field(element, "beta"), field(element, "phi")), m)
            if kind == "hard_pulse":
                m = rotated
            elif kind == "selective_pulse":
                inside = np.abs(offset - field(element, "target_offset")) < field(element, "tolerance")
                m = np.where(inside[..., None], rotated, m)
            else:
                raise ValueError(f"unknown sequence element type {kind!r}")
        total += m[..., 0]
    return total


def threshold_margin(values: np.ndarray) -> float:
    """Distance of the readout closest to a quantization threshold."""
    return float(np.min(np.abs(np.abs(values) - EPSILON)))


def check_simulate(output, grid_a, grid_b, expected: np.ndarray) -> list[str]:
    if not isinstance(output, dict):
        return ["simulate output is not a JSON object"]
    problems = []
    for key, grid in (("grid_a", grid_a), ("grid_b", grid_b)):
        got = np.asarray(output.get(key, []), float)
        if got.shape != (len(grid),) or np.max(np.abs(got - grid)) > GRID_TOLERANCE:
            problems.append(f"{key} differs from the requested grid")
    values = np.asarray(output.get("values", []), float)
    if values.shape != expected.shape:
        problems.append(f"values have shape {values.shape}, expected {expected.shape}")
    else:
        worst = float(np.max(np.abs(values - expected)))
        if not worst <= READOUT_TOLERANCE:
            problems.append(f"readouts differ from the rotation-matrix oracle by {worst:.3g}")
    return problems


# --- search ----------------------------------------------------------------------


def quantize(values: np.ndarray) -> np.ndarray:
    """Digits (logic value + 1) of readouts at the CLI's default threshold."""
    return np.where(values >= EPSILON, 2, np.where(values <= -EPSILON, 0, 1))


def ascending_triples(n: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp)


def pair_indices(digits: np.ndarray) -> np.ndarray:
    """Function index of the table of every (A triple, B triple) pair, both in
    lexicographic order: rows of the table follow the A triple."""
    n, m = digits.shape
    codes = (digits[:, ascending_triples(m)] * np.array([1, 3, 9])).sum(axis=-1)
    a = ascending_triples(n)
    return codes[a[:, 0]] + 27 * codes[a[:, 1]] + 729 * codes[a[:, 2]]


def expected_search_all(digits: np.ndarray) -> dict[int, int]:
    """Canonical index -> number of triple pairs, for every class."""
    per_function = np.bincount(pair_indices(digits).ravel(), minlength=NUM_FUNCTIONS)
    canon = canonical_map()
    counts = np.zeros(NUM_FUNCTIONS, dtype=np.int64)
    np.add.at(counts, canon, per_function)
    return {int(c): int(counts[c]) for c in np.unique(canon)}


def check_search_all(rows, expected: dict[int, int], pairs: int) -> list[str]:
    if not isinstance(rows, list):
        return ["search output is not a JSON list"]
    sizes = np.bincount(canonical_map(), minlength=NUM_FUNCTIONS)
    problems = []
    if sorted(r.get("canonical") for r in rows) != sorted(expected):
        problems.append(f"{len(rows)} class rows, expected the {len(expected)} brute-force classes")
    for r in rows:
        c = r.get("canonical")
        if c not in expected:
            continue
        want = {"size": int(sizes[c]), "tables": expected[c], "achievable": expected[c] > 0}
        got = {k: r.get(k) for k in want}
        if got != want:
            problems.append(f"class {c}: got {got}, expected {want}")
    total = sum(r.get("tables", 0) for r in rows)
    if total != pairs:
        problems.append(f"table counts sum to {total}, expected C(n,3)*C(m,3) = {pairs}")
    return problems


def expected_hits(digits: np.ndarray) -> list[tuple[int, int, int]]:
    """(A triple rank, B triple rank, table index) of every pair whose table
    is in the multiplication orbit, in lexicographic triple order."""
    indices = pair_indices(digits)
    mask = np.isin(indices, np.array(sorted(multiplication_orbit())))
    return [(int(k), int(l), int(indices[k, l])) for k, l in zip(*np.nonzero(mask))]


def check_search_hits(hits, grid_a, grid_b, expected: list[tuple[int, int, int]]) -> list[str]:
    if not isinstance(hits, list):
        return ["search output is not a JSON list"]
    if len(hits) != len(expected):
        return [f"{len(hits)} hits, expected {len(expected)}"]
    orbit = multiplication_orbit()
    a_triples = ascending_triples(len(grid_a))
    b_triples = ascending_triples(len(grid_b))
    problems = []
    for hit, (k, l, index) in zip(hits, expected):
        a_values = np.asarray(grid_a)[a_triples[k]]
        b_values = np.asarray(grid_b)[b_triples[l]]
        if (
            np.asarray(hit.get("a_values"), float).shape != (3,)
            or np.asarray(hit.get("b_values"), float).shape != (3,)
            or np.max(np.abs(np.asarray(hit["a_values"], float) - a_values)) > GRID_TOLERANCE
            or np.max(np.abs(np.asarray(hit["b_values"], float) - b_values)) > GRID_TOLERANCE
            or hit.get("table_index") != index
            or hit.get("table_index") not in orbit
            or hit.get("canonical") != min(orbit)
            or hit.get("class_size") != len(orbit)
        ):
            problems.append(f"hit {hit} differs from the oracle's triples {a_values}, {b_values}, index {index}")
            if len(problems) >= 5:
                break
    return problems
