"""``spinlogic simulate``: the readout grid of a sequence template, as CSV,
JSON or a table.  It loads the spin layer alone."""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import _emit, _fmt
from .grid import _template_and_grids

if TYPE_CHECKING:
    import numpy as np


def _simulate_report(grid_a: list[float], grid_b: list[float], values: np.ndarray, fmt: str):
    """Text pieces of the simulate report on the (n, m) readouts ``values``
    of two non-empty grids: the grids, then one piece per grid row.
    Byte-identical to ``json.dumps({"grid_a": grid_a, "grid_b": grid_b,
    "values": values.tolist()}, sort_keys=True, indent=2) + "\n"``, whose
    finite floats are their ``repr``, to the CSV of a header line and one
    line per row, or to the table of one line per row."""
    if fmt == "json":

        def array(xs, indent: str) -> str:
            return f"[\n{indent}  " + f",\n{indent}  ".join(map(repr, xs)) + f"\n{indent}]"

        yield f'{{\n  "grid_a": {array(grid_a, "  ")},\n  "grid_b": {array(grid_b, "  ")},\n  "values": [\n'
        for i, row in enumerate(values):
            yield (",\n    " if i else "    ") + array(row.tolist(), "    ")
        yield "\n  ]\n}\n"
    elif fmt == "table":
        for row in values:
            yield " ".join(f"{x:>12.6f}" for x in row.tolist()) + "\n"
    else:
        yield "a\\b," + ",".join(_fmt(b) for b in grid_b) + "\n"
        for a, row in zip(grid_a, values):
            yield _fmt(a) + "," + ",".join(_fmt(x) for x in row.tolist()) + "\n"


def run(args) -> int:
    template, grid_a, grid_b = _template_and_grids(args)
    values = template.readouts(grid_a, grid_b)
    _emit(_simulate_report(grid_a, grid_b, values, args.format), args.out)
    return 0
