"""``spinlogic search``: the grid pairs that realize a target class (a hit
report in CSV or JSON), or with ``--target all`` the number of tables of
every class.  It loads the group, spin and search layers and numpy."""

from __future__ import annotations

import itertools

from . import _emit, _fmt, _json
from .grid import _template_and_grids

# the group and search layers before numpy (the search layer loads it last),
# so that no module is compiled after numpy has loaded
from .. import npn, search
from ..ternary import encode, multiplication

import numpy as np


def _resolve_target(spec: str) -> int:
    if spec == "multiplication":
        return encode(multiplication())
    return int(spec)


def _hit_report(rows, grid_a: list[float], grid_b: list[float], fmt: str):
    """Text pieces of the hit report on the rows of ``search.hit_rows``, a
    few hundred rows per piece, one format string per row.  Byte-identical to
    ``json.dumps(hits, sort_keys=True, indent=2) + "\n"`` of a list of hit
    objects, or to the CSV of one line per hit; each grid value is formatted
    once, in JSON as its ``repr`` (what ``json.dumps`` writes for a finite
    float, and the template rejects any other grid value), and each class's
    canonical and size come from the canonical map."""
    as_json = fmt == "json"
    if as_json:
        value_text, head, sep, tail = repr, "[\n", ",\n", "\n]\n"
        line = (
            '  {\n    "a_values": [\n      %s,\n      %s,\n      %s\n    ],\n'
            '    "b_values": [\n      %s,\n      %s,\n      %s\n    ],\n'
            '    "canonical": %d,\n    "class_size": %d,\n    "table_index": %d\n  }'
        )
    else:
        value_text, sep, tail = _fmt, "\n", "\n"
        head = "a1,a2,a3,b1,b2,b3,table_index,canonical,class_size\n"
        line = "%s,%s,%s,%s,%s,%s,%d,%d,%d"
    if not len(rows):
        yield "[]\n" if as_json else head
        return
    a_text, b_text = [value_text(v) for v in grid_a], [value_text(v) for v in grid_b]
    canon = np.asarray(npn.canonical_map(3))
    sizes = np.bincount(canon)
    yield head
    per_piece = 256
    for start in range(0, len(rows), per_piece):
        block = rows[start : start + per_piece]
        index = block[:, 6]
        canonical = canon[index]
        size = sizes[canonical]
        numbers = np.column_stack((canonical, size, index) if as_json else (index, canonical, size))
        yield (sep if start else "") + sep.join(
            line % (a_text[i], a_text[j], a_text[k], b_text[x], b_text[y], b_text[z], *n)
            for (i, j, k, x, y, z), n in zip(block[:, :6].tolist(), numbers.tolist())
        )
    yield tail


def run(args) -> int:
    template, grid_a, grid_b = _template_and_grids(args)
    quantizer = search.Quantizer(epsilon=args.epsilon)

    if args.target == "all":
        counts = search.achievable_classes(template, grid_a, grid_b, quantizer)
        sizes = np.bincount(np.asarray(npn.canonical_map(3))).tolist()
        rows = [
            {
                "canonical": c,
                "size": size,
                "achievable": c in counts,
                "tables": counts.get(c, 0),
            }
            for c, size in enumerate(sizes)
            if size
        ]
        if args.format == "json":
            pieces = itertools.chain(_json(rows), ["\n"])
        else:
            lines = ["canonical,size,achievable,tables"]
            for r in rows:
                lines.append(f"{r['canonical']},{r['size']},{str(r['achievable']).lower()},{r['tables']}")
            pieces = ["\n".join(lines) + "\n"]
        _emit(pieces, args.out)
        return 0

    target = _resolve_target(args.target)
    rows = search.hit_rows(template, grid_a, grid_b, quantizer, targets={target})
    _emit(_hit_report(rows, grid_a, grid_b, args.format), args.out)
    return 0
