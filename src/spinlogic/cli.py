"""Command-line surface: classification reports, grid simulations, parameter
searches, and complex-logic demos, with deterministic text/CSV/JSON output.

Exit codes: 0 success, 1 self-check failure, 2 usage or parse error.

Each command imports only the layers it uses: ``classify`` never loads the
spin simulator, the search layer, complex logic or numpy, which only the
search and simulation layers need, and ``simulate`` and ``complex`` load the
spin layer alone, none of the group layer (``npn``, ``pc``) or the search
layer.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from .ternary import encode, multiplication

if TYPE_CHECKING:
    import numpy as np

    from . import spinsim


def _fmt(x: float) -> str:
    """Decimal with 12 significant digits; fixes cross-platform diffability."""
    return format(float(x), ".12g")


def _emit(pieces, out: str | None) -> None:
    """Write a report's text pieces, in order, to stdout or to the file ``out``."""
    if out in (None, "-"):
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.writelines(pieces)


def _parse_grid(spec: str) -> list[float]:
    """Comma-separated radians, or ``lin:<start>:<stop>:<n>`` for n evenly
    spaced samples including both endpoints."""
    from . import spinsim

    spec = spec.strip()
    if not spec:
        raise ValueError("empty grid spec")
    if spec.startswith("lin:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValueError(f"linear grid spec must be lin:start:stop:n, got {spec!r}")
        start, stop, n = float(parts[1]), float(parts[2]), int(parts[3])
        if n < 2:
            raise ValueError(f"linear grid needs at least 2 points, got {n}")
        if n > spinsim.MAX_GRID_POINTS:
            raise ValueError(
                f"linear grid of {n} points exceeds the limit of {spinsim.MAX_GRID_POINTS}"
            )
        return [start + k * (stop - start) / (n - 1) for k in range(n)]
    return [float(piece) for piece in spec.split(",")]


def _template_and_grids(args) -> tuple[spinsim.SequenceTemplate, list[float], list[float]]:
    from . import spinsim

    name = args.sequence
    if name == "single-pulse":
        template = spinsim.single_pulse_template()
    elif name == "two-pulse":
        template = spinsim.two_pulse_template(args.phi1, args.beta2)
    elif name == "selective-delay":
        template = spinsim.selective_delay_template(args.omega_a)
    else:
        template = spinsim.SequenceTemplate.from_json(Path(name).read_text(encoding="utf-8"))
    grid_a, grid_b = _parse_grid(args.grid_a), _parse_grid(args.grid_b)
    if len(grid_a) * len(grid_b) > spinsim.MAX_GRID_POINTS:
        raise ValueError(
            f"grid of {len(grid_a)}x{len(grid_b)} points exceeds the limit of"
            f" {spinsim.MAX_GRID_POINTS}"
        )
    return template, grid_a, grid_b


# --- classify ---------------------------------------------------------------


def _classify_report(radix: int) -> dict:
    """The classify report, built from two per-function label arrays: the
    canonical map and the PC keys.  Class sizes are label counts, and a PC
    class spans the NPN classes whose canonicals carry its key.  The
    self-check wants the expected class counts, agreeing with Burnside's;
    every label its own label; every class size dividing the group order,
    as an orbit's does; and every function sharing its canonical's key."""
    from . import npn, pc

    expected_npn, expected_pc = {2: (4, 4), 3: (84, 33)}[radix]
    values = {2: (0, 1), 3: (-1, 0, 1)}[radix]
    functions = radix ** (radix * radix)
    canon, key = npn.canonical_map(radix), pc.pc_keys(radix)
    # one lazy pass over the functions: how many carry each (canonical, key) pair
    pairs = Counter(zip(canon, key))
    sizes, pc_sizes = Counter(), Counter()
    for (c, k), n in pairs.items():
        sizes[c] += n
        pc_sizes[k] += n
    canonicals = sorted(sizes)
    spanned: dict[int, list[int]] = {}
    for c in canonicals:
        spanned.setdefault(key[c], []).append(c)
    pc_classes = []
    for k in sorted(pc_sizes):
        signature = pc.signature_of_key(k, radix)
        spans = spanned.get(k, [])
        pc_classes.append(
            {
                "signature": [list(signature.first), list(signature.second)],
                "member_count": pc_sizes[k],
                "npn_canonicals": spans,
                "single_npn": len(spans) == 1,
            }
        )
    # every NPN class lies in exactly one PC class: each canonical occurs with
    # its own key only, so every function shares its canonical's key
    pc_consistent = all(key[c] == k for c, k in pairs)
    fixed = npn.fixed_point_counts(radix)
    burnside, order = npn.burnside_count(radix, fixed), len(fixed)
    checks_pass = (
        len(canonicals) == expected_npn
        and len(pc_classes) == expected_pc
        # each label names its own class, and each class is an orbit (orbit-stabilizer)
        and all(canon[c] == c for c in canonicals)
        and all(order % size == 0 for size in sizes.values())
        and burnside == len(canonicals)
        and pc_consistent
    )

    def table(canonical: int) -> list[list[int]]:
        digits = npn.digits_of_index(canonical, radix)
        return [[values[d] for d in digits[i : i + radix]] for i in range(0, radix * radix, radix)]

    return {
        "radix": radix,
        "function_count": functions,
        "npn_class_count": len(canonicals),
        "burnside_count": burnside,
        "pc_class_count": len(pc_classes),
        "pc_consistent": pc_consistent,
        "self_check": "pass" if checks_pass else "fail",
        "npn_classes": [
            {"canonical": c, "size": sizes[c], "table": table(c)}
            for c in canonicals
        ],
        "pc_classes": pc_classes,
    }


def _pc_signature_and_kind(c: dict, within: str, between: str) -> tuple[str, str]:
    """A PC class of the report as text: its signature, each multiset joined
    by ``within`` and the two by ``between``, and its kind, ``single`` when it
    spans one NPN class, else ``overlap``."""
    signature = between.join(within.join(map(str, s)) for s in c["signature"])
    return signature, "single" if c["single_npn"] else "overlap"


def _classify_text(report: dict) -> str:
    lines = [
        f"radix: {report['radix']}",
        f"functions: {report['function_count']}",
        f"npn classes: {report['npn_class_count']}",
        f"burnside count: {report['burnside_count']}",
        f"pc classes: {report['pc_class_count']}",
        f"self-check: {report['self_check'].upper()}",
        "",
        "canonical  size  table rows",
    ]
    for c in report["npn_classes"]:
        rows = " | ".join(" ".join(f"{v:>2d}" for v in row) for row in c["table"])
        lines.append(f"{c['canonical']:>9d}  {c['size']:>4d}  {rows}")
    lines.append("")
    lines.append("pc signature        members  kind     npn classes")
    for c in report["pc_classes"]:
        sig, kind = _pc_signature_and_kind(c, ",", "|")
        spanned = " ".join(map(str, c["npn_canonicals"]))
        lines.append(f"{sig:<18}  {c['member_count']:>7d}  {kind:<7}  {spanned}")
    return "\n".join(lines) + "\n"


def _classify_csv(report: dict) -> str:
    lines = ["key,value"]
    for key in (
        "radix",
        "function_count",
        "npn_class_count",
        "burnside_count",
        "pc_class_count",
        "self_check",
    ):
        lines.append(f"{key},{report[key]}")
    lines.append("")
    lines.append("canonical,size,cells")
    for c in report["npn_classes"]:
        cells = ";".join(str(v) for row in c["table"] for v in row)
        lines.append(f"{c['canonical']},{c['size']},{cells}")
    lines.append("")
    lines.append("signature_first,signature_second,member_count,kind,npn_canonicals")
    for c in report["pc_classes"]:
        sig, kind = _pc_signature_and_kind(c, ";", ",")
        spanned = ";".join(map(str, c["npn_canonicals"]))
        lines.append(f"{sig},{c['member_count']},{kind},{spanned}")
    return "\n".join(lines) + "\n"


def cmd_classify(args) -> int:
    report = _classify_report(args.radix)
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        text = _classify_csv(report)
    else:
        text = _classify_text(report)
    _emit([text], args.out)
    return 0 if report["self_check"] == "pass" else 1


# --- simulate ----------------------------------------------------------------


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


def cmd_simulate(args) -> int:
    template, grid_a, grid_b = _template_and_grids(args)
    values = template.readouts(grid_a, grid_b)
    _emit(_simulate_report(grid_a, grid_b, values, args.format), args.out)
    return 0


# --- search ------------------------------------------------------------------


def _resolve_target(spec: str) -> int:
    if spec == "multiplication":
        return encode(multiplication())
    return int(spec)


def _hit_report(rows, grid_a: list[float], grid_b: list[float], fmt: str):
    """Text pieces of the hit report on the rows of ``search.hit_rows``, a
    few hundred rows per piece, one format string per row.  Byte-identical to
    ``json.dumps(hits, sort_keys=True, indent=2) + "\n"`` of a list of hit
    objects, or to the CSV of one line per hit; each grid value is formatted
    once, and each class's canonical and size come from the canonical map."""
    as_json = fmt == "json"
    if as_json:
        value_text, head, sep, tail = json.dumps, "[\n", ",\n", "\n]\n"
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
    import numpy as np

    from . import npn

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


def cmd_search(args) -> int:
    # the layers before the template, so that no module is compiled after
    # numpy has loaded (see search's imports)
    from . import npn
    from . import search as search_mod

    template, grid_a, grid_b = _template_and_grids(args)
    import numpy as np

    quantizer = search_mod.Quantizer(epsilon=args.epsilon)

    if args.target == "all":
        counts = search_mod.achievable_classes(template, grid_a, grid_b, quantizer)
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
            text = json.dumps(rows, sort_keys=True, indent=2) + "\n"
        else:
            lines = ["canonical,size,achievable,tables"]
            for r in rows:
                lines.append(f"{r['canonical']},{r['size']},{str(r['achievable']).lower()},{r['tables']}")
            text = "\n".join(lines) + "\n"
        _emit([text], args.out)
        return 0

    target = _resolve_target(args.target)
    rows = search_mod.hit_rows(template, grid_a, grid_b, quantizer, targets={target})
    _emit(_hit_report(rows, grid_a, grid_b, args.format), args.out)
    return 0


# --- complex -----------------------------------------------------------------


def _phase_distance(t1: float, t2: float) -> float:
    d = abs(t1 - t2) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def cmd_complex(args) -> int:
    expected = 4 if args.action == "mul" else 1
    if len(args.values) != expected:
        raise ValueError(f"complex {args.action} takes {expected} value(s)")
    from . import complexlogic

    params = complexlogic.EncodingParams(t1=args.t1, omega_off=args.omega_off, alpha=args.alpha)

    if args.action == "truth":
        value = complexlogic.ptruth(args.values[0])
        if args.format == "json":
            text = json.dumps({"theta": args.values[0], "ptruth": value}, sort_keys=True) + "\n"
        else:
            text = f"ptruth({_fmt(args.values[0])}) = {_fmt(value)}\n"
        _emit([text], args.out)
        return 0

    r1, t1, r2, t2 = args.values
    z1 = complexlogic.ComplexSample(r1, t1)
    z2 = complexlogic.ComplexSample(r2, t2)
    logic = complexlogic.complex_multiply_via_logic(z1, z2)
    cartesian = complexlogic.ComplexSample.from_complex(z1.to_complex() * z2.to_complex())

    rows = []
    for name, z in (("z1", z1), ("z2", z2), ("product", logic)):
        recovered = complexlogic.encode_decode_roundtrip(z, params)
        rows.append(
            {
                "operand": name,
                "r": z.r,
                "theta": z.theta,
                "recovered_r": recovered.r,
                "recovered_theta": recovered.theta,
                "err_r": abs(recovered.r - z.r),
                "err_theta": _phase_distance(recovered.theta, z.theta) if z.r > 0 else 0.0,
            }
        )

    if args.format == "json":
        doc = {
            "logic_product": {"r": logic.r, "theta": logic.theta},
            "cartesian_product": {"r": cartesian.r, "theta": cartesian.theta},
            "magnitude_deviation": abs(logic.r - cartesian.r),
            "phase_deviation": _phase_distance(logic.theta, cartesian.theta),
            "roundtrips": rows,
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        lines = [
            f"logic product (mand/pxnor): r={_fmt(logic.r)} theta={_fmt(logic.theta)}",
            f"cartesian product:          r={_fmt(cartesian.r)} theta={_fmt(cartesian.theta)}",
            f"deviation: dr={_fmt(abs(logic.r - cartesian.r))}"
            f" dtheta={_fmt(_phase_distance(logic.theta, cartesian.theta))}",
            "",
            "operand,r,theta,recovered_r,recovered_theta,err_r,err_theta",
        ]
        for row in rows:
            lines.append(
                ",".join(
                    [row["operand"]]
                    + [
                        _fmt(row[k])
                        for k in ("r", "theta", "recovered_r", "recovered_theta", "err_r", "err_theta")
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
    _emit([text], args.out)
    return 0


# --- wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinlogic")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="equivalence class and PC reports")
    p.add_argument("--radix", type=int, choices=(2, 3), default=3)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_classify)

    # options of every command that evaluates a sequence template on a grid
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument(
        "--sequence",
        required=True,
        help="single-pulse, two-pulse, selective-delay, or a JSON template path",
    )
    grid.add_argument("--grid-a", required=True, help="comma-separated radians or lin:start:stop:n")
    grid.add_argument("--grid-b", required=True)
    grid.add_argument("--phi1", type=float, default=3 * math.pi / 2, help="two-pulse fixed phase")
    grid.add_argument("--beta2", type=float, default=math.pi / 2, help="two-pulse fixed flip angle")
    grid.add_argument("--omega-a", type=float, default=math.pi, help="selective-delay peak offset")
    grid.add_argument("--out", default=None)

    p = sub.add_parser("simulate", parents=[grid], help="readout grid for a sequence template")
    p.add_argument("--format", choices=("csv", "json", "table"), default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("search", parents=[grid], help="triple search for target logic classes")
    p.add_argument("--target", required=True, help="multiplication, a function index, or all")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("complex", help="complex-logic product and NMR roundtrip")
    p.add_argument("action", choices=("mul", "truth"))
    p.add_argument("values", type=float, nargs="+", help="mul: r1 theta1 r2 theta2; truth: theta")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--omega-off", type=float, default=2 * math.pi)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_complex)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
