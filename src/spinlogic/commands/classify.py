"""``spinlogic classify``: the NPN and PC class report, as a table, CSV or
JSON.  It loads the group layer alone, plain Python without numpy."""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter

from .. import npn, pc
from . import _emit


def _classify_report(radix: int) -> dict:
    """The classify report, built from two per-function label arrays: the
    canonical map and the PC keys.  Class sizes are label counts, and a PC
    class spans the NPN classes whose canonicals carry its key.  The
    self-check wants the expected class counts, agreeing with Burnside's;
    every label its own label; every class size dividing the group order,
    as an orbit's does; and every function sharing its canonical's key."""
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
    # the group order: two input and one output permutation, and the input swap
    burnside, order = npn.burnside_count(radix), math.factorial(radix) ** 3 * 2
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


def run(args) -> int:
    report = _classify_report(args.radix)
    if args.format == "json":  # streamed in the encoder's pieces, never joined
        pieces = itertools.chain(json.JSONEncoder(sort_keys=True, indent=2).iterencode(report), ["\n"])
    elif args.format == "csv":
        pieces = [_classify_csv(report)]
    else:
        pieces = [_classify_text(report)]
    _emit(pieces, args.out)
    return 0 if report["self_check"] == "pass" else 1
