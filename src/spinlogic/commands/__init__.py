"""The CLI's subcommands, one module each: ``classify``, ``simulate``,
``search`` and ``complex``.  Each exposes ``run(args)``, which takes the
parsed arguments of :func:`spinlogic.cli.build_parser` and returns the exit
code.  ``spinlogic.cli`` imports only the module of the command it runs, so
a process compiles no report code of the other commands, and none of
``grid`` (the grid and template options that ``simulate`` and ``search``
share) under ``classify`` or ``complex``.  No command module imports
``spinlogic.cli``: under ``python -m spinlogic.cli`` that module runs as
``__main__``, and importing it would compile it a second time.
"""

from __future__ import annotations

import sys


def _fmt(x: float) -> str:
    """Decimal with 12 significant digits; fixes cross-platform diffability."""
    return format(float(x), ".12g")


def _json(value, indent: str = "\n"):
    """Text pieces of ``json.dumps(value, sort_keys=True, indent=2)``, for a
    report made of dicts, lists, bools, ints, finite floats and strings that
    need no escape: a number is its ``repr``, as in ``json.dumps``, and a
    string its quoted self.  Writing a JSON report with these instead of the
    ``json`` package saves a process about 0.25 MB of max RSS.  ``indent`` is
    the line break and indent of the closing bracket of ``value``."""
    if isinstance(value, str):
        yield f'"{value}"'
    elif isinstance(value, bool):
        yield "true" if value else "false"
    elif not value or not isinstance(value, (dict, list)):
        yield repr(value)  # a number, or an empty container: "{}" or "[]"
    else:
        is_dict = isinstance(value, dict)
        items = [(f'"{k}": ', value[k]) for k in sorted(value)] if is_dict else [("", v) for v in value]
        inner = indent + "  "
        for i, (head, item) in enumerate(items):
            yield ("," if i else "{" if is_dict else "[") + inner + head
            yield from _json(item, inner)
        yield indent + ("}" if is_dict else "]")


def _emit(pieces, out: str | None) -> None:
    """Write a report's text pieces, in order, to stdout or to the file ``out``."""
    if out in (None, "-"):
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.writelines(pieces)
