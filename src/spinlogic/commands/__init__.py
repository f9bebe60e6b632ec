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


def _emit(pieces, out: str | None) -> None:
    """Write a report's text pieces, in order, to stdout or to the file ``out``."""
    if out in (None, "-"):
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.writelines(pieces)
