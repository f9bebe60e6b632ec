"""Command-line surface: classification reports, grid simulations, parameter
searches, and complex-logic demos, with deterministic text/CSV/JSON output.

Exit codes: 0 success, 1 self-check failure, 2 usage or parse error.

This module holds the parser, the dispatch and the error mapping.  Each
command lives in its own module of :mod:`spinlogic.commands`, and ``main``
imports only the module of the command it runs, so a process compiles none
of the other commands' code.  Each command module imports only the layers
it uses: ``classify`` never loads the spin simulator, the search layer,
complex logic or numpy, which only the search and simulation layers need,
and ``simulate`` and ``complex`` load the spin layer alone, none of the
group layer (``npn``, ``pc``) or the search layer.
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinlogic")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="equivalence class and PC reports")
    p.add_argument("--radix", type=int, choices=(2, 3), default=3)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--out", default=None, help="output path (default stdout)")

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

    p = sub.add_parser("search", parents=[grid], help="triple search for target logic classes")
    p.add_argument("--target", required=True, help="multiplication, a function index, or all")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("complex", help="complex-logic product and NMR roundtrip")
    p.add_argument("action", choices=("mul", "truth"))
    p.add_argument("values", type=float, nargs="+", help="mul: r1 theta1 r2 theta2; truth: theta")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--omega-off", type=float, default=2 * math.pi)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own usage errors
        return int(exc.code or 0)
    try:
        return importlib.import_module(f"spinlogic.commands.{args.command}").run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # an internal consistency check
        print(f"error: self-check failed: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
