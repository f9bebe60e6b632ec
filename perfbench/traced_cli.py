"""Run the spinlogic CLI with span tracing on, in a fresh process.

Usage: python traced_cli.py SPANS.npz CLI_ARG...

Spans are written to SPANS.npz when the command ends; the exit code is the
CLI's.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    from spinlogic import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
