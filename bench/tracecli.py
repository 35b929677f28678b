"""Run one realcert CLI command with per-layer tracing installed.

    python3 bench/tracecli.py OUT OP -- <realcert arguments>

Behaves like ``python3 -m realcert <arguments>`` (same stdout, same exit
code) and writes the spans and counts of the run to OUT as JSON.
"""

from __future__ import annotations

import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    out, op, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracecli.py OUT OP -- <realcert arguments>")
    tracer = Tracer(op=int(op))
    tracer.install()
    from realcert.cli import main as cli_main
    try:
        code = cli_main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
