"""Run one branchgroups CLI command under the span tracer.

Usage, from the root of a checkout with src/ on PYTHONPATH:

    python3 bench/tracecli.py OUT_PREFIX CLI-ARG...

Writes OUT_PREFIX.json (the tracer summary) and OUT_PREFIX-spans.tsv.gz
and exits with the command's exit code.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    out_prefix, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from branchgroups import cli

    try:
        code = cli.run_command(argv)
    finally:
        tracer.uninstall()
    tracer.write_spans(out_prefix + "-spans.tsv.gz")
    with open(out_prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
