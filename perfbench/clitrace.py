"""Run one ``heights`` CLI command under the span tracer.

Usage: python perfbench/clitrace.py SPANS_JSON SUBCOMMAND [ARGS...]

The CLI jobs of the traced ``exact_cli`` workload start this in place
of ``python -m heights.cli``.  It records the import of ``heights.cli``
and the call to ``heights.cli.main`` as spans, with the library's spans
nested below, writes them to SPANS_JSON and exits with the CLI's exit
code.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    sid = tracer.open("cli.import")
    import heights.cli
    tracer.close(sid, "cli.import")
    tracer.install()
    name = f"cli.main.{argv[0]}"
    sid = tracer.open(name)
    try:
        return heights.cli.main(argv)
    finally:
        tracer.close(sid, name)
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
