"""``scenarios serve`` with the query layers wrapped by the tracer.

    python3 perfbench/serve_traced.py SPANS_JSON scenarios serve --port 0

Wraps the layer functions first, then hands the remaining arguments to the
CLI entry point, which builds the service with the CLI defaults and calls
``repro.api.server.run_server``.  The spans stay in memory while the server
runs; after the SIGTERM drain they are written to ``SPANS_JSON``.
"""

from __future__ import annotations

import json
import sys

from layers import install_query_layers
from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_query_layers(tracer)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.span_lists(), "counts": tracer.events}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
