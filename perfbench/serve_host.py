"""``python -m repro serve`` with the layer tracer installed.

``python perfbench/serve_host.py <snapshot.json> <serve args...>`` runs
the job server exactly as the CLI does; when it drains, the tracer's
per-layer snapshot is written to ``<snapshot.json>`` and its spans to
``<snapshot.json>.spans.jsonl`` (appended, as process ``server``).
"""

import json
import sys


def main() -> int:
    snapshot_path = sys.argv[1]
    from repro.__main__ import cmd_serve

    from layers import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    code = cmd_serve(sys.argv[2:])
    tracer.dump(snapshot_path + ".spans.jsonl", "server")
    with open(snapshot_path, "w", encoding="utf-8") as sink:
        json.dump(tracer.snapshot(), sink)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
