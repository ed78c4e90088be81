"""``repro serve`` with the ledger's span wrappers installed first.

    python bench_ledger/serve_traced.py SPANS_OUT serve --port 0 ...

Runs the public server entry point (``repro.__main__.main``) unchanged; on
a clean stop (SIGINT) writes the span summary and the per-request breakdown
of the connection threads to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    out_path, serve_argv = Path(argv[0]), argv[1:]
    from repro.__main__ import main as repro_main

    recorder = spans.Recorder()
    spans.install_layer_spans(recorder)
    try:
        code = repro_main(serve_argv)
    finally:
        recorder.uninstall()
        threads = list(recorder.threads().values())
        report = {
            "summary": spans.summarize(threads),
            "requests": spans.request_breakdown(
                threads, first="server.decode_binary", last="server.write",
                kind_prefix="bdms.",
            ),
        }
        out_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
