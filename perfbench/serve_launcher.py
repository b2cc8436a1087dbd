"""``repro serve`` with span wrappers around the server's entry points.

Used only by the traced serve run: installs :class:`tracing.Recorder`
(which wraps ``DatasetService.execute``, ``SingleWriter.submit``,
``Session.apply``, ``Session.read_snapshot`` and the engine entry points)
and then runs the stock ``serve`` command with the given arguments.  When
the server stops, the per-span aggregate of every request is written as
JSON to the path in ``PERFBENCH_SPANS``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from tracing import Recorder, aggregate


def main() -> int:
    recorder = Recorder().install()
    from repro.io.cli import main as cli_main

    try:
        return cli_main(["serve"] + sys.argv[1:])
    finally:
        recorder.uninstall()
        spans = aggregate(recorder.spans, roots={"serve.execute"})
        Path(os.environ["PERFBENCH_SPANS"]).write_text(json.dumps(spans))


if __name__ == "__main__":
    sys.exit(main())
