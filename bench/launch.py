"""Launcher for traced cli-cold children: ``launch.py TRACE_PATH ARGV...``.

Times `import numpy` and `import law.cli`, installs the same layer wrappers
as an in-process traced run, then calls ``law.cli.main`` with ARGV. The trace
snapshot and the import times go to TRACE_PATH; stdout is left to the CLI.
"""

import json
import os
import sys
import time


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    import numpy  # noqa: F401

    numpy_done = time.perf_counter()
    import law.cli

    law_done = time.perf_counter()
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    sys.argv = ["law", *argv]
    try:
        law.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
    tracer.closure_saturation()
    snapshot = tracer.snapshot()
    snapshot["import_numpy_s"] = numpy_done - start
    snapshot["import_law_s"] = law_done - numpy_done
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
