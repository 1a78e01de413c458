"""Run one ``mixcenter`` command in this process, as the CLI entry point would.

Usage: python3 perfbench/launch.py TRACE SPANS_PATH COMMAND [ARGS...]

With TRACE=1 the public calls are wrapped before ``mixcenter.cli.main``
runs, and the spans are written to SPANS_PATH as JSON together with the
monotonic time at which ``main`` was entered. With TRACE=0 nothing is
wrapped or written. The exit code is ``main``'s.
"""
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mixcenter import cli  # noqa: E402

import layers  # noqa: E402
from spans import Recorder  # noqa: E402


def main():
    trace, spans_path, argv = sys.argv[1] == "1", sys.argv[2], sys.argv[3:]
    main_fn = cli.main
    if trace:
        rec = Recorder()
        layers.install(rec, cli=True)
        main_fn = rec.wrap("cli." + argv[0], main_fn)
    t_main = time.monotonic()
    code = main_fn(argv)
    if trace:
        rec.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"t_main": t_main, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
