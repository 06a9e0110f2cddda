"""Fixture endpoint process: ``mathrepo serve-fixtures`` with a busy-time counter.

Usage: python3 -u fixture_proc.py ROOT --dir DIR --page-size N

Serves DIR through the program's own ``serve-fixtures`` subcommand, in a
process of its own so that serving does not share the interpreter lock with
the harvest it answers. ``FixtureServer.respond`` is timed, and the extra
verb ``benchStats`` returns the seconds spent in it so far, so the server's
share of the client's HTTP wait can be reported. Stop it with SIGTERM.
"""

import json
import sys
import threading
from pathlib import Path
from time import perf_counter


def main() -> int:
    root = Path(sys.argv[1])
    sys.path.insert(0, str(root / "src"))
    from mathrepo import cli
    from mathrepo.fixture_server import FixtureServer

    respond = FixtureServer.respond
    lock = threading.Lock()
    busy = {"respond_s": 0.0, "requests": 0}

    def timed_respond(self, params):
        if params.get("verb") == "benchStats":
            with lock:
                return json.dumps(busy)
        start = perf_counter()
        try:
            return respond(self, params)
        finally:
            with lock:
                busy["respond_s"] += perf_counter() - start
                busy["requests"] += 1

    FixtureServer.respond = timed_respond
    return cli.main(["serve-fixtures", *sys.argv[2:]])


if __name__ == "__main__":
    sys.exit(main())
