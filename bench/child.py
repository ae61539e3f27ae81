"""Traced stand-in for ``python -m mdsrepair.cli``.

    python3 bench/child.py STATS_JSON <mdsrepair cli arguments...>

Times the import of ``mdsrepair.cli``, wraps the package's layers with the
benchmark tracer, runs the CLI's ``main`` with the given arguments and exits
with its code.  The import time, per-layer counts and spans go to
STATS_JSON, also when ``main`` raises.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import mdsrepair.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.set_phase("rounds")
    try:
        return mdsrepair.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        Path(sys.argv[1]).write_text(json.dumps(
            {"import_s": import_s, "stats": tracer.stats_json(),
             "spans": tracer.spans_json()}))


if __name__ == "__main__":
    sys.exit(main())
