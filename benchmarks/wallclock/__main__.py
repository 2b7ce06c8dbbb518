"""``python -m benchmarks.wallclock`` or ``python3 benchmarks/wallclock/__main__.py``."""

import os
import sys

if not __package__:
    # Started by path (BENCHMARK.json's command): sys.path[0] is this
    # directory, whose ``trace.py`` would shadow the standard library's.
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.wallclock.cli import main

if __name__ == "__main__":
    sys.exit(main())
