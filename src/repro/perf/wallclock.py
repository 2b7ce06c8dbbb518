"""Wall-clock measurement helpers for the perf harness.

Everything engine-side runs on the virtual clock (the JISC001 rule bans
wall clocks there, and op counts are the comparable metric across PRs).
The perf harness is the one sanctioned exception: its whole point is to
measure *real* seconds, so the readings below carry explicit per-line
suppressions.  Nothing here is imported by the engine — only by
``repro.perf.telemetry_gate`` (the overhead check of ``repro.perf.regress``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple


def measure(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """Run ``fn`` once; return ``(seconds, result)``."""
    t0 = time.perf_counter()  # jisclint: disable=JISC001 -- perf harness measures real time by design
    result = fn()
    t1 = time.perf_counter()  # jisclint: disable=JISC001 -- perf harness measures real time by design
    return t1 - t0, result

