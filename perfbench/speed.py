"""How fast the machine runs at the moment.

On a shared machine other tenants slow the CPU down for seconds to
minutes at a time.  The benchmark times a fixed pure-Python *reference
loop*, which calls nothing in the program, next to the work it measures,
and scales that work's times to the *reference speed*: the speed at which
the loop takes :data:`REFERENCE_S`.  The scaling depends only on the
loop, never on the program's own speed.
"""

from __future__ import annotations

import time
from statistics import median
from typing import List

#: Iterations of the reference loop, and its time at the reference
#: speed: what it took on the 2-core Xeon VM the benchmark was written
#: on, in a typical stretch.
REFERENCE_ITERATIONS = 20_000
REFERENCE_S = 0.0035
#: A stretch of work takes its speed from the reference-loop timings up
#: to this many stretches on either side of it (about a second).
SPEED_SPAN = 2


def reference_loop() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    x, table = 0, {}
    for i in range(REFERENCE_ITERATIONS):
        x = (x * 31 + i) % 1_000_003
        table[i & 1023] = x
    return time.perf_counter() - t0


def to_reference(references: List[float]) -> float:
    """The factor that brings a time measured next to the reference-loop
    times ``references`` to the reference speed."""
    return REFERENCE_S / median(references)


def local_scales(references: List[float]) -> List[float]:
    """Per stretch of work, the factor that brings its times to the
    reference speed.

    ``references`` holds the reference time before each stretch and
    after the last one; a stretch takes the median of the times within
    :data:`SPEED_SPAN` stretches of it.
    """
    return [
        to_reference(references[max(0, k - SPEED_SPAN): k + SPEED_SPAN + 2])
        for k in range(len(references) - 1)
    ]
