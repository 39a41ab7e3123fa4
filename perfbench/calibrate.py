"""Machine-speed calibration for the benchmark's timings.

The machine the benchmark was built on changes speed by up to 2x over
minutes (other tenants share its cores), and a whole 30 s run can fall in
a slow stretch.  Every timing is therefore taken next to a fixed pure-Python
reference kernel (dict, tuple, str and sort work, like fincat's) and scaled
to the speed at which that kernel takes :data:`REF_SECONDS`:

    calibrated = measured * REF_SECONDS / reference_seconds()

A change to fincat moves the measured time and not the reference, so it
shows in full; a change of machine speed moves both and cancels.
"""

from __future__ import annotations

import math
import time

REF_SECONDS = 0.001
REF_ITEMS = 1000
REF_REPEATS = 2


def _kernel():
    table = {}
    for i in range(REF_ITEMS):
        key = (i % 97, str(i))
        table[key] = table.get(key, 0) + i
    return sorted(table.items())


def reference_seconds():
    """Fastest of REF_REPEATS runs of the reference kernel."""
    best = math.inf
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best
