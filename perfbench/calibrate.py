"""Fixed reference work that scales the benchmark's times to one machine speed.

On a shared machine, neighbours slow this process by up to 2x, in spells
that last from milliseconds to minutes; CPU time slows with wall time, so
it cannot tell the two apart.  A run's medians therefore moved with the
share of slow spells in it: by 25-35% between runs of the same code.  The
harness runs this work around each timed call into the program and
reports the call's time * QUIET_S / (this work's median time around it):
the time the call would take at the speed at which the machine runs this
work when quiet.  Over many calls the ratio cancels the spells: where
unscaled times of runs of the same code at different seeds spread by up
to 39%, scaled ones spread by 2-6%.  The work mixes interpreter work (dict
and string churn) with a numpy convolution, as the program does;
interpreter work alone tracked the numpy-heavy trials less closely.  It
touches no part of forestscope, so a change to the program cannot change
it.
"""

from __future__ import annotations

import time

import numpy as np

# the work's time on a quiet 2-vCPU cloud VM, run after a trial (caches
# cold); it only sets the scale, so scaled times read like quiet ones
QUIET_S = 0.0007

_rng = np.random.default_rng(1)
_SIGNAL = _rng.random(4000)
_KERNEL = _rng.random(300)


def reference_seconds() -> float:
    """Run the reference work once; returns its seconds."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(1500):
        key = str(i % 500)
        counts[key] = counts.get(key, 0) + i * 3 // 7
    for _ in range(2):
        np.convolve(_SIGNAL, _KERNEL)
    return time.perf_counter() - start
