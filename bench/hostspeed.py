"""Host-speed correction: timings scaled by a fixed probe loop sampled while they run.

The shared host the benchmark runs on changes speed by up to 1.8x, in
stretches lasting from a fraction of a second to minutes, and a pure-Python
loop slows with the program.  Over 200 s of alternating a 40 ms
`attribute_ass` call with a 0.4 ms probe loop, the median call of 20 s
windows spread (IQR / median) 0.30 across windows; total call time over
total probe time per window spread 0.03.

So a process doing timed work interrupts itself every PROBE_INTERVAL_S of
wall time (SIGALRM) and times the probe loop on the CPU it runs on, and a
stretch of its work is reported as

    raw seconds * REF_PROBE_S / mean(probes taken during it)

(leaving out probes that were descheduled, see `scale`), that is, in seconds at the host speed at which the probe takes REF_PROBE_S.
The library worker samples under `sampling()` and measures with `clock()`,
which leaves the probes' own time out; a single call is judged by the probes
within CALL_PAD_S of it.  A CLI or set-up child samples itself through
site/sitecustomize.py (`sample_until_exit`) and reports its probes to the
parent, which subtracts their time from the child's wall time.  The probe is
the benchmark's own code, so a change to the program still moves the
corrected times; only the host's speed is divided out.  Result files keep the
raw times beside the corrected ones.
"""
from __future__ import annotations

import atexit
import bisect
import json
import math
import signal
from contextlib import contextmanager
from time import perf_counter

# The probe's time on the 2-vCPU host the benchmark was built on, at its usual
# speed; a scale only, so corrected times read close to raw ones there.
REF_PROBE_S = 0.0005

PROBE_INTERVAL_S = 0.05  # wall time between probes, so about 1% of the time probes
CALL_PAD_S = 0.25  # a call shorter than the interval is judged by the probes this close to it

_probes: list[tuple[float, float]] = []  # (clock() when taken, seconds it took), in order
_paused = 0.0  # total seconds spent in probes


def _loop():
    """A float recursion over two lists, the shape of the program's exact kernel."""
    prev, curr = [1.0] * 41, [0.0] * 41
    for _ in range(150):
        curr[0] = 0.5 * prev[0]
        for k in range(1, 40):
            curr[k] = 0.75 * prev[k - 1] + 0.25 * prev[k]
        prev, curr = curr, prev
    return prev


def _probe(signum=None, frame=None):
    global _paused
    start = perf_counter()
    _loop()
    end = perf_counter()
    _probes.append((start - _paused, end - start))
    _paused += end - start


def clock() -> float:
    """perf_counter() less the time this process has spent probing."""
    return perf_counter() - _paused


@contextmanager
def sampling(interval: float = PROBE_INTERVAL_S):
    """Probe every `interval` seconds of wall time inside the block (main thread only)."""
    previous = signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def scale(probes: list[float]) -> float:
    """From raw to corrected seconds for work done while `probes` were taken.

    REF_PROBE_S over their mean, leaving out probes over twice the median:
    those were descheduled for a while, which 1% of the time lands on a probe
    and would swing a mean of fifty.
    """
    cut = 2.0 * sorted(probes)[len(probes) // 2]
    kept = [p for p in probes if p <= cut]
    return REF_PROBE_S * len(kept) / sum(kept)


def factor(start: float, end: float, pad: float = 0.0) -> float:
    """`scale` of the probes taken from `pad` seconds before clock() time `start` to `pad` after `end`.

    With none there, one is taken now.
    """
    lo = bisect.bisect_left(_probes, (start - pad,))
    hi = bisect.bisect_right(_probes, (end + pad, math.inf))
    taken = [seconds for _, seconds in _probes[lo:hi]]
    if not taken:
        _probe()
        taken = [_probes[-1][1]]
    return scale(taken)


def sample_until_exit(path: str, interval: float = PROBE_INTERVAL_S):
    """Probe every `interval` seconds until this process exits, then write {"paused", "probes"} to `path`.

    For a child whose wall time its parent measures: the parent subtracts
    "paused" and scales by the probes.  One last probe at exit makes sure
    even a short child leaves one.
    """
    signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def report():
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        _probe()
        with open(path, "w") as out:
            json.dump({"paused": _paused, "probes": [seconds for _, seconds in _probes]}, out)

    atexit.register(report)
