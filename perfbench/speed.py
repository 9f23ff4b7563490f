"""Speed probe: report pass times at a fixed reference speed.

On the shared 2-core machines this benchmark runs on, the CPU speed one
process gets swings by up to 1.7x, in spells that last from under a
second to tens of seconds (a fixed pure-Python loop timed back to back
takes 11 ms in fast spells and 19-20 ms in slow ones). Raw medians of
15-second runs therefore spread by 20-30% between runs, wider than any
useful regression bound.

So while a pass runs, a SIGVTALRM handler times a fixed pure-Python probe
every ``PERIOD_S`` of CPU time. A span's normalised time is its wall time
minus the probes' own time, multiplied by the mean over the span's probes
of ``REFERENCE_PROBE_S / probe time``: the seconds the span would have
taken had the machine run at the reference speed throughout. On the
three workloads this brings the spread of single passes from 18-28% down
to 3-9%. The probe's work and both constants are part of the benchmark
and must not change between the runs being compared.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.025  # CPU time between probes
REFERENCE_PROBE_S = 0.0005  # probe time that defines the reference speed
MIN_WINDOW_S = 0.5  # shortest window whose probes give a span's factor


def _probe_work() -> int:
    acc = 0
    for i in range(150):
        t = tuple((i * 7 + j) % 13 for j in range(8))
        s = frozenset(t)
        d = {x: x * x for x in t}
        acc += len(s) + d[t[0]] + sorted(t)[3]
    return acc


class SpeedProbe:
    """Samples (start, duration) of the probe while running."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _on_tick(self, signum, frame):
        start = time.perf_counter()
        _probe_work()
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGVTALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def factor(self, start: float, end: float) -> float:
        """Reference-speed factor over ``[start, end]``, widened to ``MIN_WINDOW_S``.

        A short span has few probes of its own, so it takes those of the
        window of ``MIN_WINDOW_S`` centred on it.
        """
        pad = max(0.0, MIN_WINDOW_S - (end - start)) / 2
        inside = [d for s, d in self.samples if start - pad <= s < end + pad]
        if not inside:
            raise ValueError("no speed probes near the span")
        return sum(REFERENCE_PROBE_S / d for d in inside) / len(inside)

    def normalised(self, start: float, end: float, factor: float | None = None) -> float:
        """Seconds ``[start, end]`` would take at reference speed, probes excluded."""
        spent = sum(d for s, d in self.samples if start <= s < end)
        return (end - start - spent) * (factor if factor is not None else self.factor(start, end))
