"""Machine-speed sampling, so the benchmark's timings repeat on a host whose
speed does not.

The hosts this benchmark was defined on change single-thread speed by up to
2x from one second to the next (the same truthfulness scan took 1.5 s and
2.9 s a minute apart; CPU time tracked wall time and no steal time was
recorded), far more than any regression bound can absorb.  So while a pass
runs, a SIGALRM timer interrupts it every ``INTERVAL_S`` to time a fixed
stdlib-only micro reference, and the pass's time is rescaled to the speed at
which that reference takes ``REFERENCE_S``:

    normalized = (measured - time spent sampling) * mean(REFERENCE_S / sample)

Samples are uniform in time, so the mean is the pass's average speed.  The
reference uses only the standard library (exact ``Fraction`` arithmetic,
tuple-keyed dicts, a keyed sort: what cardvote spends its time on), so no
change to cardvote can make it faster or slower.  Measured over 100 s of
alternating 2 s jobs, the quartile spread fell from 0.21 raw to 0.03
normalized.  Raw timings are kept in every run record.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# One micro_reference() on the 2-core Intel Xeon container (CPython 3.11.7)
# the bounds were set on, in its fast state.
REFERENCE_S = 0.0014
INTERVAL_S = 0.05


def micro_reference() -> float:
    """Run the fixed reference computation; returns its wall seconds."""
    start = time.perf_counter()
    total = Fraction(0)
    table = {}
    for i in range(1, 250):
        value = Fraction(i % 13, i % 31 + 1)
        total += value * value
        table[(i % 61, i % 7)] = value
    sorted(range(60), key=lambda j: (-table.get((j % 61, j % 7), total), j))
    return time.perf_counter() - start


def burst(count: int = 20) -> list[float]:
    return [micro_reference() for _ in range(count)]


def factor(samples: list[float]) -> float:
    """Multiplier taking time measured over these samples to reference speed."""
    return statistics.fmean(REFERENCE_S / s for s in samples)


class Sampler:
    """Context manager sampling machine speed during the block it wraps.

    ``spent`` is the wall time the samples took, to subtract from the
    block's measured time; a block too short for the timer gets a burst."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(micro_reference())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if len(self.samples) < 5:
            self.samples += burst(5)

    def factor(self) -> float:
        return factor(self.samples)
