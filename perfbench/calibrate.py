"""Host-speed calibration.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x over minutes and swings by 20-30% within seconds, with every
timing of a run moving together. To keep that drift out of the
comparison between two commits, a run interleaves short slices of a
fixed kernel, which does not touch the program, with the program's own
work: one slice before every cell of a sweep and before every user of a
stream, a few around every set-up. Each pass is then scaled by the
slices taken inside it, and every time is reported in *reference
seconds*: measured seconds × ``REFERENCE_SECONDS`` / (mean slice time).
The slices' own time is taken out of every measured interval first.

The kernel mixes the two kinds of work the program spends its time on:
a Python loop of small-array numpy calls and weighted draws (the shape
of every Gibbs sampler's inner loop) and dict lookups and key-set
intersections over a table of a few MiB (bag-of-words and graph
similarities). Against ``content_grid`` passes on a drifting host, the
pass-to-pass spread of the scaled time was a third to a half of the raw
one (README, "Host-speed calibration").
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

clock = time.perf_counter

#: Mean slice time on the reference host (2 shared vCPUs of a virtual
#: machine, Python 3.11, numpy 2) in a quiet period. A constant: it sets
#: the unit of the reported times, never their ratio between two commits.
REFERENCE_SECONDS = 0.004

_TOPICS, _WORDS, _DRAWS = 8, 64, 150
_rng = random.Random(0)
_TABLE = {f"term{i}": float(i) for i in range(60000)}
_PROBES = [f"term{_rng.randrange(120000)}" for _ in range(3000)]


def kernel() -> float:
    """A fixed amount of work (a few ms), independent of the program."""
    rng = np.random.default_rng(0)
    counts = np.ones((_TOPICS, _WORDS))
    totals = counts.sum(axis=1)
    topic = 0
    for word in rng.integers(_WORDS, size=_DRAWS):
        weights = (counts[:, word] + 0.1) / (totals + 6.4)
        cdf = np.cumsum(weights)
        topic = int(np.searchsorted(cdf, rng.random() * cdf[-1]))
        counts[topic, word] += 1.0
        totals[topic] += 1.0
    found = {}
    for key in _PROBES:
        value = _TABLE.get(key)
        if value is not None:
            found[key] = value
    halves = {key: value * 0.5 for key, value in found.items()}
    return topic + sum(min(found[k], halves[k]) for k in found.keys() & halves.keys())


class Slices:
    """Kernel slices taken through one interval of a run."""

    def __init__(self) -> None:
        self.seconds: list[float] = []

    def take(self, count: int = 1) -> None:
        for _ in range(count):
            started = clock()
            kernel()
            self.seconds.append(clock() - started)

    @property
    def total(self) -> float:
        return sum(self.seconds)

    def scale(self) -> float:
        """Reference seconds per wall second over this interval."""
        return REFERENCE_SECONDS / statistics.fmean(self.seconds)
