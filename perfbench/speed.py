"""The host's speed during a run, from a fixed reference computation.

On a shared host the same code runs up to a third slower for tens of
seconds at a time, and that drift, not the program, dominates the spread
of wall times between runs. A run therefore times a fixed computation
about once a second, between solves and between the iterations of a
solve. A measured interval is cut at the samples taken inside it, which
leaves the sampling out, and each piece is scaled by NOMINAL_S over the
median reference time sampled around that piece: a value reads as the
seconds the work would have taken at the speed where the reference takes
NOMINAL_S. The reference uses only numpy, so no change to the library
moves it. Its mix (small QR, thin products, a small SVD in a Python loop,
one 300x300 SVD) follows the solvers' own profile.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

_clock = time.perf_counter

# the reference's time on a 2-vCPU VM of a shared host at its usual speed
NOMINAL_S = 0.055
# least time between two samples taken through maybe_sample
INTERVAL_S = 1.0
# samples this far outside a piece of an interval still count for it
MARGIN_S = 1.5 * INTERVAL_S


def reference() -> float:
    """Time one run of the fixed reference computation."""
    rng = np.random.default_rng(0)
    thin = rng.standard_normal((300, 8))
    square = rng.standard_normal((300, 300))
    t0 = _clock()
    for _ in range(200):
        q, _ = np.linalg.qr(thin)
        np.linalg.svd((q.T @ square) @ q)
        float(np.sum(thin * thin))
    np.linalg.svd(square)
    return _clock() - t0


class Speed:
    """Reference times taken over one run.

    With sampling off it takes no samples and its nominal times are wall
    times; traced passes use one, so that samples add nothing to spans.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.samples: list[tuple[float, float, float]] = []  # (start, end, reference s)
        self._last = -float("inf")

    def sample(self) -> None:
        if not self.sampling:
            return
        t0 = _clock()
        ref = reference()
        self._last = _clock()
        self.samples.append((t0, self._last, ref))

    def maybe_sample(self) -> None:
        """Sample when INTERVAL_S has gone by since the last sample."""
        if _clock() - self._last >= INTERVAL_S:
            self.sample()

    def mark(self) -> float:
        """A start for elapsed."""
        return _clock()

    def elapsed(self, start: float) -> tuple[float, float]:
        """(nominal, wall) seconds since the clock read start, without the sampling since."""
        cuts = [start]
        for t0, t1, _ in self.samples:
            if t0 >= start:
                cuts += [t0, t1]
        cuts.append(_clock())
        pieces = list(zip(cuts[::2], cuts[1::2]))
        return sum((b - a) * self.factor(a, b) for a, b in pieces), sum(b - a for a, b in pieces)

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median reference time sampled around [start, end]."""
        if not self.samples:
            return 1.0
        near = [ref for t0, t1, ref in self.samples if t1 >= start - MARGIN_S and t0 <= end + MARGIN_S]
        if not near:
            near = [min(self.samples, key=lambda s: min(abs(s[0] - end), abs(s[1] - start)))[2]]
        return NOMINAL_S / median(near)
