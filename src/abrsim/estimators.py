"""The one running mean behind every float average in abrsim.

The engine keeps two while a session plays out: the mean throughput of the
downloads completed so far (the bandwidth estimate for the next decision,
the lowest ladder rate before any download completes) and the mean signed
SSIM change between consecutively displayed chunks (the drift a
quality-gated policy compares candidate upgrades against).  Festive's
harmonic mean and the session and aggregate metrics use it too.

Values are added left to right onto a total that starts at 0.0.  Builtin
`sum()` did the same up to Python 3.11, but from 3.12 on it uses compensated
summation, which changes the last bits of some means and so the bytes of
event logs and CSVs.  With the order fixed here, every supported interpreter
writes the same output, and each decision costs O(1) however long the
session.
"""

from __future__ import annotations


class RunningMean:
    """Left-to-right total and count of the values added so far."""

    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: float) -> None:
        self.total += value
        self.count += 1

    def mean(self, empty: float = 0.0) -> float:
        """total / count, or `empty` before any value was added."""
        return self.total / self.count if self.count else empty


def mean(values) -> float:
    """Left-to-right mean of `values`; 0.0 when there are none."""
    acc = RunningMean()
    for value in values:
        acc.add(value)
    return acc.mean()
