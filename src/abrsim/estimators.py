"""The left-to-right mean behind every float average in abrsim.

Values are added left to right onto a total that starts at 0.0.  Builtin
`sum()` did the same up to Python 3.11, but from 3.12 on it uses compensated
summation, which changes the last bits of some means and so the bytes of
event logs and CSVs.  With the order fixed here, every supported interpreter
writes the same output.

`mean` serves the session and aggregate metrics.  The engine's two running
means (throughput, the bandwidth estimate for the next decision, and the
SSIM drift between displayed chunks) and Festive's harmonic mean keep the
same fold as local totals and counts in `simulator._drive` and `abr.Festive`,
so each decision costs O(1) however long the session.
"""

from __future__ import annotations


def mean(values) -> float:
    """Left-to-right mean of `values`; 0.0 when there are none."""
    total = 0.0
    count = 0
    for value in values:
        total += value
        count += 1
    return total / count if count else 0.0
