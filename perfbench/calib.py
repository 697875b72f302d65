"""Calibration that turns measured seconds into reference-speed seconds.

``calibration_s`` times a fixed pure-Python workload: ``CALIB_REPS`` integer
Bareiss determinants of one 7x7 matrix, summed as Fractions, the kind of
arithmetic resnewt's hot loops do.  ``CALIB_REF_S`` is its fastest time on
the machine the benchmark was defined on (a 2-vCPU Intel Xeon VM at 2.1 GHz,
Python 3.11.7).  A duration measured while the calibration took ``c``
seconds is reported as ``duration * CALIB_REF_S / c``.
"""

from fractions import Fraction
from time import perf_counter

CALIB_MATRIX = [[(i * 7 + j * 13) % 11 - 5 + 9 * (i == j) for j in range(7)] for i in range(7)]
CALIB_REPS = 150
CALIB_REF_S = 0.0033


def bareiss(rows):
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n, prev, sign = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def calibration_s():
    """Seconds for the fixed calibration workload."""
    t0 = perf_counter()
    total = Fraction(0)
    for r in range(CALIB_REPS):
        total += Fraction(bareiss(CALIB_MATRIX), r + 1)
    return perf_counter() - t0


def reference_seconds(seconds, calib_s):
    return seconds * CALIB_REF_S / calib_s


class Gauge:
    """Calibration readings taken between instances."""

    def __init__(self):
        self.last = calibration_s()
        self.factors = []

    def factor(self):
        """Reference-speed factor for the instance that just ran: the mean of
        the calibration times just before and just after it."""
        now = calibration_s()
        f = reference_seconds(1.0, (self.last + now) / 2)
        self.last = now
        self.factors.append(f)
        return f
