"""Machine speed, measured with a fixed reference task.

The speed of a shared machine can change by a factor of two within a
minute, and it changes every kind of pure-Python work by the same factor.
So raw times from two runs a minute apart can differ by 2x, while the time
of a case divided by the time of a fixed task run just before and after it
barely moves.  The benchmark therefore runs the reference task between
cases and reports every time at a nominal speed:

    time at nominal speed = raw time * NOMINAL_S / reference time

where the reference time is measured around the timed work.  The task uses
only the standard library, so no change to ``cluster_forge`` changes it.
"""

import time
from fractions import Fraction

#: Reference task time on the nominal machine: a time at nominal speed is
#: the time on a machine that runs the reference task in exactly 1 ms.  The
#: 2-CPU box of the reference figures took 1.04-1.22 ms in a quiet minute.
NOMINAL_S = 0.001

#: Case time between two reference samples.
SAMPLE_EVERY_S = 0.25


def reference_task():
    """Fixed dict, tuple, integer and Fraction work, as in exact algebra."""
    terms = {}
    total = 0
    for i in range(1500):
        key = (i % 97, i % 13, (i * 7) % 31)
        terms[key] = terms.get(key, 0) + i * i
        total += len(terms)
    q = Fraction(1)
    for i in range(1, 60):
        q += Fraction(i, i + 1)
    return total, q


def sample():
    """Median time of three runs of the reference task."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def factor(before, after):
    """Scale from raw seconds to seconds at nominal speed, for work done
    between two reference samples."""
    return NOMINAL_S / ((before + after) / 2)
