"""The speed of the machine, measured beside the jobs.

The machine this benchmark runs on is shared: its speed steps by up to
1.6x, for minutes at a time, with the load of its other tenants.  A fixed
pure-Python task, timed right before and after each job, slows down by
the same factor as the job does: the ratio of the two stays within a few
per cent while the raw times swing.  So the benchmark reports job and
set-up times scaled to a fixed reference speed,

    scaled = measured * REF_SECONDS / (time of reference() beside it),

which reads as seconds on a machine that runs reference() in REF_SECONDS.
A change to the program moves the scaled time as it moves the raw one;
a change of the machine's speed moves neither much.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# About the time reference() takes on a 2-core Intel Xeon VM with
# Python 3.11 when the host is quiet.
REF_SECONDS = 0.009


def reference() -> tuple:
    """Fixed work of the kinds the jobs do: dicts keyed by tuples,
    Fraction arithmetic and a sort."""
    table: dict = {}
    total = Fraction(0)
    for i in range(1, 3000):
        key = (i % 97, i % 13, i % 7)
        table[key] = table.get(key, 0) + i
        total += Fraction(i % 11 + 1, i % 7 + 1)
    return total, sorted(table.items())[-1]


def time_reference() -> float:
    start = perf_counter()
    reference()
    return perf_counter() - start
