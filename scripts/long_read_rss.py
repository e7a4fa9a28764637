#!/usr/bin/env python3
"""Resident peak of one long orbit read of a seeded point.

Reads the depth-4 default test family along 2^22 steps of one point of the
rule kind named on the command line (`seeded-iid`, `seeded-markov` or
`stage-recipe`) and prints the process's `ru_maxrss` before and after the
read, and the read's wall time.  Run each kind in a fresh process, since
the peak only grows:

    for kind in seeded-iid seeded-markov stage-recipe; do
        PYTHONPATH=src python scripts/long_read_rss.py $kind
    done

A long row is counted piece by piece, so the read should add about a
megabyte or two to the peak, where the whole int16 stream alone takes 8 MB.
"""

import resource
import sys
import time

import numpy.random  # noqa: F401  (its pages count before the read, not in it)

from ergode.birkhoff import Schedule, limit_point_set
from ergode.constructions import generic_point
from ergode.measures import Bernoulli, Markov, TestFamily
from ergode.systems import FullShift, MarkovShift

STEPS = 1 << 22
GOLDEN_MEAN = MarkovShift(2, ((1, 1), (1, 0)))
POINTS = {
    "seeded-iid": (FullShift(2), lambda: generic_point(FullShift(2), Bernoulli((0.3, 0.7)),
                                                       "seeded-iid", seed=1)),
    "seeded-markov": (GOLDEN_MEAN, lambda: generic_point(
        GOLDEN_MEAN, Markov(((0.6, 0.4), (1.0, 0.0)), (5 / 7, 2 / 7)), "seeded-iid", seed=1)),
    "stage-recipe": (FullShift(2), lambda: generic_point(FullShift(2), Bernoulli((0.3, 0.7)))),
}


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KB on Linux


def main(kind: str) -> None:
    system, make = POINTS[kind]
    fam, x = TestFamily.default_for(system, depth=4), make()
    before, start = peak_mb(), time.perf_counter()
    classes = limit_point_set(system, x, fam, Schedule.geometric(1000, STEPS))
    seconds = time.perf_counter() - start
    print(f"{kind}: {STEPS} steps in {seconds:.2f} s, ru_maxrss {before:.1f} MB before the "
          f"read, {peak_mb():.1f} MB after ({len(classes)} limit class(es))")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in POINTS:
        sys.exit(f"usage: long_read_rss.py {{{','.join(POINTS)}}}")
    main(sys.argv[1])
