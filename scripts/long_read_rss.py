#!/usr/bin/env python3
"""Resident peak of one long orbit read of a seeded point.

Reads the depth-4 default test family of the base shift along 2^22 steps of
one point of the kind named on the command line (`seeded-iid`,
`seeded-markov` or `stage-recipe` on a shift, or `word-roof`, a seeded-iid
point read by the time-1 map of a suspension under the word roof
(0.7, 1.3)) and prints the process's `ru_maxrss` before and after the read,
and the read's wall time.  Run each kind in a fresh process, since the peak
only grows:

    for kind in seeded-iid seeded-markov stage-recipe word-roof; do
        PYTHONPATH=src python scripts/long_read_rss.py $kind
    done

A long row is counted piece by piece, so a shift read should add about a
megabyte or two to the peak, where the whole int16 stream alone takes 8 MB.
A word-roof read also holds its time chart: an int64 entry time and a narrow
code per cell, for about 2^22 / 0.7 cells here, so its peak is larger.
"""

import resource
import sys
import time

import numpy.random  # noqa: F401  (its pages count before the read, not in it)

from ergode.birkhoff import Schedule, limit_point_set
from ergode.constructions import generic_point
from ergode.measures import Bernoulli, Markov, TestFamily
from ergode.systems import FullShift, MarkovShift, RoofFunction, Suspension, TimeTMap

STEPS = 1 << 22
GOLDEN_MEAN = MarkovShift(2, ((1, 1), (1, 0)))
POINTS = {
    "seeded-iid": (FullShift(2), lambda: generic_point(FullShift(2), Bernoulli((0.3, 0.7)),
                                                       "seeded-iid", seed=1)),
    "seeded-markov": (GOLDEN_MEAN, lambda: generic_point(
        GOLDEN_MEAN, Markov(((0.6, 0.4), (1.0, 0.0)), (5 / 7, 2 / 7)), "seeded-iid", seed=1)),
    "stage-recipe": (FullShift(2), lambda: generic_point(FullShift(2), Bernoulli((0.3, 0.7)))),
    "word-roof": (TimeTMap(Suspension(FullShift(2), RoofFunction(1, (0.7, 1.3), 2)), 1.0),
                  lambda: generic_point(FullShift(2), Bernoulli((0.3, 0.7)), "seeded-iid",
                                        seed=1).with_fiber(0.0)),
}


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KB on Linux


def main(kind: str) -> None:
    system, make = POINTS[kind]
    fam, x = TestFamily.default_for(system.carrier, depth=4), make()
    before, start = peak_mb(), time.perf_counter()
    classes = limit_point_set(system, x, fam, Schedule.geometric(1000, STEPS))
    seconds = time.perf_counter() - start
    print(f"{kind}: {STEPS} steps in {seconds:.2f} s, ru_maxrss {before:.1f} MB before the "
          f"read, {peak_mb():.1f} MB after ({len(classes)} limit class(es))")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in POINTS:
        sys.exit(f"usage: long_read_rss.py {{{','.join(POINTS)}}}")
    main(sys.argv[1])
