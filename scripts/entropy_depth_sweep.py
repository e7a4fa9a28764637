#!/usr/bin/env python3
"""Depth-convergence study for the cylinder-cover entropy backend.

Prints the critical exponent at each refinement depth for the reference
systems, plus frequency-window sweeps on the binary shift and, at deeper
depths, on the golden mean, so the rate at which the estimates settle is
visible.  Plot-ready CSV goes to stdout with `--csv`.
"""

import argparse
import math
import sys

from ergode.entropy import FrequencyWindow, WholeSpace, bowen_entropy_symbolic
from ergode.systems import CircleRotation, FullShift, MarkovShift

DEPTHS = (16, 24, 36, 54, 80, 120, 180, 270)
DEEP_DEPTHS = (480, 960, 1920)
GOLDEN = (1 + 5 ** 0.5) / 2
PARRY = 1 / (1 + GOLDEN ** 2)   # the golden mean's typical frequency of symbol 1


def binary_entropy(p):
    return -sum(q * math.log(q) for q in (p, 1 - p) if q > 0)


def rows():
    systems = (
        ("full-shift-2", FullShift(2), math.log(2.0)),
        ("full-shift-3", FullShift(3), math.log(3.0)),
        ("golden-mean", MarkovShift(2, ((1, 1), (1, 0))), math.log((1 + 5 ** 0.5) / 2)),
        ("rotation", CircleRotation(0.6180339887498949), 0.0),
    )
    for name, system, target in systems:
        est = bowen_entropy_symbolic(system, WholeSpace(), DEPTHS)
        for depth, alpha in zip(est.depths, est.alphas):
            yield name, "whole", depth, alpha, target
        if not est.depths:          # rotation short-circuits to exactly zero
            yield name, "whole", 0, est.value, target
    shift = FullShift(2)
    for lo, hi in ((0.05, 0.15), (0.25, 0.35), (0.45, 0.55)):
        window = FrequencyWindow(0, lo, hi)
        # the window's rate is the binary entropy at the edge nearest 1/2
        edge = hi if hi < 0.5 else (lo if lo > 0.5 else 0.5)
        target = binary_entropy(edge)
        est = bowen_entropy_symbolic(shift, window, DEPTHS)
        for depth, alpha in zip(est.depths, est.alphas):
            yield "full-shift-2", f"window-{lo:g}-{hi:g}", depth, alpha, target
    golden = MarkovShift(2, ((1, 1), (1, 0)))
    for lo, hi in ((0.15, 0.25), (0.3, 0.4), (0.45, 0.5)):
        window = FrequencyWindow(1, lo, hi)
        # m ones in n no-11 symbols: C(n - m + 1, m) words, so the rate at the
        # frequency p is (1 - p) H(p / (1 - p)), taken at the edge nearest PARRY
        edge = min(max(PARRY, lo), hi)
        target = (1 - edge) * binary_entropy(edge / (1 - edge))
        est = bowen_entropy_symbolic(golden, window, DEEP_DEPTHS)
        for depth, alpha in zip(est.depths, est.alphas):
            yield "golden-mean", f"window-{lo:g}-{hi:g}", depth, alpha, target


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--csv", action="store_true", help="machine-readable output")
    args = ap.parse_args()
    if args.csv:
        print("system,subset,depth,alpha,target")
        for name, subset, depth, alpha, target in rows():
            print(f"{name},{subset},{depth},{alpha:.6f},{target:.6f}")
        return 0
    last = None
    for name, subset, depth, alpha, target in rows():
        key = (name, subset)
        if key != last:
            print(f"\n{name} / {subset}  (target {target:.4f})")
            last = key
        print(f"  depth {depth:>4}: {alpha:.5f}  (error {abs(alpha - target):.5f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
