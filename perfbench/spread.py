"""Run-to-run spread of the end-to-end metrics; run it from the repository root.

    python3 perfbench/spread.py [--baseline FILE]

For each workload in BENCHMARK.json it runs `run.py --trace 0` once per seed
(0..9) and prints, per metric, the median and the quartile spread
(q3 - q1) / median, the figure a metric's `bound` is compared with.  A spread
of a third of the bound or more reads WIDE.  With `--baseline` the medians and
spreads are also written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

RUNS = 10


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def host() -> dict:
    """Machine and versions a baseline was measured with (Linux cache sizes)."""
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{d}/level"), _read(f"{d}/type").lower()
        caches[f"L{level}-{kind}"] = _read(f"{d}/size")
    import numpy
    return {"nproc": os.cpu_count(), "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": 1}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", help="write medians and spreads to this JSON file")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"host": host(), "run_seconds": bench["run_seconds"], "runs": RUNS,
           "workloads": {}}
    worst_ok = True
    for name in (w["name"] for w in bench["workloads"]):
        values = {m: [] for m in bounds}
        for seed in range(RUNS):
            proc = subprocess.run(
                bench["command"] + ["--workload", name, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        rows = {}
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            ok = share < bounds[m] / 3
            worst_ok &= ok
            rows[m] = {"median": med, "spread": share, "values": vals}
            print(f"{name:<16} {m:<16} median {med:<12.6g} spread {share:.4f} "
                  f"(bound {bounds[m]}) {'ok' if ok else 'WIDE'} "
                  + " ".join(f"{v:.5g}" for v in vals), flush=True)
        out["workloads"][name] = rows
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
