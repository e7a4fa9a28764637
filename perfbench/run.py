"""Benchmark entry point; run it from the repository root.

    python3 perfbench/run.py --workload flow-inclusions --seed 0 --seconds 20 --trace 0

An untraced run times `import ergode.cli` in fresh processes (set-up), half
of them before the workload and half after.  The workload runs in one child
process (`worker.py`) with `PYTHONPATH=src`, the seed in `ERGODE_SEED` and one
thread; its outputs are checked here once the child has ended.  The pass
time is reported in times of a short probe loop that the child runs between
and during the experiments, which follows the host's drifting speed.  With
`--trace 0` the run reports the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run.  A readable report goes first; the last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# The host's speed changes from second to second, so the set-up samples are
# many and are split around the workload to span the whole run.
SETUP_SAMPLES = 20
DEADLINE_S = 170           # the whole run must end within 180 s
AFTER_WORKER_S = 25        # kept for the later set-up samples and the checks
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ergode.cli; "
                "print(time.perf_counter() - t)")

# per-layer metric -> (span name, what), where `what` picks self time, calls
# or a work counter; all are per traced pass
LAYER_METRICS = {
    "config.load_config_s": ("config.load_config", "self"),
    "config.load_config_calls": ("config.load_config", "calls"),
    "systems.materialise_s": ("systems.materialise", "self"),
    "systems.materialise_calls": ("systems.materialise", "calls"),
    "systems.materialise_symbols": ("systems.materialise_symbols", "counter"),
    "measures.integrate_s": ("measures.integrate", "self"),
    "measures.integrate_calls": ("measures.integrate", "calls"),
    "measures.time_average_measure_s": ("measures.time_average_measure", "self"),
    "birkhoff.classify_s": ("birkhoff.classify", "self"),
    "birkhoff.classify_calls": ("birkhoff.classify", "calls"),
    "birkhoff.flow_average_s": ("birkhoff.flow_average", "self"),
    "birkhoff.profile_s": ("birkhoff.profile", "self"),
    "birkhoff.limit_point_set_s": ("birkhoff.limit_point_set", "self"),
    "entropy.caratheodory_s": ("entropy.caratheodory", "self"),
    "entropy.spanning_s": ("entropy.spanning", "self"),
    "entropy.depths": ("entropy.depths", "counter"),
    "constructions.irregular_point_s": ("constructions.irregular_point", "self"),
    "constructions.generic_point_s": ("constructions.generic_point", "self"),
    "constructions.glue_orbits_s": ("constructions.glue_orbits", "self"),
    "constructions.symbols_built": ("constructions.symbols_built", "counter"),
    "reporting.write_csv_s": ("reporting.write_csv", "self"),
    "cli.self_s": ("cli.main", "self"),
}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["ERGODE_SEED"] = str(seed)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env, samples: int) -> list:
    """Seconds `import ergode.cli` takes in each of several fresh processes;
    a first, untimed import writes the bytecode caches."""
    times = []
    for i in range(samples + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def check_passes(raw, experiments, seed):
    """Check every pass's outputs, adding failed checks to the pass's errors,
    and note the bytes it wrote and the accuracy of its entropy rows."""
    eids = [e[0] for e in experiments]
    for p in raw["passes"]:
        for eid, _, cfg, committed in experiments:
            if eid not in p["errors"]:
                problems = workloads.check_experiment(eid, cfg, committed, p["dir"], seed)
                if problems:
                    p["errors"][eid] = "; ".join(problems)
        p["bytes"] = sum(e.stat().st_size for e in os.scandir(p["dir"]))
        p["entropy"] = workloads.entropy_accuracy(p["dir"], eids)


def walls(raw, kind):
    return [p["wall_s"] for p in raw["passes"] if p["kind"] == kind]


def sweep_ref(passes):
    """Sum over the experiments of the median, over the passes, of the
    experiment's wall time divided by the probe loop's median time around
    and during it."""
    ratios = {}
    for p in passes:
        for eid, wall in p["walls"].items():
            ratios.setdefault(eid, []).append(wall / p["refs"][eid])
    return sum(statistics.median(r) for r in ratios.values())


def end_to_end(raw, setup, report):
    passes = raw["passes"]
    untraced = [p for p in passes if p["kind"] == "untraced"]
    sweep = [p["wall_s"] for p in untraced]
    q1, med, q3 = quartiles(sweep)
    refs = [r for p in untraced for r in p["refs"].values()]
    attempted = raw["attempted"]
    failed = sum(len(p["errors"]) for p in passes)
    s1, smed, s3 = quartiles(setup)
    out_mb = statistics.median(p["bytes"] for p in passes if p["kind"] == "untraced") / 1e6
    err, misses, rows = (max(p["entropy"][i] for p in passes) for i in range(3))
    metrics = {
        "setup_s": (smed, "s"),
        "sweep_ref": (sweep_ref(untraced), "ref"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "output_mb": (out_mb, "MB"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
        "entropy_abs_err": (err, "nats"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports, q1 {s1:.4f} q3 {s3:.4f}",
        "sweep_ref": f"pass in probe-loop times, medians of {len(sweep)} passes "
                     f"after a warm-up; pass wall median {med:.4f} s, q1 {q1:.4f} "
                     f"q3 {q3:.4f}; probe loop median {statistics.median(refs):.6f} s",
        "peak_rss_mb": "ru_maxrss of the workload's child after its warm-up pass",
        "output_mb": "computed: bytes of CSV and point.json files per pass",
        "ok_share": f"failed_share {failed / attempted:.4f} "
                    f"({failed} of {attempted} attempted)",
        "entropy_abs_err": f"over {rows} rows with a closed form; "
                           f"bracket_misses {misses}",
    }
    for name, (value, unit) in metrics.items():
        report.append(f"  {name:<18} {value:<14.6g} {unit:<6} {notes[name]}")
    return metrics


def per_layer(raw, report):
    traced_sweep = walls(raw, "traced")
    n = len(traced_sweep)
    pools = {"self": raw["self_s"], "calls": raw["calls"], "counter": raw["counters"]}
    metrics = {}
    for name, (key, what) in LAYER_METRICS.items():
        unit = "s" if what == "self" else "count"
        metrics[name] = (pools[what].get(key, 0) / n, unit)
    calls = raw["calls"].get("birkhoff.classify", 0)
    decisive = raw["counters"]["birkhoff.classify_decisive"]
    metrics["birkhoff.decisive_ratio"] = (decisive / calls if calls else 0.0, "ratio")
    metrics["entropy.bracket_misses"] = (max(p["entropy"][1] for p in raw["passes"]),
                                         "count")
    traced = statistics.median(traced_sweep)
    untraced = statistics.median(walls(raw, "untraced"))
    metrics["trace.sweep_s"] = (statistics.fmean(traced_sweep), "s")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    for name, (value, unit) in metrics.items():
        report.append(f"  {name:<34} {value:<14.6g} {unit}")
    attributed = sum(raw["self_s"].values()) / n
    report.append(f"  self times add up to {attributed:.4f} s of the traced pass "
                  f"({metrics['trace.sweep_s'][0]:.4f} s); "
                  f"{raw['span_count']} spans over {n} traced passes")
    if not calls:
        report.append("  birkhoff.decisive_ratio: no classify calls on this workload")
    return metrics


def main() -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    for needed in ("src/ergode/cli.py", workloads.COMMITTED, workloads.GOLDEN):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2

    env = child_env(args.seed)
    setup = [] if args.trace else measure_setup(env, SETUP_SAMPLES // 2)
    experiments = workloads.configs(args.workload)
    work = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    spans = os.path.join(HERE, ".work", f"spans-{args.workload}.json")
    os.makedirs(work)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--spans", spans]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True,
            timeout=DEADLINE_S - AFTER_WORKER_S - (time.perf_counter() - started))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        check_passes(raw, experiments, args.seed)
    except subprocess.TimeoutExpired:
        print("perfbench: the workload did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        setup += measure_setup(env, SETUP_SAMPLES - len(setup))
    raw["attempted"] = len(experiments) * len(raw["passes"])

    failures = sorted({(eid, why) for p in raw["passes"] for eid, why in p["errors"].items()})
    unexpected = [(eid, why) for eid, why in failures
                  if workloads.KNOWN_DEFECTS.get(eid) != why]
    report = [f"perfbench {args.workload}: seed {args.seed}, "
              f"{len(experiments)} experiments per pass, one thread, "
              f"warm-up pass {raw['passes'][0]['wall_s']:.3f} s"]
    if args.trace:
        metrics = per_layer(raw, report)
    else:
        metrics = end_to_end(raw, setup, report)
    report.append("  waiting: none to report; one thread runs every experiment "
                  "and nothing is queued")
    for eid, why in failures:
        tag = "UNEXPECTED" if (eid, why) in unexpected else "known defect"
        report.append(f"  failed ({tag}) {eid}: {why}")
    print("\n".join(report))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": raw["attempted"],
        "failed": sum(len(p["errors"]) for p in raw["passes"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
