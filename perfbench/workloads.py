"""The benchmark's workloads and the checks on their outputs.

A workload is a list of experiment configs, run one after another through
`ergode.cli.main`.  Committed configs are read from `scripts/configs/`; the
benchmark's own configs live in `perfbench/configs/`.  The seed reaches the
program only through `ERGODE_SEED`.
"""

from __future__ import annotations

import csv
import json
import math
import os

COMMITTED = os.path.join("scripts", "configs")
GOLDEN = os.path.join("scripts", "verification_runs")
OWN = os.path.join("perfbench", "configs")

WORKLOADS = {
    # The map-vs-flow inclusion suites: constructions, 2^21-symbol streams,
    # suspension flow averages and `integrate`.  The two flow-entropy configs
    # are cheap and give `entropy_abs_err` a closed form on this workload.
    "flow-inclusions": [
        (COMMITTED, "inclusions_unit_roof"),
        (COMMITTED, "inclusions_roof2"),
        (OWN, "flow_entropy_unit_roof"),
        (OWN, "flow_entropy_roof2"),
    ],
    # The counting backends, the critical-exponent bisection and the exact
    # big-integer counts; no constructions.
    "entropy-verify": [
        (COMMITTED, "entropy_full_shift_2"),
        (COMMITTED, "entropy_golden_mean_window"),
        (COMMITTED, "thm_a_unit_roof"),
        (COMMITTED, "thm_a_roof2_window"),
        (COMMITTED, "thm_b_bernoulli"),
        (OWN, "entropy_full_shift_window_deep"),
        (OWN, "entropy_golden_mean_window_deep"),
        (OWN, "entropy_golden_mean_window_exact"),
        (OWN, "entropy_golden_mean"),
    ],
    # Map-side reads and constructions serialised to disk.
    "map-sweep": [
        (COMMITTED, "thm_b_mixture"),
        (COMMITTED, "birkhoff_rotation_harmonic"),
        (COMMITTED, "classify_rotation_time_half"),
        (OWN, "inclusions_full_shift_bernoulli"),
        (OWN, "birkhoff_circle_doubling"),
        (OWN, "entropy_circle_doubling"),
        (COMMITTED, "irregular_steered"),
        (COMMITTED, "construct_glued_orbit_golden_mean"),
        (OWN, "construct_irregular_point"),
        (OWN, "construct_generic_blocks"),
        (OWN, "construct_generic_markov_seeded"),
    ],
}

# Defects of the program that the benchmark counts as failed experiments, with
# the exact failure each gives.  Any other failure, of these experiments too,
# makes the run incorrect.
KNOWN_DEFECTS = {
    # ExplicitWord holds np.int64 symbols, which json cannot write to point.json
    "construct-generic-markov-seeded":
        "raised TypeError: Object of type int64 is not JSON serializable",
    # the float orbit of 0.217 under x -> 2x collapses to 0
    "birkhoff-circle-doubling": "average of cos 2*pi*x is 0.994, expected about 0",
}


def _binary_entropy(p: float) -> float:
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


LOG2 = math.log(2.0)
LOG_PHI = math.log((1.0 + math.sqrt(5.0)) / 2.0)

# Exact entropy of each experiment's system and subset.  A frequency window
# on the full shift has the binary entropy of the window edge nearest 1/2; the
# golden-mean windows contain the Parry frequency (5 - sqrt 5) / 10 of symbol
# 1, so they keep the whole shift's log(phi); a constant roof c divides by c.
CLOSED_FORMS = {
    "entropy-full-shift-2": LOG2,
    "entropy-golden-mean-window": LOG_PHI,
    "thm-a-unit-roof": LOG2,
    "thm-a-roof2-window": _binary_entropy(0.32) / 2.0,
    "thm-b-bernoulli": _binary_entropy(0.305),
    "entropy-full-shift-window-deep": _binary_entropy(0.32),
    "entropy-golden-mean-window-deep": LOG_PHI,
    "entropy-golden-mean-window-exact": LOG_PHI,
    "entropy-golden-mean": LOG_PHI,
    "flow-entropy-unit-roof": LOG2,
    "flow-entropy-roof2": LOG2 / 2.0,
    "entropy-circle-doubling": LOG2,
}

# Estimator rows; `metric_entropy` is computed from a closed form already.
ENTROPY_QUANTITIES = {
    "bowen_entropy", "spanning_entropy", "flow_entropy", "scaled_time_t_entropy",
    "generic_set_entropy_bound",
}

# CSV numbers carry 12 significant digits, so a bracket edge can sit this far
# (relatively) on the wrong side of a value it contains.
_PRINT_REL = 1e-11


def configs(workload: str):
    """(experiment_id, path, config, committed) for each experiment."""
    out = []
    for folder, name in WORKLOADS[workload]:
        path = os.path.join(folder, name + ".json")
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        out.append((cfg["experiment_id"], path, cfg, folder == COMMITTED))
    return out


def read_rows(path: str):
    """Data rows of a result CSV as dicts, provenance comments skipped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


_KEY = ("experiment_id", "quantity", "value", "lower", "upper")


def check_experiment(eid: str, cfg: dict, committed: bool, out_dir: str,
                     seed: int) -> list:
    """Reasons why one experiment's outputs are wrong; empty when they hold."""
    csv_path = os.path.join(out_dir, f"{eid}.csv")
    if not os.path.exists(csv_path):
        return ["no CSV written"]
    rows = read_rows(csv_path)
    problems = []
    if seed == 0 and committed:
        golden = read_rows(os.path.join(GOLDEN, f"{eid}.csv"))
        if [[r[k] for k in _KEY] for r in rows] != [[r[k] for k in _KEY] for r in golden]:
            problems.append("rows differ from the committed CSV")
        golden_point = os.path.join(GOLDEN, f"{eid}.point.json")
        if os.path.exists(golden_point) and not _same_bytes(
                golden_point, os.path.join(out_dir, f"{eid}.point.json")):
            problems.append("point.json differs from the committed one")
    for r in rows:
        q, v = r["quantity"], float(r["value"])
        if q in ("generic_inclusion_breaks", "irregular_inclusion_breaks") and v != 0:
            problems.append(f"{q} = {v:g}")
        if q == "suite_size" and v != cfg.get("sample_count", 50):
            problems.append(f"suite_size {v:g} != sample_count")
        if q == "not_generic_count" and cfg["measure"]["kind"] == "mixture" \
                and v != json.loads(r["params"])["sample_count"]:
            problems.append(f"not_generic_count {v:g} != sample_count")
    if cfg["command"] == "birkhoff" and cfg["system"]["kind"] == "circle-mult":
        # the exact orbit of 0.217 = 217/1000 under doubling ends in a cycle
        # through every j/125 with j prime to 125, where cos 2*pi*x sums to 0
        last = float(rows[-1]["value"])
        if abs(last) > 0.05:
            problems.append(f"average of cos 2*pi*x is {last:.3f}, expected about 0")
    if cfg["command"] == "construct":
        try:
            with open(os.path.join(out_dir, f"{eid}.point.json"), "r",
                      encoding="utf-8") as fh:
                json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"point.json unreadable: {exc}")
    return problems


def _same_bytes(a: str, b: str) -> bool:
    if not os.path.exists(b):
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def entropy_accuracy(out_dir: str, eids) -> tuple:
    """(largest |value - closed form|, rows whose bracket misses it, rows)."""
    err, misses, n = 0.0, 0, 0
    for eid in eids:
        exact = CLOSED_FORMS.get(eid)
        path = os.path.join(out_dir, f"{eid}.csv")
        if exact is None or not os.path.exists(path):
            continue
        for r in read_rows(path):
            if r["quantity"] not in ENTROPY_QUANTITIES:
                continue
            n += 1
            err = max(err, abs(float(r["value"]) - exact))
            slack = _PRINT_REL * abs(exact)
            if not float(r["lower"]) - slack <= exact <= float(r["upper"]) + slack:
                misses += 1
    return err, misses, n
