"""Command line entry point: `ergode run <config.json>`.

One config file is one experiment.  The command writes
`<experiment_id>.csv` (and, for constructions, a point spec JSON) into the
output directory and prints a one-line summary.  Exit codes: 0 on success,
2 for any config problem, 3 when a computation budget was exhausted (the
partial CSV is still written, marked incomplete).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .systems import BudgetExhausted, Point, TimeTMap, random_point
from .measures import (
    Bernoulli, CylinderIndicator, TestFamily, check_invariance, metric_entropy,
    time_average_measure,
)
from .birkhoff import (
    Schedule, _limit_classes, _profiles, birkhoff_profile, classify_generic,
    family_targets, classify_irregular, flow_average_profile,
)
from .entropy import (
    ComponentWindow, FrequencyWindow, UnsupportedSubset,
    bowen_entropy_flow, bowen_entropy_symbolic, spanning_entropy,
)
from .constructions import GluingError, generic_point, glue_orbits, irregular_point
from .config import (
    COMMANDS, ConfigError, build_measure, build_mistake_function,
    build_observable, build_point, build_schedule, build_subset, build_system,
    config_digest, load_config,
)
from .reporting import Row, timed, write_csv

__all__ = ["main"]


def _pmap(fn, items, threads: int):
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor   # here: most runs never pool
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def _random_point(space, rng):
    try:
        return random_point(space, rng)
    except ValueError as exc:
        raise ConfigError(f"bad point: {exc}") from None


def _resolve_point(obj, system, ctx):
    if obj.get("kind") == "random":     # the run's generator, made on first use
        rng = ctx["rng"] = ctx.get("rng") or np.random.default_rng(ctx["seed"])
        return _random_point(system, rng)
    point = build_point(obj)
    try:
        system.admits(point)
    except ValueError as exc:
        raise ConfigError(f"bad point: {exc}") from None
    return point


def _measure(cfg, system):
    """The config's measure, refused unless it is invariant on the space it
    lives on: the base of a suspension, the flow of a time-t map."""
    if cfg.get("measure") is None:        # a map's inclusion suite has no default
        raise ConfigError(f"command '{cfg['command']}' requires field 'measure'")
    mu = build_measure(cfg["measure"])
    try:
        check_invariance(mu, system.carrier)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad measure: {exc}") from None
    return mu


def _averaged(system, mu):
    """mu on the system's carrier lifted to the space its points live on: a
    suspension's base measure averaged along the flow (Abramov), refused
    where that is not the flow-invariant measure (a word-dependent roof)."""
    if system.carrier is system.space:
        return mu
    try:
        return time_average_measure(system.space, mu, 16)
    except ValueError as exc:
        raise ConfigError(f"bad measure: {exc}") from None


def _point_json(p: Point) -> dict:
    """The rule's kind and fields, then the point's offset, component and fiber where set."""
    rule = p.rule
    out = {"kind": rule.kind, **{name: getattr(rule, name) for name in rule._fields}}
    place = {"offset": p.offset or None, "component": p.component, "fiber": p.fiber}
    return {**out, **{key: v for key, v in place.items() if v is not None}}


# ---------------------------------------------------------------------------
# command handlers (each appends Row objects to `rows` as it goes)


def _cmd_entropy(cfg, ctx, rows):
    system = build_system(cfg["system"])
    subset = build_subset(cfg["subset"])
    depths = None if cfg["depths"] is None else tuple(cfg["depths"])
    method = cfg["method"]
    eid = cfg["experiment_id"]
    params = {"subset": cfg["subset"]["kind"]}
    if method in ("spanning", "both") and depths is not None and len(set(depths)) < 2:
        raise ConfigError("the spanning method fits a growth rate: depths needs "
                          "at least two distinct values")
    if method in ("caratheodory", "both"):
        with timed() as t:
            est = (bowen_entropy_flow(system, subset, depths) if system.is_flow
                   else bowen_entropy_symbolic(system, subset, depths))
        p = dict(params)
        if est.flags:
            p["flags"] = list(est.flags)
        rows.append(Row(eid, "bowen_entropy", est.value, est.lower, est.upper, p, t.ms))
        if ctx["diagnostics"]:
            for d, a in zip(est.depths, est.alphas):
                rows.append(Row(eid, "alpha_at_depth", a, None, None, {**params, "depth": d}, 0.0))
    if method in ("spanning", "both"):
        with timed() as t:
            est = spanning_entropy(system, subset, depths)
        rows.append(Row(eid, "spanning_entropy", est.value, est.lower, est.upper,
                        dict(params), t.ms))


def _cmd_birkhoff(cfg, ctx, rows):
    system = build_system(cfg["system"])
    point = _resolve_point(cfg["point"], system, ctx)
    phi = build_observable(cfg["observable"])
    schedule = build_schedule(cfg["schedule"], system.is_flow)
    eid = cfg["experiment_id"]
    with timed() as t:
        prof = _read(flow_average_profile if system.is_flow else birkhoff_profile,
                     system, point, phi, schedule)
    per = t.ms / len(prof)
    for c, v in zip(schedule.checkpoints, prof):
        rows.append(Row(eid, "birkhoff_average", float(v), None, None, {"checkpoint": c}, per))


def _cmd_classify(cfg, ctx, rows):
    system = build_system(cfg["system"])
    point = _resolve_point(cfg["point"], system, ctx)
    schedule = build_schedule(cfg["schedule"], system.is_flow)
    tol = cfg["tolerance"]
    eid = cfg["experiment_id"]
    if cfg["mode"] == "generic":
        mu = _measure(cfg, system)
        fam = TestFamily.default_for(system, depth=cfg["family_depth"])
        mu = _averaged(system, mu)
        with timed() as t:
            verdict = classify_generic(system, point, mu, fam, schedule, tol,
                                       keep_profile=ctx["diagnostics"])
    else:
        phi = build_observable(cfg["observable"])
        with timed() as t:
            verdict = _read(classify_irregular, system, point, phi, schedule, tol,
                            keep_profile=ctx["diagnostics"])
    rows.append(Row(eid, "classification", verdict.gap, None, None,
                    {"label": verdict.label,
                     "witness": "" if verdict.witness is None else repr(verdict.witness),
                     "checkpoint": verdict.checkpoint, "tolerance": tol}, t.ms))
    if ctx["diagnostics"] and verdict.profile:
        for c, entry in zip(schedule.checkpoints, verdict.profile):
            v = float(np.max(entry)) if np.ndim(entry) else float(entry)
            rows.append(Row(eid, "profile_at_checkpoint", v, None, None, {"checkpoint": c}, 0.0))


def _read(reader, system, point, phi, *args, **kwargs):
    """reader(system, point, phi, ...), refusing an observable that the
    system's orbits cannot read."""
    try:
        return reader(system, point, phi, *args, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad observable: {exc}") from None


def _cmd_construct(cfg, ctx, rows):
    system = build_system(cfg["system"])
    what = cfg["construction"]
    eid = cfg["experiment_id"]
    out_path = os.path.join(ctx["out"], f"{eid}.point.json")
    if what == "generic-point":
        mu = _measure(cfg, system)
        kind = cfg["construction_kind"]
        with timed() as t:
            p = _construction(what, generic_point, system, mu, kind, seed=ctx["seed"],
                              horizon=cfg["horizon"])
        verdict = classify_generic(system, p, mu,
                                   TestFamily.default_for(system, depth=4),
                                   build_schedule(cfg["schedule"], False), cfg["tolerance"])
        rows.append(Row(eid, "construction_gap", verdict.gap, None, None,
                        {"label": verdict.label, "kind": kind}, t.ms))
        _write_point(out_path, p)
        return
    if what == "irregular-point":
        with timed() as t:
            rec = _irregular_point(cfg, system)
        verdict = classify_irregular(system, rec.point,
                                     build_observable({"kind": "symbol-frequency",
                                                       "symbol": rec.symbol}),
                                     rec.schedule(), cfg["tolerance"])
        rows.append(Row(eid, "oscillation_gap", verdict.gap, None, None,
                        {"label": verdict.label,
                         "block_ends": list(rec.block_ends[:6])}, t.ms))
        _write_point(out_path, rec.point)
        return
    if what == "glued-orbit":
        segs = [(_resolve_point(p, system, ctx), int(n)) for p, n in cfg["segments"]]
        g = build_mistake_function(cfg["mistake_function"])
        with timed() as t:
            glued = _construction(what, glue_orbits, system, segs, cfg["eps"], g)
        for i, (T, c) in enumerate(zip(glued.junction_times, glued.connector_lengths)):
            rows.append(Row(eid, "connector_length", float(c), None, None,
                            {"junction": i, "time": T}, 0.0))
        for i, m in enumerate(glued.segment_mismatches):
            rows.append(Row(eid, "segment_mismatches", float(m), None, None, {"segment": i}, 0.0))
        rows.append(Row(eid, "within_budget", 1.0 if glued.within_budget else 0.0,
                        None, None, {}, t.ms))
        _write_point(out_path, glued.point)


def _construction(what, build, system, *args, **kwargs):
    """build(system, ...), refusing a system or target it does not build on."""
    try:
        return build(system, *args, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad construction '{what}': {exc}") from None


def _irregular_point(cfg, system):
    return _construction("irregular-point", irregular_point, system, cfg["symbol"], cfg["lo"],
                         cfg["hi"], cfg["first_block"], cfg["block_ratio"], cfg["horizon"])


def _write_point(path: str, p: Point) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_point_json(p)) + "\n")   # dumps runs the C encoder, dump does not


def _cmd_verify_thm_a(cfg, ctx, rows):
    flow = build_system(cfg["system"])
    if not flow.is_flow or flow.carrier is flow:
        raise ConfigError("verify-thm-a expects a suspension flow system")
    subset = build_subset(cfg["subset"])
    depths = tuple(cfg["depths"])
    times = cfg["times"]
    eid = cfg["experiment_id"]
    with timed() as t:
        base_est = bowen_entropy_flow(flow, subset, depths)
    rows.append(Row(eid, "flow_entropy", base_est.value, base_est.lower,
                    base_est.upper, {}, t.ms))

    def at_time(tt):
        with timed() as tm:
            est = bowen_entropy_symbolic(TimeTMap(flow, tt), subset, depths)
        return tt, est, tm.ms

    scaled = []
    for tt, est, ms in _pmap(at_time, times, ctx["threads"]):
        scaled.append(est.value / tt)
        rows.append(Row(eid, "scaled_time_t_entropy", est.value / tt,
                        est.lower / tt, est.upper / tt, {"t": tt}, ms))
    dev = max(abs(s - base_est.value) for s in scaled)
    rows.append(Row(eid, "max_scaled_deviation", dev, None, None, {"times": times}, 0.0))


def _cmd_verify_thm_b(cfg, ctx, rows):
    system = build_system(cfg["system"])
    if system.space is not system:      # its entropies are t times the flow's
        raise ConfigError("verify-thm-b takes a map or a flow, not a time-t map: give the flow")
    mu = _measure(cfg, system)
    eid = cfg["experiment_id"]
    tol = cfg["tolerance"]
    depths = tuple(cfg["depths"])
    flow = system.is_flow
    inner = system.carrier
    with timed() as t:
        h_mu = metric_entropy(mu, inner)
    rows.append(Row(eid, "metric_entropy", h_mu, h_mu, h_mu, {}, t.ms))
    if len(inner.sides) > 1 and len({p.component for w, p in mu.pieces if w}) > 1:
        # nonergodic strict case: mu charges both sides, so the generic set is empty
        window = ComponentWindow(0.25, 0.75)
        with timed() as t:
            est = (bowen_entropy_flow(system, window, depths) if flow
                   else bowen_entropy_symbolic(system, window, depths))
        rows.append(Row(eid, "generic_set_entropy", est.value, est.lower, est.upper,
                        {"flags": list(est.flags)}, t.ms))
        n_samples = cfg["sample_count"]
        fam = TestFamily.default_for(inner, depth=cfg["family_depth"])
        schedule = build_schedule(cfg["schedule"], False)
        samples = (_random_point(inner, np.random.default_rng(ctx["seed"] + i))
                   for i in range(n_samples))
        _, labels = _generic_labels(inner, samples, mu, fam, schedule, tol,
                                    family_targets(mu, fam))
        rows.append(Row(eid, "not_generic_count", float(labels.count("NotGeneric")), None, None,
                        {"sample_count": n_samples}, 0.0))
        return
    # ergodic route: window the dominant symbol frequency around its mean
    try:
        freq0 = mu.chain.stationary[0]
    except TypeError:
        raise ConfigError("verify-thm-b handles a chain or a mixture on both union sides") from None
    delta = cfg["lo"]   # window half-width
    window = FrequencyWindow(0, max(freq0 - delta, 0.0), min(freq0 + delta, 1.0))
    with timed() as t:
        est = (bowen_entropy_flow(system, window, depths) if flow
               else bowen_entropy_symbolic(system, window, depths))
    scale = system.roof.roof_max if flow else 1.0
    rows.append(Row(eid, "generic_set_entropy_bound", est.value, est.lower, est.upper,
                    {"window_halfwidth": delta}, t.ms))
    rows.append(Row(eid, "entropy_vs_metric_gap", est.value * scale - h_mu,
                    None, None, {"tolerance": tol}, 0.0))


def _cmd_verify_irregular(cfg, ctx, rows):
    system = build_system(cfg["system"])
    eid = cfg["experiment_id"]
    with timed() as t:
        rec = _irregular_point(cfg, system)
    verdict = classify_irregular(
        system, rec.point,
        build_observable({"kind": "symbol-frequency", "symbol": rec.symbol}),
        rec.schedule(), cfg["tolerance"],
    )
    rows.append(Row(eid, "oscillation_gap", verdict.gap, None, None,
                    {"label": verdict.label}, t.ms))
    depth = max(cfg["depths"])
    windows = rec.oscillation_windows(scales=4, slack=0.1)
    s_max = windows.windows[-1][0]
    depths = tuple(sorted({max(d, s_max) for d in (depth // 4, depth // 2, depth)}))
    with timed() as t:
        est = bowen_entropy_symbolic(system, windows, depths=depths)
    k = system.alphabet
    rows.append(Row(eid, "irregular_set_entropy", est.value, est.lower, est.upper,
                    {"depth": depth}, t.ms))
    rows.append(Row(eid, "entropy_fraction_of_max", est.value / math.log(k),
                    None, None, {}, 0.0))


def _cmd_verify_inclusions(cfg, ctx, rows):
    system = build_system(cfg["system"])
    if system.is_flow and system.carrier is not system:
        _inclusions_flow_suite(cfg, ctx, rows, system)
        return
    mu = _measure(cfg, system)
    eid = cfg["experiment_id"]
    tol = cfg["tolerance"]
    n_samples = cfg["sample_count"]
    fam = TestFamily.default_for(system, depth=cfg["family_depth"] or 4)
    schedule = build_schedule(cfg["schedule"], False)
    mubar = _averaged(system, mu)       # samples are drawn from mu, on the carrier
    targets = family_targets(mubar, fam)
    n_limit = min(n_samples, 10)
    w = fam.weights()
    samples = (_sample_from(system, mu, ctx["seed"] + i) for i in range(n_samples))
    A, labels = _generic_labels(system, samples, mubar, fam, schedule, tol, targets)
    for label in ("Generic", "NotGeneric", "Inconclusive"):
        rows.append(Row(eid, f"mu_sample_{label.lower()}", float(labels.count(label)), None, None,
                        {"sample_count": n_samples, "suite": "samples-of-mu"}, 0.0))
    # the first samples' limit sets, from the same profiles, should be one cluster at mu
    limits = [_limit_classes(a, schedule.checkpoints, w, tol) for a in A[:n_limit]]
    good_limit = sum(1 for classes in limits
                     if len(classes) == 1 and classes[0].distance_to(targets, w) <= tol)
    rows.append(Row(eid, "single_limit_class_count", float(good_limit), None, None,
                    {"sample_count": n_limit, "suite": "limit-sets"}, 0.0))
    # points generic for a different measure must be caught
    other = mu.foreign()
    if other is not None:
        samples = (_sample_from(system, other, ctx["seed"] + 7919 + i) for i in range(n_samples))
        rejected = _generic_labels(system, samples, mubar, fam, schedule, tol,
                                   targets)[1].count("NotGeneric")
        rows.append(Row(eid, "foreign_rejected_count", float(rejected), None, None,
                        {"sample_count": n_samples, "suite": "samples-of-other"}, 0.0))


def _generic_labels(system, points, mu, fam, schedule, tol, targets):
    """The family profiles of `points`, read in one pass, and their generic labels."""
    A = _profiles(system, points, fam.observables, schedule)
    return A, [classify_generic(system, None, mu, fam, schedule, tol, targets=targets,
                                profile=a).label for a in A]


def _inclusion_suite_points(base, mu_base, seed: int, n_total: int):
    """Generic constructions, oscillating constructions, and random points,
    each lifted to the zero fiber.  Yields (tag, point, irregular_schedule)."""
    p = generic_point(base, mu_base, "deterministic-blocks", seed=seed)
    out = [("constructed-generic", p.with_fiber(0.0), None)]
    for symbol in (0, 1):
        for lo, hi in ((0.2, 0.65), (0.3, 0.7)):
            rec = irregular_point(base, symbol, lo, hi)
            out.append(("constructed-irregular", rec.point.with_fiber(0.0),
                        rec.schedule()))
    out += [("generic-for-mu", Point(mu_base.seeded(seed + 100 + i), fiber=0.0), None)
            for i in range(max(4, n_total // 5))]
    out += [("random", Point(mu_base.seeded(seed + 1000 + i), fiber=0.0), None)
            for i in range(len(out), n_total)]
    return out


def _inclusions_flow_suite(cfg, ctx, rows, flow):
    """Cross-check classifications under the time-1 map against the flow.

    The inclusion being tested: a point generic under the map cannot be
    non-generic under the flow, and a point whose map averages oscillate
    cannot have convergent flow averages.  One read per dynamics of the
    family and the frequency of symbol 0 serves both verdicts of every point;
    a constructed irregular point reads its frequency again, on its blocks.
    """
    eid = cfg["experiment_id"]
    tol = cfg["tolerance"]
    n_total = cfg["sample_count"]
    base = flow.carrier
    if len(base.sides) > 1 or not base.forbids_nothing:
        raise ConfigError("the flow inclusion suite needs a base shift that forbids nothing")
    c = flow.roof.roof_max
    tmap = TimeTMap(flow, 1.0)
    mu_base = (_measure(cfg, flow) if cfg["measure"] is not None
               else Bernoulli(tuple(1.0 / base.k for _ in range(base.k))))
    mubar = _averaged(flow, mu_base)
    # a family both dynamics can read: the fiber foliation is invariant under
    # the time-1 map, so fiber-graded observables would make the map side vacuous
    fam = TestFamily.default_for(base, depth=cfg["family_depth"] or 3)
    # config checkpoints count base steps; base step j happens at time j*c,
    # which is j*c steps of the time-1 map
    base_sched = build_schedule(cfg["schedule"], False)

    def in_time_units(sched, integral):
        cps = tuple(cp * c for cp in sched.checkpoints)
        if integral:
            cps = tuple(int(round(cp)) for cp in cps)
        try:
            return Schedule(cps)
        except ValueError as exc:
            raise ConfigError(
                f"checkpoints {list(sched.checkpoints)} under the roof {c} give the "
                f"time-1 map checkpoints {list(cps)}: {exc}"
            ) from None

    freq = CylinderIndicator((0,))
    targets = family_targets(mubar, fam)
    points = _construction("flow inclusion suite", _inclusion_suite_points, base, mu_base,
                           ctx["seed"], n_total)
    results = []        # the generic and the irregular label, per dynamics
    for system, integral in ((tmap, True), (flow, False)):
        sched = in_time_units(base_sched, integral)
        A = _profiles(system, (x for _, x, _ in points), fam.observables + (freq,), sched)
        results.append([
            (classify_generic(system, x, mubar, fam, sched, tol, targets=targets,
                              profile=a[:, :-1]).label,
             classify_irregular(system, x, freq, in_time_units(blocks, integral) if blocks
                                else sched, tol, profile=None if blocks else a[:, -1]).label)
            for (_, x, blocks), a in zip(points, A)])
    generic = [(m[0], f[0]) for m, f in zip(*results)]      # (map, flow) labels per point
    irregular = [(m[1], f[1]) for m, f in zip(*results)]
    for quantity, n in (("suite_size", len(points)),
                        ("generic_inclusion_breaks", generic.count(("Generic", "NotGeneric"))),
                        ("irregular_inclusion_breaks", irregular.count(("Irregular", "Regular"))),
                        ("generic_label_agreement", sum(m == f for m, f in generic)),
                        ("irregular_label_agreement", sum(m == f for m, f in irregular))):
        rows.append(Row(eid, quantity, float(n), None, None, {"suite": "map-vs-flow"}, 0.0))


def _sample_from(system, mu, seed: int) -> Point:
    """A point drawn from mu; a measure of several pieces first draws one."""
    if len(mu.pieces) > 1:      # the piece's stream is seeded from the generator that drew it
        rng, weights = np.random.default_rng(seed), [w for w, _ in mu.pieces]
        idx = int(rng.choice(len(weights), p=weights))
        return _sample_from(system, mu.pieces[idx][1], int(rng.integers(0, 2 ** 63 - 1)))
    mu = mu.pieces[0][1]
    try:
        return Point(mu.seeded(seed), component=mu.component)
    except TypeError:
        raise ConfigError("sampling is implemented for Bernoulli, Markov and mixtures") from None


_HANDLERS = {
    "entropy": _cmd_entropy,
    "birkhoff": _cmd_birkhoff,
    "classify": _cmd_classify,
    "construct": _cmd_construct,
    "verify-thm-a": _cmd_verify_thm_a,
    "verify-thm-b": _cmd_verify_thm_b,
    "verify-irregular": _cmd_verify_irregular,
    "verify-inclusions": _cmd_verify_inclusions,
}

assert set(_HANDLERS) == set(COMMANDS)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ergode",
                                     description="orbit-average and entropy experiments")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run = sub.add_parser("run", help="run one experiment config")
    run.add_argument("config", help="path to the experiment config JSON")
    run.add_argument("--out", default=".", help="output directory (default: .)")
    run.add_argument("--diagnostics", action="store_true",
                     help="emit per-depth / per-checkpoint detail rows")
    run.add_argument("--threads", type=int, default=1,
                     help="worker threads for independent sub-tasks")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    seed = int(os.environ.get("ERGODE_SEED", cfg["seed"]))
    ctx = {"seed": seed, "diagnostics": args.diagnostics, "threads": max(args.threads, 1),
           "out": args.out}
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, f"{cfg['experiment_id']}.csv")
    rows = []
    try:
        _HANDLERS[cfg["command"]](cfg, ctx, rows)
    except (ConfigError, UnsupportedSubset, GluingError) as exc:   # a gluing fails on its config
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExhausted as exc:
        write_csv(csv_path, rows, config_sha256=config_digest(cfg), seed=seed,
                  incomplete=True)
        print(f"budget exhausted: {exc}", file=sys.stderr)
        print(f"{cfg['command']}: {len(rows)} rows (incomplete) -> {csv_path}")
        return 3
    write_csv(csv_path, rows, config_sha256=config_digest(cfg), seed=seed)
    print(f"{cfg['command']}: {len(rows)} rows -> {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
