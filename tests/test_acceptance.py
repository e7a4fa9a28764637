"""Full acceptance sweep: nine end-to-end checks of the package's headline
claims, each printing one PASS/FAIL line.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

Every check pins a concrete tolerance; the detail part of the verdict line
reports the worst observed quantity so a drift toward the tolerance edge is
visible before it becomes a failure.
"""

import math
import pathlib

import numpy as np

from ergode.systems import (
    FullShift,
    MarkovShift,
    CircleRotation,
    CircleRotationFlow,
    TorusTranslation,
    Suspension,
    RoofFunction,
    TimeTMap,
    Point,
    Coordinate,
    ExplicitWord,
    SeededIID,
    random_point,
)
from ergode.measures import (
    Bernoulli,
    Markov,
    Lebesgue,
    Atomic,
    Mixture,
    Harmonic,
    CylinderIndicator,
    FiberProfile,
    Constant,
    TimeShifted,
    TestFamily,
    metric_entropy,
    integrate,
    pushforward,
    compose_with_flow,
    time_average_measure,
)
from ergode.entropy import (
    WholeSpace,
    FrequencyWindow,
    ComponentWindow,
    bowen_entropy_symbolic,
    bowen_entropy_flow,
    spanning_entropy,
    caratheodory_sum,
)
from ergode.birkhoff import Schedule, classify_generic, classify_irregular
from ergode.constructions import (
    MistakeFunction,
    mistake_ball_membership,
    glue_orbits,
    irregular_point,
)
from ergode.cli import _inclusion_suite_points
from ergode.config import build_measure, build_system, load_config

LOG2 = math.log(2.0)
LOG_GOLDEN = 0.4812118250596035          # log((1 + sqrt 5) / 2)
GOLDEN_CONJUGATE = 0.6180339887498949    # badly approximable rotation angle
MIXTURE_CONFIG = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "configs" / \
    "thm_b_mixture.json"


def _verdict(idx: int, label: str, ok: bool, detail: str) -> None:
    print(f"acceptance {idx}/9 {'PASS' if ok else 'FAIL'}  {label}  ({detail})",
          flush=True)
    assert ok, f"{label}: {detail}"


def _golden_mean_shift() -> MarkovShift:
    return MarkovShift(2, ((1, 1), (1, 0)))


def test_entropy_recovery_on_reference_systems():
    cases = (
        (FullShift(2), LOG2, 0.02),
        (FullShift(3), math.log(3.0), 0.03),
        (_golden_mean_shift(), LOG_GOLDEN, 0.03),
        (CircleRotation(GOLDEN_CONJUGATE), 0.0, 0.05),
    )
    ok, worst = True, 0.0
    for system, target, tol in cases:
        for route in (spanning_entropy, bowen_entropy_symbolic):
            err = abs(route(system, WholeSpace()).value - target)
            worst = max(worst, err)
            ok = ok and err <= tol
    _verdict(1, "whole-space entropy, both routes, four systems", ok,
             f"worst error {worst:.4f}")


def test_flow_entropy_matches_scaled_time_t_entropy():
    depths = (60, 120, 240)
    ok, worst_spread, worst_dev = True, 0.0, 0.0
    for c in (1.0, 2.0):
        flow = Suspension(FullShift(2), RoofFunction.constant(c))
        for subset in (WholeSpace(), FrequencyWindow(0, 0.28, 0.32)):
            scaled = [
                bowen_entropy_symbolic(TimeTMap(flow, t), subset, depths).value / t
                for t in (0.5, 1.0, 2.0)
            ]
            spread = max(scaled) - min(scaled)
            direct = bowen_entropy_flow(flow, subset, depths).value
            dev = abs(direct - sum(scaled) / len(scaled))
            ok = ok and spread <= 0.05 and dev <= 0.05
            worst_spread = max(worst_spread, spread)
            worst_dev = max(worst_dev, dev)
    _verdict(2, "time-t entropies rescale onto the flow value", ok,
             f"worst spread {worst_spread:.4f}, worst flow deviation {worst_dev:.4f}")


def test_generic_set_entropy_matches_metric_entropy_for_bernoulli():
    shift = FullShift(2)
    depths = (500, 1000, 2000)
    ok, worst = True, 0.0
    for p in (0.1, 0.3, 0.5):
        mu = Bernoulli((p, 1.0 - p))
        window = FrequencyWindow(0, p - 0.005, p + 0.005)
        est = bowen_entropy_symbolic(shift, window, depths=depths)
        gap = abs(est.value - metric_entropy(mu, shift))
        worst = max(worst, gap)
        ok = ok and gap <= 0.02
    _verdict(3, "generic-set entropy equals metric entropy (ergodic case)", ok,
             f"worst gap {worst:.5f}")


def test_mixture_has_empty_generic_set_but_full_entropy():
    # two coin shifts side by side, the unit-roof flow over them and the
    # balanced mixture of the two coin measures, as the committed config builds them
    cfg = load_config(str(MIXTURE_CONFIG))
    flow, mixture = build_system(cfg["system"]), build_measure(cfg["measure"])
    union = flow.base
    h_err = abs(metric_entropy(mixture, union) - LOG2)
    window = ComponentWindow(0.25, 0.75)
    est_flow = bowen_entropy_flow(flow, window, (16, 24, 36))
    est_map = bowen_entropy_symbolic(union, window, (16, 24, 36))
    empty = (
        est_flow.value == 0.0 and "empty-cover" in est_flow.flags
        and est_map.value == 0.0 and "empty-cover" in est_map.flags
    )
    fam = TestFamily.default_for(union, depth=3)
    sched = Schedule((256, 512))
    rejected = 0
    for i in range(100):
        x = random_point(union, np.random.default_rng(1000 + i))
        v = classify_generic(union, x, mixture, fam, sched, 0.02)
        rejected += v.label == "NotGeneric"
    ok = h_err <= 1e-9 and empty and rejected == 100
    _verdict(4, "nonergodic mixture: empty generic set, full measure entropy", ok,
             f"h_mu error {h_err:.2e}, generic-set entropy zero: {empty}, "
             f"rejected {rejected}/100")


def test_map_flow_classification_inclusions():
    tol = 0.02
    ok = True
    parts = []
    for c in (1.0, 2.0):
        flow = Suspension(FullShift(2), RoofFunction.constant(c))
        tmap = TimeTMap(flow, 1.0)
        mu = Bernoulli((0.5, 0.5))
        mubar = time_average_measure(flow, mu)
        fam = TestFamily.default_for(FullShift(2), depth=3)
        base_sched = Schedule((1024, 2048, 4096))

        def in_time_units(sched, integral):
            cps = tuple(cp * c for cp in sched.checkpoints)
            return Schedule(tuple(int(round(v)) for v in cps) if integral else cps)

        freq = CylinderIndicator((0,))
        suite = _inclusion_suite_points(FullShift(2), mu, seed=2000 + int(c), n_total=50)
        g_breaks = i_breaks = 0
        for tag, x, blocks in suite:
            vg_map = classify_generic(tmap, x, mubar, fam, in_time_units(base_sched, True), tol)
            vg_flow = classify_generic(flow, x, mubar, fam, in_time_units(base_sched, False), tol)
            isched = blocks or base_sched
            vi_map = classify_irregular(tmap, x, freq, in_time_units(isched, True), tol)
            vi_flow = classify_irregular(flow, x, freq, in_time_units(isched, False), tol)
            g_breaks += vg_map.label == "Generic" and vg_flow.label == "NotGeneric"
            i_breaks += vi_map.label == "Irregular" and vi_flow.label == "Regular"
        ok = ok and len(suite) >= 50 and g_breaks == 0 and i_breaks == 0
        parts.append(f"roof {c:g}: {len(suite)} points, "
                     f"{g_breaks} generic breaks, {i_breaks} irregular breaks")
    _verdict(5, "time-1 map verdicts never contradict flow verdicts", ok,
             "; ".join(parts))


def test_rotation_flow_generic_but_rational_time_map_not():
    flow = CircleRotationFlow()
    fam = TestFamily.default_for(flow)
    leb = Lebesgue(1)
    tmap = TimeTMap(flow, 0.5)
    flow_sched = Schedule((200.0, 400.0, 800.0))
    map_sched = Schedule((512, 1024, 2048))
    rng = np.random.default_rng(7)
    n_generic = n_witnessed = 0
    for _ in range(20):
        x = random_point(flow, rng)
        vf = classify_generic(flow, x, leb, fam, flow_sched, 0.02)
        vm = classify_generic(tmap, x, leb, fam, map_sched, 0.02)
        n_generic += vf.label == "Generic"
        n_witnessed += (
            vm.label == "NotGeneric"
            and isinstance(vm.witness, Harmonic)
            and vm.witness.frequency == 2
        )
    ok = n_generic == 20 and n_witnessed == 20
    _verdict(6, "rotation flow generic, its rational time map rejected", ok,
             f"flow generic {n_generic}/20, "
             f"frequency-2 witnesses {n_witnessed}/20")


def test_oscillating_point_is_irregular_with_high_entropy_level_set():
    shift = FullShift(2)
    rec = irregular_point(shift, 0, 0.3, 0.7, first_block=8, ratio=4)
    v = classify_irregular(shift, rec.point, CylinderIndicator((0,)), rec.schedule(), 0.02)
    windows = rec.oscillation_windows(scales=4, slack=0.1)
    s_max = windows.windows[-1][0]
    est = bowen_entropy_symbolic(shift, windows, depths=(s_max, 1000, 2000))
    frac = est.value / LOG2
    ok = v.label == "Irregular" and v.gap >= 0.18 and frac >= 0.95
    _verdict(7, "steered oscillation: irregular verdict, near-full entropy", ok,
             f"label {v.label}, gap {v.gap:.3f}, entropy fraction {frac:.4f}")


def test_mistake_balls_match_bowen_balls_and_gluing_stays_in_budget():
    shift = FullShift(2)
    rng = np.random.default_rng(42)
    n = 48
    agree = trials = 0
    for eps in (0.3, 0.09):
        # two streams are eps-close iff they agree on their first
        # ceil(log2(1/eps)) symbols; the n-step ball then needs agreement
        # out to n + L - 2
        L = int(math.ceil(math.log2(1.0 / eps)))
        width = n + L + 6
        for _ in range(5000):
            xs = rng.integers(0, 2, size=width)
            ys = xs.copy()
            mode = rng.random()
            if mode < 0.55:
                # single planted flip, spread across the decision boundary
                ys[int(rng.integers(0, width))] ^= 1
            elif mode < 0.8:
                ys = rng.integers(0, 2, size=width)
            expected = bool((xs[: n + L - 1] == ys[: n + L - 1]).all())
            rep = mistake_ball_membership(
                shift,
                Point(ExplicitWord(tuple(int(s) for s in xs))),
                Point(ExplicitWord(tuple(int(s) for s in ys))),
                n, eps,
            )
            agree += rep.member == expected
            trials += 1

    segs_full = [(Point(SeededIID(50 + i, (0.5, 0.5))), t)
                 for i, t in enumerate((300, 211, 157, 400))]
    glued_full = glue_orbits(shift, segs_full, eps=0.75)
    full_ok = glued_full.within_budget and all(
        m == 0 for m in glued_full.segment_mismatches
    )
    starts = (0,) + glued_full.junction_times
    for (p, t), s in zip(segs_full, starts):
        rep = mistake_ball_membership(shift, p, glued_full.point.shifted(s), t, 0.75)
        full_ok = full_ok and rep.member

    gm = _golden_mean_shift()
    # every junction reads 1 -> 1, which the vertex shift forbids, so each
    # glue must spend exactly one overwritten symbol
    segs_gm = [
        (Point(ExplicitWord((0, 1))), 302),
        (Point(ExplicitWord((1, 0))), 201),
        (Point(ExplicitWord((1, 0))), 159),
        (Point(ExplicitWord((1, 0))), 240),
    ]
    g = MistakeFunction.power(1.0, 0.1)
    glued_gm = glue_orbits(gm, segs_gm, eps=0.75, g=g)
    gm_ok = glued_gm.within_budget and all(
        m <= 1 for m in glued_gm.segment_mismatches
    ) and sum(glued_gm.segment_mismatches) == 3
    for (p, t), s in zip(segs_gm, (0,) + glued_gm.junction_times):
        rep = mistake_ball_membership(gm, p, glued_gm.point.shifted(s), t, 0.75, g)
        gm_ok = gm_ok and rep.member and rep.mismatches / t <= 1.0 / t + 1e-12

    ok = agree == trials and full_ok and gm_ok
    _verdict(8, "zero-budget balls exact, glued orbits within budget", ok,
             f"ball agreement {agree}/{trials}, free glue clean: {full_ok}, "
             f"vertex glue one mistake per junction: {gm_ok}")


def _change_of_variable_pairs():
    phi_g = (1.0 + 5.0 ** 0.5) / 2.0
    gm_markov = Markov(((1 / phi_g, 1 / phi_g ** 2), (1.0, 0.0)),
                       (phi_g ** 2 / (1 + phi_g ** 2), 1 / (1 + phi_g ** 2)))
    hat = FiberProfile(Constant(1.0), ((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
    pairs = []
    rot = CircleRotationFlow()
    atoms_circle = Atomic(
        (Point(Coordinate((0.12,))), Point(Coordinate((0.61,))), Point(Coordinate((0.843,)))),
        (0.2, 0.5, 0.3),
    )
    for t in (0.3, 0.7, 1.4):
        for phi in (Harmonic(1, "cos"), Harmonic(2, "sin"), Harmonic(3, "cos", 0.2)):
            pairs.append((rot, t, Lebesgue(1), phi))
            pairs.append((rot, t, atoms_circle, phi))
            pairs.append((rot, t, Mixture(((Lebesgue(1), 0.4), (atoms_circle, 0.6))), phi))
    torus = TorusTranslation((1.0, 2.0 ** 0.5))
    atoms_torus = Atomic(
        (Point(Coordinate((0.2, 0.9))), Point(Coordinate((0.77, 0.31)))), (0.5, 0.5),
    )
    for t in (0.45, 1.2):
        for phi in (Harmonic(1, "cos"), Harmonic(2, "sin")):
            pairs.append((torus, t, Lebesgue(2), phi))
            pairs.append((torus, t, atoms_torus, phi))
    for c, mu0 in ((1.0, Bernoulli((0.3, 0.7))), (2.0, Bernoulli((0.5, 0.5)))):
        flow = Suspension(FullShift(2), RoofFunction.constant(c))
        atoms_susp = Atomic(
            (Point(ExplicitWord((0, 1, 1)), fiber=0.2 * c),
             Point(ExplicitWord((1, 0)), fiber=0.8 * c)),
            (0.35, 0.65),
        )
        obs = (CylinderIndicator((0,)), CylinderIndicator((1, 0)), CylinderIndicator((0,)), hat)
        for t in (0.25 * c, 0.5 * c, 1.0 * c, 1.75 * c):
            for phi in obs:
                pairs.append((flow, t, mu0, phi))
                pairs.append((flow, t, atoms_susp, phi))
        # a pre-shifted base composed with one further sub-roof step exercises
        # the s + t bookkeeping on a route distinct from the single shift
        for s in (0.6 * c, 2.7 * c):
            for t in (0.3 * c, 0.9 * c):
                for phi in obs:
                    pairs.append((flow, t, TimeShifted(flow, s, mu0), phi))
    gm_flow = Suspension(_golden_mean_shift(), RoofFunction.constant(1.0))
    for t in (0.5, 1.3):
        for phi in (CylinderIndicator((0,)), CylinderIndicator((0, 1)), hat):
            pairs.append((gm_flow, t, gm_markov, phi))
    return pairs


def test_numerical_hygiene():
    pairs = _change_of_variable_pairs()
    worst_pair = 0.0
    for flow, t, mu, phi in pairs:
        lhs = integrate(pushforward(flow, t, mu), phi)
        rhs = integrate(mu, compose_with_flow(flow, t, phi))
        worst_pair = max(worst_pair, abs(lhs - rhs))
    change_ok = worst_pair <= 1e-9

    rng = np.random.default_rng(9)
    alphas = (0.0, 0.25, 0.5, 1.0, 1.6, 2.5)
    monotone_ok = True
    for _ in range(100):
        size = int(rng.integers(1, 40))
        spans = rng.uniform(0.05, 25.0, size)
        log_counts = rng.uniform(0.0, 30.0, size)
        groups = [(float(lc), float(s)) for lc, s in zip(log_counts, spans)]
        sums = [caratheodory_sum(groups, a) for a in alphas]
        monotone_ok = monotone_ok and all(
            b <= a + 1e-12 for a, b in zip(sums, sums[1:])
        )

    ok = change_ok and monotone_ok
    _verdict(9, "change of variables exact, cover sums monotone in alpha",
             ok, f"{len(pairs)} integral pairs, worst difference {worst_pair:.2e}, "
             f"cover monotone: {monotone_ok}")
