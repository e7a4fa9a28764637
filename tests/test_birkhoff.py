import functools
import hashlib
from dataclasses import dataclass
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ergode.systems import (
    BlockSchedule,
    CircleMult,
    CircleRotation,
    Coordinate,
    DisjointUnion,
    ExplicitWord,
    FullShift,
    MarkovShift,
    Point,
    RoofFunction,
    SeededIID,
    SeededMarkov,
    SteeredBlocks,
    Suspension,
    TimeTMap,
    _map_chart,
    random_point,
    time_t_map,
)
from ergode.measures import (
    Atomic,
    Bernoulli,
    Constant,
    CylinderIndicator,
    FiberProfile,
    Harmonic,
    Lebesgue,
    Markov,
    TestFamily,
    evaluate,
    integrate,
    pushforward,
    time_average_measure,
)
from ergode import birkhoff, systems
from ergode.birkhoff import (
    Schedule,
    _profiles,
    birkhoff_average_flow,
    birkhoff_average_map,
    birkhoff_profile,
    classify_generic,
    classify_irregular,
    _limit_classes,
    family_targets,
    flow_average_profile,
    limit_point_set,
)
from ergode.constructions import StageRecipe, generic_point, irregular_point
from stepping import step


def naive_average(system, x, phi, n):
    total, y = 0.0, x
    for _ in range(n):
        total += evaluate(phi, y)
        y = step(system, y)
    return total / n


@given(st.integers(1, 80))
@settings(deadline=None)
def test_map_average_matches_naive_loop(n):
    x = Point(SeededIID(3, (0.5, 0.5)))
    phi = CylinderIndicator((1, 0))
    fast = birkhoff_average_map(FullShift(2), x, phi, n)
    assert fast == pytest.approx(naive_average(FullShift(2), x, phi, n), abs=1e-12)


def test_profile_equals_averages_at_checkpoints():
    x = Point(SeededIID(3, (0.5, 0.5)))
    phi = CylinderIndicator((1, 0))
    sched = Schedule((5, 10, 20))
    prof = birkhoff_profile(FullShift(2), x, phi, sched)
    for v, n in zip(prof, (5, 10, 20)):
        assert v == pytest.approx(naive_average(FullShift(2), x, phi, n), abs=1e-12)


def test_rotation_average_matches_trigonometric_sum():
    rot = CircleRotation(0.31)
    x = Point(Coordinate((0.2,)))
    n = 50
    want = np.mean([math.cos(2 * math.pi * ((0.2 + j * 0.31) % 1.0)) for j in range(n)])
    assert birkhoff_average_map(rot, x, Harmonic(1), n) == pytest.approx(want, abs=1e-10)


def exact_doubling_average(x0: str, cps):
    """The average of cos 2*pi*x along the orbit of the decimal x0 under
    x -> 2x, each point exact as a Fraction, at each checkpoint."""
    r, total, out = Fraction(x0), 0.0, []
    for j in range(1, cps[-1] + 1):
        total += math.cos(2 * math.pi * r)
        r = 2 * r % 1
        if j in cps:
            out.append(total / j)
    return out


def test_circle_doubling_reads_the_exact_orbit_of_the_decimal():
    """0.217 is 217/1000, whose doubling orbit is periodic; the float orbit
    of 0.217 collapses to 0 within 60 steps, where every average tends to 1."""
    cps = (1000, 5000, 10000)
    got = birkhoff_profile(CircleMult(2), Point(Coordinate((0.217,))), Harmonic(1), Schedule(cps))
    want = exact_doubling_average("0.217", cps)
    assert np.abs(got - want).max() < 1e-12
    assert got == pytest.approx([1.0759e-3, 2.1518e-4, 1.0759e-4], rel=1e-4)


def test_lebesgue_random_points_are_generic_under_circle_doubling():
    rng = np.random.default_rng(0)
    sched = Schedule((1000, 2000, 4000, 8000, 16000))
    labels = {classify_generic(CircleMult(2), random_point(CircleMult(2), rng), Lebesgue(),
                               schedule=sched, tol=0.05).label for _ in range(20)}
    assert labels == {"Generic"}


def test_flow_average_matches_midpoint_quadrature():
    susp = Suspension(FullShift(2), RoofFunction.constant(1.5))
    x = Point(SeededIID(5, (0.5, 0.5))).with_fiber(0.0)
    tent = FiberProfile(Constant(1.0), ((0.0, 0.0), (0.75, 1.0), (1.5, 0.0)))
    T = 30.0
    got = birkhoff_average_flow(susp, x, tent, T)
    ts = (np.arange(600000) + 0.5) * (T / 600000)
    fibers = ts % 1.5
    assert got == pytest.approx(np.mean(1 - np.abs(fibers - 0.75) / 0.75), abs=1e-4)


def test_flow_average_over_word_dependent_roof():
    """Segment accounting: average of the constant 1 is 1 whatever the roof."""
    susp = Suspension(FullShift(2), RoofFunction(1, (1.0, 2.0), 2))
    x = Point(SeededIID(9, (0.5, 0.5))).with_fiber(0.3)
    assert birkhoff_average_flow(susp, x, Constant(1.0), 57.3) == pytest.approx(1.0, abs=1e-12)


def test_flow_profile_is_consistent_with_single_calls():
    susp = Suspension(FullShift(2), RoofFunction.constant(1.0))
    x = Point(SeededIID(5, (0.5, 0.5))).with_fiber(0.0)
    phi = CylinderIndicator((1,))
    sched = Schedule((4.0, 8.0, 16.0))
    prof = flow_average_profile(susp, x, phi, sched)
    for v, T in zip(prof, sched.checkpoints):
        assert v == pytest.approx(birkhoff_average_flow(susp, x, phi, T), abs=1e-12)


def test_schedule_geometric_keeps_integer_checkpoints():
    s = Schedule.geometric(100, 800)
    assert s.checkpoints == (100, 200, 400, 800)
    assert all(isinstance(c, int) for c in s.checkpoints)


def test_schedule_rejects_nonincreasing_checkpoints():
    with pytest.raises(ValueError):
        Schedule((10, 10, 20))


def test_classify_generic_labels():
    fs = FullShift(2)
    fam = TestFamily.default_for(fs, depth=3)
    mu = Bernoulli((0.5, 0.5))
    sched = Schedule((2000, 4000, 8000))

    good = classify_generic(fs, Point(SeededIID(11, (0.5, 0.5))), mu, fam, sched)
    assert good.label == "Generic"

    bad = classify_generic(fs, Point(ExplicitWord((0,))), mu, fam, sched)
    assert bad.label == "NotGeneric"
    assert isinstance(bad.witness, CylinderIndicator)

    # slightly off frequency at short horizon: neither verdict is safe
    murky = classify_generic(fs, Point(SeededIID(11, (0.44, 0.56))), mu, fam, Schedule((100, 200, 300)))
    assert murky.label == "Inconclusive"


def test_classify_irregular_and_regular():
    fs = FullShift(2)
    rec = irregular_point(fs, 0, 0.3, 0.7, ratio=4)
    osc = classify_irregular(fs, rec.point, CylinderIndicator((0,)), rec.schedule())
    assert osc.label == "Irregular"
    assert osc.gap >= 0.18

    tame = classify_irregular(
        fs, Point(SeededIID(2, (0.5, 0.5))), CylinderIndicator((0,)),
        Schedule((1000, 2000, 4000, 8000)),
    )
    assert tame.label == "Regular"


def test_limit_point_set_sees_both_oscillation_targets():
    fs = FullShift(2)
    rec = irregular_point(fs, 0, 0.3, 0.7, ratio=4)
    fam = TestFamily((CylinderIndicator((0,)),))
    classes = limit_point_set(fs, rec.point, fam, rec.schedule(), tol=0.05)
    got = sorted(c.integrals[0] for c in classes)
    assert len(classes) == 2
    assert got[0] == pytest.approx(0.3, abs=0.01)
    assert got[1] == pytest.approx(0.7, abs=0.01)


def test_limit_point_set_single_class_for_generic_orbit():
    fs = FullShift(2)
    fam = TestFamily((CylinderIndicator((0,)),))
    classes = limit_point_set(fs, Point(SeededIID(4, (0.5, 0.5))), fam,
                              Schedule.geometric(1000, 64000), tol=0.05)
    assert len(classes) == 1
    assert classes[0].integrals[0] == pytest.approx(0.5, abs=0.05)


def test_limit_classes_of_a_kept_profile_match_limit_point_set():
    fs = FullShift(2)
    rec = irregular_point(fs, 0, 0.3, 0.7, ratio=4)
    fam = TestFamily.default_for(fs, depth=2)
    sched = rec.schedule()
    kept = classify_generic(fs, rec.point, Bernoulli((0.5, 0.5)), fam, sched,
                            keep_profile=True).profile
    assert _limit_classes(kept, sched.checkpoints, fam.weights(), 0.05) == \
        limit_point_set(fs, rec.point, fam, sched, tol=0.05)


# ---------------------------------------------------------------------------
# suspension readers against the per-checkpoint and per-step references


def flow_average_reference(flow, x, phi, T):
    """Flow average rebuilt from time 0 for one T, segment by segment."""
    if isinstance(phi, Constant):
        return phi.value
    roof = flow.roof
    u0 = x.fiber if x.fiber is not None else 0.0
    count = int(T / roof.roof_min) + 3
    roofs = roof.values_along(np.asarray(x.prefix(count + roof.depth)), count)
    if u0 < 0 or u0 >= roofs[0]:
        raise ValueError("fiber coordinate out of range")
    starts = np.zeros(count)
    starts[0] = u0
    lengths = roofs - starts
    ends = np.cumsum(lengths)
    last = int(np.searchsorted(ends, T, side="left"))
    base_phi = phi.base if isinstance(phi, FiberProfile) else phi
    if isinstance(base_phi, Constant):
        base_vals = np.full(last + 1, base_phi.value)
    else:
        word = base_phi.word
        if base_phi.component is not None and x.component != base_phi.component:
            return 0.0
        arr = np.asarray(x.prefix(last + 1 + len(word)))
        idx = np.arange(last + 1)
        hit = arr[idx] == word[0]
        for i, s in enumerate(word[1:], start=1):
            hit = hit & (arr[idx + i] == s)
        base_vals = hit.astype(float)
    seg_lo = starts[:last + 1].copy()
    seg_hi = roofs[:last + 1].copy()
    seg_hi[last] = seg_lo[last] + (T - (ends[last] - lengths[last]))
    if isinstance(phi, FiberProfile):
        vals = np.empty(last + 1)
        if last > 1:
            uniq, inv = np.unique(seg_hi[1:last], return_inverse=True)
            vals[1:last] = np.array([phi.profile_integral(0.0, h) for h in uniq])[inv]
        vals[0] = phi.profile_integral(seg_lo[0], seg_hi[0])
        if last > 0:
            vals[last] = phi.profile_integral(seg_lo[last], seg_hi[last])
        return float(np.dot(base_vals, vals)) / T
    return float(np.dot(base_vals, seg_hi - seg_lo)) / T


def map_steps_reference(tmap, x, n):
    """idx[j]: the base cell read at map step j, one float test per step
    under a constant roof; a word-dependent roof is read by `map_steps_exact`."""
    roof = tmap.flow.roof
    if roof.depth:
        return map_steps_exact(tmap, x, n)
    f0 = x.fiber if x.fiber is not None else 0.0
    times = f0 + tmap.t * np.arange(n, dtype=float)
    return np.floor(times / roof.roof_max + 1e-12).astype(np.int64)


def map_steps_exact(tmap, x, n):
    """idx[j]: the base cell read at map step j, in rational arithmetic on
    the short decimals that t, the fiber and each roof value print as: the
    last cell entered by time f + t*j, its entry the sum of the roofs before it."""
    roof = tmap.flow.roof
    f0 = x.fiber if x.fiber is not None else 0.0
    f, t = Fraction(repr(f0)), Fraction(repr(tmap.t))
    if roof.depth == 0:
        c = Fraction(repr(roof.table[0]))
        return np.array([(f + t * j) // c for j in range(n)], dtype=np.int64)
    count = int((f0 + tmap.t * n) / roof.roof_min) + 2
    vals = roof.values_along(np.asarray(x.prefix(count + roof.depth)), count).tolist()
    exact = {v: Fraction(repr(v)) for v in set(vals)}
    entries, idx, time = [Fraction(0)], [], f
    for _ in range(n):
        while entries[-1] <= time:
            entries.append(entries[-1] + exact[vals[len(entries) - 1]])
        idx.append(len(entries) - 2)
        time += t
    return np.array(idx, dtype=np.int64)


def assert_cells_match(cells, idx):
    """The cells of a `_map_chart` read against the cell read at each step."""
    n, held = len(idx), np.bincount(idx)
    L = len(held) - 1
    assert cells.cell(n - 1) == L and [cells.cell(j) for j in range(n)] == idx.tolist()
    assert cells.first(0) == 0 and cells.first(L + 1) >= n
    if L > 0:
        assert cells.first(1) == held[0]
        assert cells.steps(1, L).tolist() == held[1:L].tolist()
    assert n - cells.first(L) == held[L]


def map_profile_reference(tmap, x, phi, cps, steps=map_steps_reference):
    """Running map averages from a per-step gather of the base symbols."""
    if isinstance(phi, Constant):
        return np.full(len(cps), phi.value)
    word = phi.word
    if phi.component is not None and x.component != phi.component:
        return np.zeros(len(cps))
    idx = steps(tmap, x, cps[-1])
    arr = np.asarray(x.prefix(int(idx[-1]) + len(word) + 1))
    hit = arr[idx] == word[0]
    for i, s in enumerate(word[1:], start=1):
        hit = hit & (arr[idx + i] == s)
    cs = np.cumsum(hit, dtype=float)
    return np.array([cs[n - 1] / n for n in cps])


ROOFS = [RoofFunction.constant(v) for v in (1.0, 2.0, 0.75, 3.0)] + [
    RoofFunction(1, (1.0, 2.0), 2), RoofFunction(2, (0.7, 1.3, 1.1, 0.45), 2),
]
POINTS = {
    "iid": Point(SeededIID(5, (0.5, 0.5))),
    "steered": irregular_point(FullShift(2), 0, 0.2, 0.65, first_block=8, ratio=4,
                               horizon=1 << 14).point,
}
TENT = ((0.0, 0.0), (0.3, 1.0), (0.5, 0.25), (2.0, 0.5))
OBSERVABLES = [
    CylinderIndicator((1,)), CylinderIndicator((1, 0, 1)), Constant(0.75),
    FiberProfile(CylinderIndicator((0,)), TENT), FiberProfile(Constant(2.0), TENT),
]


def _grid_id(roof):
    return f"constant-{roof.table[0]}" if roof.depth == 0 else f"word-{roof.table}"


@pytest.mark.parametrize("roof", ROOFS, ids=_grid_id)
@pytest.mark.parametrize("fiber", [0.0, 0.1])
@pytest.mark.parametrize("point", sorted(POINTS))
def test_flow_profile_matches_per_checkpoint_reference(roof, fiber, point):
    flow = Suspension(FullShift(2), roof)
    x = POINTS[point].with_fiber(fiber)
    # block ends of the steered point and times off them
    sched = Schedule((0.05, 1.0, 7.3, 40.0, 168.0, 680.0, 1000.5, 2728.0, 6000.25))
    for phi in OBSERVABLES:
        got = flow_average_profile(flow, x, phi, sched)
        want = [flow_average_reference(flow, x, phi, T) for T in sched.checkpoints]
        # identical under constant roofs; fiber profiles and word-dependent
        # roofs add their cell masses in another order
        if roof.depth == 0 and not isinstance(phi, FiberProfile):
            assert list(got) == want, phi
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15, err_msg=repr(phi))
        assert birkhoff_average_flow(flow, x, phi, 680.0) == got[5]


@pytest.mark.parametrize("roof", ROOFS, ids=_grid_id)
@pytest.mark.parametrize("t", [1.0, 0.5, 0.3, 2.0])
@pytest.mark.parametrize("fiber", [0.0, 0.1])
@pytest.mark.parametrize("point", sorted(POINTS))
def test_time_t_map_profile_matches_per_step_reference(roof, t, fiber, point):
    tmap = TimeTMap(Suspension(FullShift(2), roof), t)
    x = POINTS[point].with_fiber(fiber)
    cps = (1, 2, 7, 40, 168, 680, 1001, 2728, 6000)
    n = cps[-1]
    idx = map_steps_exact(tmap, x, n)
    assert_cells_match(_map_chart(tmap, x, n), idx)
    if roof.depth == 0:
        assert idx.tolist() == map_steps_reference(tmap, x, n).tolist()
    for phi in OBSERVABLES[:3]:
        got = birkhoff_profile(tmap, x, phi, Schedule(cps))
        assert got.tolist() == \
            map_profile_reference(tmap, x, phi, cps, lambda *_: idx).tolist(), phi


def test_flow_profile_matches_exact_rational_arithmetic():
    """Cell entries i*c are not summed one roof at a time, so a roof like 0.3
    gathers no rounding drift over long horizons."""
    flow = Suspension(FullShift(2), RoofFunction.constant(0.3))
    rule = irregular_point(FullShift(2), 1, 0.3, 0.7, first_block=8, ratio=4, horizon=1 << 16)
    x = rule.point.with_fiber(0.002316833146874575)
    phi = CylinderIndicator((1, 0, 1))
    sched = Schedule((195.01636526085784, 843.283529251529, 1973.8258709057714))
    arr = x.prefix(7000).tolist()
    c, f0 = Fraction(0.3), Fraction(x.fiber)
    for T, got in zip(sched.checkpoints, flow_average_profile(flow, x, phi, sched)):
        top, total, i = f0 + Fraction(T), Fraction(0), 0
        while True:
            if arr[i:i + 3] == [1, 0, 1]:
                total += min((i + 1) * c, top) - (f0 if i == 0 else i * c)
            if (i + 1) * c >= top:
                break
            i += 1
        assert got == pytest.approx(float(total / Fraction(T)), rel=2e-15, abs=0.0)


@pytest.mark.parametrize("fiber", [0.0, 0.1, 0.2])
@pytest.mark.parametrize("roof", [RoofFunction.constant(c) for c in (0.3, 0.7, 0.75, 1.1)]
                         + [RoofFunction(1, (0.7, 1.3), 2)], ids=_grid_id)
def test_a_flow_checkpoint_on_a_cell_top_ends_in_that_cell(roof, fiber):
    """A checkpoint T with f + T exactly the top of cell m, in the decimals
    that f, T and the roof values print as, ends in cell m: the cell whose
    top first reaches f + T, read from the `Fraction` sums of the roofs."""
    flow, count = Suspension(FullShift(2), roof), 120
    x = Point(SeededIID(11, (0.5, 0.5)), fiber=fiber)
    vals = roof.values_along(np.asarray(x.prefix(count + roof.depth)), count).tolist()
    tops = np.cumsum([Fraction(repr(v)) for v in vals]) - Fraction(repr(fiber))
    cps = tuple(float(top) for top in tops)
    assert [Fraction(repr(T)) for T in cps] == tops.tolist()
    assert list(flow.cell_plan(x, cps).ends) == list(range(count))


def test_a_checkpoint_a_rounding_past_a_cell_top_reads_an_empty_last_cell():
    """In decimals f0 + T is 4.200000000000000058, just past the top 14 * 0.3
    of cell 13, so it ends in cell 14; the float sum f0 + T lies below the
    float 14 * 0.3, and a fiber profile must still read that cell as empty."""
    flow = Suspension(FullShift(2), RoofFunction.constant(0.3))
    x = Point(SeededIID(11, (0.5, 0.5)), fiber=0.010531594784353058)
    T = 4.189468405215647
    assert flow.cell_plan(x, (T,)).ends == [14]
    phi = FiberProfile(Constant(1.0), ((0.0, 0.0), (0.15, 1.0), (0.3, 0.0)))
    assert flow_average_profile(flow, x, phi, Schedule((T,)))[0] == \
        pytest.approx(flow_average_reference(flow, x, phi, T), rel=1e-12)


def test_suspension_readers_respect_the_component():
    union = DisjointUnion(FullShift(2), FullShift(2))
    flow = Suspension(union, RoofFunction.constant(0.75))
    x = Point(SeededIID(5, (0.5, 0.5)), component=1, fiber=0.1)
    sched = Schedule((3.0, 30.0, 300.0))
    for phi in (CylinderIndicator((0,), component=0), CylinderIndicator((1, 1), component=0)):
        assert flow_average_profile(flow, x, phi, sched).tolist() == [0.0] * 3
        assert birkhoff_profile(TimeTMap(flow, 0.3), x, phi, Schedule((3, 30, 300))).tolist() == [0.0] * 3
    own = CylinderIndicator((0,), component=1)
    np.testing.assert_allclose(
        flow_average_profile(flow, x, own, sched),
        [flow_average_reference(flow, x, own, T) for T in sched.checkpoints], rtol=1e-12)
    assert birkhoff_profile(TimeTMap(flow, 0.3), x, own, Schedule((3, 30, 300))).tolist() == \
        map_profile_reference(TimeTMap(flow, 0.3), x, own, (3, 30, 300)).tolist()


@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("fiber", [1.0, 5.0])
def test_fiber_outside_the_roof_is_refused_on_both_paths(fiber, point):
    flow = Suspension(FullShift(2), RoofFunction.constant(1.0))
    x = POINTS[point].with_fiber(fiber)
    with pytest.raises(ValueError, match="fiber coordinate"):
        flow_average_profile(flow, x, CylinderIndicator((0,)), Schedule((10.0,)))
    with pytest.raises(ValueError, match="fiber coordinate"):
        birkhoff_profile(TimeTMap(flow, 1.0), x, CylinderIndicator((0,)), Schedule((10,)))


@pytest.mark.parametrize("point", sorted(POINTS))
def test_time_t_map_of_a_suspension_refuses_negative_t(point):
    with pytest.raises(ValueError, match="needs t > 0"):     # refused when it is built
        tmap = TimeTMap(Suspension(FullShift(2), RoofFunction.constant(1.0)), -1.0)
        birkhoff_profile(tmap, POINTS[point].with_fiber(0.0), CylinderIndicator((0,)),
                         Schedule((10,)))


def test_family_profiles_on_a_time_t_map_match_the_single_profiles():
    tmap = TimeTMap(Suspension(FullShift(2), RoofFunction(1, (1.0, 2.0), 2)), 0.3)
    x = POINTS["steered"].with_fiber(0.1)
    fam = TestFamily.default_for(FullShift(2), depth=3)
    sched = Schedule((7, 168, 1001, 2728))
    mu = Bernoulli((0.5, 0.5))
    A = classify_generic(tmap, x, mu, fam, sched, keep_profile=True).profile
    for i, phi in enumerate(fam.observables):
        want = map_profile_reference(tmap, x, phi, sched.checkpoints)
        assert [row[i] for row in A] == want.tolist(), phi


@pytest.mark.parametrize("roof", [1.0, 2.0, 0.3])
@pytest.mark.parametrize("t", [1.0, 0.7])
@pytest.mark.parametrize("order", ["short-first", "long-first"])
def test_one_time_t_map_shares_its_cell_grid_across_points_and_lengths(roof, t, order):
    flow = Suspension(FullShift(2), RoofFunction.constant(roof))
    shared = TimeTMap(flow, t)
    reads = [(point, fiber, n) for point in sorted(POINTS) for fiber in (0.0, 0.1)
             for n in (700, 6000)]
    if order == "long-first":
        reads.reverse()
    for point, fiber, n in reads:
        x = POINTS[point].with_fiber(fiber)
        idx = map_steps_reference(shared, x, n)
        got, want = _map_chart(shared, x, n), _map_chart(TimeTMap(flow, t), x, n)
        got_arr, want_arr = x.prefix(got.cell(n - 1) + 2), x.prefix(want.cell(n - 1) + 2)
        assert got == want and np.array_equal(got_arr, want_arr)
        assert_cells_match(got, idx)
        cps = (7, n // 3, n)
        for phi in OBSERVABLES[:3]:
            assert birkhoff_profile(shared, x, phi, Schedule(cps)).tolist() == \
                map_profile_reference(shared, x, phi, cps).tolist(), phi
    # the grid is the chart of (fiber, t, roof): every point and every length
    # read through any map with those numbers gets the same one
    fiber = reads[-1][1]
    chart = _map_chart(shared, POINTS["iid"].with_fiber(fiber), 300)
    for point in sorted(POINTS):
        assert _map_chart(TimeTMap(flow, t), POINTS[point].with_fiber(fiber), 9000) is chart
    assert shared == TimeTMap(flow, t) and hash(shared) == hash(TimeTMap(flow, t))


def test_the_shared_cell_grid_is_read_only():
    tmap = TimeTMap(Suspension(FullShift(2), RoofFunction.constant(2.0)), 1.0)
    x = POINTS["iid"].with_fiber(0.0)
    chart = _map_chart(tmap, x, 5000)
    with pytest.raises(AttributeError):
        chart.f = 7
    again = _map_chart(tmap, x, 100)
    assert again == chart and again.steps(1, 60).tolist() == [2] * 59
    assert [again.first(i) for i in range(60)] == [2 * i for i in range(60)]


@st.composite
def short_decimals(draw):
    """(t, c, f0) that print as short decimals (c with at most 3 places, t and
    f0 with at most 5), with t/c at most 5 (at most 5 * 10^4 cells in 10^4
    steps) and f0 < c."""
    i, p = draw(st.integers(1, 999)), draw(st.integers(0, 3))
    j, q = draw(st.integers(1, 50)), draw(st.integers(1, 2))
    c, t = float(f"{i}e-{p}"), float(f"{i * j}e-{p + q}")
    f0 = float(f"{draw(st.integers(0, 999))}e-{draw(st.integers(0, 5))}")
    return t, c, f0 if f0 < c else 0.0


@given(tcf=short_decimals(), point=st.sampled_from(sorted(POINTS)))
@settings(deadline=None, max_examples=30)
def test_time_t_map_cells_match_exact_arithmetic_on_short_decimals(tcf, point):
    t, c, f0 = tcf
    tmap = TimeTMap(Suspension(FullShift(2), RoofFunction.constant(c)), t)
    x = POINTS[point].with_fiber(f0)
    n = 10_000
    idx = map_steps_exact(tmap, x, n)
    assert_cells_match(_map_chart(tmap, x, n), idx)
    cps = (1, 7, 1001, n)
    for phi in OBSERVABLES[:3]:
        assert birkhoff_profile(tmap, x, phi, Schedule(cps)).tolist() == \
            map_profile_reference(tmap, x, phi, cps, lambda *_: idx).tolist(), phi


def short_decimal(places):
    """Positive floats of at most 3 significant digits and `places` decimals."""
    return st.builds(lambda i, p: float(f"{i}e-{p}"), st.integers(1, 999), st.integers(0, places))


@given(data=st.data(), word=st.booleans(), point=st.sampled_from(sorted(POINTS)))
@settings(deadline=None, max_examples=80)
def test_time_t_map_lands_where_the_chart_reads_step_one(data, word, point):
    """Both roof kinds: `time_t_map` moves to the cell that step 1 of the time-t
    chart reads, and its fiber is the exact remainder, rounded once."""
    table = tuple(data.draw(st.lists(short_decimal(3), min_size=2 if word else 1,
                                     max_size=2 if word else 1)))
    roof = RoofFunction(1, table, 2) if word else RoofFunction.constant(table[0])
    t = data.draw(short_decimal(5))
    assume(not word or t <= 100 * roof.roof_min)
    f0 = data.draw(st.one_of(st.just(0.0), short_decimal(5)))
    x = POINTS[point].with_fiber(f0 if f0 < roof.value_at(POINTS[point]) else 0.0)
    flow = Suspension(FullShift(2), roof)
    rest, cell = Fraction(repr(x.fiber)) + Fraction(repr(t)), 0
    count = int((x.fiber + t) / roof.roof_min) + 2
    vals = roof.values_along(np.asarray(x.prefix(count + 1)), count)
    if word:
        while rest >= Fraction(repr(float(vals[cell]))):
            rest, cell = rest - Fraction(repr(float(vals[cell]))), cell + 1
    else:
        cell = int(rest // Fraction(repr(table[0])))
        rest -= cell * Fraction(repr(table[0]))
    y = time_t_map(flow, t, x)
    assert (y.rule, y.offset, y.component, y.fiber) == (x.rule, cell, None, float(rest))
    assert _map_chart(TimeTMap(flow, t), x, 2).cell(1) == cell


def test_time_t_map_and_the_map_readers_agree_on_an_exact_tie():
    """0.7 + 0.2 is 0.9 exactly: after time 0.2 the point has reached the roof
    0.9 and sits at the bottom of cell 1, under either roof kind."""
    flow = Suspension(FullShift(2), RoofFunction.constant(0.9))
    x = Point(ExplicitWord((0, 1)), fiber=0.7)
    tmap, phi = TimeTMap(flow, 0.2), CylinderIndicator((0,))
    assert birkhoff_average_map(tmap, x, phi, 2) == naive_average(tmap, x, phi, 2) == 0.5
    assert time_t_map(flow, 0.2, x) == Point(x.rule, 1, None, 0.0)
    assert integrate(pushforward(flow, 0.2, Atomic((x,), (1.0,))), phi) == 0.0
    word = Suspension(FullShift(2), RoofFunction(1, (0.9, 0.3), 2))
    assert _map_chart(TimeTMap(word, 0.2), x, 2).cell(1) == 1
    assert time_t_map(word, 0.2, x) == Point(x.rule, 1, None, 0.0)


@pytest.mark.parametrize("t", [0.7, 0.3, 1.0, 2.5])
@pytest.mark.parametrize("fiber", [0.0, 0.1, 0.25])
def test_a_word_roof_that_is_constant_along_the_orbit_reads_the_constant_cells(t, fiber):
    """Over the all-ones point the word roof (0.45, 0.3) is the constant 0.3."""
    x = Point(ExplicitWord((1,)), fiber=fiber)
    constant = Suspension(FullShift(2), RoofFunction.constant(0.3))
    word = Suspension(FullShift(2), RoofFunction(1, (0.45, 0.3), 2))
    n = 5000
    want = _map_chart(TimeTMap(constant, t), x, n)
    got = _map_chart(TimeTMap(word, t), x, n)
    assert [got.cell(j) for j in range(n)] == [want.cell(j) for j in range(n)]
    assert [got.first(i) for i in range(want.cell(n - 1) + 1)] == \
        [want.first(i) for i in range(want.cell(n - 1) + 1)]
    for s in (t, 10 * t, 0.05):
        assert time_t_map(word, s, x) == time_t_map(constant, s, x)


def test_a_tiny_time_reads_every_step_in_cell_0():
    """t = 1e-17 puts the step count that leaves cell 0 past 2^53; the chart
    counts it in integers, so the read returns."""
    flow = Suspension(FullShift(2), RoofFunction(1, (1.0, 2.0), 2))
    x = Point(ExplicitWord((0, 1)), fiber=0.0)
    sched = Schedule.for_map()
    assert birkhoff_profile(TimeTMap(flow, 1e-17), x, CylinderIndicator((0,)), sched).tolist() == \
        [1.0] * len(sched.checkpoints)
    assert time_t_map(flow, 5e-324, x) == x.with_fiber(5e-324)


def test_time_t_map_cells_under_a_non_dyadic_roof_are_exact_far_out():
    """t = 0.7 over the roof 0.3: the step i*3/7 lands exactly on an entry
    whenever 7 divides i, and cell i is first read at step ceil(3i/7)."""
    tmap = TimeTMap(Suspension(FullShift(2), RoofFunction.constant(0.3)), 0.7)
    n = 2_000_000
    chart = _map_chart(tmap, POINTS["iid"].with_fiber(0.0), n)
    L = chart.cell(n - 1)
    assert L == 7 * (n - 1) // 3 and chart.first(1) == 1
    for lo in range(1, L + 1, 1 << 16):
        hi = min(lo + (1 << 16), L + 1)
        i = np.arange(lo, hi + 1, dtype=np.int64)
        assert np.array_equal(chart.steps(lo, hi), np.diff(-((-3 * i) // 7))), lo
    assert [chart.first(i) for i in (23_904, 23_905, 23_906)] == [10_245, 10_245, 10_246]


def test_a_long_decimal_fiber_reads_through_python_integers():
    tmap = TimeTMap(Suspension(FullShift(2), RoofFunction.constant(0.3)), 0.7)
    x = POINTS["steered"].with_fiber(0.002316833146874575)
    n = 10_000
    chart = _map_chart(tmap, x, n)
    # a denominator of 10^18: chunks pass the int64 bound, and the steps the int64 range
    assert chart.cc >= 1 << 46 and chart.f + n * chart.tt >= 1 << 63
    idx = map_steps_exact(tmap, x, n)
    assert_cells_match(chart, idx)
    cps = (1, 7, 1001, n)
    for phi in OBSERVABLES[:3]:
        assert birkhoff_profile(tmap, x, phi, Schedule(cps)).tolist() == \
            map_profile_reference(tmap, x, phi, cps, lambda *_: idx).tolist(), phi


def test_precomputed_targets_give_the_same_verdicts():
    tmap = TimeTMap(Suspension(FullShift(2), RoofFunction.constant(2.0)), 1.0)
    fam = TestFamily.default_for(FullShift(2), depth=3)
    mu = time_average_measure(tmap.flow, Bernoulli((0.5, 0.5)), 16)
    targets = family_targets(mu, fam)
    sched = Schedule((4096, 8192, 16384))
    points = [Point(SeededIID(1, (0.5, 0.5))), POINTS["steered"], Point(SeededIID(9, (0.8, 0.2)))]
    labels = set()
    for base in points:
        x = base.with_fiber(0.0)
        for system, schedule in ((tmap, sched), (tmap.flow, Schedule((4096.0, 8192.0, 16384.0)))):
            plain = classify_generic(system, x, mu, fam, schedule, keep_profile=True)
            given = classify_generic(system, x, mu, fam, schedule, keep_profile=True,
                                     targets=targets)
            assert given == plain
            labels.add(plain.label)
    assert {"Generic", "NotGeneric"} <= labels


FLOW_FAMILIES = {
    "default": lambda flow: TestFamily.default_for(flow, depth=3),   # cylinders and the hat
    "observables": lambda flow: TestFamily(tuple(OBSERVABLES)),
}


@pytest.mark.parametrize("roof", ROOFS, ids=_grid_id)
@pytest.mark.parametrize("fiber", [0.0, 0.1])
@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("family", sorted(FLOW_FAMILIES))
def test_flow_family_profiles_match_the_single_profiles(roof, fiber, point, family):
    flow = Suspension(FullShift(2), roof)
    x = POINTS[point].with_fiber(fiber)
    fam = FLOW_FAMILIES[family](flow)
    sched = Schedule((0.05, 1.0, 7.3, 40.0, 168.0, 680.0, 1000.5, 2728.0, 6000.25))
    # the verdict is not under test: zero targets skip integrating a measure
    A = classify_generic(flow, x, None, fam, sched, keep_profile=True,
                         targets=np.zeros(len(fam.observables))).profile
    for i, phi in enumerate(fam.observables):
        want = flow_average_profile(flow, x, phi, sched)
        assert np.array([row[i] for row in A]).tobytes() == want.tobytes(), phi


def test_a_flow_family_reads_the_symbol_stream_once(monkeypatch):
    flow = Suspension(FullShift(2), RoofFunction.constant(1.0))
    fam = TestFamily.default_for(FullShift(2), depth=3)
    assert len(fam.observables) == 14
    calls = []
    original = Point.prefix

    def counted(self, n):
        calls.append(n)
        return original(self, n)

    monkeypatch.setattr(Point, "prefix", counted)
    classify_generic(flow, POINTS["iid"].with_fiber(0.0), None, fam,
                     Schedule((1000.0, 2000.0, 4000.0)), targets=np.zeros(14))
    assert 1 <= len(calls) <= 2


# ---------------------------------------------------------------------------
# the flow tail of a read: cell 0, the full cells and the partial last cell


def reference_flow_averages(words, full, hit0, hit_last, Ts, plan):
    """The per-(point, word, checkpoint) loop that `birkhoff._flow_averages` replaced."""
    ends, f0, roof0, entry, classes = plan.ends, plan.f0, plan.roof0, plan.entry, plan.classes
    taus = [f0 + T for T in Ts]
    out = np.empty((len(full), len(Ts), len(words)))
    for p in range(len(full)):
        for j, (_, _, scale, mass, _) in enumerate(words):
            masses = np.array([mass(0.0, v) for v in classes])
            for ci, (T, tau, L) in enumerate(zip(Ts, taus, ends)):
                if L == 0:
                    total = hit0[p, 0, j] * mass(f0, tau)
                else:
                    total = (hit0[p, 0, j] * mass(f0, roof0) + float(np.dot(full[p, ci, j], masses))
                             + hit_last[p, ci, j] * mass(0.0, tau - entry[ci]))
                out[p, ci, j] = scale * total / T
    return out


TAIL_ROOFS = [RoofFunction.constant(v) for v in (1.0, 2.0, 0.75, 0.3)] + [
    RoofFunction(2, (0.7, 1.3, 1.1, 0.45), 2),
]
TAIL_OBSERVABLES = TestFamily.default_for(FullShift(2), depth=3).observables + (
    CylinderIndicator((0,)), FiberProfile(CylinderIndicator((1,)), TENT),
)


def ulps_apart(a, b):
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


@pytest.mark.parametrize("roof", TAIL_ROOFS, ids=_grid_id)
@pytest.mark.parametrize("fiber", ["0", "0.1", "half-roof"])
@pytest.mark.parametrize("point", sorted(POINTS))
def test_flow_averages_match_the_per_checkpoint_loop(roof, fiber, point, monkeypatch):
    flow = Suspension(FullShift(2), roof)
    f0 = {"0": 0.0, "0.1": 0.1, "half-roof": roof.roof_min / 2}[fiber]
    x = POINTS[point].with_fiber(f0)
    # the first checkpoints end inside cell 0 (L == 0), the others past it
    sched = Schedule((0.05, 0.1, 1.0, 7.3, 40.0, 168.0, 1000.5, 2728.0, 6000.25))
    got = _profiles(flow, (x,), TAIL_OBSERVABLES, sched)[0]
    monkeypatch.setattr(birkhoff, "_flow_averages", reference_flow_averages)
    want = _profiles(flow, (x,), TAIL_OBSERVABLES, sched)[0]
    if roof.depth == 0:
        assert got.tobytes() == want.tobytes()
    else:   # the sum over roof classes may round in another order
        assert ulps_apart(got, want).max() <= 4
    # the time-1 map reads the same columns alone as within the family
    tmap, cps = TimeTMap(flow, 1.0), Schedule((1, 7, 40, 168, 1001, 2728, 6000))
    shared = _profiles(tmap, (x,), TAIL_OBSERVABLES[:-1], cps)[0]
    for i, phi in enumerate(TAIL_OBSERVABLES[:-1]):
        assert shared[:, i].tobytes() == birkhoff_profile(tmap, x, phi, cps).tobytes(), phi


# ---------------------------------------------------------------------------
# depth-1 reads of steered points count from the recipe


def steered_case(k, symbol):
    """A steered point and an `ExplicitWord` of a prefix of its stream long
    enough for every read below, so the word reads through the chunked path."""
    rec = irregular_point(FullShift(k), symbol, 0.3, 0.6, horizon=1 << 12)
    twin = SteeredBlocks(k, symbol, rec.block_ends, rec.targets)
    return rec, ExplicitWord(tuple(twin.materialise(1 << 16).tolist()))


def steered_systems(k):
    """name -> (system over the k-symbol shift, whether a depth-1 read of a
    steered point counts from the recipe rather than building its stream)."""
    shift = FullShift(k)
    out = {"shift": (shift, True)}
    for c in (1.0, 2.0, 0.75):
        out[f"flow-{c}"] = (Suspension(shift, RoofFunction.constant(c)), True)
        for t in (1.0, 0.25, 0.3):     # counted where t divides the roof
            tmap = TimeTMap(Suspension(shift, RoofFunction.constant(c)), t)
            out[f"time-{t}-roof-{c}"] = (tmap, (c / t).is_integer())
    return out


@pytest.mark.parametrize("offset", [0, 3])
@pytest.mark.parametrize("k, symbol", [(2, 0), (2, 1), (3, 2)])
@pytest.mark.parametrize("name", sorted(steered_systems(2)))
def test_steered_profiles_are_those_of_the_chunked_path(name, k, symbol, offset):
    system, counted = steered_systems(k)[name]
    rec, word = steered_case(k, symbol)
    fiber = None if system.symbolic else 0.0
    x = Point(rec.point.rule, offset, fiber=fiber)
    ref = Point(word, offset, fiber=fiber)
    obs = [CylinderIndicator((s,)) for s in range(k)] + [Constant(0.75)]
    if system.is_flow:
        obs.append(FiberProfile(CylinderIndicator((symbol,)), TENT))
    cps = rec.block_ends + (12_000, 20_001)    # the last two where the last block repeats
    sched = Schedule(tuple(float(e) for e in cps)) if system.is_flow else Schedule(cps)
    fam = TestFamily(tuple(obs))
    got = classify_generic(system, x, None, fam, sched, keep_profile=True,
                           targets=np.zeros(len(obs))).profile
    want = classify_generic(system, ref, None, fam, sched, keep_profile=True,
                            targets=np.zeros(len(obs))).profile
    assert np.array(got).tobytes() == np.array(want).tobytes()
    phi = CylinderIndicator((symbol,))
    got, want = (classify_irregular(system, p, phi, sched, keep_profile=True) for p in (x, ref))
    assert (got.label, got.gap, np.array(got.profile).tobytes()) == \
        (want.label, want.gap, np.array(want.profile).tobytes())
    assert ("arr" not in x.rule._buf) == counted


@pytest.mark.parametrize("system", [
    Suspension(FullShift(2), RoofFunction.constant(1.0)),
    TimeTMap(Suspension(FullShift(2), RoofFunction.constant(1.0)), 1.0),
], ids=["unit-roof-flow", "time-1-map"])
def test_an_irregular_read_of_a_default_steered_point_builds_no_long_stream(system):
    rec = irregular_point(FullShift(2), 0, 0.3, 0.7)
    assert rec.block_ends[-1] > 1 << 21
    sched = rec.schedule()
    if not system.is_flow:
        sched = Schedule(tuple(int(c) for c in sched.checkpoints))
    verdict = classify_irregular(system, rec.point.with_fiber(0.0), CylinderIndicator((0,)), sched)
    assert verdict.label == "Irregular"
    held = [a for v in rec.point.rule._buf.values()
            for a in (v if isinstance(v, tuple) else (v,))]
    assert max(np.size(a) for a in held) <= 1 << 16


# ---------------------------------------------------------------------------
# a batch of points reads as its points one by one


@functools.lru_cache(maxsize=None)
def batch_family(space, depth):
    """The default cylinders of a base shift (union sides tagged) with a
    constant and a symbol frequency; a flow adds fiber-graded observables."""
    base = space.flow.base if isinstance(space, TimeTMap) else getattr(space, "base", space)
    obs = TestFamily.default_for(base, depth=depth).observables + (
        Constant(0.75), CylinderIndicator((0,)))
    if space.is_flow:
        obs += (FiberProfile(CylinderIndicator((1,)), TENT), FiberProfile(Constant(2.0), TENT))
    return obs


@st.composite
def batch_rules(draw, k):
    """Rules over k symbols: seeded, periodic, block and steered streams."""
    kind = draw(st.sampled_from(["iid", "word", "blocks", "steered"]))
    symbols = st.integers(0, k - 1)
    if kind == "iid":
        return SeededIID(draw(st.integers(0, 99)), tuple([1.0 / k] * k))
    if kind == "word":
        return ExplicitWord(tuple(draw(st.lists(symbols, min_size=1, max_size=7))))
    if kind == "blocks":
        return BlockSchedule(tuple(draw(st.lists(
            st.tuples(st.lists(symbols, min_size=1, max_size=4).map(tuple), st.integers(1, 40)),
            min_size=1, max_size=4))))
    ends = tuple(8 << i for i in range(draw(st.integers(1, 11))))    # feasible: the block doubles
    return SteeredBlocks(k, draw(symbols), ends, tuple((0.3, 0.6)[i % 2] for i in range(len(ends))))


SHIFT_SYSTEMS = ["shift-2", "shift-3", "union"]
ROOF_SYSTEMS = ["flow", "time-t"]


@given(data=st.data(), kind=st.sampled_from(SHIFT_SYSTEMS + ROOF_SYSTEMS),
       roof=st.sampled_from([RoofFunction.constant(c) for c in (1.0, 2.0, 0.75)]
                            + [RoofFunction(1, (1.0, 2.0), 2)]),
       t=st.sampled_from([1.0, 0.25, 0.3]), depth=st.integers(1, 4),
       shared_fiber=st.booleans(), chunk=st.sampled_from([birkhoff._CELL_CHUNK, 700, 64]))
@settings(max_examples=60, deadline=None)
def test_a_batch_reads_bit_for_bit_as_its_points_one_by_one(data, kind, roof, t, depth,
                                                            shared_fiber, chunk):
    k = 3 if kind == "shift-3" else 2
    if kind in ROOF_SYSTEMS:
        flow = Suspension(FullShift(2), roof)
        system = flow if kind == "flow" else TimeTMap(flow, t)
    else:
        system = {"shift-2": FullShift(2), "shift-3": FullShift(3),
                  "union": DisjointUnion(FullShift(2), FullShift(3))}[kind]
    depth = min(depth, 3) if k == 3 or kind == "union" else depth
    n = data.draw(st.integers(1, 30), label="points")
    points = []
    for _ in range(n):
        comp = data.draw(st.sampled_from([0, 1, None])) if kind == "union" else None
        rule = data.draw(batch_rules(3 if comp == 1 else k))
        offset = data.draw(st.integers(0, 12))
        fiber = None
        if kind in ROOF_SYSTEMS:
            fiber = 0.1 if shared_fiber else data.draw(st.sampled_from([0.0, 0.1, 0.55]))
        points.append(Point(rule, offset, comp, fiber))
    last = data.draw(st.integers(2, 3000), label="horizon")
    cps = sorted({max(1, last >> i) for i in range(data.draw(st.integers(1, 5)))})
    sched = Schedule(tuple(float(c) for c in cps) if system.is_flow else tuple(cps))
    obs = batch_family(system, depth)
    # a long read crosses steps; a small chunk splits the batch into many groups
    with mock.patch.object(birkhoff, "_CELL_CHUNK", chunk):
        batch = _profiles(system, iter(points), obs, sched)
    single = np.stack([_profiles(system, (x,), obs, sched)[0] for x in points])
    assert batch.shape == (n, len(cps), len(obs))
    assert batch.tobytes() == single.tobytes()


def test_a_batch_larger_than_one_step_reads_as_its_points():
    """60 points of 2,000 cells stack more symbols than one `_CELL_CHUNK` step
    covers, so the batch is read in groups; a depth-1 read of a steered point
    among them counts from its recipe."""
    flow = Suspension(FullShift(2), RoofFunction.constant(2.0))
    steered = irregular_point(FullShift(2), 1, 0.3, 0.6, first_block=8, horizon=1 << 13).point
    points = [Point(SeededIID(i, (0.5, 0.5)), i % 3, fiber=0.0) for i in range(59)]
    points.insert(30, steered.with_fiber(0.0))
    assert 60 * 2000 > birkhoff._CELL_CHUNK
    for depth in (1, 4):
        for system, sched in ((flow, Schedule((500.0, 1999.5, 4000.0))),
                              (TimeTMap(flow, 1.0), Schedule((500, 2000, 4000)))):
            obs = batch_family(system, depth)
            batch = _profiles(system, points, obs, sched)
            single = np.stack([_profiles(system, (x,), obs, sched)[0] for x in points])
            assert batch.tobytes() == single.tobytes()
        assert ("arr" in steered.rule._buf) == (depth > 1)


def test_a_symbol_outside_the_alphabet_is_refused_and_spills_into_no_other_point():
    # symbol 2 on the binary shift keyed into the next point's counts: the good
    # point read a frequency of 0 of 0.995 beside it and 0.5 alone, and the bad
    # point alone raised a numpy broadcast error
    obs = (CylinderIndicator((0,)), CylinderIndicator((1,)))
    good, bad = Point(ExplicitWord((0, 1))), Point(ExplicitWord((0, 2)))
    for points in ([bad, good], [bad], [good, bad]):
        with pytest.raises(ValueError, match=r"symbol 2 .* outside the alphabet 0\.\.1"):
            _profiles(FullShift(2), points, obs, Schedule((100, 200)))


@pytest.mark.parametrize("system", [FullShift(2), MarkovShift(2, ((1, 1), (1, 0)))],
                         ids=["full-shift", "golden-mean"])
def test_a_long_row_refuses_a_symbol_past_its_first_piece(system):
    """A row longer than one count step is read piece by piece; a symbol 2
    first met in its second piece is refused as in a stacked row, before the
    point is admitted (on the golden mean, `admits` would refuse it too)."""
    obs = (CylinderIndicator((0, 1)), CylinderIndicator((1,)))
    n = birkhoff._CELL_CHUNK + 4000
    sched, refused = Schedule((1000, n)), r"^symbol 2 of a point lies outside the alphabet 0\.\.1$"
    bad, good = Point(BlockSchedule((((0, 1), n // 2), ((0, 2), 10))), 7), Point(ExplicitWord((0, 1)))
    assert 2 not in bad.rule._replace().materialise(n)[:7 + birkhoff._CELL_CHUNK + 1]
    for points in ([bad, good], [bad], [good, bad]):
        with pytest.raises(ValueError, match=refused):
            _profiles(system, points, obs, sched)
    assert "arr" not in bad.rule._buf
    alone = _profiles(system, [good], obs, sched)
    assert alone[0].tolist() == [[0.5, 0.5], [0.5, 0.5]]


def test_a_tagged_point_is_checked_against_its_own_side_of_a_union():
    # symbol 2 on the binary left side was checked against the ternary right
    # side's alphabet, and the point read frequencies [0.5, 0.0]
    union = DisjointUnion(FullShift(2), FullShift(3))
    obs, sched = (CylinderIndicator((0,)), CylinderIndicator((1,))), Schedule((100, 200))
    steered = Point(SteeredBlocks(3, 0, (10, 100), (0.5, 0.2)), component=0)
    for x in (Point(ExplicitWord((0, 2)), component=0), steered):
        with pytest.raises(ValueError, match=r"symbol 2 .* outside the alphabet 0\.\.1"):
            _profiles(union, [x], obs, sched)
    good = Point(ExplicitWord((0, 2)), component=1)
    assert _profiles(union, [good], obs, sched)[0].tolist() == [[0.5, 0.0], [0.5, 0.0]]


GOLDEN_MEAN_FLOW = Suspension(MarkovShift(2, ((1, 1), (1, 0))), RoofFunction.constant(1.0))


@pytest.mark.parametrize("reader, system, x, refused", [
    (birkhoff_profile, GOLDEN_MEAN_FLOW.base, Point(ExplicitWord((1, 1, 1, 1))),
     r"transitions \[\(1, 1\)\] are forbidden"),
    (birkhoff_profile, TimeTMap(GOLDEN_MEAN_FLOW, 0.5), Point(ExplicitWord((0, 1, 1))),
     r"transitions \[\(1, 1\)\] are forbidden"),
    (flow_average_profile, GOLDEN_MEAN_FLOW, Point(ExplicitWord((1, 0, 1))),
     r"transitions \[\(1, 1\)\] are forbidden"),
    (birkhoff_profile, FullShift(2), Point(ExplicitWord((0, 2))),
     r"symbol 2 .* outside the alphabet 0\.\.1"),
    (birkhoff_profile, FullShift(2), Point(Coordinate((0.25,))), "not a point of FullShift"),
    (birkhoff_profile, CircleRotation(0.3), Point(ExplicitWord((0, 1))),
     "not a point of CircleRotation"),
], ids=["golden-mean", "time-t-map", "suspension", "alphabet", "coordinate", "word"])
def test_a_public_reader_refuses_a_point_its_system_forbids(reader, system, x, refused):
    # the golden mean read the forbidden word 1111 as a cylinder frequency of [1.0, 1.0]
    with pytest.raises(ValueError, match=refused):
        reader(system, x, CylinderIndicator((1,)), Schedule((8, 16)))


@pytest.mark.parametrize("reader", [
    lambda system, x, phi, sched: classify_irregular(system, x, phi, sched, 0.02),
    lambda system, x, phi, sched: limit_point_set(system, x, TestFamily((phi,)), sched),
], ids=["classify-irregular", "limit-point-set"])
def test_a_batched_reader_refuses_a_point_its_system_forbids(reader):
    # classify_irregular read the forbidden word 1111 as Regular with gap 0, and
    # limit_point_set as one class with the cylinder [1] at 1.0
    with pytest.raises(ValueError, match=r"transitions \[\(1, 1\)\] are forbidden"):
        reader(GOLDEN_MEAN_FLOW.base, Point(ExplicitWord((1, 1, 1, 1))),
               CylinderIndicator((1,)), Schedule((8, 16, 32)))


@pytest.mark.parametrize("reader, system, x, phi", [
    (birkhoff_profile, FullShift(2), Point(ExplicitWord((0, 1))), CylinderIndicator((0,))),
    (flow_average_profile, GOLDEN_MEAN_FLOW, Point(ExplicitWord((0, 1))), CylinderIndicator((0,))),
    (birkhoff_profile, CircleRotation(0.3), Point(Coordinate((0.1,))), Harmonic(1)),
    (birkhoff_profile, FullShift(2), Point(ExplicitWord((0, 1))), Constant(1.0)),
    (birkhoff_profile, GOLDEN_MEAN_FLOW.base, Point(ExplicitWord((0, 1))), Constant(1.0)),
], ids=["shift", "suspension", "circle", "constant", "constant-on-a-vertex-shift"])
def test_a_read_admits_its_point_once(reader, system, x, phi, monkeypatch):
    # a one-point symbolic read asked `admits` twice: in the public reader and per row
    calls, admits = [], systems._Descriptor.admits
    monkeypatch.setattr(systems._Descriptor, "admits",
                        lambda self, point: calls.append(point) or admits(self, point))
    reader(system, x, phi, Schedule((8.0, 16.0) if system.is_flow else (8, 16)))
    assert calls == [x]


@pytest.mark.parametrize("system, plans", [
    (FullShift(2), 1),
    (Suspension(FullShift(2), RoofFunction.constant(0.75)), 3),
    (TimeTMap(Suspension(FullShift(2), RoofFunction.constant(0.75)), 0.3), 3),
    (Suspension(FullShift(2), RoofFunction(1, (0.7, 1.3), 2)), 6),
], ids=["shift", "flow", "time-t-map", "word-roof"])
def test_a_suite_plans_its_cells_once_per_chart_group(system, plans, monkeypatch):
    # runs of one fiber share a plan under a constant roof; a word roof plans each point
    calls, plan = [], type(system).cell_plan
    monkeypatch.setattr(type(system), "cell_plan",
                        lambda self, x, Ts: calls.append(x) or plan(self, x, Ts))
    fibers = (0.0, 0.0, 0.5, 0.5, 0.5, 0.0) if system.space.is_flow else (None,) * 6
    points = [Point(SeededIID(i, (0.5, 0.5)), fiber=f) for i, f in enumerate(fibers)]
    sched = Schedule((50.0, 100.0) if system.is_flow else (50, 100))
    A = _profiles(system, points, (CylinderIndicator((0, 1)),), sched)
    assert len(calls) == plans and A.shape == (6, 2, 1)


def test_an_untagged_coordinate_point_on_a_union_of_shifts_is_refused():
    # it reached the symbol reader: TypeError, coordinate points have no symbol stream
    with pytest.raises(ValueError, match="a coordinate point is not a point of DisjointUnion"):
        birkhoff_profile(DisjointUnion(FullShift(2), FullShift(2)), Point(Coordinate((0.2,))),
                         CylinderIndicator((0,)), Schedule((8, 16)))


@pytest.mark.parametrize("system, mu", [
    (FullShift(2), Bernoulli((0.3, 0.7))),
    (Suspension(FullShift(2), RoofFunction.constant(1.0)), Bernoulli((0.3, 0.7))),
    (MarkovShift(2, ((1, 1), (1, 0))), Markov(((0.6, 0.4), (1.0, 0.0)), (5 / 7, 2 / 7))),
], ids=["shift", "unit-roof-flow", "golden-mean"])
def test_a_depth_1_read_of_a_stage_recipe_counts_from_its_blocks(system, mu):
    """The profile is that of the same stream read through its symbols, past
    the last stage too, and the read builds no stream."""
    base = system.carrier
    x, ref = (generic_point(base, mu, horizon=1 << 15).with_fiber(0.0) for _ in range(2))
    fam = TestFamily(tuple(CylinderIndicator((s,)) for s in range(2)) + (Constant(0.5),))
    cps = (1000, 1 << 14, 1 << 17)
    sched = Schedule(tuple(map(float, cps)) if system.is_flow else cps)
    read = lambda p: classify_generic(system, p, mu, fam, sched, keep_profile=True).profile
    with mock.patch.object(StageRecipe, "pieces", None):       # reads no symbol
        got = read(x)
    with mock.patch.object(StageRecipe, "counts", None):
        want = read(ref)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert "arr" not in x.rule._buf


@pytest.mark.parametrize("phi", [Constant(1.0), Harmonic(1)])
def test_a_circle_read_refuses_a_symbolic_point(phi):
    # read with a constant, the word's orbit was classified Regular
    with pytest.raises(ValueError, match="not a point of CircleRotation"):
        classify_irregular(CircleRotation(0.3), Point(ExplicitWord((0, 1))), phi, Schedule((8, 16)))


@dataclass(frozen=True)
class Int64Word:
    """A periodic word whose stream is int64 (the package's rules build int16)."""

    symbols: tuple
    counts = None           # no recipe counts: the reader builds its stream
    symbolic = True         # what `admits` asks of a rule on a shift

    def used(self) -> set:
        return set(self.symbols)

    def materialise(self, n: int) -> np.ndarray:
        return np.resize(np.array(self.symbols, dtype=np.int64), n)

    def pieces(self, lo: int, hi: int, step: int):
        for a in range(lo, hi, step):
            word = np.roll(np.array(self.symbols, dtype=np.int64), -a)
            yield np.resize(word, min(step, hi - a))


def suite_rules(k):
    words = st.lists(st.integers(0, k - 1), min_size=1, max_size=7)
    return st.one_of(batch_rules(k), words.map(lambda w: Int64Word(tuple(w))))


@given(data=st.data(), case=st.sampled_from(["long", "short", "two-fibers", "word-roof",
                                             "wide-keys"]),
       flow=st.booleans(), t=st.sampled_from([1.0, 0.3]))
@settings(max_examples=40, deadline=None)
def test_a_suite_reads_bit_for_bit_as_its_points_one_by_one(data, case, flow, t):
    """At the real `_CELL_CHUNK`: rows longer than one stack, short rows that
    stack, a chart that changes mid-suite, a word-dependent roof, int64 rows,
    and 9 stacked rows of 4**6 codes, whose keys pass 2**15."""
    k, depth, n = 2, data.draw(st.integers(1, 4), label="depth"), data.draw(st.integers(2, 6))
    last, fibers = data.draw(st.integers(2, 3000), label="horizon"), None
    if case == "long":
        system, last = FullShift(2), birkhoff._CELL_CHUNK + last
    elif case == "short":
        system, k, depth, n = FullShift(3), 3, min(depth, 3), data.draw(st.integers(2, 30))
    elif case == "wide-keys":
        system, k, depth, n, last = FullShift(4), 4, 6, 9, min(last, 7000)
    else:
        roof = (RoofFunction.constant(0.75) if case == "two-fibers"
                else RoofFunction(1, (1.0, 2.0), 2))
        system = Suspension(FullShift(2), roof) if flow else TimeTMap(Suspension(FullShift(2), roof), t)
        cut = data.draw(st.integers(1, n - 1))
        fibers = [0.0 if i < cut else 0.5 for i in range(n)]
    points = [Point(data.draw(suite_rules(k)), data.draw(st.integers(0, 12)), None, f)
              for f in fibers or [None] * n]
    cps = sorted({max(1, last >> i) for i in range(data.draw(st.integers(1, 4)))})
    sched = Schedule(tuple(float(c) for c in cps) if system.is_flow else tuple(cps))
    words = st.lists(st.integers(0, k - 1), min_size=1, max_size=depth).map(tuple)
    obs = (CylinderIndicator((0,) * depth), CylinderIndicator((k - 1,)),
           *map(CylinderIndicator, data.draw(st.lists(words, max_size=4))))
    with mock.patch.object(birkhoff, "_word_codes", wraps=birkhoff._word_codes) as codes:
        suite = _profiles(system, iter(points), obs, sched)
    single = np.stack([_profiles(system, (x,), obs, sched)[0] for x in points])
    assert suite.tobytes() == single.tobytes()
    if case == "wide-keys":     # stacked, in keys wider than int16
        assert any(len(c.args[0]) == 9 and np.dtype(c.args[-1]).itemsize >= 4
                   for c in codes.call_args_list)


# sha256 of the depth-3 default family's profiles, stacked observable by
# observable: a time-t map read at a fractional t / c (0.7 over the roof 0.3,
# and 0.3 over the word roof 0.7 / 1.3) and its suspension flow
PIN_ROOFS = {"constant": (RoofFunction.constant(0.3), 0.7),
             "word": (RoofFunction(1, (0.7, 1.3), 2), 0.3)}
PIN_POINTS = {"iid": Point(SeededIID(11, (0.4, 0.6)), fiber=0.05),
              "steered": Point(SteeredBlocks(2, 0, (50, 500, 5000, 50000), (0.2, 0.8, 0.3, 0.7)),
                               3, None, 0.15)}
PINNED_PROFILES = {
    ("map", "constant", "iid"): "65fae4b4b183706f259338173617104920ae78908c1d4a67641c46961f7efdb3",
    ("map", "constant", "steered"): "951fe0e11cac524e22d2f34b2c556dc329620a4d44034340d519d728de1d46e7",
    ("map", "word", "iid"): "61b91de8eadf93ad28205fad75e7b19b320dc7278dafd972a9becf1323749274",
    ("map", "word", "steered"): "983e31f605297519bd612c057bb33ada890f5514277d428cbe48ebddbe144b03",
    ("flow", "constant", "iid"): "20e8529528250cfdcbe2aeb5e4900dd3e509385ed509aee96974ae13ea8c9652",
    ("flow", "constant", "steered"): "141547b93a79a2f2a5a9e94d50c2296d72e9f83be19e70fb688a4b9336e0d8cf",
    ("flow", "word", "iid"): "6422d5dd0448f2db028e27a92d21bc26f79397a0cd19772a8055e0270e822f66",
    ("flow", "word", "steered"): "49cc7e833ef69ff4b7930f8d32d48761d75640dc5263338c8f4e6768ce707971",
}


@pytest.mark.parametrize("dynamics, roof, point", sorted(PINNED_PROFILES))
def test_the_reader_keeps_its_pinned_profiles(dynamics, roof, point):
    flow = Suspension(FullShift(2), PIN_ROOFS[roof][0])
    if dynamics == "map":
        reader, system, sched = birkhoff_profile, TimeTMap(flow, PIN_ROOFS[roof][1]), \
            Schedule((700, 7000, 70000))
    else:
        reader, system, sched = flow_average_profile, flow, Schedule((210.0, 2100.0, 21000.0))
    obs = TestFamily.default_for(system, depth=3).observables
    prof = np.stack([reader(system, PIN_POINTS[point], phi, sched) for phi in obs])
    assert hashlib.sha256(prof.tobytes()).hexdigest() == PINNED_PROFILES[dynamics, roof, point]


BOUNDED_READS = {
    "seeded-markov": (MarkovShift(2, ((1, 1), (1, 0))),
                      lambda seed: Point(SeededMarkov(seed, ((0.6, 0.4), (1.0, 0.0)), (5 / 7, 2 / 7)))),
    "seeded-iid": (FullShift(2), lambda seed: Point(SeededIID(seed, (0.3, 0.7)))),
    "stage-recipe": (FullShift(2), lambda seed: generic_point(FullShift(2), Bernoulli((0.3, 0.7)))),
}


@pytest.mark.parametrize("name", sorted(BOUNDED_READS))
def test_a_long_read_holds_a_bounded_piece_of_its_stream(name):
    """A 2^22-step depth-4 read peaks at 2.5 MB under tracemalloc and keeps at
    most 0.5 MB (a 2^22-symbol int16 stream alone takes 8 MB); a short read
    first warms every cache of the path."""
    system, make = BOUNDED_READS[name]
    obs = TestFamily.default_for(system, depth=4).observables
    _profiles(system, [make(2)], obs, Schedule((1000, 2000)))
    x, n = make(1), 1 << 22
    tracemalloc.start()
    try:
        A = _profiles(system, [x], obs, Schedule.geometric(1000, n))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2 ** 20 and held <= 0.5 * 2 ** 20, (peak, held)
    assert "arr" not in x.rule._buf
    assert np.abs(A[0, -1] - A[0, -2]).max() < 0.01


def test_a_lone_long_row_is_counted_in_place():
    """Two depth-4 reads of a 2^20-step row, counted alone piece by piece,
    agree, and the second peaks below the row's own bytes: no stacked copy
    and no kept stream."""
    x, n = Point(SeededIID(7, (0.5, 0.5))), 1 << 20
    read = lambda: birkhoff_profile(FullShift(2), x, CylinderIndicator((0, 1, 1, 0)), Schedule((n,)))
    first = read()
    tracemalloc.start()
    try:
        assert np.array_equal(read(), first)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.prefix(n + 4).nbytes, peak
