import functools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergode.systems import (
    BlockSchedule,
    CircleRotation,
    Coordinate,
    DisjointUnion,
    ExplicitWord,
    FullShift,
    Point,
    RoofFunction,
    SeededIID,
    SteeredBlocks,
    Suspension,
    TimeTMap,
)
from ergode.measures import (
    Bernoulli,
    Constant,
    CylinderIndicator,
    FiberProfile,
    Harmonic,
    SymbolFrequency,
    TestFamily,
    evaluate,
    time_average_measure,
)
from ergode import birkhoff
from ergode.birkhoff import (
    Schedule,
    _profiles,
    birkhoff_average_flow,
    birkhoff_average_map,
    birkhoff_profile,
    classify_generic,
    classify_irregular,
    _limit_classes,
    _map_cells,
    empirical_measure,
    family_targets,
    flow_average_profile,
    limit_point_set,
)
from ergode.constructions import irregular_point
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
    osc = classify_irregular(fs, rec.point, SymbolFrequency(0), rec.schedule())
    assert osc.label == "Irregular"
    assert osc.gap >= 0.18

    tame = classify_irregular(
        fs, Point(SeededIID(2, (0.5, 0.5))), SymbolFrequency(0),
        Schedule((1000, 2000, 4000, 8000)),
    )
    assert tame.label == "Regular"


def test_empirical_measure_merges_repeated_orbit_points():
    # period-3 word: 6 steps fold onto 3 atoms of weight 1/3
    emp = empirical_measure(FullShift(2), Point(ExplicitWord((0, 1, 1))), 6)
    assert len(emp.points) == 3
    assert all(w == pytest.approx(1 / 3) for w in emp.weights)


def test_limit_point_set_sees_both_oscillation_targets():
    fs = FullShift(2)
    rec = irregular_point(fs, 0, 0.3, 0.7, ratio=4)
    fam = TestFamily((SymbolFrequency(0),))
    classes = limit_point_set(fs, rec.point, fam, rec.schedule(), tol=0.05)
    got = sorted(c.integrals[0] for c in classes)
    assert len(classes) == 2
    assert got[0] == pytest.approx(0.3, abs=0.01)
    assert got[1] == pytest.approx(0.7, abs=0.01)


def test_limit_point_set_single_class_for_generic_orbit():
    fs = FullShift(2)
    fam = TestFamily((SymbolFrequency(0),))
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
        word = base_phi.word if isinstance(base_phi, CylinderIndicator) else (base_phi.symbol,)
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
    """idx[j]: the base cell read at map step j, one float test per step."""
    roof = tmap.flow.roof
    f0 = x.fiber if x.fiber is not None else 0.0
    times = f0 + tmap.t * np.arange(n, dtype=float)
    if roof.depth == 0:
        return np.floor(times / roof.roof_max + 1e-12).astype(np.int64)
    crossings = int(times[-1] / roof.roof_min) + 2
    vals = roof.values_along(np.asarray(x.prefix(crossings + roof.depth)), crossings)
    entry_times = np.concatenate(([0.0], np.cumsum(vals)))
    return np.searchsorted(entry_times, times, side="right") - 1


def map_steps_exact(tmap, x, n):
    """idx[j]: the base cell read at map step j under a constant roof, in
    rational arithmetic on the short decimals that t, the roof and the fiber
    print as."""
    f0 = x.fiber if x.fiber is not None else 0.0
    f, t, c = (Fraction(repr(v)) for v in (f0, tmap.t, tmap.flow.roof.table[0]))
    return np.array([(f + t * j) // c for j in range(n)], dtype=np.int64)


def assert_cells_match(cells, idx):
    """The cells of a `_map_cells` read against the cell read at each step."""
    n, held = len(idx), np.bincount(idx)
    L = len(held) - 1
    assert cells.cell(n - 1) == L and cells.cells(n).tolist() == idx.tolist()
    assert cells.first(0) == 0 and cells.first(L + 1) >= n
    if L > 0:
        assert cells.first(1) == held[0]
        # one number when every cell after cell 0 holds as many steps
        assert np.broadcast_to(cells.steps(1, L), (L - 1,)).tolist() == held[1:L].tolist()
    assert n - cells.first(L) == held[L]


def map_profile_reference(tmap, x, phi, cps, steps=map_steps_reference):
    """Running map averages from a per-step gather of the base symbols."""
    if isinstance(phi, Constant):
        return np.full(len(cps), phi.value)
    word = phi.word if isinstance(phi, CylinderIndicator) else (phi.symbol,)
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
    SymbolFrequency(1), CylinderIndicator((1, 0, 1)), Constant(0.75),
    FiberProfile(SymbolFrequency(0), TENT), FiberProfile(Constant(2.0), TENT),
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
    idx = map_steps_reference(tmap, x, n)
    assert_cells_match(_map_cells(tmap, x, n, 1)[1], idx)
    if roof.depth == 0:
        assert idx.tolist() == map_steps_exact(tmap, x, n).tolist()
    for phi in OBSERVABLES[:3]:
        got = birkhoff_profile(tmap, x, phi, Schedule(cps))
        assert got.tolist() == map_profile_reference(tmap, x, phi, cps).tolist(), phi


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


def test_suspension_readers_respect_the_component():
    union = DisjointUnion(FullShift(2), FullShift(2))
    flow = Suspension(union, RoofFunction.constant(0.75))
    x = Point(SeededIID(5, (0.5, 0.5)), component=1, fiber=0.1)
    sched = Schedule((3.0, 30.0, 300.0))
    for phi in (SymbolFrequency(0, component=0), CylinderIndicator((1, 1), component=0)):
        assert flow_average_profile(flow, x, phi, sched).tolist() == [0.0] * 3
        assert birkhoff_profile(TimeTMap(flow, 0.3), x, phi, Schedule((3, 30, 300))).tolist() == [0.0] * 3
    own = SymbolFrequency(0, component=1)
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
        flow_average_profile(flow, x, SymbolFrequency(0), Schedule((10.0,)))
    with pytest.raises(ValueError, match="fiber coordinate"):
        birkhoff_profile(TimeTMap(flow, 1.0), x, SymbolFrequency(0), Schedule((10,)))


@pytest.mark.parametrize("point", sorted(POINTS))
def test_time_t_map_of_a_suspension_refuses_negative_t(point):
    tmap = TimeTMap(Suspension(FullShift(2), RoofFunction.constant(1.0)), -1.0)
    with pytest.raises(ValueError, match="forward in time"):
        birkhoff_profile(tmap, POINTS[point].with_fiber(0.0), SymbolFrequency(0), Schedule((10,)))


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


def test_empirical_measure_on_a_whole_step_time_t_map():
    tmap = TimeTMap(Suspension(FullShift(2), RoofFunction.constant(0.5)), 1.0)
    emp = empirical_measure(tmap, Point(ExplicitWord((0, 1, 1, 0)), fiber=0.0), 8)
    # every second base cell: 0, 1, 0, 1, ... two atoms of weight 1/2
    assert sorted(p.offset for p in emp.points) == [0, 2]
    assert all(w == pytest.approx(0.5) for w in emp.weights)
    with pytest.raises(TypeError):
        empirical_measure(TimeTMap(tmap.flow, 0.3), Point(ExplicitWord((0, 1)), fiber=0.0), 8)


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
        got_arr, got = _map_cells(shared, x, n, 2)
        want_arr, want = _map_cells(TimeTMap(flow, t), x, n, 2)
        assert got == want and np.array_equal(got_arr, want_arr)
        assert_cells_match(got, idx)
        cps = (7, n // 3, n)
        for phi in OBSERVABLES[:3]:
            assert birkhoff_profile(shared, x, phi, Schedule(cps)).tolist() == \
                map_profile_reference(shared, x, phi, cps).tolist(), phi
    # the grid is the chart of (fiber, t, roof): every point and every length
    # read through any map with those numbers gets the same one
    fiber = reads[-1][1]
    _, chart = _map_cells(shared, POINTS["iid"].with_fiber(fiber), 300, 2)
    for point in sorted(POINTS):
        assert _map_cells(TimeTMap(flow, t), POINTS[point].with_fiber(fiber), 9000, 2)[1] is chart
    assert shared == TimeTMap(flow, t) and hash(shared) == hash(TimeTMap(flow, t))


def test_the_shared_cell_grid_is_read_only():
    tmap = TimeTMap(Suspension(FullShift(2), RoofFunction.constant(2.0)), 1.0)
    x = POINTS["iid"].with_fiber(0.0)
    _, chart = _map_cells(tmap, x, 5000, 1)
    with pytest.raises(AttributeError):
        chart.f = 7
    _, again = _map_cells(tmap, x, 100, 1)
    assert again == chart and again.steps(1, 60) == 2
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
    assert_cells_match(_map_cells(tmap, x, n, 1)[1], idx)
    cps = (1, 7, 1001, n)
    for phi in OBSERVABLES[:3]:
        assert birkhoff_profile(tmap, x, phi, Schedule(cps)).tolist() == \
            map_profile_reference(tmap, x, phi, cps, lambda *_: idx).tolist(), phi


def test_time_t_map_cells_under_a_non_dyadic_roof_are_exact_far_out():
    """t = 0.7 over the roof 0.3: the step i*3/7 lands exactly on an entry
    whenever 7 divides i, and cell i is first read at step ceil(3i/7)."""
    tmap = TimeTMap(Suspension(FullShift(2), RoofFunction.constant(0.3)), 0.7)
    n = 2_000_000
    _, chart = _map_cells(tmap, POINTS["iid"].with_fiber(0.0), n, 1)
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
    _, chart = _map_cells(tmap, x, n, 1)
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


def reference_flow_averages(words, full, hit0, hit_last, Ts, ends, f0, taus, roof0, entry,
                            classes):
    """The per-(point, word, checkpoint) loop that `birkhoff._flow_averages` replaced."""
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
    SymbolFrequency(0), FiberProfile(SymbolFrequency(1), TENT),
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
    obs = [SymbolFrequency(s) for s in range(k)] + [Constant(0.75)]
    if system.is_flow:
        obs.append(FiberProfile(SymbolFrequency(symbol), TENT))
    cps = rec.block_ends + (12_000, 20_001)    # the last two where the last block repeats
    sched = Schedule(tuple(float(e) for e in cps)) if system.is_flow else Schedule(cps)
    fam = TestFamily(tuple(obs))
    got = classify_generic(system, x, None, fam, sched, keep_profile=True,
                           targets=np.zeros(len(obs))).profile
    want = classify_generic(system, ref, None, fam, sched, keep_profile=True,
                            targets=np.zeros(len(obs))).profile
    assert np.array(got).tobytes() == np.array(want).tobytes()
    phi = SymbolFrequency(symbol)
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
    verdict = classify_irregular(system, rec.point.with_fiber(0.0), SymbolFrequency(0), sched)
    assert verdict.label == "Irregular"
    held = [a for v in rec.point.rule._buf.values()
            for a in (v if isinstance(v, tuple) else (v,))]
    assert max(np.size(a) for a in held) <= 1 << 16


def test_empirical_measure_refuses_a_fractional_stride_at_every_length():
    flow = Suspension(FullShift(2), RoofFunction.constant(1.0))
    x = Point(ExplicitWord((0, 1, 1, 0)), fiber=0.0)
    for n in (2, 3, 8):   # n = 2 reads cells [0, 0], which merged two orbit points
        with pytest.raises(TypeError, match="whole-base-step"):
            empirical_measure(TimeTMap(flow, 0.5), x, n)
    emp = empirical_measure(TimeTMap(flow, 2.0), x, 5)
    assert sum(emp.weights) == pytest.approx(1.0)
    assert sorted(p.offset for p in emp.points) == [0, 2]


# ---------------------------------------------------------------------------
# a batch of points reads as its points one by one


@functools.lru_cache(maxsize=None)
def batch_family(space, depth):
    """The default cylinders of a base shift (union sides tagged) with a
    constant and a symbol frequency; a flow adds fiber-graded observables."""
    base = space.flow.base if isinstance(space, TimeTMap) else getattr(space, "base", space)
    obs = TestFamily.default_for(base, depth=depth).observables + (
        Constant(0.75), SymbolFrequency(0))
    if space.is_flow:
        obs += (FiberProfile(SymbolFrequency(1), TENT), FiberProfile(Constant(2.0), TENT))
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
