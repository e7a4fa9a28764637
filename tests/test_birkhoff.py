import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergode.systems import (
    CircleRotation,
    Coordinate,
    DisjointUnion,
    ExplicitWord,
    FullShift,
    Point,
    RoofFunction,
    SeededIID,
    Suspension,
    TimeTMap,
    step,
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
from ergode.birkhoff import (
    Schedule,
    birkhoff_average_flow,
    birkhoff_average_map,
    birkhoff_profile,
    classify_generic,
    classify_irregular,
    _map_cells,
    empirical_measure,
    family_targets,
    flow_average_profile,
    limit_point_set,
)
from ergode.constructions import irregular_point


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


def map_profile_reference(tmap, x, phi, cps):
    """Running map averages from a per-step gather of the base symbols."""
    if isinstance(phi, Constant):
        return np.full(len(cps), phi.value)
    word = phi.word if isinstance(phi, CylinderIndicator) else (phi.symbol,)
    if phi.component is not None and x.component != phi.component:
        return np.zeros(len(cps))
    idx = map_steps_reference(tmap, x, cps[-1])
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
    _, first = _map_cells(tmap, x, n, 1)
    assert len(first) == idx[-1] + 2 and first[-1] >= n
    assert np.diff(first)[:-1].tolist() == np.bincount(idx)[:-1].tolist()
    assert n - first[-2] == np.bincount(idx)[-1]
    for phi in OBSERVABLES[:3]:
        got = birkhoff_profile(tmap, x, phi, Schedule(cps))
        assert got.tolist() == map_profile_reference(tmap, x, phi, cps).tolist(), phi


def test_flow_profile_matches_exact_rational_arithmetic():
    """Cell entries i*c are not summed one roof at a time, so a roof like 0.3
    gathers no rounding drift over long horizons."""
    from fractions import Fraction

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


@pytest.mark.parametrize("fiber", [1.0, 5.0])
def test_fiber_outside_the_roof_is_refused_on_both_paths(fiber):
    flow = Suspension(FullShift(2), RoofFunction.constant(1.0))
    x = Point(SeededIID(5, (0.5, 0.5)), fiber=fiber)
    with pytest.raises(ValueError, match="fiber coordinate"):
        flow_average_profile(flow, x, SymbolFrequency(0), Schedule((10.0,)))
    with pytest.raises(ValueError, match="fiber coordinate"):
        birkhoff_profile(TimeTMap(flow, 1.0), x, SymbolFrequency(0), Schedule((10,)))


def test_time_t_map_of_a_suspension_refuses_negative_t():
    tmap = TimeTMap(Suspension(FullShift(2), RoofFunction.constant(1.0)), -1.0)
    with pytest.raises(ValueError, match="forward in time"):
        birkhoff_profile(tmap, Point(SeededIID(5, (0.5, 0.5)), fiber=0.0),
                         SymbolFrequency(0), Schedule((10,)))


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
        assert got.tolist() == want.tolist() and np.array_equal(got_arr, want_arr)
        assert len(got) == idx[-1] + 2 and got[-1] >= n
        assert np.diff(got)[:-1].tolist() == np.bincount(idx)[:-1].tolist()
        cps = (7, n // 3, n)
        for phi in OBSERVABLES[:3]:
            assert birkhoff_profile(shared, x, phi, Schedule(cps)).tolist() == \
                map_profile_reference(shared, x, phi, cps).tolist(), phi
    # the map keeps the grid of the fiber it read last; points read at that
    # fiber get slices of it
    fiber, grid = shared._grid[0]
    assert fiber == reads[-1][1]
    for point in sorted(POINTS):
        _, first = _map_cells(shared, POINTS[point].with_fiber(fiber), 300, 2)
        assert np.shares_memory(first, grid)
    assert shared == TimeTMap(flow, t) and hash(shared) == hash(TimeTMap(flow, t))


def test_the_shared_cell_grid_is_read_only():
    tmap = TimeTMap(Suspension(FullShift(2), RoofFunction.constant(2.0)), 1.0)
    x = POINTS["iid"].with_fiber(0.0)
    _, first = _map_cells(tmap, x, 5000, 1)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[1] = 7
    _, again = _map_cells(tmap, x, 100, 1)
    assert not again.flags.writeable and again.tolist() == first[:len(again)].tolist()


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
