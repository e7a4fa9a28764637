import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergode.systems import (
    BlockSchedule,
    BudgetExhausted,
    CircleMult,
    CircleRotation,
    CircleRotationFlow,
    Coordinate,
    DisjointUnion,
    ExplicitWord,
    FullShift,
    MarkovShift,
    Point,
    RoofFunction,
    SeededIID,
    Suspension,
    TimeTMap,
    TorusTranslation,
    distance,
    iterate,
    metric_for,
    random_point,
    step,
    time_t_map,
)


def test_step_advances_offset():
    x = Point(ExplicitWord((0, 1, 1, 0, 1)))
    y = step(FullShift(2), x)
    assert y.offset == x.offset + 1
    assert list(iterate(FullShift(2), x, 2).prefix(3)) == [1, 0, 1]


def test_explicit_word_extends_periodically():
    x = Point(ExplicitWord((0, 1, 1)))
    assert list(x.prefix(9)) == [0, 1, 1, 0, 1, 1, 0, 1, 1]


def test_block_schedule_repeats_last_block():
    x = Point(BlockSchedule((((0,), 3), ((1, 1), 2))))
    assert list(x.prefix(10)) == [0, 0, 0, 1, 1, 1, 1, 1, 1, 1]


@given(st.integers(0, 40), st.integers(1, 20))
@settings(deadline=None)
def test_iterate_matches_shifted_prefix(n, m):
    """Reading m symbols after n shifts equals reading symbols n..n+m."""
    x = Point(SeededIID(17, (0.5, 0.5)))
    shifted = iterate(FullShift(2), x, n)
    assert list(shifted.prefix(m)) == list(x.prefix(n + m))[n:]


def test_shift_distance_is_two_to_minus_first_mismatch():
    m = metric_for(FullShift(2))
    a = Point(ExplicitWord((0, 1, 1, 0)))
    b = Point(ExplicitWord((0, 1, 0, 0)))
    d = distance(m, a, b)
    assert d.value == 0.25 and not d.truncated


def test_shift_distance_truncates_at_horizon():
    m = metric_for(FullShift(2))
    a = Point(SeededIID(7, (0.5, 0.5)))
    b = Point(SeededIID(7, (0.5, 0.5)))
    d = distance(m, a, b, horizon=64)
    assert d.value == 0.0 and d.truncated


def test_rotation_orbit_closed_form():
    x = Point(Coordinate((0.25,)))
    for n in range(6):
        q = iterate(CircleRotation(0.3), x, n)
        assert abs(q.coords[0] - (0.25 + 0.3 * n) % 1.0) < 1e-12


def test_circle_mult_doubles_mod_one():
    y = step(CircleMult(2), Point(Coordinate((0.7,))))
    assert abs(y.coords[0] - 0.4) < 1e-12


def test_rotation_flow_and_torus_translation():
    p = time_t_map(CircleRotationFlow(), 0.45, Point(Coordinate((0.1,))))
    assert abs(p.coords[0] - 0.55) < 1e-12
    q = time_t_map(TorusTranslation((0.3, 0.7)), 2.0, Point(Coordinate((0.0, 0.5))))
    assert abs(q.coords[0] - 0.6) < 1e-12 and abs(q.coords[1] - 0.9) < 1e-12


def test_suspension_advance_constant_roof():
    # 4.0 + 0.2 = 2 * 1.5 + 1.2: two roof crossings, fiber lands at 1.2
    susp = Suspension(FullShift(2), RoofFunction.constant(1.5))
    x = Point(ExplicitWord((1, 0, 1, 1, 0, 0, 1, 0))).with_fiber(0.2)
    y = time_t_map(susp, 4.0, x)
    assert y.offset == 2
    assert abs(y.fiber - 1.2) < 1e-9


def test_suspension_advance_word_dependent_roof():
    # symbols 1,0,1 see roofs 2,1,2; t=3.5 crosses the first two exactly
    roof = RoofFunction(1, (1.0, 2.0), 2)
    assert roof.roof_min == 1.0 and roof.roof_max == 2.0
    susp = Suspension(FullShift(2), roof)
    x = Point(ExplicitWord((1, 0, 1, 1, 0, 0, 1, 0))).with_fiber(0.0)
    y = time_t_map(susp, 3.5, x)
    assert y.offset == 2 and abs(y.fiber - 0.5) < 1e-9


@given(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
@settings(deadline=None, max_examples=60)
def test_suspension_flow_is_additive(s, t):
    susp = Suspension(FullShift(2), RoofFunction(1, (1.0, 1.75), 2))
    x = Point(SeededIID(3, (0.5, 0.5))).with_fiber(0.0)
    one = time_t_map(susp, s + t, x)
    two = time_t_map(susp, t, time_t_map(susp, s, x))
    assert one.offset == two.offset
    assert abs(one.fiber - two.fiber) < 1e-7


def test_time_t_map_wraps_flow():
    flow = Suspension(FullShift(2), RoofFunction.constant(1.0))
    tmap = TimeTMap(flow, 2.0)
    x = Point(ExplicitWord((1, 0, 1, 1))).with_fiber(0.0)
    assert step(tmap, x).offset == 2


def test_roof_values_along_word():
    roof = RoofFunction(1, (1.0, 2.0), 2)
    vals = roof.values_along(np.array([1, 0, 1, 1]), 3)
    assert list(vals) == [2.0, 1.0, 2.0]


def test_union_points_keep_their_component():
    du = DisjointUnion(FullShift(2), FullShift(3))
    x = Point(ExplicitWord((0, 1)), component=0)
    assert step(du, x).component == 0
    with pytest.raises(TypeError):
        du.alphabet


_FLOW = Suspension(FullShift(2), RoofFunction.constant(1.0))
_ROTATIONS = DisjointUnion(CircleRotation(0.1), CircleRotation(0.2))

# descriptor -> (is_flow, isometric, symbolic, alphabet or None, speed or None);
# None for the alphabet means it raises TypeError, for the speed that the
# descriptor has no speed
DESCRIPTOR_TABLE = {
    "full-shift": (FullShift(3), (False, False, True, 3, None)),
    "vertex-shift": (MarkovShift(2, ((1, 1), (1, 0))), (False, False, True, 2, None)),
    "circle-mult": (CircleMult(2), (False, False, False, None, None)),
    "rotation": (CircleRotation(0.1), (False, True, False, None, None)),
    "union-of-shifts": (DisjointUnion(FullShift(2), FullShift(3)),
                        (False, False, True, None, None)),
    "union-shift-rotation": (DisjointUnion(FullShift(2), CircleRotation(0.1)),
                             (False, False, False, None, None)),
    "union-of-rotations": (_ROTATIONS, (False, True, False, None, None)),
    "rotation-flow": (CircleRotationFlow(), (True, True, False, None, 1.0)),
    "torus-translation": (TorusTranslation((0.3, 0.7)), (True, True, False, None, 0.3)),
    "suspension": (_FLOW, (True, False, False, None, None)),
    "time-t-suspension": (TimeTMap(_FLOW, 0.5), (False, False, False, None, None)),
    "time-t-rotation-flow": (TimeTMap(CircleRotationFlow(), 0.5),
                             (False, True, False, None, None)),
    "time-t-translation": (TimeTMap(TorusTranslation((0.3, 0.7)), 2.0),
                           (False, True, False, None, None)),
}


@pytest.mark.parametrize("space, expected", DESCRIPTOR_TABLE.values(),
                         ids=DESCRIPTOR_TABLE.keys())
def test_descriptor_answers(space, expected):
    is_flow, isometric, symbolic, alphabet, speed = expected
    assert (space.is_flow, space.isometric, space.symbolic) == (is_flow, isometric, symbolic)
    if alphabet is None:
        with pytest.raises(TypeError):
            space.alphabet
    else:
        assert space.alphabet == alphabet
    assert getattr(space, "speed", None) == speed
    with pytest.raises(AttributeError):      # read-only on the frozen descriptor
        space.isometric = not isometric


def test_markov_rejects_dead_states():
    with pytest.raises(ValueError):
        MarkovShift(2, ((0, 0), (0, 0)))


def test_random_point_reproducible_from_seeded_rng():
    a = random_point(FullShift(2), np.random.default_rng(0), horizon=16)
    b = random_point(FullShift(2), np.random.default_rng(0), horizon=16)
    assert np.array_equal(a.prefix(16), b.prefix(16))


def test_random_point_on_union_lands_in_a_component():
    du = DisjointUnion(FullShift(2), FullShift(2))
    pts = [random_point(du, np.random.default_rng(s), horizon=4) for s in range(20)]
    assert {p.component for p in pts} <= {0, 1}
    assert len({p.component for p in pts}) == 2
