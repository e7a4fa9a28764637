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
    SteeredBlocks,
    Suspension,
    TimeTMap,
    TorusTranslation,
    random_point,
    time_t_map,
    _count_at_or_below,
)
from ergode.measures import Markov
from ergode.constructions import _sample_markov

from metrics import distance, metric_for
from stepping import iterate, step


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


@pytest.mark.parametrize("space", [CircleRotation(0.3), CircleMult(2), FullShift(2)],
                         ids=lambda s: type(s).__name__)
def test_time_t_map_needs_a_flow(space):
    # a map is not a flow: its "time-t map" would be read as an isometry or a shift
    with pytest.raises(ValueError, match="not a flow"):
        TimeTMap(space, 1.0)


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
    a = random_point(FullShift(2), np.random.default_rng(0))
    b = random_point(FullShift(2), np.random.default_rng(0))
    assert np.array_equal(a.prefix(16), b.prefix(16))


def test_random_point_on_union_lands_in_a_component():
    du = DisjointUnion(FullShift(2), FullShift(2))
    pts = [random_point(du, np.random.default_rng(s)) for s in range(20)]
    assert {p.component for p in pts} <= {0, 1}
    assert len({p.component for p in pts}) == 2


def test_random_point_on_a_proper_vertex_shift_raises():
    # an iid uniform stream would hold the forbidden word 11 at once
    golden = MarkovShift(2, ((1, 1), (1, 0)))
    with pytest.raises(ValueError, match="forbids a transition"):
        random_point(golden, np.random.default_rng(0))
    with pytest.raises(ValueError):
        random_point(DisjointUnion(golden, golden), np.random.default_rng(0))
    whole = random_point(MarkovShift(2, ((1, 1), (1, 1))), np.random.default_rng(0))
    assert whole.prefix(8).shape == (8,)


GOLDEN = MarkovShift(2, ((1, 1), (1, 0)))


@pytest.mark.parametrize("rule, refused", [
    (ExplicitWord((1, 1, 1, 1)), "transitions"),                 # 11 inside the word
    (ExplicitWord((1, 0, 1)), "transitions"),                    # 11 at the wrap-around
    (BlockSchedule((((0, 1), 1), ((1, 0), 3))), "transitions"),  # 11 at the junction
    (BlockSchedule((((0, 1, 0), 2), ((1,), 1))), "transitions"),  # the last pattern repeats
    (BlockSchedule((((1, 0, 1), 2), ((0,), 1))), "transitions"),  # 11 where a block repeats
    (SeededIID(0, (0.5, 0.5)), "transitions"),                   # iid draws may pair 1 and 1
    (ExplicitWord((0, 2)), "alphabet"),
    (SteeredBlocks(3, 0, (4,), (0.5,)), "alphabet"),
    (ExplicitWord((0, 1, 0)), None),
    (BlockSchedule((((0, 1), 3), ((0,), 2), ((1, 0), 1))), None),
    (SeededIID(0, (1.0, 0.0)), None),
])
def test_a_vertex_shift_admits_only_streams_that_keep_its_transitions(rule, refused):
    if refused is None:
        GOLDEN.admits(rule)
        FullShift(2).admits(rule)
        return
    with pytest.raises(ValueError, match=refused):
        GOLDEN.admits(rule)
    if refused == "transitions":        # every pair is allowed on the full shift
        FullShift(2).admits(rule)


@pytest.mark.parametrize("space, dim", [
    (FullShift(2), 0),
    (MarkovShift(2, ((1, 1), (1, 0))), 0),
    (DisjointUnion(CircleRotation(0.1), CircleRotation(0.2)), 0),
    (CircleMult(3), 1),
    (CircleRotation(0.3), 1),
    (CircleRotationFlow(), 1),
    (TorusTranslation((0.3, 0.7, 0.1)), 3),
    (Suspension(FullShift(2), RoofFunction.constant(1.0)), 0),
    (TimeTMap(TorusTranslation((0.3, 0.7)), 0.5), 2),
    (TimeTMap(Suspension(FullShift(2), RoofFunction.constant(1.0)), 0.5), 0),
])
def test_every_descriptor_answers_its_torus_dimension(space, dim):
    assert space.torus_dim == dim
    if dim:
        x = random_point(space, np.random.default_rng(0))
        assert len(x.coords) == dim
        assert distance(metric_for(space), x, x).value == 0.0


def test_a_circle_point_is_the_one_uniform_draw():
    for seed in range(5):
        x = random_point(CircleRotation(0.3), np.random.default_rng(seed))
        assert x.coords == (float(np.random.default_rng(seed).random()),)


# ---------------------------------------------------------------------------
# drawing symbols by counting thresholds


def searchsorted_draw(probs, u):
    """The draw as a binary search over the cumulative sum with its last
    entry patched to 1, the kernel threshold counting replaced."""
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right")


# k = 2, 3 and 5; a zero mass in the middle and at the end; and a row whose
# cumulative sum rounds to 0.9999999999999999
DRAW_ROWS = [
    (0.3, 0.7),
    (0.2, 0.5, 0.3),
    (0.1, 0.2, 0.3, 0.25, 0.15),
    (0.4, 0.0, 0.6),
    (0.5, 0.5, 0.0),
    (0.2, 0.0, 0.3, 0.5, 0.0),
    (1 / 6, 2 / 3, 1 / 6, 0.0),
]


def test_a_draw_row_sums_below_one():
    assert np.cumsum(DRAW_ROWS[-1])[-1] == 1.0 - 2.0 ** -53


def edge_uniforms(probs):
    """Every inner threshold, the floats either side of it, 0 and the
    largest float below 1."""
    inner = np.cumsum(probs)[:-1]
    u = np.concatenate([inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
                        [0.0, 1.0 - 2.0 ** -53]])
    return u[(u >= 0.0) & (u < 1.0)]


@st.composite
def draw_rows(draw):
    """Probability rows with k in {2, 3, 5}, zero masses allowed."""
    k = draw(st.sampled_from((2, 3, 5)))
    weights = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k)
                   .filter(lambda w: sum(w) > 0))
    return tuple(w / sum(weights) for w in weights)


@given(st.one_of(st.sampled_from(DRAW_ROWS), draw_rows()), st.integers(0, 2 ** 32 - 1))
@settings(deadline=None, max_examples=200)
def test_threshold_count_draw_matches_the_binary_search(probs, seed):
    u = np.concatenate([edge_uniforms(probs), np.random.default_rng(seed).random(500)])
    got = _count_at_or_below(np.cumsum(probs)[:-1], u, np.int16)
    assert np.array_equal(got, searchsorted_draw(probs, u))


@pytest.mark.parametrize("probs", DRAW_ROWS)
@pytest.mark.parametrize("seed", [0, 7])
def test_seeded_iid_draws_what_the_binary_search_drew(probs, seed):
    u = np.random.default_rng(seed).random(5000)
    got = SeededIID(seed, probs).materialise(5000)
    assert got.dtype == np.int16
    assert np.array_equal(got, searchsorted_draw(probs, u))


class _ScriptedUniforms:
    """A generator that deals out the edge uniforms of a row, cycling."""

    def __init__(self, probs):
        self.u = edge_uniforms(probs)

    def random(self, size=None):
        return self.u[0] if size is None else np.resize(self.u, size)


def markov_walk_by_search(mu, rng, horizon):
    """The chain walk one step at a time, each step the binary search draw
    on the row of the current state."""
    state = int(searchsorted_draw(mu.stationary, rng.random()))
    u = rng.random(horizon)
    out = np.empty(horizon, dtype=np.int64)
    for i in range(horizon):
        out[i] = state
        state = int(searchsorted_draw(mu.transitions[state], u[i]))
    return out


@pytest.mark.parametrize("probs", DRAW_ROWS)
@pytest.mark.parametrize("uniforms", ["seeded", "edges"])
def test_markov_step_rows_draw_what_the_binary_search_drew(probs, uniforms, monkeypatch):
    # the rotations of a row: a doubly stochastic chain, so uniform is stationary
    k = len(probs)
    mu = Markov(tuple(probs[i:] + probs[:i] for i in range(k)), (1 / k,) * k)
    horizon = 3000
    if uniforms == "seeded":
        want = markov_walk_by_search(mu, np.random.default_rng(5), horizon)
        got = _sample_markov(mu, 5, horizon)
    else:
        want = markov_walk_by_search(mu, _ScriptedUniforms(probs), horizon)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _ScriptedUniforms(probs))
        got = _sample_markov(mu, 0, horizon)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# stream buffers grow to the length asked and keep their prefixes

GROWING_RULES = {
    "seeded-iid": lambda: SeededIID(3, (0.2, 0.5, 0.3)),
    "explicit-word": lambda: ExplicitWord((0, 1, 1, 2, 0, 1, 2)),
    "block-schedule": lambda: BlockSchedule((((0, 1), 5000), ((1, 1, 0), 30000), ((2, 0), 7))),
    "steered-blocks-2": lambda: SteeredBlocks(2, 1, (100, 900, 70000, 150000),
                                              (0.2, 0.6, 0.3, 0.5)),
    "steered-blocks-3": lambda: SteeredBlocks(3, 0, (100, 900, 70000, 150000),
                                              (0.2, 0.6, 0.3, 0.5)),
}


@pytest.mark.parametrize("make", GROWING_RULES.values(), ids=GROWING_RULES.keys())
def test_regrown_streams_keep_their_prefixes(make):
    rule = make()
    for n in (65539, 10, 200000, 70000):
        assert np.array_equal(rule.materialise(n), make().materialise(n))


def test_a_stream_is_built_as_long_as_asked_and_doubles_on_regrowth():
    rule = SeededIID(0, (0.3, 0.7))
    assert rule.materialise(65539).shape == (65539,)
    assert len(rule._buf["arr"]) == 66560          # 65 blocks of 1024
    rule.materialise(66561)
    assert len(rule._buf["arr"]) == 133120         # at least double
    rule.materialise(300000)
    assert len(rule._buf["arr"]) == 300032         # the length asked, rounded up


@pytest.mark.parametrize("make", GROWING_RULES.values(), ids=GROWING_RULES.keys())
def test_a_stream_of_no_symbols_is_empty(make):
    rule = make()
    assert rule.materialise(0).shape == (0,)
    assert len(rule._buf["arr"]) == 1024


# ---------------------------------------------------------------------------
# steered streams count their symbols from the recipe

STEER_ENDS, STEER_TARGETS = (8, 40, 168, 680), (0.3, 0.7, 0.3, 0.7)


@pytest.mark.parametrize("offset", [0, 3])
@pytest.mark.parametrize("k, symbol", [(k, s) for k in (2, 3, 4) for s in range(k)])
def test_steered_counts_equal_the_cumulative_counts_of_the_stream(k, symbol, offset):
    rule = SteeredBlocks(k, symbol, STEER_ENDS, STEER_TARGETS)
    n = 3000                                   # past the last end, where the last block repeats
    built = SteeredBlocks(k, symbol, STEER_ENDS, STEER_TARGETS).materialise(offset + n)
    cum = np.zeros((offset + n + 1, k), dtype=np.int64)
    cum[1:] = np.cumsum(np.eye(k, dtype=np.int64)[built], axis=0)
    ends = [e - offset for e in STEER_ENDS]
    for m in (0, 1, 5, *ends, *(e + 1 for e in ends), 1000, 1192, 2039, n):
        got = rule.counts(offset + m)
        assert got.dtype == np.int64 and got.tolist() == cum[offset + m].tolist(), m
    for i in range(offset, offset + 200):      # the symbol at i
        assert int(np.argmax(rule.counts(i + 1) - rule.counts(i))) == built[i]
    assert list(rule._buf) == ["blocks"]       # counting built no stream
