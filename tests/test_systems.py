import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergode import systems
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
    SeededMarkov,
    SteeredBlocks,
    Suspension,
    TimeTMap,
    TorusTranslation,
    random_point,
    time_t_map,
    _count_at_or_below,
)
from ergode.measures import Markov
from ergode.constructions import StageRecipe

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


@pytest.mark.parametrize("roof", [RoofFunction.constant(1.0), RoofFunction(1, (1.0, 2.0), 2)],
                         ids=["constant", "word"])
@pytest.mark.parametrize("fiber", [1.0, 5.0])
def test_time_t_map_refuses_a_fiber_at_or_above_the_roof(roof, fiber):
    # the point's first symbol is 0: the roof over it is 1.0 either way
    susp = Suspension(FullShift(2), roof)
    x = Point(ExplicitWord((0, 1))).with_fiber(fiber)
    with pytest.raises(ValueError, match="fiber coordinate"):
        time_t_map(susp, 0.5, x)
    assert time_t_map(susp, 0.5, x.with_fiber(0.75)) == x.shifted(1).with_fiber(0.25)


@pytest.mark.parametrize("roof", [RoofFunction.constant(1.0), RoofFunction(1, (1.0, 2.0), 2)],
                         ids=["constant", "word"])
def test_time_t_map_reads_an_unset_fiber_as_zero_and_refuses_a_coordinate_point(roof):
    susp = Suspension(FullShift(2), roof)
    x = Point(ExplicitWord((0, 1)))
    assert time_t_map(susp, 1.5, x) == time_t_map(susp, 1.5, x.with_fiber(0.0)) \
        == x.shifted(1).with_fiber(0.5)
    # under a constant roof the coordinate point would otherwise move like a symbol stream
    with pytest.raises(TypeError, match="no symbol stream"):
        time_t_map(susp, 1.5, Point(Coordinate((0.2,)), fiber=0.1))


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


@pytest.mark.parametrize("k", [2, 3, 5])
def test_a_full_shift_answers_an_all_ones_adjacency(k):
    assert np.array_equal(FullShift(k).adjacency, np.ones((k, k), dtype=int))


@pytest.mark.parametrize("shift, forbids_nothing", [
    (FullShift(3), True),
    (MarkovShift(2, ((1, 1), (1, 0))), False),
    (MarkovShift(3, ((1,) * 3,) * 3), True),
], ids=["full-shift", "golden-mean", "all-ones-vertex-shift"])
def test_a_shift_answers_whether_it_forbids_a_transition(shift, forbids_nothing):
    assert shift.forbids_nothing is forbids_nothing


@pytest.mark.parametrize("n", [2, 3])
def test_circle_multiplication_answers_its_digit_shift(n):
    assert CircleMult(n).digits == FullShift(n)
    assert FullShift(n).digits == FullShift(n)


def test_a_flow_answers_its_period():
    assert Suspension(FullShift(2), RoofFunction.constant(0.75)).period == 0.75
    assert CircleRotationFlow().period == TorusTranslation((0.3, 0.7)).period == 1.0
    with pytest.raises(ValueError, match="word-dependent"):
        Suspension(FullShift(2), RoofFunction(1, (1.0, 2.0), 2)).period
    with pytest.raises(TypeError, match="not a flow"):
        TimeTMap(CircleRotationFlow(), 0.5).period


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
    (SteeredBlocks(2, 1, (8, 16), (0.75, 0.75)), "transitions"),  # frequency 0.75 of 1 needs 11
    (SteeredBlocks(2, 0, (4, 5), (0.5, 0.4)), "transitions"),     # 1010 1, 11 where 1 repeats
    (SteeredBlocks(2, 1, (8, 16), (0.25, 0.25)), None),           # 0001 0001 ...
])
def test_a_vertex_shift_admits_only_streams_that_keep_its_transitions(rule, refused):
    if refused is None:
        GOLDEN.admits(Point(rule))
        FullShift(2).admits(Point(rule))
        return
    with pytest.raises(ValueError, match=refused):
        GOLDEN.admits(Point(rule))
    if refused == "transitions":        # every pair is allowed on the full shift
        FullShift(2).admits(Point(rule))


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
        got = mu.seeded(5).materialise(horizon)
    else:
        want = markov_walk_by_search(mu, _ScriptedUniforms(probs), horizon)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _ScriptedUniforms(probs))
        got = mu.seeded(0).materialise(horizon)
    assert np.array_equal(got, want)


# chains whose rows have zero entries, and a row whose cumulative sum rounds to
# 0.9999999999999999 (the last of DRAW_ROWS); the walk reads no stationarity
SCAN_CHAINS = {
    "k2": ((0.6, 0.4), (1.0, 0.0)),
    "k3-zeros": ((0.4, 0.0, 0.6), (0.5, 0.5, 0.0), (0.0, 0.0, 1.0)),
    "k4-below-one": ((1 / 6, 2 / 3, 1 / 6, 0.0), (0.0, 0.0, 0.0, 1.0),
                     (0.2, 0.0, 0.3, 0.5), (0.25, 0.25, 0.25, 0.25)),
}


def scan_chain(seed, rows):
    return SeededMarkov(seed, rows, (1 / len(rows),) * len(rows))


@pytest.mark.parametrize("rows", SCAN_CHAINS.values(), ids=SCAN_CHAINS.keys())
@pytest.mark.parametrize("chunk", [1, 63, 64, 1000, 4099])
def test_the_blocked_scan_walks_what_one_step_walks_across_chunks(rows, chunk, monkeypatch):
    # chunks of one step; of 63 and 64 steps, in blocks of one step; of 1,000
    # steps, in blocks of 3; and of 4,099 = 512 * 8 + 3, the last block partial
    monkeypatch.setattr(systems, "_PIECE", chunk)
    horizon = 2500 if chunk == 1 else 9000
    want = markov_walk_by_search(scan_chain(4, rows), np.random.default_rng(4), horizon)
    assert np.array_equal(scan_chain(4, rows).materialise(horizon), want)


def test_a_chain_of_130_states_walks_in_int16_tables(monkeypatch):
    rng = np.random.default_rng(9)
    weights = rng.random((130, 130)) * (rng.random((130, 130)) < 0.1)
    weights[:, 0] += 0.01
    rows = tuple(map(tuple, (weights / weights.sum(axis=1, keepdims=True)).tolist()))
    dtypes = []
    counted = systems._count_at_or_below
    monkeypatch.setattr(systems, "_count_at_or_below",
                        lambda *args: dtypes.append(args[2]) or counted(*args))
    monkeypatch.setattr(systems, "_PIECE", 2500)
    want = markov_walk_by_search(scan_chain(2, rows), np.random.default_rng(2), 6000)
    assert np.array_equal(scan_chain(2, rows).materialise(6000), want)
    assert set(dtypes) == {np.int16}


def test_a_chain_grown_in_the_middle_of_a_chunk_walks_on_from_its_state(monkeypatch):
    monkeypatch.setattr(systems, "_PIECE", 1000)
    rule = scan_chain(6, SCAN_CHAINS["k3-zeros"])
    for n in (1, 1500, 5000, 11000):             # buffers of 1,024, 2,048, 5,120 and 11,264
        rule.materialise(n)
        assert len(rule._buf["arr"]) % 1000 != 0
    want = markov_walk_by_search(rule, np.random.default_rng(6), 11000)
    assert np.array_equal(rule.materialise(11000), want)


# sha256 of int16 chain streams: a faster walk keeps every one bit for bit
@pytest.mark.parametrize("seed, digest", [
    (0, "787055a6a643ac2a1f5928c806bd825d312966ef10b5375739fd12b5ff05f977"),
    (1, "e15597cd5896a02a28012b36db1d07b59c6b2b51a3190d2726c4c582ab01ec9e"),
    (2, "a6f0abcf99ddb88eb2ccd03468bd83c919d9052a6c3ef8f4982cb5028628e162"),
])
def test_a_golden_mean_chain_stream_is_pinned(seed, digest):
    stream = SeededMarkov(seed, ((0.6, 0.4), (1.0, 0.0)), (5 / 7, 2 / 7)).materialise(1_000_003)
    assert hashlib.sha256(stream.tobytes()).hexdigest() == digest


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
    "seeded-markov": lambda: SeededMarkov(3, ((0.5, 0.0, 0.5), (0.2, 0.3, 0.5), (0.6, 0.4, 0.0)),
                                          (0.4, 0.2, 0.4)),
    # the golden mean's stages need junction and seam connectors; the last
    # stage (of words of length 7) ends at symbol 18,424, and its round repeats
    "stage-recipe": lambda: StageRecipe(((0.6, 0.4), (1.0, 0.0)), (5 / 7, 2 / 7),
                                        ((1, 1), (1, 0)), 3, 5000),
}


@pytest.mark.parametrize("make", GROWING_RULES.values(), ids=GROWING_RULES.keys())
def test_regrown_streams_keep_their_prefixes(make):
    rule = make()
    for n in (65539, 10, 200000, 70000):
        assert np.array_equal(rule.materialise(n), make().materialise(n))


@pytest.mark.parametrize("make", GROWING_RULES.values(), ids=GROWING_RULES.keys())
@given(n=st.integers(0, 20000), steps=st.lists(st.integers(1, 30000), min_size=1, max_size=4))
@settings(deadline=None, max_examples=15)
def test_a_prefix_is_the_start_of_every_longer_one(make, n, steps):
    """prefix(n) is prefix(4n)[:n], and a stream read in growing steps is the
    stream read at once."""
    assert np.array_equal(Point(make()).prefix(n), Point(make()).prefix(4 * n)[:n])
    grown, total = make(), 0
    for m in steps:
        total += m
        grown.materialise(total)
    assert np.array_equal(grown.materialise(total), make().materialise(total))


@given(name=st.sampled_from(sorted(GROWING_RULES)), offset=st.integers(0, 5000),
       lo=st.integers(0, 150_000), length=st.integers(0, 150_000),
       step=st.sampled_from([1, 7, 1000, 1 << 16]))
@settings(deadline=None, max_examples=60)
def test_the_pieces_of_a_read_are_its_materialised_slice(name, offset, lo, length, step):
    """A point at `offset` read over [lo, lo + length) from a fresh generator,
    in int16 pieces of at most `step`, reads what its cached stream holds."""
    if step < 1000:     # a chain walks from its start, one scan per piece
        offset, lo, length = offset % 300, lo % 3000, length % 3000
    rule = GROWING_RULES[name]()
    a, b = offset + lo, offset + lo + length
    pieces = list(rule.pieces(a, b, step))
    assert all(p.dtype == np.int16 and 0 < len(p) <= step for p in pieces)
    got = np.concatenate([np.empty(0, dtype=np.int16), *pieces])
    assert got.tobytes() == GROWING_RULES[name]().materialise(b)[a:].tobytes()
    assert "arr" not in rule._buf


def test_a_stream_is_built_as_long_as_asked_and_doubles_on_regrowth():
    rule = SeededIID(0, (0.3, 0.7))
    assert rule.materialise(65539).shape == (65539,)
    assert len(rule._buf["arr"]) == 66560          # 65 blocks of 1024
    rule.materialise(66561)
    assert len(rule._buf["arr"]) == 133120         # at least double
    rule.materialise(300000)
    assert len(rule._buf["arr"]) == 300032         # the length asked, rounded up


def test_the_growing_chain_stream_is_pinned():
    stream = GROWING_RULES["seeded-markov"]().materialise(600_001)
    assert hashlib.sha256(stream.tobytes()).hexdigest() == \
        "30393a3d6f1c69bf2dc775fdd7a7991aba46f9b0a84029d25d638ca1e6eec096"


@pytest.mark.parametrize("name, digest", [
    ("block-schedule", "7a2933a1886fba364af67f54e3a934b4d492d5f94a21d9c6fab41687693bc634"),
    ("steered-blocks-2", "0e93f0a6a9a366fc24fb4b82399dfadc57d3e164beac2b8d0c734ee125dcf620"),
    ("steered-blocks-3", "13e1e8d696576fab061d3f468259c61050d36cf82313defb1b0a450122d3fec8"),
    ("stage-recipe", "e69455002c3685b2168f167d71310d539d095b09a202d5ef5bc53667c7dded79"),
])
def test_the_growing_block_streams_are_pinned(name, digest):
    """The sha256 of the first 300,001 symbols (int16 bytes) of each block
    rule, each past its last block end, where the last block repeats."""
    stream = GROWING_RULES[name]().materialise(300_001)
    assert stream.dtype == np.int16
    assert hashlib.sha256(stream.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("make", GROWING_RULES.values(), ids=GROWING_RULES.keys())
def test_a_stream_of_no_symbols_is_empty(make):
    rule = make()
    assert rule.materialise(0).shape == (0,)
    assert len(rule._buf["arr"]) == 1024


# ---------------------------------------------------------------------------
# every block rule counts and pairs as its stream

# stage recipes whose streams hold every step their adjacency allows
STAGE_CHAINS = [
    (((0.3, 0.7), (0.3, 0.7)), (0.3, 0.7), ((1, 1), (1, 1)), 2, 300),
    (((0.6, 0.4), (1.0, 0.0)), (5 / 7, 2 / 7), ((1, 1), (1, 0)), 2, 400),
    (((0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5)), (1 / 3, 1 / 3, 1 / 3),
     ((1, 1, 0), (1, 0, 1), (0, 1, 1)), 1, 300),
]


@st.composite
def steered_recipes(draw):
    """A feasible `SteeredBlocks`: each block's want lies in 0..its length."""
    k = draw(st.integers(2, 4))
    lengths = draw(st.lists(st.integers(1, 60), min_size=1, max_size=5))
    ends, targets, count = [], [], 0
    for length in lengths:
        ends.append((ends[-1] if ends else 0) + length)
        count += draw(st.integers(0, length))
        targets.append(count / ends[-1])
    return SteeredBlocks(k, draw(st.integers(0, k - 1)), tuple(ends), tuple(targets))


BLOCK_RULES = st.one_of(
    st.lists(st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=5).map(tuple),
                       st.integers(1, 5)), min_size=1, max_size=4)
    .map(lambda blocks: BlockSchedule(tuple(blocks))),
    steered_recipes(),
    st.sampled_from(STAGE_CHAINS).map(lambda fields: StageRecipe(*fields)),
)


@given(rule=BLOCK_RULES, data=st.data())
@settings(deadline=None, max_examples=80)
def test_a_block_rule_counts_and_pairs_as_its_stream(rule, data):
    """counts(n), before and past the last block end, is the running count of
    the stream, from no stream; pairs() are those of the stream read to twice
    the last end, where the last block has repeated."""
    end = sum(b.size * b.reps for b in rule._blocks())
    stream = rule._replace().materialise(2 * end)
    for n in data.draw(st.lists(st.integers(0, 2 * end), min_size=1, max_size=6)):
        got = rule.counts(n)
        assert got.dtype == np.int64
        assert got.tolist() == np.bincount(stream[:n], minlength=len(got)).tolist(), n
    assert "arr" not in rule._buf
    assert sorted(rule.pairs()) == sorted(set(zip(stream[:-1].tolist(), stream[1:].tolist())))


@pytest.mark.parametrize("name", ["block-schedule", "steered-blocks-3", "stage-recipe"])
def test_a_block_rule_read_part_way_is_freed_by_reference_counting(name):
    # a buffer holding the generator of the rule's own blocks, whose frame
    # holds the rule, is a cycle: it keeps a read stream alive until the cycle
    # collector runs
    rule = GROWING_RULES[name]()
    rule.materialise(100)
    rule.counts(200)
    gone = weakref.ref(rule)
    gc.disable()
    try:
        del rule
        assert gone() is None
    finally:
        gc.enable()


def test_a_block_schedule_refuses_a_negative_symbol():
    # a depth-1 read counts its blocks with np.bincount, which would raise its
    # own error before the reader could refuse the symbol as outside the alphabet
    with pytest.raises(ValueError, match="symbols >= 0"):
        BlockSchedule((((0, -1), 2),))


def test_a_constant_roof_reads_its_values_from_the_table_it_is_given():
    # the depth-0 roof gave its float value, so the entries read 0, 0.3, 0.6, ...
    entries = systems._entries(RoofFunction.constant(0.3), Point(ExplicitWord((0, 1))), [3], 10)
    assert entries.tolist() == [0, 3, 6, 9, 12, 15]


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


def test_a_scan_drawing_its_uniforms_in_pieces_walks_what_one_step_walks(monkeypatch):
    # pieces of 37 steps, one scan each drawing its own uniforms, across two regrowths
    monkeypatch.setattr(systems, "_PIECE", 37)
    rule = scan_chain(8, SCAN_CHAINS["k4-below-one"])
    for n in (700, 2500, 6000):
        rule.materialise(n)
    want = markov_walk_by_search(rule, np.random.default_rng(8), 6000)
    assert np.array_equal(rule.materialise(6000), want)
