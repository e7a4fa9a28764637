import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergode.systems import (
    BlockSchedule,
    DisjointUnion,
    ExplicitWord,
    FullShift,
    MarkovShift,
    Point,
    SteeredBlocks,
    random_point,
)
from ergode.measures import Bernoulli, Markov, TestFamily
from ergode.birkhoff import Schedule, classify_generic
from ergode.constructions import (
    GluingError,
    MistakeFunction,
    generic_point,
    glue_orbits,
    irregular_point,
    mistake_ball_membership,
)

from metrics import distance, metric_for
from stepping import iterate

GOLDEN_MEAN = MarkovShift(2, ((1, 1), (1, 0)))


# ---------------------------------------------------------------------------
# mistake functions


def is_zero(g: MistakeFunction) -> bool:
    return all(c == 0.0 for _, c in g.coeff_table)


def first_time_with_budget(g: MistakeFunction, eps: float, amount: float,
                           cap: int = 1 << 62) -> int:
    """Smallest integer t with g.budget(t, eps) >= amount.

    Bisection on the monotone predicate; a closed-form guess would need a
    float-plateau walk at large t, which can spin."""
    if amount <= 0:
        return 0
    if g.coefficient(eps) == 0.0:
        raise ValueError("a zero budget never reaches a positive amount")
    if g.budget(cap, eps) < amount:
        raise ValueError("budget never reaches the requested amount")
    hi = 1
    while g.budget(hi, eps) < amount:
        hi = min(hi * 2, cap)
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if g.budget(mid, eps) >= amount:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_power_budget_closed_form():
    g = MistakeFunction.power(2.0, 0.5)
    assert g.budget(100, 0.3) == pytest.approx(2.0 * 10.0)
    assert g.coefficient(0.3) == 2.0
    assert not is_zero(g)


def test_zero_budget():
    g = MistakeFunction.zero()
    assert is_zero(g)
    assert g.budget(10**6, 0.1) == 0.0


def test_log_budget_closed_form():
    g = MistakeFunction("log", ((1.0, 1.5),))
    assert g.budget(100, 0.5) == pytest.approx(1.5 * math.log(101))


def test_coefficient_table_lookup_uses_coarsest_admissible_entry():
    g = MistakeFunction("power", ((0.25, 2.0), (0.5, 1.0)), beta=0.5)
    assert g.coefficient(0.3) == 2.0     # grid point 0.25 <= 0.3 < 0.5
    assert g.coefficient(0.9) == 1.0
    with pytest.raises(ValueError):
        MistakeFunction("power", ((0.5, 1.0), (0.25, 2.0)), beta=0.5)
    with pytest.raises(ValueError):
        MistakeFunction("power", ((0.25, 1.0), (0.5, 2.0)), beta=0.5)


@given(st.floats(0.5, 4.0), st.floats(0.25, 0.9), st.floats(1.0, 200.0))
@settings(deadline=None, max_examples=60)
def test_first_time_with_budget_is_minimal(coeff, beta, amount):
    g = MistakeFunction.power(coeff, beta)
    t = first_time_with_budget(g, 0.5, amount)
    assert g.budget(t, 0.5) >= amount
    if t > 0:
        assert g.budget(t - 1, 0.5) < amount


def test_first_time_with_budget_at_plateau_scale():
    # t around 8.1e17: per-step budget increments vanish in floats, so a
    # guess-and-walk search would spin here
    g = MistakeFunction.power(1.0, 0.25)
    t = first_time_with_budget(g, 0.5, 30000.0)
    assert g.budget(t, 0.5) >= 30000.0
    assert g.budget(t - 1, 0.5) < 30000.0


def test_first_time_with_budget_handles_flat_budgets():
    g = MistakeFunction.power(3.0, 0.0)
    assert first_time_with_budget(g, 0.5, 2.0) == 0
    with pytest.raises(ValueError):
        first_time_with_budget(g, 0.5, 10.0)


def test_first_time_with_budget_respects_the_time_cap():
    g = MistakeFunction.power(0.25, 0.125)
    with pytest.raises(ValueError):
        first_time_with_budget(g, 0.5, 54.0)     # needs t just past 2**62


# ---------------------------------------------------------------------------
# mistake balls


def exact_bowen_ball(system, x, y, n, eps, horizon=64):
    m = metric_for(system)
    return all(
        distance(m, iterate(system, x, i), iterate(system, y, i), horizon).value <= eps
        for i in range(n)
    )


def test_zero_budget_ball_equals_exact_bowen_ball():
    fs = FullShift(2)
    rng = np.random.default_rng(7)
    g0 = MistakeFunction.zero()
    for _ in range(300):
        x = random_point(fs, rng)
        y = random_point(fs, rng)
        rep = mistake_ball_membership(fs, x, y, 10, 0.25, g0)
        assert rep.member == exact_bowen_ball(fs, x, y, 10, 0.25)


def test_mistake_ball_tolerates_budgeted_mismatches():
    fs = FullShift(2)
    x = Point(ExplicitWord((0, 1, 0, 1, 0, 1, 0, 1)))
    y = Point(ExplicitWord((0, 1, 1, 1, 0, 1, 0, 1)))  # one flipped symbol
    tight = mistake_ball_membership(fs, x, y, 8, 0.5)
    assert not tight.member and tight.mismatches >= 1
    loose = mistake_ball_membership(fs, x, y, 8, 0.5, MistakeFunction.power(1.0, 0.4))
    assert loose.member


def test_a_mistake_ball_refuses_a_point_its_shift_forbids_before_reading():
    # a golden-mean point holding the forbidden pair 11 was called a member
    good, bad = Point(ExplicitWord((0, 1))), Point(ExplicitWord((1, 1, 1, 1)))
    for x, y in ((bad, bad), (good, bad)):
        with pytest.raises(ValueError, match=r"transitions \[\(1, 1\)\] are forbidden"):
            mistake_ball_membership(GOLDEN_MEAN, x, y, 8, 0.5)
    assert "arr" not in good.rule._buf


def test_a_component_tag_on_a_single_shift_names_no_side():
    # the tag was read as another union side: member=False, mismatches=10,
    # while glue_orbits counted no mistake for the same pair
    fs, word = FullShift(2), ExplicitWord((0, 1))
    rep = mistake_ball_membership(fs, Point(word, component=0), Point(word), 10, 0.75)
    assert (rep.member, rep.mismatches) == (True, 0)
    glued = glue_orbits(fs, [(Point(word, component=0), 6), (Point(word), 6)])
    assert glued.segment_mismatches == (0, 0) and glued.within_budget
    # on a union the tags still name two sides, which are far apart
    union = DisjointUnion(fs, fs)
    rep = mistake_ball_membership(union, Point(word, component=0), Point(word, component=1), 10, 0.75)
    assert (rep.member, rep.mismatches) == (False, 10)


@pytest.mark.parametrize("tags", [(None, 0), (0, None), (None, None)])
def test_a_mistake_ball_on_a_union_refuses_an_untagged_point(tags):
    # an untagged and a tagged copy of (0, 1) read member=False, mismatches=10,
    # and two untagged copies member=True, though neither names its side
    union, word = DisjointUnion(FullShift(2), FullShift(2)), ExplicitWord((0, 1))
    x, y = (Point(word, component=c) for c in tags)
    with pytest.raises(ValueError, match="an untagged point names no side of DisjointUnion"):
        mistake_ball_membership(union, x, y, 10, 0.75)
    rep = mistake_ball_membership(union, Point(word, component=1), Point(word, component=1), 10, 0.75)
    assert (rep.member, rep.mismatches) == (True, 0)


# ---------------------------------------------------------------------------
# gluing


def test_full_shift_glues_with_no_connectors():
    fs = FullShift(2)
    segs = [(Point(ExplicitWord((0, 1, 1, 0))), 4), (Point(ExplicitWord((1, 1, 0, 0))), 4)]
    out = glue_orbits(fs, segs)
    assert out.connector_lengths == (0,)
    assert out.segment_mismatches == (0, 0)
    assert out.within_budget
    assert list(out.point.prefix(8)) == [0, 1, 1, 0, 1, 1, 0, 0]


def test_golden_mean_glue_repairs_forbidden_junctions():
    # ...1 followed by 1... needs a 0 spliced in; the splice costs one mismatch
    segs = [(Point(ExplicitWord((0, 1))), 6), (Point(ExplicitWord((1, 0))), 6)]
    g = MistakeFunction.power(1.0, 0.1)
    out = glue_orbits(GOLDEN_MEAN, segs, eps=0.75, g=g)
    assert out.within_budget
    assert sum(out.connector_lengths) >= 1
    word = out.point.prefix(12)
    adj = ((1, 1), (1, 0))
    assert all(adj[word[i]][word[i + 1]] for i in range(11))


def test_glued_segments_stay_in_their_mistake_balls():
    segs = [
        (Point(ExplicitWord((0, 1))), 6),
        (Point(ExplicitWord((1, 0))), 6),
        (Point(ExplicitWord((0, 0))), 6),
    ]
    g = MistakeFunction.power(1.0, 0.1)
    out = glue_orbits(GOLDEN_MEAN, segs, eps=0.75, g=g)
    start = 0
    for (xj, tj), mm in zip(segs, out.segment_mismatches):
        rep = mistake_ball_membership(GOLDEN_MEAN, xj, iterate(GOLDEN_MEAN, out.point, start), tj, 0.75, g)
        assert rep.member
        assert rep.mismatches == mm
        start += tj


def test_glue_reports_budget_violation_with_zero_budget():
    segs = [(Point(ExplicitWord((0, 1))), 6), (Point(ExplicitWord((1, 0))), 6)]
    out = glue_orbits(GOLDEN_MEAN, segs)
    assert sum(out.segment_mismatches) == 1
    assert not out.within_budget


def test_glue_refuses_a_segment_its_shift_forbids_before_reading_any():
    # the glue read every segment and refused only the glued word, with a GluingError
    good, bad = Point(ExplicitWord((0, 1))), Point(ExplicitWord((1, 1, 1, 1)))
    with pytest.raises(ValueError, match=r"transitions \[\(1, 1\)\] are forbidden"):
        glue_orbits(GOLDEN_MEAN, [(good, 4), (bad, 4)])
    assert "arr" not in good.rule._buf


def test_a_glued_word_on_a_vertex_shift_joins_its_end_to_its_start():
    # the 16-symbol glued word starts and ends with 1, and repeats, so its own
    # shift refused it: transitions [(1, 1)] are forbidden
    segs = [(Point(ExplicitWord((1, 0))), 4), (Point(ExplicitWord((0, 1))), 3)]
    out = glue_orbits(GOLDEN_MEAN, segs, eps=0.75)
    word = out.point.rule.symbols
    assert word[:16] == (1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1) and word[16:] == (0,)
    GOLDEN_MEAN.admits(out.point)
    rep = mistake_ball_membership(GOLDEN_MEAN, segs[0][0], out.point, 4, 0.75, MistakeFunction.zero())
    assert rep.mismatches == out.segment_mismatches[0]


@pytest.mark.parametrize("eps", [0.0, -1.0])
def test_a_resolution_that_is_not_positive_is_refused(eps):
    # the glue raised ZeroDivisionError at eps 0 and a math domain error below it
    w = Point(ExplicitWord((0, 1)))
    with pytest.raises(ValueError, match="eps must be positive"):
        glue_orbits(FullShift(2), [(w, 4), (w, 4)], eps=eps)
    with pytest.raises(ValueError, match="eps must be positive"):
        mistake_ball_membership(FullShift(2), w, w, 4, eps)


def test_glue_fails_when_no_connector_exists():
    # states 0 -> {0,1}, 1 -> {1}: once in 1 there is no path back to 0
    one_way = MarkovShift(2, ((1, 1), (0, 1)))
    segs = [(Point(ExplicitWord((1, 1, 1, 1))), 4), (Point(ExplicitWord((0, 0, 0, 0))), 4)]
    with pytest.raises(GluingError):
        glue_orbits(one_way, segs)


# ---------------------------------------------------------------------------
# generic and irregular points


def test_deterministic_block_point_tracks_target_frequency():
    mu = Bernoulli((0.3, 0.7))
    x = generic_point(FullShift(2), mu, "deterministic-blocks", seed=0)
    freq = (x.prefix(100000) == 1).mean()
    assert freq == pytest.approx(0.7, abs=0.005)


def test_generic_point_seeded_kind_is_reproducible():
    mu = Bernoulli((0.5, 0.5))
    a = generic_point(FullShift(2), mu, "seeded-iid", seed=5)
    b = generic_point(FullShift(2), mu, "seeded-iid", seed=5)
    assert np.array_equal(a.prefix(64), b.prefix(64))


def markov_reference(mu, seed, horizon):
    """The chain walk one symbol and one uniform at a time, with the same
    draws as the chain's seeded rule."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(np.asarray(mu.transitions), axis=1)
    out = np.empty(horizon, dtype=np.int64)
    state = int(np.searchsorted(np.cumsum(mu.stationary), rng.random(), side="right"))
    for i in range(horizon):
        out[i] = state
        state = int(np.searchsorted(cum[state], rng.random(), side="right"))
    return out


GOLDEN_MEAN_CHAIN = Markov.from_transitions(((0.6, 0.4), (1.0, 0.0)))
# the first row's cumulative sum is 0.9999999999999999
THREE_STATE_CHAIN = Markov.from_transitions(
    ((0.7, 0.2, 0.1), (0.3, 0.3, 0.4), (0.5, 0.25, 0.25)))
# 0 never steps to 1, nor 2 to 2
ZERO_STEP_CHAIN = Markov.from_transitions(((0.5, 0.0, 0.5), (0.2, 0.3, 0.5), (0.6, 0.4, 0.0)))


@pytest.mark.parametrize("mu", [GOLDEN_MEAN_CHAIN, THREE_STATE_CHAIN, ZERO_STEP_CHAIN])
@pytest.mark.parametrize("horizon", [1, 2, 3, 1000, (1 << 18) + 1])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_markov_walk_matches_the_per_step_loop(mu, horizon, seed):
    word = mu.seeded(seed).materialise(horizon)
    assert word.dtype == np.int16
    assert np.array_equal(word, markov_reference(mu, seed, horizon))


@pytest.mark.parametrize("mu", [GOLDEN_MEAN_CHAIN, ZERO_STEP_CHAIN])
@pytest.mark.parametrize("seed", [0, 14])
def test_a_regrown_markov_walk_matches_the_per_step_loop(mu, seed):
    """Each regrowth draws only the new uniforms and walks on from the state
    after the last one built."""
    rule, want = mu.seeded(seed), markov_reference(mu, seed, 100_000)
    for n in (1, 1025, 5000, 70_001, 100_000):
        assert np.array_equal(rule.materialise(n), want[:n]), n
        assert len(rule._buf["arr"]) < 2 * n + 1024        # built only as far as read


@pytest.mark.parametrize("seed", [14, 28])
def test_a_seeded_golden_mean_point_keeps_to_its_shift(seed):
    """At these seeds the first 262,144 states start and end in state 1: a
    point that repeats them holds 11 at every period, which the shift forbids."""
    x = generic_point(GOLDEN_MEAN, GOLDEN_MEAN_CHAIN, "seeded-iid", seed=seed, horizon=1 << 18)
    GOLDEN_MEAN.admits(x)
    word = x.prefix(10 ** 6)
    assert not ((word[:-1] == 1) & (word[1:] == 1)).any()


@pytest.mark.parametrize("system, mu, digest", [
    (FullShift(2), Bernoulli((0.3, 0.7)),
     "37a7264dfbe5cdf4405ad9cb44f738471a981cb72ed05b312bd7fa581ad0b216"),
    (GOLDEN_MEAN, GOLDEN_MEAN_CHAIN,
     "65064d505e95679069a8b93b28c67fe54a8aa38f7233792cbcef0f56923e4a58"),
])
def test_the_stage_recipe_streams_the_block_schedule_it_replaces(system, mu, digest):
    """The sha256 of the first 3,000,000 symbols (int16 bytes) of the default
    generic point, pinned from the `BlockSchedule` of every stage up to the
    horizon that it was built as before: the streams are bit-identical."""
    x = generic_point(system, mu, "deterministic-blocks")
    assert hashlib.sha256(x.prefix(3_000_000).astype(np.int16).tobytes()).hexdigest() == digest


def test_a_stage_read_builds_no_round_past_the_stages_it_reads(monkeypatch):
    """A 4,098-symbol read (a 5,120-symbol buffer) lays stages 0-2, of rounds
    of words of length 6, 7 and 8, and reads the seam into stage 3 from its
    first symbol alone: round 9 is never built.  Each round is built once,
    and the recipe keeps one chain."""
    from ergode.constructions import StageRecipe
    built, build = [], StageRecipe._round

    def recorded(self, L, count):
        built.append(L)
        return build(self, L, count)

    monkeypatch.setattr(StageRecipe, "_round", recorded)
    x = generic_point(FullShift(2), Bernoulli((0.5, 0.5)))
    chain = x.rule.chain
    assert len(x.prefix(4098)) == 4098
    assert built == [6, 7, 8]
    assert x.rule.chain is chain
    x.prefix(12_000)        # past stage 2's end at 10,368
    assert built == [6, 7, 8, 9]


@pytest.mark.parametrize("system, mu", [
    (FullShift(2), Bernoulli((0.3, 0.7))), (FullShift(3), Bernoulli((0.2, 0.3, 0.5))),
    (GOLDEN_MEAN, GOLDEN_MEAN_CHAIN)], ids=["full-2", "full-3", "golden-mean"])
def test_each_stage_count_extends_the_last_levels_masses_to_the_same_bits(system, mu):
    """The copies of each word per round, level by level from depth 1 to 12, are
    those of the cylinder masses built from depth 1 at each level."""
    from itertools import islice
    rule = generic_point(system, mu, "deterministic-blocks", first_stage=1).rule
    k = len(rule.stationary)
    for L, count in enumerate(islice(rule._counts(), 12), start=1):
        cum = np.floor(np.cumsum(rule.chain.cylinder_masses(k, L)) * k ** L + 1e-9)
        assert np.array_equal(count, np.diff(cum, prepend=0.0).astype(np.int64)), L
        assert count.dtype == np.int64 and count.sum() == k ** L


def test_golden_mean_block_point_is_admissible_and_generic():
    """Stage rounds of a vertex shift get junction and seam connectors."""
    x = generic_point(GOLDEN_MEAN, GOLDEN_MEAN_CHAIN, "deterministic-blocks")
    word = x.prefix(1 << 20)
    assert not ((word[:-1] == 1) & (word[1:] == 1)).any()
    fam = TestFamily.default_for(GOLDEN_MEAN, depth=3)
    sched = Schedule((1 << 16, 1 << 18, 1 << 20))
    verdict = classify_generic(GOLDEN_MEAN, x, GOLDEN_MEAN_CHAIN, fam, sched, 0.02)
    assert verdict.label == "Generic"


# a vertex shift whose rounds end in 2 and start with 0, where 2 -> 0 is
# forbidden: every stage seam and many junctions inside a round need a connector
SEAMED = MarkovShift(3, ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
SEAMED_CHAIN = Markov.from_transitions(((0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5)))


@pytest.mark.parametrize("system, mu, shape, digest", [
    (GOLDEN_MEAN, GOLDEN_MEAN_CHAIN, [(9, 1), (24, 2), (66, 4), (163, 8), (390, 16)],
     "3c255d3781f484c2f273b64db79ec31b6a308dc8aef11b180ff338ec5538ebcb"),
    (SEAMED, SEAMED_CHAIN, [(20, 1), (90, 2), (343, 4), (1296, 8)],
     "8722ef2ee0310fbe153edcae26c4bc2b1207be298e2f4b873c3ef1f6b910488f"),
])
def test_block_schedule_of_a_vertex_shift_is_as_pinned(system, mu, shape, digest):
    """The stage rounds, their junction connectors and their seam connectors,
    pinned by each block's (length, repeats) and the sha256 of the blocks' repr."""
    recipe = generic_point(system, mu, "deterministic-blocks", horizon=3000, first_stage=2).rule
    blocks = tuple((tuple(b.word.tolist()), b.reps) for b in recipe._blocks())
    assert [(len(pattern), reps) for pattern, reps in blocks] == shape
    assert hashlib.sha256(repr(blocks).encode()).hexdigest() == digest
    system.admits(Point(BlockSchedule(blocks)))


def test_markov_walk_of_no_steps_is_empty():
    assert GOLDEN_MEAN_CHAIN.seeded(0).materialise(0).shape == (0,)


class _TopUniforms:
    """A generator whose every uniform is 1 - 2**-53, the largest below 1."""

    def __init__(self, seed):
        pass

    def random(self, size=None):
        top = 1.0 - 2.0 ** -53
        return top if size is None else np.full(size, top)


def test_markov_walk_stays_in_the_alphabet_when_a_row_sums_below_one(monkeypatch):
    row = (0.7, 0.2, 0.1)
    assert np.cumsum(row)[-1] == 1.0 - 2.0 ** -53
    mu = Markov((row, row, row), row)
    monkeypatch.setattr(np.random, "default_rng", _TopUniforms)
    assert mu.seeded(0).materialise(5).tolist() == [2] * 5


def test_irregular_point_steers_frequency_exactly_at_block_ends():
    rec = irregular_point(FullShift(2), 0, 0.3, 0.7, first_block=8, ratio=4)
    word = rec.point.prefix(rec.block_ends[5])
    for end, target in zip(rec.block_ends[:6], rec.targets[:6]):
        freq = (word[:end] == 0).mean()
        assert freq == pytest.approx(round(target * end) / end, abs=1e-12)


def test_the_default_irregular_stream_is_pinned_past_its_horizon():
    """The sha256 of the first 2**22 symbols (int16 bytes) of the default
    irregular point, whose last block ends at 2,796,200 and then repeats."""
    rec = irregular_point(FullShift(2), 0, 0.2, 0.65)
    assert rec.block_ends[-1] < 1 << 22
    stream = rec.point.prefix(1 << 22)
    assert hashlib.sha256(stream.astype(np.int16).tobytes()).hexdigest() == \
        "97acd850f71fd5a766189927b7a41b99a67bc40ef30cc48d1aec0cdf061cfec2"


def test_irregular_targets_alternate():
    rec = irregular_point(FullShift(2), 0, 0.3, 0.7, ratio=4)
    assert rec.targets[:4] == (0.3, 0.7, 0.3, 0.7)
    assert rec.block_ends[0] < rec.block_ends[1] < rec.block_ends[2]


def test_irregular_point_validates_inputs():
    with pytest.raises(ValueError):
        irregular_point(FullShift(2), 0, -0.2, 0.5)
    with pytest.raises(ValueError):
        irregular_point(FullShift(2), 0, 0.7, 0.3)
    with pytest.raises(TypeError):
        irregular_point(GOLDEN_MEAN, 0, 0.3, 0.7)


def steered_reference(k, symbol, ends, targets, n):
    """The steering rule of `SteeredBlocks`, one symbol at a time."""
    others = [s for s in range(k) if s != symbol]
    out, block = [], []
    count = start = 0
    for end, target in zip(ends, targets):
        if len(out) >= n:
            break
        length = end - start
        want = int(round(target * end)) - count
        block, filled = [], 0
        for j in range(1, length + 1):
            if (j * want) // length > ((j - 1) * want) // length:
                block.append(symbol)
            else:
                block.append(others[filled % len(others)])
                filled += 1
        out.extend(block)
        count += want
        start = end
    while len(out) < n:
        out.extend(block)
    return np.array(out[:n])


SUITE_RECIPES = [(0, 0.2, 0.65), (0, 0.3, 0.7), (1, 0.2, 0.65), (1, 0.3, 0.7)]


@pytest.mark.parametrize("symbol, lo, hi", SUITE_RECIPES)
def test_irregular_stream_matches_the_per_symbol_steering_rule(symbol, lo, hi):
    rec = irregular_point(FullShift(2), symbol, lo, hi, first_block=8, ratio=4)
    assert isinstance(rec.point.rule, SteeredBlocks)
    n = [e for e in rec.block_ends if e > 10 ** 4][2]
    ref = steered_reference(2, symbol, rec.block_ends, rec.targets, n)
    assert np.array_equal(rec.point.prefix(n), ref)


def test_steered_blocks_repeat_the_last_block_and_cycle_the_other_symbols():
    # ends stop at 10920, so most of the prefix is the last block repeated
    rec = irregular_point(FullShift(3), 1, 0.3, 0.7, ratio=4, horizon=10 ** 4)
    rule = rec.point.rule
    assert rule.ends[-1] == 10920
    ref = steered_reference(3, 1, rule.ends, rule.targets, 174760)
    assert np.array_equal(rec.point.prefix(174760), ref)
    assert set(ref[:rule.ends[0]].tolist()) == {0, 1, 2}


def test_steered_blocks_grow_to_the_same_prefix():
    symbol, lo, hi = SUITE_RECIPES[1]
    rec = irregular_point(FullShift(2), symbol, lo, hi)
    n = 50000
    grown = SteeredBlocks(2, symbol, rec.block_ends, rec.targets)
    grown.materialise(n)
    once = SteeredBlocks(2, symbol, rec.block_ends, rec.targets)
    assert np.array_equal(grown.materialise(4 * n), once.materialise(4 * n))


@pytest.mark.parametrize("k, symbol", [(2, 0), (2, 1), (3, 0), (3, 2)])
def test_steered_blocks_longer_than_a_chunk_match_the_per_symbol_rule(k, symbol):
    # the second block starts mid-chunk and spans several write chunks
    ends, targets = (1000, 201_000, 600_000), (0.3, 0.55, 0.3)
    rule = SteeredBlocks(k, symbol, ends, targets)
    n = 210_000
    assert 201_000 - 1000 > 1 << 16 and 1000 % (1 << 16) != 0
    assert np.array_equal(rule.materialise(n), steered_reference(k, symbol, ends, targets, n))


def test_steered_blocks_reject_infeasible_recipes():
    with pytest.raises(ValueError, match="infeasible"):
        SteeredBlocks(2, 0, (8, 40), (0.9, 0.05))
    with pytest.raises(ValueError):
        SteeredBlocks(2, 0, (8, 8), (0.25, 0.25))
    with pytest.raises(ValueError):
        SteeredBlocks(2, 2, (8,), (0.25,))


def test_oscillation_windows_cover_the_late_block_ends():
    rec = irregular_point(FullShift(2), 0, 0.3, 0.7, ratio=4)
    windows = rec.oscillation_windows(scales=4, slack=0.1)
    scales = [w[0] for w in windows.windows]
    assert scales == sorted(scales)
    assert set(scales) <= set(rec.block_ends)
    for scale, lo, hi in windows.windows:
        target = rec.targets[rec.block_ends.index(scale)]
        assert lo <= target <= hi
