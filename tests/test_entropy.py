import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergode.systems import (
    BudgetExhausted,
    CircleRotation,
    CircleRotationFlow,
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
)
from ergode.entropy import (
    ComponentWindow,
    FrequencyWindow,
    OscillationWindows,
    SampleCloud,
    WholeSpace,
    bowen_entropy_flow,
    bowen_entropy_symbolic,
    caratheodory_sum,
    spanning_entropy,
    word_count_rate,
    _markov_window_log_counts,
)

GOLDEN = (1 + 5**0.5) / 2
GOLDEN_MEAN = MarkovShift(2, ((1, 1), (1, 0)))
THREE_STATE = MarkovShift(3, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))


def in_window(freq, lo, hi):
    return lo - 1e-9 <= freq <= hi + 1e-9


def brute_window_count(k, n, symbol, lo, hi):
    return sum(
        in_window(w.count(symbol) / n, lo, hi)
        for w in itertools.product(range(k), repeat=n)
    )


# ---------------------------------------------------------------------------
# exact counting route


def test_whole_space_counts_are_powers():
    assert word_count_rate(FullShift(2), WholeSpace(), 10).count == 1024
    assert word_count_rate(FullShift(3), WholeSpace(), 5).count == 243


def test_golden_mean_counts_are_fibonacci():
    # admissible words of length n are F(n+2) of them
    fib = [1, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    for n in (1, 2, 3, 8, 12):
        assert word_count_rate(GOLDEN_MEAN, WholeSpace(), n).count == fib[n + 1]


@given(st.integers(2, 12), st.integers(0, 16), st.integers(0, 16))
@settings(deadline=None, max_examples=40)
def test_frequency_window_count_matches_enumeration(n, a, b):
    lo, hi = min(a, b) / 16, max(a, b) / 16
    got = word_count_rate(FullShift(2), FrequencyWindow(1, lo, hi), n).count
    assert got == brute_window_count(2, n, 1, lo, hi)


@given(st.integers(20, 64), st.integers(0, 64), st.integers(0, 64))
@settings(deadline=None, max_examples=40)
def test_frequency_window_count_matches_binomial_tail(n, i, j):
    lo_m, hi_m = sorted((min(i, n), min(j, n)))
    got = word_count_rate(FullShift(2), FrequencyWindow(0, lo_m / n, hi_m / n), n).count
    assert got == sum(math.comb(n, m) for m in range(lo_m, hi_m + 1))


def test_markov_window_count_matches_enumeration():
    adj = ((1, 1), (1, 0))
    for n in (4, 7, 10):
        got = word_count_rate(GOLDEN_MEAN, FrequencyWindow(1, 0.2, 0.5), n).count
        brute = sum(
            all(adj[w[i]][w[i + 1]] for i in range(n - 1))
            and in_window(w.count(1) / n, 0.2, 0.5)
            for w in itertools.product((0, 1), repeat=n)
        )
        assert got == brute


def test_oscillation_count_matches_enumeration():
    windows = ((4, 0.5, 1.0), (8, 0.0, 0.5))
    n = 11

    def ok(w):
        return all(in_window(w[:nj].count(0) / nj, lo, hi) for nj, lo, hi in windows)

    brute = sum(ok(w) for w in itertools.product((0, 1), repeat=n))
    got = word_count_rate(FullShift(2), OscillationWindows(0, windows), n).count
    assert got == brute


def window_counts(n, lo, hi):
    return [m for m in range(n + 1) if lo * n - 1e-9 <= m <= hi * n + 1e-9]


@st.composite
def full_shift_windows(draw):
    """(k, n, lo, hi) with random, empty, one-point and full windows."""
    k = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 3000))
    kind = draw(st.sampled_from(("random", "empty", "one-point", "full")))
    if kind == "full":
        return k, n, 0.0, 1.0
    m = draw(st.integers(0, n))
    if kind == "one-point":
        return k, n, m / n, m / n
    if kind == "empty":
        return k, n, min((m + 0.5) / n, 1.0), min((m + 0.5) / n, 1.0)
    m2 = draw(st.integers(0, n))
    return k, n, min(m, m2) / n, max(m, m2) / n


@given(full_shift_windows(), st.integers(0, 4))
@settings(deadline=None, max_examples=40)
def test_full_shift_window_count_is_the_binomial_sum(case, symbol):
    k, n, lo, hi = case
    got = word_count_rate(FullShift(k), FrequencyWindow(symbol % k, lo, hi), n).count
    assert got == sum(math.comb(n, m) * (k - 1) ** (n - m) for m in window_counts(n, lo, hi))


def markov_window_count_reference(system, depth, symbol, lo, hi):
    """Window count by one list of counts per (state, symbol count), one
    depth at a time: the plain dynamic program the packed-integer route
    replaces."""
    k, A = system.k, system.adjacency
    table = [[0] * (depth + 1) for _ in range(k)]
    for s in range(k):
        table[s][1 if s == symbol else 0] = 1
    for _ in range(depth - 1):
        nxt = [[0] * (depth + 1) for _ in range(k)]
        for s in range(k):
            for s2 in range(k):
                if A[s][s2]:
                    shift = 1 if s2 == symbol else 0
                    for m in range(depth + 1 - shift):
                        nxt[s2][m + shift] += table[s][m]
        table = nxt
    return sum(table[s][m] for s in range(k) for m in window_counts(depth, lo, hi))


@pytest.mark.parametrize("system, symbol, lo, hi", [
    (GOLDEN_MEAN, 1, 0.2, 0.3),
    (GOLDEN_MEAN, 0, 0.5, 0.5),
    (GOLDEN_MEAN, 1, 0.6, 0.7),
    (THREE_STATE, 2, 0.3, 0.34),
    (THREE_STATE, 0, 0.0, 1.0),
])
def test_exact_markov_window_counts_match_the_list_dynamic_program(system, symbol, lo, hi):
    window = FrequencyWindow(symbol, lo, hi)
    for n in (1, 2, 7, 136, 266, 396):
        got = word_count_rate(system, window, n).count
        assert got == markov_window_count_reference(system, n, symbol, lo, hi)


@pytest.mark.parametrize("system, symbol, lo, hi", [
    (GOLDEN_MEAN, 1, 0.2, 0.3),
    (THREE_STATE, 2, 0.3, 0.34),
    (THREE_STATE, 0, 0.0, 1.0),
])
def test_float_window_counts_on_a_grid_match_the_exact_counts(system, symbol, lo, hi):
    depths = (150, 7, 396, 40)
    per_depth = _markov_window_log_counts(system, depths, symbol, lo, hi)
    for n, lcs in zip(depths, per_depth):
        exact = word_count_rate(system, FrequencyWindow(symbol, lo, hi), n).count
        expected = math.log(exact) if exact else -math.inf
        assert np.logaddexp.reduce(lcs) == pytest.approx(expected, rel=1e-9)


def test_exact_markov_window_counts_past_depth_400_exhaust_the_budget():
    with pytest.raises(BudgetExhausted, match="depth 400"):
        word_count_rate(GOLDEN_MEAN, FrequencyWindow(1, 0.2, 0.3), 401)
    with pytest.raises(BudgetExhausted):
        spanning_entropy(GOLDEN_MEAN, FrequencyWindow(1, 0.2, 0.3), depths=(100, 395))


@pytest.mark.parametrize("system, window", [
    (GOLDEN_MEAN, FrequencyWindow(1, 0.2, 0.3)),
    (THREE_STATE, FrequencyWindow(2, 0.3, 0.34)),
    (FullShift(2), FrequencyWindow(0, 0.28, 0.32)),
])
@pytest.mark.parametrize("depths", [(500, 1000, 2000), (100, 50, 75)])
def test_a_depth_grid_reads_what_single_depths_read(system, window, depths):
    grid = bowen_entropy_symbolic(system, window, depths=depths)
    single = [bowen_entropy_symbolic(system, window, depths=(n,)).alphas[0] for n in depths]
    assert grid.alphas == tuple(single)
    flow = Suspension(system, RoofFunction.constant(2.0))
    grid = bowen_entropy_flow(flow, window, depths=depths)
    assert grid.alphas == tuple(bowen_entropy_flow(flow, window, depths=(n,)).alphas[0]
                                for n in depths)


def test_a_spanning_grid_reads_the_single_depth_counts():
    window = FrequencyWindow(1, 0.2, 0.3)
    est = spanning_entropy(GOLDEN_MEAN, window, depths=(100, 50, 75), resolution_bits=6)
    assert est.alphas == tuple(word_count_rate(GOLDEN_MEAN, window, n + 6).rate
                               for n in (100, 50, 75))


def test_spanning_needs_two_distinct_depths():
    for depths in ((40,), (100, 100)):
        with pytest.raises(ValueError, match="two distinct depths"):
            spanning_entropy(FullShift(2), FrequencyWindow(0, 0.2, 0.3), depths=depths)


def test_oscillation_scale_beyond_depth_is_rejected():
    with pytest.raises(ValueError):
        word_count_rate(FullShift(2), OscillationWindows(0, ((16, 0.0, 1.0),)), 8)


def test_sample_cloud_counts_distinct_prefixes():
    pts = (
        Point(ExplicitWord((0, 0, 1))),
        Point(ExplicitWord((0, 0, 1))),
        Point(ExplicitWord((1, 1, 0))),
    )
    assert word_count_rate(FullShift(2), SampleCloud(pts), 3).count == 2


def test_union_counts_add_and_split_by_component():
    du = DisjointUnion(FullShift(2), FullShift(3))
    assert word_count_rate(du, WholeSpace(), 4).count == 2**4 + 3**4
    assert word_count_rate(du, ComponentWindow(0.0, 0.4), 4).count == 2**4
    left = FrequencyWindow(1, 0.4, 0.6, component=0)
    assert word_count_rate(du, left, 4).count == brute_window_count(2, 4, 1, 0.4, 0.6)


# ---------------------------------------------------------------------------
# the Caratheodory sum over (log_count, span) groups


@given(st.lists(st.tuples(st.floats(-5.0, 40.0), st.integers(0, 12)), min_size=1, max_size=8),
       st.floats(0.0, 2.0), st.floats(0.0, 2.0))
@settings(deadline=None, max_examples=60)
def test_caratheodory_sum_nonincreasing_in_alpha(groups, a1, a2):
    lo, hi = sorted((a1, a2))
    assert caratheodory_sum(groups, hi) <= caratheodory_sum(groups, lo) + 1e-12


def test_caratheodory_sum_rejects_negative_alpha():
    with pytest.raises(ValueError):
        caratheodory_sum([(0.0, 1.0)], -0.1)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_caratheodory_sum_crosses_zero_at_the_full_shift_entropy(k):
    """The depth-n cover of the full shift is k**n cylinders of span n: one
    group (n log k, n), whose sum crosses 0 at the reported entropy."""
    n = 24
    alpha = bowen_entropy_symbolic(FullShift(k), WholeSpace(), depths=(n,)).value
    groups = [(n * math.log(k), float(n))]
    assert caratheodory_sum(groups, alpha) == pytest.approx(0.0, abs=1e-12)
    assert caratheodory_sum(groups, alpha - 1e-6) > 0.0 > caratheodory_sum(groups, alpha + 1e-6)


def test_flow_entropy_is_the_zero_of_the_caratheodory_sum():
    """Under the constant roof c each depth-n cylinder gives two flow boxes,
    fibers below c/2 and below c, of spans n c + c/4 - c/2 and n c + c/4 - c;
    the bisection stops where their sum crosses 0."""
    n, c = 30, 2.0
    est = bowen_entropy_flow(Suspension(FullShift(2), RoofFunction.constant(c)),
                             WholeSpace(), depths=(n,))
    groups = [(n * math.log(2), n * c - 0.25 * c), (n * math.log(2), n * c - 0.75 * c)]
    assert caratheodory_sum(groups, est.value) == pytest.approx(0.0, abs=1e-9)
    assert caratheodory_sum(groups, est.value - 1e-6) > 0.0 > caratheodory_sum(
        groups, est.value + 1e-6)


_UNIT_ROOF = Suspension(FullShift(2), RoofFunction.constant(1.0))


@pytest.mark.parametrize("estimate", [
    lambda depths: bowen_entropy_symbolic(FullShift(2), WholeSpace(), depths),
    lambda depths: bowen_entropy_flow(_UNIT_ROOF, WholeSpace(), depths),
    lambda depths: spanning_entropy(FullShift(2), WholeSpace(), depths, resolution_bits=0),
], ids=["symbolic", "flow", "spanning"])
@pytest.mark.parametrize("depths", [(0, 10), (-3, 10)])
def test_estimators_reject_depths_below_one(estimate, depths):
    with pytest.raises(ValueError, match="depths must be >= 1"):
        estimate(depths)


_ROTATIONS = DisjointUnion(CircleRotation(0.1), CircleRotation(0.2))


@pytest.mark.parametrize("estimator, space", [
    (bowen_entropy_symbolic, CircleRotationFlow()),
    (bowen_entropy_symbolic, TorusTranslation((0.3, 0.7))),
    (bowen_entropy_symbolic, _ROTATIONS),
    (bowen_entropy_flow, CircleRotation(0.3)),
    (bowen_entropy_flow, TimeTMap(CircleRotationFlow(), 0.5)),
    (bowen_entropy_flow, TimeTMap(TorusTranslation((0.3, 0.7)), 2.0)),
    (bowen_entropy_flow, _ROTATIONS),
    (spanning_entropy, CircleRotationFlow()),
    (spanning_entropy, TorusTranslation((0.3, 0.7))),
    (spanning_entropy, _ROTATIONS),
])
def test_every_isometric_kind_has_zero_entropy(estimator, space):
    """Each estimator asks the descriptor whether it is isometric, so no
    isometric kind is left to a missing backend."""
    est = estimator(space, WholeSpace())
    assert est.value == 0.0 and est.lower == 0.0
    assert est.flags == ("zero-expansion",)


# ---------------------------------------------------------------------------
# entropy estimates


def test_full_shift_entropy_is_exact_at_every_depth():
    est = bowen_entropy_symbolic(FullShift(2), WholeSpace(), depths=(5, 10, 20))
    assert est.value == pytest.approx(math.log(2), abs=1e-12)
    assert est.lower <= est.value <= est.upper


def test_two_routes_agree_on_full_shifts():
    for k in (2, 3):
        a = bowen_entropy_symbolic(FullShift(k), WholeSpace())
        b = spanning_entropy(FullShift(k), WholeSpace())
        assert a.value == pytest.approx(math.log(k), abs=0.02)
        assert b.value == pytest.approx(math.log(k), abs=0.02)


def test_golden_mean_entropy_hits_log_golden_ratio():
    est = bowen_entropy_symbolic(GOLDEN_MEAN, WholeSpace())
    assert est.value == pytest.approx(math.log(GOLDEN), abs=1e-6)


def test_rotation_entropy_is_zero_by_isometry():
    est = spanning_entropy(CircleRotation(0.37), WholeSpace())
    assert est.value == 0.0
    assert "zero-expansion" in est.flags


def test_frequency_window_entropy_interpolates():
    # binomial rate: the window entropy is H(p) at the edge nearest 1/2
    wide = bowen_entropy_symbolic(FullShift(2), FrequencyWindow(1, 0.4, 0.6), depths=(400,))
    thin = bowen_entropy_symbolic(FullShift(2), FrequencyWindow(1, 0.05, 0.15), depths=(400,))
    h_edge = -(0.15 * math.log(0.15) + 0.85 * math.log(0.85))
    assert wide.value == pytest.approx(math.log(2), abs=0.01)
    assert thin.value == pytest.approx(h_edge, abs=0.01)


@given(st.floats(0.05, 0.45), st.floats(0.0, 0.2))
@settings(deadline=None, max_examples=20)
def test_nested_windows_give_monotone_entropy(lo, pad):
    inner = FrequencyWindow(1, lo, 1 - lo)
    outer = FrequencyWindow(1, max(lo - pad, 0.0), min(1 - lo + pad, 1.0))
    ei = bowen_entropy_symbolic(FullShift(2), inner, depths=(120,))
    eo = bowen_entropy_symbolic(FullShift(2), outer, depths=(120,))
    assert ei.value <= eo.value + 1e-9


def test_empty_window_reports_zero_with_flag():
    union = DisjointUnion(FullShift(2), FullShift(2))
    est = bowen_entropy_symbolic(union, ComponentWindow(0.25, 0.75))
    assert est.value == 0.0
    assert "empty-cover" in est.flags


def test_union_whole_space_entropy_is_the_max_of_sides():
    union = DisjointUnion(FullShift(2), FullShift(3))
    est = bowen_entropy_symbolic(union, WholeSpace(), depths=(60, 120))
    assert est.value == pytest.approx(math.log(3), abs=0.02)


def test_flow_entropy_scales_inversely_with_roof():
    base = FullShift(2)
    unit = bowen_entropy_flow(Suspension(base, RoofFunction.constant(1.0)))
    twice = bowen_entropy_flow(Suspension(base, RoofFunction.constant(2.0)))
    assert unit.value == pytest.approx(math.log(2), abs=0.02)
    assert twice.value == pytest.approx(math.log(2) / 2, abs=0.02)


def test_time_t_map_entropy_with_integer_stride_is_exact():
    flow = Suspension(FullShift(2), RoofFunction.constant(1.0))
    est = bowen_entropy_symbolic(TimeTMap(flow, 2.0), WholeSpace(), depths=(10, 20, 30))
    assert est.value == pytest.approx(2 * math.log(2), abs=1e-9)


def test_time_t_map_entropy_with_fractional_stride_converges():
    flow = Suspension(FullShift(2), RoofFunction.constant(1.0))
    est = bowen_entropy_symbolic(TimeTMap(flow, 0.5), WholeSpace(), depths=(64, 128, 256))
    assert est.value == pytest.approx(0.5 * math.log(2), abs=0.02)


def test_word_count_rate_rejects_nonsense():
    with pytest.raises(ValueError):
        word_count_rate(FullShift(2), WholeSpace(), 0)
    with pytest.raises(TypeError):
        word_count_rate(CircleRotation(0.1), WholeSpace(), 4)


def test_spanning_budget_exhaustion():
    with pytest.raises(BudgetExhausted):
        spanning_entropy(FullShift(2), WholeSpace(), depths=(200,), budget=64)


def test_estimate_brackets_contain_the_value():
    for est in (
        bowen_entropy_symbolic(FullShift(3), WholeSpace()),
        bowen_entropy_symbolic(GOLDEN_MEAN, FrequencyWindow(1, 0.1, 0.4), depths=(60, 120, 240)),
        spanning_entropy(GOLDEN_MEAN, WholeSpace()),
    ):
        assert est.lower <= est.value <= est.upper
