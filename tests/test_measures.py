import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergode.systems import (
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
    Mixture,
    TestFamily,
    TimeAveraged,
    TimeShifted,
    check_invariance,
    compose_with_flow,
    evaluate,
    integrate,
    metric_entropy,
    pushforward,
    time_average_measure,
)

GOLDEN = (1 + 5**0.5) / 2

# frozen closed forms
H_37 = 0.6108643020548935            # -0.3 log 0.3 - 0.7 log 0.7
LOG_GOLDEN = 0.4812118250596035


def golden_mean_markov():
    p = (1 / GOLDEN, 1 / GOLDEN**2)
    pi = (GOLDEN**2 / (1 + GOLDEN**2), 1 / (1 + GOLDEN**2))
    return Markov((p, (1.0, 0.0)), pi)


def test_bernoulli_entropy_closed_form():
    assert metric_entropy(Bernoulli((0.3, 0.7)), FullShift(2)) == pytest.approx(H_37, abs=1e-14)
    assert metric_entropy(Bernoulli((0.5, 0.5)), FullShift(2)) == pytest.approx(math.log(2), abs=1e-14)


def test_markov_entropy_hits_log_golden_ratio():
    """The Parry measure on the golden-mean shift has maximal entropy."""
    gm = golden_mean_markov()
    sys = MarkovShift(2, ((1, 1), (1, 0)))
    assert metric_entropy(gm, sys) == pytest.approx(LOG_GOLDEN, abs=1e-12)


def test_markov_rejects_non_stationary_vector():
    with pytest.raises(ValueError):
        Markov(((0.5, 0.5), (0.5, 0.5)), (0.9, 0.1))


def test_markov_stationary_matches_eigenvector():
    # independent oracle: left Perron eigenvector of the transition matrix
    P = np.array([[0.6, 0.4], [0.2, 0.8]])
    w, v = np.linalg.eig(P.T)
    pi = np.real(v[:, np.argmax(np.real(w))])
    pi = pi / pi.sum()
    mu = Markov(tuple(map(tuple, P)), tuple(pi))
    assert integrate(mu, CylinderIndicator((1,))) == pytest.approx(pi[1], abs=1e-12)


def test_integrate_symbol_frequency_and_cylinder():
    mu = Bernoulli((0.3, 0.7))
    assert integrate(mu, CylinderIndicator((1,))) == pytest.approx(0.7)
    assert integrate(mu, CylinderIndicator((0, 1))) == pytest.approx(0.21)
    assert integrate(mu, Constant(2.5)) == 2.5


def test_integrate_harmonics_vanish_under_lebesgue():
    leb = Lebesgue()
    for q in (1, 2, 3):
        assert abs(integrate(leb, Harmonic(q))) < 1e-12
        assert abs(integrate(leb, Harmonic(q, "sin", offset=0.25))) < 1e-12


@pytest.mark.parametrize("flow, dim", [(CircleRotationFlow(), 1),
                                       (TorusTranslation((0.3, 0.7)), 2),
                                       (TorusTranslation((0.4,)), 1)])
def test_lebesgue_entropy_is_zero_under_every_isometric_flow(flow, dim):
    assert metric_entropy(Lebesgue(dim), flow) == 0.0
    assert metric_entropy(Mixture(((Lebesgue(dim), 0.5), (Lebesgue(dim), 0.5))), flow) == 0.0


def test_atomic_integration_is_a_weighted_sum():
    at = Atomic((Point(Coordinate((0.1,))), Point(Coordinate((0.3,)))), (0.25, 0.75))
    want = 0.25 * math.cos(2 * math.pi * 0.1) + 0.75 * math.cos(2 * math.pi * 0.3)
    assert integrate(at, Harmonic(1)) == pytest.approx(want, abs=1e-14)


def test_mixture_is_affine_in_both_integral_and_entropy():
    parts = ((Bernoulli((0.5, 0.5)), 0.5), (Bernoulli((0.1, 0.9)), 0.5))
    mix = Mixture(parts)
    assert integrate(mix, CylinderIndicator((1,))) == pytest.approx(0.7)
    want = 0.5 * math.log(2) + 0.5 * -(0.1 * math.log(0.1) + 0.9 * math.log(0.9))
    assert metric_entropy(mix, FullShift(2)) == pytest.approx(want, abs=1e-14)


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        Mixture(((Bernoulli((0.5, 0.5)), 0.3), (Bernoulli((0.1, 0.9)), 0.3)))


def test_time_averaged_measure_integrates_fiber_profiles():
    """The profile below is the identity along the fiber of one roof period,
    so the answer is the mean fiber 0.75."""
    susp = Suspension(FullShift(2), RoofFunction.constant(1.5))
    bar = time_average_measure(susp, Bernoulli((0.5, 0.5)))
    ramp = FiberProfile(Constant(1.0), ((0.0, 0.0), (1.5, 1.5)))
    assert integrate(bar, ramp) == 0.75


def test_time_averaged_measure_keeps_base_cylinder_mass():
    susp = Suspension(FullShift(2), RoofFunction.constant(2.0))
    mu = Bernoulli((0.3, 0.7))
    bar = time_average_measure(susp, mu)
    assert integrate(bar, CylinderIndicator((1,))) == pytest.approx(0.7, abs=1e-12)


@pytest.mark.parametrize("roof", [0.75, 1.0, 2.0])
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.booleans())
@settings(deadline=None, max_examples=15)
def test_a_fiber_blind_time_average_is_its_base_integral_to_the_bit(roof, a, b, markov):
    """An observable that reads no fiber has the mass c over [0, c), so it
    integrates as against the base chain."""
    flow = Suspension(FullShift(2), RoofFunction.constant(roof))
    base = Markov.from_transitions(((a, 1 - a), (b, 1 - b))) if markov else Bernoulli((a, 1 - a))
    bar = time_average_measure(flow, base)
    for n in range(1, 5):
        for word in itertools.product(range(2), repeat=n):
            phi = CylinderIndicator(word)
            assert integrate(bar, phi).hex() == integrate(base, phi).hex(), word


@pytest.mark.parametrize("roof, want", [(0.75, 7 / 12), (1.3, 0.5 / 1.3), (1.0, 0.5),
                                        (2.0, 0.25)])
def test_the_hat_integrates_to_its_mean_over_the_roof(roof, want):
    """The hat's knots 0.5 and 1 miss the 16 midpoint nodes of the roofs 0.75
    and 1.3, where the node rule read 0.583984375 and 0.384375."""
    flow = Suspension(FullShift(2), RoofFunction.constant(roof))
    bar = time_average_measure(flow, Bernoulli((0.5, 0.5)))
    hat = FiberProfile(Constant(1.0), ((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
    assert integrate(bar, hat) == pytest.approx(want, abs=1e-15)


def test_a_time_average_under_a_word_dependent_roof_is_refused():
    """The flow-invariant measure weighs each base point by its roof: under
    the roof (1, 2) the time share over symbol 0 is 1/3, where the midpoint
    average from the zero fiber read 0.375."""
    flow = Suspension(FullShift(2), RoofFunction(1, (1.0, 2.0), 2))
    with pytest.raises(ValueError, match="word-dependent"):
        integrate(time_average_measure(flow, Bernoulli((0.5, 0.5))), CylinderIndicator((0,)))
    with pytest.raises(ValueError, match="word-dependent"):
        TimeAveraged(flow, Bernoulli((0.5, 0.5)))


UNIT_ROOF_FLOW = Suspension(FullShift(2), RoofFunction.constant(1.0))


@pytest.mark.parametrize("base, error, match", [
    # else the cylinder [2] of a 2-letter shift integrates to 1/3
    (Bernoulli((1 / 3, 1 / 3, 1 / 3)), ValueError, "alphabet mismatch"),
    (Atomic((Point(ExplicitWord((0, 1))),), (1.0,)), ValueError, "not invariant"),
    (Atomic((Point(ExplicitWord((0,)), fiber=0.5),), (1.0,)), ValueError, "zero fiber"),
    (TimeShifted(UNIT_ROOF_FLOW, 0.5, Bernoulli((0.5, 0.5))), TypeError, "TimeShifted"),
], ids=["three-letters", "half-orbit", "fibered-atom", "time-shifted"])
def test_a_time_average_refuses_a_base_it_does_not_lift(base, error, match):
    """The closed form holds for an invariant base on the zero fiber only."""
    with pytest.raises(error, match=match):
        TimeAveraged(UNIT_ROOF_FLOW, base)


def exact_profile_integral(breakpoints, c):
    """The profile's integral over [0, c] in exact rationals: linear between
    breakpoints and constant outside them, so each knot-to-knot trapezoid is exact."""
    xs, ys = zip(*((Fraction(x), Fraction(y)) for x, y in breakpoints))
    c = Fraction(c)

    def f(s):
        if s <= xs[0]:
            return ys[0]
        if s >= xs[-1]:
            return ys[-1]
        i = next(i for i in range(len(xs) - 1) if xs[i] <= s <= xs[i + 1])
        return ys[i] + (ys[i + 1] - ys[i]) * (s - xs[i]) / (xs[i + 1] - xs[i])

    knots = sorted({Fraction(0), c, *(x for x in xs if 0 < x < c)})
    return sum(((f(a) + f(b)) / 2 * (b - a) for a, b in zip(knots, knots[1:])), Fraction(0))


def cylinder_mass(mu, word):
    """Mass of the cylinder [word]: a chain's stationary mass of the first
    symbol times its transitions, a mixture's weighted sum."""
    if isinstance(mu, Mixture):
        return sum(w * cylinder_mass(m, word) for m, w in mu.components)
    P = mu.transitions
    return mu.stationary[word[0]] * math.prod(P[a][b] for a, b in zip(word, word[1:]))


ROOF_VALUES = (0.3, 0.75, 1.0, 1.3, 2.0)
PROBS = st.floats(0.05, 0.95)
CHAINS = st.one_of(PROBS.map(lambda p: Bernoulli((p, 1.0 - p))), st.tuples(PROBS, PROBS).map(
    lambda ab: Markov.from_transitions(((ab[0], 1 - ab[0]), (ab[1], 1 - ab[1])))))
CHAIN_BASES = st.one_of(CHAINS, st.lists(st.tuples(CHAINS, st.floats(0.1, 1.0)), min_size=2,
                                         max_size=3).map(
    lambda mw: Mixture(tuple(zip((m for m, _ in mw), _unit(w for _, w in mw))))))
PROFILES = st.tuples(
    st.lists(st.floats(0.0, 2.5), min_size=2, max_size=5, unique=True).map(sorted),
    st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5),
).map(lambda xy: tuple(zip(xy[0], xy[1])))


@given(PROFILES, st.sampled_from(ROOF_VALUES), CHAIN_BASES,
       st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple))
@settings(deadline=None, max_examples=200)
def test_a_fiber_profile_integrates_to_its_exact_fiber_mean(bps, roof, base, word):
    """(1/c) * the profile's integral over [0, c), in rationals, times the
    cylinder's base mass: Abramov's lift of the base, with no quadrature."""
    bar = TimeAveraged(Suspension(FullShift(2), RoofFunction.constant(roof)), base)
    want = float(exact_profile_integral(bps, roof) / Fraction(roof)) * cylinder_mass(base, word)
    got = integrate(bar, FiberProfile(CylinderIndicator(word), bps))
    assert got == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("roof", ROOF_VALUES)
@given(CHAIN_BASES, st.data())
@settings(deadline=None, max_examples=20)
def test_the_time_average_is_invariant_to_the_bit(roof, base, data):
    """Moving the lift, or composing the observable, by a dyadic time up to two
    roofs leaves every integral's bits."""
    flow = Suspension(FullShift(2), RoofFunction.constant(roof))
    bar = TimeAveraged(flow, base)
    t = data.draw(st.integers(0, int(16 * roof)).map(lambda i: i / 8))
    for phi in (CylinderIndicator((0,)), CylinderIndicator((1, 0)),
                CylinderIndicator((0, 1, 1)), HAT):
        want = integrate(bar, phi).hex()
        assert integrate(pushforward(flow, t, bar), phi).hex() == want
        assert integrate(bar, compose_with_flow(flow, t, phi)).hex() == want


@pytest.mark.parametrize("read", [
    lambda flow, mu, phi: integrate(TimeShifted(flow, -0.2, mu), phi),
    lambda flow, mu, phi: integrate(mu, compose_with_flow(flow, -0.2, phi)),
], ids=["time-shifted", "composed"])
def test_negative_time_on_a_suspension_measure_is_refused(read):
    """A suspension's symbol streams are one-sided: both read 0.21, the
    unshifted integral, before the refusal."""
    flow = Suspension(FullShift(2), RoofFunction.constant(0.75))
    with pytest.raises(ValueError, match="suspension flows run forward in time only"):
        read(flow, Bernoulli((0.3, 0.7)), CylinderIndicator((0, 1)))


def test_fiber_profile_interpolates_breakpoints():
    tent = FiberProfile(Constant(1.0), ((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
    x = Point(ExplicitWord((0,)), fiber=0.25)
    assert evaluate(tent, x) == pytest.approx(0.5)


def test_default_family_size_and_budget():
    fam = TestFamily.default_for(FullShift(2), depth=2)
    assert len(fam.observables) == 6  # 2 one-cylinders + 4 two-cylinders
    with pytest.raises(BudgetExhausted):
        TestFamily.default_for(FullShift(2), depth=13)


def test_default_family_for_rotation_orders_harmonics():
    from ergode.systems import CircleRotation
    fam = TestFamily.default_for(CircleRotation(0.3), max_frequency=2)
    freqs = [(o.frequency, o.phase) for o in fam.observables]
    assert freqs == [(1, "cos"), (1, "sin"), (2, "cos"), (2, "sin")]


def test_weak_star_distance_separates_and_vanishes():
    fam = TestFamily.default_for(FullShift(2), depth=2)
    fair, skew = ([integrate(mu, phi) for phi in fam.observables]
                  for mu in (Bernoulli((0.5, 0.5)), Bernoulli((0.3, 0.7))))
    assert fam.distance(fair, fair) == 0.0
    assert fam.distance(fair, skew) == fam.distance(skew, fair) > 0.1


def test_component_tagged_observables_on_a_union():
    du = DisjointUnion(FullShift(2), FullShift(2))
    mix = Mixture((
        (Bernoulli((0.5, 0.5), component=0), 0.5),
        (Bernoulli((0.5, 0.5), component=1), 0.5),
    ))
    left_cyl = CylinderIndicator((1,), component=0)
    assert integrate(mix, left_cyl) == pytest.approx(0.25)
    x = Point(ExplicitWord((1, 0)), component=1)
    assert evaluate(left_cyl, x) == 0.0


# ---------------------------------------------------------------------------
# one answer per question: a Bernoulli measure read as a chain


def test_bernoulli_reads_as_the_chain_with_equal_rows():
    mu = Bernoulli((0.2, 0.3, 0.5))
    assert mu.stationary == mu.probs
    assert mu.transitions == (mu.probs,) * 3
    with pytest.raises(AttributeError):
        mu.transitions = ((1.0, 0.0, 0.0),) * 3


def test_chain_form_cylinder_masses_keep_the_product_order():
    mu = Bernoulli((0.2, 0.3, 0.5))
    want = np.array([1.0])
    for _ in range(5):
        want = np.kron(want, np.asarray(mu.probs))
    assert np.array_equal(mu.cylinder_masses(3, 5), want)
    word = (2, 0, 1, 1, 2)
    prod = 1.0
    for s in word:
        prod *= mu.probs[s]
    assert integrate(mu, CylinderIndicator(word)) == prod


def test_markov_cylinder_masses_keep_the_products_of_a_tiled_build():
    """Each level multiplies a cylinder's mass by the row of its last symbol;
    the masses equal, bit for bit, a build that tiles the last symbols."""
    mu = Markov.from_transitions(((0.1, 0.6, 0.3), (0.5, 0.25, 0.25), (0.7, 0.2, 0.1)))
    P, want, last = np.asarray(mu.transitions), np.asarray(mu.stationary), np.arange(3)
    for depth in range(1, 7):
        assert mu.cylinder_masses(3, depth).tobytes() == want.tobytes(), depth
        want = (want[:, None] * P[last]).ravel()
        last = np.tile(np.arange(3), len(last))


def test_invariance_needs_the_system_alphabet():
    chain = Markov.from_transitions(((0.6, 0.4), (1.0, 0.0)))
    three = MarkovShift(3, ((1, 1, 0), (1, 0, 1), (1, 1, 1)))
    with pytest.raises(ValueError, match="alphabet"):
        metric_entropy(chain, three)
    all_ones = MarkovShift(3, ((1, 1, 1),) * 3)
    with pytest.raises(ValueError, match="alphabet"):
        metric_entropy(Bernoulli((0.5, 0.5)), all_ones)


def test_bernoulli_charging_only_allowed_transitions_is_invariant():
    golden = MarkovShift(2, ((1, 1), (1, 0)))
    assert metric_entropy(Bernoulli((1.0, 0.0)), golden) == 0.0
    with pytest.raises(ValueError, match="forbidden transition"):
        metric_entropy(Bernoulli((0.5, 0.5)), golden)


def test_a_chain_is_checked_only_on_the_rows_of_states_it_charges():
    # a never-visited state's row may step where the shift forbids: Bernoulli
    # repeated its probs in row 2, whose step 2 -> 0 is forbidden
    shift = MarkovShift(3, ((1, 1, 1), (1, 1, 1), (0, 1, 1)))
    for mu in (Bernoulli((0.5, 0.5, 0.0)),
               Markov(((0.5, 0.5, 0.0), (0.5, 0.5, 0.0), (1.0, 0.0, 0.0)), (0.5, 0.5, 0.0))):
        check_invariance(mu, shift)
        shift.admits(Point(mu.seeded(3)))      # and so is its seeded point
    for mu in (Bernoulli((0.5, 0.25, 0.25)),
               Markov(((0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)), (1 / 3,) * 3)):
        with pytest.raises(ValueError, match="charges a forbidden transition"):
            check_invariance(mu, shift)


def test_lebesgue_needs_the_space_dimension():
    with pytest.raises(ValueError):
        metric_entropy(Lebesgue(2), CircleRotation(0.3))
    with pytest.raises(TypeError):
        metric_entropy(Lebesgue(), FullShift(2))
    assert metric_entropy(Lebesgue(), TimeTMap(CircleRotationFlow(), 0.5)) == 0.0
    assert metric_entropy(Lebesgue(2), TimeTMap(TorusTranslation((0.3, 0.7)), 0.5)) == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_lebesgue_entropy_under_circle_multiplication_is_log_n(n):
    assert metric_entropy(Lebesgue(), CircleMult(n)) == math.log(n)


@pytest.mark.parametrize("s, t", [(0.5, 3.0), (0.5, 0.3), (2.5, 4.0), (1.25, 1.5)])
def test_a_composed_observable_under_a_time_shift_reads_past_both_times(s, t):
    """The cylinder decomposition must be long enough for the composed
    observable's own flow time: a short word repeats and reads a pair of
    symbols that never follow each other."""
    flow = Suspension(FullShift(2), RoofFunction.constant(1.0))
    mu = Markov.from_transitions(((0.9, 0.1), (0.2, 0.8)))
    phi = CylinderIndicator((0, 1))
    want = mu.stationary[0] * 0.1
    got = integrate(TimeShifted(flow, s, mu), compose_with_flow(flow, t, phi))
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("phi", [CylinderIndicator((0,)), CylinderIndicator((0, 1)),
                                 FiberProfile(Harmonic(1), ((0.0, 0.0), (1.0, 1.0)))])
def test_time_shifted_lebesgue_refuses_non_harmonic_observables(phi):
    mu = TimeShifted(CircleRotationFlow(), 0.3, Lebesgue())
    with pytest.raises(TypeError):
        integrate(mu, phi)
    assert integrate(mu, Harmonic(2)) == 0.0


# ---------------------------------------------------------------------------
# atomic measures: invariant only as whole periodic orbits, with entropy 0

GOLDEN_SHIFT = MarkovShift(2, ((1, 1), (1, 0)))


def atoms(*words, weights=None):
    """Unit masses at the periodic points words[i]^infinity, equal weights by default."""
    pts = tuple(Point(ExplicitWord(w)) for w in words)
    return Atomic(pts, weights or (1.0 / len(pts),) * len(pts))


@pytest.mark.parametrize("mu, system", [
    (atoms((0, 1), (1, 0)), FullShift(2)),
    (Mixture(((atoms((0, 1)), 0.5), (atoms((1, 0)), 0.5))), FullShift(2)),
    (atoms((0, 0, 1), (0, 1, 0), (1, 0, 0)), FullShift(2)),
    (atoms((0, 1, 0, 1), (1, 0)), FullShift(2)),           # minimal period 2
    (Atomic((Point(ExplicitWord((0, 1))), Point(ExplicitWord((0, 1)), offset=1)),
            (0.5, 0.5)), FullShift(2)),                      # the rotation read by offset
    (atoms((2,), (0, 1, 2), (1, 2, 0), (2, 0, 1)), FullShift(3)),
    (atoms((0,), (0, 1), (1, 0)), GOLDEN_SHIFT),
])
def test_whole_periodic_orbits_have_entropy_exactly_zero(mu, system):
    h = metric_entropy(mu, system)
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_periodic_orbits_mix_affinely_with_a_bernoulli_part():
    mu = Mixture(((atoms((0, 1), (1, 0)), 0.25), (Bernoulli((0.3, 0.7)), 0.75)))
    assert metric_entropy(mu, FullShift(2)) == pytest.approx(0.75 * H_37, abs=1e-15)


@pytest.mark.parametrize("mu, system", [
    (atoms((0, 1)), FullShift(2)),                          # half an orbit
    (atoms((0, 1), (1, 0), weights=(0.3, 0.7)), FullShift(2)),
    (atoms((0, 2)), FullShift(2)),                          # symbol outside the alphabet
    (atoms((1, 1)), GOLDEN_SHIFT),                          # the forbidden word 11
    (atoms((1, 0, 1), (0, 1, 1), (1, 1, 0)), GOLDEN_SHIFT),  # 11 only at the wrap-around
    (Atomic((Point(SeededIID(3, (0.5, 0.5))),), (1.0,)), FullShift(2)),
    (Atomic((Point(Coordinate((0.25,))),), (1.0,)), FullShift(2)),
])
def test_atomic_measures_that_are_not_whole_orbits_raise_value_error(mu, system):
    with pytest.raises(ValueError):
        metric_entropy(mu, system)
    with pytest.raises(ValueError):
        check_invariance(mu, system)


def test_atomic_measures_off_a_shift_raise_type_error():
    mu = Atomic((Point(Coordinate((0.25,))), Point(Coordinate((0.75,)))), (0.5, 0.5))
    with pytest.raises(TypeError):
        metric_entropy(mu, CircleMult(2))
    with pytest.raises(TypeError):
        metric_entropy(mu, CircleRotation(0.5))


def test_atoms_on_a_union_are_read_on_their_tagged_side():
    du = DisjointUnion(FullShift(2), GOLDEN_SHIFT)
    left = Atomic((Point(ExplicitWord((1,)), component=0),), (1.0,))
    right_bad = Atomic((Point(ExplicitWord((1,)), component=1),), (1.0,))
    assert metric_entropy(left, du) == 0.0
    with pytest.raises(ValueError):
        metric_entropy(right_bad, du)
    with pytest.raises(ValueError):
        metric_entropy(atoms((0,)), du)                     # untagged


def test_time_shifted_measures_have_no_entropy_rule():
    flow = Suspension(FullShift(2), RoofFunction.constant(1.0))
    for mu in (TimeShifted(flow, 0.5, Bernoulli((0.5, 0.5))),
               time_average_measure(flow, Bernoulli((0.5, 0.5)))):
        with pytest.raises(TypeError):
            metric_entropy(mu, FullShift(2))


# ---------------------------------------------------------------------------
# flattening: every measure question is a weighted sum over pieces

DYADIC_TIMES = st.integers(0, 8).map(lambda i: i / 8)      # sums of these are exact


def leaf_measures(fibers):
    probs = st.floats(0.05, 0.95)
    bernoulli = probs.map(lambda p: Bernoulli((p, 1.0 - p)))
    markov = st.tuples(probs, probs).map(
        lambda ab: Markov.from_transitions(((ab[0], 1 - ab[0]), (ab[1], 1 - ab[1]))))
    atom = st.builds(lambda w, o, f: Point(ExplicitWord(tuple(w)), offset=o, fiber=f),
                     st.lists(st.integers(0, 1), min_size=1, max_size=4),
                     st.integers(0, 3), fibers)
    atomic = st.lists(st.tuples(atom, st.floats(0.1, 1.0)), min_size=1, max_size=3).map(
        lambda aw: Atomic(tuple(a for a, _ in aw), _unit(w for _, w in aw)))
    return st.one_of(bernoulli, markov, atomic)


def _unit(weights):
    weights = tuple(weights)
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


def whole_orbits():
    """Equal masses at every rotation of a word, on the zero fiber or with none set."""
    return st.builds(lambda w, f: Atomic(tuple(Point(ExplicitWord(w), o, fiber=f)
                                               for o in range(len(w))), (1.0 / len(w),) * len(w)),
                     st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
                     st.sampled_from((None, 0.0)))


def invariant_measures():
    """Chains, whole-orbit atoms and their mixtures: the bases a time average lifts."""
    leaf = st.one_of(CHAINS, whole_orbits())
    return st.recursive(leaf, lambda inner: st.lists(
        st.tuples(inner, st.floats(0.1, 1.0)), min_size=1, max_size=3).map(
        lambda mw: Mixture(tuple(zip((m for m, _ in mw), _unit(w for _, w in mw))))),
        max_leaves=3)


def nested_measures(flow=None):
    """Mixtures of mixtures, atomic, Bernoulli and Markov measures and, on a
    suspension, time-shifted ones and time averages of invariant ones, with
    random weights."""
    fibers = st.none() if flow is None else st.integers(0, 5).map(lambda i: i / 8)

    def extend(inner):
        mixture = st.lists(st.tuples(inner, st.floats(0.1, 1.0)), min_size=1, max_size=3).map(
            lambda mw: Mixture(tuple(zip((m for m, _ in mw), _unit(w for _, w in mw)))))
        if flow is None:
            return mixture
        shifted = st.builds(lambda m, t: TimeShifted(flow, t, m), inner, DYADIC_TIMES)
        averaged = st.builds(lambda m: TimeAveraged(flow, m), invariant_measures())
        return st.one_of(mixture, shifted, averaged)

    return st.recursive(leaf_measures(fibers), extend, max_leaves=4)


def reference_integral(mu, phi, flow=None, s=None):
    """The weighted sum of leaf integrals, written out by nesting kind; `s`
    is the flow time carried down, None while nothing is shifted."""
    if isinstance(mu, Mixture):
        return sum(w * reference_integral(m, phi, flow, s) for m, w in mu.components)
    if isinstance(mu, TimeShifted):
        return reference_integral(mu.base, phi, flow, (s or 0.0) + mu.t)
    if isinstance(mu, TimeAveraged):         # invariant: a shift by s leaves it in place
        c = flow.roof.roof_max
        if isinstance(phi, FiberProfile):
            mean = float(exact_profile_integral(phi.breakpoints, c) / Fraction(c))
            return mean * reference_integral(mu.base, phi.base, flow)
        return reference_integral(mu.base, phi, flow)
    if isinstance(mu, Atomic):
        def at(x):
            if s is None:
                return evaluate(phi, x)
            return evaluate(phi, time_t_map(flow, s, x if x.fiber is not None else x.with_fiber(0.0)))
        return sum(w * at(x) for x, w in zip(mu.points, mu.weights))
    return integrate(mu if s is None else TimeShifted(flow, s, mu), phi)


def outcome(f, mu, phi, flow):
    try:
        return f(mu, phi, flow) if f is reference_integral else f(mu, phi)
    except TypeError:
        return TypeError


SHIFT_OBSERVABLES = (CylinderIndicator((1,)), CylinderIndicator((1, 0)),
                     CylinderIndicator((0, 0, 1)))
HAT = FiberProfile(Constant(1.0), ((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
FLOWS = [Suspension(FullShift(2), RoofFunction.constant(c)) for c in (1.0, 2.0, 0.75)]


@given(nested_measures())
@settings(deadline=None, max_examples=60)
def test_integrals_on_a_shift_are_weighted_sums_of_leaf_integrals(mu):
    for phi in SHIFT_OBSERVABLES:
        assert integrate(mu, phi) == pytest.approx(reference_integral(mu, phi), abs=1e-12)


@pytest.mark.parametrize("flow", FLOWS, ids=lambda f: f"roof{f.roof.roof_max}")
def test_integrals_on_a_suspension_are_weighted_sums_of_leaf_integrals(flow):
    @given(nested_measures(flow))
    @settings(deadline=None, max_examples=25)
    def check(mu):
        for phi in (CylinderIndicator((1,)), CylinderIndicator((1, 0)), HAT):
            # an unshifted base measure has no fiber to read: both refuse the hat
            got, want = (outcome(f, mu, phi, flow) for f in (integrate, reference_integral))
            assert got is want is TypeError or got == pytest.approx(want, abs=1e-12)

    check()


@pytest.mark.parametrize("flow", FLOWS, ids=lambda f: f"roof{f.roof.roof_max}")
def test_two_pushforwards_integrate_like_one(flow):
    @given(nested_measures(flow), DYADIC_TIMES, DYADIC_TIMES)
    @settings(deadline=None, max_examples=25)
    def check(mu, s, t):
        twice = pushforward(flow, s, pushforward(flow, t, mu))
        once = pushforward(flow, s + t, mu)
        for phi in (CylinderIndicator((0,)), CylinderIndicator((0, 1)), HAT):
            got, want = (outcome(integrate, m, phi, flow) for m in (twice, once))
            assert got is want is TypeError or got == pytest.approx(want, abs=1e-12)

    check()


def shift_measures():
    probs = st.floats(0.01, 0.99)
    leaf = st.one_of(
        probs.map(lambda p: Bernoulli((p, 1.0 - p))),
        st.tuples(probs, probs).map(
            lambda ab: Markov.from_transitions(((ab[0], 1 - ab[0]), (ab[1], 1 - ab[1])))),
        st.just(atoms((0, 1), (1, 0))),
    )
    return st.recursive(leaf, lambda inner: st.lists(
        st.tuples(inner, st.floats(0.1, 1.0)), min_size=1, max_size=3).map(
        lambda mw: Mixture(tuple(zip((m for m, _ in mw), _unit(w for _, w in mw))))),
        max_leaves=5)


def reference_entropy(mu, system):
    if isinstance(mu, Mixture):
        return sum(w * reference_entropy(m, system) for m, w in mu.components)
    return metric_entropy(mu, system)


@given(shift_measures())
@settings(deadline=None, max_examples=60)
def test_metric_entropy_of_a_mixture_is_the_weighted_sum_of_its_parts(mu):
    assert metric_entropy(mu, FullShift(2)) == pytest.approx(
        reference_entropy(mu, FullShift(2)), abs=1e-12)
