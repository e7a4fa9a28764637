import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergode.systems import (
    BudgetExhausted,
    CircleRotationFlow,
    Coordinate,
    DisjointUnion,
    ExplicitWord,
    FullShift,
    MarkovShift,
    Point,
    RoofFunction,
    Suspension,
    TorusTranslation,
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
    SymbolFrequency,
    TestFamily,
    evaluate,
    integrate,
    metric_entropy,
    partition_entropy_estimate,
    time_average_measure,
    weak_star_distance,
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
    assert integrate(mu, SymbolFrequency(1)) == pytest.approx(pi[1], abs=1e-12)


def test_integrate_symbol_frequency_and_cylinder():
    mu = Bernoulli((0.3, 0.7))
    assert integrate(mu, SymbolFrequency(1)) == pytest.approx(0.7)
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
    assert integrate(mix, SymbolFrequency(1)) == pytest.approx(0.7)
    want = 0.5 * math.log(2) + 0.5 * -(0.1 * math.log(0.1) + 0.9 * math.log(0.9))
    assert metric_entropy(mix, FullShift(2)) == pytest.approx(want, abs=1e-14)


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        Mixture(((Bernoulli((0.5, 0.5)), 0.3), (Bernoulli((0.1, 0.9)), 0.3)))


@given(st.integers(1, 10))
@settings(deadline=None)
def test_partition_entropy_is_exact_for_bernoulli(depth):
    mu = Bernoulli((0.3, 0.7))
    est = partition_entropy_estimate(mu, FullShift(2), depth)
    assert est == pytest.approx(H_37, abs=1e-10)


def test_partition_entropy_nonincreasing_in_depth():
    gm = golden_mean_markov()
    sys = MarkovShift(2, ((1, 1), (1, 0)))
    vals = [partition_entropy_estimate(gm, sys, d) for d in (1, 2, 4, 8, 16)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_time_averaged_measure_integrates_fiber_profiles():
    """Midpoint nodes must sweep one full roof period: the profile below is
    the identity along the fiber, so the answer is the mean fiber 0.75."""
    susp = Suspension(FullShift(2), RoofFunction.constant(1.5))
    bar = time_average_measure(susp, Bernoulli((0.5, 0.5)), 16)
    ramp = FiberProfile(Constant(1.0), ((0.0, 0.0), (1.5, 1.5)))
    assert integrate(bar, ramp) == pytest.approx(0.75, abs=1e-12)


def test_time_averaged_measure_keeps_base_cylinder_mass():
    susp = Suspension(FullShift(2), RoofFunction.constant(2.0))
    mu = Bernoulli((0.3, 0.7))
    bar = time_average_measure(susp, mu, 16)
    assert integrate(bar, CylinderIndicator((1,))) == pytest.approx(0.7, abs=1e-12)


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
    assert weak_star_distance(Bernoulli((0.5, 0.5)), Bernoulli((0.5, 0.5)), fam) == 0.0
    assert weak_star_distance(Bernoulli((0.5, 0.5)), Bernoulli((0.3, 0.7)), fam) > 0.1


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
