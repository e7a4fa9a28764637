"""Every observable kind against every reader.

Each kind answers the readers' questions itself (its symbol depth, its value
at a point and along a line, its fiber mass, its composition with a time-t
map, the word the cell reader counts), so the grid below pins what each
reader returns for each kind: a value by the `float.hex` of each entry, and a
refusal by its exception type.
"""

import numpy as np
import pytest

from ergode.birkhoff import Schedule, birkhoff_profile, flow_average_profile
from ergode.measures import (
    Atomic, Bernoulli, Constant, CylinderIndicator, FiberProfile, Harmonic,
    Lebesgue, Markov, TimeShifted, compose_with_flow, evaluate, integrate,
)
from ergode.systems import (
    CircleMult, CircleRotation, CircleRotationFlow, Coordinate, ExplicitWord,
    FullShift, Point, RoofFunction, SeededIID, Suspension, TimeTMap,
)

TENT = ((0.0, 0.0), (0.3, 1.0), (0.5, 0.25), (2.0, 0.5))
FLOW = Suspension(FullShift(2), RoofFunction.constant(0.75))
WORD_FLOW = Suspension(FullShift(2), RoofFunction(1, (0.7, 1.3), 2))
ROTATION = CircleRotationFlow()
ATOM = Atomic((Point(ExplicitWord((0, 1, 1))),), (1.0,))

OBSERVABLES = {
    "constant": Constant(0.75),
    "cylinder": CylinderIndicator((0, 1)),
    "one-symbol": CylinderIndicator((0,)),
    "harmonic": Harmonic(1),
    "profile-cylinder": FiberProfile(CylinderIndicator((0, 1)), TENT),
    "profile-constant": FiberProfile(Constant(2.0), TENT),
    "composed-suspension": compose_with_flow(FLOW, 0.3, CylinderIndicator((0, 1))),
    "composed-rotation": compose_with_flow(ROTATION, 0.3, Harmonic(1)),
}

X = Point(SeededIID(5, (0.5, 0.5)))
X_FIBER = X.with_fiber(0.1)
X_CIRCLE = Point(Coordinate((0.217,)))
MAP_STEPS, FLOW_TIMES = Schedule((10, 20)), Schedule((10.0, 20.0))

READERS = {
    "evaluate-symbolic": lambda phi: evaluate(phi, X),
    "evaluate-suspension": lambda phi: evaluate(phi, X_FIBER),
    "evaluate-circle": lambda phi: evaluate(phi, X_CIRCLE),
    "bernoulli": lambda phi: integrate(Bernoulli((0.3, 0.7)), phi),
    "markov": lambda phi: integrate(Markov.from_transitions(((0.6, 0.4), (0.3, 0.7))), phi),
    "lebesgue": lambda phi: integrate(Lebesgue(), phi),
    "atomic": lambda phi: integrate(ATOM, phi),
    "time-shifted": lambda phi: integrate(TimeShifted(FLOW, 0.3, Bernoulli((0.3, 0.7))), phi),
    "profile-shift": lambda phi: birkhoff_profile(FullShift(2), X, phi, MAP_STEPS),
    "profile-time-t": lambda phi: birkhoff_profile(TimeTMap(FLOW, 0.5), X_FIBER, phi, MAP_STEPS),
    "profile-rotation": lambda phi: birkhoff_profile(CircleRotation(0.3), X_CIRCLE, phi, MAP_STEPS),
    "profile-circle-mult": lambda phi: birkhoff_profile(CircleMult(3), X_CIRCLE, phi, MAP_STEPS),
    "flow-constant-roof": lambda phi: flow_average_profile(FLOW, X_FIBER, phi, FLOW_TIMES),
    "flow-word-roof": lambda phi: flow_average_profile(WORD_FLOW, X_FIBER, phi, FLOW_TIMES),
    "flow-rotation": lambda phi: flow_average_profile(ROTATION, X_CIRCLE, phi, FLOW_TIMES),
}


def outcome(reader, phi):
    """The reader's answer for phi: the float.hex of each value, space
    separated, or the name of the exception it raises."""
    try:
        value = reader(phi)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__
    return " ".join(float(v).hex() for v in np.atleast_1d(value))


# outcome of each reader in READERS order, per observable
EXPECTED = {
    'constant': (
        '0x1.8000000000000p-1',
        '0x1.8000000000000p-1',
        '0x1.8000000000000p-1',
        '0x1.8000000000000p-1',
        '0x1.8000000000000p-1',
        '0x1.8000000000000p-1',
        '0x1.8000000000000p-1',
        '0x1.8000000000000p-1',
        '0x1.8000000000000p-1 0x1.8000000000000p-1',
        '0x1.8000000000000p-1 0x1.8000000000000p-1',
        '0x1.8000000000000p-1 0x1.8000000000000p-1',
        '0x1.8000000000000p-1 0x1.8000000000000p-1',
        '0x1.8000000000000p-1 0x1.8000000000000p-1',
        '0x1.8000000000000p-1 0x1.8000000000000p-1',
        '0x1.8000000000000p-1 0x1.8000000000000p-1',
    ),
    'cylinder': (
        '0x0.0p+0',
        '0x0.0p+0',
        'TypeError',
        '0x1.ae147ae147ae1p-3',
        '0x1.5f15f15f15f17p-3',
        'TypeError',
        '0x1.0000000000000p+0',
        '0x1.ae147ae147ae1p-3',
        '0x1.999999999999ap-4 0x1.999999999999ap-3',
        '0x0.0p+0 0x1.999999999999ap-3',
        'TypeError',
        'TypeError',
        '0x1.3333333333333p-3 0x1.051eb851eb853p-2',
        '0x1.1eb851eb851ebp-4 0x1.1eb851eb851ebp-3',
        'TypeError',
    ),
    'one-symbol': (
        '0x0.0p+0',
        '0x0.0p+0',
        'TypeError',
        '0x1.3333333333333p-2',
        '0x1.b6db6db6db6dcp-2',
        'TypeError',
        '0x1.0000000000000p+0',
        '0x1.3333333333333p-2',
        '0x1.3333333333333p-1 0x1.199999999999ap-1',
        '0x1.0000000000000p-1 0x1.3333333333333p-1',
        'TypeError',
        'TypeError',
        '0x1.3333333333333p-1 0x1.08f5c28f5c290p-1',
        '0x1.ae147ae147ae0p-2 0x1.8a3d70a3d70a3p-2',
        'TypeError',
    ),
    'harmonic': (
        'TypeError',
        'TypeError',
        '0x1.a59b4ba11649fp-3',
        'TypeError',
        'TypeError',
        '0x0.0p+0',
        'TypeError',
        'TypeError',
        'TypeError',
        'TypeError',
        '-0x1.b333333333333p-53 -0x1.4000000000000p-52',
        '-0x1.059103be9b5d6p-6 -0x1.0e497ae30b1b6p-5',   # the exact orbit of 217/1000
        'TypeError',
        'TypeError',
        '0x1.8723a1d588a37p-58 -0x1.04c26be3b06cfp-60',
    ),
    'profile-cylinder': (
        '0x0.0p+0',
        '0x0.0p+0',
        'TypeError',
        'TypeError',
        'TypeError',
        'TypeError',
        '0x0.0p+0',
        '0x1.ae147ae147ae1p-3',
        'TypeError',
        'TypeError',
        'TypeError',
        'TypeError',
        '0x1.18bf258bf258dp-4 0x1.e2bb0cf87d9c8p-4',
        '0x1.0cf87d9c54a6ap-5 0x1.0cf87d9c54a6ap-4',
        'TypeError',
    ),
    'profile-constant': (
        '0x0.0p+0',
        '0x1.5555555555556p-1',
        '0x0.0p+0',
        'TypeError',
        'TypeError',
        'TypeError',
        '0x0.0p+0',
        '0x1.0000000000000p+1',
        'TypeError',
        'TypeError',
        'TypeError',
        'TypeError',
        '0x1.da81b4e81b4eap-1 0x1.d6c33e1f67155p-1',
        '0x1.c20c49ba5e353p-1 0x1.bc54a69217362p-1',     # exact cell entries, not a float cumsum
        'TypeError',
    ),
    'composed-suspension': (
        '0x0.0p+0',     # from the zero fiber: 1, 1, 1, 0 is outside the cylinder (0, 1)
        '0x0.0p+0',
        'TypeError',    # a coordinate point has no symbols to flow along
        '0x1.ae147ae147ae1p-3',
        '0x1.5f15f15f15f17p-3',
        'TypeError',
        '0x1.0000000000000p+0',     # an atom flows from the zero fiber
        '0x1.ae147ae147ae1p-3',
        'TypeError',
        'TypeError',
        'TypeError',
        'TypeError',
        'TypeError',
        'TypeError',
        'TypeError',
    ),
    'composed-rotation': (
        'TypeError',
        'TypeError',
        '-0x1.fd14fe4248bc4p-1',
        'TypeError',
        'TypeError',
        '0x0.0p+0',
        'TypeError',
        'TypeError',
        'TypeError',
        'TypeError',
        '0x1.899999999999ap-52 0x1.799999999999ap-54',
        '0x1.80d626177957ap-3 0x1.fbdc87919f7bep-5',     # the exact orbit of 217/1000
        'TypeError',
        'TypeError',
        '0x1.235134885f19bp-55 0x1.5476d95e091a4p-53',
    ),
}


@pytest.mark.parametrize("observable, reader", [(o, r) for o in OBSERVABLES for r in READERS])
def test_each_reader_answers_each_observable_kind_as_pinned(observable, reader):
    want = EXPECTED[observable][list(READERS).index(reader)]
    assert outcome(READERS[reader], OBSERVABLES[observable]) == want


@pytest.mark.parametrize("t", [0.3, 0.9])
def test_an_atom_integrates_a_composed_observable_as_its_pushforward_does(t):
    """integrate(mu, phi o flow_t) is integrate(flow_t mu, phi) for an atom too:
    a symbolic atom moves from the zero fiber, as under `TimeShifted`."""
    phi = CylinderIndicator((0, 1))
    lhs = integrate(ATOM, compose_with_flow(FLOW, t, phi))
    assert lhs == integrate(TimeShifted(FLOW, t, ATOM), phi) == (1.0 if t < 0.75 else 0.0)
