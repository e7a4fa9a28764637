"""Every system kind against every question its callers ask of it.

A system answers where its points live, where their symbols and its measures
live, which union side a point is on, how a random point is drawn and, on a
flow, where a point is after time t.  The grid below pins each answer that
those questions produce through their public readers: a value by its `repr`
(a float by `float.hex`), and a refusal by its exception type and message.
"""

import numpy as np
import pytest

from ergode.cli import _measure, _resolve_point
from ergode.config import ConfigError
from ergode.measures import TestFamily
from ergode.systems import (
    CircleMult, CircleRotation, CircleRotationFlow, Coordinate, DisjointUnion,
    FullShift, MarkovShift, Point, RoofFunction, SeededIID, Suspension, TimeTMap,
    TorusTranslation, random_point, time_t_map,
)

UNION = DisjointUnion(FullShift(2), FullShift(3))
FLOW = Suspension(FullShift(2), RoofFunction.constant(0.75))
ROTATION_FLOW = CircleRotationFlow()

SYSTEMS = {
    "full-shift": FullShift(2),
    "golden-mean": MarkovShift(2, ((1, 1), (1, 0))),
    "union": UNION,
    "rotation": CircleRotation(0.3),
    "circle-mult": CircleMult(3),
    "rotation-flow": ROTATION_FLOW,
    "torus": TorusTranslation((0.3, 0.5)),
    "suspension": FLOW,
    "word-roof": Suspension(FullShift(2), RoofFunction(1, (0.7, 1.3), 2)),
    "union-suspension": Suspension(UNION, RoofFunction.constant(1.0)),
    "time-t-suspension": TimeTMap(FLOW, 0.5),
    "time-t-rotation": TimeTMap(ROTATION_FLOW, 0.5),
}

X_FIBER = Point(SeededIID(5, (0.5, 0.5)), 3, 1, 0.1)
X_COORDS = Point(Coordinate((0.217, 0.5)))


def _cfg(measure):
    return {"command": "classify", "measure": measure}


QUESTIONS = {
    "random-point": lambda s: random_point(s, np.random.default_rng(7)),
    "default-family": lambda s: TestFamily.default_for(s, depth=2, max_frequency=2),
    "resolve-word": lambda s: _resolve_point(
        {"kind": "explicit-word", "symbols": [0, 1, 1]}, s, None),
    "resolve-tagged-word": lambda s: _resolve_point(
        {"kind": "explicit-word", "symbols": [0, 2], "component": 1}, s, None),
    "resolve-coordinate": lambda s: _resolve_point(
        {"kind": "coordinate", "coords": [0.217]}, s, None),
    "measure-bernoulli": lambda s: _measure(
        _cfg({"kind": "bernoulli", "probs": [0.5, 0.5]}), s),
    "measure-tagged-bernoulli": lambda s: _measure(
        _cfg({"kind": "bernoulli", "probs": [0.5, 0.5], "component": 0}), s),
    "measure-lebesgue": lambda s: _measure(_cfg({"kind": "lebesgue"}), s),
    # a symbolic point with a fiber, a tag and an offset, on every system
    "time-t-word": lambda s: time_t_map(s, 0.3, X_FIBER),
}
# a coordinate point, off the suspensions: there a point without a fiber is
# the subject of tests/test_observables.py
COORDINATE_FLOWS = ("full-shift", "union", "rotation", "circle-mult", "rotation-flow", "torus",
                    "time-t-rotation")


def pinned(answer):
    """The repr of an answer, followed by the `float.hex` of each float of a
    point (its coordinates, then its fiber)."""
    if not isinstance(answer, Point):
        return repr(answer)
    floats = answer.rule.coords if isinstance(answer.rule, Coordinate) else ()
    floats += () if answer.fiber is None else (answer.fiber,)
    return " ".join([repr(answer), *map(float.hex, floats)])


def outcome(question, system):
    try:
        return pinned(question(system))
    except (ConfigError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_time_t_map_of_a_coordinate_point_is_as_pinned():
    got = {name: outcome(lambda s: time_t_map(s, 0.3, X_COORDS), SYSTEMS[name])
           for name in COORDINATE_FLOWS}
    assert got == EXPECTED_COORDINATE_STEPS


@pytest.mark.parametrize("system, question",
                         [(s, q) for s in SYSTEMS for q in QUESTIONS])
def test_each_system_answers_each_question_as_pinned(system, question):
    assert outcome(QUESTIONS[question], SYSTEMS[system]) == EXPECTED[system][question]


EXPECTED_COORDINATE_STEPS = {
    'full-shift': 'TypeError: cannot flow FullShift',
    'union': 'TypeError: cannot flow DisjointUnion',
    'rotation': 'TypeError: cannot flow CircleRotation',
    'circle-mult': 'TypeError: cannot flow CircleMult',
    'rotation-flow': 'Point(rule=Coordinate(coords=(0.517,)), offset=0, component=None, fiber=None) 0x1.08b4395810625p-1',
    'torus': 'Point(rule=Coordinate(coords=(0.307, 0.65)), offset=0, component=None, fiber=None) 0x1.3a5e353f7ced9p-2 0x1.4cccccccccccdp-1',
    'time-t-rotation': 'TypeError: cannot flow TimeTMap',
}

# the answer of each question in QUESTIONS order, per system
EXPECTED = {
    'full-shift': {
        'random-point': 'Point(rule=SeededIID(seed=5765488047046174020, probs=(0.5, 0.5)), offset=0, component=None, fiber=None)',
        'default-family': 'TestFamily(observables=(CylinderIndicator(word=(0,), component=None), CylinderIndicator(word=(1,), component=None), CylinderIndicator(word=(0, 0), component=None), CylinderIndicator(word=(0, 1), component=None), CylinderIndicator(word=(1, 0), component=None), CylinderIndicator(word=(1, 1), component=None)))',
        'resolve-word': 'Point(rule=ExplicitWord(symbols=(0, 1, 1)), offset=0, component=None, fiber=None)',
        'resolve-tagged-word': 'ConfigError: bad point: symbols [0, 2] outside the alphabet of FullShift(k=2)',
        'resolve-coordinate': 'ConfigError: bad point: a coordinate point is not a point of FullShift',
        'measure-bernoulli': 'Bernoulli(probs=(0.5, 0.5), component=None)',
        'measure-tagged-bernoulli': 'Bernoulli(probs=(0.5, 0.5), component=0)',
        'measure-lebesgue': 'ConfigError: bad measure: Lebesgue lives on the circle/torus',
        'time-t-word': 'TypeError: cannot flow FullShift',
    },
    'golden-mean': {
        'random-point': 'ValueError: an iid uniform stream leaves a vertex shift that forbids a transition; give the point explicitly',
        'default-family': 'TestFamily(observables=(CylinderIndicator(word=(0,), component=None), CylinderIndicator(word=(1,), component=None), CylinderIndicator(word=(0, 0), component=None), CylinderIndicator(word=(0, 1), component=None), CylinderIndicator(word=(1, 0), component=None), CylinderIndicator(word=(1, 1), component=None)))',
        'resolve-word': 'ConfigError: bad point: transitions [(1, 1)] are forbidden in MarkovShift(k=2, adjacency=((1, 1), (1, 0)))',
        'resolve-tagged-word': 'ConfigError: bad point: symbols [0, 2] outside the alphabet of MarkovShift(k=2, adjacency=((1, 1), (1, 0)))',
        'resolve-coordinate': 'ConfigError: bad point: a coordinate point is not a point of MarkovShift',
        'measure-bernoulli': 'ConfigError: bad measure: Bernoulli measure charges a forbidden transition',
        'measure-tagged-bernoulli': 'ConfigError: bad measure: Bernoulli measure charges a forbidden transition',
        'measure-lebesgue': 'ConfigError: bad measure: Lebesgue lives on the circle/torus',
        'time-t-word': 'TypeError: cannot flow MarkovShift',
    },
    'union': {
        'random-point': 'Point(rule=SeededIID(seed=8275336682942969161, probs=(0.3333333333333333, 0.3333333333333333, 0.3333333333333333)), offset=0, component=1, fiber=None)',
        'default-family': 'TestFamily(observables=(CylinderIndicator(word=(0,), component=0), CylinderIndicator(word=(1,), component=0), CylinderIndicator(word=(0,), component=1), CylinderIndicator(word=(1,), component=1), CylinderIndicator(word=(2,), component=1), CylinderIndicator(word=(0, 0), component=0), CylinderIndicator(word=(0, 1), component=0), CylinderIndicator(word=(1, 0), component=0), CylinderIndicator(word=(1, 1), component=0), CylinderIndicator(word=(0, 0), component=1), CylinderIndicator(word=(0, 1), component=1), CylinderIndicator(word=(0, 2), component=1), CylinderIndicator(word=(1, 0), component=1), CylinderIndicator(word=(1, 1), component=1), CylinderIndicator(word=(1, 2), component=1), CylinderIndicator(word=(2, 0), component=1), CylinderIndicator(word=(2, 1), component=1), CylinderIndicator(word=(2, 2), component=1)))',
        'resolve-word': 'Point(rule=ExplicitWord(symbols=(0, 1, 1)), offset=0, component=None, fiber=None)',
        'resolve-tagged-word': 'Point(rule=ExplicitWord(symbols=(0, 2)), offset=0, component=1, fiber=None)',
        'resolve-coordinate': 'ConfigError: bad point: a coordinate point is not a point of DisjointUnion',
        'measure-bernoulli': 'ConfigError: bad measure: measures on a disjoint union must carry a component tag',
        'measure-tagged-bernoulli': 'Bernoulli(probs=(0.5, 0.5), component=0)',
        'measure-lebesgue': 'ConfigError: bad measure: Lebesgue lives on the circle/torus',
        'time-t-word': 'TypeError: cannot flow DisjointUnion',
    },
    'rotation': {
        'random-point': 'Point(rule=Coordinate(coords=(0.625095466604667,)), offset=0, component=None, fiber=None) 0x1.400c8353e3ca9p-1',
        'default-family': "TestFamily(observables=(Harmonic(frequency=1, phase='cos', offset=0.0), Harmonic(frequency=1, phase='sin', offset=0.0), Harmonic(frequency=2, phase='cos', offset=0.0), Harmonic(frequency=2, phase='sin', offset=0.0)))",
        'resolve-word': 'ConfigError: bad point: a explicit-word point is not a point of CircleRotation',
        'resolve-tagged-word': 'ConfigError: bad point: a explicit-word point is not a point of CircleRotation',
        'resolve-coordinate': 'Point(rule=Coordinate(coords=(0.217,)), offset=0, component=None, fiber=None) 0x1.bc6a7ef9db22dp-3',
        'measure-bernoulli': 'ConfigError: bad measure: Bernoulli measures live on shift spaces',
        'measure-tagged-bernoulli': 'ConfigError: bad measure: Bernoulli measures live on shift spaces',
        'measure-lebesgue': 'Lebesgue(dim=1)',
        'time-t-word': 'TypeError: cannot flow CircleRotation',
    },
    'circle-mult': {
        'random-point': 'Point(rule=Coordinate(coords=(0.625095466604667,)), offset=0, component=None, fiber=None) 0x1.400c8353e3ca9p-1',
        'default-family': "TestFamily(observables=(Harmonic(frequency=1, phase='cos', offset=0.0), Harmonic(frequency=1, phase='sin', offset=0.0), Harmonic(frequency=2, phase='cos', offset=0.0), Harmonic(frequency=2, phase='sin', offset=0.0)))",
        'resolve-word': 'ConfigError: bad point: a explicit-word point is not a point of CircleMult',
        'resolve-tagged-word': 'ConfigError: bad point: a explicit-word point is not a point of CircleMult',
        'resolve-coordinate': 'Point(rule=Coordinate(coords=(0.217,)), offset=0, component=None, fiber=None) 0x1.bc6a7ef9db22dp-3',
        'measure-bernoulli': 'ConfigError: bad measure: Bernoulli measures live on shift spaces',
        'measure-tagged-bernoulli': 'ConfigError: bad measure: Bernoulli measures live on shift spaces',
        'measure-lebesgue': 'Lebesgue(dim=1)',
        'time-t-word': 'TypeError: cannot flow CircleMult',
    },
    'rotation-flow': {
        'random-point': 'Point(rule=Coordinate(coords=(0.625095466604667,)), offset=0, component=None, fiber=None) 0x1.400c8353e3ca9p-1',
        'default-family': "TestFamily(observables=(Harmonic(frequency=1, phase='cos', offset=0.0), Harmonic(frequency=1, phase='sin', offset=0.0), Harmonic(frequency=2, phase='cos', offset=0.0), Harmonic(frequency=2, phase='sin', offset=0.0)))",
        'resolve-word': 'ConfigError: bad point: a explicit-word point is not a point of CircleRotationFlow',
        'resolve-tagged-word': 'ConfigError: bad point: a explicit-word point is not a point of CircleRotationFlow',
        'resolve-coordinate': 'Point(rule=Coordinate(coords=(0.217,)), offset=0, component=None, fiber=None) 0x1.bc6a7ef9db22dp-3',
        'measure-bernoulli': 'ConfigError: bad measure: Bernoulli measures live on shift spaces',
        'measure-tagged-bernoulli': 'ConfigError: bad measure: Bernoulli measures live on shift spaces',
        'measure-lebesgue': 'Lebesgue(dim=1)',
        'time-t-word': 'TypeError: not a coordinate point',
    },
    'torus': {
        'random-point': 'Point(rule=Coordinate(coords=(0.625095466604667, 0.8972138009695755)), offset=0, component=None, fiber=None) 0x1.400c8353e3ca9p-1 0x1.cb5f9b795e4cdp-1',
        'default-family': "TestFamily(observables=(Harmonic(frequency=1, phase='cos', offset=0.0), Harmonic(frequency=1, phase='sin', offset=0.0), Harmonic(frequency=2, phase='cos', offset=0.0), Harmonic(frequency=2, phase='sin', offset=0.0)))",
        'resolve-word': 'ConfigError: bad point: a explicit-word point is not a point of TorusTranslation',
        'resolve-tagged-word': 'ConfigError: bad point: a explicit-word point is not a point of TorusTranslation',
        'resolve-coordinate': 'Point(rule=Coordinate(coords=(0.217,)), offset=0, component=None, fiber=None) 0x1.bc6a7ef9db22dp-3',
        'measure-bernoulli': 'ConfigError: bad measure: Bernoulli measures live on shift spaces',
        'measure-tagged-bernoulli': 'ConfigError: bad measure: Bernoulli measures live on shift spaces',
        'measure-lebesgue': 'ConfigError: bad measure: Lebesgue(1) on a 2-dimensional space',
        'time-t-word': 'TypeError: not a coordinate point',
    },
    'suspension': {
        'random-point': 'Point(rule=SeededIID(seed=5765488047046174020, probs=(0.5, 0.5)), offset=0, component=None, fiber=0.6729103507271816) 0x1.5887b49b06b9ap-1',
        'default-family': 'TestFamily(observables=(CylinderIndicator(word=(0,), component=None), CylinderIndicator(word=(1,), component=None), CylinderIndicator(word=(0, 0), component=None), CylinderIndicator(word=(0, 1), component=None), CylinderIndicator(word=(1, 0), component=None), CylinderIndicator(word=(1, 1), component=None), FiberProfile(base=Constant(value=1.0), breakpoints=((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))))',
        'resolve-word': 'Point(rule=ExplicitWord(symbols=(0, 1, 1)), offset=0, component=None, fiber=None)',
        'resolve-tagged-word': 'ConfigError: bad point: symbols [0, 2] outside the alphabet of FullShift(k=2)',
        'resolve-coordinate': 'ConfigError: bad point: a coordinate point is not a point of FullShift',
        'measure-bernoulli': 'Bernoulli(probs=(0.5, 0.5), component=None)',
        'measure-tagged-bernoulli': 'Bernoulli(probs=(0.5, 0.5), component=0)',
        'measure-lebesgue': 'ConfigError: bad measure: Lebesgue lives on the circle/torus',
        'time-t-word': 'Point(rule=SeededIID(seed=5, probs=(0.5, 0.5)), offset=3, component=1, fiber=0.4) 0x1.999999999999ap-2',
    },
    'word-roof': {
        'random-point': 'Point(rule=SeededIID(seed=5765488047046174020, probs=(0.5, 0.5)), offset=0, component=None, fiber=0.6280496606787028) 0x1.418fb9a1c2029p-1',
        'default-family': 'TestFamily(observables=(CylinderIndicator(word=(0,), component=None), CylinderIndicator(word=(1,), component=None), CylinderIndicator(word=(0, 0), component=None), CylinderIndicator(word=(0, 1), component=None), CylinderIndicator(word=(1, 0), component=None), CylinderIndicator(word=(1, 1), component=None), FiberProfile(base=Constant(value=1.0), breakpoints=((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))))',
        'resolve-word': 'Point(rule=ExplicitWord(symbols=(0, 1, 1)), offset=0, component=None, fiber=None)',
        'resolve-tagged-word': 'ConfigError: bad point: symbols [0, 2] outside the alphabet of FullShift(k=2)',
        'resolve-coordinate': 'ConfigError: bad point: a coordinate point is not a point of FullShift',
        'measure-bernoulli': 'Bernoulli(probs=(0.5, 0.5), component=None)',
        'measure-tagged-bernoulli': 'Bernoulli(probs=(0.5, 0.5), component=0)',
        'measure-lebesgue': 'ConfigError: bad measure: Lebesgue lives on the circle/torus',
        'time-t-word': 'Point(rule=SeededIID(seed=5, probs=(0.5, 0.5)), offset=3, component=1, fiber=0.4) 0x1.999999999999ap-2',
    },
    'union-suspension': {
        'random-point': 'Point(rule=SeededIID(seed=8275336682942969161, probs=(0.3333333333333333, 0.3333333333333333, 0.3333333333333333)), offset=0, component=1, fiber=0.7756856902451935) 0x1.8d26acbf2815fp-1',
        'default-family': 'TestFamily(observables=(CylinderIndicator(word=(0,), component=0), CylinderIndicator(word=(1,), component=0), CylinderIndicator(word=(0,), component=1), CylinderIndicator(word=(1,), component=1), CylinderIndicator(word=(2,), component=1), CylinderIndicator(word=(0, 0), component=0), CylinderIndicator(word=(0, 1), component=0), CylinderIndicator(word=(1, 0), component=0), CylinderIndicator(word=(1, 1), component=0), CylinderIndicator(word=(0, 0), component=1), CylinderIndicator(word=(0, 1), component=1), CylinderIndicator(word=(0, 2), component=1), CylinderIndicator(word=(1, 0), component=1), CylinderIndicator(word=(1, 1), component=1), CylinderIndicator(word=(1, 2), component=1), CylinderIndicator(word=(2, 0), component=1), CylinderIndicator(word=(2, 1), component=1), CylinderIndicator(word=(2, 2), component=1), FiberProfile(base=Constant(value=1.0), breakpoints=((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))))',
        'resolve-word': 'Point(rule=ExplicitWord(symbols=(0, 1, 1)), offset=0, component=None, fiber=None)',
        'resolve-tagged-word': 'Point(rule=ExplicitWord(symbols=(0, 2)), offset=0, component=1, fiber=None)',
        'resolve-coordinate': 'ConfigError: bad point: a coordinate point is not a point of DisjointUnion',
        'measure-bernoulli': 'ConfigError: bad measure: measures on a disjoint union must carry a component tag',
        'measure-tagged-bernoulli': 'Bernoulli(probs=(0.5, 0.5), component=0)',
        'measure-lebesgue': 'ConfigError: bad measure: Lebesgue lives on the circle/torus',
        'time-t-word': 'Point(rule=SeededIID(seed=5, probs=(0.5, 0.5)), offset=3, component=1, fiber=0.4) 0x1.999999999999ap-2',
    },
    'time-t-suspension': {
        'random-point': 'Point(rule=SeededIID(seed=5765488047046174020, probs=(0.5, 0.5)), offset=0, component=None, fiber=0.6729103507271816) 0x1.5887b49b06b9ap-1',
        # re-pinned: no fiber hat, which the map's cell reader refuses (the flow keeps it)
        'default-family': 'TestFamily(observables=(CylinderIndicator(word=(0,), component=None), CylinderIndicator(word=(1,), component=None), CylinderIndicator(word=(0, 0), component=None), CylinderIndicator(word=(0, 1), component=None), CylinderIndicator(word=(1, 0), component=None), CylinderIndicator(word=(1, 1), component=None)))',
        'resolve-word': 'Point(rule=ExplicitWord(symbols=(0, 1, 1)), offset=0, component=None, fiber=None)',
        'resolve-tagged-word': 'ConfigError: bad point: symbols [0, 2] outside the alphabet of FullShift(k=2)',
        'resolve-coordinate': 'ConfigError: bad point: a coordinate point is not a point of FullShift',
        'measure-bernoulli': 'Bernoulli(probs=(0.5, 0.5), component=None)',
        'measure-tagged-bernoulli': 'Bernoulli(probs=(0.5, 0.5), component=0)',
        'measure-lebesgue': 'ConfigError: bad measure: Lebesgue lives on the circle/torus',
        'time-t-word': 'TypeError: cannot flow TimeTMap',
    },
    'time-t-rotation': {
        'random-point': 'Point(rule=Coordinate(coords=(0.625095466604667,)), offset=0, component=None, fiber=None) 0x1.400c8353e3ca9p-1',
        'default-family': "TestFamily(observables=(Harmonic(frequency=1, phase='cos', offset=0.0), Harmonic(frequency=1, phase='sin', offset=0.0), Harmonic(frequency=2, phase='cos', offset=0.0), Harmonic(frequency=2, phase='sin', offset=0.0)))",
        'resolve-word': 'ConfigError: bad point: a explicit-word point is not a point of CircleRotationFlow',
        'resolve-tagged-word': 'ConfigError: bad point: a explicit-word point is not a point of CircleRotationFlow',
        'resolve-coordinate': 'Point(rule=Coordinate(coords=(0.217,)), offset=0, component=None, fiber=None) 0x1.bc6a7ef9db22dp-3',
        'measure-bernoulli': 'ConfigError: bad measure: Bernoulli measures live on shift spaces',
        'measure-tagged-bernoulli': 'ConfigError: bad measure: Bernoulli measures live on shift spaces',
        'measure-lebesgue': 'Lebesgue(dim=1)',
        'time-t-word': 'TypeError: cannot flow TimeTMap',
    },
}

