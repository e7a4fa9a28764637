"""Records: every frozen record class of the package builds, compares,
hashes, prints and copies the way its fields say, and refuses assignment.

The table holds one record of every class with the text its repr prints;
`test_the_table_holds_every_record_class` fails when a record class is added
without a row."""

import numpy as np
import pytest

from ergode import birkhoff, constructions, entropy, measures, reporting, systems as sy
from ergode.measures import Bernoulli, CylinderIndicator, Harmonic, Lebesgue
from ergode.systems import CircleRotationFlow, ExplicitWord, FullShift, Point, Record, RoofFunction


def word(*symbols):
    return Point(ExplicitWord(symbols))


# (build, repr): build makes a fresh record each call
TABLE = [
    (lambda: sy.FullShift(2),
     'FullShift(k=2)'),
    (lambda: sy.MarkovShift(2, ((1, 1), (1, 0))),
     'MarkovShift(k=2, adjacency=((1, 1), (1, 0)))'),
    (lambda: sy.CircleMult(3),
     'CircleMult(n=3)'),
    (lambda: sy.CircleRotation(1.25),
     'CircleRotation(theta=0.25)'),
    (lambda: sy.DisjointUnion(FullShift(2), FullShift(3)),
     'DisjointUnion(left=FullShift(k=2), right=FullShift(k=3))'),
    (lambda: sy.CircleRotationFlow(),
     'CircleRotationFlow()'),
    (lambda: sy.TorusTranslation((0.5, 0.25)),
     'TorusTranslation(velocity=(0.5, 0.25))'),
    (lambda: sy.RoofFunction(1, (1.0, 2.0), 2),
     'RoofFunction(depth=1, table=(1.0, 2.0), k=2)'),
    (lambda: sy.Suspension(FullShift(2), RoofFunction.constant(2.0)),
     'Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(2.0,), k=1))'),
    (lambda: sy.TimeTMap(CircleRotationFlow(), 0.5),
     'TimeTMap(flow=CircleRotationFlow(), t=0.5)'),
    (lambda: sy._Chart(1, 2, 3, 4),
     '_Chart(f=1, tt=2, cc=3, d=4)'),
    (lambda: sy.CellPlan([2], 0.5, 2.0, [2.0], (2.0,), None),
     'CellPlan(ends=[2], f0=0.5, roof0=2.0, entry=[2.0], classes=(2.0,), weights=None)'),
    (lambda: sy.ExplicitWord((0, 1)),
     'ExplicitWord(symbols=(0, 1))'),
    (lambda: sy.SeededIID(7, (0.5, 0.5)),
     'SeededIID(seed=7, probs=(0.5, 0.5))'),
    (lambda: sy.SeededMarkov(7, ((0.5, 0.5), (1.0, 0.0)), (0.5, 0.5)),
     'SeededMarkov(seed=7, transitions=((0.5, 0.5), (1.0, 0.0)), stationary=(0.5, 0.5))'),
    (lambda: sy.BlockSchedule((((0, 1), 2), ((1,), 3))),
     'BlockSchedule(blocks=(((0, 1), 2), ((1,), 3)))'),
    (lambda: sy.SteeredBlocks(3, 0, (10, 100), (0.5, 0.2)),
     'SteeredBlocks(k=3, symbol=0, ends=(10, 100), targets=(0.5, 0.2))'),
    (lambda: sy.Coordinate((1.25,)),
     'Coordinate(coords=(0.25,))'),
    (lambda: sy.Point(ExplicitWord((0, 1)), 3, 1, 0.5),
     'Point(rule=ExplicitWord(symbols=(0, 1)), offset=3, component=1, fiber=0.5)'),
    (lambda: measures._PointMass(word(0)),
     '_PointMass(point=Point(rule=ExplicitWord(symbols=(0,)), offset=0, component=None, fiber=None))'),
    (lambda: measures.Bernoulli((0.5, 0.5), 1),
     'Bernoulli(probs=(0.5, 0.5), component=1)'),
    (lambda: measures.Markov(((0.5, 0.5), (0.5, 0.5)), (0.5, 0.5)),
     'Markov(transitions=((0.5, 0.5), (0.5, 0.5)), stationary=(0.5, 0.5), component=None)'),
    (lambda: measures.Lebesgue(2),
     'Lebesgue(dim=2)'),
    (lambda: measures.Atomic((word(0),), (1.0,)),
     'Atomic(points=(Point(rule=ExplicitWord(symbols=(0,)), offset=0, component=None, fiber=None),), weights=(1.0,))'),
    (lambda: measures.Mixture(((Bernoulli((0.5, 0.5)), 1.0),)),
     'Mixture(components=((Bernoulli(probs=(0.5, 0.5), component=None), 1.0),))'),
    (lambda: measures.TimeAveraged(CircleRotationFlow(), Lebesgue(), 4),
     'TimeAveraged(flow=CircleRotationFlow(), base=Lebesgue(dim=1), m=4)'),
    (lambda: measures.TimeShifted(CircleRotationFlow(), 0.5, Lebesgue()),
     'TimeShifted(flow=CircleRotationFlow(), t=0.5, base=Lebesgue(dim=1))'),
    (lambda: measures.Constant(1.5),
     'Constant(value=1.5)'),
    (lambda: measures.CylinderIndicator((0, 1), 0),
     'CylinderIndicator(word=(0, 1), component=0)'),
    (lambda: measures.Harmonic(2, "sin", 0.25),
     "Harmonic(frequency=2, phase='sin', offset=0.25)"),
    (lambda: measures.FiberProfile(CylinderIndicator((0,)), ((0.0, 0.0), (1.0, 1.0))),
     'FiberProfile(base=CylinderIndicator(word=(0,), component=None), breakpoints=((0.0, 0.0), (1.0, 1.0)))'),
    (lambda: measures._Composed(CircleRotationFlow(), 0.5, Harmonic(1)),
     "_Composed(flow=CircleRotationFlow(), t=0.5, base=Harmonic(frequency=1, phase='cos', offset=0.0))"),
    (lambda: measures.TestFamily((Harmonic(1),)),
     "TestFamily(observables=(Harmonic(frequency=1, phase='cos', offset=0.0),))"),
    (lambda: entropy.WholeSpace(),
     'WholeSpace()'),
    (lambda: entropy.FrequencyWindow(0, 0.25, 0.75),
     'FrequencyWindow(symbol=0, lo=0.25, hi=0.75, component=None)'),
    (lambda: entropy.OscillationWindows(0, ((10, 0.0, 0.5), (100, 0.5, 1.0))),
     'OscillationWindows(symbol=0, windows=((10, 0.0, 0.5), (100, 0.5, 1.0)))'),
    (lambda: entropy.ComponentWindow(0.0, 1.0),
     'ComponentWindow(lo=0.0, hi=1.0)'),
    (lambda: entropy.SampleCloud((word(0),)),
     'SampleCloud(points=(Point(rule=ExplicitWord(symbols=(0,)), offset=0, component=None, fiber=None),))'),
    (lambda: entropy.EntropyEstimate(0.5, 0.25, 0.75, (16, 24), (0.5, 0.5), ("bracket",), {"c": 1}),
     "EntropyEstimate(value=0.5, lower=0.25, upper=0.75, depths=(16, 24), alphas=(0.5, 0.5), flags=('bracket',), details={'c': 1})"),
    (lambda: entropy.WordCount(4, 16, 0.5),
     'WordCount(depth=4, count=16, rate=0.5)'),
    (lambda: birkhoff.Schedule((10.0, 100.0)),
     'Schedule(checkpoints=(10.0, 100.0))'),
    (lambda: birkhoff.Verdict("Irregular", 0.25, Harmonic(1), 100.0, None),
     "Verdict(label='Irregular', gap=0.25, witness=Harmonic(frequency=1, phase='cos', offset=0.0), checkpoint=100.0, profile=None)"),
    (lambda: birkhoff.LimitClass((0.5,), (100.0,)),
     'LimitClass(integrals=(0.5,), checkpoints=(100.0,))'),
    (lambda: constructions.MistakeFunction("power", ((0.5, 2.0), (1.0, 1.0)), 0.5),
     "MistakeFunction(kind='power', coeff_table=((0.5, 2.0), (1.0, 1.0)), beta=0.5, eps0=1.0)"),
    (lambda: constructions.MistakeBallReport(True, 2, 3.5, 100),
     'MistakeBallReport(member=True, mismatches=2, budget=3.5, horizon=100)'),
    (lambda: constructions.GluedOrbit(word(0, 1), (10,), (2,), (0, 1), True),
     'GluedOrbit(point=Point(rule=ExplicitWord(symbols=(0, 1)), offset=0, component=None, fiber=None), junction_times=(10,), connector_lengths=(2,), segment_mismatches=(0, 1), within_budget=True)'),
    (lambda: constructions.StageRecipe(((0.5, 0.5), (0.5, 0.5)), (0.5, 0.5), ((1, 1), (1, 1)), 1, 64),
     'StageRecipe(transitions=((0.5, 0.5), (0.5, 0.5)), stationary=(0.5, 0.5), adjacency=((1, 1), (1, 1)), first_stage=1, horizon=64)'),
    (lambda: constructions.IrregularRecipe(word(0, 1), 0, 0.25, 0.75, (10, 100), (0.25, 0.75)),
     'IrregularRecipe(point=Point(rule=ExplicitWord(symbols=(0, 1)), offset=0, component=None, fiber=None), symbol=0, lo=0.25, hi=0.75, block_ends=(10, 100), targets=(0.25, 0.75))'),
    (lambda: reporting.Row("e", "q", 1.0, None, None, {"a": 1}, 0.5),
     "Row(experiment_id='e', quantity='q', value=1.0, lower=None, upper=None, params={'a': 1}, runtime_ms=0.5)"),
]

# the bases records share their questions through; no record is one of them alone
BASES = {"_Descriptor", "_Shift", "_Rule", "_Blocks", "Measure", "_Piece", "_Chain", "Observable", "_Subset"}
IDS = [repr_.split("(")[0] for _, repr_ in TABLE]


def record_classes(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("ergode."):
            yield sub
        yield from record_classes(sub)


def test_the_table_holds_every_record_class():
    held = {type(build()) for build, _ in TABLE} | {sy._Grid}
    assert {c for c in record_classes() if c.__name__ not in BASES} == held
    assert len(held) == 50


@pytest.mark.parametrize("build, text", TABLE, ids=IDS)
def test_a_record_prints_compares_hashes_and_copies_by_its_fields(build, text):
    x, y = build(), build()
    assert repr(x) == text and x is not y
    assert x == y and not x != y
    if all(v.__hash__ is not None for v in x._key()):    # a Row holds a dict: unhashable
        assert hash(x) == hash(y)
    assert x._replace() == x and type(x._replace()) is type(x)
    assert x != object() and x.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("build, text", TABLE, ids=IDS)
def test_a_record_refuses_assignment_and_deletion(build, text):
    x = build()
    for name in (*x._fields, "unheard_of"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == text


def test_a_record_is_built_by_position_keyword_and_default():
    assert Point(ExplicitWord((0,)), fiber=0.5) == Point(ExplicitWord((0,)), 0, None, 0.5)
    assert Point(rule=ExplicitWord((0,))).offset == 0
    for args, kwargs in (((ExplicitWord((0,)), 0, None, None, 1), {}), ((), {}),
                         ((ExplicitWord((0,)),), {"rule": ExplicitWord((1,))}),
                         ((ExplicitWord((0,)),), {"phase": 1})):
        with pytest.raises(TypeError):
            Point(*args, **kwargs)
    with pytest.raises(ValueError, match="offset"):        # __post_init__ runs
        Point(ExplicitWord((0,)), -1)


def test_replace_changes_the_named_fields_and_checks_them_again():
    x = Point(ExplicitWord((0, 1)), 3, 1, 0.5)
    assert x._replace(component=None) == Point(x.rule, 3, None, 0.5)
    assert Harmonic(1)._replace(offset=0.25) == Harmonic(1, "cos", 0.25)
    with pytest.raises(ValueError):
        x._replace(offset=-1)
    with pytest.raises(TypeError):
        x._replace(phase="sin")


RULES = [lambda: sy.ExplicitWord((0, 1)), lambda: sy.SeededIID(7, (0.5, 0.5)),
         lambda: sy.SeededMarkov(7, ((0.5, 0.5), (1.0, 0.0)), (0.5, 0.5)),
         lambda: sy.BlockSchedule((((0, 1), 2), ((1,), 3))),
         lambda: sy.SteeredBlocks(3, 0, (10, 100), (0.5, 0.2)),
         lambda: constructions.StageRecipe(((0.5, 0.5), (0.5, 0.5)), (0.5, 0.5),
                                           ((1, 1), (1, 1)), 1, 64)]


@pytest.mark.parametrize("build", RULES, ids=lambda b: type(b()).__name__)
def test_a_rule_buffer_is_its_own_and_outside_equality_hash_and_repr(build):
    read, fresh = build(), build()
    read.materialise(3000)
    assert "arr" in read._buf and "arr" not in fresh._buf and read._buf is not fresh._buf
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert "_buf" not in read._fields and "_buf" not in repr(read)
    assert "arr" not in read._replace()._buf


def test_entropy_details_take_no_part_in_equality_or_hash():
    a = entropy.EntropyEstimate(0.5, 0.25, 0.75, (16,), (0.5,), (), {"c": 1})
    b = a._replace(details={"c": 2})
    assert a == b and hash(a) == hash(b) and repr(a) != repr(b)
    assert a != a._replace(value=0.25)


def test_a_cell_grid_equals_only_itself():
    a, b = sy._Grid(np.array([0, 2, 5])), sy._Grid(np.array([0, 2, 5]))
    assert a == a and a != b and hash(a) != hash(b)
    assert len({a, b, a}) == 2
    with pytest.raises(AttributeError):
        a.first_steps = None


def test_cached_properties_are_computed_once_per_record():
    mu = measures.Atomic((word(0), word(1)), (0.25, 0.75))
    assert mu.pieces is mu.pieces and "pieces" in vars(mu) and "pieces" not in repr(mu)
    shifted = measures.TimeShifted(CircleRotationFlow(), 0.5, Lebesgue())
    assert shifted.pieces is shifted.pieces
    shift = sy.MarkovShift(2, ((1, 1), (1, 0)))
    assert shift.forbids_nothing is False and "forbids_nothing" in vars(shift)
    assert shift == sy.MarkovShift(2, ((1, 1), (1, 0)))
