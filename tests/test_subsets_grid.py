"""Every subset kind against every system kind, through each entropy reader.

A subset answers which sides of a disjoint union it keeps, which shifts can
count it, its counts on one shift, whether it is a cloud of prefixes and
whether an isometric system's spanning route takes it.  The grid below pins
what those answers produce through the public readers: an estimate by its
value, bracket and flags to 12 decimals, a word count by its exact
count and its rate, and a refusal by its exception type and message.
"""

import pytest

from ergode.entropy import (
    ComponentWindow, FrequencyWindow, OscillationWindows, SampleCloud, WholeSpace,
    bowen_entropy_flow, bowen_entropy_symbolic, spanning_entropy, word_count_rate,
)
from ergode.systems import (
    CircleMult, CircleRotation, DisjointUnion, ExplicitWord, FullShift, MarkovShift, Point,
    RoofFunction, SeededIID, Suspension, TimeTMap,
)

GOLDEN_MEAN = MarkovShift(2, ((1, 1), (1, 0)))
FLOW = Suspension(FullShift(2), RoofFunction.constant(1.0))

SYSTEMS = {
    "full-shift": FullShift(2),
    "golden-mean": GOLDEN_MEAN,
    "union": DisjointUnion(FullShift(2), GOLDEN_MEAN),
    "circle-mult": CircleMult(2),
    "rotation": CircleRotation(0.3),
    "suspension": FLOW,
    "time-half": TimeTMap(FLOW, 0.5),
    "time-one": TimeTMap(FLOW, 1.0),
}

SUBSETS = {
    "whole-space": WholeSpace(),
    "frequency-window": FrequencyWindow(0, 0.3, 0.5),
    "tagged-frequency-window": FrequencyWindow(1, 0.2, 0.4, component=1),
    "oscillation-windows": OscillationWindows(0, ((8, 0.2, 0.5), (16, 0.4, 0.7))),
    "component-window": ComponentWindow(0.0, 0.5),
    "sample-cloud": SampleCloud((Point(SeededIID(1, (0.5, 0.5))),
                                 Point(SeededIID(2, (0.5, 0.5)), component=1),
                                 Point(ExplicitWord((0, 1)), 1, 1))),
}

DEPTHS = (16, 20, 24)


def bowen(system, subset):
    reader = bowen_entropy_flow if system.is_flow else bowen_entropy_symbolic
    return reader(system, subset, DEPTHS)


READERS = {
    "bowen": bowen,
    "spanning": lambda system, subset: spanning_entropy(system, subset, DEPTHS),
    "word-count": lambda system, subset: word_count_rate(system, subset, 24),
}


def pinned(value: float) -> str:
    """The value to 12 decimals; a fit's rounding residue of order 1e-16 reads 0."""
    return f"{round(value, 12) + 0.0:.12f}"


def outcome(reader, system, subset):
    try:
        got = reader(system, subset)
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if reader is READERS["word-count"]:
        return f"{got.count} {pinned(got.rate)}"
    return f"{pinned(got.value)} [{pinned(got.lower)}, {pinned(got.upper)}] {list(got.flags)}"


@pytest.mark.parametrize("system, subset", [(s, t) for s in SYSTEMS for t in SUBSETS])
def test_each_subset_on_each_system_reads_as_pinned(system, subset):
    got = {name: outcome(reader, SYSTEMS[system], SUBSETS[subset])
           for name, reader in READERS.items()}
    assert got == EXPECTED[system][subset]


# the answer of each reader in READERS order, per system and subset
EXPECTED = {
    'full-shift': {
        'whole-space': {
            'bowen': '0.693147180560 [0.693147180560, 0.693147180560] []',
            'spanning': '0.693147180560 [0.693147180560, 0.693147180560] []',
            'word-count': '16777216 0.693147180560',
        },
        'frequency-window': {
            'bowen': '0.668133600866 [0.656884405617, 0.668133600866] []',
            'spanning': '0.694554288339 [0.692172916517, 0.696935660162] []',
            'word-count': '9204531 0.668133600866',
        },
        'tagged-frequency-window': {
            'bowen': 'UnsupportedSubset: a component tag needs a disjoint union, not FullShift(k=2)',
            'spanning': 'UnsupportedSubset: a component tag needs a disjoint union, not FullShift(k=2)',
            'word-count': 'UnsupportedSubset: a component tag needs a disjoint union, not FullShift(k=2)',
        },
        'oscillation-windows': {
            'bowen': '0.656186385386 [0.637705987799, 0.656186385386] []',
            'spanning': '0.693147180560 [0.693147180560, 0.693147180560] []',
            'word-count': '6909952 0.656186385386',
        },
        'component-window': {
            'bowen': 'UnsupportedSubset: no count of ComponentWindow on FullShift(k=2)',
            'spanning': 'UnsupportedSubset: no count of ComponentWindow on FullShift(k=2)',
            'word-count': 'UnsupportedSubset: no count of ComponentWindow on FullShift(k=2)',
        },
        'sample-cloud': {
            'bowen': "0.045775512028 [0.045775512028, 0.068663268042] ['upper-bound-only']",
            'spanning': '0.000000000000 [0.000000000000, 0.000000000000] []',
            'word-count': '3 0.045775512028',
        },
    },
    'golden-mean': {
        'whole-space': {
            'bowen': '0.481211825060 [0.481211825059, 0.481211825060] []',
            'spanning': '0.481211825071 [0.481211825042, 0.481211825101] []',
            'word-count': '121393 0.487782853972',
        },
        'frequency-window': {
            'bowen': '0.102930172591 [0.102930172591, 0.130150052442] []',
            'spanning': '0.035960259056 [0.029087163322, 0.042833354791] []',
            'word-count': '13 0.106872889894',
        },
        'tagged-frequency-window': {
            'bowen': 'UnsupportedSubset: a component tag needs a disjoint union, not MarkovShift(k=2, adjacency=((1, 1), (1, 0)))',
            'spanning': 'UnsupportedSubset: a component tag needs a disjoint union, not MarkovShift(k=2, adjacency=((1, 1), (1, 0)))',
            'word-count': 'UnsupportedSubset: a component tag needs a disjoint union, not MarkovShift(k=2, adjacency=((1, 1), (1, 0)))',
        },
        'oscillation-windows': {
            'bowen': 'UnsupportedSubset: no count of OscillationWindows on MarkovShift(k=2, adjacency=((1, 1), (1, 0)))',
            'spanning': 'UnsupportedSubset: no count of OscillationWindows on MarkovShift(k=2, adjacency=((1, 1), (1, 0)))',
            'word-count': 'UnsupportedSubset: no count of OscillationWindows on MarkovShift(k=2, adjacency=((1, 1), (1, 0)))',
        },
        'component-window': {
            'bowen': 'UnsupportedSubset: no count of ComponentWindow on MarkovShift(k=2, adjacency=((1, 1), (1, 0)))',
            'spanning': 'UnsupportedSubset: no count of ComponentWindow on MarkovShift(k=2, adjacency=((1, 1), (1, 0)))',
            'word-count': 'UnsupportedSubset: no count of ComponentWindow on MarkovShift(k=2, adjacency=((1, 1), (1, 0)))',
        },
        'sample-cloud': {
            'bowen': "0.045775512028 [0.045775512028, 0.068663268042] ['upper-bound-only']",
            'spanning': '0.000000000000 [0.000000000000, 0.000000000000] []',
            'word-count': '3 0.045775512028',
        },
    },
    'union': {
        'whole-space': {
            'bowen': '0.693390360231 [0.693390360231, 0.695108806009] []',
            'spanning': '0.692026220610 [0.690835608239, 0.693216832981] []',
            'word-count': '16898609 0.693447577867',
        },
        'frequency-window': {
            'bowen': 'UnsupportedSubset: no count of FrequencyWindow on a disjoint union (a frequency window needs a component tag 0 or 1)',
            'spanning': 'UnsupportedSubset: no count of FrequencyWindow on a disjoint union (a frequency window needs a component tag 0 or 1)',
            'word-count': 'UnsupportedSubset: no count of FrequencyWindow on a disjoint union (a frequency window needs a component tag 0 or 1)',
        },
        'tagged-frequency-window': {
            'bowen': '0.477131451688 [0.463836711994, 0.477444310599] []',
            'spanning': '0.497771924037 [0.476672271920, 0.518871576154] []',
            'word-count': '110210 0.483755954820',
        },
        'oscillation-windows': {
            'bowen': 'UnsupportedSubset: no count of OscillationWindows on a disjoint union (a frequency window needs a component tag 0 or 1)',
            'spanning': 'UnsupportedSubset: no count of OscillationWindows on a disjoint union (a frequency window needs a component tag 0 or 1)',
            'word-count': 'UnsupportedSubset: no count of OscillationWindows on a disjoint union (a frequency window needs a component tag 0 or 1)',
        },
        'component-window': {
            'bowen': '0.693147180560 [0.693147180560, 0.693147180560] []',
            'spanning': '0.693147180560 [0.693147180560, 0.693147180560] []',
            'word-count': '16777216 0.693147180560',
        },
        'sample-cloud': {
            'bowen': "0.045775512028 [0.045775512028, 0.068663268042] ['upper-bound-only']",
            'spanning': '0.000000000000 [0.000000000000, 0.000000000000] []',
            'word-count': '3 0.045775512028',
        },
    },
    'circle-mult': {
        'whole-space': {
            'bowen': '0.693147180560 [0.693147180560, 0.693147180560] []',
            'spanning': '0.693147180560 [0.693147180560, 0.693147180560] []',
            'word-count': '16777216 0.693147180560',
        },
        'frequency-window': {
            'bowen': '0.668133600866 [0.656884405617, 0.668133600866] []',
            'spanning': '0.694554288339 [0.692172916517, 0.696935660162] []',
            'word-count': '9204531 0.668133600866',
        },
        'tagged-frequency-window': {
            'bowen': 'UnsupportedSubset: a component tag needs a disjoint union, not CircleMult(n=2)',
            'spanning': 'UnsupportedSubset: a component tag needs a disjoint union, not CircleMult(n=2)',
            'word-count': 'UnsupportedSubset: a component tag needs a disjoint union, not CircleMult(n=2)',
        },
        'oscillation-windows': {
            'bowen': '0.656186385386 [0.637705987799, 0.656186385386] []',
            'spanning': '0.693147180560 [0.693147180560, 0.693147180560] []',
            'word-count': '6909952 0.656186385386',
        },
        'component-window': {
            'bowen': 'UnsupportedSubset: no count of ComponentWindow on FullShift(k=2)',
            'spanning': 'UnsupportedSubset: no count of ComponentWindow on FullShift(k=2)',
            'word-count': 'UnsupportedSubset: no count of ComponentWindow on FullShift(k=2)',
        },
        'sample-cloud': {
            'bowen': 'UnsupportedSubset: no count of SampleCloud on FullShift(k=2)',
            'spanning': 'UnsupportedSubset: no count of SampleCloud on FullShift(k=2)',
            'word-count': 'UnsupportedSubset: no count of SampleCloud on FullShift(k=2)',
        },
    },
    'rotation': {
        'whole-space': {
            'bowen': "0.000000000000 [0.000000000000, 0.000000000000] ['zero-expansion']",
            'spanning': "0.000000000000 [0.000000000000, 0.216608493925] ['zero-expansion']",
            'word-count': 'UnsupportedSubset: no count of WholeSpace on CircleRotation(theta=0.3)',
        },
        'frequency-window': {
            'bowen': "0.000000000000 [0.000000000000, 0.000000000000] ['zero-expansion']",
            'spanning': 'UnsupportedSubset: rotation spanning counts cover the whole space or a cloud',
            'word-count': 'UnsupportedSubset: no count of FrequencyWindow on CircleRotation(theta=0.3)',
        },
        'tagged-frequency-window': {
            'bowen': "0.000000000000 [0.000000000000, 0.000000000000] ['zero-expansion']",
            'spanning': 'UnsupportedSubset: rotation spanning counts cover the whole space or a cloud',
            'word-count': 'UnsupportedSubset: a component tag needs a disjoint union, not CircleRotation(theta=0.3)',
        },
        'oscillation-windows': {
            'bowen': "0.000000000000 [0.000000000000, 0.000000000000] ['zero-expansion']",
            'spanning': 'UnsupportedSubset: rotation spanning counts cover the whole space or a cloud',
            'word-count': 'UnsupportedSubset: no count of OscillationWindows on CircleRotation(theta=0.3)',
        },
        'component-window': {
            'bowen': "0.000000000000 [0.000000000000, 0.000000000000] ['zero-expansion']",
            'spanning': 'UnsupportedSubset: rotation spanning counts cover the whole space or a cloud',
            'word-count': 'UnsupportedSubset: no count of ComponentWindow on CircleRotation(theta=0.3)',
        },
        'sample-cloud': {
            'bowen': "0.000000000000 [0.000000000000, 0.000000000000] ['zero-expansion']",
            'spanning': "0.000000000000 [0.000000000000, 0.216608493925] ['zero-expansion']",
            'word-count': 'UnsupportedSubset: no count of SampleCloud on CircleRotation(theta=0.3)',
        },
    },
    'suspension': {
        'whole-space': {
            'bowen': '0.738111021657 [0.738111021657, 0.761387722308] []',
            'spanning': 'UnsupportedSubset: no count of WholeSpace on Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1))',
            'word-count': 'UnsupportedSubset: no count of WholeSpace on Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1))',
        },
        'frequency-window': {
            'bowen': '0.712516399716 [0.712516399716, 0.723844033755] []',
            'spanning': 'UnsupportedSubset: no count of FrequencyWindow on Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1))',
            'word-count': 'UnsupportedSubset: no count of FrequencyWindow on Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1))',
        },
        'tagged-frequency-window': {
            'bowen': 'UnsupportedSubset: a component tag needs a disjoint union, not FullShift(k=2)',
            'spanning': 'UnsupportedSubset: a component tag needs a disjoint union, not Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1))',
            'word-count': 'UnsupportedSubset: a component tag needs a disjoint union, not Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1))',
        },
        'oscillation-windows': {
            'bowen': '0.700292258069 [0.700292258069, 0.703990404025] []',
            'spanning': 'UnsupportedSubset: no count of OscillationWindows on Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1))',
            'word-count': 'UnsupportedSubset: no count of OscillationWindows on Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1))',
        },
        'component-window': {
            'bowen': 'UnsupportedSubset: no count of ComponentWindow on FullShift(k=2)',
            'spanning': 'UnsupportedSubset: no count of ComponentWindow on Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1))',
            'word-count': 'UnsupportedSubset: no count of ComponentWindow on Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1))',
        },
        'sample-cloud': {
            'bowen': "0.076252815366 [0.076252815366, 0.115624334961] ['upper-bound-only']",
            'spanning': 'UnsupportedSubset: no count of SampleCloud on Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1))',
            'word-count': 'UnsupportedSubset: no count of SampleCloud on Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1))',
        },
    },
    'time-half': {
        'whole-space': {
            'bowen': '0.365163278923 [0.365163278923, 0.374633148395] []',
            'spanning': 'UnsupportedSubset: no count of WholeSpace on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=0.5)',
            'word-count': 'UnsupportedSubset: no count of WholeSpace on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=0.5)',
        },
        'frequency-window': {
            'bowen': '0.352501178540 [0.352501178540, 0.356160980800] []',
            'spanning': 'UnsupportedSubset: no count of FrequencyWindow on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=0.5)',
            'word-count': 'UnsupportedSubset: no count of FrequencyWindow on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=0.5)',
        },
        'tagged-frequency-window': {
            'bowen': 'UnsupportedSubset: a component tag needs a disjoint union, not FullShift(k=2)',
            'spanning': 'UnsupportedSubset: a component tag needs a disjoint union, not TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=0.5)',
            'word-count': 'UnsupportedSubset: a component tag needs a disjoint union, not TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=0.5)',
        },
        'oscillation-windows': {
            'bowen': '0.346453679076 [0.346392605543, 0.346453679076] []',
            'spanning': 'UnsupportedSubset: no count of OscillationWindows on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=0.5)',
            'word-count': 'UnsupportedSubset: no count of OscillationWindows on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=0.5)',
        },
        'component-window': {
            'bowen': 'UnsupportedSubset: no count of ComponentWindow on FullShift(k=2)',
            'spanning': 'UnsupportedSubset: no count of ComponentWindow on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=0.5)',
            'word-count': 'UnsupportedSubset: no count of ComponentWindow on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=0.5)',
        },
        'sample-cloud': {
            'bowen': "0.037724996960 [0.037724996960, 0.056894096252] ['upper-bound-only']",
            'spanning': 'UnsupportedSubset: no count of SampleCloud on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=0.5)',
            'word-count': 'UnsupportedSubset: no count of SampleCloud on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=0.5)',
        },
    },
    'time-one': {
        'whole-space': {
            'bowen': '0.693147180560 [0.693147180560, 0.693147180560] []',
            'spanning': 'UnsupportedSubset: no count of WholeSpace on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=1.0)',
            'word-count': 'UnsupportedSubset: no count of WholeSpace on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=1.0)',
        },
        'frequency-window': {
            'bowen': '0.668133600866 [0.656884405617, 0.668133600866] []',
            'spanning': 'UnsupportedSubset: no count of FrequencyWindow on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=1.0)',
            'word-count': 'UnsupportedSubset: no count of FrequencyWindow on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=1.0)',
        },
        'tagged-frequency-window': {
            'bowen': 'UnsupportedSubset: a component tag needs a disjoint union, not FullShift(k=2)',
            'spanning': 'UnsupportedSubset: a component tag needs a disjoint union, not TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=1.0)',
            'word-count': 'UnsupportedSubset: a component tag needs a disjoint union, not TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=1.0)',
        },
        'oscillation-windows': {
            'bowen': '0.656186385386 [0.637705987799, 0.656186385386] []',
            'spanning': 'UnsupportedSubset: no count of OscillationWindows on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=1.0)',
            'word-count': 'UnsupportedSubset: no count of OscillationWindows on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=1.0)',
        },
        'component-window': {
            'bowen': 'UnsupportedSubset: no count of ComponentWindow on FullShift(k=2)',
            'spanning': 'UnsupportedSubset: no count of ComponentWindow on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=1.0)',
            'word-count': 'UnsupportedSubset: no count of ComponentWindow on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=1.0)',
        },
        'sample-cloud': {
            'bowen': "0.045775512028 [0.045775512028, 0.068663268042] ['upper-bound-only']",
            'spanning': 'UnsupportedSubset: no count of SampleCloud on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=1.0)',
            'word-count': 'UnsupportedSubset: no count of SampleCloud on TimeTMap(flow=Suspension(base=FullShift(k=2), roof=RoofFunction(depth=0, table=(1.0,), k=1)), t=1.0)',
        },
    },
}
