"""Ergodic-average and dimension-like entropy experiments.

The package splits into layers: `systems` (spaces, maps, flows, points),
`measures` (invariant measures, observables, integration), `birkhoff`
(orbit averages and generic/irregular classification), `entropy`
(Caratheodory-style and spanning-count estimators for possibly noncompact
orbit classes), `constructions` (generic points, oscillating points,
orbit gluing with mistake budgets), plus config/reporting/cli plumbing.
"""

from .systems import (
    BlockSchedule, BudgetExhausted, CircleMult, CircleRotation,
    CircleRotationFlow, Coordinate, DisjointUnion, ExplicitWord, FullShift,
    MarkovShift, Point, RoofFunction, SeededIID, SteeredBlocks, Suspension,
    TimeTMap, TorusTranslation, iterate, random_point, step, time_t_map,
)
from .measures import (
    Atomic, Bernoulli, Constant, CylinderIndicator, FiberProfile, Harmonic,
    Lebesgue, Markov, Mixture, SymbolFrequency, TestFamily, TimeAveraged,
    TimeShifted, check_invariance, integrate, metric_entropy,
    partition_entropy_estimate, pushforward, time_average_measure,
    weak_star_distance,
)
from .birkhoff import (
    LimitClass, Schedule, Verdict, birkhoff_average_flow, birkhoff_average_map,
    birkhoff_profile, classify_generic, classify_irregular, empirical_measure,
    flow_average_profile, limit_point_set,
)
from .entropy import (
    ComponentWindow, EntropyEstimate, FrequencyWindow, OscillationWindows,
    SampleCloud, WholeSpace, WordCount, bowen_entropy_flow,
    bowen_entropy_symbolic, caratheodory_sum, spanning_entropy, word_count_rate,
)
from .constructions import (
    GluedOrbit, GluingError, IrregularRecipe, MistakeBallReport,
    MistakeFunction, build_counterexample_system, generic_point, glue_orbits,
    irregular_point, mistake_ball_membership,
)
from .config import ConfigError, load_config

__version__ = "0.1.0"
