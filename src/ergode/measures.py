"""Invariant measures, observables and measure-level operations.

Measure kinds: Bernoulli and Markov measures on shift spaces (optionally
tagged with a disjoint-union component), Lebesgue on the circle/torus, finite
atomic measures, mixtures, and two lazy wrappers used on suspension spaces:
``TimeShifted`` (image of a measure under the time-t map, evaluated by
integrating the composed observable) and ``TimeAveraged`` (the measure
averaged over one unit of flow time, discretised by a midpoint rule with m
nodes).  Symbolic measures used on a suspension space are understood as
sitting on the fiber-zero copy of the base.

Integration is exact for every built-in pair; the only generic fallback is a
midpoint quadrature on the circle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .systems import (
    BudgetExhausted, CircleMult, CircleRotation, CircleRotationFlow, Coordinate,
    DisjointUnion, ExplicitWord, FullShift, MarkovShift, Point, Suspension,
    TimeTMap, TorusTranslation, time_t_map,
)

__all__ = [
    "Bernoulli", "Markov", "Lebesgue", "Atomic", "Mixture", "TimeAveraged",
    "TimeShifted", "Measure", "Constant", "CylinderIndicator",
    "SymbolFrequency", "Harmonic", "FiberProfile", "Observable", "TestFamily",
    "evaluate", "evaluate_on_circle", "integrate", "pushforward",
    "time_average_measure", "weak_star_distance", "metric_entropy",
    "partition_entropy_estimate", "compose_with_flow", "InvarianceWarning",
    "PartitionWarning",
]

_MASS_TOL = 1e-9


class InvarianceWarning(UserWarning):
    """Measure accepted without an invariance check (atomic input)."""


class PartitionWarning(UserWarning):
    """No generating partition for this system; estimate is indicative only."""


# ---------------------------------------------------------------------------
# measures


@dataclass(frozen=True)
class Bernoulli:
    probs: Tuple[float, ...]
    component: Optional[int] = None

    def __post_init__(self):
        if len(self.probs) < 2 or any(p < 0 for p in self.probs):
            raise ValueError("Bernoulli needs >= 2 nonnegative probabilities")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError("Bernoulli probabilities must sum to 1")
        object.__setattr__(self, "probs", tuple(p / total for p in self.probs))

    @property
    def k(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class Markov:
    transitions: Tuple[Tuple[float, ...], ...]
    stationary: Tuple[float, ...]
    component: Optional[int] = None

    def __post_init__(self):
        P = self.transitions
        pi = self.stationary
        k = len(P)
        if k < 2 or any(len(row) != k for row in P) or len(pi) != k:
            raise ValueError("transition matrix must be square and match stationary vector")
        if any(p < 0 for row in P for p in row) or any(p < 0 for p in pi):
            raise ValueError("Markov data must be nonnegative")
        for row in P:
            if abs(math.fsum(row) - 1.0) > _MASS_TOL:
                raise ValueError("transition rows must sum to 1")
        if abs(math.fsum(pi) - 1.0) > _MASS_TOL:
            raise ValueError("stationary vector must sum to 1")
        residual = max(
            abs(math.fsum(pi[i] * P[i][j] for i in range(k)) - pi[j]) for j in range(k)
        )
        if residual > 1e-10:
            raise ValueError(f"stationary vector is not invariant (residual {residual:.2e})")

    @property
    def k(self) -> int:
        return len(self.stationary)

    @classmethod
    def from_transitions(cls, transitions, component=None) -> "Markov":
        """Build the chain with its stationary vector computed by eigenvector."""
        P = np.asarray(transitions, dtype=float)
        vals, vecs = np.linalg.eig(P.T)
        idx = int(np.argmin(np.abs(vals - 1.0)))
        pi = np.real(vecs[:, idx])
        pi = pi / pi.sum()
        pi = np.abs(pi) / np.abs(pi).sum()
        return cls(
            tuple(tuple(float(v) for v in row) for row in P),
            tuple(float(v) for v in pi),
            component,
        )


@dataclass(frozen=True)
class Lebesgue:
    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("Lebesgue dimension must be >= 1")


@dataclass(frozen=True)
class Atomic:
    points: Tuple[Point, ...]
    weights: Tuple[float, ...]

    def __post_init__(self):
        if not self.points or len(self.points) != len(self.weights):
            raise ValueError("atomic measure needs matching nonempty points and weights")
        if any(w < 0 for w in self.weights):
            raise ValueError("atomic weights must be nonnegative")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError("atomic weights must sum to 1")
        object.__setattr__(self, "weights", tuple(w / total for w in self.weights))


@dataclass(frozen=True)
class Mixture:
    components: Tuple[Tuple["Measure", float], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        if any(w < 0 for _, w in self.components):
            raise ValueError("mixture weights must be nonnegative")
        total = math.fsum(w for _, w in self.components)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError("mixture weights must sum to 1")
        object.__setattr__(
            self, "components", tuple((m, w / total) for m, w in self.components)
        )


@dataclass(frozen=True)
class TimeAveraged:
    """Midpoint average of the images of `base` over one flow period.

    For a suspension the period is one sweep of the fiber (the roof height);
    for rotation flows it is one turn of the circle.
    """

    flow: object
    base: "Measure"
    m: int = 16

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("quadrature node count must be >= 1")

    def period(self) -> float:
        if isinstance(self.flow, Suspension):
            return self.flow.roof.roof_max
        return 1.0

    def nodes(self) -> Tuple[float, ...]:
        c = self.period()
        return tuple(c * (j + 0.5) / self.m for j in range(self.m))


@dataclass(frozen=True)
class TimeShifted:
    """Image of `base` under the time-t map, integrated by composition."""

    flow: object
    t: float
    base: "Measure"


Measure = Union[Bernoulli, Markov, Lebesgue, Atomic, Mixture, TimeAveraged, TimeShifted]


# ---------------------------------------------------------------------------
# observables


@dataclass(frozen=True)
class Constant:
    value: float

    @property
    def sup_norm(self) -> float:
        return abs(self.value)


@dataclass(frozen=True)
class CylinderIndicator:
    """Indicator of the set of streams starting with `word` (optionally
    restricted to one disjoint-union component)."""

    word: Tuple[int, ...]
    component: Optional[int] = None

    def __post_init__(self):
        if not self.word:
            raise ValueError("cylinder word must be nonempty")

    @property
    def sup_norm(self) -> float:
        return 1.0


@dataclass(frozen=True)
class SymbolFrequency:
    """Indicator of reading `symbol` at the current position."""

    symbol: int
    component: Optional[int] = None

    @property
    def sup_norm(self) -> float:
        return 1.0


@dataclass(frozen=True)
class Harmonic:
    """cos or sin of 2*pi*frequency*(x + offset) on the circle."""

    frequency: int
    phase: str = "cos"
    offset: float = 0.0

    def __post_init__(self):
        if self.frequency < 1:
            raise ValueError("harmonic frequency must be >= 1")
        if self.phase not in ("cos", "sin"):
            raise ValueError("phase must be 'cos' or 'sin'")

    @property
    def sup_norm(self) -> float:
        return 1.0


@dataclass(frozen=True)
class FiberProfile:
    """Base observable times a piecewise-linear profile of the fiber."""

    base: "Observable"
    breakpoints: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        pts = self.breakpoints
        if len(pts) < 2 or any(pts[i][0] >= pts[i + 1][0] for i in range(len(pts) - 1)):
            raise ValueError("profile breakpoints must be >= 2 and strictly increasing")

    @property
    def sup_norm(self) -> float:
        return self.base.sup_norm * max(abs(v) for _, v in self.breakpoints)

    def profile(self, s: float) -> float:
        xs = [p[0] for p in self.breakpoints]
        ys = [p[1] for p in self.breakpoints]
        return float(np.interp(s, xs, ys))

    def profile_integral(self, lo: float, hi: float) -> float:
        """Exact integral of the profile over [lo, hi] (constant outside the
        breakpoint range, matching `profile`)."""
        if hi < lo:
            raise ValueError("need lo <= hi")
        xs = [p[0] for p in self.breakpoints]
        knots = sorted({lo, hi, *[x for x in xs if lo < x < hi]})
        total = 0.0
        for a, b in zip(knots[:-1], knots[1:]):
            total += 0.5 * (self.profile(a) + self.profile(b)) * (b - a)
        return total


Observable = Union[Constant, CylinderIndicator, SymbolFrequency, Harmonic, FiberProfile]


@dataclass(frozen=True)
class _Composed:
    """phi composed with the time-t map of a flow (internal)."""

    flow: object
    t: float
    base: "Observable"

    @property
    def sup_norm(self) -> float:
        return self.base.sup_norm


def compose_with_flow(flow, t: float, phi) -> object:
    """The observable x -> phi(flow_t(x)); a harmonic under an isometric
    (straight-line) flow is the same harmonic moved along by speed * t."""
    if isinstance(phi, Constant):
        return phi
    if isinstance(phi, Harmonic) and flow.is_flow and flow.isometric:
        return Harmonic(phi.frequency, phi.phase, phi.offset + flow.speed * t)
    return _Composed(flow, t, phi)


def _word_depth(phi) -> Optional[int]:
    """Symbol depth a symbolic observable reads, or None if not symbolic."""
    if isinstance(phi, Constant):
        return 0
    if isinstance(phi, CylinderIndicator):
        return len(phi.word)
    if isinstance(phi, SymbolFrequency):
        return 1
    if isinstance(phi, FiberProfile):
        return _word_depth(phi.base)
    return None


def evaluate(phi, x: Point) -> float:
    """Value of the observable at a point."""
    if isinstance(phi, Constant):
        return phi.value
    if isinstance(phi, SymbolFrequency):
        return evaluate(CylinderIndicator((phi.symbol,), phi.component), x)
    if isinstance(phi, CylinderIndicator):
        if phi.component is not None and x.component != phi.component:
            return 0.0
        word = x.prefix(len(phi.word))
        return 1.0 if all(int(a) == b for a, b in zip(word, phi.word)) else 0.0
    if isinstance(phi, Harmonic):
        angle = 2.0 * math.pi * phi.frequency * (x.coords[0] + phi.offset)
        return math.cos(angle) if phi.phase == "cos" else math.sin(angle)
    if isinstance(phi, FiberProfile):
        fiber = x.fiber if x.fiber is not None else 0.0
        return evaluate(phi.base, x) * phi.profile(fiber)
    if isinstance(phi, _Composed):
        return evaluate(phi.base, time_t_map(phi.flow, phi.t, x))
    raise TypeError(f"cannot evaluate {type(phi).__name__}")


def evaluate_on_circle(phi, coords: np.ndarray) -> np.ndarray:
    """Vectorised evaluation on an array of circle coordinates."""
    if isinstance(phi, Constant):
        return np.full(len(coords), phi.value)
    if isinstance(phi, Harmonic):
        angle = 2.0 * math.pi * phi.frequency * (coords + phi.offset)
        return np.cos(angle) if phi.phase == "cos" else np.sin(angle)
    raise TypeError(f"{type(phi).__name__} is not a circle observable")


# ---------------------------------------------------------------------------
# test families


@dataclass(frozen=True)
class TestFamily:
    """Ordered observables f_i with weights 2**-(i+1); the weak-* distance is
    sum_i 2**-(i+1) * |d_i| / (1 + |d_i|) over the integral gaps d_i."""

    __test__ = False        # not a pytest class despite the name

    observables: Tuple[object, ...]

    def __post_init__(self):
        if not self.observables:
            raise ValueError("test family must be nonempty")

    def weights(self) -> np.ndarray:
        return 0.5 ** np.arange(1, len(self.observables) + 1)

    # a family past this size makes every classification pass intractable
    MAX_MEMBERS = 4096

    @classmethod
    def default_for(cls, space, depth: int = 6, max_frequency: int = 8) -> "TestFamily":
        members = tuple(_default_observables(space, depth, max_frequency))
        if len(members) > cls.MAX_MEMBERS:
            raise BudgetExhausted(
                f"test family of {len(members)} observables exceeds the "
                f"{cls.MAX_MEMBERS} member budget; lower the depth"
            )
        fam = cls(members)
        probes = _separation_probes(space)
        for i, mu in enumerate(probes):
            for nu in probes[i + 1:]:
                if weak_star_distance(mu, nu, fam) <= 1e-9:
                    raise ValueError("default family fails to separate built-in measures")
        return fam


def _words_of_length(k: int, length: int):
    word = [0] * length
    while True:
        yield tuple(word)
        i = length - 1
        while i >= 0 and word[i] == k - 1:
            word[i] = 0
            i -= 1
        if i < 0:
            return
        word[i] += 1


def _default_observables(space, depth, max_frequency):
    if isinstance(space, (FullShift, MarkovShift)):
        k = space.alphabet
        out = []
        for length in range(1, depth + 1):
            for word in _words_of_length(k, length):
                out.append(CylinderIndicator(word))
        return out
    if isinstance(space, DisjointUnion):
        out = []
        for length in range(1, depth + 1):
            for comp, side in ((0, space.left), (1, space.right)):
                for word in _words_of_length(side.alphabet, length):
                    out.append(CylinderIndicator(word, component=comp))
        return out
    if isinstance(space, (CircleMult, CircleRotation, CircleRotationFlow, TorusTranslation)):
        out = []
        for q in range(1, max_frequency + 1):
            out.append(Harmonic(q, "cos"))
            out.append(Harmonic(q, "sin"))
        return out
    if isinstance(space, Suspension):
        base = _default_observables(space.base, depth, max_frequency)
        hat = FiberProfile(Constant(1.0), ((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
        return base + [hat]
    if isinstance(space, TimeTMap):
        return _default_observables(space.flow, depth, max_frequency)
    raise TypeError(f"no default family for {type(space).__name__}")


def _separation_probes(space):
    if isinstance(space, (FullShift, MarkovShift)):
        k = space.alphabet
        uniform = tuple(1.0 / k for _ in range(k))
        skew = tuple(
            (0.5 + 0.4 * (i == 0) - 0.4 / (k - 1) * (i != 0)) * 2.0 / k for i in range(k)
        )
        total = sum(skew)
        return [Bernoulli(uniform), Bernoulli(tuple(s / total for s in skew))]
    if isinstance(space, DisjointUnion):
        left = _separation_probes(space.left)[0]
        right = _separation_probes(space.right)[0]
        tl = Bernoulli(left.probs, component=0)
        tr = Bernoulli(right.probs, component=1)
        return [
            Mixture(((tl, 0.7), (tr, 0.3))),
            Mixture(((tl, 0.3), (tr, 0.7))),
        ]
    if isinstance(space, (CircleMult, CircleRotation, CircleRotationFlow, TorusTranslation)):
        dim = len(space.velocity) if isinstance(space, TorusTranslation) else 1
        atom = Atomic((Point(Coordinate(tuple(1.0 / 3 for _ in range(dim)))),), (1.0,))
        return [Lebesgue(dim), atom]
    if isinstance(space, Suspension):
        inner = _separation_probes(space.base)
        return [TimeAveraged(space, mu, 4) for mu in inner]
    if isinstance(space, TimeTMap):
        return _separation_probes(space.flow)
    return []


# ---------------------------------------------------------------------------
# integration


def integrate(mu, phi) -> float:
    """Exact integral of `phi` against `mu` for all built-in pairs."""
    if isinstance(phi, Constant):
        return phi.value
    if isinstance(mu, Mixture):
        return math.fsum(w * integrate(m, phi) for m, w in mu.components)
    if isinstance(mu, Atomic):
        return math.fsum(w * evaluate(phi, x) for x, w in zip(mu.points, mu.weights))
    if isinstance(mu, TimeShifted):
        return _integrate_shifted(mu.flow, mu.t, mu.base, phi)
    if isinstance(mu, TimeAveraged):
        return math.fsum(
            _integrate_shifted(mu.flow, s, mu.base, phi) for s in mu.nodes()
        ) / mu.m
    if isinstance(phi, _Composed):
        return _integrate_shifted(phi.flow, phi.t, mu, phi.base)
    if isinstance(phi, SymbolFrequency):
        return integrate(mu, CylinderIndicator((phi.symbol,), phi.component))
    if isinstance(mu, Bernoulli):
        if isinstance(phi, CylinderIndicator):
            if phi.component is not None and mu.component is not None \
                    and phi.component != mu.component:
                return 0.0
            out = 1.0
            for s in phi.word:
                if s < 0 or s >= mu.k:
                    return 0.0
                out *= mu.probs[s]
            return out
        raise TypeError(f"cannot integrate {type(phi).__name__} against a Bernoulli measure")
    if isinstance(mu, Markov):
        if isinstance(phi, CylinderIndicator):
            if phi.component is not None and mu.component is not None \
                    and phi.component != mu.component:
                return 0.0
            w = phi.word
            if any(s < 0 or s >= mu.k for s in w):
                return 0.0
            out = mu.stationary[w[0]]
            for a, b in zip(w[:-1], w[1:]):
                out *= mu.transitions[a][b]
            return out
        raise TypeError(f"cannot integrate {type(phi).__name__} against a Markov measure")
    if isinstance(mu, Lebesgue):
        if isinstance(phi, Harmonic):
            return 0.0
        if mu.dim == 1:
            return _circle_quadrature(phi)
        raise TypeError(f"cannot integrate {type(phi).__name__} against Lebesgue")
    raise TypeError(f"cannot integrate against {type(mu).__name__}")


_QUAD_CELLS = 4096


def _circle_quadrature(phi) -> float:
    # last-resort midpoint rule for observables with no exact rule
    grid = (np.arange(_QUAD_CELLS) + 0.5) / _QUAD_CELLS
    try:
        values = evaluate_on_circle(phi, grid)
    except TypeError:
        values = np.array([evaluate(phi, Point(Coordinate((g,)))) for g in grid])
    return float(values.mean())


def _integrate_shifted(flow, s, base, phi) -> float:
    """integral of phi(flow_s(x)) d base(x)."""
    if isinstance(base, Mixture):
        return math.fsum(
            w * _integrate_shifted(flow, s, m, phi) for m, w in base.components
        )
    if isinstance(base, Atomic):
        return math.fsum(
            w * evaluate(phi, time_t_map(flow, s, _with_default_fiber(flow, x)))
            for x, w in zip(base.points, base.weights)
        )
    if isinstance(base, TimeShifted):
        return _integrate_shifted(flow, s + base.t, base.base, phi)
    if isinstance(base, Lebesgue) and flow.is_flow and flow.isometric:
        return integrate(base, compose_with_flow(flow, s, phi))
    if isinstance(base, (Bernoulli, Markov)) and isinstance(flow, Suspension):
        return _integrate_shifted_symbolic(flow, s, base, phi)
    raise TypeError(
        f"cannot integrate the time-shifted pair ({type(base).__name__}, {type(flow).__name__})"
    )


def _with_default_fiber(flow, x: Point) -> Point:
    if isinstance(flow, Suspension) and x.fiber is None:
        return x.with_fiber(0.0)
    return x


def _integrate_shifted_symbolic(flow: Suspension, s, base, phi) -> float:
    roof = flow.roof
    if s < roof.roof_min:
        # no roof crossing: the fiber lands at s and the base is untouched
        if isinstance(phi, FiberProfile):
            return phi.profile(s) * integrate(base, phi.base)
        if _word_depth(phi) is not None:
            return integrate(base, phi)
    depth = _word_depth(phi.base if isinstance(phi, _Composed) else phi)
    if depth is None:
        raise TypeError(f"cannot integrate {type(phi).__name__} on a suspension space")
    if isinstance(flow.base, DisjointUnion):
        raise TypeError("time shifts beyond the roof are not supported over disjoint unions")
    crossings = int(s / roof.roof_min) + 1
    need = crossings + depth + roof.depth + 1
    k = flow.base.alphabet
    if k ** need > 1 << 16:
        raise BudgetExhausted(
            f"cylinder decomposition depth {need} exceeds the enumeration budget"
        )
    total = 0.0
    for word in _words_of_length(k, need):
        mass = integrate(base, CylinderIndicator(word))
        if mass == 0.0:
            continue
        x = Point(ExplicitWord(word), fiber=0.0)
        total += mass * evaluate(phi, time_t_map(flow, s, x))
    return total


def pushforward(flow, t: float, mu):
    """Image measure under the time-t map of the flow."""
    if isinstance(flow, Suspension) and t < 0:
        raise ValueError("suspension flows run forward in time only")
    if isinstance(mu, Lebesgue) and flow.is_flow and flow.isometric:
        return mu
    if isinstance(mu, Atomic):
        moved = tuple(time_t_map(flow, t, _with_default_fiber(flow, x)) for x in mu.points)
        return Atomic(moved, mu.weights)
    if isinstance(mu, Mixture):
        return Mixture(tuple((pushforward(flow, t, m), w) for m, w in mu.components))
    if isinstance(mu, TimeShifted):
        return TimeShifted(flow, mu.t + t, mu.base)
    return TimeShifted(flow, t, mu)


def time_average_measure(flow, mu, m: int = 16) -> TimeAveraged:
    """Average the measure over one unit of flow time (midpoint rule, m nodes)."""
    return TimeAveraged(flow, mu, m)


def weak_star_distance(mu, nu, fam: TestFamily) -> float:
    gaps = np.array([
        integrate(mu, phi) - integrate(nu, phi) for phi in fam.observables
    ])
    terms = np.abs(gaps) / (1.0 + np.abs(gaps))
    return float(np.dot(fam.weights(), terms))


# ---------------------------------------------------------------------------
# entropy of a measure


def _check_invariance(mu, system) -> None:
    if isinstance(mu, Bernoulli):
        if isinstance(system, FullShift):
            if mu.k != system.k:
                raise ValueError("alphabet mismatch")
            return
        if isinstance(system, MarkovShift):
            if any(e == 0 for row in system.adjacency for e in row):
                raise ValueError("Bernoulli measures are not invariant on a proper vertex shift")
            return
        if isinstance(system, DisjointUnion):
            if mu.component is None:
                raise ValueError("measures on a disjoint union must carry a component tag")
            _check_invariance(Bernoulli(mu.probs), system.side(mu.component))
            return
        raise TypeError("Bernoulli measures live on shift spaces")
    if isinstance(mu, Markov):
        if isinstance(system, FullShift):
            if mu.k != system.k:
                raise ValueError("alphabet mismatch")
            return
        if isinstance(system, MarkovShift):
            for i in range(mu.k):
                for j in range(mu.k):
                    if mu.transitions[i][j] > 0 and system.adjacency[i][j] == 0:
                        raise ValueError("Markov measure charges a forbidden transition")
            return
        if isinstance(system, DisjointUnion):
            if mu.component is None:
                raise ValueError("measures on a disjoint union must carry a component tag")
            _check_invariance(Markov(mu.transitions, mu.stationary), system.side(mu.component))
            return
        raise TypeError("Markov measures live on shift spaces")
    if isinstance(mu, Lebesgue):
        if isinstance(system, (CircleMult, CircleRotation, CircleRotationFlow, TorusTranslation)):
            return
        raise TypeError("Lebesgue lives on the circle/torus")
    if isinstance(mu, Mixture):
        for m, _ in mu.components:
            _check_invariance(m, system)
        return
    if isinstance(mu, Atomic):
        warnings.warn("atomic measure accepted without an invariance check", InvarianceWarning)
        return
    # TimeAveraged / TimeShifted wrappers inherit invariance from their construction


def metric_entropy(mu, system) -> float:
    """Entropy of the measure under the system, natural log.

    Closed form for Bernoulli and Markov measures, 0 for Lebesgue under an
    isometric system (rotation, rotation flow, torus translation), and the
    affine combination for mixtures of closed-form
    components (entropy is affine in the measure).  Everything else falls
    back to the partition estimate at depth 12.
    """
    _check_invariance(mu, system)
    closed = _closed_form_entropy(mu, system)
    if closed is not None:
        return closed
    return partition_entropy_estimate(mu, system, depth=12)


def _closed_form_entropy(mu, system) -> Optional[float]:
    if isinstance(mu, Bernoulli):
        return -math.fsum(p * math.log(p) for p in mu.probs if p > 0)
    if isinstance(mu, Markov):
        return -math.fsum(
            mu.stationary[i] * mu.transitions[i][j] * math.log(mu.transitions[i][j])
            for i in range(mu.k)
            for j in range(mu.k)
            if mu.transitions[i][j] > 0
        )
    if isinstance(mu, Lebesgue) and system.isometric:
        return 0.0
    if isinstance(mu, Mixture):
        sides = []
        for m, w in mu.components:
            inner_system = system
            if isinstance(system, DisjointUnion) and getattr(m, "component", None) is not None:
                inner_system = system.side(m.component)
                m = _untagged(m)
            inner = _closed_form_entropy(m, inner_system)
            if inner is None:
                return None
            sides.append(w * inner)
        return math.fsum(sides)
    return None


def _untagged(mu):
    if isinstance(mu, Bernoulli):
        return Bernoulli(mu.probs)
    if isinstance(mu, Markov):
        return Markov(mu.transitions, mu.stationary)
    return mu


def partition_entropy_estimate(mu, system, depth: int) -> float:
    """H_mu of the depth-fold join of the canonical partition, divided by depth.

    Canonical partitions: 1-cylinders for shifts (per component on a disjoint
    union), the n-adic arcs for circle multiplication, and the base
    1-cylinders for the time-1 map of a suspension.  Circle rotations have no
    generating partition; a fixed 16-arc partition is used and flagged.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _check_invariance(mu, system)
    masses = _partition_masses(mu, system, depth)
    masses = masses[masses > 0]
    return float(-(masses * np.log(masses)).sum() / depth)


def _partition_masses(mu, system, depth: int) -> np.ndarray:
    if isinstance(system, (FullShift, MarkovShift)):
        return _cylinder_masses(mu, system.alphabet, depth)
    if isinstance(system, DisjointUnion):
        return _union_masses(mu, system, depth)
    if isinstance(system, CircleMult):
        cells = system.n ** depth
        if isinstance(mu, Lebesgue):
            return np.full(cells, 1.0 / cells)
        if isinstance(mu, Atomic):
            idx = np.array([int(x.coords[0] * cells) % cells for x in mu.points])
            out = np.zeros(cells)
            np.add.at(out, idx, np.asarray(mu.weights))
            return out
        if isinstance(mu, Mixture):
            return np.sum(
                [w * _partition_masses(m, system, depth) for m, w in mu.components], axis=0
            )
    if isinstance(system, CircleRotation):
        warnings.warn(
            "circle rotations have no generating partition; fixed 16-arc estimate",
            PartitionWarning,
        )
        return _rotation_arc_masses(mu, system, depth)
    if isinstance(system, (Suspension, TimeTMap)):
        flow = system.flow if isinstance(system, TimeTMap) else system
        if isinstance(flow, Suspension):
            return _suspension_partition_masses(mu, flow, depth)
    raise TypeError(f"no canonical partition for {type(system).__name__}")


def _cylinder_masses(mu, k: int, depth: int) -> np.ndarray:
    if isinstance(mu, Bernoulli):
        out = np.array([1.0])
        p = np.asarray(mu.probs)
        for _ in range(depth):
            out = np.kron(out, p)
        return out
    if isinstance(mu, Markov):
        P = np.asarray(mu.transitions)
        out = np.asarray(mu.stationary)       # indexed by (word code); last symbol cycles fastest
        last = np.arange(k)
        for _ in range(depth - 1):
            out = (out[:, None] * P[last]).ravel()
            last = np.tile(np.arange(k), len(last))
        return out
    if isinstance(mu, Atomic):
        out = np.zeros(k ** depth)
        for x, w in zip(mu.points, mu.weights):
            word = x.prefix(depth)
            code = 0
            for s in word:
                code = code * k + int(s)
            out[code] += w
        return out
    if isinstance(mu, Mixture):
        return np.sum(
            [w * _cylinder_masses(m, k, depth) for m, w in mu.components], axis=0
        )
    if isinstance(mu, (TimeAveraged, TimeShifted)):
        return _suspension_base_masses(mu, k, depth)
    raise TypeError(f"no cylinder masses for {type(mu).__name__}")


def _union_masses(mu, system: DisjointUnion, depth: int) -> np.ndarray:
    kl = system.left.alphabet
    kr = system.right.alphabet
    left = np.zeros(kl ** depth)
    right = np.zeros(kr ** depth)

    def add(m, weight):
        if isinstance(m, Mixture):
            for inner, w in m.components:
                add(inner, weight * w)
            return
        comp = getattr(m, "component", None)
        if comp is None:
            raise ValueError("measures on a disjoint union must carry component tags")
        target = left if comp == 0 else right
        target += weight * _cylinder_masses(_untagged(m), kl if comp == 0 else kr, depth)

    add(mu, 1.0)
    return np.concatenate([left, right])


def _rotation_arc_masses(mu, system: CircleRotation, depth: int, arcs: int = 16) -> np.ndarray:
    # cells of the depth-fold join: the circle cut along all rotated arc edges
    cuts = np.asarray(sorted(
        {(j / arcs - i * system.theta) % 1.0 for j in range(arcs) for i in range(depth)}
    ))
    if isinstance(mu, Lebesgue):
        wrap = 1.0 - cuts[-1] + cuts[0]
        return np.concatenate([np.diff(cuts), [wrap]])
    if isinstance(mu, Atomic):
        out = np.zeros(len(cuts))
        for x, w in zip(mu.points, mu.weights):
            cell = int(np.searchsorted(cuts, x.coords[0], side="right")) - 1
            out[cell % len(cuts)] += w
        return out
    if isinstance(mu, Mixture):
        return np.sum(
            [w * _rotation_arc_masses(m, system, depth, arcs) for m, w in mu.components],
            axis=0,
        )
    raise TypeError(f"no rotation partition masses for {type(mu).__name__}")


def _suspension_base_masses(mu, k: int, depth: int) -> np.ndarray:
    """Base-cylinder masses of a time-shifted/averaged symbolic measure.

    Built-in base measures are shift invariant, so the base marginal of each
    node is the base measure itself; only atomic bases need their nodes moved.
    """
    if isinstance(mu, TimeAveraged):
        nodes = mu.nodes()
        parts = [_node_base_masses(mu.flow, s, mu.base, k, depth) for s in nodes]
        return np.mean(parts, axis=0)
    return _node_base_masses(mu.flow, mu.t, mu.base, k, depth)


def _node_base_masses(flow, s, base, k, depth) -> np.ndarray:
    if isinstance(base, (Bernoulli, Markov)):
        return _cylinder_masses(base, k, depth)
    if isinstance(base, Mixture):
        return np.sum(
            [w * _node_base_masses(flow, s, m, k, depth) for m, w in base.components], axis=0
        )
    if isinstance(base, Atomic):
        moved = tuple(
            time_t_map(flow, s, _with_default_fiber(flow, x)) for x in base.points
        )
        return _cylinder_masses(Atomic(moved, base.weights), k, depth)
    raise TypeError(f"no base masses for {type(base).__name__}")


def _suspension_partition_masses(mu, flow: Suspension, depth: int) -> np.ndarray:
    base = flow.base
    if isinstance(base, DisjointUnion):
        inner = mu.base if isinstance(mu, (TimeAveraged, TimeShifted)) else mu
        return _union_masses(inner, base, depth)
    k = base.alphabet
    if isinstance(mu, (TimeAveraged, TimeShifted)):
        return _suspension_base_masses(mu, k, depth)
    return _cylinder_masses(mu, k, depth)
