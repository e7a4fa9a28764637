"""Invariant measures, observables and measure-level operations.

Measure kinds: Bernoulli and Markov measures on shift spaces (optionally
tagged with a disjoint-union component), Lebesgue on the circle/torus, finite
atomic measures, mixtures, and two lazy wrappers used on suspension spaces:
``TimeShifted`` (image of a measure under the time-t map, evaluated by
integrating the composed observable) and ``TimeAveraged`` (the measure
averaged over one unit of flow time, discretised by a midpoint rule with m
nodes).  Symbolic measures used on a suspension space are understood as
sitting on the fiber-zero copy of the base.

A Bernoulli measure is the Markov chain whose rows all equal its
probabilities, so cylinder masses, invariance and component tags read both
kinds through `stationary` and `transitions`.  Integration is exact for every
pair it accepts and raises TypeError for the rest; there is no quadrature
fallback.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

import numpy as np

from .systems import (
    BudgetExhausted, CircleMult, Coordinate, DisjointUnion, ExplicitWord,
    MarkovShift, Point, Suspension, TimeTMap, time_t_map,
)

__all__ = [
    "Bernoulli", "Markov", "Lebesgue", "Atomic", "Mixture", "TimeAveraged",
    "TimeShifted", "Measure", "Constant", "CylinderIndicator",
    "SymbolFrequency", "Harmonic", "FiberProfile", "Observable", "TestFamily",
    "evaluate", "evaluate_on_circle", "integrate", "pushforward",
    "time_average_measure", "weak_star_distance", "metric_entropy",
    "partition_entropy_estimate", "compose_with_flow", "InvarianceWarning",
]

_MASS_TOL = 1e-9


class InvarianceWarning(UserWarning):
    """Measure accepted without an invariance check (atomic input)."""


# ---------------------------------------------------------------------------
# measures


@dataclass(frozen=True)
class Bernoulli:
    """Independent symbols drawn from `probs`: the Markov chain whose
    stationary vector and every transition row are `probs`."""

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

    @property
    def stationary(self) -> Tuple[float, ...]:
        return self.probs

    @property
    def transitions(self) -> Tuple[Tuple[float, ...], ...]:
        return (self.probs,) * self.k


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


@dataclass(frozen=True)
class CylinderIndicator:
    """Indicator of the set of streams starting with `word` (optionally
    restricted to one disjoint-union component)."""

    word: Tuple[int, ...]
    component: Optional[int] = None

    def __post_init__(self):
        if not self.word:
            raise ValueError("cylinder word must be nonempty")


@dataclass(frozen=True)
class SymbolFrequency:
    """Indicator of reading `symbol` at the current position: the cylinder
    indicator of the one-symbol word."""

    symbol: int
    component: Optional[int] = None

    @property
    def word(self) -> Tuple[int, ...]:
        return (self.symbol,)


_CYLINDERS = (CylinderIndicator, SymbolFrequency)    # the observables that read one word


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


@dataclass(frozen=True)
class FiberProfile:
    """Base observable times a piecewise-linear profile of the fiber."""

    base: "Observable"
    breakpoints: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        pts = self.breakpoints
        if len(pts) < 2 or any(pts[i][0] >= pts[i + 1][0] for i in range(len(pts) - 1)):
            raise ValueError("profile breakpoints must be >= 2 and strictly increasing")

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
    if isinstance(phi, _CYLINDERS):
        return len(phi.word)
    if isinstance(phi, FiberProfile):
        return _word_depth(phi.base)
    return None


def evaluate(phi, x: Point) -> float:
    """Value of the observable at a point."""
    if isinstance(phi, Constant):
        return phi.value
    if isinstance(phi, _CYLINDERS):
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
    if space.torus_dim:
        return [Harmonic(q, phase) for q in range(1, max_frequency + 1)
                for phase in ("cos", "sin")]
    if isinstance(space, TimeTMap):
        return _default_observables(space.flow, depth, max_frequency)
    if isinstance(space, Suspension):
        base = _default_observables(space.base, depth, max_frequency)
        hat = FiberProfile(Constant(1.0), ((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
        return base + [hat]
    if isinstance(space, DisjointUnion):
        return [CylinderIndicator(word, component=comp)
                for length in range(1, depth + 1)
                for comp, side in ((0, space.left), (1, space.right))
                for word in _words_of_length(side.alphabet, length)]
    k = space.alphabet                  # a single shift space; TypeError elsewhere
    return [CylinderIndicator(word) for length in range(1, depth + 1)
            for word in _words_of_length(k, length)]


def _separation_probes(space):
    if space.torus_dim:
        dim = space.torus_dim
        return [Lebesgue(dim), Atomic((Point(Coordinate((1.0 / 3,) * dim)),), (1.0,))]
    if isinstance(space, TimeTMap):
        return _separation_probes(space.flow)
    if isinstance(space, Suspension):
        return [TimeAveraged(space, mu, 4) for mu in _separation_probes(space.base)]
    if isinstance(space, DisjointUnion):
        tl = replace(_separation_probes(space.left)[0], component=0)
        tr = replace(_separation_probes(space.right)[0], component=1)
        return [
            Mixture(((tl, 0.7), (tr, 0.3))),
            Mixture(((tl, 0.3), (tr, 0.7))),
        ]
    k = space.alphabet
    uniform = tuple(1.0 / k for _ in range(k))
    skew = tuple(
        (0.5 + 0.4 * (i == 0) - 0.4 / (k - 1) * (i != 0)) * 2.0 / k for i in range(k)
    )
    total = sum(skew)
    return [Bernoulli(uniform), Bernoulli(tuple(s / total for s in skew))]


# ---------------------------------------------------------------------------
# integration


def integrate(mu, phi) -> float:
    """Exact integral of `phi` against `mu`; TypeError for a pair with no
    exact rule."""
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
    if isinstance(mu, (Bernoulli, Markov)) and isinstance(phi, _CYLINDERS):
        if phi.component is not None and mu.component is not None \
                and phi.component != mu.component:
            return 0.0
        w = phi.word
        if any(s < 0 or s >= mu.k for s in w):
            return 0.0
        P = mu.transitions
        out = mu.stationary[w[0]]
        for a, b in zip(w[:-1], w[1:]):
            out *= P[a][b]
        return out
    if isinstance(mu, Lebesgue) and isinstance(phi, Harmonic):
        return 0.0
    raise TypeError(f"cannot integrate {type(phi).__name__} against {type(mu).__name__}")


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
        # an isometric flow keeps Lebesgue measure, so phi integrates unmoved
        return integrate(base, phi)
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
    """Raise unless mu is invariant under the system.  A Bernoulli or Markov
    measure needs the system's alphabet and may charge no transition that a
    vertex shift forbids; Lebesgue needs a circle or torus of its dimension."""
    if isinstance(mu, Mixture):
        for m, _ in mu.components:
            _check_invariance(m, system)
        return
    if isinstance(mu, Atomic):
        warnings.warn("atomic measure accepted without an invariance check", InvarianceWarning)
        return
    if isinstance(mu, (Bernoulli, Markov)):
        if isinstance(system, DisjointUnion):
            if mu.component is None:
                raise ValueError("measures on a disjoint union must carry a component tag")
            _check_invariance(_untagged(mu), system.side(mu.component))
            return
        if not system.symbolic:
            raise TypeError(f"{type(mu).__name__} measures live on shift spaces")
        if mu.k != system.alphabet:
            raise ValueError("alphabet mismatch")
        if isinstance(system, MarkovShift) and any(
            p > 0 and allowed == 0
            for row, adj in zip(mu.transitions, system.adjacency)
            for p, allowed in zip(row, adj)
        ):
            raise ValueError(f"{type(mu).__name__} measure charges a forbidden transition")
        return
    if isinstance(mu, Lebesgue):
        if not system.torus_dim:
            raise TypeError("Lebesgue lives on the circle/torus")
        if mu.dim != system.torus_dim:
            raise ValueError(f"Lebesgue({mu.dim}) on a {system.torus_dim}-dimensional space")
        return
    # TimeAveraged / TimeShifted wrappers inherit invariance from their construction


def metric_entropy(mu, system) -> float:
    """Entropy of the measure under the system, natural log.

    Closed form for Bernoulli and Markov measures, 0 for Lebesgue under an
    isometric system (rotation, rotation flow, torus translation, or a
    time-t map of one), log n for Lebesgue under circle multiplication, and
    the affine combination for mixtures of closed-form components (entropy
    is affine in the measure).  Any other measure on a full or vertex shift
    (atomic, or a mixture with an atomic part) gets the partition estimate at
    depth 12; anything else raises TypeError.
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
    if isinstance(mu, Lebesgue):
        # an invariant Lebesgue lives on a circle or torus, and x -> n*x is
        # the one such system that is not isometric
        return math.log(system.n) if isinstance(system, CircleMult) else 0.0
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
    if isinstance(mu, (Bernoulli, Markov)):
        return replace(mu, component=None)
    return mu


def partition_entropy_estimate(mu, system, depth: int) -> float:
    """H_mu of the depth-fold join of the 1-cylinder partition of a full or
    vertex shift, divided by depth.  Any other system raises TypeError."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _check_invariance(mu, system)
    masses = _cylinder_masses(mu, system.alphabet, depth)   # TypeError off a single shift
    masses = masses[masses > 0]
    return float(-(masses * np.log(masses)).sum() / depth)


def _cylinder_masses(mu, k: int, depth: int) -> np.ndarray:
    """Masses of the k**depth cylinders, indexed by word code (last symbol
    cycling fastest)."""
    if isinstance(mu, (Bernoulli, Markov)):
        P = np.asarray(mu.transitions)
        out = np.asarray(mu.stationary)
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
    raise TypeError(f"no cylinder masses for {type(mu).__name__}")
