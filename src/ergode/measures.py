"""Invariant measures, observables and measure-level operations.

A measure is a weighted sum of pieces: `pieces` is a flat tuple of
(weight, piece), built once per measure.  Bernoulli, Markov and Lebesgue
measures are one piece each, an atomic measure gives a point mass per atom,
a mixture concatenates the weighted pieces of its parts, ``TimeShifted``
moves each base piece by the time-t map (two shifts collapse into one, by
s + t), and ``TimeAveraged`` (a midpoint rule with m nodes over one flow
period) gives weight w/m to each node and base piece.  Integrals,
pushforwards, invariance, entropy and cylinder masses are affine in the
measure (Walters, An Introduction to Ergodic Theory, Thm 8.1), so each is a
sum or map over the pieces plus one rule per piece kind.  Symbolic measures
on a suspension sit on the fiber-zero copy of the base.  Point masses on a
full or vertex shift are invariant when they make up whole periodic orbits,
one weight along each, and their entropy is 0.  Integration is exact for
every pair it accepts and raises TypeError for the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Tuple, Union

import numpy as np

from .systems import (
    BudgetExhausted, CircleMult, Coordinate, DisjointUnion, ExplicitWord, Point,
    Suspension, TimeTMap, time_t_map,
)

__all__ = [
    "Bernoulli", "Markov", "Lebesgue", "Atomic", "Mixture", "TimeAveraged",
    "TimeShifted", "Measure", "Constant", "CylinderIndicator",
    "SymbolFrequency", "Harmonic", "FiberProfile", "Observable", "TestFamily",
    "evaluate", "evaluate_on_circle", "integrate", "pushforward",
    "time_average_measure", "weak_star_distance", "check_invariance",
    "metric_entropy", "partition_entropy_estimate", "compose_with_flow",
]

_MASS_TOL = 1e-9


def _normalised(weights, what: str) -> Tuple[float, ...]:
    """Nonnegative `weights` summing to 1 up to rounding, divided by their sum."""
    if any(w < 0 for w in weights):
        raise ValueError(f"{what} must be nonnegative")
    total = math.fsum(weights)
    if abs(total - 1.0) > _MASS_TOL:
        raise ValueError(f"{what} must sum to 1")
    return tuple(w / total for w in weights)


# ---------------------------------------------------------------------------
# pieces: one rule per kind for each question a measure sums over its pieces


class _Piece:
    """A piece answers `integral(phi)`, `shifted_integral(flow, s, phi)` (of
    phi after the time-s map), `check(system)` and, once checked, `entropy`
    and `cylinder_masses`; a rule its kind lacks raises TypeError."""

    component = None            # the disjoint-union side of a tagged piece

    @property
    def pieces(self):
        return ((1.0, self),)

    def shifted(self, flow, t: float) -> "TimeShifted":
        return TimeShifted(flow, t, self)

    def integral(self, phi) -> float:
        if isinstance(phi, _Composed):          # change of variables: move the piece
            return integrate(self.shifted(phi.flow, phi.t), phi.base)
        raise TypeError(f"cannot integrate {type(phi).__name__} against {type(self).__name__}")

    def shifted_integral(self, flow, s: float, phi) -> float:
        raise TypeError(f"cannot integrate the time-shifted pair "
                        f"({type(self).__name__}, {type(flow).__name__})")

    def check(self, system):
        raise TypeError(f"no invariance rule for a {type(self).__name__} piece")


def _shift_of(system, component):
    """The shift a piece tagged `component` lives on (its side of a union)."""
    if not isinstance(system, DisjointUnion):
        return system
    if component is None:
        raise ValueError("measures on a disjoint union must carry a component tag")
    return system.side(component)


class _Chain(_Piece):
    """The rules of Bernoulli and Markov pieces."""

    def integral(self, phi) -> float:
        if not isinstance(phi, _CYLINDERS):
            return super().integral(phi)
        w = phi.word
        if len({self.component, phi.component} - {None}) > 1 or \
                any(s < 0 or s >= self.k for s in w):
            return 0.0                  # another side's cylinder, or another alphabet's
        P = self.transitions
        return math.prod((self.stationary[w[0]], *(P[a][b] for a, b in zip(w, w[1:]))))

    def shifted_integral(self, flow, s: float, phi) -> float:
        if not isinstance(flow, Suspension):
            return super().shifted_integral(flow, s, phi)
        roof = flow.roof
        if s < roof.roof_min:
            # no roof crossing: the fiber lands at s and the base is untouched
            if isinstance(phi, FiberProfile):
                return phi.profile(s) * integrate(self, phi.base)
            if _word_depth(phi) is not None:
                return integrate(self, phi)
        inner, composed_t = (phi.base, phi.t) if isinstance(phi, _Composed) else (phi, 0.0)
        depth = _word_depth(inner)
        if depth is None:
            raise TypeError(f"cannot integrate {type(phi).__name__} on a suspension space")
        need = int((s + composed_t) / roof.roof_min) + 1 + depth + roof.depth + 1
        k = flow.base.alphabet              # TypeError over a disjoint union
        if k ** need > 1 << 16:
            raise BudgetExhausted(
                f"cylinder decomposition depth {need} exceeds the enumeration budget"
            )
        total = 0.0
        for word in _words_of_length(k, need):
            mass = integrate(self, CylinderIndicator(word))
            if mass != 0.0:
                x = Point(ExplicitWord(word), fiber=0.0)
                total += mass * evaluate(phi, time_t_map(flow, s, x))
        return total

    def check(self, system) -> None:
        shift = _shift_of(system, self.component)
        if not shift.symbolic:
            raise TypeError(f"{type(self).__name__} measures live on shift spaces")
        if self.k != shift.alphabet:
            raise ValueError("alphabet mismatch")
        if any(p > 0 and not shift.allows(a, b)
               for a, row in enumerate(self.transitions) for b, p in enumerate(row)):
            raise ValueError(f"{type(self).__name__} measure charges a forbidden transition")

    def cylinder_masses(self, k: int, depth: int) -> np.ndarray:
        """Masses of the k**depth cylinders, indexed by word code (last
        symbol cycling fastest)."""
        P = np.asarray(self.transitions)
        out = np.asarray(self.stationary)
        last = np.arange(k)
        for _ in range(depth - 1):
            out = (out[:, None] * P[last]).ravel()
            last = np.tile(np.arange(k), len(last))
        return out


@dataclass(frozen=True)
class _PointMass(_Piece):
    """The unit mass at one point: an atom of an atomic measure."""

    point: Point

    @property
    def component(self):
        return self.point.component

    def integral(self, phi) -> float:
        return evaluate(phi, self.point)

    def shifted_integral(self, flow, s: float, phi) -> float:
        x = self.point          # a symbolic atom flows from the zero fiber
        x = x.with_fiber(0.0) if x.is_symbolic and x.fiber is None else x
        return evaluate(phi, time_t_map(flow, s, x))

    def check(self, system):
        """The atom's place: (component, its minimal period read from the point)."""
        shift = _shift_of(system, self.component)
        if not shift.symbolic:
            raise TypeError("atomic measures have an invariance rule on shift spaces only")
        if not isinstance(self.point.rule, ExplicitWord):
            raise ValueError(f"an atom on a shift must be a periodic point given by an "
                             f"explicit word, not {type(self.point.rule).__name__}")
        n = len(self.point.rule.symbols)
        word = tuple(int(s) for s in self.point.prefix(n))
        word = word[:next(p for p in range(1, n + 1) if word[p:] + word[:p] == word)]
        shift.admits(ExplicitWord(word))    # in the alphabet, wrap-around included
        return self.component, word

    def entropy(self, system) -> float:
        return 0.0

    def cylinder_masses(self, k: int, depth: int) -> np.ndarray:
        out = np.zeros(k ** depth)
        out[sum(int(s) * k ** i for i, s in enumerate(self.point.prefix(depth)[::-1]))] = 1.0
        return out


# ---------------------------------------------------------------------------
# measures


@dataclass(frozen=True)
class Bernoulli(_Chain):
    """Independent symbols drawn from `probs`: the Markov chain whose
    stationary vector and every transition row are `probs`."""

    probs: Tuple[float, ...]
    component: Optional[int] = None

    def __post_init__(self):
        if len(self.probs) < 2:
            raise ValueError("Bernoulli needs >= 2 probabilities")
        object.__setattr__(self, "probs", _normalised(self.probs, "Bernoulli probabilities"))

    @property
    def k(self) -> int:
        return len(self.probs)

    @property
    def stationary(self) -> Tuple[float, ...]:
        return self.probs

    @property
    def transitions(self) -> Tuple[Tuple[float, ...], ...]:
        return (self.probs,) * self.k

    def entropy(self, system) -> float:
        return -math.fsum(p * math.log(p) for p in self.probs if p > 0)


@dataclass(frozen=True)
class Markov(_Chain):
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

    def entropy(self, system) -> float:
        return -math.fsum(self.stationary[i] * p * math.log(p)
                          for i, row in enumerate(self.transitions) for p in row if p > 0)


@dataclass(frozen=True)
class Lebesgue(_Piece):
    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("Lebesgue dimension must be >= 1")

    def integral(self, phi) -> float:
        return 0.0 if isinstance(phi, Harmonic) else super().integral(phi)

    def shifted(self, flow, t: float):
        # an isometric flow keeps Lebesgue measure
        return self if flow.is_flow and flow.isometric else super().shifted(flow, t)

    def check(self, system) -> None:
        if not system.torus_dim:
            raise TypeError("Lebesgue lives on the circle/torus")
        if self.dim != system.torus_dim:
            raise ValueError(f"Lebesgue({self.dim}) on a {system.torus_dim}-dimensional space")

    def entropy(self, system) -> float:
        # x -> n*x is the one circle or torus system that is not isometric
        return math.log(system.n) if isinstance(system, CircleMult) else 0.0


@dataclass(frozen=True)
class Atomic:
    points: Tuple[Point, ...]
    weights: Tuple[float, ...]

    def __post_init__(self):
        if not self.points or len(self.points) != len(self.weights):
            raise ValueError("atomic measure needs matching nonempty points and weights")
        object.__setattr__(self, "weights", _normalised(self.weights, "atomic weights"))

    @cached_property
    def pieces(self):
        return tuple((w, _PointMass(x)) for x, w in zip(self.points, self.weights))


@dataclass(frozen=True)
class Mixture:
    components: Tuple[Tuple["Measure", float], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        measures, weights = zip(*self.components)
        weights = _normalised(weights, "mixture weights")
        object.__setattr__(self, "components", tuple(zip(measures, weights)))

    @cached_property
    def pieces(self):
        return tuple((w * v, p) for m, w in self.components for v, p in m.pieces)


@dataclass(frozen=True)
class TimeAveraged:
    """Midpoint average of the images of `base` over one flow period: one
    sweep of the fiber for a suspension under a constant roof, one turn of
    the circle for rotation flows."""

    flow: object
    base: "Measure"
    m: int = 16

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("quadrature node count must be >= 1")
        if isinstance(self.flow, Suspension) and self.flow.roof.depth > 0:
            raise ValueError(f"no time average under the word-dependent {self.flow.roof}: "
                             "the flow-invariant measure weighs each base point by its roof")

    @cached_property
    def pieces(self):
        c = self.flow.roof.roof_max if isinstance(self.flow, Suspension) else 1.0
        return tuple((w / self.m, p.shifted(self.flow, c * (j + 0.5) / self.m))
                     for j in range(self.m) for w, p in self.base.pieces)


@dataclass(frozen=True)
class TimeShifted(_Piece):
    """Image of `base` under the time-t map; as a piece, of an unshifted piece."""

    flow: object
    t: float
    base: "Measure"

    @cached_property
    def pieces(self):
        return tuple((w, p.shifted(self.flow, self.t)) for w, p in self.base.pieces)

    def shifted(self, flow, t: float) -> "TimeShifted":
        return TimeShifted(flow, self.t + t, self.base)

    def integral(self, phi) -> float:
        return self.base.shifted_integral(self.flow, self.t, phi)


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
        # inside the first fiber, where a base probe keeps its base integrals
        return [TimeShifted(space, 0.5 * space.roof.roof_min, mu)
                for mu in _separation_probes(space.base)]
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
    """Exact integral of `phi` against `mu`: the weighted sum of its pieces'
    integrals; TypeError for a pair with no exact rule."""
    if isinstance(phi, Constant):
        return phi.value
    return math.fsum(w * p.integral(phi) for w, p in mu.pieces)


def pushforward(flow, t: float, mu) -> TimeShifted:
    """Image measure under the time-t map of the flow: each piece moved by t."""
    if isinstance(flow, Suspension) and t < 0:
        raise ValueError("suspension flows run forward in time only")
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


def check_invariance(mu, system) -> None:
    """Raise unless mu is invariant under the system, piece by piece: a
    Bernoulli or Markov piece needs the alphabet (of its tagged union side)
    and no forbidden transition, Lebesgue a circle or torus of its dimension,
    and the point masses must make up whole periodic orbits of a shift (each
    atom an explicit word in the alphabet whose cyclic transitions, the
    wrap-around included, are allowed; every rotation of its minimal period
    charged alike).  ValueError when a piece does not fit, TypeError for a
    kind the system cannot carry."""
    atoms = {}
    for w, p in mu.pieces:
        place = p.check(system)
        if place is not None:
            atoms[place] = atoms.get(place, 0.0) + w
    for (comp, word), w in atoms.items():       # the shift moves each place one rotation on
        if abs(atoms.get((comp, word[1:] + word[:1]), 0.0) - w) > _MASS_TOL:
            raise ValueError(f"atomic measure is not invariant: the orbit of "
                             f"{list(word)} is not charged evenly")


def metric_entropy(mu, system) -> float:
    """Entropy of the measure under the system, natural log: once
    `check_invariance` accepts it, the weighted sum of its pieces' entropies
    (the closed forms for Bernoulli and Markov, 0 for Lebesgue under an
    isometric system, log n under circle multiplication, and exactly 0 for
    point masses making up whole periodic orbits of a shift).  Any other
    atomic measure on a shift raises ValueError; atoms off a shift, and
    time-shifted or time-averaged measures, raise TypeError."""
    check_invariance(mu, system)
    return math.fsum(w * p.entropy(system) for w, p in mu.pieces)


def partition_entropy_estimate(mu, system, depth: int) -> float:
    """H_mu of the depth-fold join of the 1-cylinder partition of a full or
    vertex shift, divided by depth, from the pieces' summed cylinder masses.
    Any other system raises TypeError."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    check_invariance(mu, system)
    k = system.alphabet                      # TypeError off a single shift
    masses = sum(w * p.cylinder_masses(k, depth) for w, p in mu.pieces)
    masses = masses[masses > 0]
    return float(-(masses * np.log(masses)).sum() / depth)
