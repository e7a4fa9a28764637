"""Invariant measures, observables and measure-level operations.

A measure is a weighted sum of pieces: `pieces` is a flat tuple of
(weight, piece), built once per measure.  Bernoulli, Markov and Lebesgue
measures are one piece each, an atomic measure gives a point mass per atom,
a mixture concatenates the weighted pieces of its parts, ``TimeShifted``
moves each base piece by the time-t map (two shifts collapse into one, by
s + t), and ``TimeAveraged`` is one piece, Abramov's flow-invariant lift of
an invariant base measure, which its own flow leaves in place.  Integrals,
pushforwards, invariance and entropy are affine in the measure (Walters, An
Introduction to Ergodic Theory, Thm 8.1), so each is a sum or map over the
pieces plus one rule per piece kind.  Symbolic measures on a suspension sit
on the fiber-zero copy of the base.  Point masses on a full or vertex shift
are invariant when they make up whole periodic orbits, one weight along
each, and their entropy is 0.  Integration raises TypeError for a pair it
does not accept and is exact for the others: against ``TimeAveraged`` it is
phi's fiber mass over [0, c), over c, times the integral of phi's base
observable against the base, so the fiber hat reads 7/12 under the roof 0.75.

Observables answer for themselves: each kind answers the questions of
`Observable`, so neither the pieces' rules nor the orbit readers of
`birkhoff` test an observable's kind."""

from __future__ import annotations

import math
from functools import cached_property
from itertools import product
from typing import Optional, Tuple

import numpy as np

from .systems import (
    BudgetExhausted, Coordinate, ExplicitWord, FullShift, Point, Record, SeededIID, SeededMarkov,
    time_t_map,
)

__all__ = [
    "Bernoulli", "Markov", "Lebesgue", "Atomic", "Mixture", "TimeAveraged",
    "TimeShifted", "Measure", "Constant", "CylinderIndicator", "Harmonic",
    "FiberProfile", "Observable", "TestFamily",
    "evaluate", "evaluate_on_circle", "integrate", "pushforward",
    "time_average_measure", "check_invariance", "metric_entropy", "compose_with_flow",
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


class Measure(Record):
    """What a caller asks a measure besides its `pieces`: `chain` (the chain it is, for
    its `transitions` and `stationary`), `seeded(seed)` (a point's rule drawn from it) and
    `foreign()` (a measure of other typical points, or None); else TypeError."""

    @property
    def chain(self):
        raise TypeError(f"{type(self).__name__} is not a chain: built for Bernoulli and "
                        "Markov targets")

    def seeded(self, seed: int):
        raise TypeError(f"{type(self).__name__} has no seeded points")

    def foreign(self):
        return None


class _Piece(Measure):
    """A piece answers `integral(phi)`, `shifted_integral(flow, s, phi)` (of
    phi after the time-s map), `check(system)` and, once checked, `entropy`
    (a chain piece its `cylinder_masses` too); a rule its kind lacks raises
    TypeError.  No rule sees a composed observable: its `integral` moves the
    piece instead."""

    component = None            # the disjoint-union side of a tagged piece
    fiber = None                # a point mass's fiber; every other piece has none

    @property
    def pieces(self):
        return ((1.0, self),)

    def shifted(self, flow, t: float) -> "TimeShifted":
        return TimeShifted(flow, t, self)

    def integral(self, phi) -> float:
        raise TypeError(f"cannot integrate {type(phi).__name__} against {type(self).__name__}")

    def shifted_integral(self, flow, s: float, phi) -> float:
        raise TypeError(f"cannot integrate the time-shifted pair "
                        f"({type(self).__name__}, {type(flow).__name__})")

    def check(self, system):
        raise TypeError(f"no invariance rule for a {type(self).__name__} piece")


def _shift_of(system, component):
    """The shift a piece tagged `component` lives on (its side of a union)."""
    shift = system.side(component)
    if shift is None:
        raise ValueError("measures on a disjoint union must carry a component tag")
    return shift


class _Chain(_Piece):
    """The rules of Bernoulli and Markov pieces, each its own `chain`."""

    chain = property(lambda self: self)

    def integral(self, phi) -> float:
        w, component, _ = phi.counted(False)     # the word a shift reads; TypeError off one
        if len({self.component, component} - {None}) > 1 or \
                any(s < 0 or s >= self.k for s in w):
            return 0.0                  # another side's cylinder, or another alphabet's
        P = self.transitions
        return math.prod((self.stationary[w[0]], *(P[a][b] for a, b in zip(w, w[1:]))))

    def shifted_integral(self, flow, s: float, phi) -> float:
        if not flow.is_flow or flow.carrier is flow:        # not a suspension
            return super().shifted_integral(flow, s, phi)
        roof = flow.roof
        if s < roof.roof_min:
            # no roof crossing: the fiber lands at s and the base is untouched
            factor, base = phi.on_fiber(s)
            return factor * integrate(self, base)
        if phi.depth is None:
            raise TypeError(f"cannot integrate {type(phi).__name__} on a suspension space")
        need = int(s / roof.roof_min) + 1 + phi.depth + roof.depth + 1
        k = flow.base.alphabet              # TypeError over a disjoint union
        if k ** need > 1 << 16:
            raise BudgetExhausted(f"cylinder decomposition depth {need} exceeds "
                                  "the enumeration budget")
        # the full shift admits a cylinder word's wrap-around pair, which no cylinder point makes
        total, full = 0.0, flow._replace(base=FullShift(k))
        for word in product(range(k), repeat=need):
            if (mass := self.integral(CylinderIndicator(word))) != 0.0:
                total += mass * phi.at(time_t_map(full, s, Point(ExplicitWord(word), fiber=0.0)))
        return total

    def check(self, system) -> None:
        shift = _shift_of(system, self.component)
        if not shift.symbolic:
            raise TypeError(f"{type(self).__name__} measures live on shift spaces")
        if self.k != shift.alphabet:
            raise ValueError("alphabet mismatch")
        if any(p > 0 and mass > 0 and not shift.adjacency[a][b] for a, (row, mass)
               in enumerate(zip(self.transitions, self.stationary)) for b, p in enumerate(row)):
            raise ValueError(f"{type(self).__name__} measure charges a forbidden transition")

    def cylinder_masses(self, k: int, depth: int) -> np.ndarray:
        """Masses of the k**depth cylinders, indexed by word code (last
        symbol cycling fastest)."""
        P, out = np.asarray(self.transitions), np.asarray(self.stationary)
        for _ in range(depth - 1):
            out = (out.reshape(-1, k)[:, :, None] * P).ravel()
        return out


class _PointMass(_Piece):
    """The unit mass at one point: an atom of an atomic measure."""

    point: Point
    component = property(lambda self: self.point.component)
    fiber = property(lambda self: self.point.fiber)

    def integral(self, phi) -> float:
        return phi.at(self.point)

    def shifted_integral(self, flow, s: float, phi) -> float:
        return phi.at(time_t_map(flow, s, self.point))

    def check(self, system):
        """The atom's place: (component, its minimal period read from the point)."""
        shift = _shift_of(system, self.component)
        if not shift.symbolic:
            raise TypeError("atomic measures have an invariance rule on shift spaces only")
        if (n := self.point.rule.period) is None:
            raise ValueError(f"an atom on a shift must be a periodic point given by an "
                             f"explicit word, not {type(self.point.rule).__name__}")
        word = tuple(int(s) for s in self.point.prefix(n))
        word = word[:next(p for p in range(1, n + 1) if word[p:] + word[:p] == word)]
        shift.admits(Point(ExplicitWord(word)))     # in the alphabet, wrap-around included
        return self.component, word

    def entropy(self, system) -> float:
        return 0.0


# ---------------------------------------------------------------------------
# measures


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

    def seeded(self, seed: int) -> SeededIID:
        return SeededIID(seed, self.probs)

    def foreign(self) -> "Bernoulli":
        """Each probability raised by 1/k, or the first by 0.3 where that moves none by 0.05."""
        shifted = [p + 1.0 / self.k for p in self.probs]
        other = Bernoulli(tuple(p / sum(shifted) for p in shifted), self.component)
        if max(abs(a - b) for a, b in zip(other.probs, self.probs)) < 0.05:
            first = min(self.probs[0] + 0.3, 0.95)
            rest = (1.0 - first) / (sum(self.probs[1:]) or 1.0)
            other = Bernoulli((first, *(p * rest for p in self.probs[1:])), self.component)
        return other


class Markov(_Chain):
    transitions: Tuple[Tuple[float, ...], ...]
    stationary: Tuple[float, ...]
    component: Optional[int] = None

    def __post_init__(self):
        P, pi, k = self.transitions, self.stationary, len(self.transitions)
        if k < 2 or any(len(row) != k for row in P) or len(pi) != k:
            raise ValueError("transition matrix must be square and match stationary vector")
        if any(p < 0 for row in P for p in row) or any(p < 0 for p in pi):
            raise ValueError("Markov data must be nonnegative")
        for row in P:
            if abs(math.fsum(row) - 1.0) > _MASS_TOL:
                raise ValueError("transition rows must sum to 1")
        if abs(math.fsum(pi) - 1.0) > _MASS_TOL:
            raise ValueError("stationary vector must sum to 1")
        residual = max(abs(math.fsum(pi[i] * P[i][j] for i in range(k)) - pi[j]) for j in range(k))
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
        return cls(tuple(tuple(float(v) for v in row) for row in P), tuple(float(v) for v in pi),
                   component)

    def entropy(self, system) -> float:
        return -math.fsum(self.stationary[i] * p * math.log(p)
                          for i, row in enumerate(self.transitions) for p in row if p > 0)

    def seeded(self, seed: int) -> SeededMarkov:
        return SeededMarkov(seed, self.transitions, self.stationary)


class Lebesgue(_Piece):
    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("Lebesgue dimension must be >= 1")

    def integral(self, phi) -> float:
        return super().integral(phi) if phi.circle_mean is None else phi.circle_mean

    def shifted(self, flow, t: float):
        # an isometric flow keeps Lebesgue measure
        return self if flow.is_flow and flow.isometric else super().shifted(flow, t)

    def check(self, system) -> None:
        if not system.torus_dim:
            raise TypeError("Lebesgue lives on the circle/torus")
        if self.dim != system.torus_dim:
            raise ValueError(f"Lebesgue({self.dim}) on a {system.torus_dim}-dimensional space")

    def entropy(self, system) -> float:
        # x -> n*x, the one circle or torus system that is not isometric, is its digit shift
        return 0.0 if system.isometric else math.log(system.digits.alphabet)


class Atomic(Measure):
    points: Tuple[Point, ...]
    weights: Tuple[float, ...]

    def __post_init__(self):
        if not self.points or len(self.points) != len(self.weights):
            raise ValueError("atomic measure needs matching nonempty points and weights")
        object.__setattr__(self, "weights", _normalised(self.weights, "atomic weights"))

    @cached_property
    def pieces(self):
        return tuple((w, _PointMass(x)) for x, w in zip(self.points, self.weights))


class Mixture(Measure):
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


class TimeAveraged(_Piece):
    """The flow-invariant lift of `base`, invariant on the flow's carrier and held on its
    zero fiber: (base x Lebesgue on [0, c)) / c under the constant roof c (Abramov), `base` for
    a rotation flow (c = 1).  phi integrates as phi.mass(0, c) / c times its base
    observable's integral against `base`.  ValueError or TypeError for another base."""

    flow: object
    base: "Measure"

    def __post_init__(self):
        self.flow.period        # ValueError under a word-dependent roof
        check_invariance(self.base, self.flow.carrier)
        if any(p.fiber for _, p in self.base.pieces):
            raise ValueError("a time average lifts atoms on the zero fiber only")

    def shifted(self, flow, t: float):
        return self if flow == self.flow else super().shifted(flow, t)

    def integral(self, phi) -> float:
        c = self.flow.period
        return phi.mass(0.0, c) / c * integrate(self.base, phi.on_fiber(0.0)[1])


class TimeShifted(_Piece):
    """Image of `base` under the time-t map; as a piece, of an unshifted piece.
    A suspension's symbol streams are one-sided, so it refuses t < 0 there."""

    flow: object
    t: float
    base: "Measure"

    def __post_init__(self):
        if self.t < 0 and self.flow.carrier.symbolic:
            raise ValueError("suspension flows run forward in time only")

    @cached_property
    def pieces(self):
        return tuple((w, p.shifted(self.flow, self.t)) for w, p in self.base.pieces)

    def shifted(self, flow, t: float) -> "TimeShifted":
        return TimeShifted(flow, self.t + t, self.base)

    def integral(self, phi) -> float:
        return self.base.shifted_integral(self.flow, self.t, phi)


# ---------------------------------------------------------------------------
# observables: each kind answers its readers' questions, or raises TypeError


class Observable(Record):
    """The questions its readers ask: `depth` (symbols read, None when not
    read from symbols), `constant` (its one value), `at(x)`, `along(coords)`
    (circle coordinates), `line_average(x0, speed, T)`, `mass(lo, hi)` over a
    fiber interval, `on_fiber(s)` ((factor, base observable) at fiber s),
    `after(flow, t)` (composed with the time-t map), `counted(flow)` (the cell
    reader's word, component and scale), `integral(mu)` and `circle_mean`."""

    depth = constant = circle_mean = None

    def along(self, coords: np.ndarray) -> np.ndarray:
        raise TypeError(f"{type(self).__name__} is not a circle observable")

    def line_average(self, x0: float, speed: float, T: float) -> float:
        raise TypeError(f"{type(self).__name__} is not a rotation-flow observable")

    @staticmethod
    def mass(lo: float, hi: float) -> float:
        return hi - lo                  # it does not read the fiber

    def on_fiber(self, s: float):
        return 1.0, self

    def after(self, flow, t: float):
        return self if self.constant is not None else _Composed(flow, t, self)

    def counted(self, flow: bool):
        raise TypeError(f"{type(self).__name__} does not read symbols")

    def integral(self, mu) -> float:
        if self.constant is not None:
            return self.constant
        return math.fsum(w * p.integral(self) for w, p in mu.pieces)


class Constant(Observable):
    value: float
    depth = 0
    constant = property(lambda self: self.value)

    def at(self, x: Point) -> float:
        return self.value

    def along(self, coords: np.ndarray) -> np.ndarray:
        return np.full(len(coords), self.value)

    def counted(self, flow: bool):
        return (), None, self.value


class CylinderIndicator(Observable):
    """Indicator of the set of streams starting with `word` (optionally
    restricted to one disjoint-union component); a one-symbol word reads the
    frequency of its symbol."""

    word: Tuple[int, ...]
    component: Optional[int] = None
    depth = property(lambda self: len(self.word))

    def __post_init__(self):
        if not self.word:
            raise ValueError("cylinder word must be nonempty")

    def at(self, x: Point) -> float:
        if self.component is not None and x.component != self.component:
            return 0.0
        word = x.prefix(len(self.word))
        return 1.0 if all(int(a) == b for a, b in zip(word, self.word)) else 0.0

    def counted(self, flow: bool):
        return self.word, self.component, 1.0


class Harmonic(Observable):
    """cos or sin of 2*pi*frequency*(x + offset) on the circle."""

    frequency: int
    phase: str = "cos"
    offset: float = 0.0
    circle_mean = 0.0

    def __post_init__(self):
        if self.frequency < 1:
            raise ValueError("harmonic frequency must be >= 1")
        if self.phase not in ("cos", "sin"):
            raise ValueError("phase must be 'cos' or 'sin'")

    def _wave(self, lib, x):
        angle = 2.0 * math.pi * self.frequency * (x + self.offset)
        return lib.cos(angle) if self.phase == "cos" else lib.sin(angle)

    def at(self, x: Point) -> float:
        return self._wave(math, x.coords[0])

    def along(self, coords: np.ndarray) -> np.ndarray:
        return self._wave(np, coords)

    def line_average(self, x0: float, speed: float, T: float) -> float:
        if abs(speed) < 1e-15:
            return self._wave(math, x0)
        w = 2.0 * math.pi * self.frequency
        a, b = w * (x0 + self.offset), w * speed
        if self.phase == "cos":
            return (math.sin(a + b * T) - math.sin(a)) / (b * T)
        return (math.cos(a) - math.cos(a + b * T)) / (b * T)

    def after(self, flow, t: float):
        if flow.is_flow and flow.isometric:     # a straight-line flow moves it along
            return self._replace(offset=self.offset + flow.speed * t)
        return super().after(flow, t)


class FiberProfile(Observable):
    """Base observable times a piecewise-linear profile of the fiber."""

    base: "Observable"
    breakpoints: Tuple[Tuple[float, float], ...]
    depth = property(lambda self: self.base.depth)

    def __post_init__(self):
        pts = self.breakpoints
        if len(pts) < 2 or any(pts[i][0] >= pts[i + 1][0] for i in range(len(pts) - 1)):
            raise ValueError("profile breakpoints must be >= 2 and strictly increasing")

    def profile(self, s: float) -> float:
        return float(np.interp(s, *zip(*self.breakpoints)))

    def profile_integral(self, lo: float, hi: float) -> float:
        """Exact integral of the profile over [lo, hi] (constant outside the
        breakpoint range, matching `profile`)."""
        if hi < lo:
            raise ValueError("need lo <= hi")
        knots = sorted({lo, hi, *(x for x, _ in self.breakpoints if lo < x < hi)})
        return sum((0.5 * (self.profile(a) + self.profile(b)) * (b - a)
                    for a, b in zip(knots, knots[1:])), 0.0)

    mass = profile_integral

    def at(self, x: Point) -> float:
        return self.base.at(x) * self.profile(x.fiber if x.fiber is not None else 0.0)

    def on_fiber(self, s: float):
        return self.profile(s), self.base

    def counted(self, flow: bool):
        # a map weighs no fiber; a flow reads the base as a map does
        return self.base.counted(False) if flow else super().counted(flow)


class _Composed(Observable):
    """phi composed with the time-t map of a flow (internal); integrated by
    change of variables, each piece moved by t."""

    flow: object
    t: float
    base: "Observable"

    def at(self, x: Point) -> float:
        return self.base.at(time_t_map(self.flow, self.t, x))

    def integral(self, mu) -> float:
        return math.fsum(w * integrate(p.shifted(self.flow, self.t), self.base)
                         for w, p in mu.pieces)


def compose_with_flow(flow, t: float, phi) -> object:
    """The observable x -> phi(flow_t(x)); a constant is itself, and a
    harmonic under an isometric flow is the same harmonic moved along."""
    return phi.after(flow, t)


def evaluate(phi, x: Point) -> float:
    """Value of the observable at a point."""
    return phi.at(x)


def evaluate_on_circle(phi, coords: np.ndarray) -> np.ndarray:
    """Vectorised evaluation on an array of circle coordinates."""
    return phi.along(coords)


# ---------------------------------------------------------------------------
# test families


class TestFamily(Record):
    """Ordered observables f_i with weights 2**-(i+1); the weak-* distance is
    sum_i 2**-(i+1) * |d_i| / (1 + |d_i|) over the integral gaps d_i."""

    __test__ = False        # not a pytest class despite the name

    observables: Tuple[object, ...]

    def __post_init__(self):
        if not self.observables:
            raise ValueError("test family must be nonempty")

    def weights(self) -> np.ndarray:
        return 0.5 ** np.arange(1, len(self.observables) + 1)

    def distance(self, a, b) -> float:
        """The weak-* distance between two rows of the family's integrals."""
        gaps = np.abs(np.asarray(a) - np.asarray(b))
        return float(np.dot(self.weights(), gaps / (1.0 + gaps)))

    # a family past this size makes every classification pass intractable
    MAX_MEMBERS = 4096

    @classmethod
    def default_for(cls, space, depth: int = 6, max_frequency: int = 8) -> "TestFamily":
        members = tuple(_default_observables(space, depth, max_frequency))
        if len(members) > cls.MAX_MEMBERS:
            raise BudgetExhausted(f"test family of {len(members)} observables exceeds the "
                                  f"{cls.MAX_MEMBERS} member budget; lower the depth")
        fam = cls(members)
        probes = [[integrate(mu, phi) for phi in members] for mu in _separation_probes(space)]
        for i, a in enumerate(probes):
            for b in probes[i + 1:]:
                if fam.distance(a, b) <= 1e-9:
                    raise ValueError("default family fails to separate built-in measures")
        return fam


def _default_observables(space, depth, max_frequency):
    """Harmonics on a circle or torus; else the cylinders of each side of
    the carrier (tagged on a union), and a fiber hat on a suspension flow
    (not on its time-t map, whose readers count cells and weigh no fiber)."""
    if space.torus_dim:
        return [Harmonic(q, phase) for q in range(1, max_frequency + 1)
                for phase in ("cos", "sin")]
    sides = space.carrier.sides         # each a single shift space; TypeError elsewhere
    hat = FiberProfile(Constant(1.0), ((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
    return [CylinderIndicator(word, component=comp if len(sides) > 1 else None)
            for length in range(1, depth + 1) for comp, side in enumerate(sides)
            for word in product(range(side.alphabet), repeat=length)] + [hat] * space.is_flow


def _separation_probes(space):
    if space.torus_dim:
        dim = space.torus_dim
        return [Lebesgue(dim), Atomic((Point(Coordinate((1.0 / 3,) * dim)),), (1.0,))]
    flow, sides = space.space, space.carrier.sides
    if flow.is_flow:
        # inside the first fiber, where a base probe keeps its base integrals
        return [TimeShifted(flow, 0.5 * flow.roof.roof_min, mu)
                for mu in _separation_probes(space.carrier)]
    if len(sides) > 1:
        tl, tr = (_separation_probes(side)[0]._replace(component=c) for c, side in enumerate(sides))
        return [Mixture(((tl, 0.7), (tr, 0.3))), Mixture(((tl, 0.3), (tr, 0.7)))]
    k = space.alphabet
    uniform = tuple(1.0 / k for _ in range(k))
    skew = tuple((0.5 + 0.4 * (i == 0) - 0.4 / (k - 1) * (i != 0)) * 2.0 / k for i in range(k))
    total = sum(skew)
    return [Bernoulli(uniform), Bernoulli(tuple(s / total for s in skew))]


# ---------------------------------------------------------------------------
# integration


def integrate(mu, phi) -> float:
    """Exact integral of `phi` against `mu`: the weighted sum of its pieces'
    integrals (a constant is its value, and a composed observable moves each
    piece instead); TypeError for a pair with no exact rule."""
    return phi.integral(mu)


def pushforward(flow, t: float, mu) -> TimeShifted:
    """Image measure under the time-t map of the flow: each piece moved by t."""
    return TimeShifted(flow, t, mu)


def time_average_measure(flow, mu) -> TimeAveraged:
    """The flow-invariant lift of mu, the measure averaged over one flow period."""
    return TimeAveraged(flow, mu)


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
