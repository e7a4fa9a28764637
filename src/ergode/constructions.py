"""Constructions: points with prescribed averaging behaviour, and orbit
gluing with a mistake budget.

The generic-point builder's deterministic point is a Champernowne-style
block rule (`StageRecipe`): stage L lays down every length-L word with
multiplicities quantised against the target measure (an error-diffusing
rounding keeps every cumulative count within one slot of exact), and stage
lengths double, so late checkpoints sit in deep, well-balanced stages.  On a
vertex shift the butt joints between words are repaired by inserting
shortest admissible connectors (a density like 1/L).

The irregular-point builder steers the running frequency of one symbol to
alternating targets at geometrically growing block ends (`SteeredBlocks`).
Within each block the symbol is spread evenly, so the running average moves
monotonically between targets; the block ends are the natural checkpoint
schedule and the natural oscillation-window scales.  Both rules lay, write
and count their blocks only as far as they are read (`systems._Blocks`), so
a symbol-frequency read counts from the recipe and builds no stream.

Gluing admits each segment's point, then concatenates the segments exactly
on a full shift (at resolutions coarser than one symbol a junction causes no
mistakes at all) and overwrites the first few symbols after each junction on
a vertex shift, never shifting alignment.  The receipt reports each segment's
mistake ball count against the budget; an inadmissible result is a bug and
raises.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .systems import ExplicitWord, MarkovShift, Point, Record, SteeredBlocks, _Blocks, _Word
from .measures import Markov, check_invariance
from .birkhoff import Schedule
from .entropy import OscillationWindows

__all__ = [
    "MistakeFunction", "GluingError", "GluedOrbit", "glue_orbits",
    "mistake_ball_membership", "MistakeBallReport", "generic_point", "StageRecipe",
    "irregular_point", "IrregularRecipe",
]


# ---------------------------------------------------------------------------
# mistake functions


class MistakeFunction(Record):
    """Mistake budget g(t, eps): how many bad times an orbit segment of
    length t may contain at resolution eps.

    kind 'power' gives c(eps) * t**beta with beta in [0, 1); kind 'log'
    gives c(eps) * log(1 + t).  The coefficient table maps resolution grid
    points to coefficients, nonincreasing as eps grows (finer resolution,
    larger budget); queries use the largest grid point <= min(eps, eps0).
    """

    kind: str
    coeff_table: Tuple[Tuple[float, float], ...]
    beta: float = 0.0
    eps0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("power", "log"):
            raise ValueError("kind must be 'power' or 'log'")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError("beta must lie in [0, 1)")
        if self.eps0 <= 0:
            raise ValueError("eps0 must be positive")
        tab = self.coeff_table
        if not tab:
            raise ValueError("coefficient table must be nonempty")
        if any(e <= 0 or c < 0 for e, c in tab):
            raise ValueError("table entries need eps > 0 and coefficient >= 0")
        if any(a[0] >= b[0] for a, b in zip(tab[:-1], tab[1:])):
            raise ValueError("table resolutions must be strictly increasing")
        if any(a[1] < b[1] for a, b in zip(tab[:-1], tab[1:])):
            raise ValueError("coefficients must be nonincreasing in eps")

    @classmethod
    def zero(cls) -> "MistakeFunction":
        return cls("power", ((1.0, 0.0),))

    @classmethod
    def power(cls, coeff: float, beta: float, eps0: float = 1.0) -> "MistakeFunction":
        return cls("power", ((eps0, coeff),), beta, eps0)

    def coefficient(self, eps: float) -> float:
        if eps <= 0:
            raise ValueError("eps must be positive")
        below = [c for grid_eps, c in self.coeff_table if grid_eps <= min(eps, self.eps0)]
        return below[-1] if below else self.coeff_table[0][1]

    def budget(self, t: float, eps: float) -> float:
        if t < 0:
            raise ValueError("t must be >= 0")
        return self.coefficient(eps) * (t ** self.beta if self.kind == "power" else math.log1p(t))


# ---------------------------------------------------------------------------
# mistake balls


class MistakeBallReport(Record):
    member: bool
    mismatches: int
    budget: float
    horizon: int


def _resolution_length(eps: float) -> int:
    """Leading symbols that must agree for two streams to be eps-close."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return 0 if eps > 1.0 else int(math.floor(math.log2(1.0 / eps))) + 1


def mistake_ball_membership(system, x: Point, y: Point, n: int, eps: float,
                            g: Optional[MistakeFunction] = None) -> MistakeBallReport:
    """Is y in the n-step mistake ball around x at resolution eps?

    Counts the times j < n with d(T^j x, T^j y) >= eps and compares against
    the budget g(n, eps); with the zero budget this is exactly the Bowen
    ball.  ValueError unless the system admits both points and, on a disjoint
    union, each names its side."""
    if n < 1:
        raise ValueError("need n >= 1")
    L = _resolution_length(eps)
    g = g or MistakeFunction.zero()
    if not system.symbolic:
        raise TypeError("mistake balls are implemented on shift spaces")
    system.admits(x)
    system.admits(y)
    if len(system.sides) > 1 and None in (x.component, y.component):
        raise ValueError(f"an untagged point names no side of {type(system).__name__}")
    if len(system.sides) > 1 and x.component != y.component:    # on two sides of a union
        mismatches = n if L else 0
    else:       # the times j < n whose length-L windows of x and y differ
        neq = x.prefix(n + L - 1) != y.prefix(n + L - 1)
        mismatches = int(np.any([neq[i:n + i] for i in range(L)], axis=0).sum()) if L else 0
    allowance = g.budget(n, eps)
    return MistakeBallReport(mismatches <= allowance, mismatches, allowance, n)


# ---------------------------------------------------------------------------
# gluing


class GluingError(RuntimeError):
    """The glued word failed its admissibility postcondition."""


class GluedOrbit(Record):
    point: Point
    junction_times: Tuple[int, ...]
    connector_lengths: Tuple[int, ...]
    segment_mismatches: Tuple[int, ...]
    within_budget: bool


def _overwrite_connector(adjacency, a: int, glued: np.ndarray, T: int, cap: int):
    """Replacement v_1..v_r for glued[T:T+r] making a -> v_1 -> ... -> v_r ->
    glued[T+r] admissible, with r as small as possible.  The layer-by-layer
    walk keeps exact path lengths, so the overwritten zone never shifts the
    segment alignment.  None if nothing works within cap.  On a constant
    target b it is a shortest connector from a to b of at most cap - 1 states."""
    k = len(adjacency)
    layers = [{a: None}]
    for r in range(cap):
        if T + r >= len(glued):
            return None
        target = int(glued[T + r])
        for s in layers[r]:
            if adjacency[s][target]:
                path = []
                cur, j = s, r
                while j > 0:
                    path.append(cur)
                    cur = layers[j][cur]
                    j -= 1
                return tuple(reversed(path))
        nxt = {}
        for s in layers[r]:
            for v in range(k):
                if adjacency[s][v] and v not in nxt:
                    nxt[v] = s
        layers.append(nxt)
    return None


def glue_orbits(system, segments: Sequence[Tuple[Point, int]], eps: float = 0.75,
                g: Optional[MistakeFunction] = None) -> GluedOrbit:
    """Concatenate orbit segments into one point, preserving each segment's
    start time exactly.

    On a full shift the result simply switches streams at each junction; on a
    vertex shift the first few symbols after a junction are overwritten with
    a shortest admissible connector.  Each segment's mistake ball around its
    own point, read from its start in the glued point, is reported against
    g; the default budget is zero, which a full-shift glue at eps > 1/2
    satisfies.  ValueError unless the system admits each segment's point,
    checked before any is read."""
    if len(segments) < 2:
        raise ValueError("gluing needs at least two segments")
    if not system.symbolic or len(system.sides) > 1:
        raise TypeError("gluing is implemented on a single shift space")
    for p, _ in segments:
        system.admits(p)
    k = system.alphabet
    L = _resolution_length(eps)
    lengths = [int(t) for _, t in segments]
    if any(t < 1 for t in lengths):
        raise ValueError("segment lengths must be >= 1")
    glued = np.concatenate([p.prefix(t) for p, t in segments[:-1]]
                           + [segments[-1][0].prefix(lengths[-1] + L + 8)])
    boundaries = np.cumsum(lengths)[:-1]
    connector_lengths = []
    A = system.adjacency
    for T in boundaries:          # a shift that forbids nothing gets () connectors
        conn = _overwrite_connector(A, int(glued[T - 1]), glued, int(T), 2 * k + 2)
        if conn is None:
            raise GluingError("no admissible connector found")
        glued[T:T + len(conn)] = conn
        connector_lengths.append(len(conn))
    if not A[glued[-1]][glued[0]]:      # the word repeats, so its end must lead to its start
        glued = np.append(glued, _connector(A, glued[-1], glued[0]))
    if not np.asarray(A)[glued[:-1], glued[1:]].all():
        raise GluingError("glued word is not admissible")
    # the glued word holds L + 8 symbols past the last segment, then its closing connector
    point = Point(ExplicitWord(tuple(glued.tolist())))
    balls = [mistake_ball_membership(system, p, point.shifted(int(s)), t, eps, g)
             for (p, t), s in zip(segments, (0, *boundaries))]
    return GluedOrbit(point, tuple(int(b) for b in boundaries), tuple(connector_lengths),
                      tuple(b.mismatches for b in balls), all(b.member for b in balls))


# ---------------------------------------------------------------------------
# generic points


def generic_point(system, mu, kind: str = "deterministic-blocks", seed: int = 0,
                  horizon: int = 1 << 21, first_stage: int = 6) -> Point:
    """A point whose orbit averages converge to the integrals of mu.

    'deterministic-blocks' gives the Champernowne-style `StageRecipe` (no
    randomness; convergence is by construction).  'seeded-iid' gives mu's own
    seeded rule: almost-sure genericity, checked a posteriori by the
    classifier like any other point.  Both build only the prefix that is read."""
    chain = mu.chain                    # TypeError unless a Bernoulli or Markov target
    check_invariance(mu, system)        # a shift (a tagged union side) that carries mu
    if kind == "seeded-iid":
        return Point(mu.seeded(seed), component=mu.component)
    if kind != "deterministic-blocks":
        raise ValueError("kind must be 'deterministic-blocks' or 'seeded-iid'")
    adjacency = system.side(mu.component).adjacency
    return Point(StageRecipe(chain.transitions, chain.stationary, adjacency, first_stage, horizon),
                 component=mu.component)


class StageRecipe(_Blocks):
    """The Champernowne-style stage schedule of a stationary chain on a shift:
    stage i lays down its round (`_round`) 2**i times, a seam connector
    joining each round to the next, its own within the stage and the next
    stage's at its end (none on a shift that forbids nothing).  The stage
    whose rounds pass `horizon` symbols is the last, and its round repeats
    forever.  Each round is built as an int16 array when it is first laid."""

    kind = "stage-recipe"
    transitions: Tuple[Tuple[float, ...], ...]
    stationary: Tuple[float, ...]
    adjacency: Tuple[Tuple[int, ...], ...]
    first_stage: int
    horizon: int
    chain = property(lambda self: Markov(self.transitions, self.stationary))

    def __post_init__(self):     # ValueError unless a chain that keeps to the adjacency
        check_invariance(self.chain, MarkovShift(len(self.adjacency), self.adjacency))

    def _round(self, L: int) -> np.ndarray:
        """The words of length L in lexicographic order, each k**L times its
        mass by error-diffusing rounding, junctions repaired."""
        k = len(self.stationary)
        cum = np.floor(np.cumsum(self.chain.cylinder_masses(k, L)) * k ** L + 1e-9)
        words = np.array(np.unravel_index(np.arange(k ** L), (k,) * L), dtype=np.int16).T
        repeated = np.repeat(words, np.diff(cum, prepend=0.0).astype(np.int64), axis=0)
        return _repair_junctions(repeated.ravel(), self.adjacency)

    def _blocks(self):
        """Stage i's round 2**i times, each with the seam connector to the next
        round (the next stage's after its last), through the stage past `horizon`."""
        k, total, after = len(self.stationary), 0, self._round(self.first_stage)
        for i in itertools.count():
            flat, reps = after, 1 << i
            total += len(flat) * reps
            after = flat if total >= self.horizon else self._round(self.first_stage + i + 1)
            same, cross = (_connector(self.adjacency, flat[-1], b) for b in (flat[0], after[0]))
            body = lambda conn, r: _Word(np.concatenate((flat, np.array(conn, np.int16))), k, r)
            if reps > 1 and same != cross:
                yield from (body(same, reps - 1), body(cross, 1))
            else:
                yield body(same if reps > 1 else cross, reps)
            if after is flat:
                return

    def pairs(self) -> list:
        """The steps its adjacency allows, which leave every state."""
        return [(a, b) for a, row in enumerate(self.adjacency) for b, e in enumerate(row) if e]


def _connector(adjacency, a: int, b: int) -> tuple:
    """A shortest connector v_1..v_r (r <= 2k + 2), a -> v_1 -> ... -> v_r -> b admissible."""
    cap = 2 * len(adjacency) + 3
    conn = _overwrite_connector(adjacency, int(a), np.full(cap, int(b)), 0, cap)
    if conn is None:
        raise GluingError(f"no connector exists from {a} to {b}")
    return conn


def _repair_junctions(flat: np.ndarray, adjacency) -> np.ndarray:
    """Insert shortest connectors wherever consecutive symbols are forbidden."""
    bad = np.nonzero(np.asarray(adjacency)[flat[:-1], flat[1:]] == 0)[0]
    if not len(bad):
        return flat
    pairs = list(zip(flat[bad].tolist(), flat[bad + 1].tolist()))
    conns = {pair: _connector(adjacency, *pair) for pair in set(pairs)}
    return np.insert(flat, np.repeat(bad + 1, [len(conns[p]) for p in pairs]),
                     [s for p in pairs for s in conns[p]])


# ---------------------------------------------------------------------------
# irregular points


class IrregularRecipe(Record):
    """An orbit whose running frequency of `symbol` alternates between lo and
    hi at geometrically growing block ends."""

    point: Point
    symbol: int
    lo: float
    hi: float
    block_ends: Tuple[int, ...]
    targets: Tuple[float, ...]

    def schedule(self) -> Schedule:
        return Schedule(tuple(float(e) for e in self.block_ends))

    def oscillation_windows(self, scales: int = 4, slack: float = 0.1) -> OscillationWindows:
        ws = tuple((int(e), max(t - slack, 0.0), min(t + slack, 1.0))
                   for e, t in zip(self.block_ends[:scales], self.targets[:scales]))
        return OscillationWindows(self.symbol, ws)


def irregular_point(system, symbol: int = 0, lo: float = 0.2, hi: float = 0.65,
                    first_block: int = 8, ratio: int = 4,
                    horizon: int = 1 << 21) -> IrregularRecipe:
    """Build a point whose running frequency of `symbol` oscillates forever.

    Blocks have lengths first_block * ratio**i; at the end of block i the
    running count is steered to the alternating target (lo first).  The
    steering is feasible when hi + (hi-lo)/(ratio-1) <= 1 and
    lo >= (hi-lo)/(ratio-1); the defaults satisfy both with slack.  Block
    ends are laid down until they pass `horizon`; the point's rule is the
    `SteeredBlocks` recipe, so symbols are built only when read."""
    if not system.symbolic or len(system.sides) > 1 or not system.forbids_nothing:
        raise TypeError("irregular points are built on a shift that forbids no transition")
    k = system.k
    if not (0 <= symbol < k):
        raise ValueError("symbol out of range")
    if not (0.0 < lo < hi < 1.0):
        raise ValueError("need 0 < lo < hi < 1")
    swing = (hi - lo) / (ratio - 1)
    if hi + swing > 1.0 + 1e-12 or lo < swing - 1e-12:
        raise ValueError("targets are not reachable at this block ratio")
    ends, targets, length, pos = [], [], first_block, 0
    while pos < horizon:
        pos += length
        ends.append(pos)
        targets.append(lo if len(ends) % 2 == 1 else hi)
        length *= ratio
    return IrregularRecipe(Point(SteeredBlocks(k, symbol, tuple(ends), tuple(targets))),
                           symbol, lo, hi, tuple(ends), tuple(targets))
