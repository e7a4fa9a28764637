"""State spaces, maps and flows, and the points they act on.

Discrete systems: full shifts, vertex shifts given by an adjacency matrix,
circle multiplication x -> n*x mod 1, circle rotation x -> x + theta mod 1,
and disjoint unions of two systems.  Flows: the unit-speed circle rotation
flow, straight-line torus translations, and suspension flows over a symbolic
base under a positive roof function.

Points are immutable views into lazily materialised symbol streams (or real
coordinate vectors).  Every consumer declares a horizon; nothing here ever
builds an infinite object.  Stepping a symbolic point is O(1): it only moves
an offset into the shared stream.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

__all__ = [
    "FullShift", "MarkovShift", "CircleMult", "CircleRotation", "DisjointUnion",
    "CircleRotationFlow", "TorusTranslation", "RoofFunction", "Suspension",
    "TimeTMap", "ExplicitWord", "SeededIID", "BlockSchedule", "SteeredBlocks",
    "Coordinate", "Point", "time_t_map", "random_point",
    "BudgetExhausted",
]


class BudgetExhausted(RuntimeError):
    """An operation would exceed its declared enumeration/sampling budget."""


# ---------------------------------------------------------------------------
# system descriptors


class _Descriptor:
    """The questions every module asks of a space, answered once: `is_flow`
    (continuous time), `isometric` (distances never grow, so every entropy
    is exactly 0), `symbolic` (points are symbol streams, the map is the
    shift), `torus_dim` (coordinate count of a circle or torus point, 0 for
    every other space) and `alphabet` (symbol count of a single shift space;
    TypeError elsewhere).  Read-only on the frozen descriptors."""

    is_flow = False
    isometric = False
    symbolic = False
    torus_dim = 0

    @property
    def alphabet(self) -> int:
        raise TypeError(f"no single alphabet for {type(self).__name__}")


class _Shift(_Descriptor):
    symbolic = True

    @property
    def alphabet(self) -> int:
        return self.k

    def allows(self, a: int, b: int) -> bool:
        """May symbol b follow symbol a?  Always, on a full shift."""
        return True

    def admits(self, rule) -> None:
        """ValueError unless every symbol of the rule's stream is in the
        alphabet and every consecutive pair is allowed.  A word repeats, its
        wrap-around included; blocks add their junctions and the repeat of
        the last pattern; iid draws pair any two symbols of positive
        probability; a steered rule is checked for its alphabet only."""
        if hasattr(rule, "probs"):
            used = [s for s, p in enumerate(rule.probs) if p > 0]
            pairs = [(a, b) for a in used for b in used]
        elif hasattr(rule, "ends"):
            used, pairs = range(rule.k), []
        else:
            blocks = getattr(rule, "blocks", None) or ((rule.symbols, 1),)
            used, pairs = [s for pattern, _ in blocks for s in pattern], []
            for i, (pattern, reps) in enumerate(blocks):
                after = blocks[i + 1][0] if i + 1 < len(blocks) else pattern   # the last repeats
                pairs += [*zip(pattern, pattern[1:]), (pattern[-1], after[0])]
                pairs += [(pattern[-1], pattern[0])] * (reps > 1)
        if any(not 0 <= s < self.k for s in used):
            raise ValueError(f"symbols {sorted(set(used))} outside the alphabet of {self}")
        forbidden = sorted({(a, b) for a, b in pairs if not self.allows(a, b)})
        if forbidden:
            raise ValueError(f"transitions {forbidden} are forbidden in {self}")


@dataclass(frozen=True)
class FullShift(_Shift):
    """One-sided full shift on k symbols."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("full shift needs an alphabet of size >= 2")


@dataclass(frozen=True)
class MarkovShift(_Shift):
    """One-sided vertex shift: words w with adjacency[w_i][w_{i+1}] == 1."""

    k: int
    adjacency: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        a = self.adjacency
        if self.k < 2 or len(a) != self.k or any(len(row) != self.k for row in a):
            raise ValueError("adjacency must be a k x k 0/1 matrix with k >= 2")
        if any(entry not in (0, 1) for row in a for entry in row):
            raise ValueError("adjacency entries must be 0 or 1")
        if any(sum(row) == 0 for row in a):
            raise ValueError("every symbol needs out-degree >= 1")
        if any(sum(row[j] for row in a) == 0 for j in range(self.k)):
            raise ValueError("every symbol needs in-degree >= 1")

    def allows(self, a: int, b: int) -> bool:
        return self.adjacency[a][b] == 1

    def adjacency_array(self) -> np.ndarray:
        return np.array(self.adjacency, dtype=np.int64)


@dataclass(frozen=True)
class CircleMult(_Descriptor):
    """x -> n*x mod 1 on the circle."""

    n: int
    torus_dim = 1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("circle multiplication needs n >= 2")


@dataclass(frozen=True)
class CircleRotation(_Descriptor):
    """x -> x + theta mod 1 on the circle."""

    theta: float
    isometric = True
    torus_dim = 1

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError("rotation angle must be finite")
        object.__setattr__(self, "theta", self.theta % 1.0)


@dataclass(frozen=True)
class DisjointUnion(_Descriptor):
    """Two systems side by side; orbits never change component."""

    left: "SystemDescriptor"
    right: "SystemDescriptor"

    @property
    def isometric(self) -> bool:
        return self.left.isometric and self.right.isometric

    @property
    def symbolic(self) -> bool:
        return self.left.symbolic and self.right.symbolic

    def side(self, component: int) -> "SystemDescriptor":
        if component not in (0, 1):
            raise ValueError("component must be 0 (left) or 1 (right)")
        return self.left if component == 0 else self.right


SystemDescriptor = Union[FullShift, MarkovShift, CircleMult, CircleRotation, DisjointUnion]


# ---------------------------------------------------------------------------
# flow descriptors


@dataclass(frozen=True)
class CircleRotationFlow(_Descriptor):
    """Unit-speed rotation flow on the circle: (t, x) -> x + t mod 1."""

    is_flow = True
    isometric = True
    torus_dim = 1
    speed = 1.0     # of the first coordinate, as for a torus translation


@dataclass(frozen=True)
class TorusTranslation(_Descriptor):
    """Straight-line translation flow on the d-torus with fixed velocity."""

    velocity: Tuple[float, ...]
    is_flow = True
    isometric = True

    @property
    def speed(self) -> float:
        """Speed of the first coordinate, the one circle observables read."""
        return self.velocity[0]

    @property
    def torus_dim(self) -> int:
        return len(self.velocity)

    def __post_init__(self):
        if not self.velocity or any(not math.isfinite(v) for v in self.velocity):
            raise ValueError("velocity must be a nonempty finite vector")


@dataclass(frozen=True)
class RoofFunction:
    """Positive roof depending on the first `depth` symbols of the base point.

    `table` has k**depth entries indexed by the word code (base-k integer);
    depth 0 means a single constant value.
    """

    depth: int
    table: Tuple[float, ...]
    k: int = 1

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("roof depth must be >= 0")
        expected = 1 if self.depth == 0 else self.k ** self.depth
        if len(self.table) != expected:
            raise ValueError("roof table must have k**depth entries")
        if any(not (math.isfinite(v) and v > 0.0) for v in self.table):
            raise ValueError("roof values must be finite and > 0")

    @classmethod
    def constant(cls, value: float) -> "RoofFunction":
        return cls(depth=0, table=(float(value),), k=1)

    @property
    def roof_min(self) -> float:
        return min(self.table)

    @property
    def roof_max(self) -> float:
        return max(self.table)

    def value_at(self, x: "Point") -> float:
        if self.depth == 0:
            return self.table[0]
        return float(self.values_along(np.asarray(x.prefix(self.depth)), 1)[0])

    def values_along(self, symbols: np.ndarray, count: int) -> np.ndarray:
        """Roof values at offsets 0..count-1 of a symbol array."""
        if self.depth == 0:
            return np.full(count, self.table[0])
        if len(symbols) < count + self.depth - 1:
            raise ValueError("symbol array too short for requested roof count")
        codes = np.zeros(count, dtype=np.int64)
        for i in range(self.depth):
            codes = codes * self.k + symbols[i:count + i].astype(np.int64)
        return np.asarray(self.table, dtype=float)[codes]


@dataclass(frozen=True)
class Suspension(_Descriptor):
    """Suspension flow over a symbolic base under a roof function."""

    base: SystemDescriptor
    roof: RoofFunction
    is_flow = True

    def __post_init__(self):
        if not self.base.symbolic:
            raise ValueError("suspension base must be a symbolic system")
        if self.roof.depth > 0:
            if isinstance(self.base, DisjointUnion):
                raise ValueError("word-dependent roofs over disjoint unions are not supported")
            if self.roof.k != self.base.alphabet:
                raise ValueError("roof alphabet must match the base alphabet")


FlowDescriptor = Union[CircleRotationFlow, TorusTranslation, Suspension]


@dataclass(frozen=True)
class TimeTMap(_Descriptor):
    """The time-t map of a flow, used as a discrete system."""

    flow: FlowDescriptor
    t: float

    def __post_init__(self):
        if not self.flow.is_flow:
            raise ValueError(f"{type(self.flow).__name__} is not a flow")
        if self.t == 0.0 or not math.isfinite(self.t):
            raise ValueError("time-t map needs a nonzero finite t")

    @property
    def isometric(self) -> bool:
        return self.flow.isometric

    @property
    def torus_dim(self) -> int:
        return self.flow.torus_dim


SpaceDescriptor = Union[SystemDescriptor, FlowDescriptor, TimeTMap]


# ---------------------------------------------------------------------------
# point generation rules

_GROW = 1024  # materialisation granularity
_STEER_CHUNK = 1 << 16  # block positions `SteeredBlocks` writes per vectorised step


def _grown(n: int, arr: Optional[np.ndarray]) -> int:
    # n up to a multiple of _GROW, and at least double a buffer being regrown
    return -(-max(n, 1, 0 if arr is None else 2 * len(arr)) // _GROW) * _GROW


def _count_at_or_below(thresholds, u: np.ndarray, dtype) -> np.ndarray:
    """The count of `thresholds` at or below each uniform of `u`: for nondecreasing
    thresholds `searchsorted(side="right")`, at one compare per threshold."""
    out = np.zeros(len(u), dtype=dtype)
    for c in thresholds:
        out += u >= c
    return out


@dataclass(frozen=True)
class ExplicitWord:
    """A finite word repeated periodically."""

    symbols: Tuple[int, ...]
    _buf: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("explicit word must be nonempty")

    def materialise(self, n: int) -> np.ndarray:
        arr = self._buf.get("arr")
        if arr is None or len(arr) < n:
            size = _grown(n, arr)
            base = np.asarray(self.symbols, dtype=np.int16)
            arr = np.tile(base, -(-size // len(base)))[:size]
            self._buf["arr"] = arr
        return arr[:n]


@dataclass(frozen=True)
class SeededIID:
    """Independent draws from `probs`, reproducible from `seed`.

    Draw i counts the inner cumulative masses at or below uniform i of the
    seeded generator's raw stream, so it stays below k.  The buffer is built
    as long as asked and at least doubles on regrowth; a longer
    materialisation always extends a shorter one bit-exactly.
    """

    seed: int
    probs: Tuple[float, ...]
    _buf: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if len(self.probs) < 2 or any(p < 0 for p in self.probs):
            raise ValueError("need >= 2 nonnegative probabilities")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")

    def materialise(self, n: int) -> np.ndarray:
        arr = self._buf.get("arr")
        if arr is None or len(arr) < n:
            size = _grown(n, arr)
            u = np.random.default_rng(self.seed).random(size)
            arr = _count_at_or_below(np.cumsum(self.probs)[:-1], u, np.int16)
            self._buf["arr"] = arr
        return arr[:n]


@dataclass(frozen=True)
class BlockSchedule:
    """Concatenation of (pattern, repeats) blocks; the last pattern repeats
    forever once the schedule is exhausted.  Constructed points serialise in
    this form so experiments replay bit-exactly."""

    blocks: Tuple[Tuple[Tuple[int, ...], int], ...]
    _buf: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("block schedule must be nonempty")
        for pattern, reps in self.blocks:
            if not pattern or reps < 1:
                raise ValueError("each block needs a nonempty pattern and repeats >= 1")

    def block_ends(self) -> Tuple[int, ...]:
        """Cumulative lengths at the end of each block entry."""
        ends = []
        total = 0
        for pattern, reps in self.blocks:
            total += len(pattern) * reps
            ends.append(total)
        return tuple(ends)

    def materialise(self, n: int) -> np.ndarray:
        arr = self._buf.get("arr")
        if arr is None or len(arr) < n:
            size = _grown(n, arr)
            parts = []
            total = 0
            for pattern, reps in self.blocks:
                if total >= size:
                    break
                chunk = np.tile(np.asarray(pattern, dtype=np.int16), reps)
                parts.append(chunk)
                total += len(chunk)
            if total < size:
                pattern = np.asarray(self.blocks[-1][0], dtype=np.int16)
                reps = -(-(size - total) // len(pattern))
                parts.append(np.tile(pattern, reps))
            arr = np.concatenate(parts)[:size]
            self._buf["arr"] = arr
        return arr[:n]


@dataclass(frozen=True)
class SteeredBlocks:
    """Blocks over a k-letter alphabet that steer the running count of
    `symbol` to round(targets[i] * ends[i]) at each block end ends[i].

    Within a block of length L that must add `want` copies of the symbol, let
    marks_j = floor(j * want / L).  Position j (1-based) holds the symbol
    exactly when marks_j > marks_{j-1}, so the copies are spread evenly; every
    other position takes others[(j - 1 - marks_{j-1}) % (k - 1)], the next of
    the remaining symbols in increasing order, cycling and restarting at each
    block.  Past the last block end the last block repeats forever, as in
    `BlockSchedule`.  The recipe is a few numbers, so irregular points
    serialise and replay in this form without ever holding their symbols as
    Python objects, and `counts(n)` answers how often each symbol occurs in a
    prefix from the recipe alone, so a depth-1 orbit read builds no stream.
    `materialise` writes blocks `_STEER_CHUNK` positions at a time, so
    building a stream holds little more than the stream.
    """

    k: int
    symbol: int
    ends: Tuple[int, ...]
    targets: Tuple[float, ...]
    _buf: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.k < 2 or not (0 <= self.symbol < self.k):
            raise ValueError("need k >= 2 and 0 <= symbol < k")
        if not self.ends or len(self.ends) != len(self.targets):
            raise ValueError("need one target per block end, and at least one block")
        if any(not (0.0 <= t <= 1.0) for t in self.targets):
            raise ValueError("targets must lie in [0, 1]")
        start = 0
        for end, want in zip(self.ends, self._wants()):
            if end <= start:
                raise ValueError("block ends must be strictly increasing and positive")
            if want < 0 or want > end - start:
                raise ValueError("infeasible steering step; widen the block ratio")
            start = end

    def _wants(self):
        """Copies of the symbol each block adds."""
        count = 0
        for end, tgt in zip(self.ends, self.targets):
            want = int(round(tgt * end)) - count
            count += want
            yield want

    def _write_block(self, out: np.ndarray, L: int, want: int) -> None:
        """Positions 1..len(out) of a block of length L adding `want` copies."""
        others = np.array([s for s in range(self.k) if s != self.symbol], dtype=np.int16)
        for a in range(0, len(out), _STEER_CHUNK):
            b = min(a + _STEER_CHUNK, len(out))
            marks = (np.arange(a, b + 1, dtype=np.int64) * want) // L
            part = out[a:b]
            filled = np.arange(a, b, dtype=np.int64) - marks[:-1]
            part[:] = others[filled % len(others)]
            part[marks[1:] > marks[:-1]] = self.symbol

    def _block_counts(self, L: int, want: int, p: int) -> list:
        """Symbol counts over positions 1..p of a block of length L adding
        `want` copies: floor(p * want / L) marks, and the other positions
        dealt to the other symbols in turn."""
        marks = p * want // L
        q, r = divmod(p - marks, self.k - 1)
        out = [q + (i < r) for i in range(self.k - 1)]
        out.insert(self.symbol, marks)
        return out

    def counts(self, n: int) -> np.ndarray:
        """How often each symbol occurs at positions 0..n-1: the counts before
        the block holding position n, plus its first p positions.  The first
        call tallies the whole blocks, O(#blocks); the symbol at position i is
        the one where counts(i + 1) - counts(i) is 1."""
        table = self._buf.get("blocks")
        if table is None:         # each block's start and want, and the counts before it
            starts, wants = (0,) + self.ends[:-1], tuple(self._wants())
            whole = [self._block_counts(e - s, w, e - s)
                     for s, e, w in zip(starts, self.ends, wants)]
            before = np.cumsum([[0] * self.k] + whole, axis=0)
            table = self._buf["blocks"] = (starts, wants, before)
        starts, wants, before = table
        i = min(bisect.bisect_right(self.ends, n), len(wants) - 1)
        L = self.ends[i] - starts[i]
        q, p = divmod(n - starts[i], L)           # q > 0 only where the last block repeats
        return before[i] + q * (before[i + 1] - before[i]) + self._block_counts(L, wants[i], p)

    def materialise(self, n: int) -> np.ndarray:
        arr = self._buf.get("arr")
        if arr is None or len(arr) < n:
            size = _grown(n, arr)
            arr = np.empty(size, dtype=np.int16)
            last = start = 0
            for end, want in zip(self.ends, self._wants()):
                if start >= size:
                    break
                # only the part of this block that the stream needs
                self._write_block(arr[start:min(end, size)], end - start, want)
                last, start = start, end
            while start < size:                   # the last block repeats
                r = min(start - last, size - start)
                arr[start:start + r] = arr[last:last + r]
                start += r
            self._buf["arr"] = arr
        return arr[:n]


@dataclass(frozen=True)
class Coordinate:
    """A point of the circle or torus given by coordinates in [0, 1)."""

    coords: Tuple[float, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValueError("coordinate point needs at least one coordinate")
        object.__setattr__(self, "coords", tuple(c % 1.0 for c in self.coords))


Rule = Union[ExplicitWord, SeededIID, BlockSchedule, SteeredBlocks, Coordinate]


@dataclass(frozen=True)
class Point:
    """Immutable point: a rule plus an offset into its stream, an optional
    disjoint-union component tag and an optional suspension fiber."""

    rule: Rule
    offset: int = 0
    component: Optional[int] = None
    fiber: Optional[float] = None

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("offset must be >= 0")
        if self.fiber is not None and (not math.isfinite(self.fiber) or self.fiber < 0):
            raise ValueError("fiber must be finite and >= 0")

    @property
    def is_symbolic(self) -> bool:
        return not isinstance(self.rule, Coordinate)

    @property
    def coords(self) -> Tuple[float, ...]:
        if not isinstance(self.rule, Coordinate):
            raise TypeError("not a coordinate point")
        return self.rule.coords

    def prefix(self, n: int) -> np.ndarray:
        """Symbols at offsets 0..n-1 relative to this point."""
        if isinstance(self.rule, Coordinate):
            raise TypeError("coordinate points have no symbol stream")
        return self.rule.materialise(self.offset + n)[self.offset:self.offset + n]

    def shifted(self, steps: int = 1) -> "Point":
        return Point(self.rule, self.offset + steps, self.component, self.fiber)

    def with_fiber(self, fiber: float) -> "Point":
        return Point(self.rule, self.offset, self.component, fiber)


# ---------------------------------------------------------------------------
# dynamics


def time_t_map(flow, t: float, x: Point) -> Point:
    """Flow the point for time t.

    Negative t is supported only for the invertible kinds (rotation flow,
    torus translation).  Suspension points must carry a fiber coordinate.
    """
    if not math.isfinite(t):
        raise ValueError("flow time must be finite")
    if isinstance(flow, CircleRotationFlow):
        return Point(Coordinate(((x.coords[0] + t) % 1.0,)))
    if isinstance(flow, TorusTranslation):
        if len(x.coords) != len(flow.velocity):
            raise ValueError("point dimension does not match the translation velocity")
        moved = tuple((c + t * v) % 1.0 for c, v in zip(x.coords, flow.velocity))
        return Point(Coordinate(moved))
    if isinstance(flow, Suspension):
        if t < 0:
            raise ValueError("suspension flows run forward in time only")
        if x.fiber is None:
            raise ValueError("suspension points need a fiber coordinate")
        return _suspension_advance(flow, x, t)
    raise TypeError(f"cannot flow {type(flow).__name__}")


def _suspension_advance(flow: Suspension, x: Point, t: float) -> Point:
    roof = flow.roof
    total = x.fiber + t
    if roof.depth == 0:
        c = roof.table[0]
        m = int(total // c)
        rem = total - m * c
        if rem >= c:       # guard the floor/multiply rounding edge
            m += 1
            rem -= c
        if rem < 0.0:
            rem = 0.0
        return Point(x.rule, x.offset + m, x.component, rem)
    # word-dependent roof: compensated subtraction keeps long advances honest
    rem = total
    carry = 0.0
    cur = x
    cap = int(total / roof.roof_min) + 2
    for _ in range(cap):
        r = roof.value_at(cur)
        if rem + carry < r:
            break
        new = rem - r
        carry += (rem - new) - r
        rem = new
        folded = rem + carry
        carry = carry - (folded - rem)
        rem = folded
        cur = cur.shifted(1)          # suspension bases are symbolic
    rem = max(rem + carry, 0.0)
    return Point(cur.rule, cur.offset, cur.component, rem)


# ---------------------------------------------------------------------------
# sampling


def random_point(space, rng: np.random.Generator) -> Point:
    """A uniformly seeded point of the space (symbol streams are iid uniform,
    so a vertex shift that forbids a transition has none: ValueError)."""
    if space.torus_dim:
        return Point(Coordinate(tuple(float(v) for v in rng.random(space.torus_dim))))
    if isinstance(space, MarkovShift) and not all(map(all, space.adjacency)):
        raise ValueError("an iid uniform stream leaves a vertex shift that "
                         "forbids a transition; give the point explicitly")
    if isinstance(space, (FullShift, MarkovShift)):
        k = space.alphabet
        seed = int(rng.integers(0, 2 ** 63 - 1))
        probs = tuple(1.0 / k for _ in range(k))
        return Point(SeededIID(seed, probs))
    if isinstance(space, DisjointUnion):
        component = int(rng.integers(0, 2))
        inner = random_point(space.side(component), rng)
        return Point(inner.rule, inner.offset, component)
    if isinstance(space, Suspension):
        base = random_point(space.base, rng)
        roof = space.roof.value_at(base)
        return base.with_fiber(float(rng.random()) * roof)
    if isinstance(space, TimeTMap):
        return random_point(space.flow, rng)
    raise TypeError(f"cannot sample from {type(space).__name__}")
