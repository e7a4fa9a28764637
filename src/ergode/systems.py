"""State spaces, maps, flows and their metrics.

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

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

__all__ = [
    "FullShift", "MarkovShift", "CircleMult", "CircleRotation", "DisjointUnion",
    "CircleRotationFlow", "TorusTranslation", "RoofFunction", "Suspension",
    "TimeTMap", "ExplicitWord", "SeededIID", "BlockSchedule", "SteeredBlocks",
    "Coordinate", "Point", "Distance", "MetricSpec", "metric_for", "distance",
    "step", "iterate", "time_t_map", "random_point", "BudgetExhausted",
]


class BudgetExhausted(RuntimeError):
    """An operation would exceed its declared enumeration/sampling budget."""


# ---------------------------------------------------------------------------
# system descriptors


class _Descriptor:
    """The questions every module asks of a space, answered once: `is_flow`
    (continuous time), `isometric` (distances never grow, so every entropy
    is exactly 0), `symbolic` (points are symbol streams, the map is the
    shift) and `alphabet` (symbol count of a single shift space; TypeError
    elsewhere).  Read-only on the frozen descriptors."""

    is_flow = False
    isometric = False
    symbolic = False

    @property
    def alphabet(self) -> int:
        raise TypeError(f"no single alphabet for {type(self).__name__}")


class _Shift(_Descriptor):
    symbolic = True

    @property
    def alphabet(self) -> int:
        return self.k


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

    def adjacency_array(self) -> np.ndarray:
        return np.array(self.adjacency, dtype=np.int64)


@dataclass(frozen=True)
class CircleMult(_Descriptor):
    """x -> n*x mod 1 on the circle."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("circle multiplication needs n >= 2")


@dataclass(frozen=True)
class CircleRotation(_Descriptor):
    """x -> x + theta mod 1 on the circle."""

    theta: float
    isometric = True

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
        word = x.prefix(self.depth)
        code = 0
        for s in word:
            code = code * self.k + int(s)
        return self.table[code]

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
    """The time-t map of a flow, used as a discrete system.

    `_grid` holds (fiber, grid) for the fiber read last: the cell grid that
    `birkhoff` reads the orbits of a constant-roof suspension through.  It
    depends only on the roof, t and the fiber, so every point read through
    this map at that fiber shares it.
    """

    flow: FlowDescriptor
    t: float
    _grid: list = field(default_factory=lambda: [None], compare=False, repr=False)

    def __post_init__(self):
        if self.t == 0.0 or not math.isfinite(self.t):
            raise ValueError("time-t map needs a nonzero finite t")

    @property
    def isometric(self) -> bool:
        return self.flow.isometric


SpaceDescriptor = Union[SystemDescriptor, FlowDescriptor, TimeTMap]


# ---------------------------------------------------------------------------
# point generation rules

_GROW = 1024  # materialisation granularity
_STEER_CHUNK = 1 << 16  # block positions `SteeredBlocks` writes per vectorised step


def _grown(n: int) -> int:
    size = _GROW
    while size < n:
        size *= 2
    return size


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
            size = _grown(n)
            base = np.asarray(self.symbols, dtype=np.int16)
            reps = -(-size // len(base))
            arr = np.tile(base, reps)[:size]
            self._buf["arr"] = arr
        return arr[:n]


@dataclass(frozen=True)
class SeededIID:
    """Independent draws from `probs`, reproducible from `seed`.

    Uses the raw uniform stream of the seeded generator, so a longer
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
            size = _grown(n)
            u = np.random.default_rng(self.seed).random(size)
            cum = np.cumsum(self.probs)
            cum[-1] = 1.0
            arr = np.searchsorted(cum, u, side="right").astype(np.int16)
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
            size = _grown(n)
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
    `BlockSchedule`.  Blocks are written `_STEER_CHUNK` positions at a time,
    so building a stream holds little more than the stream.  The recipe is a
    few numbers, so irregular points serialise and replay in this form
    without ever holding their symbols as Python objects.
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
        # with two letters a position is 1 exactly where marks step (symbol 1)
        # or where they do not (symbol 0); one compare in place of the
        # modulo and gather builds a stream in a third of the time
        ones_at = np.not_equal if self.symbol == 1 else np.equal
        for a in range(0, len(out), _STEER_CHUNK):
            b = min(a + _STEER_CHUNK, len(out))
            marks = (np.arange(a, b + 1, dtype=np.int64) * want) // L
            part = out[a:b]
            if self.k == 2:
                ones_at(marks[1:], marks[:-1], out=part)
                continue
            filled = np.arange(a, b, dtype=np.int64) - marks[:-1]
            part[:] = others[filled % len(others)]
            part[marks[1:] > marks[:-1]] = self.symbol

    def materialise(self, n: int) -> np.ndarray:
        arr = self._buf.get("arr")
        if arr is None or len(arr) < n:
            size = _grown(n)
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


def step(system, x: Point) -> Point:
    """One application of the map."""
    if isinstance(system, (FullShift, MarkovShift)):
        if not x.is_symbolic:
            raise TypeError("shift systems act on symbolic points")
        return x.shifted(1)
    if isinstance(system, CircleMult):
        return Point(Coordinate(((system.n * x.coords[0]) % 1.0,)))
    if isinstance(system, CircleRotation):
        return Point(Coordinate(((x.coords[0] + system.theta) % 1.0,)))
    if isinstance(system, DisjointUnion):
        if x.component not in (0, 1):
            raise ValueError("disjoint-union points must carry a component tag")
        inner = step(system.side(x.component), Point(x.rule, x.offset))
        return Point(inner.rule, inner.offset, x.component, x.fiber)
    if isinstance(system, TimeTMap):
        return time_t_map(system.flow, system.t, x)
    raise TypeError(f"cannot step {type(system).__name__}")


def iterate(system, x: Point, n: int) -> Point:
    if n < 0:
        raise ValueError("iterate needs n >= 0")
    if system.symbolic:
        return x.shifted(n)
    for _ in range(n):
        x = step(system, x)
    return x


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
# metrics


class Distance(NamedTuple):
    value: float
    truncated: bool


@dataclass(frozen=True)
class MetricSpec:
    """Names the metric of a space; `distance` dispatches on it.

    Symbolic: 2**-(first disagreement index), so <= 1 with index 0 giving 1.
    Circle/torus: (max) arc distance.  Disjoint union: 1 across components.
    Suspension: max of base distance and fiber gap, also compared through the
    next roof crossing on either side, clamped at the cell diameter 1.
    """

    space: SpaceDescriptor


def metric_for(space) -> MetricSpec:
    if isinstance(space, TimeTMap):
        return MetricSpec(space.flow)
    return MetricSpec(space)


def _symbolic_distance(x: Point, y: Point, horizon: int) -> Distance:
    a = x.prefix(horizon)
    b = y.prefix(horizon)
    neq = a != b
    if not neq.any():
        return Distance(0.0, True)
    return Distance(2.0 ** -int(np.argmax(neq)), False)


def _arc(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def distance(metric: MetricSpec, x: Point, y: Point, horizon: int = 256) -> Distance:
    """Distance truncated at `horizon` symbols for symbolic comparisons.

    When no disagreement is found within the horizon the reported value is 0
    with the truncation flag set, so callers can tell "equal as far as we
    looked" from a genuine zero.
    """
    space = metric.space
    if isinstance(space, (FullShift, MarkovShift)):
        return _symbolic_distance(x, y, horizon)
    if isinstance(space, (CircleMult, CircleRotation, CircleRotationFlow)):
        return Distance(_arc(x.coords[0], y.coords[0]), False)
    if isinstance(space, TorusTranslation):
        return Distance(max(_arc(a, b) for a, b in zip(x.coords, y.coords)), False)
    if isinstance(space, DisjointUnion):
        if x.component not in (0, 1) or y.component not in (0, 1):
            raise ValueError("disjoint-union points must carry a component tag")
        if x.component != y.component:
            return Distance(1.0, False)
        side = space.side(x.component)
        return distance(MetricSpec(side), Point(x.rule, x.offset), Point(y.rule, y.offset), horizon)
    if isinstance(space, Suspension):
        return _suspension_distance(space, x, y, horizon)
    raise TypeError(f"no metric for {type(space).__name__}")


def _suspension_distance(flow: Suspension, x: Point, y: Point, horizon: int) -> Distance:
    if x.fiber is None or y.fiber is None:
        raise ValueError("suspension points need a fiber coordinate")
    base_metric = MetricSpec(flow.base)
    bx = Point(x.rule, x.offset, x.component)
    by = Point(y.rule, y.offset, y.component)
    rx = flow.roof.value_at(x)
    ry = flow.roof.value_at(y)
    d_xy = distance(base_metric, bx, by, horizon)
    d_sx = distance(base_metric, step(flow.base, bx), by, horizon)
    d_sy = distance(base_metric, bx, step(flow.base, by), horizon)
    candidates = (
        max(d_xy.value, abs(x.fiber - y.fiber)),
        max(d_sx.value, (rx - x.fiber) + y.fiber),   # x crosses its roof first
        max(d_sy.value, (ry - y.fiber) + x.fiber),   # y crosses its roof first
    )
    truncated = d_xy.truncated or d_sx.truncated or d_sy.truncated
    return Distance(min(1.0, *candidates), truncated)


# ---------------------------------------------------------------------------
# sampling


def random_point(space, rng: np.random.Generator, horizon: int = 0) -> Point:
    """A uniformly seeded point of the space (symbol streams are iid uniform)."""
    if isinstance(space, (FullShift, MarkovShift)):
        k = space.alphabet
        seed = int(rng.integers(0, 2 ** 63 - 1))
        probs = tuple(1.0 / k for _ in range(k))
        return Point(SeededIID(seed, probs))
    if isinstance(space, (CircleMult, CircleRotation, CircleRotationFlow)):
        return Point(Coordinate((float(rng.random()),)))
    if isinstance(space, TorusTranslation):
        return Point(Coordinate(tuple(float(v) for v in rng.random(len(space.velocity)))))
    if isinstance(space, DisjointUnion):
        component = int(rng.integers(0, 2))
        inner = random_point(space.side(component), rng, horizon)
        return Point(inner.rule, inner.offset, component)
    if isinstance(space, Suspension):
        base = random_point(space.base, rng, horizon)
        roof = space.roof.value_at(base)
        return base.with_fiber(float(rng.random()) * roof)
    if isinstance(space, TimeTMap):
        return random_point(space.flow, rng, horizon)
    raise TypeError(f"cannot sample from {type(space).__name__}")
