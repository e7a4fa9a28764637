"""State spaces, maps and flows, and the points they act on.

Discrete systems: full shifts, vertex shifts given by an adjacency matrix,
circle multiplication x -> n*x mod 1, circle rotation x -> x + theta mod 1,
and disjoint unions of two systems.  Flows: the unit-speed circle rotation
flow, straight-line torus translations, and suspension flows over a symbolic
base under a positive roof function.

Each system answers its callers' questions itself, so no other module
unwraps a time-t map, a flow, a suspension or a union side.  Where a
suspension point is after time t is read from one exact time chart (the
fiber, t and every roof value as the decimals they print as, over one
denominator), by the time-t map readers and by `time_t_map` alike; circle
multiplication steps the exact orbit of the decimal its coordinate prints as.

Points are immutable views into symbol streams (or coordinate vectors) that
their rule, a recipe of a few numbers or a word, yields piece by piece (and
caches as far as a short read asks), and writes to point.json as its `kind`
and its own fields.  Stepping a symbolic point only moves an offset.
"""

from __future__ import annotations

import bisect
import functools
import math
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

__all__ = [
    "FullShift", "MarkovShift", "CircleMult", "CircleRotation", "DisjointUnion",
    "CircleRotationFlow", "TorusTranslation", "RoofFunction", "Suspension",
    "TimeTMap", "ExplicitWord", "SeededIID", "SeededMarkov", "BlockSchedule", "SteeredBlocks",
    "Coordinate", "Point", "Record", "time_t_map", "random_point",
    "BudgetExhausted",
]


class BudgetExhausted(RuntimeError):
    """An operation would exceed its declared enumeration/sampling budget."""


class Record:
    """An immutable record, declared as a subclass whose body annotates its
    fields in order (`offset: int = 0`: a class value is the field's default).
    It is built by position, keyword and default, then runs `__post_init__`
    (which may set a field with `object.__setattr__`); it equals a record of
    its class with equal fields, less those in `_uncompared`, hashes alike,
    reprs as `Name(field=value, ...)` and refuses assignment (AttributeError).
    As on a namedtuple, `_fields` names the fields and `_replace(**changes)`
    copies; `_buf` is a scratch dict of its own."""

    _fields, _defaults, _uncompared, _compared = (), {}, (), ()
    __post_init__ = lambda self: None       # where a subclass checks its fields

    def __init_subclass__(cls):
        own = tuple(vars(cls).get("__annotations__", ()))
        cls._fields += own
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        cls._compared = tuple(n for n in cls._fields if n not in cls._uncompared)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bound(args, kwargs)
        # object.__setattr__ keeps the fields in the instance, where reads are fastest
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_buf", {})
        self.__post_init__()

    def _bound(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, from positional and keyword arguments and defaults."""
        values, defaults = [*args], self._defaults
        for name in self._fields[len(args):]:
            if name not in kwargs and name not in defaults:
                raise TypeError(f"{type(self).__name__} needs its field {name!r}")
            values.append(kwargs.pop(name) if name in kwargs else defaults[name])
        if kwargs or len(args) > len(self._fields):
            raise TypeError(f"{type(self).__name__}{self._fields} cannot take {args}, {kwargs}")
        return values

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _replace(self, **changes):
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})


# ---------------------------------------------------------------------------
# system descriptors


class _Descriptor(Record):
    """The questions every module asks of a space, answered once: `is_flow`
    (continuous time), `isometric` (distances never grow, so every entropy
    is exactly 0), `symbolic` (points are symbol streams, the map is the
    shift), `torus_dim` (coordinate count of a circle or torus point, 0 for
    every other space), `alphabet` (symbol count of a single shift space), a
    shift's `adjacency` and `forbids_nothing`, `space` (where its points
    live: a time-t map's flow), `carrier` (where their symbols and its
    measures live: a suspension's base), `digits` (circle multiplication's
    n-ary digit shift, else itself), `sides` and `side(component)` (a union's
    two, None for an untagged point), `admits(point)`, `random_point(rng)`, a
    flow's `period` and `advance(t, x)`, a circle or torus map's `orbit(x, n)`
    of the first coordinate, and a symbolic space's `cell_plan(x, Ts)` and
    `chart_key(x)`.  A kind that cannot answer raises TypeError.  Read-only."""

    is_flow = False
    isometric = False
    symbolic = False
    torus_dim = 0

    @property
    def alphabet(self) -> int:
        raise TypeError(f"no single alphabet for {type(self).__name__}")

    @property
    def space(self) -> "SpaceDescriptor":
        return self

    @property
    def carrier(self) -> "SpaceDescriptor":
        return self

    digits = property(lambda self: self)

    @property
    def sides(self) -> tuple:
        return (self,)

    def side(self, component: Optional[int]) -> "SpaceDescriptor":
        return self

    def admits(self, point: "Point") -> None:
        """ValueError unless the point is one of this space's: its rule reads
        what its side of the carrier holds (an untagged symbolic point on a
        union names none; a union of shifts holds no coordinate point), a
        suspension point lies under its roof, and on a shift every
        symbol it has `used()` is in the alphabet and, where a transition is
        forbidden, its `pairs()` are a subset of the allowed ones."""
        side, rule = self.carrier.side(point.component) or self.carrier, point.rule
        if rule.symbolic and len(side.sides) > 1:
            return
        if rule.symbolic != side.symbolic:
            raise ValueError(f"a {rule.kind} point is not a point of {type(side).__name__}")
        if self.space.is_flow and rule.symbolic:
            _fiber(self.space, point)
        if not side.symbolic:
            return
        if not (used := set(rule.used())) <= set(range(side.alphabet)):
            raise ValueError(f"symbols {sorted(used)} outside the alphabet of {side}")
        if not side.forbids_nothing and (forbidden := sorted(
                (a, b) for a, b in set(rule.pairs()) if not side.adjacency[a][b])):
            raise ValueError(f"transitions {forbidden} are forbidden in {side}")

    def random_point(self, rng: np.random.Generator) -> "Point":
        """Uniform coordinates on a circle or torus."""
        if not self.torus_dim:
            raise TypeError(f"cannot sample from {type(self).__name__}")
        return Point(Coordinate(tuple(float(v) for v in rng.random(self.torus_dim))))

    @property
    def period(self) -> float:
        raise TypeError(f"{type(self).__name__} is not a flow")

    def advance(self, t: float, x: "Point") -> "Point":
        raise TypeError(f"cannot flow {type(self).__name__}")

    def orbit(self, x: "Point", n: int) -> np.ndarray:
        raise TypeError(f"no coordinate orbit for {type(self).__name__}")

    def cell_plan(self, x: "Point", Ts) -> "CellPlan":
        """A shift's, a union's or a time-t map's plan up to n in Ts map steps."""
        if not self.carrier.symbolic:
            raise TypeError(f"{type(self).__name__} reads no base cells")
        chart = _map_chart(self, x, Ts[-1])
        ends = [chart.cell(n - 1) for n in Ts]
        return CellPlan(ends, 0.0, chart.first(1), [chart.first(L) for L in ends], chart.classes,
                        chart.steps)

    # equal for points of equal plans: those of a shift, or of one fiber under a constant roof
    chart_key = lambda self, x: 0 if self.space is self else self.space.chart_key(x)


class _Shift(_Descriptor):
    symbolic = True

    @property
    def alphabet(self) -> int:
        return self.k

    @functools.cached_property
    def forbids_nothing(self) -> bool:
        """Is every entry of `adjacency` 1, so any symbol may follow any other?"""
        return all(map(all, self.adjacency))

    def random_point(self, rng: np.random.Generator) -> "Point":
        """iid uniform symbols: ValueError on a vertex shift that forbids a transition."""
        if not self.forbids_nothing:
            raise ValueError("an iid uniform stream leaves a vertex shift that "
                             "forbids a transition; give the point explicitly")
        seed = int(rng.integers(0, 2 ** 63 - 1))
        return Point(SeededIID(seed, tuple(1.0 / self.k for _ in range(self.k))))


class FullShift(_Shift):
    """One-sided full shift on k symbols."""

    k: int
    adjacency = property(lambda self: ((1,) * self.k,) * self.k)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("full shift needs an alphabet of size >= 2")


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


class CircleMult(_Descriptor):
    """x -> n*x mod 1 on the circle."""

    n: int
    torus_dim = 1
    digits = property(lambda self: FullShift(self.n))   # finite-to-one: keeps every entropy

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("circle multiplication needs n >= 2")

    def orbit(self, x: "Point", n: int) -> np.ndarray:
        """The exact orbit of the decimal the coordinate prints as (0.217 is
        217/1000): r/q steps to (self.n * r mod q)/q, each point rounded once."""
        q, (r,) = _decimals(x.coords[0])
        out = np.empty(n)
        for j in range(n):
            out[j], r = r / q, r * self.n % q
        return out


class CircleRotation(_Descriptor):
    """x -> x + theta mod 1 on the circle."""

    theta: float
    isometric = True
    torus_dim = 1

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError("rotation angle must be finite")
        object.__setattr__(self, "theta", self.theta % 1.0)

    def orbit(self, x: "Point", n: int) -> np.ndarray:
        return (x.coords[0] + self.theta * np.arange(n)) % 1.0


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

    @property
    def sides(self) -> tuple:
        return (self.left, self.right)

    def side(self, component: Optional[int]) -> Optional["SystemDescriptor"]:
        if component not in (None, 0, 1):
            raise ValueError("component must be 0 (left) or 1 (right)")
        return None if component is None else self.sides[component]

    def random_point(self, rng: np.random.Generator) -> "Point":
        component = int(rng.integers(0, 2))
        inner = self.side(component).random_point(rng)
        return Point(inner.rule, inner.offset, component)


SystemDescriptor = Union[FullShift, MarkovShift, CircleMult, CircleRotation, DisjointUnion]


# ---------------------------------------------------------------------------
# flow descriptors


class CircleRotationFlow(_Descriptor):
    """Unit-speed rotation flow on the circle: (t, x) -> x + t mod 1."""

    is_flow = True
    isometric = True
    torus_dim = 1
    speed = 1.0     # of the first coordinate, as for a torus translation
    period = 1.0    # one turn of the circle

    def advance(self, t: float, x: "Point") -> "Point":
        return Point(Coordinate(((x.coords[0] + t) % 1.0,)))


class TorusTranslation(_Descriptor):
    """Straight-line translation flow on the d-torus with fixed velocity."""

    velocity: Tuple[float, ...]
    is_flow = True
    isometric = True
    period = 1.0    # one unit of time

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

    def advance(self, t: float, x: "Point") -> "Point":
        if len(x.coords) != len(self.velocity):
            raise ValueError("point dimension does not match the translation velocity")
        return Point(Coordinate(tuple((c + t * v) % 1.0 for c, v in zip(x.coords, self.velocity))))


class RoofFunction(Record):
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

    def value_at(self, x: "Point", i: int = 0) -> float:
        """The roof over base cell i of the orbit of x."""
        word = x.prefix(i + self.depth)[i:] if self.depth else ()   # builds no symbols
        return float(self.table[functools.reduce(lambda c, s: c * self.k + int(s), word, 0)])

    def values_along(self, symbols: np.ndarray, count: int, table=None) -> np.ndarray:
        """Roof values at offsets 0..count-1 of a symbol array, read from
        `table` (the roof's own, or an array of its values rescaled)."""
        if len(symbols) < count + self.depth - 1:
            raise ValueError("symbol array too short for requested roof count")
        codes = np.zeros(count, dtype=np.int64)
        for i in range(self.depth):
            codes = codes * self.k + symbols[i:count + i].astype(np.int64)
        return (np.asarray(self.table, dtype=float) if table is None else table)[codes]


class Suspension(_Descriptor):
    """Suspension flow over a symbolic base under a roof function."""

    base: SystemDescriptor
    roof: RoofFunction
    is_flow = True

    def __post_init__(self):
        if not self.base.symbolic:
            raise ValueError("suspension base must be a symbolic system")
        if self.roof.depth > 0:
            if len(self.base.sides) > 1:
                raise ValueError("word-dependent roofs over disjoint unions are not supported")
            if self.roof.k != self.base.alphabet:
                raise ValueError("roof alphabet must match the base alphabet")

    @property
    def carrier(self) -> SystemDescriptor:
        return self.base

    @property
    def period(self) -> float:
        """The time of one sweep of the fiber: the roof, which must read no word."""
        if self.roof.depth > 0:
            raise ValueError(f"no time average under the word-dependent {self.roof}: "
                             "the flow-invariant measure weighs each base point by its roof")
        return self.roof.table[0]

    def random_point(self, rng: np.random.Generator) -> "Point":
        base = self.base.random_point(rng)
        return base.with_fiber(float(rng.random()) * self.roof.value_at(base))

    def advance(self, t: float, x: "Point") -> "Point":
        """Where x is after time t >= 0: in the cell that step 1 of the time-t
        chart reads, at the exact fiber rounded once to a float.  An unset
        fiber reads as 0; a coordinate point has no symbols to flow along."""
        if t < 0:
            raise ValueError("suspension flows run forward in time only")
        if not x.rule.symbolic:
            raise TypeError("coordinate points have no symbol stream")
        f0, roof = _fiber(self, x), self.roof
        if roof.depth == 0:
            chart = _chart(f0, t, roof.table[0])        # m is chart.cell(1)
            d, (m, rest) = chart.d, divmod(chart.f + chart.tt, chart.cc)
        else:       # the last cell entered at or before f + tt
            d, (f, tt, *table) = _decimals(f0, t, *roof.table)
            entries = _entries(roof, x, table, f + tt)
            m = int(np.searchsorted(entries, f + tt, side="right")) - 1
            rest = f + tt - int(entries[m])
        return Point(x.rule, x.offset + m, x.component, float(Fraction(rest, d)))

    def cell_plan(self, x: "Point", Ts) -> "CellPlan":
        """The plan of the flow up to each time T in Ts: T ends in the first cell
        whose top reaches f0 + T in the chart's decimals, each cell its roof."""
        f0, roof = _fiber(self, x), self.roof
        d, (f, *scaled) = _decimals(f0, *Ts, *roof.table)
        tops, table = [f + T for T in scaled[:len(Ts)]], scaled[len(Ts):]
        if roof.depth == 0:
            c = roof0 = roof.table[0]
            ends = [max((top - 1) // table[0], 0) for top in tops]
            entry, classes, weights = [L * c for L in ends], (c,), None
        else:
            entries = _entries(roof, x, table, tops[-1])
            ends = np.searchsorted(entries[1:], tops).tolist()
            vals = roof.values_along(x.prefix(ends[-1] + roof.depth), ends[-1])
            roof0, entry = roof.value_at(x), [int(entries[L]) / d for L in ends]
            classes, weights = np.unique(vals), lambda lo, hi: vals[lo:hi]
        # an end read exactly can have its float entry a rounding past f0 + T
        entry = [min(e, f0 + T) for e, T in zip(entry, Ts)]
        return CellPlan(ends, f0, roof0, entry, classes, weights)

    # a word-dependent roof gives each point a chart of its own
    chart_key = lambda self, x: _fiber(self, x) if self.roof.depth == 0 else object()


FlowDescriptor = Union[CircleRotationFlow, TorusTranslation, Suspension]


class TimeTMap(_Descriptor):
    """The time-t map of a flow, used as a discrete system."""

    flow: FlowDescriptor
    t: float

    def __post_init__(self):
        if not self.flow.is_flow:
            raise ValueError(f"{type(self.flow).__name__} is not a flow")
        if self.t < 0 and self.flow.carrier.symbolic:
            raise ValueError("a time-t map of a suspension needs t > 0: "
                             "its symbol stream is one-sided")
        if self.t == 0.0 or not math.isfinite(self.t):
            raise ValueError("time-t map needs a nonzero finite t")

    @property
    def isometric(self) -> bool:
        return self.flow.isometric

    @property
    def torus_dim(self) -> int:
        return self.flow.torus_dim

    @property
    def space(self) -> FlowDescriptor:
        return self.flow

    @property
    def carrier(self) -> "SpaceDescriptor":
        return self.flow.carrier

    def random_point(self, rng: np.random.Generator) -> "Point":
        return self.flow.random_point(rng)

    def orbit(self, x: "Point", n: int) -> np.ndarray:
        """Along a straight-line flow, the first coordinate moves t * speed a step."""
        return (x.coords[0] + self.t * self.flow.speed * np.arange(n)) % 1.0

    @property
    def stride(self) -> Optional[int]:
        """The map time as a whole number of the flow's period (a constant
        roof), or None when it is fractional, read exactly as the time chart reads t."""
        chart = _chart(0.0, self.t, self.flow.period)
        return chart.tt // chart.cc if chart.tt % chart.cc == 0 else None


SpaceDescriptor = Union[SystemDescriptor, FlowDescriptor, TimeTMap]


# ---------------------------------------------------------------------------
# the time chart of a suspension: step j of its time-t map reads the base cell
# over which time f0 + t*j lies; cell i is entered at the sum E_i of the roof
# values before it.  Step 1 is where `time_t_map` lands.


class CellPlan(Record):
    """How a symbolic space reads a point's orbit in base cells up to each
    time Ts[c] of a schedule (map steps, or flow times T, at f0 + T above the
    bottom of cell 0, which holds roof0): it ends in cell ends[c], entered at
    entry[c].  A cell holds one of the ascending `classes` (its roof value,
    or the map steps spent in it), and `weights(lo, hi)` gives those of the
    cells lo..hi-1 when there are two or more."""

    ends: list
    f0: float
    roof0: float
    entry: list
    classes: tuple
    weights: object


_INT64_CHART = 1 << 46  # a chunk of chart integers below it fits int64: 2^16 * 2^46 < 2^63


def _decimals(*values):
    """(d, [v*d for each v]): each value read as the decimal it prints as
    (0.7 is 7/10), over their least common denominator d."""
    exact = [Decimal(repr(float(v))).as_integer_ratio() for v in values]
    d = math.lcm(*(q for _, q in exact))
    return d, [p * (d // q) for p, q in exact]


class _Chart(Record):
    """Step j reads base cell (f + j*tt) // cc, in exact integers over the
    denominator d: a shift is (0, 1, 1), and `_chart` gives the time-t map
    of a constant-roof suspension.  Cell i >= 1 holds the steps
    first(i) .. first(i+1)-1, floor(cc / tt) or ceil(cc / tt) of them (its
    `classes`), and cell 0 first(1)."""

    f: int
    tt: int
    cc: int
    d: int = 1

    def cell(self, j: int) -> int:
        return (self.f + j * self.tt) // self.cc

    def first(self, i: int) -> int:
        return max(0, -((self.f - i * self.cc) // self.tt))

    def steps(self, lo: int, hi: int):
        """The steps in each of the cells lo..hi-1 (lo >= 1), from first(i)
        relative to the chunk, in int64 while it fits and in Python integers above."""
        small = max(self.cc, self.tt) < _INT64_CHART
        r = np.arange(hi - lo + 1, dtype=np.int64 if small else object)
        num = r * self.cc + (lo * self.cc - self.f) % self.tt
        return np.diff(-(-num // self.tt)).astype(np.int64)

    classes = property(lambda self: tuple(range(self.cc // self.tt, -(-self.cc // self.tt) + 1)))


@functools.lru_cache(maxsize=64)
def _chart(f0: float, t: float, c: float) -> _Chart:
    """The chart of the time-t map of a suspension under the constant roof c
    from the fiber f0."""
    d, (f, tt, cc) = _decimals(f0, t, c)
    return _Chart(f, tt, cc, d)


class _Grid(Record):
    """The `_Chart` answers of a time-t map under a word-dependent roof, from
    first_steps[i], the first step that reads cell i or a later one (n, the
    length of the read, when none does); equal only to itself."""

    first_steps: np.ndarray
    __eq__, __hash__ = object.__eq__, object.__hash__

    def cell(self, j: int) -> int:
        return int(np.searchsorted(self.first_steps, j, side="right")) - 1

    def first(self, i: int) -> int:
        return int(self.first_steps[i])

    def steps(self, lo: int, hi: int) -> np.ndarray:
        return np.diff(self.first_steps[lo:hi + 1])

    classes = property(lambda self: np.unique(np.diff(self.first_steps)))


def _fiber(flow: Suspension, x: "Point") -> float:
    """The fiber coordinate of a suspension point (0 when unset), checked to
    lie under the roof over its base point."""
    f0 = x.fiber if x.fiber is not None else 0.0
    roof = flow.roof.value_at(x)
    if not 0.0 <= f0 < roof:
        raise ValueError(f"fiber coordinate {f0} is outside [0, {roof}) under the roof")
    return f0


def _map_chart(system, x: "Point", n: int):
    """The cells of the first n map steps of a symbolic orbit: a `_Chart` (a
    shift, or a constant roof, cached per fiber, t and roof) or a `_Grid`
    that first reads cell i at step ceil((E_i - f) / tt), capped at n, from
    the integer entry times E of `_entries` under a word-dependent roof."""
    if system.symbolic:
        return _Chart(0, 1, 1)
    flow, t = system.flow, system.t
    f0, roof = _fiber(flow, x), flow.roof
    if roof.depth == 0:
        return _chart(f0, t, roof.table[0])
    _, (f, tt, *table) = _decimals(f0, t, *roof.table)
    entries = _entries(roof, x, table, f + tt * n)      # cells enough to pass step n
    return _Grid(np.clip(-((f - entries) // tt), 0, n).astype(np.int64))


def _entries(roof: RoofFunction, x: "Point", table, top: int) -> np.ndarray:
    """The integer entry times E_0 = 0, E_1, ... of the cells along x under the
    roof values scaled to `table`, past `top` (int64 while they and `top` fit)."""
    count = top // min(table) + 2
    table = np.array(table, dtype=np.int64 if max(count * max(table), top) < 1 << 63 else object)
    return np.concatenate(([0], np.cumsum(roof.values_along(x.prefix(count + roof.depth),
                                                            count, table))))


# ---------------------------------------------------------------------------
# point generation rules

_GROW = 1024  # materialisation granularity
_PIECE = 1 << 18  # symbols per piece a rule yields to its cache, so a stacked row takes one


def _count_at_or_below(thresholds, u: np.ndarray, dtype) -> np.ndarray:
    """The count of `thresholds` at or below each uniform of `u`: for nondecreasing
    thresholds `searchsorted(side="right")`, at one compare per threshold."""
    out = np.zeros(len(u), dtype=dtype)
    for c in thresholds:
        out += u >= c
    return out


class _Rule(Record):
    """What a point's readers ask its rule: `symbolic` (a symbol stream, not
    coordinates), `pieces(lo, hi, step)` (its symbols at lo..hi-1 from a fresh
    generator, in int16 arrays of at most `step`, so a long read holds O(step)),
    `materialise(n)` (its first n symbols, cached for short reads), the symbols
    it has `used()` (by default those of its pairs) and the consecutive
    `pairs()` its stream holds, `period` (the length of the word it repeats,
    else None) and `counts` (a block rule's symbol counts per prefix, else None)."""

    symbolic = True
    period = counts = None

    def used(self) -> set:
        return {s for pair in self.pairs() for s in pair}

    def materialise(self, n: int) -> np.ndarray:
        """The first n symbols, from a buffer `pieces` grows to n (in _GROW steps, doubling)."""
        arr = self._buf.get("arr", np.empty(0, dtype=np.int16))
        if len(arr) < max(n, 1):
            size = -(-max(n, 1, 2 * len(arr)) // _GROW) * _GROW
            parts = [p for p in (arr, *self.pieces(len(arr), size, _PIECE)) if len(p)]
            arr = self._buf["arr"] = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return arr[:n]


class ExplicitWord(_Rule):
    """A finite word repeated periodically."""

    kind = "explicit-word"
    symbols: Tuple[int, ...]
    period = property(lambda self: len(self.symbols))
    materialise = _Rule.materialise         # its own, which perfbench/tracing.py wraps

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("explicit word must be nonempty")

    def pieces(self, lo: int, hi: int, step: int):      # its word, rotated to each piece
        unit = [_Word(np.array(self.symbols, dtype=np.int16), 0, 1)]
        for a in range(lo, hi, step):
            yield _lay(unit, [0], a, min(step, hi - a))

    def pairs(self) -> list:        # of its cyclic word, built from no stream
        return sorted(set(zip(self.symbols, self.symbols[1:] + self.symbols[:1])))


class SeededIID(_Rule):
    """Independent draws from `probs`, reproducible from `seed`.

    Draw i counts the inner cumulative masses at or below uniform i of the
    seeded generator's raw stream, so it stays below k.  A read from
    position lo advances a fresh generator past lo doubles, which draws
    what one generator drawing from 0 draws there, bit for bit.
    """

    kind = "seeded-iid"
    seed: int
    probs: Tuple[float, ...]
    used = lambda self: {s for s, p in enumerate(self.probs) if p > 0}
    materialise = _Rule.materialise         # its own, which perfbench/tracing.py wraps

    def __post_init__(self):
        if len(self.probs) < 2 or any(p < 0 for p in self.probs):
            raise ValueError("need >= 2 nonnegative probabilities")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")

    def pieces(self, lo: int, hi: int, step: int):
        rng, inner = np.random.default_rng(self.seed), np.cumsum(self.probs)[:-1]
        rng.bit_generator.advance(lo)
        for a in range(lo, hi, step):
            yield _count_at_or_below(inner, rng.random(min(step, hi - a)), np.int16)

    def pairs(self) -> list:
        return [(a, b) for a in sorted(self.used()) for b in sorted(self.used())]


class SeededMarkov(_Rule):
    """The states of a Markov chain (`Markov.seeded` checks it) drawn from
    `seed`: one uniform picks the start state from `stationary`, then uniform
    i moves state s to the count of row s's inner cumulative masses at or
    below it, so a row summing below 1 cannot step past state k - 1.  A read
    from position lo walks the chain from its start, one `_scan` per piece,
    and yields the pieces from lo on."""

    kind = "seeded-markov"
    seed: int
    transitions: Tuple[Tuple[float, ...], ...]
    stationary: Tuple[float, ...]

    def pairs(self) -> list:
        """Its steps of positive probability from the states it visits, of positive mass."""
        return [(a, b) for a, row in enumerate(self.transitions) if self.stationary[a] > 0
                for b, p in enumerate(row) if p > 0]

    def pieces(self, lo: int, hi: int, step: int):
        rng = np.random.default_rng(self.seed)
        state = int(np.searchsorted(np.cumsum(self.stationary)[:-1], rng.random(), side="right"))
        for a in (*range(0, lo, step), *range(lo, hi, step)):
            out, state = self._scan(rng, state, min(step, (hi if a >= lo else lo) - a))
            if a >= lo:
                yield out

    def _scan(self, rng, state: int, m: int) -> tuple:
        """The int16 states of m steps from `state`, each step drawing one
        uniform of `rng`, and the state past them: a blocked scan (Blelloch,
        Prefix sums and their applications, 1990) in blocks of about
        sqrt(m / 64) steps, so the passes' numpy calls balance the list walk.
        Pass 1 walks every block from every state, one gather per step; the
        blocks' entry states chain through its ends; pass 2 walks each block
        from its entry, writing the states of a one-step walk."""
        inner = np.cumsum(np.asarray(self.transitions), axis=1)[:, :-1]
        k, dtype = len(inner), np.int8 if len(inner) < 128 else np.int16
        width = max(1, math.isqrt(m >> 6))
        blocks = -(-m // width)
        # step[i * k + s]: the state after step i taken from state s, 0 past step m - 1
        step, u = np.zeros((blocks * width, k), dtype=dtype), rng.random(m)
        for s in range(k):
            step[:m, s] = _count_at_or_below(inner[s], u, dtype)
        step, base = step.reshape(-1), np.arange(0, step.size, width * k)
        # pass 1: at[b * k + s] ends as the state leaving block b entered at s
        at, wide = np.tile(np.arange(k, dtype=dtype), blocks), base.repeat(k)
        for _ in range(width):
            at = step.take(wide + at)
            wide += k
        ends, entry = at.tolist(), []
        for b in range(0, blocks * k, k):
            entry.append(state)
            state = ends[b + state]
        # pass 2: new[j, b] is the state at step b * width + j
        new, at = np.empty((width, blocks), dtype=dtype), np.array(entry, dtype=dtype)
        for j in range(width):
            new[j] = at
            at = step.take(base + at)
            base += k
        out = new.T.astype(np.int16, order="C").reshape(-1)[:m]
        return out, int(step[(m - 1) * k + int(out[m - 1])])


def _lay(blocks: list, starts: list, lo: int, n: int) -> np.ndarray:
    """The n symbols from position lo of `blocks` laid end to end from `starts`, the
    last one's unit repeating: each block writes where it falls, `_PIECE` at a time."""
    out, pos = np.empty(n, dtype=np.int16), lo
    while pos < lo + n:
        i = min(bisect.bisect_right(starts, pos), len(blocks)) - 1
        end = min(lo + n, pos + _PIECE, starts[i + 1] if i + 1 < len(blocks) else math.inf)
        blocks[i].write(out[pos - lo:end - lo], (pos - starts[i]) % blocks[i].size)
        pos = end
    return out


class _Word(NamedTuple):
    """A block of `reps` copies of a word, an int16 array over symbols 0..k-1."""

    word: np.ndarray
    k: int
    reps: int
    size = property(lambda self: len(self.word))

    def write(self, out: np.ndarray, at: int) -> None:     # its word, from offset `at` on
        head = self.word[at:at + len(out)]
        out[:len(head)], out[len(head):] = head, np.resize(self.word, len(out) - len(head))

    def tally(self, p: int) -> np.ndarray:
        return np.bincount(self.word[:p], minlength=self.k)


class _Steered(NamedTuple):
    """A steered block: `size` positions over k symbols adding `want` copies of `symbol`."""

    k: int
    symbol: int
    size: int
    want: int
    reps: int = 1

    def write(self, out: np.ndarray, at: int) -> None:
        """Its positions at + 1, at + 2, ... into `out`, repeating after `size`."""
        others = np.array([s for s in range(self.k) if s != self.symbol], dtype=np.int16)
        j = np.arange(at, at + len(out), dtype=np.int64) % self.size
        marks = j * self.want // self.size
        out[:] = others[(j - marks) % len(others)]
        out[(j + 1) * self.want // self.size > marks] = self.symbol

    def tally(self, p: int) -> np.ndarray:
        """Symbol counts over positions 1..p: floor(p * want / size) marks, and
        the other positions dealt to the other symbols in turn."""
        marks = p * self.want // self.size
        q, r = divmod(p - marks, self.k - 1)
        out = [q + (i < r) for i in range(self.k - 1)]
        out.insert(self.symbol, marks)
        return np.array(out, dtype=np.int64)


class _Blocks(_Rule):
    """A rule whose stream is the blocks its kind lists (`_blocks()`) laid
    end to end, the last one's unit repeating forever.  A block is `reps`
    copies of a unit of `size` symbols that writes and tallies itself: a
    word (`_Word`) or a steered block (`_Steered`).  Blocks are laid as far
    as a read needs them, and a piece is written from the parts of the laid
    blocks that fall in it; `pairs()` reads the stream with each block cut
    to two units (a third adds no pair), and `counts(n)` tallies positions
    0..n-1 block by block."""

    def _laid(self, n) -> tuple:
        """(blocks, starts, before): the blocks laid through position n (all past
        the last), where each starts and the counts before it, and at the end."""
        if "blocks" not in self._buf:     # a copy's generator, so no cycle holds this rule
            self._buf["blocks"] = (iter(self._replace()._blocks()), [], [0], [])
        rest, blocks, starts, before = self._buf["blocks"]
        while starts[-1] <= n and (b := next(rest, None)):
            if not before:
                before.append(b.tally(0))
            blocks.append(b)
            starts.append(starts[-1] + b.size * b.reps)
            before.append(before[-1] + b.reps * b.tally(b.size))
        return blocks, starts, before

    def pieces(self, lo: int, hi: int, step: int):
        for a in range(lo, hi, step):
            yield _lay(*self._laid(min(a + step, hi) - 1)[:2], a, min(step, hi - a))

    def pairs(self) -> list:
        blocks = [b._replace(reps=min(b.reps, 2)) for b in self._laid(math.inf)[0]]
        starts = np.cumsum([0, *(b.size * b.reps for b in blocks)]).tolist()
        s = _lay(blocks, starts, 0, starts[-1] + 1).astype(np.int64)
        lo, k = int(s.min()), int(s.max() - s.min()) + 1      # symbols lo .. lo + k - 1
        codes = np.unique((s[:-1] - lo) * k + s[1:] - lo)
        return [(int(c) // k + lo, int(c) % k + lo) for c in codes]

    def counts(self, n: int) -> np.ndarray:
        blocks, starts, before = self._laid(n)
        i = min(bisect.bisect_right(starts, n), len(blocks)) - 1
        q, p = divmod(n - starts[i], blocks[i].size)    # q >= reps only past the last block
        return before[i] + q * (before[i + 1] - before[i]) // blocks[i].reps + blocks[i].tally(p)


class BlockSchedule(_Blocks):
    """Concatenation of (pattern, repeats) blocks; the last pattern repeats
    forever once the schedule is exhausted."""

    kind = "block-schedule"
    blocks: Tuple[Tuple[Tuple[int, ...], int], ...]
    materialise = _Rule.materialise         # its own, which perfbench/tracing.py wraps

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("block schedule must be nonempty")
        for pattern, reps in self.blocks:
            if not pattern or reps < 1 or min(pattern) < 0:
                raise ValueError("a block needs a nonempty pattern of symbols >= 0 and reps >= 1")

    def _blocks(self) -> list:
        k = 1 + max(max(pattern) for pattern, _ in self.blocks)
        return [_Word(np.array(pattern, dtype=np.int16), k, r) for pattern, r in self.blocks]


class SteeredBlocks(_Blocks):
    """Blocks over a k-letter alphabet that steer the running count of
    `symbol` to round(targets[i] * ends[i]) at each block end ends[i].

    Within a block of length L that must add `want` copies of the symbol, let
    marks_j = floor(j * want / L).  Position j (1-based) holds the symbol
    exactly when marks_j > marks_{j-1}, so the copies are spread evenly; every
    other position takes others[(j - 1 - marks_{j-1}) % (k - 1)], the next of
    the remaining symbols in increasing order, cycling and restarting at each
    block (`_Steered`).  The recipe is a few numbers, so irregular points
    serialise and replay in this form, and count their symbols from it.
    """

    kind = "steered-blocks"
    k: int
    symbol: int
    ends: Tuple[int, ...]
    targets: Tuple[float, ...]
    used = lambda self: range(self.k)           # without building its stream

    def __post_init__(self):
        if self.k < 2 or not (0 <= self.symbol < self.k):
            raise ValueError("need k >= 2 and 0 <= symbol < k")
        if not self.ends or len(self.ends) != len(self.targets):
            raise ValueError("need one target per block end, and at least one block")
        if any(not (0.0 <= t <= 1.0) for t in self.targets):
            raise ValueError("targets must lie in [0, 1]")
        for b in self._blocks():
            if b.size <= 0:
                raise ValueError("block ends must be strictly increasing and positive")
            if not 0 <= b.want <= b.size:
                raise ValueError("infeasible steering step; widen the block ratio")

    def _blocks(self):
        start = count = 0
        for end, target in zip(self.ends, self.targets):
            want = int(round(target * end)) - count
            yield _Steered(self.k, self.symbol, end - start, want)
            start, count = end, count + want


class Coordinate(_Rule):
    """A point of the circle or torus given by coordinates in [0, 1)."""

    kind = "coordinate"
    coords: Tuple[float, ...]
    symbolic = False

    def __post_init__(self):
        if not self.coords:
            raise ValueError("coordinate point needs at least one coordinate")
        object.__setattr__(self, "coords", tuple(c % 1.0 for c in self.coords))

    def materialise(self, n: int) -> np.ndarray:
        raise TypeError("coordinate points have no symbol stream")


class Point(Record):
    """Immutable point: a rule plus an offset into its stream, an optional
    disjoint-union component tag and an optional suspension fiber."""

    rule: _Rule
    offset: int = 0
    component: Optional[int] = None
    fiber: Optional[float] = None

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("offset must be >= 0")
        if self.fiber is not None and (not math.isfinite(self.fiber) or self.fiber < 0):
            raise ValueError("fiber must be finite and >= 0")

    @property
    def coords(self) -> Tuple[float, ...]:
        if self.rule.symbolic:
            raise TypeError("not a coordinate point")
        return self.rule.coords

    def prefix(self, n: int) -> np.ndarray:
        """Symbols at offsets 0..n-1 relative to this point."""
        return self.rule.materialise(self.offset + n)[self.offset:self.offset + n]

    def shifted(self, steps: int = 1) -> "Point":
        return Point(self.rule, self.offset + steps, self.component, self.fiber)

    def with_fiber(self, fiber: float) -> "Point":
        return Point(self.rule, self.offset, self.component, fiber)


# ---------------------------------------------------------------------------
# dynamics


def time_t_map(flow, t: float, x: Point) -> Point:
    """Flow the point for time t by the flow's `advance`; negative t only
    under the invertible kinds (rotation flow, torus translation)."""
    if not math.isfinite(t):
        raise ValueError("flow time must be finite")
    return flow.advance(t, x)


def random_point(space, rng: np.random.Generator) -> Point:
    """A uniformly seeded point of the space (symbol streams are iid uniform,
    so a vertex shift that forbids a transition has none: ValueError)."""
    return space.random_point(rng)
