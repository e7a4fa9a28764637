"""Orbit averages along checkpoint schedules, empirical measures, and the
classification of points as generic / not generic / irregular.

Every average is read by one function, `_profiles(system, points,
observables, schedule)`, which returns A[point, checkpoint, observable] for a
whole family from one pass over each orbit, so a schedule of checkpoints
costs the same as its largest entry.  The public readers
(`birkhoff_profile`, `flow_average_profile`, the classifiers and
`limit_point_set`) pass it one point; a suite passes all of its points, and
those that share a chart are read together, one count per chunk.  Constants
are their value.  Rotation and translation flows integrate harmonics in
closed form; circle and torus maps sum the observable along the
materialised orbit.  Symbolic orbits (shifts, suspension flows and the
time-t maps of suspensions) are cut into base cells (symbol offsets), and
each full cell weighs its word hits by what the orbit spends in it: map
steps, or the mass of the observable's fiber profile under the cell's roof.
Word hits are counted per (point, word code, weight class) between
consecutive checkpoints, in bounded chunks, so no full-length temporary is
held; the partial first cell of a flow (from its fiber) and the partial
last cell are added on top, which makes suspension flow averages exact.  A
shift and the time-t map of a constant-roof suspension read their cells
from an exact integer chart, so a map's cells cost no table and no float
rounding.

Classification never trusts a single horizon.  A point is declared generic
for a measure only when every test observable sits within tolerance at the
last two checkpoints; it is declared not generic only when some observable
is far (three tolerances) at both.  Everything in between is inconclusive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .systems import (
    BudgetExhausted, CircleMult, CircleRotation, Coordinate, DisjointUnion,
    Point, Suspension, TimeTMap,
)
from .measures import (
    _CYLINDERS, Atomic, Constant, FiberProfile, Harmonic, TestFamily,
    evaluate_on_circle, integrate,
)

__all__ = [
    "Schedule", "Verdict", "LimitClass", "birkhoff_average_map",
    "birkhoff_profile", "birkhoff_average_flow", "flow_average_profile",
    "empirical_measure", "limit_point_set", "classify_generic",
    "classify_irregular", "family_targets",
]


@dataclass(frozen=True)
class Schedule:
    """Ascending checkpoints at which running averages are reported."""

    checkpoints: Tuple[float, ...]

    def __post_init__(self):
        cps = self.checkpoints
        if not cps or any(c <= 0 for c in cps):
            raise ValueError("checkpoints must be positive")
        if any(a >= b for a, b in zip(cps[:-1], cps[1:])):
            raise ValueError("checkpoints must be strictly increasing")

    @classmethod
    def geometric(cls, start, stop, ratio: float = 2.0) -> "Schedule":
        if ratio <= 1.0:
            raise ValueError("ratio must exceed 1")
        out = [start]
        while out[-1] * ratio < stop:
            out.append(out[-1] * ratio)
        out.append(stop)
        if isinstance(start, int) and isinstance(stop, int):
            out = [int(c) if float(c).is_integer() else c for c in out]
        return cls(tuple(out))

    @classmethod
    def for_map(cls) -> "Schedule":
        return cls.geometric(1_000, 1_000_000, 2.0)

    @classmethod
    def for_flow(cls) -> "Schedule":
        return cls.geometric(100.0, 10_000.0, 2.0)

    def integer_checkpoints(self) -> Tuple[int, ...]:
        return tuple(int(round(c)) for c in self.checkpoints)


@dataclass(frozen=True)
class Verdict:
    label: str                       # Generic / NotGeneric / Regular / Irregular / Inconclusive
    gap: float
    witness: Optional[object] = None
    checkpoint: Optional[float] = None
    profile: Optional[tuple] = None  # per-checkpoint diagnostics when requested


# ---------------------------------------------------------------------------
# orbit materialisation


def _orbit_coords(system, x: Point, n: int) -> np.ndarray:
    if isinstance(system, CircleRotation):
        return (x.coords[0] + system.theta * np.arange(n)) % 1.0
    if isinstance(system, CircleMult):
        # chaotic; this is the usual shadow orbit in double precision
        out = np.empty(n)
        c = x.coords[0]
        for j in range(n):
            out[j] = c
            c = (c * system.n) % 1.0
        return out
    if isinstance(system, TimeTMap) and system.flow.isometric:
        return (x.coords[0] + system.t * system.flow.speed * np.arange(n)) % 1.0
    raise TypeError(f"no coordinate orbit for {type(system).__name__}")


def _is_symbolic_path(system) -> bool:
    return system.symbolic or (isinstance(system, TimeTMap) and isinstance(system.flow, Suspension))


# ---------------------------------------------------------------------------
# base cells
#
# A symbolic orbit is read one base cell (one symbol offset) at a time.  A
# shift spends one map step in each cell.  The flow of a suspension spends the
# roof value over cell i in it; measured from the bottom of cell 0, cell i is
# entered at the sum of the roof values before it.  The time-t map of a
# suspension reads the cell over which time f0 + t*j lies at step j, so it can
# spend several steps in one cell and skip others.  Every average is then the
# hits of a word per cell, weighted by what the orbit spends in the cell,
# summed over the cells between consecutive checkpoints.

_CELL_CHUNK = 1 << 16   # cells per vectorised step; an int64 temporary of a step is 512 KB
_INT64_CHART = 1 << 46  # a chunk of chart integers below it fits int64: 2^16 * 2^46 < 2^63


@dataclass(frozen=True)
class _Chart:
    """Step j reads base cell (f + j*tt) // cc, in exact integers: a shift is
    (0, 1, 1), and `_chart` gives the time-t map of a constant-roof suspension.
    Cell i >= 1 holds the steps first(i) .. first(i+1)-1, and cell 0 first(1)."""

    f: int
    tt: int
    cc: int

    def cell(self, j: int) -> int:
        return (self.f + j * self.tt) // self.cc

    def first(self, i: int) -> int:
        return max(0, -((self.f - i * self.cc) // self.tt))

    def steps(self, lo: int, hi: int):
        """The steps in each of the cells lo..hi-1 (lo >= 1): the one number
        cc // tt when tt divides cc, else from first(i) relative to the chunk,
        in int64 while it fits and in Python integers above."""
        if self.cc % self.tt == 0:
            return self.cc // self.tt
        small = max(self.cc, self.tt) < _INT64_CHART
        r = np.arange(hi - lo + 1, dtype=np.int64 if small else object)
        num = r * self.cc + (lo * self.cc - self.f) % self.tt
        return np.diff(-(-num // self.tt)).astype(np.int64)

    def cells(self, n: int) -> np.ndarray:
        j = np.arange(n, dtype=np.int64 if self.f + n * self.tt < 1 << 63 else object)
        return ((self.f + j * self.tt) // self.cc).astype(np.int64)

    def whole_steps(self, n: int) -> bool:
        """Does every step move a whole number of cells (t/c is a whole number)?"""
        return self.tt % self.cc == 0


@functools.lru_cache(maxsize=64)
def _chart(f0: float, t: float, c: float) -> _Chart:
    """The chart of the time-t map of a suspension under the constant roof c
    from the fiber f0, each read as the decimal it prints as (0.7 is 7/10)."""
    f, tt, cc = (Fraction(repr(float(v))) for v in (f0, t, c))
    d = math.lcm(f.denominator, tt.denominator, cc.denominator)
    return _Chart(int(f * d), int(tt * d), int(cc * d))


@dataclass(frozen=True, eq=False)
class _Grid:
    """The `_Chart` answers of a time-t map under a word-dependent roof, from
    first_steps[i], the first step that reads cell i or a later one."""

    first_steps: np.ndarray

    def cell(self, j: int) -> int:
        return int(np.searchsorted(self.first_steps, j, side="right")) - 1

    def first(self, i: int) -> int:
        return int(self.first_steps[i])

    def steps(self, lo: int, hi: int) -> np.ndarray:
        return np.diff(self.first_steps[lo:hi + 1])

    def cells(self, n: int) -> np.ndarray:
        return np.repeat(np.arange(len(self.first_steps) - 1), np.diff(self.first_steps))[:n]

    def whole_steps(self, n: int) -> bool:
        """Do the first n steps all move alike?"""
        steps = np.diff(self.cells(n))
        return not (steps != steps[:1]).any()


def _fiber(flow: Suspension, x: Point) -> float:
    """The fiber coordinate of a suspension point (0 when unset), checked to
    lie under the roof over its base point."""
    f0 = x.fiber if x.fiber is not None else 0.0
    roof = flow.roof.value_at(x)
    if not 0.0 <= f0 < roof:
        raise ValueError(f"fiber coordinate {f0} is outside [0, {roof}) under the roof")
    return f0


def _roof_values(roof, x: Point, horizon: float) -> np.ndarray:
    """Word-dependent roof values over base cells 0, 1, ..., enough of them
    to pass `horizon` (a time from the bottom of cell 0) by a whole roof."""
    count = int(horizon / roof.roof_min) + 2
    return roof.values_along(np.asarray(x.prefix(count + roof.depth)), count)


def _map_chart(system, x: Point, n: int):
    """The cells of the first n map steps of a symbolic orbit: a `_Chart` (a
    shift, or the time-t map of a suspension under a constant roof, cached
    per fiber, t and roof) or, under a word-dependent roof, a `_Grid` (step j
    reads the last cell entered by time f0 + t*j)."""
    if system.symbolic:
        return _Chart(0, 1, 1)
    flow, t = system.flow, system.t
    if t < 0:
        raise ValueError("suspension flows run forward in time only")
    f0 = _fiber(flow, x)
    if flow.roof.depth == 0:
        return _chart(f0, t, flow.roof.table[0])
    last = f0 + t * (n - 1)
    entries = np.concatenate(([0.0], np.cumsum(_roof_values(flow.roof, x, last))))
    first = np.zeros(int(np.searchsorted(entries, last, side="right")) + 1, dtype=np.int64)
    _fill_first(first, f0, t, entries)
    return _Grid(first)


def _map_cells(system, x: Point, n: int, depth: int):
    """(symbols, cells) for the first n map steps of a symbolic orbit: the
    base symbols up to the cell read at step n-1 and the depth-1 after it,
    and the `_map_chart` of the steps."""
    cells = _map_chart(system, x, n)
    return np.asarray(x.prefix(cells.cell(n - 1) + depth)), cells


def _fill_first(first: np.ndarray, f0: float, t: float, entries: np.ndarray) -> None:
    """first[i] for i >= 1, `_CELL_CHUNK` cells at a time: the first step j with
    f0 + t*j >= entries[i], from the real root moved until that float test agrees."""
    for start in range(1, len(first), _CELL_CHUNK):
        level = entries[start:min(start + _CELL_CHUNK, len(first))]
        j = np.ceil((level - f0) / t)
        while True:
            back = (j > 0) & (f0 + t * (j - 1) >= level)
            ahead = f0 + t * j < level
            if not (back.any() or ahead.any()):
                break
            j += ahead
            j -= back
        first[start:start + len(j)] = j


# ---------------------------------------------------------------------------
# the orbit reader


def _profiles(system, points, observables, schedule: Schedule) -> np.ndarray:
    """A[p, c, i]: the average of observable i along the orbit of the p-th
    point up to checkpoint c, over map steps on a map and over flow time on
    a flow.  Constants are their value.  Straight-line flows and circle maps
    are read point by point, symbolic orbits by `_cell_profiles` a group of
    points at a time; `points` is iterated once, so a generator of points
    never has more than one group alive."""
    obs = tuple(observables)
    flow = system.is_flow
    Ts = schedule.checkpoints if flow else schedule.integer_checkpoints()
    constant = [isinstance(phi, Constant) for phi in obs]
    reads = [phi for phi, c in zip(obs, constant) if not c]
    if reads and (flow and not system.isometric or _is_symbolic_path(system)):
        groups = _cell_profiles(system, points, reads, Ts)
    else:
        groups = (_line_profiles(system, x, reads, Ts) for x in points)
    A = np.concatenate([np.empty((0, len(Ts), len(reads))), *groups])
    out = np.tile([phi.value if c else 0.0 for phi, c in zip(obs, constant)], (len(A), len(Ts), 1))
    out[:, :, np.flatnonzero(np.logical_not(constant))] = A
    return out


def _line_profiles(system, x: Point, phis, Ts) -> np.ndarray:
    """A[0, c, j] of the observables phis along the orbit of x: harmonics in closed
    form under a straight-line flow, sums along the orbit of a circle or torus map."""
    if system.is_flow:
        for phi in phis:
            if not isinstance(phi, Harmonic):
                raise TypeError(f"{type(phi).__name__} is not a rotation-flow observable")
        return np.array([[[_harmonic_line_average(phi, x.coords[0], system.speed, T)
                           for phi in phis] for T in Ts]])
    coords = _orbit_coords(system, x, Ts[-1]) if phis else None
    sums = [np.cumsum(evaluate_on_circle(phi, coords)) for phi in phis]
    return np.array([[[cs[n - 1] / n for cs in sums] for n in Ts]])


def _cell_profiles(system, points, observables, Ts):
    """A[p, c, j] of `points` along a symbolic orbit, yielded group by group.

    A group is a run of points that share a chart (a shift, or one fiber
    under a constant roof), so each checkpoint ends in the same cell for all
    of them.  It stacks at most `_CELL_CHUNK` symbols; a longer read, or a
    point under a word-dependent roof, is a group of one.  In each checkpoint
    segment, one `np.bincount` per step of at most `_CELL_CHUNK` (point,
    cell) pairs counts the word codes of the full cells at the deepest word
    length per (point, code, weight class); a shorter word reads the codes
    that start with it, and a word of the other side of a disjoint union
    reads 0.  A map has one class, each cell weighing the map steps spent in
    it; a flow's classes are its roof values, each weighing the mass of an
    observable's fiber profile under it.  Cell 0 (from the fiber f0 on a
    flow) and the partial last cell are added in array ops over (point,
    checkpoint, word).  A depth-1 read in which every full cell weighs the
    same counts a rule that has `counts` from its recipe, building no symbols.
    """
    flow = system.is_flow
    suspension = system if flow else getattr(system, "flow", None)
    base = system if suspension is None else suspension.base
    sides = (base.left, base.right) if isinstance(base, DisjointUnion) else (base,)
    k = max(side.alphabet for side in sides)     # a code base above every symbol
    words = []                  # (word code or None, word length, scale, mass, component)
    for phi in observables:
        inner = phi.base if flow and isinstance(phi, FiberProfile) else phi
        if flow and isinstance(inner, Constant):
            word, comp, scale = (), None, inner.value
        elif isinstance(inner, _CYLINDERS):
            word, comp, scale = inner.word, inner.component, 1.0
        else:
            raise TypeError(f"{type(phi).__name__} does not read symbols")
        mass = phi.profile_integral if isinstance(phi, FiberProfile) else _length
        code = functools.reduce(lambda c, s: c * k + int(s), word, 0)
        words.append((code if all(0 <= s < k for s in word) else None,   # None: never hit
                      len(word), scale, mass, comp))
    depth = max(1, *(w[1] for w in words))
    group, rows, key = [], [], None
    for x in points:
        shared = 0 if suspension is None else (     # the fiber, under a constant roof
            _fiber(suspension, x) if suspension.roof.depth == 0 else object())
        if group and (shared != key or (len(group) + 1) * need > _CELL_CHUNK):
            yield _group_profiles(system, group, rows, words, depth, k, Ts, ends, chart)
            group, rows = [], []
        if not group:
            ends, chart = _cell_plan(system, x, Ts)
            key, need = shared, ends[-1] + depth
            recipe = depth == 1 and (len(chart[4]) == 1 if flow
                                     else np.ndim(chart.steps(1, 1)) == 0)
        tally = getattr(x.rule, "counts", None) if recipe and getattr(x.rule, "k", 0) == k else None
        group.append((x.component, tally, x.offset))
        if tally is None:
            rows.append(x.prefix(need))
    if group:
        yield _group_profiles(system, group, rows, words, depth, k, Ts, ends, chart)


def _cell_plan(system, x: Point, Ts):
    """(ends, chart) of the group of x: ends[c] is the cell that checkpoint c
    ends in; the chart is a map's `_map_chart` or a flow's (f0, taus = f0 + T,
    roof0, entry to ends[c], roof classes, each cell's class or None)."""
    if not system.is_flow:
        cells = _map_chart(system, x, Ts[-1])
        return [cells.cell(n - 1) for n in Ts], cells
    f0 = _fiber(system, x)
    taus = [f0 + T for T in Ts]
    roof = system.roof
    if roof.depth == 0:
        c = roof.table[0]
        ends = []
        for tau in taus:                # the cell whose top reaches tau
            L = max(math.ceil(tau / c) - 1, 0)
            while (L + 1) * c < tau:
                L += 1
            while L > 0 and L * c >= tau:
                L -= 1
            ends.append(L)
        return ends, (f0, taus, c, [L * c for L in ends], [c], None)
    vals = _roof_values(roof, x, taus[-1])
    entries = np.concatenate(([0.0], np.cumsum(vals)))
    ends = [int(L) for L in np.searchsorted(entries[1:], taus, side="left")]
    if ends[-1] >= len(vals):
        raise BudgetExhausted("flow horizon exceeds the prepared roof window")
    classes, inv = np.unique(vals[:ends[-1]], return_inverse=True)
    return ends, (f0, taus, vals[0], [entries[L] for L in ends], classes, inv)


def _group_profiles(system, members, rows, words, depth: int, k: int, Ts, ends, chart):
    """A[p, c, j] of one group of `_cell_profiles`: `members` holds each
    point's (component, tally, offset), and `rows` the symbols of the points
    without a tally, which this stacks and clears."""
    flow = system.is_flow
    inv, n_cls = (chart[5], len(chart[4])) if flow else (None, 1)
    # a flow counts cells; a map counts the steps in them, one number when every
    # cell takes the same.  Cell 0 is apart: a flow enters it at f0, a map may
    # spend fewer steps in it.
    weight = 1 if flow else chart.steps(1, 1)
    P, C, size = len(members), len(Ts), k ** depth * n_cls
    counted = np.empty((P, C, size), dtype=float if np.ndim(weight) else np.int64)
    edge = np.empty((P, C + 1), dtype=np.int64)     # the word codes at cells 0 and ends
    for p, (_, tally, offset) in enumerate(members):
        if tally is not None:   # the full cells [1, e) hold tally(e) - tally(1)
            first = tally(offset + 1)
            counted[p] = [(tally(offset + max(e, 1)) - first) * weight for e in ends]
            edge[p] = [int(np.argmax(tally(offset + i + 1) - tally(offset + i)))
                       for i in (0, *ends)]
    if rows:
        arr, S = np.stack(rows), len(rows)
        rows.clear()
        total = np.zeros((C, S * size), dtype=counted.dtype)
        bounds = [max(e, 1) for e in (1, *ends)]    # segment c: the cells [bounds[c], bounds[c+1])
        for c in range(C):
            for lo in range(bounds[c], bounds[c + 1], max(1, _CELL_CHUNK // S)):
                hi = min(lo + max(1, _CELL_CHUNK // S), bounds[c + 1])
                keys = _word_codes(arr, lo, hi, depth, k)
                if inv is not None:
                    keys *= n_cls
                    keys += inv[lo:hi]
                keys += np.arange(0, S * size, size)[:, None]    # (point, code, class)
                steps = np.tile(chart.steps(lo, hi), S) if np.ndim(weight) else None
                total[c] += np.bincount(keys.ravel(), steps, S * size)
                del keys            # before the next step builds its own
        stacked = [p for p, m in enumerate(members) if m[1] is None]
        counted[stacked] = np.cumsum(total.reshape(C, S, size), axis=0).transpose(1, 0, 2) * (
            1 if np.ndim(weight) else weight)       # a weight the same for every cell
        edge[stacked] = _word_codes(arr[:, np.add.outer((0, *ends), np.arange(depth))],
                                    0, 1, depth, k)[..., 0]
    # a word of length d is the depth-D codes [code*span, (code+1)*span)
    cum = np.zeros((P, C, k ** depth + 1, n_cls), dtype=counted.dtype)
    np.cumsum(counted.reshape(P, C, k ** depth, n_cls), axis=2, out=cum[:, :, 1:])
    wcodes = np.array([w[0] or 0 for w in words])
    spans = np.array([k ** (depth - w[1]) for w in words])
    full = cum[:, :, (wcodes + 1) * spans] - cum[:, :, wcodes * spans]  # (p, c, word, class)
    hit_last = edge[:, 1:, None] // spans == wcodes
    hit0 = (edge[:, :1] // spans == wcodes)[:, None]      # (point, 1, word)
    if flow:
        A = _flow_averages(words, full, hit0, hit_last, Ts, ends, *chart[:5])
    else:
        ns = np.asarray(Ts)
        last_steps = ns - [chart.first(L) for L in ends]   # map steps in the partial last cell
        steps0 = (np.asarray(ends) > 0) * chart.first(1)   # in cell 0 while it is full
        A = (full[..., 0] + hit0 * steps0[:, None]
             + hit_last * last_steps[:, None]) / ns[:, None]
    hits = [[w[0] is not None and w[4] in (None, m[0]) for w in words] for m in members]
    return np.where(np.array(hits)[:, None, :], A, 0.0)


def _word_codes(arr: np.ndarray, lo: int, hi: int, depth: int, k: int) -> np.ndarray:
    """The base-k codes of the words arr[..., i:i+depth] for i in lo..hi-1, in int64."""
    c = arr[..., lo:hi].astype(np.int64)
    for d in range(1, depth):
        c *= k
        c += arr[..., lo + d:hi + d]
    return c


def _flow_averages(words, full, hit0, hit_last, Ts, ends, f0, taus, roof0, entry, classes):
    """A[point, checkpoint, word] of a suspension flow, in array ops.  At
    checkpoint T, tau = f0 + T lies in cell L = ends[c], entered at entry[c],
    and a word integrates to hit0 * mass(f0, roof0) + full . mass(0, class) +
    hit_last * mass(0, tau - entry), or to hit0 * mass(f0, tau) while L == 0.
    Each mass function is read once per roof class and once per checkpoint."""
    reads = {mass: ([mass(0.0, v) for v in classes], mass(f0, roof0),
                    [mass(f0, tau) if L == 0 else mass(0.0, tau - e)
                     for tau, L, e in zip(taus, ends, entry)])
             for mass in {w[3] for w in words}}
    masses, m0, edge = (np.array([reads[w[3]][part] for w in words]) for part in range(3))
    # a (1, classes) @ (classes, 1) product per (point, checkpoint, word) sums as np.dot does
    cells = np.matmul(full[..., None, :].astype(float), masses[..., None])[..., 0, 0]
    total = np.where((np.asarray(ends) == 0)[:, None], hit0 * edge.T,
                     hit0 * m0 + cells + hit_last * edge.T)
    return np.array([w[2] for w in words]) * total / np.asarray(Ts, dtype=float)[:, None]


def _length(lo: float, hi: float) -> float:
    """The mass under a roof of a fiber-constant observable."""
    return hi - lo


# ---------------------------------------------------------------------------
# averages


def birkhoff_profile(system, x: Point, phi, schedule: Schedule) -> np.ndarray:
    """Running averages of phi along the orbit at each checkpoint."""
    if system.is_flow:
        raise TypeError(f"{type(system).__name__} is a flow; take flow_average_profile")
    return _profiles(system, (x,), (phi,), schedule)[0, :, 0]


def birkhoff_average_map(system, x: Point, phi, n: int) -> float:
    """Average of phi over the first n points of the orbit."""
    if n < 1:
        raise ValueError("need n >= 1")
    return float(birkhoff_profile(system, x, phi, Schedule((n,)))[0])


def flow_average_profile(flow, x: Point, phi, schedule: Schedule) -> np.ndarray:
    """(1/T) * integral of phi along the flow orbit of x over [0, T], at each
    checkpoint T.  Exact for harmonics under rotation flows and for
    symbolic/fiber observables under suspensions."""
    if not flow.is_flow:
        raise TypeError(f"no flow average for {type(flow).__name__}")
    return _profiles(flow, (x,), (phi,), schedule)[0, :, 0]


def birkhoff_average_flow(flow, x: Point, phi, T: float) -> float:
    """(1/T) * integral of phi along the flow orbit of x over [0, T]."""
    if T <= 0:
        raise ValueError("need T > 0")
    return float(flow_average_profile(flow, x, phi, Schedule((T,)))[0])


def _harmonic_line_average(phi: Harmonic, x0: float, speed: float, T: float) -> float:
    q = phi.frequency
    w = 2.0 * math.pi * q
    a = w * (x0 + phi.offset)
    if abs(speed) < 1e-15:
        return math.cos(a) if phi.phase == "cos" else math.sin(a)
    b = w * speed
    if phi.phase == "cos":
        return (math.sin(a + b * T) - math.sin(a)) / (b * T)
    return (math.cos(a) - math.cos(a + b * T)) / (b * T)


# ---------------------------------------------------------------------------
# empirical measures and limit sets

_EMPIRICAL_KEY_DEPTH = 32
_EMPIRICAL_BUDGET = 1 << 17


def empirical_measure(system, x: Point, n: int) -> Atomic:
    """The orbit-average measure (1/n) * sum of point masses along the orbit,
    with visits merged when they agree to the resolution of the key (32
    symbols, or 1e-12 in coordinates)."""
    if n < 1:
        raise ValueError("need n >= 1")
    symbolic = _is_symbolic_path(system)
    if symbolic:
        arr, cells = _map_cells(system, x, n, _EMPIRICAL_KEY_DEPTH)
        if not cells.whole_steps(n):
            # fractional strides revisit base coordinates at changing fibers;
            # the symbol-window key cannot tell those orbit points apart
            raise TypeError("empirical measures need whole-base-step orbits")
        idx = cells.cells(n)
        keys = np.lib.stride_tricks.sliding_window_view(arr, _EMPIRICAL_KEY_DEPTH)[idx]
    else:
        coords = _orbit_coords(system, x, n)
        keys = np.round(coords * 1e12).astype(np.int64)
    uniq, first, counts = np.unique(keys, axis=0, return_index=True, return_counts=True)
    if len(uniq) > _EMPIRICAL_BUDGET:
        raise BudgetExhausted(
            f"empirical measure needs {len(uniq)} atoms (budget {_EMPIRICAL_BUDGET})"
        )
    pts = tuple(Point(x.rule, x.offset + int(idx[j]), x.component, x.fiber) if symbolic
                else Point(Coordinate((coords[int(j)],))) for j in first)
    return Atomic(pts, tuple(counts / n))


@dataclass(frozen=True)
class LimitClass:
    """A cluster of checkpoint averages: one candidate limit measure, seen
    through the integrals of the test family."""

    integrals: Tuple[float, ...]
    checkpoints: Tuple[float, ...]

    def distance_to(self, other: Sequence[float], weights: np.ndarray) -> float:
        gaps = np.abs(np.asarray(self.integrals) - np.asarray(other))
        return float(np.dot(weights, gaps / (1.0 + gaps)))


def limit_point_set(system, x: Point, fam: TestFamily, schedule: Schedule = None,
                    tol: float = 0.01) -> Tuple[LimitClass, ...]:
    """Cluster the tail checkpoint averages by single linkage at `tol` (in
    the weighted family metric).  One cluster whose checkpoints extend to the
    horizon is the signature of a convergent (generic-type) orbit."""
    if schedule is None:
        schedule = Schedule.for_map()
    A = _profiles(system, (x,), fam.observables, schedule)[0]
    return _limit_classes(A, schedule.checkpoints, fam.weights(), tol)


def _limit_classes(A, checkpoints, w: np.ndarray, tol: float) -> Tuple[LimitClass, ...]:
    """The clusters of `limit_point_set`, from a profile already read (one
    row of family averages per checkpoint)."""
    tail = len(checkpoints) // 2
    A = np.asarray(A)[tail:]
    cps = checkpoints[tail:]
    m = len(cps)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            gaps = np.abs(A[i] - A[j])
            if float(np.dot(w, gaps / (1.0 + gaps))) <= tol:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    out = []
    for members in groups.values():
        integrals = tuple(np.mean([A[i] for i in members], axis=0))
        out.append(LimitClass(integrals, tuple(cps[i] for i in members)))
    out.sort(key=lambda c: c.checkpoints[-1], reverse=True)
    return tuple(out)


# ---------------------------------------------------------------------------
# classification


def classify_generic(system, x: Point, mu, fam: Optional[TestFamily] = None,
                     schedule: Optional[Schedule] = None, tol: float = 0.02,
                     keep_profile: bool = False, targets=None, profile=None) -> Verdict:
    """Is x generic for mu?  Answers only when the last two checkpoints agree:
    Generic when every observable is within tol at both, NotGeneric when some
    observable is at least 3*tol away at both (the first such observable in
    family order is the witness), Inconclusive otherwise.

    `targets` are the integrals of the family's observables against mu; a
    loop that classifies many points against one (mu, fam) passes
    `family_targets(mu, fam)` once instead of integrating on every call.
    `profile` is the family's A[checkpoint, observable] along the schedule
    when it was already read (x is then not read), as from a suite's read."""
    if fam is None:
        fam = TestFamily.default_for(system)
    if schedule is None:
        schedule = Schedule.for_flow() if system.is_flow else Schedule.for_map()
    if len(schedule.checkpoints) < 2:
        raise ValueError("classification needs at least two checkpoints")
    A = _profiles(system, (x,), fam.observables, schedule)[0] if profile is None else profile
    if targets is None:
        targets = family_targets(mu, fam)
    g_last = np.abs(A[-1] - targets)
    g_prev = np.abs(A[-2] - targets)
    gap = float(g_last.max())
    kept = tuple(map(tuple, A)) if keep_profile else None
    if (g_last < tol).all() and (g_prev < tol).all():
        return Verdict("Generic", gap, None, schedule.checkpoints[-1], kept)
    far = (g_last >= 3.0 * tol) & (g_prev >= 3.0 * tol)
    if far.any():
        i = int(np.argmax(far))
        return Verdict(
            "NotGeneric", float(g_last[i]), fam.observables[i],
            schedule.checkpoints[-1], kept,
        )
    return Verdict("Inconclusive", gap, None, schedule.checkpoints[-1], kept)


def family_targets(mu, fam: TestFamily) -> np.ndarray:
    """The integral of each observable of the family against mu."""
    return np.array([integrate(mu, phi) for phi in fam.observables])


def classify_irregular(system, x: Point, phi, schedule: Optional[Schedule] = None,
                       tol: float = 0.02, keep_profile: bool = False, profile=None) -> Verdict:
    """Does the average of phi along the orbit converge?  The oscillation of
    the running average over the tail half of the schedule decides: Regular
    below tol, Irregular above 3*tol, Inconclusive between.  `profile` is the
    running average at each checkpoint when it was already read."""
    if schedule is None:
        schedule = Schedule.for_flow() if system.is_flow else Schedule.for_map()
    prof = _profiles(system, (x,), (phi,), schedule)[0, :, 0] if profile is None else profile
    tail = prof[len(prof) // 2:]
    osc = float(tail.max() - tail.min())
    out_profile = tuple(prof) if keep_profile else None
    last = schedule.checkpoints[-1]
    if osc > 3.0 * tol:
        return Verdict("Irregular", osc, phi, last, out_profile)
    if osc < tol:
        return Verdict("Regular", osc, None, last, out_profile)
    return Verdict("Inconclusive", osc, None, last, out_profile)
