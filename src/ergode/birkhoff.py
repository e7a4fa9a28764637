"""Orbit averages along checkpoint schedules, empirical measures, and the
classification of points as generic / not generic / irregular.

Every average is read by one function, `_profiles(system, x, observables,
schedule)`, which returns A[checkpoint, observable] for a whole family from
one pass over the orbit, so a schedule of checkpoints costs the same as its
largest entry.  The public readers (`birkhoff_profile`,
`flow_average_profile`, the classifiers and `limit_point_set`) all call it.
Constants are their value.  Rotation and translation flows integrate
harmonics in closed form; circle and torus maps sum the observable along
the materialised orbit.  Symbolic orbits (shifts, suspension flows and the
time-t maps of suspensions) are cut into base cells (symbol offsets), and
each full cell weighs its word hits by what the orbit spends in it: map
steps, or the mass of the observable's fiber profile under the cell's roof.
Word hits are counted per (word code, weight class) between consecutive
checkpoints, in bounded chunks, so no full-length temporary is held; the
partial first cell of a flow (from its fiber) and the partial last cell are
added on top, which makes suspension flow averages exact.  A shift and the
time-t map of a constant-roof suspension read their cells from an exact
integer chart, so a map's cells cost no table and no float rounding.

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


def _running_totals(ends, total_of, zero):
    """The sum of total_of(lo, hi) over the cells [1, e), for each e of the
    ascending `ends`.  Each call covers at most `_CELL_CHUNK` cells, so no
    per-cell array outlives its chunk; integer totals stay exact."""
    out, total, upto = [], zero, 1
    for e in ends:
        for lo in range(upto, e, _CELL_CHUNK):
            total = total + total_of(lo, min(lo + _CELL_CHUNK, e))
        upto = max(upto, e)
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# the orbit reader


def _profiles(system, x: Point, observables, schedule: Schedule) -> np.ndarray:
    """A[c, i]: the average of observable i along the orbit of x up to
    checkpoint c, over map steps on a map and over flow time on a flow.

    Constants are their value.  Straight-line flows integrate harmonics in
    closed form, circle maps sum along the coordinate orbit, and symbolic
    orbits (shifts, suspension flows and their time-t maps) are read once
    for the whole family by `_cell_profiles`."""
    obs = tuple(observables)
    flow = system.is_flow
    Ts = schedule.checkpoints if flow else schedule.integer_checkpoints()
    out = np.empty((len(Ts), len(obs)))
    rest = []
    for i, phi in enumerate(obs):
        if isinstance(phi, Constant):
            out[:, i] = phi.value
        else:
            rest.append(i)
    if not rest:
        return out
    if flow and system.isometric:
        for i in rest:
            if not isinstance(obs[i], Harmonic):
                raise TypeError(f"{type(obs[i]).__name__} is not a rotation-flow observable")
            out[:, i] = [_harmonic_line_average(obs[i], x.coords[0], system.speed, T) for T in Ts]
    elif flow or _is_symbolic_path(system):
        _cell_profiles(system, x, [(i, obs[i]) for i in rest], Ts, out)
    else:
        coords = _orbit_coords(system, x, Ts[-1])
        for i in rest:
            cs = np.cumsum(evaluate_on_circle(obs[i], coords))
            out[:, i] = [cs[n - 1] / n for n in Ts]
    return out


def _cell_profiles(system, x: Point, reads, Ts, out: np.ndarray) -> None:
    """Fill the columns `reads` (column, observable) of `out` from one pass
    over the base cells of a symbolic orbit.

    The word codes of the full cells after cell 0, at the deepest word
    length D, are counted per (code, weight class) between consecutive
    checkpoints, in chunks; a shorter word reads the codes that start with
    it.  A map has one class, and each cell counts the map steps spent in it
    (the `steps` of its cells).  A suspension flow counts cells; its classes are its
    roof values, and an observable weighs a class by the mass of its fiber
    profile under that roof.  On top come cell 0, from the fiber f0 to its
    roof on a flow, and the partial last cell, from its bottom (or its first
    map step) to the checkpoint, in array ops over (checkpoint, word); a flow
    weighs its cells by mass in `_flow_averages`.

    A depth-1 read in which every full cell weighs the same (a shift, a
    constant-roof flow, a constant-roof time-t map whose t divides the roof)
    of a point whose rule has `counts` builds no symbols: the counts of the
    full cells and the symbols of the edge cells come from the rule's recipe.
    """
    flow = system.is_flow
    suspension = system if flow else getattr(system, "flow", None)
    base = system if suspension is None else suspension.base
    sides = (base.left, base.right) if isinstance(base, DisjointUnion) else (base,)
    k = max(side.alphabet for side in sides)     # a code base above every symbol
    words = []                  # (column, word code, word length, scale, mass)
    for i, phi in reads:
        inner = phi.base if flow and isinstance(phi, FiberProfile) else phi
        if flow and isinstance(inner, Constant):
            word, comp, scale = (), None, inner.value
        elif isinstance(inner, _CYLINDERS):
            word, comp, scale = inner.word, inner.component, 1.0
        else:
            raise TypeError(f"{type(phi).__name__} does not read symbols")
        code = _code(word, k)
        if code is None or (comp is not None and x.component != comp):
            out[:, i] = 0.0     # never hit
            continue
        mass = phi.profile_integral if isinstance(phi, FiberProfile) else _length
        words.append((i, code, len(word), scale, mass))
    if not words:
        return
    depth = max(1, max(w[2] for w in words))
    inv = None
    if flow:
        f0 = _fiber(system, x)
        taus = [f0 + T for T in Ts]         # times from the bottom of cell 0
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
            roof0, entry, classes = c, [L * c for L in ends], [c]
        else:
            vals = _roof_values(roof, x, taus[-1])
            entries = np.concatenate(([0.0], np.cumsum(vals)))
            ends = [int(L) for L in np.searchsorted(entries[1:], taus, side="left")]
            if ends[-1] >= len(vals):
                raise BudgetExhausted("flow horizon exceeds the prepared roof window")
            roof0, entry = vals[0], [entries[L] for L in ends]
            classes, inv = np.unique(vals[:ends[-1]], return_inverse=True)
    else:
        cells = _map_chart(system, x, Ts[-1])
        ends = [cells.cell(n - 1) for n in Ts]
        ns = np.asarray(Ts)
        last_steps = ns - [cells.first(L) for L in ends]   # map steps in the partial last cell
        steps0 = (np.asarray(ends) > 0) * cells.first(1)   # in cell 0 while it is full
    n_cls = len(classes) if flow else 1
    # a flow counts cells; a map counts the steps in them, one number when
    # every cell takes the same.  Cell 0 is counted apart: a flow enters it at
    # f0, a map may spend fewer steps in it.
    weight = 1 if flow else cells.steps(1, 1)
    tally = getattr(x.rule, "counts", None)
    if depth == 1 and n_cls == 1 and np.ndim(weight) == 0 and tally and x.rule.k == k:
        # the rule counts its symbols from its recipe, so nothing is built:
        # the full cells [1, e) hold at(e) - at(1) of each symbol
        def at(i):
            return tally(x.offset + i)

        counted = [(at(max(e, 1)) - at(1)) * weight for e in ends]
        edge = np.array([int(np.argmax(at(i + 1) - at(i))) for i in (0, *ends)])
    else:
        arr = np.asarray(x.prefix(ends[-1] + depth))

        def codes(lo, hi):
            if depth == 1:
                return arr[lo:hi]
            c = arr[lo:hi].astype(np.int64)
            for d in range(1, depth):
                c *= k
                c += arr[lo + d:hi + d]
            return c

        def counts(lo, hi):
            keys = codes(lo, hi) if inv is None else codes(lo, hi) * np.int64(n_cls) + inv[lo:hi]
            return _key_counts(keys, k ** depth * n_cls, 1 if flow else cells.steps(lo, hi))

        counted = _running_totals(ends, counts, np.zeros(k ** depth * n_cls, dtype=np.int64))
        edge = np.array([_code(arr[i:i + depth].tolist(), k) for i in (0, *ends)])
    # a word of length d is the depth-D codes [code*span, (code+1)*span)
    cum = np.zeros((len(Ts), k ** depth + 1, n_cls), dtype=np.result_type(*counted))
    np.cumsum(np.stack(counted).reshape(len(Ts), k ** depth, n_cls), axis=1, out=cum[:, 1:])
    cols, wcodes, spans = (np.array(v) for v in zip(*[(w[0], w[1], k ** (depth - w[2]))
                                                     for w in words]))
    full = cum[:, (wcodes + 1) * spans] - cum[:, wcodes * spans]   # (checkpoint, word, class)
    hit_last = edge[1:, None] // spans == wcodes
    hit0 = edge[0] // spans == wcodes
    if not flow:
        out[:, cols] = (full[..., 0] + hit0 * steps0[:, None]
                        + hit_last * last_steps[:, None]) / ns[:, None]
        return
    out[:, cols] = _flow_averages(words, full, hit0, hit_last, Ts,
                                  f0, roof0, classes, taus, ends, entry)


def _flow_averages(words, full, hit0, hit_last, Ts, f0, roof0, classes, taus, ends, entry):
    """A[checkpoint, word] of a suspension flow, in array ops.  At checkpoint
    T, tau = f0 + T lies in cell L = ends[c], entered at entry[c], and a word
    integrates to hit0 * mass(f0, roof0) + full . mass(0, class) + hit_last *
    mass(0, tau - entry), or to hit0 * mass(f0, tau) while L == 0.  Each mass
    function is read once per roof class and once per checkpoint."""
    reads = {mass: ([mass(0.0, v) for v in classes], mass(f0, roof0),
                    [mass(f0, tau) if L == 0 else mass(0.0, tau - e)
                     for tau, L, e in zip(taus, ends, entry)])
             for mass in {w[4] for w in words}}
    masses, m0, edge = (np.array([reads[w[4]][part] for w in words]) for part in range(3))
    # a (1, classes) @ (classes, 1) product per (checkpoint, word) sums as np.dot does
    cells = np.matmul(full[..., None, :].astype(float), masses[..., None])[..., 0, 0]
    total = np.where((np.asarray(ends) == 0)[:, None], hit0 * edge.T,
                     hit0 * m0 + cells + hit_last * edge.T)
    return np.array([w[3] for w in words]) * total / np.asarray(Ts, dtype=float)[:, None]


def _code(word, k: int):
    """The base-k code of a word, or None when a symbol is outside range(k)."""
    code = 0
    for s in word:
        if not 0 <= s < k:
            return None
        code = code * k + int(s)
    return code


_FEW_KEYS = 4   # up to this many keys, comparisons count a chunk faster than np.bincount


def _key_counts(keys: np.ndarray, size: int, weights=1) -> np.ndarray:
    """How many of `keys` take each value in range(size), times `weights`, or
    with how much total weight when `weights` holds one per key.  A single word
    read over a long orbit has two keys, where np.bincount's loop costs more."""
    if np.ndim(weights):
        return np.bincount(keys, weights=weights, minlength=size)
    if size > _FEW_KEYS:
        return np.bincount(keys, minlength=size) * weights
    part = [np.count_nonzero(keys == v) for v in range(size - 1)]
    part.append(len(keys) - sum(part))    # the last key has the rest
    return np.array(part, dtype=np.int64) * weights


def _length(lo: float, hi: float) -> float:
    """The mass under a roof of a fiber-constant observable."""
    return hi - lo


# ---------------------------------------------------------------------------
# averages


def birkhoff_profile(system, x: Point, phi, schedule: Schedule) -> np.ndarray:
    """Running averages of phi along the orbit at each checkpoint."""
    if system.is_flow:
        raise TypeError(f"{type(system).__name__} is a flow; take flow_average_profile")
    return _profiles(system, x, (phi,), schedule)[:, 0]


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
    return _profiles(flow, x, (phi,), schedule)[:, 0]


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
    A = _profiles(system, x, fam.observables, schedule)
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
    when it was already read, as one read that also serves another verdict."""
    if fam is None:
        fam = TestFamily.default_for(system)
    if schedule is None:
        schedule = Schedule.for_flow() if system.is_flow else Schedule.for_map()
    if len(schedule.checkpoints) < 2:
        raise ValueError("classification needs at least two checkpoints")
    A = _profiles(system, x, fam.observables, schedule) if profile is None else profile
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
    prof = _profiles(system, x, (phi,), schedule)[:, 0] if profile is None else profile
    tail = prof[len(prof) // 2:]
    osc = float(tail.max() - tail.min())
    out_profile = tuple(prof) if keep_profile else None
    last = schedule.checkpoints[-1]
    if osc > 3.0 * tol:
        return Verdict("Irregular", osc, phi, last, out_profile)
    if osc < tol:
        return Verdict("Regular", osc, None, last, out_profile)
    return Verdict("Inconclusive", osc, None, last, out_profile)
