"""Orbit averages along checkpoint schedules, empirical measures, and the
classification of points as generic / not generic / irregular.

Every average profile is read from one vectorised pass per orbit, so a
whole geometric schedule of checkpoints costs the same as its largest entry.
Circle and torus maps sum the observable along the materialised orbit.
Symbolic orbits are read one base cell (symbol offset) at a time: shifts,
the flow of a suspension and the time-t map of a suspension all weigh the
word hits of each cell by what the orbit spends in it (map steps, or flow
time under the roof).  The checkpoints cut the cells into intervals, and
integer counts over each interval, taken in bounded chunks, answer every
checkpoint without a full-length temporary.  A time-t map of a
constant-roof suspension keeps the cell grid of the fiber it read last, so
every point read through one map at one fiber shares it.  Flow averages are
exact: closed-form antiderivatives on rotation flows, and full cells plus
the two partial end cells on suspensions.

Classification never trusts a single horizon.  A point is declared generic
for a measure only when every test observable sits within tolerance at the
last two checkpoints; it is declared not generic only when some observable
is far (three tolerances) at both.  Everything in between is inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .systems import (
    BudgetExhausted, CircleMult, CircleRotation, Coordinate, DisjointUnion,
    Point, Suspension, TimeTMap,
)
from .measures import (
    Atomic, Constant, CylinderIndicator, FiberProfile, Harmonic,
    SymbolFrequency, TestFamily, evaluate, evaluate_on_circle, integrate,
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

    @property
    def horizon(self):
        return self.checkpoints[-1]


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
    if isinstance(system, TimeTMap) and system.flow.is_flow and system.flow.isometric:
        return (x.coords[0] + system.t * system.flow.speed * np.arange(n)) % 1.0
    raise TypeError(f"no coordinate orbit for {type(system).__name__}")


def _is_symbolic_path(system, x: Point) -> bool:
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

_CELL_CHUNK = 1 << 14   # cells per vectorised step in `_map_cells`; its temporaries stay in cache


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


def _map_cells(system, x: Point, n: int, depth: int):
    """(symbols, first) for the first n map steps of a symbolic orbit.

    L is the cell read at step n-1; `symbols` holds the base symbols of the
    cells 0..L and the depth-1 after them.  first[i], for i = 0..L+1, is the
    first map step that reads cell i or a later one, so step j reads cell i
    exactly when first[i] <= j < first[i+1].  Callers only read `first`.

    On a time-t map of a suspension, step j reads the cell
    floor((f0 + t*j)/c + 1e-12) under a constant roof c, and the last cell
    entered at or before time f0 + t*j otherwise.  first[i] starts from the
    real root of f0 + t*j = entry_i and is moved until that very float test
    agrees, so the counts per cell are the exact integers that a step-by-step
    reading gives.  Under a constant roof first[i] depends only on c, t and
    f0, not on the point or on n, so the map keeps the grid of the fiber it
    last read, extends it when a longer one is asked for, and every read
    takes a slice of it.
    """
    if system.symbolic:
        return np.asarray(x.prefix(n + depth - 1)), np.arange(n + 1)
    flow, t = system.flow, system.t
    if t < 0:
        raise ValueError("suspension flows run forward in time only")
    f0 = _fiber(flow, x)
    roof = flow.roof
    last = f0 + t * (n - 1)
    if roof.depth == 0:
        c = roof.table[0]
        m = int(last / c + 1e-12) + 2
        symbols = np.asarray(x.prefix(m + depth - 2))   # before the cell arrays
        kept = system._grid[0]                        # (fiber, grid) of the last read
        if kept is not None and kept[0] == f0:
            grid = kept[1]
        else:
            grid = np.zeros(1, dtype=np.int64)        # first[0] = 0
        if len(grid) < m:
            longer = np.zeros(m, dtype=np.int64)
            longer[:len(grid)] = grid
            _fill_first(
                longer, len(grid), f0, t,
                levels=lambda lo, hi: np.arange(lo, hi, dtype=float),
                reached=lambda tau, level: tau / c + 1e-12 >= level,
                entry=lambda level: level * c,
            )
            longer.flags.writeable = False
            grid = longer
            system._grid[0] = (f0, grid)
        return symbols, grid[:m]
    entries = np.concatenate(([0.0], np.cumsum(_roof_values(roof, x, last))))
    m = int(np.searchsorted(entries, last, side="right")) + 1
    symbols = np.asarray(x.prefix(m + depth - 2))
    first = np.zeros(m, dtype=np.int64)
    _fill_first(first, 1, f0, t, levels=lambda lo, hi: entries[lo:hi],
                reached=lambda tau, level: tau >= level, entry=lambda level: level)
    return symbols, first


def _fill_first(first: np.ndarray, lo: int, f0: float, t: float,
                levels, reached, entry) -> None:
    """first[i] for i >= lo, `_CELL_CHUNK` cells at a time: cell i has level
    levels(i, i+1) and is entered at time entry(level), and time tau reads
    it or a later cell when reached(tau, level)."""
    for start in range(lo, len(first), _CELL_CHUNK):
        level = levels(start, min(start + _CELL_CHUNK, len(first)))
        j = np.ceil((entry(level) - f0) / t)
        while True:
            back = (j > 0) & reached(f0 + t * (j - 1), level)
            ahead = ~reached(f0 + t * j, level)
            if not (back.any() or ahead.any()):
                break
            j += ahead
            j -= back
        first[start:start + len(j)] = j


def _cell_of_step(first: np.ndarray, n: int) -> int:
    """The cell read at map step n-1."""
    return int(np.searchsorted(first, n - 1, side="right")) - 1


def _hits(arr: np.ndarray, word, cells: int) -> np.ndarray:
    """Boolean hits of `word` read at base cells 0..cells-1 of the symbols
    `arr` (all true for the empty word)."""
    if not word:
        return np.ones(cells, dtype=bool)
    hit = arr[:cells] == word[0]
    for i, s in enumerate(word[1:], start=1):
        hit &= arr[i:cells + i] == s
    return hit


def _running_totals(ends, total_of, start: int = 0, zero=0):
    """The sum of total_of(lo, hi) over the cells [start, e), for each e of
    the ascending `ends`.  Each call covers at most `_CELL_CHUNK` cells, so
    no per-cell array outlives its chunk; integer totals stay exact."""
    out, total, upto = [], zero, start
    for e in ends:
        for lo in range(upto, e, _CELL_CHUNK):
            total = total + total_of(lo, min(lo + _CELL_CHUNK, e))
        upto = max(upto, e)
        out.append(total)
    return out


def _word_of(phi):
    if isinstance(phi, CylinderIndicator):
        return phi.word, phi.component
    if isinstance(phi, SymbolFrequency):
        return (phi.symbol,), phi.component
    return None, None


# ---------------------------------------------------------------------------
# map averages


def birkhoff_profile(system, x: Point, phi, schedule: Schedule) -> np.ndarray:
    """Running averages of phi along the orbit at each checkpoint."""
    cps = schedule.integer_checkpoints()
    n_max = cps[-1]
    if isinstance(phi, Constant):
        return np.full(len(cps), phi.value)
    if _is_symbolic_path(system, x):
        word, comp = _word_of(phi)
        if word is None:
            raise TypeError(f"{type(phi).__name__} does not read symbols")
        if comp is not None and x.component != comp:
            return np.zeros(len(cps))
        arr, first = _map_cells(system, x, n_max, len(word))
        cells = [_cell_of_step(first, n) for n in cps]

        def steps_on_hits(lo, hi):
            return int(np.dot(_hits(arr[lo:], word, hi - lo), np.diff(first[lo:hi + 1])))

        done = _running_totals(cells, steps_on_hits)   # over the cells before i
        return np.array([
            (d + int(_hits(arr[i:], word, 1)[0]) * (n - int(first[i]))) / n
            for d, i, n in zip(done, cells, cps)
        ])
    coords = _orbit_coords(system, x, n_max)
    values = evaluate_on_circle(phi, coords)
    cs = np.cumsum(values)
    return np.array([cs[n - 1] / n for n in cps])


def birkhoff_average_map(system, x: Point, phi, n: int) -> float:
    """Average of phi over the first n points of the orbit."""
    if n < 1:
        raise ValueError("need n >= 1")
    return float(birkhoff_profile(system, x, phi, Schedule((n,)))[0])


def _family_profiles(system, x: Point, fam: TestFamily, schedule: Schedule) -> np.ndarray:
    """Matrix A[c, i]: average of observable i at checkpoint c.

    Symbolic families share one pass: sliding word codes at the maximal depth
    are histogrammed once over the cells between consecutive checkpoints,
    weighted by the map steps spent in each cell, and marginalised down to
    each word length, so a hundred cylinder observables cost little more than
    one.
    """
    cps = schedule.integer_checkpoints()
    obs = fam.observables
    if _is_symbolic_path(system, x):
        return _family_profiles_symbolic(system, x, obs, cps)
    n_max = cps[-1]
    coords = _orbit_coords(system, x, n_max)
    out = np.empty((len(cps), len(obs)))
    for i, phi in enumerate(obs):
        cs = np.cumsum(evaluate_on_circle(phi, coords))
        out[:, i] = [cs[n - 1] / n for n in cps]
    return out


def _family_profiles_symbolic(system, x, obs, cps) -> np.ndarray:
    n_max = cps[-1]
    words = []
    for phi in obs:
        word, comp = _word_of(phi)
        if word is None:
            raise TypeError(f"{type(phi).__name__} does not read symbols")
        words.append((word, comp))
    depth = max(len(w) for w, _ in words)
    k = _alphabet_for_profiles(system, x)
    arr, first = _map_cells(system, x, n_max, depth)

    def codes(lo, hi):
        out = np.zeros(hi - lo, dtype=np.int64)
        for d in range(depth):
            out = out * k + arr[lo + d:hi + d]
        return out

    def weighted_words(lo, hi):
        return np.bincount(codes(lo, hi), weights=np.diff(first[lo:hi + 1]),
                           minlength=k ** depth)

    cells = [_cell_of_step(first, n) for n in cps]
    counted = _running_totals(cells, weighted_words, zero=np.zeros(k ** depth))
    out = np.empty((len(cps), len(obs)))
    for ci, n in enumerate(cps):
        i = cells[ci]
        counts = counted[ci].copy()   # word counts over the cells before i
        counts[codes(i, i + 1)[0]] += n - first[i]
        per_depth = {depth: counts}
        for d in range(depth - 1, 0, -1):
            per_depth[d] = per_depth[d + 1].reshape(-1, k).sum(axis=1)
        for oi, (word, comp) in enumerate(words):
            if comp is not None and x.component != comp:
                out[ci, oi] = 0.0
                continue
            code = 0
            ok = True
            for s in word:
                if s < 0 or s >= k:
                    ok = False
                    break
                code = code * k + s
            out[ci, oi] = per_depth[len(word)][code] / n if ok else 0.0
    return out


def _alphabet_for_profiles(system, x: Point) -> int:
    if isinstance(system, TimeTMap):
        system = system.flow.base
    if isinstance(system, DisjointUnion):
        system = system.side(x.component)
    return system.alphabet


# ---------------------------------------------------------------------------
# flow averages


def flow_average_profile(flow, x: Point, phi, schedule: Schedule) -> np.ndarray:
    """(1/T) * integral of phi along the flow orbit of x over [0, T], at each
    checkpoint T.  Exact for harmonics under rotation flows and for
    symbolic/fiber observables under suspensions."""
    Ts = schedule.checkpoints
    if isinstance(phi, Constant):
        return np.full(len(Ts), phi.value)
    if flow.is_flow and flow.isometric:
        if isinstance(phi, Harmonic):
            return np.array([_harmonic_line_average(phi, x.coords[0], flow.speed, T) for T in Ts])
        raise TypeError(f"{type(phi).__name__} is not a rotation-flow observable")
    if isinstance(flow, Suspension):
        return _suspension_profile(flow, x, phi, Ts)
    raise TypeError(f"no flow average for {type(flow).__name__}")


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


def _suspension_profile(flow: Suspension, x: Point, phi, Ts) -> np.ndarray:
    """Flow averages under a suspension, from one pass over the base cells.

    The integral up to time T is cell 0 from the fiber f0 to its roof, the
    full cells 1..L-1 (base value times the integral of the fiber profile up
    to the roof, which depends only on the roof value), and cell L from the
    bottom to where time T leaves the flow.
    """
    base_phi = phi.base if isinstance(phi, FiberProfile) else phi
    if isinstance(base_phi, Constant):
        word, comp, scale = (), None, base_phi.value
    else:
        (word, comp), scale = _word_of(base_phi), 1.0
    if word is None:
        raise TypeError(f"{type(phi).__name__} is not a suspension observable")
    if comp is not None and x.component != comp:
        return np.zeros(len(Ts))
    f0 = _fiber(flow, x)
    if isinstance(phi, FiberProfile):
        mass = phi.profile_integral
    else:
        def mass(lo, hi):
            return hi - lo
    roof = flow.roof
    taus = [f0 + T for T in Ts]        # times from the bottom of cell 0
    if roof.depth == 0:
        c = roof.table[0]
        last = []
        for tau in taus:               # the cell whose top reaches tau
            L = max(math.ceil(tau / c) - 1, 0)
            while (L + 1) * c < tau:
                L += 1
            while L > 0 and L * c >= tau:
                L -= 1
            last.append(L)
        roof0, entry = c, [L * c for L in last]
    else:
        vals = _roof_values(roof, x, taus[-1])
        entries = np.concatenate(([0.0], np.cumsum(vals)))
        last = [int(L) for L in np.searchsorted(entries[1:], taus, side="left")]
        if last[-1] >= len(vals):
            raise BudgetExhausted("flow horizon exceeds the prepared roof window")
        roof0, entry = vals[0], [entries[L] for L in last]
    arr = np.asarray(x.prefix(last[-1] + len(word)))

    def hits(lo, hi=None):
        return _hits(arr[lo:], word, 1 if hi is None else hi - lo)

    # the hit cells among the full cells 1..L-1, counted exactly
    if roof.depth == 0:
        unit = mass(0.0, roof0)
        full = _running_totals(last, lambda lo, hi: np.count_nonzero(hits(lo, hi)), start=1)
    else:
        # a full cell weighs the mass under its roof: count per roof value
        uniq, inv = np.unique(vals[:last[-1]], return_inverse=True)
        masses = np.array([mass(0.0, v) for v in uniq])
        per_value = _running_totals(
            last, lambda lo, hi: np.bincount(inv[lo:hi][hits(lo, hi)], minlength=len(uniq)),
            start=1, zero=np.zeros(len(uniq), dtype=np.int64),
        )
        unit, full = 1.0, [float(np.dot(counts, masses)) for counts in per_value]
    hit0 = hits(0)[0]
    out = np.empty(len(Ts))
    for ci, (T, tau, L) in enumerate(zip(Ts, taus, last)):
        if L == 0:
            total = hit0 * mass(f0, tau)
        else:
            total = (hit0 * mass(f0, roof0) + unit * full[ci]
                     + hits(L)[0] * mass(0.0, tau - entry[ci]))
        out[ci] = scale * total / T
    return out


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
    if _is_symbolic_path(system, x):
        arr, cell_first = _map_cells(system, x, n, _EMPIRICAL_KEY_DEPTH)
        idx = np.repeat(np.arange(len(cell_first) - 1), np.diff(cell_first))[:n]
        steps = np.diff(idx)
        if idx[0] != 0 or (steps.size and (steps != steps[0]).any()):
            # fractional strides revisit base coordinates at changing fibers;
            # the symbol-window key cannot tell those orbit points apart
            raise TypeError("empirical measures need whole-base-step orbits")
        windows = np.lib.stride_tricks.sliding_window_view(
            arr, _EMPIRICAL_KEY_DEPTH
        )[idx]
        uniq, first, counts = np.unique(
            windows, axis=0, return_index=True, return_counts=True
        )
        if len(uniq) > _EMPIRICAL_BUDGET:
            raise BudgetExhausted(
                f"empirical measure needs {len(uniq)} atoms (budget {_EMPIRICAL_BUDGET})"
            )
        pts = tuple(
            Point(x.rule, x.offset + int(idx[j]), x.component, x.fiber) for j in first
        )
        return Atomic(pts, tuple(counts / n))
    coords = _orbit_coords(system, x, n)
    keys = np.round(coords * 1e12).astype(np.int64)
    uniq, first, counts = np.unique(keys, return_index=True, return_counts=True)
    if len(uniq) > _EMPIRICAL_BUDGET:
        raise BudgetExhausted(
            f"empirical measure needs {len(uniq)} atoms (budget {_EMPIRICAL_BUDGET})"
        )
    pts = tuple(Point(Coordinate((coords[int(j)],))) for j in first)
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
    A = _profiles_any(system, x, fam, schedule)
    cps = schedule.checkpoints
    tail = len(cps) // 2
    A = A[tail:]
    cps = cps[tail:]
    w = fam.weights()
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


def _profiles_any(system, x, fam: TestFamily, schedule: Schedule) -> np.ndarray:
    if system.is_flow:
        return np.stack([
            flow_average_profile(system, x, phi, schedule) for phi in fam.observables
        ], axis=1)
    return _family_profiles(system, x, fam, schedule)


# ---------------------------------------------------------------------------
# classification


def classify_generic(system, x: Point, mu, fam: Optional[TestFamily] = None,
                     schedule: Optional[Schedule] = None, tol: float = 0.02,
                     keep_profile: bool = False, targets=None) -> Verdict:
    """Is x generic for mu?  Answers only when the last two checkpoints agree:
    Generic when every observable is within tol at both, NotGeneric when some
    observable is at least 3*tol away at both (the first such observable in
    family order is the witness), Inconclusive otherwise.

    `targets` are the integrals of the family's observables against mu; a
    loop that classifies many points against one (mu, fam) passes
    `family_targets(mu, fam)` once instead of integrating on every call."""
    if fam is None:
        fam = TestFamily.default_for(system)
    if schedule is None:
        schedule = Schedule.for_flow() if system.is_flow else Schedule.for_map()
    if len(schedule.checkpoints) < 2:
        raise ValueError("classification needs at least two checkpoints")
    A = _profiles_any(system, x, fam, schedule)
    if targets is None:
        targets = family_targets(mu, fam)
    g_last = np.abs(A[-1] - targets)
    g_prev = np.abs(A[-2] - targets)
    gap = float(g_last.max())
    profile = tuple(map(tuple, A)) if keep_profile else None
    if (g_last < tol).all() and (g_prev < tol).all():
        return Verdict("Generic", gap, None, schedule.checkpoints[-1], profile)
    far = (g_last >= 3.0 * tol) & (g_prev >= 3.0 * tol)
    if far.any():
        i = int(np.argmax(far))
        return Verdict(
            "NotGeneric", float(g_last[i]), fam.observables[i],
            schedule.checkpoints[-1], profile,
        )
    return Verdict("Inconclusive", gap, None, schedule.checkpoints[-1], profile)


def family_targets(mu, fam: TestFamily) -> np.ndarray:
    """The integral of each observable of the family against mu."""
    return np.array([integrate(mu, phi) for phi in fam.observables])


def classify_irregular(system, x: Point, phi, schedule: Optional[Schedule] = None,
                       tol: float = 0.02, keep_profile: bool = False) -> Verdict:
    """Does the average of phi along the orbit converge?  The oscillation of
    the running average over the tail half of the schedule decides: Regular
    below tol, Irregular above 3*tol, Inconclusive between."""
    if schedule is None:
        schedule = Schedule.for_flow() if system.is_flow else Schedule.for_map()
    if system.is_flow:
        prof = flow_average_profile(system, x, phi, schedule)
    else:
        prof = birkhoff_profile(system, x, phi, schedule)
    tail = prof[len(prof) // 2:]
    osc = float(tail.max() - tail.min())
    out_profile = tuple(prof) if keep_profile else None
    last = schedule.checkpoints[-1]
    if osc > 3.0 * tol:
        return Verdict("Irregular", osc, phi, last, out_profile)
    if osc < tol:
        return Verdict("Regular", osc, None, last, out_profile)
    return Verdict("Inconclusive", osc, None, last, out_profile)
