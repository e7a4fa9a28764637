"""Orbit averages along checkpoint schedules, and the classification of
points as generic / not generic / irregular.

Every average is read by one function, `_profiles(system, points,
observables, schedule)`, which returns A[point, checkpoint, observable] for a
whole family from one pass over each orbit, so a schedule of checkpoints
costs the same as its largest entry.  The public readers
(`birkhoff_profile`, `flow_average_profile`, the classifiers and
`limit_point_set`) pass it one point; a suite passes all of its points, and
those that share a chart are counted together in stacks and finished
together once.  The reader asks each observable (see `measures.Observable`),
never its kind: a `constant` is its value; rotation and translation flows
take its `line_average` (a harmonic's, in closed form); circle and torus maps
sum its values `along` the system's `orbit` (exact under circle
multiplication).  A system whose `carrier` is symbolic (a shift, a
suspension or its time-t map) is read in base cells (symbol offsets) along
the `cell_plan` it answers for each point from the exact time chart (the one
`time_t_map` steps by), so a map's cells carry no float rounding.  Each full
cell weighs the hits of the word the observable has `counted` by what the
orbit spends in it, one of the plan's classes: map steps, or its fiber `mass`
under the cell's roof.  Word hits are counted per (point, word code, class)
between consecutive checkpoints, in bounded chunks keyed in the narrowest
integer type that holds them, and a long orbit is read piece by piece, so
no full-length temporary or stream is held; a symbol outside the alphabet
is refused before it can spill into another point's keys.  The partial
first and last cells are added on top, which makes suspension flow
averages exact.

Classification never trusts a single horizon.  A point is declared generic
for a measure only when every test observable sits within tolerance at the
last two checkpoints; it is declared not generic only when some observable
is far (three tolerances) at both.  Everything in between is inconclusive.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Tuple

import numpy as np

from .systems import Point, Record
from .measures import TestFamily, integrate

__all__ = [
    "Schedule", "Verdict", "LimitClass", "birkhoff_average_map",
    "birkhoff_profile", "birkhoff_average_flow", "flow_average_profile",
    "limit_point_set", "classify_generic",
    "classify_irregular", "family_targets",
]


class Schedule(Record):
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


class Verdict(Record):
    label: str                       # Generic / NotGeneric / Regular / Irregular / Inconclusive
    gap: float
    witness: Optional[object] = None
    checkpoint: Optional[float] = None
    profile: Optional[tuple] = None  # per-checkpoint diagnostics when requested


# ---------------------------------------------------------------------------
# the orbit reader
#
# A symbolic orbit is read one base cell (one symbol offset) at a time.  A
# shift spends one map step in each cell, the flow of a suspension the roof
# value over it, and the time-t map of a suspension the steps j at which time
# f0 + t*j lies over it, so it can spend several steps in one cell and skip
# others.  Every average is the hits of a word per cell, weighted by what the
# orbit spends in the cell, summed over the cells between checkpoints.

_CELL_CHUNK = 1 << 16   # (point, cell) pairs per vectorised step; its keys take 128 KB in int16


def _profiles(system, points, observables, schedule: Schedule) -> np.ndarray:
    """A[p, c, i]: the average of observable i along the orbit of the p-th
    point up to checkpoint c, over map steps on a map and over flow time on
    a flow.  Constants are their value.  Straight-line flows and circle maps
    are read point by point, symbolic orbits by `_cell_profiles` a group of
    points at a time, and each point is admitted once; `points` is iterated
    once, so a generator of points never has more than one group alive."""
    obs = tuple(observables)
    flow = system.is_flow
    Ts = schedule.checkpoints if flow else schedule.integer_checkpoints()
    fixed = [phi.constant for phi in obs]
    reads = [phi for phi, c in zip(obs, fixed) if c is None]
    if reads and system.carrier.symbolic:
        groups = _cell_profiles(system, points, reads, Ts)
    else:
        groups = (_line_profiles(system, x, reads, Ts) for x in points)
    A = np.concatenate([np.empty((0, len(Ts), len(reads))), *groups])
    out = np.tile([0.0 if c is None else c for c in fixed], (len(A), len(Ts), 1))
    out[:, :, [i for i, c in enumerate(fixed) if c is None]] = A
    return out


def _line_profiles(system, x: Point, phis, Ts) -> np.ndarray:
    """A[0, c, j] of the observables phis along the orbit of x: harmonics in closed
    form under a straight-line flow, sums along the orbit of a circle or torus map."""
    system.admits(x)
    if system.is_flow:
        return np.array([[[phi.line_average(x.coords[0], system.speed, T)
                           for phi in phis] for T in Ts]])
    coords = system.orbit(x, Ts[-1]) if phis else None
    sums = [np.cumsum(phi.along(coords)) for phi in phis]
    return np.array([[[cs[n - 1] / n for cs in sums] for n in Ts]])


def _cell_profiles(system, points, observables, Ts):
    """A[p, c, j] of `points` along a symbolic orbit, yielded chart group by
    chart group.

    A chart group is a run of points of one `chart_key` (a shift, or one
    fiber under a constant roof), which share a `cell_plan`, so each
    checkpoint ends in the same cell for all of them.  Its short rows (cached
    prefixes) are counted in stacks of at most `_CELL_CHUNK` symbols
    (`_count`), each dropped once counted, a longer row alone and piece by
    piece, so its rule keeps no stream; the group finishes once (`_finish`).
    A row with a symbol outside the alphabet (a tagged point's side's) is
    refused (ValueError) before it is counted, then a point the system does
    not admit.  A depth-1 read in which every full cell weighs the same
    counts a rule that has `counts` from its recipe, building no symbols."""
    flow, sides = system.is_flow, system.carrier.sides
    k = max(side.alphabet for side in sides)        # a code base above every symbol
    tops = dict(enumerate(side.alphabet for side in sides))     # a tagged point's alphabet
    words = []                  # (word code or None, word length, scale, mass, component)
    for phi in observables:
        word, comp, scale = phi.counted(flow)
        code = functools.reduce(lambda c, s: c * k + int(s), word, 0)
        words.append((code if all(0 <= s < k for s in word) else None,   # None: never hit
                      len(word), scale, phi.mass, comp))
    depth = max(1, *(w[1] for w in words))
    members, stack = [], []     # each member: [component, counts, edge codes]
    for x in points:
        if not x.rule.symbolic:         # a coordinate point has no row to check
            system.admits(x)
        key = system.chart_key(x)
        if members and key != group:
            _count(stack, depth, k, plan)
            yield _finish(members, words, depth, k, Ts, plan)
            members = []
        if not members:
            group, plan = key, system.cell_plan(x, Ts)
            need, recipe = plan.ends[-1] + depth, depth == 1 and len(plan.classes) == 1
        if (len(stack) + 1) * need > _CELL_CHUNK:
            _count(stack, depth, k, plan)
        top = tops.get(x.component, k)
        tally = recipe and top == k and x.rule.counts
        member, o = [x.component, None, None], x.offset     # counts and edge codes to come
        members.append(member)
        if tally and len(first := tally(o + 1)) == k:   # cells [1, e) hold tally(e) - first
            member[1:] = ([tally(o + max(e, 1)) - first for e in plan.ends],
                          [int(np.argmax(tally(o + i + 1) - tally(o + i))) for i in (0, *plan.ends)])
        elif plan.ends[-1] >= _CELL_CHUNK:      # more cells than one step: piece by piece
            _count([(None, member)], depth, k, plan,
                   (_checked(p, top)[None] for p in x.rule.pieces(o, o + need, _CELL_CHUNK)))
        else:
            stack.append((_checked(x.prefix(need), top), member))
        system.admits(x)
    if members:
        _count(stack, depth, k, plan)
        yield _finish(members, words, depth, k, Ts, plan)


def _count(stack, depth: int, k: int, plan, pieces=None) -> None:
    """Count the rows of `stack`, a list of (row, member), into each member,
    then clear it: stacked, or one long row piece by piece in O(`_CELL_CHUNK`)
    memory, each piece after the depth - 1 symbols before it, so each holds at
    most `_CELL_CHUNK` (point, cell) pairs.  The word codes of their full
    cells at the deepest word length are keyed per (point, code, plan class),
    in the narrowest integer type that holds every key, and counted by one
    `np.bincount` per checkpoint segment.  A member gets the running totals at
    each checkpoint and the word codes at cell 0 and at each end, as they pass."""
    if not stack:
        return
    ends, n_cls, S = plan.ends, len(plan.classes), len(stack)
    pieces = pieces or [stack[0][0][None] if S == 1 else np.stack([r for r, _ in stack])]
    C, size, marks, past, arr = len(ends), k ** depth * n_cls, (0, *ends), 0, None
    total, near = np.zeros((C, S * size), dtype=np.int64), np.empty((S, C + 1, depth), np.int64)
    bounds = [max(e, 1) for e in (1, *ends)]    # segment c: the cells [bounds[c], bounds[c+1])
    for piece in pieces:    # arr: the cells [at, past) whose words it holds, and the rest
        at, arr = past, piece if arr is None else np.hstack((arr[:, past - at:], piece))
        past = at + arr.shape[1] - depth + 1
        dtype = np.promote_types(arr.dtype, np.min_scalar_type(-S * size))
        lo, hi = max(at, 1), min(past, bounds[-1])      # its full cells, at most one step
        if lo < hi:
            keys = _word_codes(arr, lo - at, hi - at, depth, k, dtype)
            if n_cls > 1:
                keys *= n_cls
                keys += np.searchsorted(plan.classes, plan.weights(lo, hi))
            if S > 1:       # keyed by (point, code, class)
                keys += np.arange(0, S * size, size, dtype=dtype)[:, None]
            for c in range(C):
                a, b = max(bounds[c], lo) - lo, min(bounds[c + 1], hi) - lo
                if a < b:
                    total[c] += np.bincount(keys[:, a:b].ravel(), None, S * size)
            del keys            # before the next piece builds its own
        for i, e in enumerate(marks):       # cell 0 and the ends whose words it holds
            if at <= e < past:
                near[:, i] = arr[:, e - at:e - at + depth]
    counted = np.cumsum(total.reshape(C, S, size), axis=0).transpose(1, 0, 2)
    edge = _word_codes(near, 0, 1, depth, k, dtype)[..., 0]
    for (_, member), n, e in zip(stack, counted, edge):
        member[1:] = n, e
    stack.clear()


def _checked(row: np.ndarray, top: int) -> np.ndarray:
    """The row, unless a symbol lies outside the alphabet 0..top-1: ValueError."""
    if row.min() < 0 or row.max() >= top:
        raise ValueError(f"symbol {row[(row < 0) | (row >= top)][0]} of a point lies "
                         f"outside the alphabet 0..{top - 1}")
    return row


def _finish(members, words, depth: int, k: int, Ts, plan):
    """A[p, c, j] of one chart group of `_cell_profiles` from its members'
    (component, counts, edge codes), in array ops over (point, checkpoint,
    word).  A shorter word reads the codes that start with it, and a word of
    the other side of a disjoint union reads 0.  Cell 0 and the partial last
    cell are added on top of the full cells (`_flow_averages`)."""
    counted, edge = np.array([m[1] for m in members]), np.array([m[2] for m in members])
    # a word of length d is the depth-D codes [code*span, (code+1)*span)
    P, C, n_cls = len(members), len(Ts), len(plan.classes)
    cum = np.zeros((P, C, k ** depth + 1, n_cls), dtype=counted.dtype)
    np.cumsum(counted.reshape(P, C, k ** depth, n_cls), axis=2, out=cum[:, :, 1:])
    wcodes = np.array([w[0] or 0 for w in words])
    spans = np.array([k ** (depth - w[1]) for w in words])
    full = cum[:, :, (wcodes + 1) * spans] - cum[:, :, wcodes * spans]  # (p, c, word, class)
    hit_last = edge[:, 1:, None] // spans == wcodes
    hit0 = (edge[:, :1] // spans == wcodes)[:, None]      # (point, 1, word)
    A = _flow_averages(words, full, hit0, hit_last, Ts, plan)
    hits = [[w[0] is not None and w[4] in (None, m[0]) for w in words] for m in members]
    return np.where(np.array(hits)[:, None, :], A, 0.0)


def _word_codes(arr: np.ndarray, lo: int, hi: int, depth: int, k: int, dtype) -> np.ndarray:
    """The base-k codes of the words arr[..., i:i+depth] for i in lo..hi-1, in dtype."""
    c = arr[..., lo:hi].astype(dtype)
    for d in range(1, depth):
        c *= k
        c += arr[..., lo + d:hi + d]
    return c


def _flow_averages(words, full, hit0, hit_last, Ts, plan):
    """A[point, checkpoint, word] of a flow or a map, in array ops.  At
    checkpoint T, tau = f0 + T lies in cell L = ends[c], entered at entry[c],
    and a word integrates to hit0 * mass(f0, roof0) + full . mass(0, class) +
    hit_last * mass(0, tau - entry), or to hit0 * mass(f0, tau) while L == 0:
    the mass of its fiber profile on a flow, the map steps hi - lo on a map,
    whose sums are integers below 2^53 and so exact in floats.  Each mass
    function is read once per class and once per checkpoint."""
    reads = {mass: ([mass(0.0, v) for v in plan.classes], mass(plan.f0, plan.roof0),
                    [mass(plan.f0, plan.f0 + T) if L == 0 else mass(0.0, plan.f0 + T - e)
                     for T, L, e in zip(Ts, plan.ends, plan.entry)])
             for mass in {w[3] for w in words}}
    masses, m0, edge = (np.array([reads[w[3]][part] for w in words]) for part in range(3))
    # a (1, classes) @ (classes, 1) product per (point, checkpoint, word) sums as np.dot does
    cells = np.matmul(full[..., None, :].astype(float), masses[..., None])[..., 0, 0]
    total = np.where((np.asarray(plan.ends) == 0)[:, None], hit0 * edge.T,
                     hit0 * m0 + cells + hit_last * edge.T)
    return np.array([w[2] for w in words]) * total / np.asarray(Ts, dtype=float)[:, None]


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


# ---------------------------------------------------------------------------
# limit sets


class LimitClass(Record):
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
    g_last, g_prev = np.abs(A[-1] - targets), np.abs(A[-2] - targets)
    gap = float(g_last.max())
    kept = tuple(map(tuple, A)) if keep_profile else None
    if (g_last < tol).all() and (g_prev < tol).all():
        return Verdict("Generic", gap, None, schedule.checkpoints[-1], kept)
    far = (g_last >= 3.0 * tol) & (g_prev >= 3.0 * tol)
    if far.any():
        i = int(np.argmax(far))
        return Verdict("NotGeneric", float(g_last[i]), fam.observables[i],
                       schedule.checkpoints[-1], kept)
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
