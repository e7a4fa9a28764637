"""Orbit averages along checkpoint schedules, and the classification of
points as generic / not generic / irregular.

Every average is read by one function, `_profiles(reads, points, observables)`,
which returns A[point, checkpoint, observable] for a whole family under each
(system, schedule) of `reads`, dynamics of one space, from one pass over each
orbit, so a schedule costs the same as its largest entry.  The public readers
(`birkhoff_profile`, `flow_average_profile`, the classifiers and
`limit_point_set`) pass it one point and one read; a suite passes all of its
points, those that share a chart are counted together in stacks and finished
together once, and dynamics whose cell plans end in the same cells, one class
each, share one count.  The reader asks each observable (see
`measures.Observable`), never its kind: a `constant` is its value; rotation and
translation flows take its `line_average` (a harmonic's, in closed form);
circle and torus maps sum its values `along` the system's `orbit` (exact under
circle multiplication).  A system whose `carrier` is symbolic (a shift, a
suspension or its time-t map) is read in base cells (symbol offsets) along the
`cell_plan` it answers for each point from its one exact time chart, which
`time_t_map` steps by too, so a map's cells carry no float rounding.  Each full
cell weighs the hits of the word the observable has `counted` by what the orbit
spends in it, one of the plan's classes: map steps, or its fiber `mass` under
the cell's roof.  Word hits are counted per (point, word code, class) between
consecutive checkpoints, in bounded chunks keyed in the narrowest integer type
that holds them, and a long orbit is read piece by piece, so no full-length
temporary or stream is held; a symbol outside the alphabet is refused before it
can spill into another point's keys.  The partial first and last cells are
added on top, which makes suspension flow averages exact.

Classification never trusts a single horizon: a point is generic for a
measure only when every test observable sits within tolerance at the last two
checkpoints, not generic only when some observable is far (three tolerances)
at both, else inconclusive.  The rules label a suite's profile array at once
(`_generic_verdicts`, `_irregular_verdicts`), and the classifiers one point.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional, Tuple

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


def _profiles(reads, points, observables) -> list:
    """[A[p, c, i] per (system, schedule) of `reads`]: the average of observable
    i along the orbit of the p-th point up to checkpoint c, over map steps on a
    map and over flow time on a flow.  The systems are dynamics of one space
    (else ValueError).  Constants are their value.  Straight-line flows and
    circle maps are read point by point, symbolic orbits by `_cell_profiles` a
    group of points at a time for every system at once; `points` is iterated
    once, so a generator of points never has more than one group alive."""
    obs, systems = tuple(observables), [system for system, _ in reads]
    if any(s.space != systems[0].space for s in systems):
        raise ValueError(f"one read serves the dynamics of one space, not {systems}")
    Ts = [sched.checkpoints if s.is_flow else tuple(int(round(c)) for c in sched.checkpoints)
          for s, sched in reads]
    fixed = [phi.constant for phi in obs]
    phis = [phi for phi, c in zip(obs, fixed) if c is None]
    if phis and systems[0].carrier.symbolic:
        groups = _cell_profiles(systems, points, phis, Ts)
    else:
        groups = ([_line_profiles(s, x, phis, T) for s, T in zip(systems, Ts)] for x in points)
    at = [fixed[:i].count(None) for i, c in enumerate(fixed) if c is not None]
    return [np.insert(np.concatenate(parts), at, [c for c in fixed if c is not None], axis=2)
            for parts in zip([np.empty((0, len(T), len(phis))) for T in Ts], *groups)]


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


def _cell_profiles(systems, points, observables, Ts):
    """A[p, c, j] of `points` along a symbolic orbit under each of `systems`,
    dynamics of one space, yielded chart group by chart group, one array each.

    A chart group is a run of points of one `chart_key` (a shift, or one fiber
    under a constant roof), which share a `cell_plan` per system, so each
    checkpoint ends in the same cell for all of them.  Systems whose plans end
    in the same cells, one class each, share a count: its short rows (cached
    prefixes) are counted in stacks of at most `_CELL_CHUNK` symbols (`_count`),
    each dropped once counted, a longer row alone and piece by piece, so its
    rule keeps no stream.  Each system finishes the group (`_finish`).  A row
    with a symbol outside the alphabet (a tagged point's side's) is refused
    (ValueError) before it is counted, then a point the space does not admit;
    a point's short row is read, checked and admitted once.  A depth-1 count
    in which every full cell weighs the same asks a rule that has `counts` once
    per point, for the counts before and past cell 0 and each end."""
    space, sides = systems[0].space, systems[0].carrier.sides
    k = max(side.alphabet for side in sides)        # a code base above every symbol
    tops = dict(enumerate(side.alphabet for side in sides))     # a tagged point's alphabet
    code = lambda w: functools.reduce(lambda c, s: c * k + int(s), w, 0)
    # per system: (word code or None: never hit, word length, scale, mass, component)
    words = [[(code(w) if all(0 <= s < k for s in w) else None, len(w), scale, phi.mass, comp)
              for phi in observables for w, comp, scale in [phi.counted(s.is_flow)]]
             for s in systems]
    depth, counts = max(1, *(w[1] for ws in words for w in ws)), {}
    for x in itertools.chain(points, [None]):       # None: past the last point
        if x and not x.rule.symbolic:       # a coordinate point has no row to check
            space.admits(x)
        key = x and space.chart_key(x)
        if counts and key != group:
            for r, (stack, *_) in counts.items():
                _count(stack, depth, k, plans[r])
            yield [_finish(counts[s][1], ws, depth, k, T, plan)
                   for s, ws, T, plan in zip(share, words, Ts, plans)]
            counts = {}
        if not x:
            return
        if not counts:      # plans of equal ends, one class each, share (stack, members, edges)
            group, plans = key, [s.cell_plan(x, T) for s, T in zip(systems, Ts)]
            share = [next(i for i, p in enumerate(plans) if p is plan or p.ends == plan.ends
                          and len(p.classes) == len(plan.classes) == 1) for plan in plans]
            counts = {r: ([], [], np.array([(e, e + 1) for e in (0, *plans[r].ends)]))
                      for r in sorted(set(share), key=lambda r: -plans[r].ends[-1])}
        top, o, row = tops.get(x.component, k), x.offset, None
        for r, (stack, members, edges) in counts.items():
            plan, need, member = plans[r], plans[r].ends[-1] + depth, [x.component, None, None]
            if (len(stack) + 1) * need > _CELL_CHUNK:
                _count(stack, depth, k, plan)
            members.append(member)      # its counts and edge codes to come
            tally = x.rule.counts if depth == len(plan.classes) == 1 and top == k else None
            at = tally and tally(o + edges)     # one ask: the counts before and past each edge
            if at is not None and at.shape[-1] == k:    # cells [1, e) hold at(e) - at(1)
                member[1:] = ((at[1:, 0] - at[0, 1]) * (edges[1:, :1] >= 1),
                              np.argmax(at[:, 1] - at[:, 0], axis=1))
            elif plan.ends[-1] >= _CELL_CHUNK:      # more cells than one step: piece by piece
                _count([(None, member)], depth, k, plan,
                       (_checked(p, top)[None] for p in x.rule.pieces(o, o + need, _CELL_CHUNK)))
            else:           # the longest first, so one row serves every count
                row = _checked(x.prefix(need), top) if row is None else row
                stack.append((row[:need], member))
        space.admits(x)


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
    C, size, marks, past, arr, buf = len(ends), k ** depth * n_cls, (0, *ends), 0, None, None
    total, near = np.zeros((C, S * size), dtype=np.int64), np.empty((S, C + 1, depth), np.int64)
    bounds = [max(e, 1) for e in (1, *ends)]    # segment c: the cells [bounds[c], bounds[c+1])
    for piece in pieces:    # arr: the cells [at, past) whose words it holds, and the rest
        if arr is not None and depth > 1:   # the rest, then the piece, in one buffer per row
            buf = np.empty((S, arr.shape[1] + depth - 1), arr.dtype) if buf is None else buf
            n = depth - 1 + piece.shape[1]
            buf[:, :depth - 1], buf[:, depth - 1:n] = arr[:, past - at:], piece
            piece = buf[:, :n]
        at, arr = past, piece
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
    return _profiles([(system, schedule)], (x,), (phi,))[0][0, :, 0]


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
    return _profiles([(flow, schedule)], (x,), (phi,))[0][0, :, 0]


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


def limit_point_set(system, x: Point, fam: TestFamily, schedule: Schedule = None,
                    tol: float = 0.01) -> Tuple[LimitClass, ...]:
    """Cluster the tail checkpoint averages by single linkage at `tol` (in
    the weighted family metric).  One cluster whose checkpoints extend to the
    horizon is the signature of a convergent (generic-type) orbit."""
    if schedule is None:
        schedule = Schedule.for_map()
    A = _profiles([(system, schedule)], (x,), fam.observables)[0][0]
    return _limit_classes(A, schedule.checkpoints, fam, tol)


def _limit_classes(A, checkpoints, fam: TestFamily, tol: float) -> Tuple[LimitClass, ...]:
    """The clusters of `limit_point_set`, from a profile already read (one row
    of family averages per checkpoint): the tail checkpoints joined by each pair
    at most `tol` apart, then by the paths through them (squaring the relation)."""
    tail = len(checkpoints) // 2
    A, cps = np.asarray(A)[tail:], checkpoints[tail:]
    near = np.eye(len(cps), dtype=bool)
    for i in range(len(cps)):
        near[i, i + 1:] = [fam.distance(A[i], b) <= tol for b in A[i + 1:]]
    near |= near.T
    for _ in range(len(cps).bit_length()):
        near = near @ near
    groups = dict.fromkeys(tuple(np.flatnonzero(row).tolist()) for row in near)
    out = [LimitClass(tuple(np.mean(A[list(g)], axis=0)), tuple(cps[i] for i in g))
           for g in groups]
    return tuple(sorted(out, key=lambda c: c.checkpoints[-1], reverse=True))


# ---------------------------------------------------------------------------
# classification


def classify_generic(system, x: Point, mu, fam: Optional[TestFamily] = None,
                     schedule: Optional[Schedule] = None, tol: float = 0.02,
                     keep_profile: bool = False) -> Verdict:
    """Is x generic for mu?  `_generic_verdicts` for one point."""
    if fam is None:
        fam = TestFamily.default_for(system)
    if schedule is None:
        schedule = Schedule.for_flow() if system.is_flow else Schedule.for_map()
    A = _profiles([(system, schedule)], (x,), fam.observables)[0]
    (label,), (gap,), (i,) = _generic_verdicts(A, family_targets(mu, fam), tol)
    return Verdict(label, float(gap), None if i < 0 else fam.observables[i],
                   schedule.checkpoints[-1], tuple(map(tuple, A[0])) if keep_profile else None)


def _generic_verdicts(A, targets, tol: float):
    """(labels, gaps, witnesses) of the points of A[p, c, i], the family's averages, by
    the rule above: NotGeneric's witness is the first observable far at both of the
    last two checkpoints, and its gap the point's; else -1 and the largest gap."""
    if A.shape[1] < 2:
        raise ValueError("classification needs at least two checkpoints")
    g_last, g_prev = np.abs(A[:, -1] - targets), np.abs(A[:, -2] - targets)
    near = ((g_last < tol) & (g_prev < tol)).all(axis=1)
    far = (g_last >= 3.0 * tol) & (g_prev >= 3.0 * tol)
    witness = np.where(near | ~far.any(axis=1), -1, np.argmax(far, axis=1))
    gaps = np.where(witness < 0, g_last.max(axis=1), g_last[np.arange(len(A)), witness])
    labels = np.where(near, "Generic", np.where(witness < 0, "Inconclusive", "NotGeneric"))
    return labels.tolist(), gaps, witness


def family_targets(mu, fam: TestFamily) -> np.ndarray:
    """The integral of each observable of the family against mu."""
    return np.array([integrate(mu, phi) for phi in fam.observables])


def classify_irregular(system, x: Point, phi, schedule: Optional[Schedule] = None,
                       tol: float = 0.02, keep_profile: bool = False) -> Verdict:
    """Does the average of phi along the orbit converge?  `_irregular_verdicts` for
    one point."""
    if schedule is None:
        schedule = Schedule.for_flow() if system.is_flow else Schedule.for_map()
    F = _profiles([(system, schedule)], (x,), (phi,))[0][:, :, 0]
    (label,), (osc,) = _irregular_verdicts(F, tol)
    return Verdict(label, float(osc), phi if label == "Irregular" else None,
                   schedule.checkpoints[-1], tuple(F[0]) if keep_profile else None)


def _irregular_verdicts(F, tol: float):
    """(labels, oscillations) of the points of F[p, c], the running average: over the
    tail half of the checkpoints, Irregular above 3*tol, Regular below tol."""
    tail = F[:, F.shape[1] // 2:]
    osc = tail.max(axis=1) - tail.min(axis=1)
    labels = np.where(osc > 3.0 * tol, "Irregular", np.where(osc < tol, "Regular", "Inconclusive"))
    return labels.tolist(), osc
