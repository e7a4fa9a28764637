"""Constructions: points with prescribed averaging behaviour, orbit gluing
with a mistake budget, and the standing counterexample system.

The generic-point builder is a Champernowne-style schedule: stage L lays
down every length-L word with multiplicities quantised against the target
measure (an error-diffusing rounding keeps every cumulative count within one
slot of exact), and stage lengths double, so late checkpoints sit in deep,
well-balanced stages.  On a vertex shift the butt joints between words are
repaired by inserting shortest admissible connectors; the insertion density
decays like 1/L and is reported.

The irregular-point builder steers the running frequency of one symbol to
alternating targets at geometrically growing block ends.  Within each block
the symbol is spread evenly, so the running average moves monotonically
between targets; the block ends are the natural checkpoint schedule and the
natural oscillation-window scales.

Gluing concatenates orbit segments exactly on a full shift (at resolutions
coarser than one symbol a junction causes no mistakes at all) and overwrites
the first few symbols after each junction on a vertex shift, never shifting
alignment.  The receipt reports per-segment mistake counts against the
budget; an inadmissible result is a bug and raises.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .systems import (
    BlockSchedule, DisjointUnion, ExplicitWord, FullShift, MarkovShift, Point,
    SeededIID, SteeredBlocks, Suspension, RoofFunction, _count_at_or_below,
)
from .measures import Bernoulli, Markov, Mixture, check_invariance
from .birkhoff import Schedule
from .entropy import OscillationWindows

__all__ = [
    "MistakeFunction", "GluingError", "GluedOrbit", "glue_orbits",
    "mistake_ball_membership", "MistakeBallReport", "generic_point",
    "irregular_point", "IrregularRecipe", "build_counterexample_system",
]


# ---------------------------------------------------------------------------
# mistake functions


@dataclass(frozen=True)
class MistakeFunction:
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
        e = min(eps, self.eps0)
        best = self.coeff_table[0][1]
        for grid_eps, c in self.coeff_table:
            if grid_eps <= e:
                best = c
            else:
                break
        return best

    def budget(self, t: float, eps: float) -> float:
        if t < 0:
            raise ValueError("t must be >= 0")
        c = self.coefficient(eps)
        if self.kind == "power":
            return c * t ** self.beta
        return c * math.log1p(t)

    def is_zero(self) -> bool:
        return all(c == 0.0 for _, c in self.coeff_table)

    def first_time_with_budget(self, eps: float, amount: float, cap: int = 1 << 62) -> int:
        """Smallest integer t with budget(t, eps) >= amount.

        Bisection on the monotone predicate; a closed-form guess would need a
        float-plateau walk at large t, which can spin."""
        if amount <= 0:
            return 0
        c = self.coefficient(eps)
        if c == 0.0:
            raise ValueError("a zero budget never reaches a positive amount")
        if self.budget(cap, eps) < amount:
            raise ValueError("budget never reaches the requested amount")
        hi = 1
        while self.budget(hi, eps) < amount:
            hi = min(hi * 2, cap)
        lo = 0
        while lo < hi:
            mid = (lo + hi) // 2
            if self.budget(mid, eps) >= amount:
                hi = mid
            else:
                lo = mid + 1
        return lo


# ---------------------------------------------------------------------------
# mistake balls


@dataclass(frozen=True)
class MistakeBallReport:
    member: bool
    mismatches: int
    budget: float
    horizon: int


def _resolution_length(eps: float) -> int:
    """Leading symbols that must agree for two streams to be eps-close."""
    if eps > 1.0:
        return 0
    return int(math.floor(math.log2(1.0 / eps))) + 1


def _window_mismatches(a: np.ndarray, b: np.ndarray, n: int, L: int) -> int:
    """The times j < n at which the length-L windows of a and b starting at
    j differ; a and b hold at least n + L - 1 symbols."""
    neq = np.asarray(a[:n + L - 1]) != np.asarray(b[:n + L - 1])
    bad = neq[:n].copy()
    for i in range(1, L):
        bad |= neq[i:n + i]
    return int(bad.sum())


def mistake_ball_membership(system, x: Point, y: Point, n: int, eps: float,
                            g: Optional[MistakeFunction] = None) -> MistakeBallReport:
    """Is y in the n-step mistake ball around x at resolution eps?

    Counts the times j < n with d(T^j x, T^j y) >= eps and compares against
    the budget g(n, eps); with the zero budget this is exactly the Bowen
    ball."""
    if n < 1:
        raise ValueError("need n >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if g is None:
        g = MistakeFunction.zero()
    if not system.symbolic:
        raise TypeError("mistake balls are implemented on shift spaces")
    L = _resolution_length(eps)
    if x.component != y.component:
        mismatches = n if (L > 0 or eps <= 1.0) else 0
    else:
        mismatches = _window_mismatches(x.prefix(n + L - 1), y.prefix(n + L - 1), n, L) if L else 0
    allowance = g.budget(n, eps)
    return MistakeBallReport(mismatches <= allowance, mismatches, allowance, n)


# ---------------------------------------------------------------------------
# gluing


class GluingError(RuntimeError):
    """The glued word failed its admissibility postcondition."""


@dataclass(frozen=True)
class GluedOrbit:
    point: Point
    junction_times: Tuple[int, ...]
    connector_lengths: Tuple[int, ...]
    segment_mismatches: Tuple[int, ...]
    within_budget: bool


def _shortest_connector(adjacency, a: int, target: int, cap: int):
    """Shortest state word v_1..v_r with a->v_1->...->v_r->target admissible
    (r may be 0).  None if no route within cap steps."""
    k = len(adjacency)
    if adjacency[a][target]:
        return ()
    seen = {a}
    queue = deque([(a, ())])
    while queue:
        state, path = queue.popleft()
        if len(path) >= cap:
            continue
        for nxt in range(k):
            if not adjacency[state][nxt]:
                continue
            if adjacency[nxt][target]:
                return path + (nxt,)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, path + (nxt,)))
    return None


def _overwrite_connector(adjacency, a: int, glued: np.ndarray, T: int, cap: int):
    """Replacement v_1..v_r for glued[T:T+r] making a -> v_1 -> ... -> v_r ->
    glued[T+r] admissible, with r as small as possible.  The layer-by-layer
    walk keeps exact path lengths, so the overwritten zone never shifts the
    segment alignment.  None if nothing works within cap."""
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
    a shortest admissible connector.  Mistake counts per segment (times j
    whose eps-window disagrees with the segment's own continuation) are
    reported against g; the default budget is zero, which a full-shift glue
    at eps > 1/2 satisfies."""
    if g is None:
        g = MistakeFunction.zero()
    if len(segments) < 2:
        raise ValueError("gluing needs at least two segments")
    if not system.symbolic or isinstance(system, DisjointUnion):
        raise TypeError("gluing is implemented on a single shift space")
    k = system.alphabet
    L = _resolution_length(eps)
    lengths = [int(t) for _, t in segments]
    if any(t < 1 for t in lengths):
        raise ValueError("segment lengths must be >= 1")
    tail_extra = L + 8
    arrs = [
        np.asarray(p.prefix(t + (tail_extra if i == len(segments) - 1 else 0)))
        for i, (p, t) in enumerate(segments)
    ]
    glued = np.concatenate(arrs)
    boundaries = np.cumsum(lengths)[:-1]
    connector_lengths = []
    if isinstance(system, MarkovShift):
        A = system.adjacency
        cap = 2 * k + 2
        for T in boundaries:
            conn = _overwrite_connector(A, int(glued[T - 1]), glued, int(T), cap)
            if conn is None:
                raise GluingError("no admissible connector found")
            if conn:
                glued[T:T + len(conn)] = conn
            connector_lengths.append(len(conn))
        adj = np.asarray(A)
        if not adj[glued[:-1], glued[1:]].all():
            raise GluingError("glued word is not admissible")
    else:
        connector_lengths = [0] * len(boundaries)
    # mistake accounting: windows that disagree with the segment's own stream;
    # the glued word holds L + 8 symbols past the last segment
    mismatches = [_window_mismatches(p.prefix(t + L - 1), glued[s:], t, L) if L else 0
                  for (p, t), s in zip(segments, (0, *boundaries))]
    within = all(
        mis <= g.budget(t, eps) for mis, t in zip(mismatches, lengths)
    )
    point = Point(ExplicitWord(tuple(glued.tolist())))
    return GluedOrbit(
        point, tuple(int(b) for b in boundaries), tuple(connector_lengths),
        tuple(mismatches), within,
    )


# ---------------------------------------------------------------------------
# generic points


def _bresenham_counts(masses: np.ndarray, slots: int) -> np.ndarray:
    """Integer counts summing to `slots`, each within one of masses*slots."""
    cum = np.floor(np.cumsum(masses) * slots + 1e-9)
    return np.diff(cum, prepend=0.0).astype(np.int64)


def _all_words(k: int, length: int) -> np.ndarray:
    """(k**length, length) array of words in lexicographic order."""
    count = k ** length
    codes = np.arange(count)
    out = np.empty((count, length), dtype=np.int64)
    for i in range(length - 1, -1, -1):
        out[:, i] = codes % k
        codes //= k
    return out


def generic_point(system, mu, kind: str = "deterministic-blocks", seed: int = 0,
                  horizon: int = 1 << 21, first_stage: int = 6) -> Point:
    """A point whose orbit averages converge to the integrals of mu.

    'deterministic-blocks' builds the Champernowne-style stage schedule (no
    randomness; convergence is by construction).  'seeded-iid' samples the
    coordinates from mu with a fixed seed: almost-sure genericity, checked a
    posteriori by the classifier like any other point."""
    if not isinstance(mu, (Bernoulli, Markov)):
        raise TypeError("generic points are built for Bernoulli and Markov targets")
    check_invariance(mu, system)        # a shift (a tagged union side) that carries mu
    if isinstance(system, DisjointUnion):
        inner = generic_point(system.side(mu.component), replace(mu, component=None), kind,
                              seed, horizon, first_stage)
        return Point(inner.rule, inner.offset, component=mu.component)
    k = system.alphabet
    if kind == "seeded-iid":
        if isinstance(mu, Bernoulli):
            return Point(SeededIID(seed, mu.probs))
        return Point(ExplicitWord(tuple(_sample_markov(mu, seed, horizon).tolist())))
    if kind != "deterministic-blocks":
        raise ValueError("kind must be 'deterministic-blocks' or 'seeded-iid'")
    adjacency = system.adjacency if isinstance(system, MarkovShift) else None
    rounds = []                       # (round array, repeats) per stage
    total = 0
    L = first_stage
    while total < horizon:
        reps = 1 << (L - first_stage)
        flat = _stage_round(mu, k, L, adjacency)
        rounds.append((flat, reps))
        total += len(flat) * reps
        L += 1
    blocks = []
    for i, (flat, reps) in enumerate(rounds):
        if adjacency is None:
            blocks.append((tuple(flat.tolist()), reps))
            continue
        # seam connectors keep the tiling admissible: within the stage a round
        # feeds back into itself, at the stage end it feeds the next stage
        nxt_first = int(rounds[i + 1][0][0]) if i + 1 < len(rounds) else int(flat[0])
        self_conn = _shortest_connector(adjacency, int(flat[-1]), int(flat[0]), 2 * k + 2)
        cross_conn = _shortest_connector(adjacency, int(flat[-1]), nxt_first, 2 * k + 2)
        if self_conn is None or cross_conn is None:
            raise GluingError("no connector exists between stages")
        body = tuple(flat.tolist())
        if reps > 1 and self_conn != cross_conn:
            blocks.append((body + self_conn, reps - 1))
            blocks.append((body + cross_conn, 1))
        elif reps > 1:
            blocks.append((body + self_conn, reps) if self_conn else (body, reps))
        else:
            blocks.append((body + cross_conn, 1) if cross_conn else (body, 1))
    return Point(BlockSchedule(tuple(blocks)))


def _sample_markov(mu: Markov, seed: int, horizon: int) -> np.ndarray:
    """The first `horizon` states of the chain drawn from `seed`.

    One uniform picks the start state from the stationary vector, then
    uniform i moves state s to the number of cumulative masses of row s at
    or below it.  Only the k - 1 inner thresholds are counted, so a row whose
    cumulative sum rounds below 1 cannot step past state k - 1.

    The walk is a blocked scan (Blelloch, Prefix sums and their applications,
    1990): the horizon is cut into about sqrt(n) blocks of about sqrt(n)
    steps, every block is walked at once from every state, and the blocks'
    entry states are then chained from the start.  It visits exactly the
    states of stepping one uniform at a time."""
    rng = np.random.default_rng(seed)
    inner = np.cumsum(np.asarray(mu.transitions), axis=1)[:, :-1]
    k = len(inner)
    state = int(np.searchsorted(np.cumsum(mu.stationary)[:-1], rng.random(), side="right"))
    u = rng.random(horizon)
    dtype = np.int8 if k < 128 else np.intp
    width = max(1, math.isqrt(horizon))
    blocks = -(-horizon // width)
    # step[j, b, s]: the state after step b * width + j taken from state s
    step = np.zeros((blocks * width, k), dtype=dtype)
    for s in range(k):
        step[:horizon, s] = _count_at_or_below(inner[s], u, dtype)
    step = step.reshape(blocks, width, k).transpose(1, 0, 2)
    # walk[j, b, s]: the state at step b * width + j when block b starts at s
    walk = np.empty((width, blocks, k), dtype=dtype)
    at = np.broadcast_to(np.arange(k, dtype=dtype), (blocks, k))
    for j in range(width):
        walk[j] = at
        at = np.take_along_axis(step[j], at, axis=1)
    entry = np.empty(blocks, dtype=np.intp)
    for b in range(blocks):
        entry[b] = state
        state = int(at[b, state])
    return walk[:, np.arange(blocks), entry].T.reshape(-1)[:horizon].astype(np.int64)


def _stage_round(mu, k: int, L: int, adjacency) -> np.ndarray:
    """One round of a stage: every length-L word laid out in order with
    multiplicities quantised against the measure, junctions repaired."""
    masses = mu.cylinder_masses(k, L)
    counts = _bresenham_counts(masses, k ** L)
    words = _all_words(k, L)
    flat = np.repeat(words, counts, axis=0).reshape(-1)
    if adjacency is not None:
        flat = _repair_junctions(flat, adjacency)
    return flat


def _repair_junctions(flat: np.ndarray, adjacency) -> np.ndarray:
    """Insert shortest connectors wherever consecutive symbols are forbidden."""
    k = len(adjacency)
    adj = np.asarray(adjacency)
    bad = np.nonzero(adj[flat[:-1], flat[1:]] == 0)[0]
    if len(bad) == 0:
        return flat
    connectors = {}
    pieces = []
    prev = 0
    for idx in bad:
        pieces.append(flat[prev:idx + 1])
        pair = (int(flat[idx]), int(flat[idx + 1]))
        if pair not in connectors:
            conn = _shortest_connector(adjacency, pair[0], pair[1], 2 * k + 2)
            if conn is None:
                raise GluingError("no connector exists between stage words")
            connectors[pair] = np.asarray(conn, dtype=flat.dtype)
        pieces.append(connectors[pair])
        prev = idx + 1
    pieces.append(flat[prev:])
    return np.concatenate(pieces)


# ---------------------------------------------------------------------------
# irregular points


@dataclass(frozen=True)
class IrregularRecipe:
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
        ws = tuple(
            (int(e), max(t - slack, 0.0), min(t + slack, 1.0))
            for e, t in zip(self.block_ends[:scales], self.targets[:scales])
        )
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
    if not isinstance(system, FullShift):
        raise TypeError("irregular points are built on full shifts")
    k = system.k
    if not (0 <= symbol < k):
        raise ValueError("symbol out of range")
    if not (0.0 < lo < hi < 1.0):
        raise ValueError("need 0 < lo < hi < 1")
    swing = (hi - lo) / (ratio - 1)
    if hi + swing > 1.0 + 1e-12 or lo < swing - 1e-12:
        raise ValueError("targets are not reachable at this block ratio")
    ends, targets = [], []
    length = first_block
    pos = 0
    while pos < horizon:
        pos += length
        ends.append(pos)
        targets.append(lo if len(ends) % 2 == 1 else hi)
        length *= ratio
    return IrregularRecipe(
        Point(SteeredBlocks(k, symbol, tuple(ends), tuple(targets))),
        symbol, lo, hi, tuple(ends), tuple(targets),
    )


# ---------------------------------------------------------------------------
# the standing counterexample


def build_counterexample_system():
    """Two disjoint copies of the binary full shift, the unit-roof suspension
    over their union, and the balanced mixture of the two coin measures.

    The mixture is invariant but not ergodic: no single orbit can realise
    both components, so its generic set is empty while its entropy is the
    full log 2."""
    union = DisjointUnion(FullShift(2), FullShift(2))
    flow = Suspension(union, RoofFunction.constant(1.0))
    half = 0.5
    mixture = Mixture((
        (Bernoulli((0.5, 0.5), component=0), half),
        (Bernoulli((0.5, 0.5), component=1), half),
    ))
    return union, flow, mixture
