"""Topological entropy of (possibly noncompact) subsets via outer covers.

The construction (Bowen's Caratheodory dimension): a cover element B carries
the largest span N(B) for which every image of B up to that span still fits
inside one element of the reference cover.  For a family of elements
covering the target set, the order-alpha sum is sum exp(-alpha N(B)); the
entropy estimate at a given refinement depth is the critical alpha where
that sum crosses 1, and the reported value is the critical alpha at the
deepest refinement, bracketed by the spread over the last few depths.
Elements of equal span are counted together, so a cover is a list of
(log_count, span) groups and `caratheodory_sum` is the logarithm of the sum,
which crosses 0 where the sum crosses 1.

On shift spaces the refinement at depth n is the family of admissible
n-cylinders meeting the target set, so everything reduces to counting words
under constraints.  Two independent routes are kept deliberately separate:
the float backends here (log-gamma sums, log-scaled matrix powers and
dynamic programs) and the exact big-integer counts in `word_count_rate`,
which also drive the spanning-set growth estimate.  Tests compare the
routes; neither calls the other.  Each backend is handed an estimate's whole
depth grid and counts it in one pass: the window dynamic programs run once
to the deepest depth and read every shallower depth on the way, and the
exact route packs each state's counts by symbol count into one integer.

Suspension flows are handled for word-independent roofs: each depth-n
cylinder times a half-roof fiber interval is a cover element whose span is
read off the rolled-out flow-box geometry (the span of ([w], [a,b)) under a
constant roof c is |w| c + c/4 - b).  Isometric systems (rotations and
translations, and their time-t maps) have zero expansion, so every span is
infinite and the entropy is exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .systems import (
    BudgetExhausted, CircleMult, DisjointUnion, FullShift, MarkovShift, Point,
    Suspension, TimeTMap,
)

__all__ = [
    "WholeSpace", "FrequencyWindow", "OscillationWindows", "ComponentWindow",
    "SampleCloud", "caratheodory_sum", "EntropyEstimate", "bowen_entropy_symbolic",
    "bowen_entropy_flow", "spanning_entropy", "word_count_rate", "WordCount",
]


# ---------------------------------------------------------------------------
# target-set descriptions


@dataclass(frozen=True)
class WholeSpace:
    pass


@dataclass(frozen=True)
class FrequencyWindow:
    """Points whose asymptotic frequency of `symbol` lies in [lo, hi]."""

    symbol: int
    lo: float
    hi: float
    component: Optional[int] = None

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError("need 0 <= lo <= hi <= 1")


@dataclass(frozen=True)
class OscillationWindows:
    """Points whose running frequency of `symbol` visits [lo_j, hi_j] at each
    scale n_j: windows = ((n_1, lo_1, hi_1), ...) with increasing scales."""

    symbol: int
    windows: Tuple[Tuple[int, float, float], ...]

    def __post_init__(self):
        ws = self.windows
        if not ws:
            raise ValueError("need at least one window")
        if any(a[0] >= b[0] for a, b in zip(ws[:-1], ws[1:])):
            raise ValueError("window scales must be strictly increasing")
        if any(not (0.0 <= lo <= hi <= 1.0) for _, lo, hi in ws):
            raise ValueError("windows must satisfy 0 <= lo <= hi <= 1")


@dataclass(frozen=True)
class ComponentWindow:
    """Points of a disjoint union whose fraction of time in the second
    component lies in [lo, hi].  Orbits never switch sides, so the only
    admissible fractions are 0 and 1."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError("need 0 <= lo <= hi <= 1")


@dataclass(frozen=True)
class SampleCloud:
    """A finite set of sample points; covering them gives an upper bound."""

    points: Tuple[Point, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("sample cloud must be nonempty")


# ---------------------------------------------------------------------------
# cover spans


def _forced_extension(adjacency, state: int, cap: int) -> int:
    """Extra steps the cylinder keeps determining symbols (forced transitions)."""
    extra = 0
    cur = state
    while extra < cap:
        row = adjacency[cur]
        if sum(row) != 1:
            return extra
        cur = row.index(1)
        extra += 1
    return cap


def _box_span(steps, c: float, hi: float) -> float:
    """Flow time that a box over a cylinder of `steps` base steps, with fiber
    below hi, stays certain under the constant roof c: the accumulated roof
    time plus a quarter of the final roof, less hi.  Past that the base
    shadow is no longer a single cylinder."""
    return steps * c + 0.25 * c - hi


# ---------------------------------------------------------------------------
# counting backends (float route)

_LOG_EMPTY = -math.inf


def _logsumexp(values) -> float:
    arr = np.asarray(values, dtype=float)
    arr = arr[arr > _LOG_EMPTY]
    if arr.size == 0:
        return _LOG_EMPTY
    m = arr.max()
    return float(m + math.log(np.exp(arr - m).sum()))


def _log_binom(n: int, m: int) -> float:
    if m < 0 or m > n:
        return _LOG_EMPTY
    return math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)


def _count_range(n: int, lo: float, hi: float) -> range:
    lo_m = math.ceil(lo * n - 1e-9)
    hi_m = math.floor(hi * n + 1e-9)
    return range(max(lo_m, 0), min(hi_m, n) + 1)


def _log_window_count_full(k: int, n: int, lo: float, hi: float) -> float:
    """log of the number of length-n words over k symbols whose count of one
    fixed symbol m satisfies m/n in [lo, hi]."""
    other = math.log(k - 1) if k > 1 else _LOG_EMPTY
    terms = []
    for m in _count_range(n, lo, hi):
        t = _log_binom(n, m)
        if m < n:
            t += (n - m) * other if k > 1 else _LOG_EMPTY
        terms.append(t)
    return _logsumexp(terms)


def _log_oscillation_count(k: int, depth: int, windows) -> float:
    """Log count of words whose running symbol frequency passes through each
    window at its scale, free beyond the last scale."""
    other = math.log(k - 1) if k > 1 else _LOG_EMPTY
    prev_n = 0
    prev = {0: 0.0}                     # count-at-boundary -> log ways
    for n_j, lo, hi in windows:
        if n_j > depth:
            raise ValueError("window scale exceeds the requested depth")
        allowed = _count_range(n_j, lo, hi)
        step = n_j - prev_n
        nxt = {}
        for m2 in allowed:
            terms = []
            for m1, lw in prev.items():
                d = m2 - m1
                if d < 0 or d > step:
                    continue
                t = lw + _log_binom(step, d)
                if step - d > 0:
                    t += (step - d) * other if k > 1 else _LOG_EMPTY
                terms.append(t)
            v = _logsumexp(terms)
            if v > _LOG_EMPTY:
                nxt[m2] = v
        if not nxt:
            return _LOG_EMPTY
        prev, prev_n = nxt, n_j
    tail = (depth - prev_n) * math.log(k)
    return _logsumexp(list(prev.values())) + tail


def _markov_state_log_counts(system: MarkovShift, n: int) -> np.ndarray:
    """log of the number of admissible length-n words ending in each state."""
    A = system.adjacency_array().astype(float)
    v = np.ones(system.k)
    scale = 0.0
    for _ in range(n - 1):
        v = v @ A
        m = v.max()
        if m <= 0:
            return np.full(system.k, _LOG_EMPTY)
        v /= m
        scale += math.log(m)
    with np.errstate(divide="ignore"):
        return np.where(v > 0, np.log(np.maximum(v, 1e-300)) + scale, _LOG_EMPTY)


def _markov_window_log_counts(system: MarkovShift, depths, symbol: int,
                              lo: float, hi: float) -> list:
    """Per-end-state log counts of admissible words with the symbol frequency
    in the window, one array per depth, from one dynamic program run to the
    deepest depth.  A step to length n + 1 updates only the counts 0..n + 1 a
    word can reach, and none above the highest count a window reads (counts
    never fall, so those never feed a read column); the rest stay -inf."""
    k = system.k
    A = system.adjacency
    N = max(depths)
    L = np.full((k, N + 1), _LOG_EMPTY)
    nxt = L.copy()
    for s in range(k):
        L[s, 1 if s == symbol else 0] = 0.0
    top = max(_count_range(n, lo, hi).stop for n in depths)    # columns read
    found = {}
    for n in range(1, N + 1):
        if n in depths:
            r = _count_range(n, lo, hi)
            found[n] = np.array([_logsumexp(row[r.start:r.stop]) for row in L])
        if n == N:
            break
        c = min(n + 2, top)
        nxt[:, :c] = _LOG_EMPTY
        for s in range(k):
            for s2 in range(k):
                if A[s][s2] == 0:
                    continue
                if s2 == symbol:
                    np.logaddexp(nxt[s2, 1:c], L[s, :c - 1], out=nxt[s2, 1:c])
                else:
                    np.logaddexp(nxt[s2, :c], L[s, :c], out=nxt[s2, :c])
        L, nxt = nxt, L
    return [found[n] for n in depths]


def caratheodory_sum(groups: Sequence[Tuple[float, float]], alpha: float) -> float:
    """log of the order-alpha sum sum_i count_i * exp(-alpha * span_i) over
    (log_count, span) groups with finite spans; -inf for no groups.  The
    estimators bisect for the alpha where it crosses 0.  Spans are
    nonnegative, so the sum is nonincreasing in alpha."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return _logsumexp([lc - alpha * sp for lc, sp in groups])


def _critical_alpha(groups, alpha_tol: float = 1e-12) -> float:
    """The alpha where `caratheodory_sum` crosses 0 over the nonempty, finite-span groups."""
    groups = [(lc, sp) for lc, sp in groups if lc > _LOG_EMPTY and math.isfinite(sp)]
    if not groups:
        return 0.0
    if len(groups) == 1:
        lc, sp = groups[0]
        return max(lc / sp, 0.0)
    hi = max(max(lc / sp for lc, sp in groups), 0.0) + 1.0
    lo = 0.0
    if caratheodory_sum(groups, 0.0) <= 0.0:
        return 0.0
    for _ in range(200):
        if hi - lo <= alpha_tol:
            break
        mid = 0.5 * (lo + hi)
        s = caratheodory_sum(groups, mid)
        if s > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _map_groups(system, subset, depths):
    """One (groups, flags) pair per depth: the (log_count, span) groups of
    the depth-n cylinder cover of the subset, plus flags."""
    if isinstance(system, DisjointUnion):
        return _union_groups(system, subset, depths)
    if not isinstance(system, (FullShift, MarkovShift)):
        raise TypeError(f"no cylinder backend for {type(system).__name__}")
    if isinstance(subset, SampleCloud):
        return _cloud_groups(subset, depths)
    if isinstance(subset, FrequencyWindow) and subset.component is not None:
        raise ValueError("component windows need a disjoint union")
    if isinstance(system, FullShift):
        k = system.k
        if isinstance(subset, WholeSpace):
            return [([(n * math.log(k), float(n))], []) for n in depths]
        if isinstance(subset, FrequencyWindow):
            lcs = [_log_window_count_full(k, n, subset.lo, subset.hi) for n in depths]
        elif isinstance(subset, OscillationWindows):
            lcs = [_log_oscillation_count(k, n, subset.windows) for n in depths]
        else:
            raise TypeError(f"no counting backend for {type(subset).__name__} on a full shift")
        return [([(lc, float(n))], ["empty-cover"] if lc == _LOG_EMPTY else [])
                for n, lc in zip(depths, lcs)]
    if isinstance(subset, WholeSpace):
        per_depth = [_markov_state_log_counts(system, n) for n in depths]
    elif isinstance(subset, FrequencyWindow):
        per_depth = _markov_window_log_counts(system, depths, subset.symbol,
                                              subset.lo, subset.hi)
    else:
        raise TypeError(f"no counting backend for {type(subset).__name__} on a vertex shift")
    cap = system.k + 1
    extra = [_forced_extension(system.adjacency, s, cap) for s in range(system.k)]
    return [
        (list(zip(lcs, (float(n + e) for e in extra))),
         ["empty-cover"] if all(lc == _LOG_EMPTY for lc in lcs) else [])
        for n, lcs in zip(depths, per_depth)
    ]


def _cloud_groups(subset: SampleCloud, depths):
    return [([(math.log(_distinct_prefixes(subset, n)), float(n))], ["upper-bound-only"])
            for n in depths]


def _union_groups(system: DisjointUnion, subset, depths):
    if isinstance(subset, (WholeSpace, ComponentWindow)):
        sides = [system.left, system.right]
        if isinstance(subset, ComponentWindow):
            sides = [side for side, kept in zip(sides, (subset.lo <= 0.0, subset.hi >= 1.0))
                     if kept]
        if not sides:
            return [([], ["empty-cover"]) for _ in depths]
        per_side = [_map_groups(side, WholeSpace(), depths) for side in sides]
        return [([g for groups, _ in pairs for g in groups], [f for _, fl in pairs for f in fl])
                for pairs in zip(*per_side)]
    if isinstance(subset, FrequencyWindow):
        if subset.component is None:
            raise ValueError("frequency windows on a disjoint union need a component tag")
        side = system.side(subset.component)
        inner = FrequencyWindow(subset.symbol, subset.lo, subset.hi)
        return _map_groups(side, inner, depths)
    if isinstance(subset, SampleCloud):
        return _cloud_groups(subset, depths)
    raise TypeError(f"no counting backend for {type(subset).__name__} on a disjoint union")


def _distinct_prefixes(subset: SampleCloud, depth: int) -> int:
    seen = set()
    for p in subset.points:
        if not p.is_symbolic:
            raise TypeError("sample-cloud backend needs symbolic points")
        seen.add((p.component,) + tuple(int(s) for s in p.prefix(depth)))
    return len(seen)


def _integer_stride(system: TimeTMap):
    """The map time as a whole number of roof crossings, or None when the
    time is fractional."""
    roof = system.flow.roof
    if roof.depth > 0:
        raise TypeError("time-t maps are handled for word-independent roofs only")
    m = system.t / roof.roof_max
    if abs(m - round(m)) > 1e-9 or round(m) < 1:
        if system.t <= 0:
            raise ValueError("the map time must be positive")
        return None
    return int(round(m))


# ---------------------------------------------------------------------------
# entropy estimates


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    lower: float
    upper: float
    depths: Tuple[int, ...]
    alphas: Tuple[float, ...]
    flags: Tuple[str, ...] = ()
    details: Optional[dict] = field(default=None, compare=False)


_DEFAULT_DEPTHS = (16, 24, 36, 54, 80, 120)
_SPANNING_DEPTHS = (20, 30, 40, 50, 60)


def _depth_grid(depths: Optional[Sequence[int]], default: Tuple[int, ...]) -> Tuple[int, ...]:
    """The refinement depths of an estimate (`default` when none are given);
    every depth is a word length, so at least 1."""
    grid = tuple(depths) if depths else default
    if any(d < 1 for d in grid):
        raise ValueError("depths must be >= 1")
    return grid


def _finish(depths, alphas, flags, details=None) -> EntropyEstimate:
    tail = alphas[-3:] if len(alphas) >= 3 else alphas
    return EntropyEstimate(
        value=alphas[-1], lower=min(tail), upper=max(tail),
        depths=tuple(depths), alphas=tuple(alphas),
        flags=tuple(dict.fromkeys(flags)), details=details,
    )


def bowen_entropy_symbolic(system, subset=WholeSpace(),
                           depths: Optional[Sequence[int]] = None,
                           alpha_tol: float = 1e-12) -> EntropyEstimate:
    """Entropy of the subset under a discrete system, from the critical
    exponent of the cylinder covers at each refinement depth.  The reported
    value is the deepest critical exponent; lower/upper give the spread over
    the last three depths (a stability report, not a certificate)."""
    depths = _depth_grid(depths, _DEFAULT_DEPTHS)
    if system.isometric:
        return EntropyEstimate(0.0, 0.0, 0.0, (), (0.0,), ("zero-expansion",))
    if isinstance(system, CircleMult):
        return _mult_entropy(system, subset, depths)
    if isinstance(system, TimeTMap) and isinstance(system.flow, Suspension):
        stride = _integer_stride(system)
        c = system.flow.roof.roof_max
        inner = system.flow.base
        alphas, flags = [], []
        for groups, f in _map_groups(inner, subset, depths):
            if stride is not None:
                # t is a whole number of roofs: the map is a shift power
                scaled = [(lc, math.ceil(sp / stride)) for lc, sp in groups]
            else:
                # fractional time: count map steps until the flow box escapes
                scaled = [
                    (lc, max(math.ceil(_box_span(sp, c, hi) / system.t), 1))
                    for lc, sp in groups
                    for hi in (0.5 * c, c)
                ]
            alphas.append(_critical_alpha(scaled, alpha_tol))
            flags += f
        return _finish(depths, alphas, flags)
    if not system.symbolic:
        raise TypeError(f"no entropy backend for {type(system).__name__}")
    alphas, flags = [], []
    for groups, f in _map_groups(system, subset, depths):
        alphas.append(_critical_alpha(groups, alpha_tol))
        flags += f
    return _finish(depths, alphas, flags)


def _mult_entropy(system: CircleMult, subset, depths) -> EntropyEstimate:
    if not isinstance(subset, WholeSpace):
        raise TypeError("circle multiplication entropy is implemented for the whole space")
    # n-adic arcs at depth j: n^j of them, each surviving j - O(1) steps
    slack = max(1, math.ceil(math.log(4.0) / math.log(system.n)))
    alphas = [
        _critical_alpha([(j * math.log(system.n), float(max(j - slack, 1)))])
        for j in depths
    ]
    return _finish(depths, alphas, [])


def bowen_entropy_flow(flow, subset=WholeSpace(),
                       depths: Optional[Sequence[int]] = None) -> EntropyEstimate:
    """Entropy of the subset under a flow, per unit time.

    Isometric flows (rotation flow, torus translations): every span is
    infinite and the value is exactly 0.  Suspensions with word-independent
    roofs are covered by cylinder-times-half-roof flow boxes whose spans come
    from the rolled-out box geometry; the critical exponent then carries
    units of 1/time."""
    depths = _depth_grid(depths, _DEFAULT_DEPTHS)
    if flow.isometric:
        return EntropyEstimate(0.0, 0.0, 0.0, (), (0.0,), ("zero-expansion",))
    if not isinstance(flow, Suspension):
        raise TypeError(f"no flow entropy backend for {type(flow).__name__}")
    roof = flow.roof
    if roof.depth > 0:
        raise TypeError("flow entropy is implemented for word-independent roofs only")
    c = roof.roof_max
    alphas, flags = [], []
    for groups, f in _map_groups(flow.base, subset, depths):
        boxed = []
        for lc, sp in groups:
            for hi in (0.5 * c, c):
                boxed.append((lc, _box_span(sp, c, hi)))
        alphas.append(_critical_alpha(boxed))
        flags += f
    details = {"time_scale": c}
    return _finish(depths, alphas, flags, details)


# ---------------------------------------------------------------------------
# exact counting route (big integers; independent of the float backends)


@dataclass(frozen=True)
class WordCount:
    depth: int
    count: int
    rate: float            # log(count)/depth, 0 for an empty count


def word_count_rate(system, subset, depth: int) -> WordCount:
    """Exact number of depth-n cylinders meeting the subset, by integer
    arithmetic only.  This is the oracle route the float backends are tested
    against; keep it free of floating-point counting."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    count, = _exact_counts(system, subset, (depth,))
    rate = math.log(count) / depth if count > 0 else 0.0
    return WordCount(depth, count, rate)


def _exact_counts(system, subset, depths) -> list:
    """Exact count at each depth of the grid."""
    if isinstance(subset, SampleCloud) and isinstance(
            system, (FullShift, MarkovShift, DisjointUnion)):
        return [_distinct_prefixes(subset, n) for n in depths]
    if isinstance(system, FullShift):
        k = system.k
        if isinstance(subset, WholeSpace):
            return [k ** n for n in depths]
        if isinstance(subset, FrequencyWindow):
            return [_exact_window_count_full(k, n, subset.lo, subset.hi) for n in depths]
        if isinstance(subset, OscillationWindows):
            return [_exact_oscillation_count(k, n, subset.windows) for n in depths]
    if isinstance(system, MarkovShift):
        if isinstance(subset, WholeSpace):
            return [_exact_markov_count(system, n) for n in depths]
        if isinstance(subset, FrequencyWindow):
            if max(depths) > 400:
                raise BudgetExhausted("exact windowed Markov counts are limited to depth 400")
            return _exact_markov_window_counts(system, depths, subset)
    if isinstance(system, DisjointUnion):
        if isinstance(subset, WholeSpace):
            return [a + b for a, b in zip(_exact_counts(system.left, subset, depths),
                                          _exact_counts(system.right, subset, depths))]
        if isinstance(subset, ComponentWindow):
            totals = [0] * len(depths)
            for side, kept in ((system.left, subset.lo <= 0.0), (system.right, subset.hi >= 1.0)):
                if kept:
                    counts = _exact_counts(side, WholeSpace(), depths)
                    totals = [t + c for t, c in zip(totals, counts)]
            return totals
        if isinstance(subset, FrequencyWindow):
            if subset.component is None:
                raise ValueError("frequency windows on a disjoint union need a component tag")
            side = system.side(subset.component)
            inner = FrequencyWindow(subset.symbol, subset.lo, subset.hi)
            return _exact_counts(side, inner, depths)
    raise TypeError(
        f"no exact count for {type(subset).__name__} on {type(system).__name__}"
    )


def _exact_window_count_full(k: int, n: int, lo: float, hi: float) -> int:
    """Sum of C(n, m) (k-1)^(n-m) over the window's counts m, walking m
    downwards with C(n, m-1) = C(n, m) m / (n-m+1), an exact division."""
    ms = _count_range(n, lo, hi)
    if not ms:
        return 0
    c, p = math.comb(n, ms[-1]), (k - 1) ** (n - ms[-1])
    total = 0
    for m in reversed(ms):
        total += c * p
        c = c * m // (n - m + 1)
        p *= k - 1
    return total


def _exact_markov_count(system: MarkovShift, depth: int) -> int:
    counts = [1] * system.k
    A = system.adjacency
    for _ in range(depth - 1):
        counts = [
            sum(counts[i] for i in range(system.k) if A[i][j]) for j in range(system.k)
        ]
    return sum(counts)


def _exact_markov_window_counts(system: MarkovShift, depths, subset: FrequencyWindow) -> list:
    """Window counts at each depth from one pass.  Each end state's counts
    c_m by symbol count m are packed into one integer, c_m in the w-bit slot
    m; every count is below k^N < 2^w, so no slot carries into the next."""
    k, A, symbol = system.k, system.adjacency, subset.symbol
    N = max(depths)
    w = N * (k - 1).bit_length() + 1
    mask = (1 << w) - 1
    rows = [1 << w if s == symbol else 1 for s in range(k)]
    found = {}
    for n in range(1, N + 1):
        if n in depths:
            total = sum(rows)
            found[n] = sum((total >> (w * m)) & mask
                           for m in _count_range(n, subset.lo, subset.hi))
        if n == N:
            break
        nxt = [0] * k
        for s in range(k):
            for s2 in range(k):
                if A[s][s2]:
                    nxt[s2] += rows[s] << w if s2 == symbol else rows[s]
        rows = nxt
    return [found[n] for n in depths]


def _exact_oscillation_count(k: int, depth: int, windows) -> int:
    prev = {0: 1}
    prev_n = 0
    for n_j, lo, hi in windows:
        if n_j > depth:
            raise ValueError("window scale exceeds the requested depth")
        step = n_j - prev_n
        nxt = {}
        for m2 in _count_range(n_j, lo, hi):
            total = 0
            for m1, ways in prev.items():
                d = m2 - m1
                if 0 <= d <= step:
                    total += ways * math.comb(step, d) * (k - 1) ** (step - d)
            if total:
                nxt[m2] = total
        if not nxt:
            return 0
        prev, prev_n = nxt, n_j
    return sum(prev.values()) * k ** (depth - prev_n)


# ---------------------------------------------------------------------------
# spanning-growth route


def spanning_entropy(system, subset=WholeSpace(),
                     depths: Optional[Sequence[int]] = None,
                     resolution_bits: int = 6,
                     budget: int = 100_000) -> EntropyEstimate:
    """Entropy from the growth rate of minimal (n, eps)-spanning sets at
    eps = 2**-resolution_bits.  On a shift space every (n, eps)-ball is a
    cylinder of length n + resolution_bits, so the minimal spanning count is
    the exact word count at that depth; the growth rate is the slope of its
    logarithm in n, fitted by least squares.  Isometric systems have
    n-independent spanning counts, so their rate is exactly 0.  Independent
    of the critical-exponent route."""
    depths = _depth_grid(depths, _SPANNING_DEPTHS)
    if system.isometric:
        if not isinstance(subset, (WholeSpace, SampleCloud)):
            raise TypeError("rotation spanning counts cover the whole space or a cloud")
        # orbit metric equals the base metric, so one eps-grid spans every n
        eps = 2.0 ** -resolution_bits
        count = math.ceil(1.0 / (2.0 * eps))
        per_depth = tuple(math.log(count) / n for n in depths)
        return EntropyEstimate(
            value=0.0, lower=0.0, upper=max(per_depth),
            depths=depths, alphas=per_depth,
            flags=("zero-expansion",), details={"resolution_bits": resolution_bits},
        )
    if not system.symbolic:
        raise TypeError("the spanning route is implemented for shift spaces")
    if max(depths) + resolution_bits > budget:
        raise BudgetExhausted("spanning depth grid exceeds the counting budget")
    if len(set(depths)) < 2:
        raise ValueError("need at least two distinct depths to fit a growth rate")
    m = resolution_bits
    counts = _exact_counts(system, subset, [n + m for n in depths])
    if 0 in counts:
        return EntropyEstimate(0.0, 0.0, 0.0, tuple(depths), (0.0,), ("empty-cover",))
    logs = [_log_of_big(count) for count in counts]
    xs = np.asarray(depths, dtype=float)
    ys = np.asarray(logs)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    spread = float(np.abs(resid).max())
    per_depth = tuple(float(y / (x + m)) for x, y in zip(xs, ys))
    return EntropyEstimate(
        value=float(slope), lower=float(slope - spread), upper=float(slope + spread),
        depths=tuple(depths), alphas=per_depth,
        details={"resolution_bits": m},
    )


def _log_of_big(count: int) -> float:
    # log of a possibly huge integer without overflowing float conversion
    if count.bit_length() <= 900:
        return math.log(count)
    shift = count.bit_length() - 64
    return math.log(count >> shift) + shift * math.log(2.0)
