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
n-cylinders meeting the target set, so everything reduces to counting words.
`_shift_pairs` splits a (system, subset) pair into (shift, subset) pairs
(circle multiplication on its n-ary digits) by what each subset kind answers.
`WholeSpace` has both sides of a disjoint union `kept`, a `ComponentWindow`
the sides its fractions, 0 or 1, allow.  The whole space and a
`FrequencyWindow` (on one `symbol`, tagged with a union `component` or not)
are `counted_on` any shift, an `OscillationWindows` on one that forbids no
transition: there by their windows (scale, lo, hi) `at(depth)`, elsewhere by
their own `log_counts` and `exact_counts`.  A `SampleCloud` is a `cloud`,
counted by its points' distinct prefixes on any shift space; it and the
whole space lie `on_any_space`, where an isometric system's spanning grid
covers them.  Every other pair raises `UnsupportedSubset`, on every route
(exit 2 from the CLI).

The float route (log-gamma sums, log-scaled matrix powers, dynamic programs)
and the exact big-integer counts of `word_count_rate`, which also drive the
spanning-set growth estimate, share only the window list; tests compare them.
Each backend counts an estimate's whole depth grid in one pass to its deepest
depth, and the exact route packs each state's counts by symbol count into one
integer.

Suspension flows are handled for word-independent roofs: each depth-n
cylinder times a half-roof fiber interval is a cover element whose span is
read off the rolled-out flow-box geometry (the span of ([w], [a,b)) under a
constant roof c is |w| c + c/4 - b).  Isometric systems (rotations and
translations, and their time-t maps) have zero expansion, so every span is
infinite and the entropy is exactly 0.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .systems import BudgetExhausted, MarkovShift, Point, Record, Suspension

__all__ = [
    "WholeSpace", "FrequencyWindow", "OscillationWindows", "ComponentWindow",
    "SampleCloud", "UnsupportedSubset", "caratheodory_sum", "EntropyEstimate",
    "bowen_entropy_symbolic", "bowen_entropy_flow", "spanning_entropy",
    "word_count_rate", "WordCount",
]


# ---------------------------------------------------------------------------
# target-set descriptions


class UnsupportedSubset(TypeError, ValueError):
    """No counting route for this subset of this system, or for any subset of
    it (a suspension under a word-dependent roof).  It is both error types the
    estimators once raised for such pairs, so handlers of either catch it."""


class _Subset(Record):
    """The answers of the module docstring: by default no tag, no symbol, no
    union sides kept and no shift that counts it."""

    component = symbol = kept = None
    cloud = on_any_space = False
    counted_on = lambda self, shift: False


class WholeSpace(_Subset):
    kept, on_any_space = (True, True), True
    counted_on = lambda self, shift: True
    exact_counts = lambda self, shift, depths: _packed_counts(shift, depths, 0, 0)

    def at(self, depth: int) -> tuple:
        return ()

    def log_counts(self, shift, depths) -> list:
        """log of the admissible words of each depth ending in each state, from
        one log-scaled power of the adjacency matrix."""
        A, v, scale, found = np.array(shift.adjacency, dtype=float), np.ones(shift.k), 0.0, {}
        for n in range(1, max(depths) + 1):
            if n in depths:
                with np.errstate(divide="ignore"):
                    found[n] = np.where(v > 0, np.log(np.maximum(v, 1e-300)) + scale, _LOG_EMPTY)
            v = v @ A
            m = v.max()                 # > 0: every state has a successor
            v, scale = v / m, scale + math.log(m)
        return [found[n] for n in depths]


class FrequencyWindow(_Subset):
    """Points whose asymptotic frequency of `symbol` lies in [lo, hi]."""

    symbol: int
    lo: float
    hi: float
    component: Optional[int] = None
    counted_on = WholeSpace.counted_on

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError("need 0 <= lo <= hi <= 1")

    def at(self, depth: int) -> tuple:
        return ((depth, self.lo, self.hi),)

    def log_counts(self, shift, depths) -> list:
        return _markov_window_log_counts(shift, depths, self.symbol, self.lo, self.hi)

    def exact_counts(self, shift, depths) -> list:
        """The slots of the window's symbol counts, each below k^N < 2^w."""
        if max(depths) > 400:
            raise BudgetExhausted("exact windowed Markov counts are limited to depth 400")
        w = max(depths) * (shift.k - 1).bit_length() + 1
        return [sum((total >> (w * m)) & ((1 << w) - 1) for m in _count_range(n, self.lo, self.hi))
                for n, total in zip(depths, _packed_counts(shift, depths, self.symbol, w))]


class OscillationWindows(_Subset):
    """Points whose running frequency of `symbol` visits [lo_j, hi_j] at each
    scale n_j: windows = ((n_1, lo_1, hi_1), ...) with increasing scales."""

    symbol: int
    windows: Tuple[Tuple[int, float, float], ...]
    counted_on = lambda self, shift: shift.forbids_nothing

    def __post_init__(self):
        ws = self.windows
        if not ws:
            raise ValueError("need at least one window")
        if any(a[0] >= b[0] for a, b in zip(ws[:-1], ws[1:])):
            raise ValueError("window scales must be strictly increasing")
        if any(not (0.0 <= lo <= hi <= 1.0) for _, lo, hi in ws):
            raise ValueError("windows must satisfy 0 <= lo <= hi <= 1")

    def at(self, depth: int) -> tuple:
        if self.windows[-1][0] > depth:
            raise ValueError("window scale exceeds the requested depth")
        return self.windows


class ComponentWindow(_Subset):
    """Points of a disjoint union whose fraction of time in the second
    component lies in [lo, hi].  Orbits never switch sides, so the only
    admissible fractions are 0 and 1."""

    lo: float
    hi: float
    kept = property(lambda self: (self.lo <= 0.0, self.hi >= 1.0))

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError("need 0 <= lo <= hi <= 1")


class SampleCloud(_Subset):
    """A finite set of sample points; covering them gives an upper bound."""

    points: Tuple[Point, ...]
    cloud = on_any_space = True

    def __post_init__(self):
        if not self.points:
            raise ValueError("sample cloud must be nonempty")

    def distinct(self, depth: int) -> int:
        """Its points' distinct (component, depth-prefix) pairs; TypeError on coordinates."""
        return len({(p.component, *map(int, p.prefix(depth))) for p in self.points})


def _shift_pairs(system, subset) -> list:
    """The (shift, subset) pairs whose word counts add up to the subset's;
    every other pair, and a window on a symbol outside the alphabet, raises."""
    if len(system.sides) > 1:
        if subset.component in (0, 1):
            return _shift_pairs(system.side(subset.component), subset._replace(component=None))
        if subset.kept is None:
            raise UnsupportedSubset(f"no count of {type(subset).__name__} on a disjoint "
                                    "union (a frequency window needs a component tag 0 or 1)")
        return [pair for side, keep in zip(system.sides, subset.kept) if keep
                for pair in _shift_pairs(side, WholeSpace())]
    if subset.component is not None:
        raise UnsupportedSubset(f"a component tag needs a disjoint union, not {system}")
    system = system.digits
    if not system.symbolic or not subset.counted_on(system):
        raise UnsupportedSubset(f"no count of {type(subset).__name__} on {system}")
    if subset.symbol is not None and not 0 <= subset.symbol < system.alphabet:
        raise UnsupportedSubset(f"symbol {subset.symbol} is outside the alphabet of {system}")
    return [(system, subset)]


# ---------------------------------------------------------------------------
# cover spans


def _forced_extension(adjacency, state: int, cap: int) -> int:
    """Extra steps the cylinder keeps determining symbols (forced transitions)."""
    for extra in range(cap):
        if sum(adjacency[state]) != 1:
            return extra
        state = adjacency[state].index(1)
    return cap


def _constant_roof(flow: Suspension) -> float:
    """The roof height of a suspension whose roof reads no word."""
    if flow.roof.depth > 0:
        raise UnsupportedSubset("entropy is implemented for word-independent roofs "
                                f"only, not {flow.roof}")
    return flow.roof.roof_max


def _flow_boxes(groups, c: float) -> list:
    """Each (log_count, steps) cylinder group as two flow boxes under the
    constant roof c, fibers below hi = c/2 and below hi = c.  A box stays
    certain for the accumulated roof time plus a quarter of the final roof,
    less hi; past that its base shadow is no longer a single cylinder."""
    return [(lc, steps * c + 0.25 * c - hi) for lc, steps in groups for hi in (0.5 * c, c)]


# ---------------------------------------------------------------------------
# counting backends (float route)

_LOG_EMPTY = -math.inf


def _logsumexp(values) -> float:
    """log sum exp(values), -inf for none; under 8 terms, numpy's bits without its round
    trip: a scalar np.exp each, added in index order (math.exp and sum differ)."""
    if len(values) >= 8:
        arr = np.asarray(values, dtype=float)
        arr = arr[arr > _LOG_EMPTY]
        m = arr.max(initial=_LOG_EMPTY)
        return float(m + math.log(np.exp(arr - m).sum())) if arr.size else _LOG_EMPTY
    live = [v for v in values if v > _LOG_EMPTY]
    m, total = max(live, default=_LOG_EMPTY), 0.0
    for v in live:
        total += float(np.exp(v - m))
    return float(m + math.log(total)) if live else _LOG_EMPTY


def _count_range(n: int, lo: float, hi: float) -> range:
    lo_m = math.ceil(lo * n - 1e-9)
    hi_m = math.floor(hi * n + 1e-9)
    return range(max(lo_m, 0), min(hi_m, n) + 1)


def _jumps(allowed: range, prev, step: int) -> range:
    """The count jumps d in [0, step] that lead from a count in `prev` into `allowed`."""
    return range(max(allowed.start - max(prev), 0), min(allowed.stop - 1 - min(prev), step) + 1)


def _log_comb_jump(k: int, depth: int, windows, ways=None) -> float:
    """Log count of the length-`depth` words over k symbols whose running
    count of one symbol lies in each window's range at its scale, free past
    the last scale: the (log ways, last scale) of `_log_window_ways`, or
    `ways` where the caller has them, plus log k per free step."""
    log_ways, last = ways or _log_window_ways(k, windows)
    return log_ways + (depth - last) * math.log(k)


def _log_window_ways(k: int, windows) -> tuple:
    """The window DP: the log ways through the last scale, and that scale.
    Between scales the count jumps by d in C(step, d) (k-1)^(step-d) ways."""
    other = math.log(k - 1)
    prev_n, prev = 0, {0: 0.0}          # count at the last scale -> log ways
    for n_j, lo, hi in windows:
        step, allowed = n_j - prev_n, _count_range(n_j, lo, hi)
        log_steps = math.lgamma(step + 1)
        row = {d: log_steps - math.lgamma(d + 1) - math.lgamma(step - d + 1)
               for d in _jumps(allowed, prev, step)}                    # log C(step, d)
        nxt = {}
        for m2 in allowed:
            v = _logsumexp([lw + row[m2 - m1] + (step - m2 + m1) * other
                            for m1, lw in prev.items() if m2 - m1 in row])
            if v > _LOG_EMPTY:
                nxt[m2] = v
        if not nxt:
            return _LOG_EMPTY, 0
        prev, prev_n = nxt, n_j
    return _logsumexp(list(prev.values())), prev_n


def _per_window_set(count, dp, k: int, sub, depths) -> list:
    """count(k, n, sub.at(n), ways) at each depth n, with the ways from the
    window DP `dp` run once per distinct window set."""
    sets = [sub.at(n) for n in depths]
    ways = {w: dp(k, w) for w in set(sets)}
    return [count(k, n, w, ways[w]) for n, w in zip(depths, sets)]


_BLOCK = 64                                 # steps the window program takes at a time


def _window_tilt(A: np.ndarray, symbol: int, lo: float, hi: float):
    """(theta, log rho(theta)), rho(theta) the Perron root of A diag(e^(theta 1_symbol)),
    for the grid tilt whose symbol frequency, the slope of log rho, is nearest
    clamp(p*, lo, hi), p* the untilted frequency (the least tilt on a tie).  log rho,
    which the steps and reads need only to share, comes from the 2^16-th power by
    squaring (eigvals would add LAPACK's 1 MB to the resident size of a run)."""
    tilts = np.linspace(-8.0, 8.0, 129)     # e^(8 _BLOCK) and its inverse fit a double
    power, tops = A * np.exp(np.outer(tilts, np.arange(len(A)) == symbol))[:, None, :], []
    for _ in range(16):
        power = (power[:, :, :, None] * power[:, None, :, :]).sum(axis=2)
        tops.append(power.max(axis=(1, 2)))
        power /= tops[-1][:, None, None]
    log_rho = (np.log(tops) / 2.0 ** np.arange(1, 17)[:, None]).sum(axis=0)
    freq = (log_rho[2:] - log_rho[:-2]) / (tilts[2] - tilts[0])     # at tilts[1:-1]
    target = min(max(freq[len(freq) // 2], lo), hi)
    i = 1 + np.argmin(np.abs(freq - target) + 1e-9 * np.abs(tilts[1:-1]))
    return float(tilts[i]), float(log_rho[i])


def _propagate(table, exps, kernel, width: int):
    """Row s2 after the paths of `kernel`: the sum over s of table[s] 2^exps[s]
    convolved with kernel[s, s2], top value scaled into [1/2, 1) by its exponent."""
    live, reach = np.flatnonzero(table.any(axis=1)), kernel.any(axis=2)
    rows, out = np.zeros_like(table), np.zeros_like(exps)
    for s2 in range(len(table)):
        src = [s for s in live if reach[s, s2]]
        if src:
            top = max(exps[s] for s in src)
            for s in src:
                rows[s2] += np.ldexp(np.convolve(table[s], kernel[s, s2])[:width], exps[s] - top)
            e = math.frexp(rows[s2].max())[1]
            rows[s2], out[s2] = np.ldexp(rows[s2], -e), top + e
    return rows, out


def _markov_window_log_counts(system: MarkovShift, depths, symbol: int,
                              lo: float, hi: float) -> list:
    """Per-end-state log counts of admissible words with the symbol frequency
    in the window, one array per depth, from one linear-space program over
    (end state, symbol count) run _BLOCK steps at a time to the deepest depth.

    A length-n word with m symbols weighs e^(theta m - (n - 1) log rho), which
    centres the weights on the window point nearest the untilted frequency,
    where the largest counts lie (untilted, a far window underflows to 0); a
    read takes the tilt off column by column in log space.  A read is the same
    on any depth grid: blocks end at n = 1 + j _BLOCK, a read applies the
    partial kernel from the last block end without advancing the table and
    splits each value into mantissa and exponent, and a wider table only adds
    columns (counts never fall; at least _BLOCK + 2 wide, no swap in `np.convolve`)."""
    k, A = system.k, np.array(system.adjacency, dtype=float)
    theta, log_rho = _window_tilt(A, symbol, lo, hi)
    into = A * np.exp(np.where(np.arange(k) == symbol, theta, 0.0) - log_rho)
    kernels = np.zeros((_BLOCK + 1, k, k, _BLOCK + 1))  # [steps, s, s2, symbol arrivals]
    kernels[0, range(k), range(k), 0] = 1.0
    for r in range(_BLOCK):
        step = (kernels[r][:, :, None, :] * into[None, :, :, None]).sum(axis=1)
        step[:, symbol] = np.roll(step[:, symbol], 1, axis=-1)  # an arrival; column _BLOCK is 0
        kernels[r + 1] = step
    width = max(max(_count_range(n, lo, hi).stop for n in depths), _BLOCK + 2)
    table, exps, done, found = np.zeros((k, width)), np.zeros(k, dtype=int), 1, {}
    table[:, 0] = 1.0                                   # the length-`done` words
    table[symbol, :2] = 0.0, math.exp(theta)
    for n in sorted(set(depths)):
        while done + _BLOCK <= n:
            table, exps = _propagate(table, exps, kernels[_BLOCK], width)
            done += _BLOCK
        rows, rexps = _propagate(table, exps, kernels[n - done], width)
        cols = _count_range(n, lo, hi)
        mant, e = np.frexp(rows[:, cols.start:cols.stop])
        with np.errstate(divide="ignore"):
            logs = np.log(mant) + (e + rexps[:, None]) * math.log(2) \
                + ((n - 1) * log_rho - theta * np.arange(cols.start, cols.stop))
        found[n] = np.array([_logsumexp(row) for row in logs])
    return [found[n] for n in depths]


def _map_groups(system, subset, depths):
    """One (groups, flags) pair per depth: the (log_count, span) groups of
    the depth-n cylinder cover of the subset, plus flags.  On a shift that
    forbids nothing the window DP runs once per distinct window set; each end
    state of a shift that forbids a transition spans its forced extension too."""
    if subset.cloud and system.symbolic:
        return [([(math.log(subset.distinct(n)), float(n))], ["upper-bound-only"])
                for n in depths]
    merged = [[] for _ in depths]
    for shift, sub in _shift_pairs(system, subset):
        if shift.forbids_nothing:
            parts = [[(lc, float(n))] for n, lc in zip(depths, _per_window_set(
                _log_comb_jump, _log_window_ways, shift.k, sub, depths))]
        else:
            extra = [_forced_extension(shift.adjacency, s, shift.k + 1) for s in range(shift.k)]
            parts = [list(zip(lcs, (float(n + e) for e in extra)))
                     for n, lcs in zip(depths, sub.log_counts(shift, depths))]
        merged = [groups + part for groups, part in zip(merged, parts)]
    return [(groups, [] if any(lc > _LOG_EMPTY for lc, _ in groups) else ["empty-cover"])
            for groups in merged]


def caratheodory_sum(groups: Sequence[Tuple[float, float]], alpha: float) -> float:
    """log of the order-alpha sum sum_i count_i * exp(-alpha * span_i) over
    (log_count, span) groups with finite spans; -inf for no groups.  The
    estimators bisect for the alpha where it crosses 0.  Spans are
    nonnegative, so the sum is nonincreasing in alpha."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return _logsumexp([lc - alpha * sp for lc, sp in groups])


_ALPHA_TOL = 1e-12      # the bracket width at which the bisection stops


def _critical_alpha(groups) -> float:
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
        if hi - lo <= _ALPHA_TOL:
            break
        mid = 0.5 * (lo + hi)
        s = caratheodory_sum(groups, mid)
        if s > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# entropy estimates


class EntropyEstimate(Record):
    value: float
    lower: float
    upper: float
    depths: Tuple[int, ...]
    alphas: Tuple[float, ...]
    flags: Tuple[str, ...] = ()
    details: Optional[dict] = None
    _uncompared = ("details",)


_DEFAULT_DEPTHS = (16, 24, 36, 54, 80, 120)
_SPANNING_DEPTHS = (20, 30, 40, 50, 60)


def _depth_grid(depths: Optional[Sequence[int]], default: Tuple[int, ...]) -> Tuple[int, ...]:
    """The refinement depths of an estimate (`default` when none are given);
    every depth is a word length, so at least 1."""
    grid = tuple(depths) if depths else default
    if any(d < 1 for d in grid):
        raise ValueError("depths must be >= 1")
    return grid


def _estimate(system, subset, depths, spans, details=None):
    """The critical exponent at each depth of the cylinder cover, its spans
    rewritten by `spans`, bracketed by the last three."""
    alphas, flags = [], []
    for groups, f in _map_groups(system, subset, depths):
        alphas.append(_critical_alpha(spans(groups)))
        flags += f
    tail = alphas[-3:]
    return EntropyEstimate(alphas[-1], min(tail), max(tail), tuple(depths), tuple(alphas),
                           tuple(dict.fromkeys(flags)), details)


def bowen_entropy_symbolic(system, subset=WholeSpace(),
                           depths: Optional[Sequence[int]] = None) -> EntropyEstimate:
    """Entropy of the subset under a discrete system, from the critical
    exponent of the cylinder covers at each refinement depth.  The reported
    value is the deepest critical exponent; lower/upper give the spread over
    the last three depths (a stability report, not a certificate)."""
    depths = _depth_grid(depths, _DEFAULT_DEPTHS)
    if system.isometric:
        return EntropyEstimate(0.0, 0.0, 0.0, (), (0.0,), ("zero-expansion",))
    if system.space is system:  # not a time-t map, whose points live in a suspension
        return _estimate(system, subset, depths, lambda groups: groups)
    c, t, stride = _constant_roof(system.flow), system.t, system.stride

    def spans(groups):
        if stride is not None:          # t is a whole number of roofs: a shift power
            return [(lc, math.ceil(sp / stride)) for lc, sp in groups]
        # fractional time: count map steps until the flow box escapes
        return [(lc, max(math.ceil(sp / t), 1)) for lc, sp in _flow_boxes(groups, c)]

    return _estimate(system.flow.base, subset, depths, spans)


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
    if not flow.is_flow or flow.carrier is flow:     # not a suspension
        raise TypeError(f"no flow entropy backend for {type(flow).__name__}")
    c = _constant_roof(flow)
    return _estimate(flow.base, subset, depths, lambda groups: _flow_boxes(groups, c),
                     details={"time_scale": c})


# ---------------------------------------------------------------------------
# exact counting route (big integers; independent of the float backends)


class WordCount(Record):
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
    if subset.cloud and system.symbolic:
        return [subset.distinct(n) for n in depths]
    totals = [0] * len(depths)
    for shift, sub in _shift_pairs(system, subset):
        counts = (_per_window_set(_comb_jump, _window_ways, shift.k, sub, depths)
                  if shift.forbids_nothing else sub.exact_counts(shift, depths))
        totals = [t + c for t, c in zip(totals, counts)]
    return totals


def _packed_counts(shift, depths, symbol: int, w: int) -> list:
    """The admissible words of each depth, from one pass to the deepest: each
    end state's counts c_m by count m of `symbol` packed into one integer,
    c_m in the w-bit slot m, summed over the states (w = 0 adds them up)."""
    k, A, found = shift.k, shift.adjacency, {}
    rows = [1 << w if s == symbol else 1 for s in range(k)]
    for n in range(1, max(depths) + 1):
        if n in depths:
            found[n] = sum(rows)
        rows = [sum(rows[s] << w if s2 == symbol else rows[s] for s in range(k) if A[s][s2])
                for s2 in range(k)]
    return [found[n] for n in depths]


def _comb_jump(k: int, depth: int, windows, ways=None) -> int:
    """The integer count `_log_comb_jump` takes the log of, from the
    (count, last scale) of `_window_ways` or `ways`."""
    count, last = ways or _window_ways(k, windows)
    return count * k ** (depth - last)


def _window_ways(k: int, windows) -> tuple:
    """`_log_window_ways` in integers.  Each step's row C(step, d)
    (k-1)^(step-d) over the reachable jumps d is walked downwards with
    C(step, d-1) = C(step, d) d / (step-d+1), an exact division."""
    prev_n, prev = 0, {0: 1}
    for n_j, lo, hi in windows:
        step, allowed = n_j - prev_n, _count_range(n_j, lo, hi)
        jumps, row = _jumps(allowed, prev, step), {}
        if jumps:
            c, p = math.comb(step, jumps[-1]), (k - 1) ** (step - jumps[-1])
            for d in reversed(jumps):
                row[d] = c * p
                c = c * d // (step - d + 1)
                p *= k - 1
        nxt = {}
        for m2 in allowed:
            total = sum([ways * row[m2 - m1] for m1, ways in prev.items() if m2 - m1 in row])
            if total:
                nxt[m2] = total
        if not nxt:
            return 0, 0
        prev, prev_n = nxt, n_j
    return sum(prev.values()), prev_n


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
    logarithm in n, fitted by least squares in closed form (np.polyfit would page
    in LAPACK's 1 MB).  Isometric systems have n-independent spanning counts,
    so their rate is exactly 0.  Independent of the critical-exponent route."""
    depths = _depth_grid(depths, _SPANNING_DEPTHS)
    if resolution_bits < 0:
        raise ValueError("resolution_bits must be >= 0 (eps = 2**-resolution_bits <= 1)")
    if system.isometric:
        if not subset.on_any_space:
            raise UnsupportedSubset("rotation spanning counts cover the whole space or a cloud")
        # orbit metric equals the base metric, so one eps-grid spans every n
        count = math.ceil(1.0 / (2.0 * 2.0 ** -resolution_bits))   # cells of width 2 eps
        per_depth = tuple(math.log(count) / n for n in depths)
        return EntropyEstimate(0.0, 0.0, max(per_depth), depths, per_depth, ("zero-expansion",),
                               {"resolution_bits": resolution_bits})
    if max(depths) + resolution_bits > budget:
        raise BudgetExhausted("spanning depth grid exceeds the counting budget")
    if len(set(depths)) < 2:
        raise ValueError("need at least two distinct depths to fit a growth rate")
    counts = _exact_counts(system, subset, [n + resolution_bits for n in depths])
    if 0 in counts:
        return EntropyEstimate(0.0, 0.0, 0.0, tuple(depths), (0.0,), ("empty-cover",))
    xs = np.asarray(depths, dtype=float)
    ys = np.asarray([_log_of_big(count) for count in counts])
    slope, intercept = 0.0, ys[0]
    if len(set(counts)) > 1:        # the line through the means
        dx = xs - xs.mean()
        slope = (dx * (ys - ys.mean())).sum() / (dx * dx).sum()
        intercept = ys.mean() - slope * xs.mean()
    spread = float(np.abs(ys - (slope * xs + intercept)).max())
    per_depth = tuple(float(y / (x + resolution_bits)) for x, y in zip(xs, ys))
    return EntropyEstimate(float(slope), float(slope - spread), float(slope + spread),
                           tuple(depths), per_depth, details={"resolution_bits": resolution_bits})


def _log_of_big(count: int) -> float:
    # log of a possibly huge integer without overflowing float conversion
    if count.bit_length() <= 900:
        return math.log(count)
    shift = count.bit_length() - 64
    return math.log(count >> shift) + shift * math.log(2.0)
