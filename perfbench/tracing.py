"""Span recording around the public functions of each `ergode` module.

The program is not edited: `Tracer.installed()` rebinds every `ergode.*`
module attribute that refers to a traced function, and the rule classes'
`materialise`, to a wrapper that records a span, and restores the originals on
exit.  Spans are (name, start, end, parent index) tuples kept in memory.
Self time (duration minus the time covered by child spans) and call counts
are accumulated per span name as spans close.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# span name -> functions it covers, as (module, attribute) pairs
TRACED = {
    "config.load_config": [("config", "load_config")],
    "systems.materialise": [("systems", "SeededIID.materialise"),
                            ("systems", "BlockSchedule.materialise"),
                            ("systems", "ExplicitWord.materialise")],
    "measures.integrate": [("measures", "integrate")],
    "measures.time_average_measure": [("measures", "time_average_measure")],
    "birkhoff.classify": [("birkhoff", "classify_generic"),
                          ("birkhoff", "classify_irregular")],
    "birkhoff.flow_average": [("birkhoff", "flow_average_profile"),
                              ("birkhoff", "birkhoff_average_flow")],
    "birkhoff.profile": [("birkhoff", "birkhoff_profile"),
                         ("birkhoff", "birkhoff_average_map")],
    "birkhoff.limit_point_set": [("birkhoff", "limit_point_set")],
    "entropy.caratheodory": [("entropy", "bowen_entropy_symbolic"),
                             ("entropy", "bowen_entropy_flow")],
    "entropy.spanning": [("entropy", "spanning_entropy"),
                         ("entropy", "word_count_rate")],
    "constructions.irregular_point": [("constructions", "irregular_point")],
    "constructions.generic_point": [("constructions", "generic_point")],
    "constructions.glue_orbits": [("constructions", "glue_orbits")],
    "reporting.write_csv": [("reporting", "write_csv")],
    "cli.main": [("cli", "main")],
}


def _stream_length(point) -> int:
    """Symbols a constructed point holds; a seeded stream holds none yet."""
    rule = point.rule
    if hasattr(rule, "block_ends"):
        return rule.block_ends()[-1]
    return len(getattr(rule, "symbols", ()))


def _count(name, args, result, counters):
    """Work counters read from a closing span's arguments and result."""
    if name == "systems.materialise":
        counters["systems.materialise_symbols"] += args[1]
    elif name == "birkhoff.classify":
        counters["birkhoff.classify_decisive"] += result.label != "Inconclusive"
    elif name in ("entropy.caratheodory", "entropy.spanning"):
        counters["entropy.depths"] += len(getattr(result, "depths", (0,)))
    elif name == "constructions.generic_point":
        counters["constructions.symbols_built"] += _stream_length(result)
    elif name in ("constructions.irregular_point", "constructions.glue_orbits"):
        counters["constructions.symbols_built"] += _stream_length(result.point)


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.self_s = {}         # name -> summed self time
        self.calls = {}          # name -> call count
        self.counters = {
            "systems.materialise_symbols": 0,
            "birkhoff.classify_decisive": 0,
            "entropy.depths": 0,
            "constructions.symbols_built": 0,
        }
        self._stack = []         # open spans: [name, start, child time, index]

    def _wrap(self, name, fn):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            frame = [name, time.perf_counter(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                spans[index] = (name, frame[1], end, parent[3] if parent else -1)
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]
                self.calls[name] = self.calls.get(name, 0) + 1
                if parent is not None:
                    parent[2] += duration
            # counted once per outermost call, so recursion is not double counted
            if parent is None or parent[0] != name:
                _count(name, args, result, self.counters)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced functions inside every loaded `ergode` module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ergode" or n.startswith("ergode.")]
        undo = []
        for name, targets in TRACED.items():
            for module, attr in targets:
                owner = sys.modules[f"ergode.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, original))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
        try:
            yield self
        finally:
            for obj, key, original in reversed(undo):
                setattr(obj, key, original)
