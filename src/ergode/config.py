"""Config files: one field table per section, a validator, and the builders.

A config is one experiment: a command, an experiment id, and the objects the
command needs.  Each section (the top level, a system, a roof, a measure, ...)
has a table of kinds; each kind lists the fields it reads, the defaults of
the optional ones, and the builder that turns a checked dict into an object.
A missing field, a wrong type or bound, an unknown kind, a field the kind does
not read, and a problem only a constructor sees (a measure on the wrong
alphabet, say) are all a ConfigError, which the CLI turns into exit code 2.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Callable, NamedTuple, Optional

from .systems import (
    BlockSchedule, CircleMult, CircleRotation, CircleRotationFlow, Coordinate,
    DisjointUnion, ExplicitWord, FullShift, MarkovShift, Point, RoofFunction,
    SeededIID, SteeredBlocks, Suspension, TimeTMap, TorusTranslation,
)
from .measures import (
    Atomic, Bernoulli, Constant, CylinderIndicator, FiberProfile, Harmonic,
    Lebesgue, Markov, Mixture,
)
from .birkhoff import Schedule
from .entropy import (
    ComponentWindow, FrequencyWindow, OscillationWindows, SampleCloud,
    WholeSpace,
)
from .constructions import MistakeFunction, StageRecipe

__all__ = ["ConfigError", "load_config", "config_digest", "COMMANDS", "build",
           "build_system", "build_measure", "build_point", "build_observable",
           "build_subset", "build_schedule", "build_mistake_function"]


class ConfigError(ValueError):
    """The config file is malformed or semantically invalid."""


# Field specs are tuples headed by what they check.  ("integer", lo) is an
# integer >= lo and ("number", lo) a number > lo; a lo of None is no bound.
INT, NUM, POSITIVE, COUNT = ("integer", None), ("number", None), ("number", 0), ("integer", 1)
SYSTEM, MEASURE, POINT = ("ref", "system"), ("ref", "measure"), ("ref", "point")
OBSERVABLE, SUBSET, SCHEDULE = ("ref", "observable"), ("ref", "subset"), ("ref", "schedule")
COMPONENT = (("nullable", INT), None)     # an optional union-side tag, none by default


def listof(item, min_items=0):
    return ("list", item, min_items)


def tupleof(*items):
    return ("tuple", items)


class Kind(NamedTuple):
    build: Optional[Callable]     # checked fields -> object; None at the top level
    required: dict                # field -> spec
    optional: dict = {}           # field -> (spec, default)


class Pick(NamedTuple):
    """The kinds of a section, picked by the value of one field (by a
    function of the dict for the roof); a kind may itself be a Pick."""
    field: object
    kinds: dict
    default: Optional[str] = None


def _reject(path, msg):
    where = "/".join(str(p) for p in path) or "(top level)"
    raise ConfigError(f"config rejected at {where}: {msg}")


def _pick(section: str, obj: dict, path=()):
    """(kind names, Kind, picking fields, obj with the kind's defaults) of a section dict."""
    pick, names, picked = SECTIONS[section], [], {}
    while type(pick) is Pick:
        if callable(pick.field):
            name = pick.field(obj)
        else:
            name = obj.get(pick.field, pick.default)
            if name is None and pick.field not in obj:
                _reject(path, f"{pick.field!r} is a required property")
            if type(name) is not str or name not in pick.kinds:
                _reject((*path, pick.field), f"{name!r} is not one of {list(pick.kinds)!r}")
            picked[pick.field] = name
        names.append(name)
        pick = pick.kinds[name]
    return names, pick, picked, {**{f: d for f, (_, d) in pick.optional.items()}, **picked, **obj}


def _check_object(section: str, obj, path=()) -> dict:
    """obj checked against its kind's fields, with the kind's defaults filled in."""
    if type(obj) is not dict:
        _reject(path, f"{obj!r} is not of type 'object'")
    names, kind, picked, filled = _pick(section, obj, path)
    for field in kind.required:
        if field not in obj:
            _reject(path, f"{field!r} is a required property")
    for field, value in obj.items():
        spec = kind.required.get(field) or kind.optional.get(field, (None,))[0]
        if spec is not None:
            _check(spec, value, (*path, field))
        elif field not in picked:
            _reject(path, f"{field!r} is not read by {section} {' '.join(names)!r}")
    return filled


_TYPES = {"integer": (int, float), "number": (int, float), "string": (str,),
          "list": (list,), "tuple": (list,)}


def _check(spec, v, path, null=""):
    tag = spec[0]
    if tag == "nullable":
        if v is not None:
            _check(spec[1], v, path, ", 'null'")
    elif tag == "ref":
        _check_object(spec[1], v, path)
    elif tag == "enum":
        if type(v) is not str or v not in spec[1]:
            _reject(path, f"{v!r} is not one of {list(spec[1])!r}")
    elif type(v) not in _TYPES[tag] or tag == "integer" and type(v) is float and not v.is_integer():
        _reject(path, f"{v!r} is not of type {'array' if tag in ('list', 'tuple') else tag!r}{null}")
    elif tag == "integer" and spec[1] is not None and v < spec[1]:
        _reject(path, f"{v!r} is less than the minimum of {spec[1]!r}")
    elif tag == "number" and spec[1] is not None and v <= spec[1]:
        _reject(path, f"{v!r} is less than or equal to the minimum of {spec[1]!r}")
    elif tag == "string" and not v:
        _reject(path, f"{v!r} should be non-empty")
    elif tag == "list" and len(v) < spec[2]:
        _reject(path, f"{v!r} should be non-empty")
    elif tag == "tuple" and len(v) != len(spec[1]):
        _reject(path, f"{v!r} is too {'short' if len(v) < len(spec[1]) else 'long'}")
    elif tag in ("list", "tuple"):
        items = spec[1] if tag == "tuple" else (spec[1],) * len(v)
        for i, (item_spec, item) in enumerate(zip(items, v)):
            _check(item_spec, item, (*path, i))


def load_config(path: str) -> dict:
    """The checked top level of a config file, its command's defaults filled in."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = _check_object("command", cfg)
    cfg["_sha256"] = hashlib.sha256(raw.encode("utf-8")).hexdigest()
    return cfg


def config_digest(cfg: dict) -> str:
    return cfg.get("_sha256", "unknown")


def build(section: str, obj: dict):
    """The object a checked dict of the section describes."""
    names, kind, _, fields = _pick(section, obj)
    try:
        return kind.build(fields)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {section} '{names[-1]}': {exc}") from exc


build_system = functools.partial(build, "system")
build_measure = functools.partial(build, "measure")
build_point = functools.partial(build, "point")
build_observable = functools.partial(build, "observable")
build_subset = functools.partial(build, "subset")


def build_schedule(obj: Optional[dict], flow: bool) -> Schedule:
    if obj is None:
        return Schedule.for_flow() if flow else Schedule.for_map()
    return build("schedule", obj)


def build_mistake_function(obj: Optional[dict]) -> MistakeFunction:
    return MistakeFunction.zero() if obj is None else build("mistake function", obj)


def _markov(f):
    P = tuple(tuple(r) for r in f["transitions"])
    if f["stationary"] is None:
        return Markov.from_transitions(P, f["component"])
    return Markov(P, tuple(f["stationary"]), f["component"])


def _random(f):
    raise ValueError("random points are resolved by the command, not the builder")


_POINT_EXTRAS = {"offset": (INT, 0), "component": COMPONENT, "fiber": (("nullable", NUM), None)}


def _point(rule, required):
    """A point kind: the rule the fields give, placed by offset, component and fiber."""
    return Kind(lambda f: Point(rule(f), f["offset"], f["component"], f["fiber"]),
                required, _POINT_EXTRAS)


def _command(required, optional):
    """A top-level kind: every command reads an experiment id, a system and a seed."""
    return Kind(None, {"experiment_id": ("string",), "system": SYSTEM, **required},
                {"seed": (INT, 0), **optional})


_MISTAKE = Kind(lambda f: MistakeFunction(f["kind"], tuple(
    (float(e), float(c)) for e, c in f["coeff_table"]), f["beta"], f["eps0"]),
    {"coeff_table": listof(tupleof(NUM, NUM))}, {"beta": (NUM, 0.0), "eps0": (NUM, 1.0)})
_DEPTHS = listof(COUNT, 1)
_CHAIN = {"transitions": listof(listof(NUM)), "stationary": listof(NUM)}
_TOLERANCE = {"tolerance": (POSITIVE, 0.02)}
_NO_SCHEDULE = {"schedule": (SCHEDULE, None)}
_WHOLE = {"subset": (SUBSET, {"kind": "whole"})}
_IRREGULAR = {"symbol": (INT, 0), "lo": (NUM, 0.2), "hi": (NUM, 0.65),
              "first_block": (("integer", 2), 8), "block_ratio": (("integer", 2), 4),
              "horizon": (COUNT, 1 << 21), **_TOLERANCE}

SECTIONS = {
    "command": Pick("command", {
        "entropy": _command({}, {**_WHOLE, "depths": (_DEPTHS, None), "method": (
            ("enum", ("caratheodory", "spanning", "both")), "caratheodory")}),
        "birkhoff": _command({"point": POINT, "observable": OBSERVABLE}, _NO_SCHEDULE),
        "classify": Pick("mode", {
            "generic": _command({"point": POINT, "measure": MEASURE}, {
                **_NO_SCHEDULE, **_TOLERANCE, "family_depth": (COUNT, 4)}),
            "irregular": _command({"point": POINT, "observable": OBSERVABLE},
                                  {**_NO_SCHEDULE, **_TOLERANCE}),
        }, default="generic"),
        "construct": Pick("construction", {
            "generic-point": _command({"measure": MEASURE}, {
                "construction_kind": (("enum", ("deterministic-blocks", "seeded-iid")),
                                      "deterministic-blocks"),
                "horizon": (COUNT, 1 << 21), **_NO_SCHEDULE, **_TOLERANCE}),
            "irregular-point": _command({}, _IRREGULAR),
            "glued-orbit": _command({"segments": listof(tupleof(POINT, INT))}, {
                "mistake_function": (("ref", "mistake function"), None),
                "eps": (POSITIVE, 0.75)}),
        }),
        "verify-thm-a": _command({}, {**_WHOLE, "depths": (_DEPTHS, (60, 120, 240)),
                                      "times": (listof(POSITIVE, 1), (0.5, 1.0, 2.0))}),
        "verify-thm-b": _command({"measure": MEASURE}, {
            **_TOLERANCE, "depths": (_DEPTHS, (500, 1000, 2000)), **_NO_SCHEDULE,
            "sample_count": (COUNT, 100), "family_depth": (COUNT, 3), "lo": (NUM, 0.005)}),
        "verify-irregular": _command({}, {**_IRREGULAR, "depths": (_DEPTHS, (2000,))}),
        # a map's suite needs a measure and reads 4-deep families; a flow's
        # suite defaults to the uniform Bernoulli measure and 3-deep families
        "verify-inclusions": _command({}, {
            "measure": (MEASURE, None), **_TOLERANCE, "sample_count": (COUNT, 50),
            "family_depth": (COUNT, None), **_NO_SCHEDULE}),
    }),
    "system": Pick("kind", {
        "full-shift": Kind(lambda f: FullShift(f["k"]), {"k": INT}),
        "markov-shift": Kind(
            lambda f: MarkovShift(f["k"], tuple(tuple(r) for r in f["adjacency"])),
            {"k": INT, "adjacency": listof(listof(INT))}),
        "circle-mult": Kind(lambda f: CircleMult(f["n"]), {"n": INT}),
        "circle-rotation": Kind(lambda f: CircleRotation(f["theta"]), {"theta": NUM}),
        "disjoint-union": Kind(
            lambda f: DisjointUnion(build_system(f["left"]), build_system(f["right"])),
            {"left": SYSTEM, "right": SYSTEM}),
        "rotation-flow": Kind(lambda f: CircleRotationFlow(), {}),
        "torus-translation": Kind(lambda f: TorusTranslation(tuple(f["velocity"])),
                                  {"velocity": listof(NUM)}),
        "suspension": Kind(
            lambda f: Suspension(build_system(f["base"]), build("roof", f["roof"])),
            {"base": SYSTEM, "roof": ("ref", "roof")}),
        "time-t-map": Kind(lambda f: TimeTMap(build_system(f["flow"]), f["t"]),
                           {"flow": SYSTEM, "t": NUM}),
    }),
    # a roof has no kind field: it is constant when it names a constant
    "roof": Pick(lambda obj: "constant" if "constant" in obj else "table", {
        "constant": Kind(lambda f: RoofFunction.constant(f["constant"]), {"constant": NUM}),
        "table": Kind(lambda f: RoofFunction(f["depth"], tuple(f["table"]), f["k"]),
                      {"depth": INT, "table": listof(NUM)}, {"k": (INT, 1)}),
    }),
    "measure": Pick("kind", {
        "bernoulli": Kind(lambda f: Bernoulli(tuple(f["probs"]), f["component"]),
                          {"probs": listof(NUM)}, {"component": COMPONENT}),
        "markov": Kind(_markov, {"transitions": listof(listof(NUM))}, {
            "stationary": (("nullable", listof(NUM)), None), "component": COMPONENT}),
        "lebesgue": Kind(lambda f: Lebesgue(f["dim"]), {}, {"dim": (INT, 1)}),
        "atomic": Kind(
            lambda f: Atomic(tuple(build_point(p) for p in f["points"]), tuple(f["weights"])),
            {"points": listof(POINT), "weights": listof(NUM)}),
        "mixture": Kind(
            lambda f: Mixture(tuple((build_measure(m), w) for m, w in f["components"])),
            {"components": listof(tupleof(MEASURE, NUM))}),
    }),
    "point": Pick("kind", {
        "explicit-word": _point(lambda f: ExplicitWord(tuple(f["symbols"])),
                                {"symbols": listof(INT)}),
        "seeded-iid": _point(lambda f: SeededIID(f["seed"], tuple(f["probs"])),
                             {"seed": INT, "probs": listof(NUM)}),
        "block-schedule": _point(
            lambda f: BlockSchedule(tuple((tuple(pat), reps) for pat, reps in f["blocks"])),
            {"blocks": listof(tupleof(listof(INT), INT))}),
        "seeded-markov": _point(lambda f: _markov(f).seeded(f["seed"]), {"seed": INT, **_CHAIN}),
        "stage-recipe": _point(lambda f: StageRecipe(
            tuple(map(tuple, f["transitions"])), tuple(f["stationary"]),
            tuple(map(tuple, f["adjacency"])), f["first_stage"], f["horizon"]),
            {**_CHAIN, "adjacency": listof(listof(INT)), "first_stage": COUNT, "horizon": COUNT}),
        "steered-blocks": _point(
            lambda f: SteeredBlocks(f["k"], f["symbol"], tuple(f["ends"]), tuple(f["targets"])),
            {"k": INT, "symbol": INT, "ends": listof(INT), "targets": listof(NUM)}),
        "coordinate": _point(lambda f: Coordinate(tuple(f["coords"])), {"coords": listof(NUM)}),
        "random": Kind(_random, {}),
    }),
    "observable": Pick("kind", {
        "constant": Kind(lambda f: Constant(f["value"]), {"value": NUM}),
        "cylinder": Kind(lambda f: CylinderIndicator(tuple(f["word"]), f["component"]),
                         {"word": listof(INT)}, {"component": COMPONENT}),
        "symbol-frequency": Kind(lambda f: CylinderIndicator((f["symbol"],), f["component"]),
                                 {"symbol": INT}, {"component": COMPONENT}),
        "harmonic": Kind(lambda f: Harmonic(f["frequency"], f["phase"], f["offset"]),
                         {"frequency": INT},
                         {"phase": (("enum", ("cos", "sin")), "cos"), "offset": (NUM, 0.0)}),
        "fiber-profile": Kind(
            lambda f: FiberProfile(build_observable(f["base"]), tuple(
                (float(s), float(v)) for s, v in f["breakpoints"])),
            {"base": OBSERVABLE, "breakpoints": listof(tupleof(NUM, NUM))}),
    }),
    "subset": Pick("kind", {
        "whole": Kind(lambda f: WholeSpace(), {}),
        "frequency-window": Kind(
            lambda f: FrequencyWindow(f["symbol"], f["lo"], f["hi"], f["component"]),
            {"symbol": INT, "lo": NUM, "hi": NUM}, {"component": COMPONENT}),
        "oscillation-windows": Kind(
            lambda f: OscillationWindows(f["symbol"], tuple(
                (int(n), float(lo), float(hi)) for n, lo, hi in f["windows"])),
            {"symbol": INT, "windows": listof(tupleof(INT, NUM, NUM))}),
        "component-window": Kind(lambda f: ComponentWindow(f["lo"], f["hi"]),
                                 {"lo": NUM, "hi": NUM}),
        "sample-cloud": Kind(lambda f: SampleCloud(tuple(build_point(p) for p in f["points"])),
                             {"points": listof(POINT)}),
    }),
    "schedule": Pick("kind", {
        "geometric": Kind(lambda f: Schedule.geometric(f["start"], f["stop"], f["ratio"]),
                          {"start": NUM, "stop": NUM}, {"ratio": (NUM, 2.0)}),
        "explicit": Kind(lambda f: Schedule(tuple(f["checkpoints"])),
                         {"checkpoints": listof(NUM)}),
    }),
    "mistake function": Pick("kind", {
        "power": _MISTAKE, "log": _MISTAKE,
        "zero": Kind(lambda f: MistakeFunction.zero(), {}),
    }),
}

COMMANDS = tuple(SECTIONS["command"].kinds)
