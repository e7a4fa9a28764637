"""Config files: JSON schema, validation, and builders for every object kind.

A config is one experiment: a command name, an experiment id, and the
objects the command needs.  Validation is strict; unknown fields anywhere
are a config error, as is any semantic problem the schema cannot see
(a measure on the wrong alphabet, say).  Both surface as ConfigError and
exit code 2 in the CLI.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Optional

import jsonschema

from .systems import (
    BlockSchedule, CircleMult, CircleRotation, CircleRotationFlow, Coordinate,
    DisjointUnion, ExplicitWord, FullShift, MarkovShift, Point, RoofFunction,
    SeededIID, SteeredBlocks, Suspension, TimeTMap, TorusTranslation,
)
from .measures import (
    Atomic, Bernoulli, Constant, CylinderIndicator, FiberProfile, Harmonic,
    Lebesgue, Markov, Mixture, SymbolFrequency,
)
from .birkhoff import Schedule
from .entropy import (
    ComponentWindow, FrequencyWindow, OscillationWindows, SampleCloud,
    WholeSpace,
)
from .constructions import MistakeFunction

__all__ = ["ConfigError", "load_config", "config_digest", "COMMANDS",
           "build_system", "build_measure", "build_point", "build_observable",
           "build_subset", "build_schedule", "build_mistake_function"]


class ConfigError(ValueError):
    """The config file is malformed or semantically invalid."""


COMMANDS = (
    "entropy", "birkhoff", "classify", "construct",
    "verify-thm-a", "verify-thm-b", "verify-irregular", "verify-inclusions",
)

_NUM = {"type": "number"}
_INT = {"type": "integer"}

_SYSTEM = {
    "type": "object",
    "properties": {
        "kind": {"enum": [
            "full-shift", "markov-shift", "circle-mult", "circle-rotation",
            "disjoint-union", "rotation-flow", "torus-translation",
            "suspension", "time-t-map",
        ]},
        "k": _INT,
        "adjacency": {"type": "array", "items": {"type": "array", "items": _INT}},
        "n": _INT,
        "theta": _NUM,
        "left": {"$ref": "#/$defs/system"},
        "right": {"$ref": "#/$defs/system"},
        "velocity": {"type": "array", "items": _NUM},
        "base": {"$ref": "#/$defs/system"},
        "roof": {
            "type": "object",
            "properties": {
                "constant": _NUM,
                "depth": _INT,
                "table": {"type": "array", "items": _NUM},
                "k": _INT,
            },
            "additionalProperties": False,
        },
        "flow": {"$ref": "#/$defs/system"},
        "t": _NUM,
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_MEASURE = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["bernoulli", "markov", "lebesgue", "atomic", "mixture"]},
        "probs": {"type": "array", "items": _NUM},
        "component": {"type": ["integer", "null"]},
        "transitions": {"type": "array", "items": {"type": "array", "items": _NUM}},
        "stationary": {"type": ["array", "null"], "items": _NUM},
        "dim": _INT,
        "points": {"type": "array", "items": {"$ref": "#/$defs/point"}},
        "weights": {"type": "array", "items": _NUM},
        "components": {
            "type": "array",
            "items": {
                "type": "array",
                "prefixItems": [{"$ref": "#/$defs/measure"}, _NUM],
                "minItems": 2, "maxItems": 2,
            },
        },
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_POINT = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["explicit-word", "seeded-iid", "block-schedule",
                          "steered-blocks", "coordinate", "random"]},
        "symbols": {"type": "array", "items": _INT},
        "seed": _INT,
        "probs": {"type": "array", "items": _NUM},
        "blocks": {
            "type": "array",
            "items": {
                "type": "array",
                "prefixItems": [{"type": "array", "items": _INT}, _INT],
                "minItems": 2, "maxItems": 2,
            },
        },
        "k": _INT,
        "symbol": _INT,
        "ends": {"type": "array", "items": _INT},
        "targets": {"type": "array", "items": _NUM},
        "coords": {"type": "array", "items": _NUM},
        "offset": _INT,
        "component": {"type": ["integer", "null"]},
        "fiber": {"type": ["number", "null"]},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_OBSERVABLE = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["constant", "cylinder", "symbol-frequency",
                          "harmonic", "fiber-profile"]},
        "value": _NUM,
        "word": {"type": "array", "items": _INT},
        "component": {"type": ["integer", "null"]},
        "symbol": _INT,
        "frequency": _INT,
        "phase": {"enum": ["cos", "sin"]},
        "offset": _NUM,
        "base": {"$ref": "#/$defs/observable"},
        "breakpoints": {
            "type": "array",
            "items": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
        },
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_SUBSET = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["whole", "frequency-window", "oscillation-windows",
                          "component-window", "sample-cloud"]},
        "symbol": _INT,
        "lo": _NUM,
        "hi": _NUM,
        "component": {"type": ["integer", "null"]},
        "windows": {
            "type": "array",
            "items": {"type": "array", "prefixItems": [_INT, _NUM, _NUM],
                      "minItems": 3, "maxItems": 3},
        },
        "points": {"type": "array", "items": {"$ref": "#/$defs/point"}},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_SCHEDULE = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["geometric", "explicit"]},
        "start": _NUM,
        "stop": _NUM,
        "ratio": _NUM,
        "checkpoints": {"type": "array", "items": _NUM},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_MISTAKE = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["power", "log", "zero"]},
        "coeff_table": {
            "type": "array",
            "items": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
        },
        "beta": _NUM,
        "eps0": _NUM,
    },
    "required": ["kind"],
    "additionalProperties": False,
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "$defs": {
        "system": _SYSTEM,
        "measure": _MEASURE,
        "point": _POINT,
        "observable": _OBSERVABLE,
        "subset": _SUBSET,
        "schedule": _SCHEDULE,
        "mistake": _MISTAKE,
    },
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "experiment_id": {"type": "string", "minLength": 1},
        "seed": _INT,
        "system": {"$ref": "#/$defs/system"},
        "measure": {"$ref": "#/$defs/measure"},
        "point": {"$ref": "#/$defs/point"},
        "points": {"type": "array", "items": {"$ref": "#/$defs/point"}},
        "observable": {"$ref": "#/$defs/observable"},
        "subset": {"$ref": "#/$defs/subset"},
        "schedule": {"$ref": "#/$defs/schedule"},
        "depths": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "method": {"enum": ["caratheodory", "spanning", "both"]},
        "mode": {"enum": ["generic", "irregular"]},
        "construction": {"enum": ["generic-point", "irregular-point", "glued-orbit"]},
        "construction_kind": {"enum": ["deterministic-blocks", "seeded-iid"]},
        "horizon": {"type": "integer", "minimum": 1},
        "times": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
                  "minItems": 1},
        "sample_count": {"type": "integer", "minimum": 1},
        "segments": {
            "type": "array",
            "items": {
                "type": "array",
                "prefixItems": [{"$ref": "#/$defs/point"}, _INT],
                "minItems": 2, "maxItems": 2,
            },
        },
        "eps": {"type": "number", "exclusiveMinimum": 0},
        "mistake_function": {"$ref": "#/$defs/mistake"},
        "family_depth": {"type": "integer", "minimum": 1},
        "symbol": _INT,
        "lo": _NUM,
        "hi": _NUM,
        "first_block": {"type": "integer", "minimum": 2},
        "block_ratio": {"type": "integer", "minimum": 2},
    },
    "required": ["command", "experiment_id", "system"],
    "additionalProperties": False,
}


@functools.cache
def _validator():
    """The SCHEMA validator, checked against its metaschema once, on first use.

    `jsonschema.validate` would check the schema again on every call."""
    cls = jsonschema.validators.validator_for(SCHEMA)
    cls.check_schema(SCHEMA)
    return cls(SCHEMA)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    error = jsonschema.exceptions.best_match(_validator().iter_errors(cfg))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "(top level)"
        raise ConfigError(f"config rejected at {where}: {error.message}") from error
    cfg["_sha256"] = hashlib.sha256(raw.encode("utf-8")).hexdigest()
    return cfg


def config_digest(cfg: dict) -> str:
    return cfg.get("_sha256", "unknown")


def _fail(msg: str) -> None:
    raise ConfigError(msg)


def build_system(obj: dict):
    kind = obj["kind"]
    try:
        if kind == "full-shift":
            return FullShift(obj["k"])
        if kind == "markov-shift":
            return MarkovShift(obj["k"], tuple(tuple(r) for r in obj["adjacency"]))
        if kind == "circle-mult":
            return CircleMult(obj["n"])
        if kind == "circle-rotation":
            return CircleRotation(obj["theta"])
        if kind == "disjoint-union":
            return DisjointUnion(build_system(obj["left"]), build_system(obj["right"]))
        if kind == "rotation-flow":
            return CircleRotationFlow()
        if kind == "torus-translation":
            return TorusTranslation(tuple(obj["velocity"]))
        if kind == "suspension":
            return Suspension(build_system(obj["base"]), _build_roof(obj["roof"]))
        if kind == "time-t-map":
            flow = build_system(obj["flow"])
            if isinstance(flow, Suspension) and obj["t"] < 0:
                _fail("a time-t map of a suspension needs t > 0: its symbol stream is one-sided")
            return TimeTMap(flow, obj["t"])
    except KeyError as exc:
        _fail(f"system '{kind}' is missing field {exc}")
    except (ValueError, TypeError) as exc:
        _fail(f"bad system '{kind}': {exc}")
    _fail(f"unknown system kind '{kind}'")


def _build_roof(obj: dict) -> RoofFunction:
    if "constant" in obj:
        return RoofFunction.constant(obj["constant"])
    return RoofFunction(obj["depth"], tuple(obj["table"]), obj.get("k", 1))


def build_measure(obj: dict):
    kind = obj["kind"]
    try:
        if kind == "bernoulli":
            return Bernoulli(tuple(obj["probs"]), obj.get("component"))
        if kind == "markov":
            P = tuple(tuple(r) for r in obj["transitions"])
            pi = obj.get("stationary")
            if pi is None:
                return Markov.from_transitions(P, obj.get("component"))
            return Markov(P, tuple(pi), obj.get("component"))
        if kind == "lebesgue":
            return Lebesgue(obj.get("dim", 1))
        if kind == "atomic":
            pts = tuple(build_point(p) for p in obj["points"])
            return Atomic(pts, tuple(obj["weights"]))
        if kind == "mixture":
            return Mixture(tuple(
                (build_measure(m), w) for m, w in obj["components"]
            ))
    except KeyError as exc:
        _fail(f"measure '{kind}' is missing field {exc}")
    except (ValueError, TypeError) as exc:
        _fail(f"bad measure '{kind}': {exc}")
    _fail(f"unknown measure kind '{kind}'")


def build_point(obj: dict):
    kind = obj["kind"]
    try:
        if kind == "random":
            _fail("random points are resolved by the command, not the builder")
        if kind == "explicit-word":
            rule = ExplicitWord(tuple(obj["symbols"]))
        elif kind == "seeded-iid":
            rule = SeededIID(obj["seed"], tuple(obj["probs"]))
        elif kind == "block-schedule":
            rule = BlockSchedule(tuple(
                (tuple(pat), reps) for pat, reps in obj["blocks"]
            ))
        elif kind == "steered-blocks":
            rule = SteeredBlocks(obj["k"], obj["symbol"], tuple(obj["ends"]),
                                 tuple(obj["targets"]))
        elif kind == "coordinate":
            rule = Coordinate(tuple(obj["coords"]))
        else:
            _fail(f"unknown point kind '{kind}'")
        return Point(
            rule, obj.get("offset", 0), obj.get("component"), obj.get("fiber"),
        )
    except KeyError as exc:
        _fail(f"point '{kind}' is missing field {exc}")
    except (ValueError, TypeError) as exc:
        _fail(f"bad point '{kind}': {exc}")


def build_observable(obj: dict):
    kind = obj["kind"]
    try:
        if kind == "constant":
            return Constant(obj["value"])
        if kind == "cylinder":
            return CylinderIndicator(tuple(obj["word"]), obj.get("component"))
        if kind == "symbol-frequency":
            return SymbolFrequency(obj["symbol"], obj.get("component"))
        if kind == "harmonic":
            return Harmonic(obj["frequency"], obj.get("phase", "cos"),
                            obj.get("offset", 0.0))
        if kind == "fiber-profile":
            return FiberProfile(
                build_observable(obj["base"]),
                tuple((float(s), float(v)) for s, v in obj["breakpoints"]),
            )
    except KeyError as exc:
        _fail(f"observable '{kind}' is missing field {exc}")
    except (ValueError, TypeError) as exc:
        _fail(f"bad observable '{kind}': {exc}")
    _fail(f"unknown observable kind '{kind}'")


def build_subset(obj: dict):
    kind = obj["kind"]
    try:
        if kind == "whole":
            return WholeSpace()
        if kind == "frequency-window":
            return FrequencyWindow(obj["symbol"], obj["lo"], obj["hi"],
                                   obj.get("component"))
        if kind == "oscillation-windows":
            return OscillationWindows(obj["symbol"], tuple(
                (int(n), float(lo), float(hi)) for n, lo, hi in obj["windows"]
            ))
        if kind == "component-window":
            return ComponentWindow(obj["lo"], obj["hi"])
        if kind == "sample-cloud":
            return SampleCloud(tuple(build_point(p) for p in obj["points"]))
    except KeyError as exc:
        _fail(f"subset '{kind}' is missing field {exc}")
    except (ValueError, TypeError) as exc:
        _fail(f"bad subset '{kind}': {exc}")
    _fail(f"unknown subset kind '{kind}'")


def build_schedule(obj: Optional[dict], flow: bool) -> Schedule:
    if obj is None:
        return Schedule.for_flow() if flow else Schedule.for_map()
    kind = obj["kind"]
    try:
        if kind == "geometric":
            return Schedule.geometric(obj["start"], obj["stop"], obj.get("ratio", 2.0))
        if kind == "explicit":
            return Schedule(tuple(obj["checkpoints"]))
    except KeyError as exc:
        _fail(f"schedule '{kind}' is missing field {exc}")
    except (ValueError, TypeError) as exc:
        _fail(f"bad schedule '{kind}': {exc}")
    _fail(f"unknown schedule kind '{kind}'")


def build_mistake_function(obj: Optional[dict]) -> MistakeFunction:
    if obj is None:
        return MistakeFunction.zero()
    kind = obj["kind"]
    try:
        if kind == "zero":
            return MistakeFunction.zero()
        table = tuple((float(e), float(c)) for e, c in obj["coeff_table"])
        return MistakeFunction(kind, table, obj.get("beta", 0.0), obj.get("eps0", 1.0))
    except KeyError as exc:
        _fail(f"mistake function '{kind}' is missing field {exc}")
    except (ValueError, TypeError) as exc:
        _fail(f"bad mistake function '{kind}': {exc}")


def require(cfg: dict, field_name: str):
    if field_name not in cfg:
        raise ConfigError(f"command '{cfg['command']}' requires field '{field_name}'")
    return cfg[field_name]
