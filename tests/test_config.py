import json
import os
import subprocess
import sys

import pytest

from ergode.config import ConfigError, load_config

BASE = {
    "command": "entropy",
    "experiment_id": "x",
    "system": {"kind": "full-shift", "k": 2},
}
SHIFT_2 = {"kind": "full-shift", "k": 2}
UNIT_ROOF = {"kind": "suspension", "base": SHIFT_2, "roof": {"constant": 1.0}}


def rejection(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    return str(info.value)


def loaded(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return load_config(str(path))


@pytest.mark.parametrize("cfg, where, message", [
    ({**BASE, "colour": "red"}, "(top level)", "'colour' is not read by command 'entropy'"),
    ({**BASE, "system": {"kind": "full-shift", "k": "two"}}, "system/k",
     "'two' is not of type 'integer'"),
    ({**BASE, "system": {"kind": "suspension", "base": {"kind": "full-shift", "k": 2.5},
                         "roof": {"constant": 1.0}}}, "system/base/k",
     "2.5 is not of type 'integer'"),
])
def test_load_config_rejects_at_the_path_of_the_fault(tmp_path, cfg, where, message):
    first = rejection(tmp_path, cfg)
    assert first == f"config rejected at {where}: {message}"
    assert rejection(tmp_path, cfg) == first        # a second call gives the same error


# a field of another kind, in every section; a table roof's fields on a
# constant roof ran as the constant roof, a full shift's adjacency was ignored
FOREIGN_FIELDS = {
    "mixed-roof": ({"command": "verify-thm-a", "experiment_id": "x", "system": {
        "kind": "suspension", "base": SHIFT_2,
        "roof": {"constant": 1.0, "depth": 1, "table": [1.0, 2.0], "k": 2}}},
        "system/roof", "'depth' is not read by roof 'constant'"),
    "full-shift-adjacency": ({**BASE, "system": {"kind": "full-shift", "k": 2,
                                                 "adjacency": [[1, 1], [1, 0]], "n": 3}},
                             "system", "'adjacency' is not read by system 'full-shift'"),
    "nested-system": ({**BASE, "system": {"kind": "disjoint-union", "left": SHIFT_2,
                                          "right": {"kind": "circle-mult", "n": 2, "k": 2}}},
                      "system/right", "'k' is not read by system 'circle-mult'"),
    "measure": ({"command": "verify-thm-b", "experiment_id": "x", "system": SHIFT_2,
                 "measure": {"kind": "bernoulli", "probs": [0.5, 0.5],
                             "transitions": [[0.5, 0.5], [0.5, 0.5]]}},
                "measure", "'transitions' is not read by measure 'bernoulli'"),
    "point": ({"command": "birkhoff", "experiment_id": "x", "system": SHIFT_2,
               "point": {"kind": "explicit-word", "symbols": [0, 1], "seed": 3},
               "observable": {"kind": "constant", "value": 1.0}},
              "point", "'seed' is not read by point 'explicit-word'"),
    "random-point": ({"command": "birkhoff", "experiment_id": "x", "system": SHIFT_2,
                      "point": {"kind": "random", "offset": 2},
                      "observable": {"kind": "constant", "value": 1.0}},
                     "point", "'offset' is not read by point 'random'"),
    "observable": ({"command": "birkhoff", "experiment_id": "x", "system": SHIFT_2,
                    "point": {"kind": "explicit-word", "symbols": [0, 1]},
                    "observable": {"kind": "constant", "value": 1.0, "word": [0]}},
                   "observable", "'word' is not read by observable 'constant'"),
    "subset": ({**BASE, "subset": {"kind": "whole", "symbol": 0}},
               "subset", "'symbol' is not read by subset 'whole'"),
    "schedule": ({"command": "birkhoff", "experiment_id": "x", "system": SHIFT_2,
                  "point": {"kind": "explicit-word", "symbols": [0, 1]},
                  "observable": {"kind": "constant", "value": 1.0},
                  "schedule": {"kind": "explicit", "checkpoints": [10], "start": 1}},
                 "schedule", "'start' is not read by schedule 'explicit'"),
    "mistake-function": ({"command": "construct", "experiment_id": "x", "system": SHIFT_2,
                          "construction": "glued-orbit",
                          "segments": [[{"kind": "explicit-word", "symbols": [0]}, 4]],
                          "mistake_function": {"kind": "zero", "beta": 0.1}},
                         "mistake_function", "'beta' is not read by mistake function 'zero'"),
    "command": ({**BASE, "sample_count": 10}, "(top level)",
                "'sample_count' is not read by command 'entropy'"),
    "classify-mode": ({"command": "classify", "experiment_id": "x", "system": SHIFT_2,
                       "point": {"kind": "explicit-word", "symbols": [0, 1]},
                       "measure": {"kind": "bernoulli", "probs": [0.5, 0.5]},
                       "observable": {"kind": "constant", "value": 1.0}},
                      "(top level)", "'observable' is not read by command 'classify generic'"),
    "construction": ({"command": "construct", "experiment_id": "x", "system": SHIFT_2,
                      "construction": "irregular-point", "measure": {
                          "kind": "bernoulli", "probs": [0.5, 0.5]}}, "(top level)",
                     "'measure' is not read by command 'construct irregular-point'"),
    "points": ({**BASE, "points": []}, "(top level)",
               "'points' is not read by command 'entropy'"),
}


@pytest.mark.parametrize("cfg, where, message", FOREIGN_FIELDS.values(),
                         ids=FOREIGN_FIELDS.keys())
def test_a_field_its_kind_does_not_read_is_rejected(tmp_path, cfg, where, message):
    assert rejection(tmp_path, cfg) == f"config rejected at {where}: {message}"


@pytest.mark.parametrize("field, value, where, message", [
    ("tolerance", True, "tolerance", "True is not of type 'number'"),
    ("system", {"kind": "full-shift", "k": True}, "system/k", "True is not of type 'integer'"),
    ("depths", [10, False], "depths/1", "False is not of type 'integer'"),
])
def test_a_boolean_is_not_a_number(tmp_path, field, value, where, message):
    cfg = {**BASE, "command": "verify-thm-b", "measure": {"kind": "bernoulli",
                                                          "probs": [0.5, 0.5]}, field: value}
    assert rejection(tmp_path, cfg) == f"config rejected at {where}: {message}"


IRREGULAR = {"command": "verify-irregular", "experiment_id": "x", "system": SHIFT_2}
THM_B = {"command": "verify-thm-b", "experiment_id": "x", "system": SHIFT_2,
         "measure": {"kind": "bernoulli", "probs": [0.5, 0.5]}}
THM_A = {"command": "verify-thm-a", "experiment_id": "x", "system": UNIT_ROOF}
GLUED = {"command": "construct", "experiment_id": "x", "system": SHIFT_2,
         "construction": "glued-orbit",
         "segments": [[{"kind": "explicit-word", "symbols": [0]}, 4]]}


@pytest.mark.parametrize("cfg, field, low, where, message", [
    (BASE, "depths", [0], "depths/0", "0 is less than the minimum of 1"),
    (BASE, "depths", [], "depths", "[] should be non-empty"),
    (THM_B, "tolerance", 0, "tolerance", "0 is less than or equal to the minimum of 0"),
    (THM_A, "times", [1.0, 0.0], "times/1", "0.0 is less than or equal to the minimum of 0"),
    (THM_A, "times", [], "times", "[] should be non-empty"),
    (IRREGULAR, "horizon", 0, "horizon", "0 is less than the minimum of 1"),
    (IRREGULAR, "first_block", 1, "first_block", "1 is less than the minimum of 2"),
    (IRREGULAR, "block_ratio", 1, "block_ratio", "1 is less than the minimum of 2"),
    (THM_B, "sample_count", 0, "sample_count", "0 is less than the minimum of 1"),
    (THM_B, "family_depth", 0, "family_depth", "0 is less than the minimum of 1"),
    (GLUED, "eps", 0, "eps", "0 is less than or equal to the minimum of 0"),
    (BASE, "experiment_id", "", "experiment_id", "'' should be non-empty"),
])
def test_a_field_past_its_bound_is_rejected(tmp_path, cfg, field, low, where, message):
    assert rejection(tmp_path, {**cfg, field: low}) == f"config rejected at {where}: {message}"


@pytest.mark.parametrize("cfg, where, message", [
    ({**BASE, "system": {"kind": "full-shift"}}, "system", "'k' is a required property"),
    ({**BASE, "system": {"kind": "suspension", "base": SHIFT_2, "roof": {"k": 2}}},
     "system/roof", "'depth' is a required property"),
    ({**BASE, "system": {"kind": "torus"}}, "system/kind", "'torus' is not one of "),
    ({**BASE, "command": "construct"}, "(top level)", "'construction' is a required property"),
    ({**BASE, "command": "classify", "mode": "irregular",
      "point": {"kind": "explicit-word", "symbols": [0]}}, "(top level)",
     "'observable' is a required property"),
    ({**GLUED, "segments": [[{"kind": "random"}]]}, "segments/0",
     "[{'kind': 'random'}] is too short"),
    ({**BASE, "command": "birkhoff", "observable": {"kind": "constant", "value": 1.0},
      "point": {"kind": "explicit-word", "symbols": [0], "fiber": "x"}},
     "point/fiber", "'x' is not of type 'number', 'null'"),
    ([BASE], "(top level)", "[{"),
])
def test_a_missing_field_a_wrong_shape_or_an_unknown_kind_is_rejected(tmp_path, cfg, where,
                                                                      message):
    assert rejection(tmp_path, cfg).startswith(f"config rejected at {where}: {message}")


def test_a_whole_float_passes_as_an_integer_and_defaults_are_filled_in(tmp_path):
    cfg = loaded(tmp_path, {**BASE, "command": "verify-irregular", "depths": [2000.0]})
    assert cfg["depths"] == [2000.0] and cfg["first_block"] == 8 and cfg["seed"] == 0
    cfg = loaded(tmp_path, {**BASE, "command": "classify", "point": {"kind": "random"},
                            "measure": {"kind": "lebesgue"}})
    assert cfg["mode"] == "generic" and cfg["family_depth"] == 4 and cfg["schedule"] is None


def test_importing_the_cli_loads_no_jsonschema():
    code = "import sys, ergode.cli; print('jsonschema' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
