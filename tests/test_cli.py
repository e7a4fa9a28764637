import collections
import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from ergode.config import build_measure, build_mistake_function, build_point, build_system
from ergode.constructions import StageRecipe, generic_point, glue_orbits, irregular_point
from ergode import cli
from ergode.cli import _measure, _point_json, _write_point, main
from ergode.systems import (
    BlockSchedule, Coordinate, ExplicitWord, FullShift, Point, SeededIID, SeededMarkov,
    SteeredBlocks,
)

# the program as `python -m ergode`, which needs no installed console script
ERGODE = [sys.executable, "-m", "ergode"]

HEADER = "experiment_id,quantity,value,lower,upper,params,runtime_ms"


def run_cli(config, tmp_path, *extra, env=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [*ERGODE, "run", str(path), "--out", str(tmp_path), *extra],
        capture_output=True, text=True, env=full_env,
    )


def run_main(config, tmp_path, capsys):
    """(exit code, stderr) of the config run in-process, which a traceback would end."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = main(["run", str(path), "--out", str(tmp_path)])
    return code, capsys.readouterr().err


def read_rows(tmp_path, eid):
    text = (tmp_path / f"{eid}.csv").read_text()
    comments = [l for l in text.splitlines() if l.startswith("#")]
    data = [l for l in text.splitlines() if not l.startswith("#")]
    assert data[0] == HEADER
    return comments, list(csv.DictReader(data))


def entropy_config(eid="ent", method="both"):
    return {
        "command": "entropy",
        "experiment_id": eid,
        "system": {"kind": "full-shift", "k": 2},
        "subset": {"kind": "whole"},
        "method": method,
    }


def test_entropy_command_reports_both_routes(tmp_path):
    res = run_cli(entropy_config(), tmp_path)
    assert res.returncode == 0, res.stderr
    comments, rows = read_rows(tmp_path, "ent")
    assert any(c.startswith("# seed=") for c in comments)
    assert any(c.startswith("# config_sha256=") for c in comments)
    quantities = [r["quantity"] for r in rows]
    assert "caratheodory_entropy" in quantities or "bowen_entropy" in quantities
    assert "spanning_entropy" in quantities
    for r in rows:
        assert abs(float(r["value"]) - math.log(2)) < 0.02


def test_every_row_bracket_contains_its_value(tmp_path):
    cfg = {
        "command": "verify-thm-a",
        "experiment_id": "thma",
        "system": {"kind": "suspension", "base": {"kind": "full-shift", "k": 2},
                   "roof": {"constant": 1.0}},
        "subset": {"kind": "whole"},
    }
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    _, rows = read_rows(tmp_path, "thma")
    assert len(rows) >= 4
    for r in rows:
        assert float(r["lower"]) <= float(r["value"]) <= float(r["upper"])


def test_missing_config_exits_2(tmp_path):
    res = subprocess.run(
        [*ERGODE, "run", str(tmp_path / "absent.json")],
        capture_output=True, text=True,
    )
    assert res.returncode == 2
    assert res.stderr.strip()


def test_malformed_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"command": "entropy"')
    res = subprocess.run([*ERGODE, "run", str(path)], capture_output=True, text=True)
    assert res.returncode == 2


def test_unknown_command_exits_2(tmp_path):
    res = run_cli(
        {"command": "prove", "experiment_id": "x",
         "system": {"kind": "full-shift", "k": 2}},
        tmp_path,
    )
    assert res.returncode == 2
    assert "command" in res.stderr


def test_budget_exhaustion_exits_3_and_marks_csv(tmp_path):
    cfg = {
        "command": "classify",
        "experiment_id": "too-deep",
        "system": {"kind": "suspension", "base": {"kind": "full-shift", "k": 2},
                   "roof": {"depth": 1, "table": [1.0, 2.0], "k": 2}},
        "point": {"kind": "seeded-iid", "seed": 1, "probs": [0.5, 0.5], "fiber": 0.0},
        "measure": {"kind": "bernoulli", "probs": [0.5, 0.5]},
        "family_depth": 14,
        "mode": "generic",
    }
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 3
    comments, _ = read_rows(tmp_path, "too-deep")
    assert "# incomplete=true" in comments


def window_entropy_config(system, window, depths, method):
    return {"command": "entropy", "experiment_id": "win", "system": system,
            "subset": {"kind": "frequency-window", "symbol": window[0],
                       "lo": window[1], "hi": window[2]},
            "depths": depths, "method": method}


FULL_SHIFT_2 = {"kind": "full-shift", "k": 2}
GOLDEN_MEAN = {"kind": "markov-shift", "k": 2, "adjacency": [[1, 1], [1, 0]]}


@pytest.mark.parametrize("depths, method", [
    ([0, 10], "caratheodory"),    # a depth-0 cylinder has no span
    ([40], "spanning"),           # one depth fits no growth rate
    ([100, 100], "spanning"),     # nor do two equal ones
])
def test_an_entropy_depth_grid_that_fits_nothing_exits_2(tmp_path, depths, method):
    cfg = window_entropy_config(FULL_SHIFT_2, (0, 0.2, 0.3), depths, method)
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "Traceback" not in res.stderr
    assert not (tmp_path / "win.csv").exists()


@pytest.mark.parametrize("method", ["spanning", "caratheodory"])
def test_a_component_tag_on_a_single_shift_exits_2(tmp_path, method):
    cfg = window_entropy_config(FULL_SHIFT_2, (0, 0.2, 0.4), [20, 40], method)
    cfg["subset"]["component"] = 1
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "component tag" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "win.csv").exists()


@pytest.mark.parametrize("method", ["spanning", "caratheodory"])
@pytest.mark.parametrize("system", [FULL_SHIFT_2, GOLDEN_MEAN], ids=["full-shift", "golden-mean"])
def test_a_window_on_a_symbol_outside_the_alphabet_exits_2(tmp_path, system, method):
    # the full shift counted 11 of its 1024 words for symbol 5 and wrote 0.314
    res = run_cli(window_entropy_config(system, (5, 0.0, 0.1), [10, 20], method), tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "symbol 5 is outside" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "win.csv").exists()


@pytest.mark.parametrize("command", ["entropy", "verify-thm-a"])
def test_entropy_on_a_word_dependent_roof_exits_2(tmp_path, command):
    # caratheodory died with a TypeError traceback and exit 1
    roof = {"depth": 1, "k": 2, "table": [1.0, 2.0]}
    cfg = {"command": command, "experiment_id": "word-roof",
           "system": {"kind": "suspension", "base": FULL_SHIFT_2, "roof": roof},
           "depths": [10, 20]}
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "word-independent roofs" in res.stderr
    assert "table=(1.0, 2.0)" in res.stderr and "Traceback" not in res.stderr


def test_verify_thm_a_with_an_untagged_window_on_a_union_exits_2(tmp_path):
    union = {"kind": "disjoint-union", "left": FULL_SHIFT_2, "right": FULL_SHIFT_2}
    cfg = {"command": "verify-thm-a", "experiment_id": "thm-a",
           "system": {"kind": "suspension", "base": union, "roof": {"constant": 1.0}},
           "subset": {"kind": "frequency-window", "symbol": 0, "lo": 0.2, "hi": 0.4},
           "depths": [20, 40]}
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "component tag" in res.stderr
    assert "Traceback" not in res.stderr


def test_exact_markov_window_past_its_depth_cap_exits_3(tmp_path):
    cfg = window_entropy_config(GOLDEN_MEAN, (1, 0.2, 0.3), [100, 395], "both")
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 3, res.stderr
    assert "depth 400" in res.stderr and "Traceback" not in res.stderr
    comments, rows = read_rows(tmp_path, "win")
    assert "# incomplete=true" in comments
    assert [r["quantity"] for r in rows] == ["bowen_entropy"]


def test_env_seed_overrides_and_reproduces(tmp_path):
    cfg = {
        "command": "birkhoff",
        "experiment_id": "birk",
        "system": {"kind": "full-shift", "k": 2},
        "point": {"kind": "random"},
        "observable": {"kind": "symbol-frequency", "symbol": 1},
        "schedule": {"kind": "explicit", "checkpoints": [64, 128]},
        "seed": 1,
    }
    first = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        res = run_cli(cfg, d, env={"ERGODE_SEED": "99"})
        assert res.returncode == 0, res.stderr
        comments, rows = read_rows(d, "birk")
        assert "# seed=99" in comments
        first.append(tuple(r["value"] for r in rows))
    assert first[0] == first[1]

    d = tmp_path / "c"
    d.mkdir()
    run_cli(cfg, d, env={"ERGODE_SEED": "100"})
    _, rows = read_rows(d, "birk")
    assert tuple(r["value"] for r in rows) != first[0]


def test_classify_reports_verdict(tmp_path):
    cfg = {
        "command": "classify",
        "experiment_id": "cls",
        "system": {"kind": "full-shift", "k": 2},
        "point": {"kind": "seeded-iid", "seed": 5, "probs": [0.5, 0.5]},
        "measure": {"kind": "bernoulli", "probs": [0.5, 0.5]},
        "mode": "generic",
    }
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    _, rows = read_rows(tmp_path, "cls")
    verdicts = [r for r in rows if r["quantity"] == "classification"]
    assert len(verdicts) == 1
    assert json.loads(verdicts[0]["params"])["label"] == "Generic"


def test_construct_writes_replayable_point(tmp_path):
    cfg = {
        "command": "construct",
        "experiment_id": "con",
        "system": {"kind": "full-shift", "k": 2},
        "construction": "generic-point",
        "construction_kind": "deterministic-blocks",
        "measure": {"kind": "bernoulli", "probs": [0.3, 0.7]},
    }
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    spec = json.loads((tmp_path / "con.point.json").read_text())

    replay = {
        "command": "classify",
        "experiment_id": "replay",
        "system": {"kind": "full-shift", "k": 2},
        "point": spec,
        "measure": {"kind": "bernoulli", "probs": [0.3, 0.7]},
        "mode": "generic",
        "schedule": {"kind": "explicit", "checkpoints": [200000, 400000, 800000]},
    }
    res = run_cli(replay, tmp_path, name="replay.json")
    assert res.returncode == 0, res.stderr
    _, rows = read_rows(tmp_path, "replay")
    verdict = next(r for r in rows if r["quantity"] == "classification")
    assert json.loads(verdict["params"])["label"] == "Generic"


def test_construct_irregular_point_writes_its_recipe(tmp_path):
    cfg = {
        "command": "construct",
        "experiment_id": "irr",
        "system": {"kind": "full-shift", "k": 2},
        "construction": "irregular-point",
        "symbol": 1,
        "lo": 0.3,
        "hi": 0.7,
    }
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    path = tmp_path / "irr.point.json"
    assert path.stat().st_size < 1000
    spec = json.loads(path.read_text())
    assert spec["kind"] == "steered-blocks"
    n = 1 << 22
    expected = irregular_point(FullShift(2), 1, 0.3, 0.7).point.prefix(n)
    assert np.array_equal(build_point(spec).prefix(n), expected)


# one point of every rule kind `_point_json` writes, with offsets, components
# and floats that have no short binary form
WRITTEN_POINTS = {
    "block-schedule": Point(BlockSchedule((((0, 1), 3), ((1, 1, 0), 2))), offset=5,
                            fiber=1 / 3),
    "steered-blocks": Point(SteeredBlocks(3, 2, (10, 50, 250), (1 / 3, 0.7, 2 / 7)),
                            component=1, fiber=math.pi / 10),
    "explicit-word": Point(ExplicitWord((0, 1, 1)), offset=2, component=0),
    "seeded-iid": Point(SeededIID(7, (1 / 3, 2 / 3)), offset=1, component=1, fiber=0.1),
    "seeded-markov": Point(SeededMarkov(3, ((0.6, 0.4), (1.0, 0.0)), (5 / 7, 2 / 7)), offset=4),
    "stage-recipe": Point(StageRecipe(((0.3, 0.7), (0.3, 0.7)), (0.3, 0.7), ((1, 1), (1, 1)), 6,
                                      1 << 21), component=0, fiber=0.25),
    "coordinate": Point(Coordinate((1 / 3, math.sqrt(2) - 1)), component=0),
}


@pytest.mark.parametrize("point", WRITTEN_POINTS.values(), ids=WRITTEN_POINTS.keys())
def test_a_point_file_holds_the_bytes_of_a_streamed_json_dump(point, tmp_path):
    streamed = tmp_path / "streamed.point.json"
    with open(streamed, "w", encoding="utf-8") as fh:
        json.dump(_point_json(point), fh)
        fh.write("\n")
    written = tmp_path / "out" / "written.point.json"
    _write_point(str(written), point)
    assert written.read_bytes() == streamed.read_bytes()
    assert build_point(json.loads(written.read_text())) == point


GOLDEN_MEAN_CHAIN = {"kind": "markov", "transitions": [[0.6, 0.4], [1.0, 0.0]]}
GLUED = json.loads((pathlib.Path(__file__).resolve().parents[1] / "scripts" / "configs"
                    / "construct_glued_orbit_golden_mean.json").read_text())
# a construct config's fields, and the point its construction gives in-process
REPLAYED = {
    "blocks-full-shift": ({"construction": "generic-point", "system": FULL_SHIFT_2,
                           "measure": {"kind": "bernoulli", "probs": [0.3, 0.7]}}, "blocks"),
    "blocks-golden-mean": ({"construction": "generic-point", "system": GOLDEN_MEAN,
                            "measure": GOLDEN_MEAN_CHAIN}, "blocks"),
    "seeded-bernoulli": ({"construction": "generic-point", "construction_kind": "seeded-iid",
                          "system": FULL_SHIFT_2,
                          "measure": {"kind": "bernoulli", "probs": [0.3, 0.7]}}, "seeded"),
    "seeded-markov": ({"construction": "generic-point", "construction_kind": "seeded-iid",
                       "system": GOLDEN_MEAN, "measure": GOLDEN_MEAN_CHAIN}, "seeded"),
    "irregular": ({"construction": "irregular-point", "system": FULL_SHIFT_2, "symbol": 1,
                   "lo": 0.3, "hi": 0.7}, "irregular"),
    "glued": ({key: GLUED[key] for key in ("construction", "system", "segments", "eps",
                                           "mistake_function")}, "glued"),
}


def constructed(how, system, cfg):
    """The point the construct config builds, built in-process."""
    if how == "blocks":
        return generic_point(system, build_measure(cfg["measure"]))
    if how == "seeded":
        return generic_point(system, build_measure(cfg["measure"]), "seeded-iid")
    if how == "irregular":
        return irregular_point(system, 1, 0.3, 0.7).point
    segments = [(build_point(p), n) for p, n in cfg["segments"]]
    return glue_orbits(system, segments, cfg["eps"],
                       build_mistake_function(cfg["mistake_function"])).point


@pytest.mark.parametrize("fields, how", REPLAYED.values(), ids=REPLAYED.keys())
def test_a_written_point_replays_its_construction(fields, how, tmp_path, monkeypatch):
    monkeypatch.delenv("ERGODE_SEED", raising=False)
    cfg = {"command": "construct", "experiment_id": "replay", **fields}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    point = build_point(json.loads((tmp_path / "replay.point.json").read_text()))
    system = build_system(cfg["system"])
    assert np.array_equal(point.prefix(10 ** 6), constructed(how, system, cfg).prefix(10 ** 6))
    system.admits(point)


def test_construct_seeded_markov_point_writes_readable_json(tmp_path):
    system = {"kind": "markov-shift", "k": 2, "adjacency": [[1, 1], [1, 0]]}
    measure = {"kind": "markov", "transitions": [[0.6, 0.4], [1.0, 0.0]]}
    cfg = {
        "command": "construct",
        "experiment_id": "mkv",
        "system": system,
        "construction": "generic-point",
        "construction_kind": "seeded-iid",
        "measure": measure,
        "horizon": 4096,
    }
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "mkv.point.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = generic_point(build_system(system), build_measure(measure),
                             "seeded-iid", seed=0, horizon=4096)
    assert np.array_equal(build_point(spec).prefix(4096), expected.prefix(4096))


@pytest.mark.parametrize("horizon", [0, -5])
@pytest.mark.parametrize("construction", [
    {"construction": "generic-point", "construction_kind": "seeded-iid",
     "system": {"kind": "markov-shift", "k": 2, "adjacency": [[1, 1], [1, 0]]},
     "measure": {"kind": "markov", "transitions": [[0.6, 0.4], [1.0, 0.0]]}},
    {"construction": "irregular-point", "system": {"kind": "full-shift", "k": 2},
     "symbol": 1, "lo": 0.3, "hi": 0.7},
])
def test_construct_with_a_horizon_below_one_exits_2(tmp_path, construction, horizon):
    cfg = {"command": "construct", "experiment_id": "h", "horizon": horizon,
           **construction}
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "horizon" in res.stderr
    assert "Traceback" not in res.stderr



IDENTITY_SHIFT = {"kind": "markov-shift", "k": 2, "adjacency": [[1, 0], [0, 1]]}
IDENTITY_CHAIN = {"transitions": [[1, 0], [0, 1]], "stationary": [0.5, 0.5]}


@pytest.mark.parametrize("cfg", [
    {"command": "construct", "construction": "generic-point", "system": IDENTITY_SHIFT,
     "measure": {"kind": "markov", **IDENTITY_CHAIN}},
    {"command": "classify", "system": IDENTITY_SHIFT, "measure": {"kind": "markov", **IDENTITY_CHAIN},
     "point": {"kind": "stage-recipe", **IDENTITY_CHAIN, "adjacency": [[1, 0], [0, 1]],
               "first_stage": 6, "horizon": 4096}},
], ids=["construct", "classify-a-stage-recipe"])
def test_a_stage_recipe_whose_states_no_connector_joins_exits_2(tmp_path, capsys, cfg):
    # the recipe is built, and its first read ended in a GluingError traceback, exit 1
    code, err = run_main({**cfg, "experiment_id": "glue"}, tmp_path, capsys)
    assert code == 2, err
    assert err == "config error: no connector exists from 0 to 1\n"

UNION_2_2 = {"kind": "disjoint-union", "left": {"kind": "full-shift", "k": 2},
             "right": {"kind": "full-shift", "k": 2}}
HALVES = {"kind": "mixture", "components": [
    [{"kind": "bernoulli", "probs": [0.5, 0.5], "component": 0}, 0.5],
    [{"kind": "bernoulli", "probs": [0.5, 0.5], "component": 1}, 0.5]]}


@pytest.mark.parametrize("system, measure, reason", [
    (UNION_2_2, HALVES, "built for Bernoulli and Markov targets"),
    ({"kind": "suspension", "base": {"kind": "full-shift", "k": 2}, "roof": {"constant": 1.0}},
     {"kind": "bernoulli", "probs": [0.5, 0.5]}, "live on shift spaces"),
], ids=["mixture", "suspension"])
def test_a_generic_point_no_construction_covers_exits_2(tmp_path, system, measure, reason):
    # both died with a TypeError traceback and exit 1
    cfg = {"command": "construct", "experiment_id": "g", "construction": "generic-point",
           "system": system, "measure": measure}
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error: bad construction 'generic-point': ")
    assert reason in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("cfg, where", [
    ({"command": "verify-thm-a", "experiment_id": "r", "system": {
        "kind": "suspension", "base": {"kind": "full-shift", "k": 2},
        "roof": {"constant": 1.0, "depth": 1, "table": [1.0, 2.0], "k": 2}}}, "system/roof"),
    ({"command": "entropy", "experiment_id": "f", "system": {
        "kind": "full-shift", "k": 2, "adjacency": [[1, 1], [1, 0]], "n": 3}}, "system"),
], ids=["mixed-roof", "full-shift-adjacency"])
def test_a_field_of_another_kind_exits_2(tmp_path, cfg, where):
    # both ran as if the field were absent, and exited 0
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith(f"config error: config rejected at {where}: ")
    assert "is not read by" in res.stderr


def test_diagnostics_flag_adds_rows(tmp_path):
    plain = run_cli(entropy_config("diag"), tmp_path)
    assert plain.returncode == 0
    _, base_rows = read_rows(tmp_path, "diag")
    extra = run_cli(entropy_config("diag"), tmp_path, "--diagnostics")
    assert extra.returncode == 0
    _, diag_rows = read_rows(tmp_path, "diag")
    assert len(diag_rows) > len(base_rows)
    assert any(r["quantity"] == "alpha_at_depth" for r in diag_rows)


def test_threads_flag_gives_identical_rows(tmp_path):
    cfg = {
        "command": "verify-thm-a",
        "experiment_id": "par",
        "system": {"kind": "suspension", "base": {"kind": "full-shift", "k": 2},
                   "roof": {"constant": 1.0}},
        "subset": {"kind": "whole"},
    }
    for sub, flags in (("one", ()), ("four", ("--threads", "4"))):
        d = tmp_path / sub
        d.mkdir()
        res = run_cli(cfg, d, *flags)
        assert res.returncode == 0, res.stderr
    _, seq = read_rows(tmp_path / "one", "par")
    _, par = read_rows(tmp_path / "four", "par")
    strip = lambda rows: [(r["quantity"], r["value"], r["params"]) for r in rows]
    assert strip(seq) == strip(par)


def test_verify_thm_b_gap_is_small(tmp_path):
    cfg = {
        "command": "verify-thm-b",
        "experiment_id": "thmb",
        "system": {"kind": "full-shift", "k": 2},
        "measure": {"kind": "bernoulli", "probs": [0.3, 0.7]},
        "depths": [500, 1000, 2000],
    }
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    _, rows = read_rows(tmp_path, "thmb")
    gap = next(r for r in rows if r["quantity"] == "entropy_vs_metric_gap")
    assert abs(float(gap["value"])) < 0.02


def test_verify_irregular_reports_entropy_fraction(tmp_path):
    cfg = {
        "command": "verify-irregular",
        "experiment_id": "irr",
        "system": {"kind": "full-shift", "k": 2},
        "symbol": 0,
        "lo": 0.3,
        "hi": 0.7,
        "block_ratio": 4,
        "depths": [2000],
    }
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    _, rows = read_rows(tmp_path, "irr")
    frac = next(r for r in rows if r["quantity"] == "entropy_fraction_of_max")
    assert float(frac["value"]) >= 0.95
    gap = next(r for r in rows if r["quantity"] == "oscillation_gap")
    assert float(gap["value"]) >= 0.18


def test_verify_inclusions_on_a_map_screens_samples(tmp_path):
    cfg = {
        "command": "verify-inclusions",
        "experiment_id": "incl",
        "system": {"kind": "full-shift", "k": 2},
        "measure": {"kind": "bernoulli", "probs": [0.5, 0.5]},
        "sample_count": 6,
    }
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    _, rows = read_rows(tmp_path, "incl")
    by_q = {r["quantity"]: float(r["value"]) for r in rows}
    assert by_q["mu_sample_generic"] == 6
    assert by_q["mu_sample_notgeneric"] == 0
    assert by_q["foreign_rejected_count"] == 6


def reading_points(monkeypatch, reads):
    """Patch `_profiles` where the package reads it so that every point it
    reads lands in `reads` as (system, point), as the reader takes it."""
    from ergode import birkhoff, cli
    profiles = birkhoff._profiles

    def counted(system, points, *args):
        def each():
            for x in points:
                reads.append((system, x))
                yield x
        return profiles(system, each(), *args)

    monkeypatch.setattr(birkhoff, "_profiles", counted)
    monkeypatch.setattr(cli, "_profiles", counted)


def test_verify_inclusions_reads_each_limit_sample_once(tmp_path, monkeypatch):
    """The first samples' limit sets cluster the profile their classification
    read: 6 mu samples and 6 foreign samples are 12 points read, not 18."""
    from ergode import cli

    reads = []
    reading_points(monkeypatch, reads)
    cfg = {
        "command": "verify-inclusions",
        "experiment_id": "incl",
        "system": {"kind": "full-shift", "k": 2},
        "measure": {"kind": "bernoulli", "probs": [0.5, 0.5]},
        "sample_count": 6,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
    assert len(reads) == 12 and len({id(x) for _, x in reads}) == 12
    _, rows = read_rows(tmp_path, "incl")
    assert [(r["quantity"], r["value"]) for r in rows] == [
        ("mu_sample_generic", "6"), ("mu_sample_notgeneric", "0"),
        ("mu_sample_inconclusive", "0"), ("single_limit_class_count", "6"),
        ("foreign_rejected_count", "6"),
    ]


GOLDEN_MEAN_SYSTEM = {"kind": "markov-shift", "k": 2, "adjacency": [[1, 1], [1, 0]]}


def test_random_point_on_a_proper_vertex_shift_is_a_config_error(tmp_path):
    cfg = {
        "command": "birkhoff",
        "experiment_id": "birk",
        "system": GOLDEN_MEAN_SYSTEM,
        "point": {"kind": "random"},
        "observable": {"kind": "symbol-frequency", "symbol": 1},
        "schedule": {"kind": "explicit", "checkpoints": [64, 128]},
    }
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "forbids a transition" in res.stderr


def test_thm_b_mixture_samples_on_a_proper_vertex_shift_are_a_config_error(tmp_path):
    cfg = {
        "command": "verify-thm-b",
        "experiment_id": "thm-b",
        "system": {"kind": "disjoint-union", "left": GOLDEN_MEAN_SYSTEM,
                   "right": GOLDEN_MEAN_SYSTEM},
        "measure": {"kind": "mixture", "components": [
            [{"kind": "markov", "transitions": [[0.6, 0.4], [1.0, 0.0]],
              "component": 0}, 0.5],
            [{"kind": "markov", "transitions": [[0.6, 0.4], [1.0, 0.0]],
              "component": 1}, 0.5],
        ]},
        "depths": [64, 128],
        "family_depth": 2,
        "sample_count": 2,
    }
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "forbids a transition" in res.stderr


FOREIGN_MEASURE = {"kind": "bernoulli", "probs": [0.2, 0.3, 0.5]}    # three symbols
HALF_ORBIT = {"kind": "atomic", "points": [{"kind": "explicit-word", "symbols": [0, 1]}],
              "weights": [1.0]}                                   # not invariant
SHIFT_2 = {"kind": "full-shift", "k": 2}
UNIT_ROOF = {"kind": "suspension", "base": SHIFT_2, "roof": {"constant": 1.0}}


@pytest.mark.parametrize("command, system, extra", [
    pytest.param(command, system, extra, id=f"{command}-{name}")
    for command, extra in (
        ("classify", {"point": {"kind": "explicit-word", "symbols": [0, 1]}}),
        ("construct", {"construction": "generic-point"}),
        ("verify-inclusions", {"sample_count": 6}),
        ("verify-thm-b", {"depths": [64, 128]}),
    )
    for name, system in (("shift", SHIFT_2), ("suspension", UNIT_ROOF))
    if (command, name) != ("construct", "suspension")     # generic points need a shift
])
@pytest.mark.parametrize("measure", [FOREIGN_MEASURE, HALF_ORBIT], ids=["k3", "half-orbit"])
def test_a_measure_that_is_not_invariant_on_its_system_exits_2(tmp_path, command, system,
                                                               extra, measure):
    cfg = {"command": command, "experiment_id": "foreign", "system": system,
           "measure": measure, **extra}
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error: bad measure:"), res.stderr
    assert "Traceback" not in res.stderr


REPO = pathlib.Path(__file__).resolve().parents[1]
MEASURE_CONFIGS = sorted(
    p for d in ("scripts/configs", "perfbench/configs") for p in (REPO / d).glob("*.json")
    if "measure" in json.loads(p.read_text())
)


@pytest.mark.parametrize("path", MEASURE_CONFIGS, ids=lambda p: p.stem)
def test_every_committed_measure_is_invariant_on_its_system(path):
    cfg = json.loads(path.read_text())
    assert _measure(cfg, build_system(cfg["system"])) == build_measure(cfg["measure"])


def test_a_flow_inclusion_suite_of_an_atomic_measure_exits_2(tmp_path):
    # the suite builds its points from the measure's chain, which a point mass is not
    whole_orbit = {"kind": "atomic", "points": [{"kind": "explicit-word", "symbols": [0, 1]},
                                                {"kind": "explicit-word", "symbols": [1, 0]}],
                   "weights": [0.5, 0.5]}
    cfg = {"command": "verify-inclusions", "experiment_id": "flow-atomic",
           "system": UNIT_ROOF, "sample_count": 6, "measure": whole_orbit}
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "'flow inclusion suite': Atomic is not a chain" in res.stderr
    assert "Traceback" not in res.stderr


WORD_ROOF = {"kind": "suspension", "base": SHIFT_2,
             "roof": {"depth": 1, "table": [1.0, 2.0], "k": 2}}


@pytest.mark.parametrize("command, extra", [
    ("classify", {"point": {"kind": "seeded-iid", "seed": 5, "probs": [0.5, 0.5]},
                  "mode": "generic", "tolerance": 0.02}),
    ("verify-inclusions", {"sample_count": 6}),
])
def test_a_time_average_under_a_word_dependent_roof_exits_2(tmp_path, command, extra):
    # the flow-invariant measure weighs each base point by its roof, which
    # the time average does not: a typical point read Inconclusive, exit 0
    cfg = {"command": command, "experiment_id": "word-roof", "system": WORD_ROOF,
           "measure": {"kind": "bernoulli", "probs": [0.5, 0.5]}, **extra}
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error: bad measure:"), res.stderr
    assert "word-dependent" in res.stderr


def test_verify_inclusions_on_a_suspension_checks_both_dynamics(tmp_path):
    cfg = {
        "command": "verify-inclusions",
        "experiment_id": "incl-flow",
        "system": {"kind": "suspension", "base": {"kind": "full-shift", "k": 2},
                   "roof": {"constant": 1.0}},
        "measure": {"kind": "bernoulli", "probs": [0.5, 0.5]},
        "sample_count": 8,
    }
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    _, rows = read_rows(tmp_path, "incl-flow")
    by_q = {r["quantity"]: float(r["value"]) for r in rows}
    assert by_q["suite_size"] >= 8
    assert by_q["generic_inclusion_breaks"] == 0
    assert by_q["irregular_inclusion_breaks"] == 0


def suspension_birkhoff_config(system, fiber):
    return {
        "command": "birkhoff",
        "experiment_id": "susp",
        "system": system,
        "point": {"kind": "seeded-iid", "seed": 1, "probs": [0.5, 0.5], "fiber": fiber},
        "observable": {"kind": "symbol-frequency", "symbol": 0},
        "schedule": {"kind": "explicit", "checkpoints": [10, 20]},
    }


def suspension(roof):
    return {"kind": "suspension", "base": {"kind": "full-shift", "k": 2}, "roof": roof}


def symbol_frequency_config(system, point):
    return {"command": "birkhoff", "experiment_id": "birk", "system": system, "point": point,
            "observable": {"kind": "symbol-frequency", "symbol": 1},
            "schedule": {"kind": "explicit", "checkpoints": [1000]}}


F2_F3 = {"kind": "disjoint-union", "left": FULL_SHIFT_2, "right": {"kind": "full-shift", "k": 3}}


@pytest.mark.parametrize("system, point", [
    (FULL_SHIFT_2, {"kind": "explicit-word", "symbols": [0, 1, 2]}),
    (FULL_SHIFT_2, {"kind": "explicit-word", "symbols": [0, -1]}),
    (FULL_SHIFT_2, {"kind": "block-schedule", "blocks": [[[0, 1], 3], [[1, 2], 2]]}),
    (suspension({"constant": 1.0}), {"kind": "explicit-word", "symbols": [0, 1, 2],
                                     "fiber": 0.0}),
    (F2_F3, {"kind": "explicit-word", "symbols": [0, 1, 2], "component": 0}),
], ids=["explicit-word", "negative", "block-schedule", "suspension", "union-side"])
def test_a_point_symbol_outside_the_alphabet_exits_2(tmp_path, system, point):
    # [0, 1, 2] on two symbols was read as frequency 0.666 of symbol 1, not 1/3
    res = run_cli(symbol_frequency_config(system, point), tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "outside the alphabet" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("point", [
    {"kind": "explicit-word", "symbols": [1, 1, 1, 1]},
    {"kind": "explicit-word", "symbols": [1, 0, 1]},
    {"kind": "block-schedule", "blocks": [[[0, 1], 1], [[1, 0], 3]]},
    {"kind": "block-schedule", "blocks": [[[0, 1, 0], 2], [[1], 1]]},
    {"kind": "steered-blocks", "k": 2, "symbol": 1, "ends": [8, 16], "targets": [0.75, 0.75]},
], ids=["word", "wrap-around", "junction", "last-repeat", "steered"])
def test_a_point_outside_a_vertex_shift_exits_2(tmp_path, point):
    # [1, 1, 1, 1] on the golden mean read as frequency 1 of symbol 1 and exited 0
    res = run_cli(symbol_frequency_config(GOLDEN_MEAN, point), tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error:" in res.stderr and "forbidden" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "birk.csv").exists()


def test_a_point_inside_a_vertex_shift_is_read(tmp_path):
    point = {"kind": "explicit-word", "symbols": [0, 1, 0]}
    res = run_cli(symbol_frequency_config(GOLDEN_MEAN, point), tmp_path)
    assert res.returncode == 0, res.stderr
    _, rows = read_rows(tmp_path, "birk")
    assert float(rows[0]["value"]) == pytest.approx(1 / 3, abs=1e-3)


def test_a_steered_point_that_keeps_the_vertex_shift_transitions_is_read(tmp_path, capsys):
    # frequency 0.25 of symbol 1 in blocks of 8: every 1 sits between 0s
    point = {"kind": "steered-blocks", "k": 2, "symbol": 1, "ends": [8, 16],
             "targets": [0.25, 0.25]}
    code, err = run_main(symbol_frequency_config(GOLDEN_MEAN, point), tmp_path, capsys)
    assert code == 0, err
    _, rows = read_rows(tmp_path, "birk")
    assert float(rows[0]["value"]) == 0.25


def test_a_point_symbol_inside_its_union_side_is_read(tmp_path):
    point = {"kind": "explicit-word", "symbols": [0, 1, 2], "component": 1}
    res = run_cli(symbol_frequency_config(F2_F3, point), tmp_path)
    assert res.returncode == 0, res.stderr
    _, rows = read_rows(tmp_path, "birk")
    assert float(rows[0]["value"]) == pytest.approx(1 / 3, abs=1e-3)


def test_a_point_tagged_with_no_side_of_its_union_exits_2(tmp_path, capsys):
    # a union has sides 0 and 1; a point tagged 5 was read as if untagged
    point = {"kind": "explicit-word", "symbols": [0, 1], "component": 5}
    code, err = run_main(symbol_frequency_config(F2_F3, point), tmp_path, capsys)
    assert code == 2
    assert err == "config error: bad point: component must be 0 (left) or 1 (right)\n"


@pytest.mark.parametrize("roof", [{"constant": 1.0}, {"depth": 1, "table": [1.0, 2.0], "k": 2}])
def test_time_t_map_of_a_suspension_with_negative_t_exits_2(tmp_path, roof):
    system = {"kind": "time-t-map", "flow": suspension(roof), "t": -1.0}
    res = run_cli(suspension_birkhoff_config(system, 0.0), tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "t > 0" in res.stderr
    assert "Traceback" not in res.stderr


def test_time_t_map_of_a_map_exits_2(tmp_path):
    cfg = entropy_config("tt-rotation", "caratheodory")
    cfg["system"] = {"kind": "time-t-map", "flow": {"kind": "circle-rotation", "theta": 0.3},
                     "t": 1.0}
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "not a flow" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("t", [-1.0, 0.0])
def test_verify_thm_a_with_a_time_at_or_below_zero_exits_2(tmp_path, t):
    cfg = {"command": "verify-thm-a", "experiment_id": "thm-a",
           "system": suspension({"constant": 1.0}), "depths": [20, 40], "times": [1.0, t]}
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("path", ["flow", "time-t-map"])
def test_fiber_outside_the_roof_exits_2(tmp_path, path):
    system = suspension({"constant": 1.0})
    if path == "time-t-map":
        system = {"kind": "time-t-map", "flow": system, "t": 1.0}
    res = run_cli(suspension_birkhoff_config(system, 5.0), tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "fiber coordinate" in res.stderr
    assert "Traceback" not in res.stderr


ROTATION = {"kind": "circle-rotation", "theta": 0.3}
COORDINATE = {"kind": "coordinate", "coords": [0.1]}
IID = {"kind": "seeded-iid", "seed": 1, "probs": [0.5, 0.5]}
FREQUENCY = {"kind": "symbol-frequency", "symbol": 0}
HARMONIC = {"kind": "harmonic", "frequency": 1}


@pytest.mark.parametrize("command, system, point, observable", [
    ("birkhoff", FULL_SHIFT_2, COORDINATE, FREQUENCY),
    ("birkhoff", suspension({"constant": 1.0}), {**COORDINATE, "fiber": 0.0}, FREQUENCY),
    ("birkhoff", ROTATION, {"kind": "explicit-word", "symbols": [0, 1]}, HARMONIC),
    ("birkhoff", FULL_SHIFT_2, IID, HARMONIC),
    ("classify", FULL_SHIFT_2, IID, HARMONIC),
    ("birkhoff", ROTATION, COORDINATE, {"kind": "cylinder", "word": [0]}),
    ("birkhoff", FULL_SHIFT_2, IID, {"kind": "fiber-profile", "base": FREQUENCY,
                                     "breakpoints": [[0.0, 1.0], [1.0, 1.0]]}),
], ids=["coordinate-on-shift", "coordinate-on-suspension", "word-on-rotation",
        "harmonic-on-shift", "harmonic-irregular", "cylinder-on-rotation", "fiber-profile-on-map"])
def test_a_point_or_observable_its_system_cannot_read_exits_2(tmp_path, capsys, command,
                                                              system, point, observable):
    # each ended in a traceback and exit 1
    cfg = {"command": command, "experiment_id": "unread", "system": system, "point": point,
           "observable": observable, "schedule": {"kind": "explicit", "checkpoints": [10, 20]}}
    if command == "classify":
        cfg["mode"] = "irregular"
    code, err = run_main(cfg, tmp_path, capsys)
    assert code == 2 and err.startswith("config error: bad "), err


@pytest.mark.parametrize("checkpoints", [[1, 2, 3], [5, 6]])
def test_flow_inclusion_suite_on_a_small_roof_exits_2(tmp_path, checkpoints):
    # on a roof of 0.3 these checkpoints round to time-1 map steps 0 or to repeats
    cfg = {"command": "verify-inclusions", "experiment_id": "incl-small",
           "system": suspension({"constant": 0.3}), "sample_count": 4,
           "schedule": {"kind": "explicit", "checkpoints": checkpoints}}
    res = run_cli(cfg, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "Traceback" not in res.stderr
    assert "roof 0.3" in res.stderr and str(checkpoints) in res.stderr


INTEGRATE_SUITES = [
    {"command": "verify-inclusions", "experiment_id": "incl-flow",
     "system": suspension({"constant": 2.0}), "sample_count": 8,
     "schedule": {"kind": "explicit", "checkpoints": [256, 512, 1024]}},
    {"command": "verify-inclusions", "experiment_id": "incl-map",
     "system": {"kind": "full-shift", "k": 2},
     "measure": {"kind": "bernoulli", "probs": [0.5, 0.5]}, "sample_count": 6,
     "schedule": {"kind": "explicit", "checkpoints": [1024, 2048, 4096]}},
    {"command": "verify-thm-b", "experiment_id": "thm-b-mix",
     "system": {"kind": "suspension", "roof": {"constant": 1.0},
                "base": {"kind": "disjoint-union", "left": {"kind": "full-shift", "k": 2},
                         "right": {"kind": "full-shift", "k": 2}}},
     "measure": {"kind": "mixture", "components": [
         [{"kind": "bernoulli", "probs": [0.5, 0.5], "component": 0}, 0.5],
         [{"kind": "bernoulli", "probs": [0.5, 0.5], "component": 1}, 0.5]]},
     "depths": [20, 40], "sample_count": 6, "family_depth": 3,
     "schedule": {"kind": "explicit", "checkpoints": [256, 512]}},
]


@pytest.mark.parametrize("cfg", INTEGRATE_SUITES, ids=lambda c: c["experiment_id"])
def test_a_suite_integrates_each_observable_once(tmp_path, monkeypatch, cfg):
    from ergode import birkhoff, cli

    calls = {}
    original = birkhoff.integrate

    def counted(mu, phi, *args, **kwargs):
        calls[(id(mu), phi)] = calls.get((id(mu), phi), 0) + 1
        return original(mu, phi, *args, **kwargs)

    monkeypatch.setattr(birkhoff, "integrate", counted)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
    assert calls and set(calls.values()) == {1}


def test_map_inclusion_suite_draws_each_sample_once(tmp_path, monkeypatch):
    """The limit-set rows reuse the first samples drawn for the verdicts."""
    from ergode import cli

    seeds = []
    original = cli._sample_from

    def counted(system, mu, seed):
        seeds.append(seed)
        return original(system, mu, seed)

    monkeypatch.setattr(cli, "_sample_from", counted)
    cfg = INTEGRATE_SUITES[1]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
    # samples of mu and of the foreign measure, each drawn once
    assert len(seeds) == 2 * cfg["sample_count"] and len(set(seeds)) == len(seeds)
    _, rows = read_rows(tmp_path, cfg["experiment_id"])
    by_q = {r["quantity"]: float(r["value"]) for r in rows}
    assert by_q["single_limit_class_count"] == cfg["sample_count"]


def test_a_mixture_sample_shares_no_uniform_with_the_next_samples_choice():
    # sample i's stream was seeded with seed + 1, the seed of sample i + 1's
    # choice of piece, so one uniform drew both: 20 times in 20 at seed 0
    union = build_system(UNION_2_2)
    mu = build_measure(HALVES)
    first = lambda seed: np.random.default_rng(seed).random()
    for i in range(20):
        x = cli._sample_from(union, mu, i)
        assert first(x.rule.seed) != first(i + 1), i
        assert x.component in (0, 1)


COMMITTED = os.path.join(os.path.dirname(__file__), "..", "scripts", "configs")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["inclusions_unit_roof", "inclusions_roof2"])
def test_a_flow_suite_reads_each_point_once_per_dynamics(tmp_path, monkeypatch, name, seed):
    """One read of the family and the frequency serves both verdicts of a
    dynamics; the four labels are those of four separate verdicts."""
    from ergode import cli
    from ergode.birkhoff import Schedule, classify_generic, classify_irregular
    from ergode.measures import Bernoulli, CylinderIndicator, TestFamily, time_average_measure
    from ergode.systems import TimeTMap

    reads, suite, verdicts = [], [], {}
    reading_points(monkeypatch, reads)
    points_of = cli._inclusion_suite_points

    def listed(*args):
        out = points_of(*args)
        suite.extend(out)
        return out

    def recorded(kind, classify):
        def verdict(system, x, *args, **kwargs):
            v = classify(system, x, *args, **kwargs)
            verdicts[kind, system.is_flow, id(x)] = v.label
            return v
        return verdict

    monkeypatch.setattr(cli, "_inclusion_suite_points", listed)
    monkeypatch.setattr(cli, "classify_generic", recorded("generic", cli.classify_generic))
    monkeypatch.setattr(cli, "classify_irregular", recorded("irregular", cli.classify_irregular))
    monkeypatch.setenv("ERGODE_SEED", str(seed))
    path = os.path.join(COMMITTED, f"{name}.json")
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 0
    # each of the 50 points is read once per dynamics, and the 4 constructed
    # irregular points once more (the frequency on their own blocks)
    assert len(suite) == 50 and len(reads) == 2 * 50 + 2 * 4
    for is_flow in (False, True):
        times = collections.Counter(id(x) for system, x in reads if system.is_flow == is_flow)
        assert [times[id(x)] for _, x, _ in suite] == \
            [2 if tag == "constructed-irregular" else 1 for tag, _, _ in suite]

    with open(path) as fh:
        cfg = json.load(fh)
    assert "measure" not in cfg and "family_depth" not in cfg and "tolerance" not in cfg
    flow = build_system(cfg["system"])
    tmap, c = TimeTMap(flow, 1.0), flow.roof.roof_max
    fam = TestFamily.default_for(flow.base, depth=3)
    mubar = time_average_measure(flow, Bernoulli((0.5, 0.5)), 16)
    freq = CylinderIndicator((0,))
    base = cfg["schedule"]["checkpoints"]

    def sched(checkpoints, integral):
        return Schedule(tuple(int(round(cp * c)) if integral else cp * c for cp in checkpoints))

    labels = set()
    for tag, x, blocks in suite:
        irregular = blocks.checkpoints if blocks else base
        got = tuple((verdicts["generic", is_flow, id(x)], verdicts["irregular", is_flow, id(x)])
                    for is_flow in (False, True))
        want = tuple((classify_generic(system, x, mubar, fam, sched(base, integral)).label,
                      classify_irregular(system, x, freq, sched(irregular, integral)).label)
                     for system, integral in ((tmap, True), (flow, False)))
        assert got == want, tag
        labels.update(*want)
    assert {"Generic", "Irregular"} <= labels


def test_inclusion_suite_peak_memory_stays_within_its_gate(tmp_path):
    """The roof-2 inclusion suite holds its 2^22-symbol streams and one cell
    grid per time-1 map; its peak RSS was 225 MB before the flow readers went
    cell by cell.  The gate is 150 MB.

    The child reports VmHWM, the peak of its own address space, which exec
    starts afresh.  Its getrusage maxrss would not do: exec carries the
    parent's peak into it."""
    config = os.path.join(os.path.dirname(__file__), "..", "scripts", "configs",
                          "inclusions_roof2.json")
    child = (
        "import sys\n"
        "from ergode.cli import main\n"
        "code = main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
        "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
        "print(code, status.split()[0])\n"
    )
    res = subprocess.run([sys.executable, "-c", child, config, str(tmp_path)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    code, peak_kb = res.stdout.split()[-2:]
    assert code == "0"
    assert int(peak_kb) / 1024.0 <= 150.0


# ---------------------------------------------------------------------------
# time-t maps of a suspension: the base measure is lifted to the flow's space

def time_half(roof):
    return {"kind": "time-t-map", "t": 0.5,
            "flow": {"kind": "suspension", "base": SHIFT_2, "roof": roof}}


COIN_37 = {"kind": "bernoulli", "probs": [0.3, 0.7]}
TIME_T_CONFIGS = {
    "classify": {"command": "classify", "experiment_id": "tt", "measure": COIN_37,
                 "point": {"kind": "seeded-iid", "seed": 11, "probs": [0.3, 0.7]}},
    "verify-inclusions": {"command": "verify-inclusions", "experiment_id": "tt",
                          "measure": COIN_37, "sample_count": 4},
}


def test_a_time_t_map_classifies_a_point_of_its_lifted_measure(tmp_path, capsys):
    # its family had the flow's fiber hat, which the map's reader refuses: a traceback
    cfg = {**TIME_T_CONFIGS["classify"], "system": time_half({"constant": 1.0})}
    code, err = run_main(cfg, tmp_path, capsys)
    assert code == 0, err
    (row,) = read_rows(tmp_path, "tt")[1]
    assert json.loads(row["params"])["label"] == "Generic"


def test_a_time_t_map_inclusion_suite_counts_its_samples(tmp_path, capsys):
    cfg = {**TIME_T_CONFIGS["verify-inclusions"], "system": time_half({"constant": 1.0})}
    code, err = run_main(cfg, tmp_path, capsys)
    assert code == 0, err
    by_q = {r["quantity"]: float(r["value"]) for r in read_rows(tmp_path, "tt")[1]}
    assert (by_q["mu_sample_generic"], by_q["foreign_rejected_count"]) == (4.0, 4.0)


@pytest.mark.parametrize("command", TIME_T_CONFIGS)
def test_a_time_t_map_under_a_word_dependent_roof_exits_2(tmp_path, capsys, command):
    # with no fiber hat alone, a 1/2-1/2 point read NotGeneric against the
    # midpoint average, which is not the flow-invariant measure there
    cfg = {**TIME_T_CONFIGS[command], "system": time_half({"depth": 1, "table": [1.0, 2.0],
                                                           "k": 2})}
    code, err = run_main(cfg, tmp_path, capsys)
    assert code == 2, err
    assert err.startswith("config error: bad measure:") and "word-dependent" in err


def test_verify_thm_b_on_a_time_t_map_exits_2(tmp_path, capsys):
    # it ended in a TypeError traceback: the base measure was checked on the map itself
    cfg = {"command": "verify-thm-b", "experiment_id": "tt", "measure": COIN_37,
           "system": time_half({"constant": 1.0}), "depths": [60, 120]}
    code, err = run_main(cfg, tmp_path, capsys)
    assert code == 2, err
    assert err.startswith("config error:") and "time-t map" in err


@pytest.mark.parametrize("cfg", [
    {"command": "construct", "construction": "irregular-point", "system": GOLDEN_MEAN},
    {"command": "verify-irregular", "system": GOLDEN_MEAN},
    {"command": "construct", "construction": "glued-orbit", "system": UNIT_ROOF,
     "segments": [[{"kind": "explicit-word", "symbols": [0, 1]}, 5],
                  [{"kind": "explicit-word", "symbols": [1]}, 5]]},
], ids=["irregular-point-on-a-vertex-shift", "verify-irregular-on-a-vertex-shift",
        "glued-orbit-on-a-suspension"])
def test_a_construction_refused_by_its_system_exits_2(tmp_path, capsys, cfg):
    code, err = run_main({**cfg, "experiment_id": "refused"}, tmp_path, capsys)
    assert code == 2, err
    assert err.startswith("config error: bad construction"), err


def test_a_glued_orbit_with_a_segment_its_shift_forbids_exits_2(tmp_path, capsys):
    # it was refused only after gluing, as "glued word is not admissible"
    cfg = {"command": "construct", "construction": "glued-orbit", "experiment_id": "bad-segment",
           "system": GOLDEN_MEAN,
           "segments": [[{"kind": "explicit-word", "symbols": [0, 1]}, 5],
                        [{"kind": "explicit-word", "symbols": [1, 1, 1, 1]}, 5]]}
    code, err = run_main(cfg, tmp_path, capsys)
    assert code == 2, err
    assert err.startswith("config error: bad point: transitions [(1, 1)] are forbidden"), err


def test_random_points_resolve_to_their_pinned_seeds(tmp_path, capsys, monkeypatch):
    """At ERGODE_SEED=0 a run draws its random points from default_rng(0) in
    the order it resolves them: a birkhoff point, then two glued-orbit segments."""
    seeds, resolve = [], cli._random_point

    def recorded(space, rng):
        point = resolve(space, rng)
        seeds.append(point.rule.seed)
        return point

    monkeypatch.setattr(cli, "_random_point", recorded)
    monkeypatch.setenv("ERGODE_SEED", "0")
    shift = {"kind": "full-shift", "k": 2}
    birk = {"command": "birkhoff", "experiment_id": "birk", "system": shift,
            "point": {"kind": "random"}, "observable": {"kind": "symbol-frequency", "symbol": 1},
            "schedule": {"kind": "explicit", "checkpoints": [64]}}
    glued = {"command": "construct", "construction": "glued-orbit", "experiment_id": "glued",
             "system": shift, "eps": 0.75,
             "segments": [[{"kind": "random"}, 40], [{"kind": "random"}, 30]]}
    for cfg in (birk, glued):
        assert run_main(cfg, tmp_path, capsys)[0] == 0
    assert seeds == [5874934615388537134, 5874934615388537134, 2488343231644625808]


# a fresh run of each config with LAPACK's numpy entry points refused, then
# whether it loaded numpy.random
_BARE_RUN = """
import json, sys
import numpy as np
from ergode.cli import main

linalg = sys.modules[np.linalg.lstsq.__module__]     # where numpy's LAPACK wrappers live

class NoLapack:
    def __getattr__(self, name):
        raise AssertionError(f"LAPACK called: {name}")

linalg._umath_linalg = NoLapack()
codes = [main(["run", path, "--out", sys.argv[1]]) for path in sys.argv[2:]]
print(json.dumps([codes, "numpy.random" in sys.modules]))
"""


def test_an_entropy_run_loads_neither_numpy_random_nor_lapack(tmp_path):
    configs = [str(REPO / "scripts" / "configs" / f"{name}.json")
               for name in ("entropy_full_shift_2", "thm_b_bernoulli")]
    env = {k: v for k, v in os.environ.items() if k != "ERGODE_SEED"}
    res = subprocess.run([sys.executable, "-c", _BARE_RUN, str(tmp_path), *configs],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == [[0, 0], False]
