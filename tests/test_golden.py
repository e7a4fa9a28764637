"""Golden replay: every worked config reproduces its committed results.

Each config in `scripts/configs/` is run in-process through the CLI entry
point, and its CSV must match the committed one in
`scripts/verification_runs/` on the columns that carry results (timings and
provenance comments are left out).  Point files written by constructions
must match byte for byte.
"""

import csv
import json
import pathlib

import pytest

from ergode.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.json"))
GOLDEN = ROOT / "scripts" / "verification_runs"
KEY = ("experiment_id", "quantity", "value", "lower", "upper")


def result_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [tuple(r[k] for k in KEY) for r in csv.DictReader(lines)]


def test_every_worked_config_is_covered():
    assert len(CONFIGS) == 12


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_config_replays_its_committed_results(config, tmp_path, monkeypatch):
    monkeypatch.delenv("ERGODE_SEED", raising=False)
    eid = json.loads(config.read_text())["experiment_id"]
    assert main(["run", str(config), "--out", str(tmp_path)]) == 0
    assert result_rows(tmp_path / f"{eid}.csv") == result_rows(GOLDEN / f"{eid}.csv")
    golden_point = GOLDEN / f"{eid}.point.json"
    if golden_point.exists():
        assert (tmp_path / f"{eid}.point.json").read_bytes() == golden_point.read_bytes()
