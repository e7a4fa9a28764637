"""Golden replay: every worked config reproduces its committed results.

Each config in `scripts/configs/`, and each contract config in
`tests/contract/` (a path a config can reach that no worked config pins),
is run in-process through the CLI entry point, and its CSV must match the
committed one (in `scripts/verification_runs/`, or next to the contract
config) on the columns that carry results (timings and provenance comments
are left out).  Point files written by constructions must match byte for
byte.
"""

import csv
import json
import pathlib

import pytest

from ergode.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.json"))
GOLDEN = ROOT / "scripts" / "verification_runs"
CONTRACT = sorted((ROOT / "tests" / "contract").glob("*.json"))
KEY = ("experiment_id", "quantity", "value", "lower", "upper")


def result_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [tuple(r[k] for k in KEY) for r in csv.DictReader(lines)]


def test_every_worked_config_is_covered():
    assert len(CONFIGS) == 12


@pytest.mark.parametrize("config", CONFIGS + CONTRACT, ids=lambda p: p.stem)
def test_config_replays_its_committed_results(config, tmp_path, monkeypatch):
    monkeypatch.delenv("ERGODE_SEED", raising=False)
    eid = json.loads(config.read_text())["experiment_id"]
    golden = GOLDEN if config in CONFIGS else config.parent
    assert main(["run", str(config), "--out", str(tmp_path)]) == 0
    assert result_rows(tmp_path / f"{eid}.csv") == result_rows(golden / f"{eid}.csv")
    golden_point = golden / f"{eid}.point.json"
    if golden_point.exists():
        assert (tmp_path / f"{eid}.point.json").read_bytes() == golden_point.read_bytes()


def test_the_word_roof_time_t_map_reads_the_time_share():
    """The time-0.5 map of the roof table [1, 2] spends the time share
    r(0) / (r(0) + r(1)) = 1/3 over symbol 0.  n steps cover N = n/3 cells of
    mean roof 1.5, each adding r(s) * [s = 0] - r(s)/3 = +-2/3 to the time over
    symbol 0 less its share, so a row lies within 4 CLT deviations
    (2/3) / (1.5 * sqrt(N)) of 1/3."""
    rows = result_rows(ROOT / "tests" / "contract" / "time-t-word-roof.csv")
    with open(ROOT / "tests" / "contract" / "time_t_word_roof.json", encoding="utf-8") as fh:
        checkpoints = json.load(fh)["schedule"]["checkpoints"]
    assert len(rows) == len(checkpoints) == 3
    for (_, quantity, value, _, _), n in zip(rows, checkpoints):
        sigma = (2 / 3) / (1.5 * (n / 3) ** 0.5)
        assert quantity == "birkhoff_average" and abs(float(value) - 1 / 3) <= 4 * sigma, n
