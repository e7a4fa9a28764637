"""Result rows and the CSV artifact format.

Every command emits rows with the same seven columns; the file carries its
provenance in comment lines (tool version, config digest, seed, and an
incomplete marker when a budget was exhausted mid-run).  Numbers print with
%.12g so reruns diff cleanly; missing bounds print as empty cells.
"""

from __future__ import annotations

import json
import time
from typing import Optional, Sequence

from .systems import Record

__all__ = ["Row", "write_csv", "timed", "CSV_COLUMNS", "TOOL_TAG"]

CSV_COLUMNS = "experiment_id,quantity,value,lower,upper,params,runtime_ms"
TOOL_TAG = "ergode 0.1.0"


class Row(Record):
    experiment_id: str
    quantity: str
    value: float
    lower: Optional[float]
    upper: Optional[float]
    params: dict
    runtime_ms: float


def _num(x: Optional[float]) -> str:
    if x is None:
        return ""
    return "%.12g" % float(x)


def _params(params: dict) -> str:
    if not params:
        return '"{}"'
    text = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return '"' + text.replace('"', '""') + '"'


def write_csv(path: str, rows: Sequence[Row], *, config_sha256: str, seed: int,
              incomplete: bool = False) -> None:
    lines = [
        f"# artifact={TOOL_TAG}",
        f"# config_sha256={config_sha256}",
        f"# seed={seed}",
    ]
    if incomplete:
        lines.append("# incomplete=true")
    lines.append(CSV_COLUMNS)
    for r in rows:
        # point quantities carry the degenerate bracket [value, value]
        lines.append(",".join([
            r.experiment_id,
            r.quantity,
            _num(r.value),
            _num(r.value if r.lower is None else r.lower),
            _num(r.value if r.upper is None else r.upper),
            _params(r.params),
            "%.3f" % r.runtime_ms,
        ]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class timed:
    """Context manager measuring wall time in milliseconds."""

    def __enter__(self):
        self._t0 = time.perf_counter()
        self.ms = 0.0
        return self

    def __exit__(self, *exc):
        self.ms = (time.perf_counter() - self._t0) * 1000.0
        return False
