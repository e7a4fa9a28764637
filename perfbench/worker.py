"""Child process that runs one workload in-process and reports raw figures.

It imports `ergode.cli` once, runs a warm-up pass over the workload's
experiments, then timed passes until `--seconds` have elapsed.  Each
experiment is one `ergode.cli.main(["run", config, ...])` call with one thread.
Every pass writes into its own directory and leaves its outputs there;
`run.py` checks them after this process has ended, so the peak resident size
reported here is that of the program, not of the checks.  The peak is read
after the warm-up pass: the program's peak over one pass in a fresh process.
Later passes raise it a little each (on `flow-inclusions` from about 350 to
366 to 375 MB), so a reading at the end would depend on how many passes fit
in `--seconds`.

In untraced passes a `SpeedProbe` times a short fixed loop between the
experiments and, from a SIGALRM handler, while they run.  Each experiment is
reported with its wall time, less the time spent in the handler, and the
median probe time around and during it.  With `--trace 1` untraced and traced
passes alternate; the traced ones record spans and are not probed.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

import ergode.cli  # noqa: E402

# The probe loop takes about 1.5 ms on a 2-CPU Xeon sandbox.  It runs
# PROBES_BETWEEN times between experiments and once every PROBE_INTERVAL_S
# of wall time during them, which costs the experiment about 1.5 %.
PROBE_ITERATIONS = 20_000
PROBES_BETWEEN = 10
PROBE_INTERVAL_S = 0.1


class SpeedProbe:
    """Times a fixed pure-Python loop, to follow the host's speed.  An
    inactive probe runs nothing and records nothing."""

    def __init__(self, active: bool):
        self.active = active
        self.samples = []   # seconds of each probe loop
        self.spent_s = 0.0  # wall seconds spent in the SIGALRM handler

    def _loop(self):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        self.samples.append(time.perf_counter() - start)

    def between(self):
        for _ in range(PROBES_BETWEEN if self.active else 0):
            self._loop()

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self._loop()
        self.spent_s += time.perf_counter() - start

    @contextlib.contextmanager
    def during(self):
        if not self.active:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def median_since(self, first: int):
        return statistics.median(self.samples[first:]) if self.active else None


def run_pass(paths, out_dir, tracer=None):
    """One pass over the experiments: per experiment its wall seconds, less
    the probe's, and the median probe seconds from the probes just before
    to those just after it (None in a traced pass); and the errors."""
    os.makedirs(out_dir)
    probe = SpeedProbe(active=tracer is None)
    walls, refs, errors = {}, {}, {}
    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), \
            (tracer.installed() if tracer else contextlib.nullcontext()):
        probe.between()
        for eid, path in paths:
            first = max(len(probe.samples) - PROBES_BETWEEN, 0)
            spent = probe.spent_s
            start = time.perf_counter()
            try:
                with probe.during():
                    code = ergode.cli.main(["run", path, "--out", out_dir,
                                            "--threads", "1"])
                if code != 0:
                    errors[eid] = f"exit code {code}"
            except Exception as exc:  # a crashing experiment is a failed one
                errors[eid] = f"raised {type(exc).__name__}: {exc}"
            walls[eid] = time.perf_counter() - start - (probe.spent_s - spent)
            probe.between()
            refs[eid] = probe.median_since(first)
    return walls, refs, errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True, help="directory for the passes' outputs")
    ap.add_argument("--spans", required=True,
                    help="file the traced passes' spans are written to")
    args = ap.parse_args()

    paths = [(eid, path) for eid, path, _, _ in workloads.configs(args.workload)]
    passes = []

    def one(kind, tracer=None):
        out_dir = os.path.join(args.work, f"pass-{len(passes)}")
        walls, refs, errors = run_pass(paths, out_dir, tracer)
        passes.append({"kind": kind, "dir": out_dir, "wall_s": sum(walls.values()),
                       "walls": walls, "refs": refs, "errors": errors})

    one("warmup")
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < args.seconds:
        one("untraced")
        if tracer:
            one("traced", tracer)

    result = {
        "passes": passes,
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer:
        result["self_s"] = tracer.self_s
        result["calls"] = tracer.calls
        result["counters"] = tracer.counters
        result["span_count"] = len(tracer.spans)
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
