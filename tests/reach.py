"""The reach census: which public functions of `ergode` no committed config
calls.

It runs every config of `scripts/configs/` and `tests/contract/` in this
process through `ergode.cli.main`, under `sys.setprofile`, and lists each
module-level function named in a module's `__all__` whose code never ran.
The profile is set before `ergode` is imported, so a call made at import
time counts.  Run it in a fresh process:

    PYTHONPATH=src python tests/reach.py          # one line per uncalled name
    PYTHONPATH=src python tests/reach.py --json   # the names, as a JSON list

`tests/test_source.py` holds each uncalled name to a use: by
`tests/test_acceptance.py`, by name in `README.md`, or by a reason below.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import pathlib
import pkgutil
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.json")) + \
    sorted((ROOT / "tests" / "contract").glob("*.json"))

# uncalled public functions that stay, each with why
_BENCH = "the benchmark's tracer (perfbench/tracing.py) wraps it; ROADMAP items 7-8"
REASONS = {
    "ergode.birkhoff.birkhoff_average_map": _BENCH,
    "ergode.birkhoff.birkhoff_average_flow": _BENCH,
    "ergode.birkhoff.limit_point_set": _BENCH + "; scripts/long_read_rss.py reads with it",
}


def run_configs(after=None):
    """Run every committed and contract config through `ergode.cli.main`,
    output to a temporary directory; `after(config)` is called after each."""
    from ergode import cli
    with tempfile.TemporaryDirectory() as out:
        for config in CONFIGS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", str(config), "--out", out])
            if code != 0:
                raise SystemExit(f"{config.name} exited {code}")
            if after is not None:
                after(config)


def uncalled() -> list:
    """The qualified names of the public module-level functions that neither
    importing `ergode` nor running the configs calls.  Call it in a process
    that has not imported `ergode` yet."""
    if "ergode" in sys.modules:
        raise RuntimeError("ergode is imported already, so its import-time calls are lost")
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        import ergode
        modules = [importlib.import_module(f"ergode.{m.name}")
                   for m in pkgutil.iter_modules(ergode.__path__) if m.name != "__main__"]
        run_configs()
    finally:
        sys.setprofile(None)
    return sorted(f"{m.__name__}.{name}" for m in modules for name in m.__all__
                  if inspect.isfunction(f := getattr(m, name)) and f.__module__ == m.__name__
                  and f.__code__ not in called)


def held(name: str, acceptance: str, readme: str, reasons=REASONS) -> str:
    """What holds the uncalled function `name` to a use: its reason, the
    acceptance file (a name its code reads) or the README (a name in
    backticks); empty when nothing does."""
    short = name.rsplit(".", 1)[1]
    read = {n.id for n in ast.walk(ast.parse(acceptance)) if isinstance(n, ast.Name)}
    return reasons.get(name) or ("used by tests/test_acceptance.py" if short in read else "") \
        or ("named in README.md" if re.search(rf"`(?:\w+\.)*{short}\b", readme) else "")


if __name__ == "__main__":
    os.environ.pop("ERGODE_SEED", None)      # each config at its own seed
    names = uncalled()
    if "--json" in sys.argv[1:]:
        print(json.dumps(names))
    else:
        acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for name in names:
            print(f"{name}: {held(name, acceptance, readme) or 'NOTHING'}")
        print(f"{len(names)} public functions uncalled by {len(CONFIGS)} configs")
