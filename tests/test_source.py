"""Source hygiene: every module-level import of the package is used, and the
package does not grow back past its size gates.

No linter is among the test dependencies, so this scan is the guard: it
parses each module of `src/ergode` (the package `__init__.py`, which
re-exports, is left out) and fails on an imported name that no expression
of the module reads.  The ratchet counts `src/ergode/*.py` the way the
report step of `.github/workflows/tier1.yml` does (`wc -l` and
`grep -c isinstance`); lower its numbers when the package shrinks.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ergode"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# the ratchet: lines and lines naming `isinstance` in src/ergode/*.py
MAX_LINES = 4379
MAX_ISINSTANCE_LINES = 98


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_scan_finds_an_unused_import():
    source = "import math\nimport numpy as np\nfrom x import a, b\nprint(a, np.pi)\n"
    assert unused_imports(source) == ["b", "math"]


def test_the_package_has_modules_to_scan():
    assert {"birkhoff.py", "cli.py", "config.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def source_counts():
    """(lines, lines naming isinstance) over src/ergode/*.py."""
    texts = [p.read_text(encoding="utf-8") for p in SRC.glob("*.py")]
    lines = sum(t.count("\n") for t in texts)
    checks = sum(1 for t in texts for line in t.splitlines() if "isinstance" in line)
    return lines, checks


def test_the_package_stays_under_its_size_ratchet():
    lines, checks = source_counts()
    assert lines <= MAX_LINES, f"src/ergode has {lines} lines (ratchet {MAX_LINES})"
    assert checks <= MAX_ISINSTANCE_LINES, \
        f"src/ergode has {checks} isinstance lines (ratchet {MAX_ISINSTANCE_LINES})"
