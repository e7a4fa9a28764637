"""Source hygiene: every module-level import of the package is used, and the
package does not grow back past its size gates.

No linter is among the test dependencies, so this scan is the guard: it
parses each module of `src/ergode` (the package `__init__.py`, which
re-exports, is left out) and fails on an imported name that no expression
of the module reads.  The ratchet counts `src/ergode/*.py` the way the
report step of `.github/workflows/tier1.yml` does (`wc -l`, `grep -c
isinstance`, and the lines where `isinstance` names an observable class, a
system class, a point rule class, a subset class or a measure class); lower its
numbers when the package shrinks.  No module probes an object with `hasattr`,
and the orbit readers and the entropy estimators import no underscored name
of `systems`, which alone knows the exact time chart.  Every public function
that no committed config calls (the census of `tests/reach.py`) is used by
the acceptance sweep, named in the README or kept for a stated reason.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import reach

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ergode"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# the ratchet: lines, lines naming `isinstance`, lines where `isinstance`
# names an observable class or a tuple of them (24 before each kind answered
# its readers' questions itself), and lines where it names a system class (49
# before each system answered where its points and measures live, 15 before
# shifts answered their adjacency, flows their period and circle
# multiplication its digits), a point rule class (9 before each rule answered
# its point.json fields and each chain its seeded rule, 4 before each rule
# answered `symbolic`, `pairs()` and `used()`), a subset class (7 before each
# subset answered the counting routes) or a measure class (4 before each
# measure answered `chain`, `seeded` and `foreign`) in src/ergode/*.py
MAX_LINES = 4266       # 4,278 while time averages took a 16-node midpoint rule
MAX_ISINSTANCE_LINES = 1
MAX_OBSERVABLE_ISINSTANCE_LINES = 0
MAX_SYSTEM_ISINSTANCE_LINES = 0
MAX_RULE_ISINSTANCE_LINES = 0
MAX_SUBSET_ISINSTANCE_LINES = 0
MAX_MEASURE_ISINSTANCE_LINES = 0
OBSERVABLE_ISINSTANCE = re.compile(r"isinstance\(.*\b(Observable|Constant|CylinderIndicator|"
                                   r"SymbolFrequency|_CYLINDERS|Harmonic|FiberProfile|_Composed)\b")
SYSTEM_ISINSTANCE = re.compile(r"isinstance\(.*\b(FullShift|MarkovShift|CircleMult|CircleRotation|"
                               r"DisjointUnion|CircleRotationFlow|TorusTranslation|Suspension|"
                               r"TimeTMap)\b")
RULE_ISINSTANCE = re.compile(r"isinstance\(.*\b(ExplicitWord|SeededIID|SeededMarkov|BlockSchedule|"
                             r"SteeredBlocks|Coordinate|StageRecipe)\b")
SUBSET_ISINSTANCE = re.compile(r"isinstance\(.*\b(WholeSpace|FrequencyWindow|OscillationWindows|"
                               r"ComponentWindow|SampleCloud)\b")
MEASURE_ISINSTANCE = re.compile(r"isinstance\(.*\b(Bernoulli|Markov|Lebesgue|Atomic|Mixture|"
                                r"TimeAveraged|TimeShifted)\b")


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


def private_imports(source: str, module: str = "systems"):
    """The underscored names that `source` imports from the module `module`."""
    return sorted(a.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module
                  for a in node.names if a.name.startswith("_"))


def test_the_private_import_scan_finds_a_planted_import():
    assert private_imports("from .systems import Point, _chart\n") == ["_chart"]
    assert private_imports("def f():\n    from ergode.systems import _fiber as g\n") == ["_fiber"]
    assert private_imports("from .measures import _Chain\nfrom .systems import Point\n") == []


@pytest.mark.parametrize("name", ["birkhoff.py", "entropy.py"])
def test_the_readers_import_no_underscored_name_of_systems(name):
    assert private_imports((SRC / name).read_text(encoding="utf-8")) == []


def test_the_package_has_modules_to_scan():
    assert {"birkhoff.py", "cli.py", "config.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_no_module_imports_dataclasses():
    """Records share one set of methods (`systems.Record`); no class is generated."""
    scan = re.compile(r"^\s*(import|from)\s+dataclasses\b", re.M)
    assert [p.name for p in SRC.glob("*.py") if scan.search(p.read_text(encoding="utf-8"))] == []


def test_importing_the_cli_loads_neither_dataclasses_nor_a_thread_pool():
    code = ("import sys, ergode.cli; "
            "print(sorted({'dataclasses', 'concurrent.futures'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def source_counts():
    """(lines, lines naming isinstance, lines where isinstance names an
    observable class, a system class, a point rule class, a subset class, a
    measure class) over src/ergode/*.py."""
    texts = [p.read_text(encoding="utf-8") for p in SRC.glob("*.py")]
    lines = sum(t.count("\n") for t in texts)
    checks = [line for t in texts for line in t.splitlines() if "isinstance" in line]
    scans = (OBSERVABLE_ISINSTANCE, SYSTEM_ISINSTANCE, RULE_ISINSTANCE, SUBSET_ISINSTANCE,
             MEASURE_ISINSTANCE)
    return (lines, len(checks), *(sum(1 for line in checks if scan.search(line))
                                  for scan in scans))


def test_the_observable_scan_finds_a_kind_test():
    assert OBSERVABLE_ISINSTANCE.search("    if isinstance(phi, (Constant, Harmonic)):")
    assert not OBSERVABLE_ISINSTANCE.search("    if isinstance(flow, Suspension):")


def test_the_system_scan_finds_a_class_test():
    assert SYSTEM_ISINSTANCE.search("    if isinstance(flow, Suspension) and t < 0:")
    assert SYSTEM_ISINSTANCE.search("    return x if isinstance(s, (CircleRotationFlow, TimeTMap)) else y")
    assert not SYSTEM_ISINSTANCE.search("    if isinstance(phi, (Constant, Harmonic)):")
    assert not SYSTEM_ISINSTANCE.search("        return not isinstance(self.rule, Coordinate)")


def test_the_rule_scan_finds_a_kind_test():
    assert RULE_ISINSTANCE.search("        return not isinstance(self.rule, Coordinate)")
    assert RULE_ISINSTANCE.search("    elif isinstance(rule, (SeededIID, SeededMarkov)):")
    assert not RULE_ISINSTANCE.search("    if isinstance(flow, Suspension) and t < 0:")


def test_the_subset_scan_finds_a_kind_test():
    assert SUBSET_ISINSTANCE.search("    if isinstance(subset, SampleCloud) and system.symbolic:")
    assert SUBSET_ISINSTANCE.search("        if not isinstance(subset, (WholeSpace, SampleCloud)):")
    assert not SUBSET_ISINSTANCE.search("    if isinstance(mu, Bernoulli):")
    assert not SUBSET_ISINSTANCE.search("    if subset.cloud and system.symbolic:")


def test_the_measure_scan_finds_a_kind_test():
    assert MEASURE_ISINSTANCE.search("    if not isinstance(mu, (Bernoulli, Markov)):")
    assert MEASURE_ISINSTANCE.search("    if not isinstance(mu_base, Bernoulli):")
    assert not MEASURE_ISINSTANCE.search("    if not isinstance(self.rule, Coordinate):")
    assert not MEASURE_ISINSTANCE.search("        if isinstance(subset, ComponentWindow):")


def test_no_module_probes_an_object_with_hasattr():
    assert [p.name for p in SRC.glob("*.py") if "hasattr(" in p.read_text(encoding="utf-8")] == []


def test_the_package_stays_under_its_size_ratchet():
    (lines, checks, observable_checks, system_checks, rule_checks, subset_checks,
     measure_checks) = source_counts()
    assert lines <= MAX_LINES, f"src/ergode has {lines} lines (ratchet {MAX_LINES})"
    assert checks <= MAX_ISINSTANCE_LINES, \
        f"src/ergode has {checks} isinstance lines (ratchet {MAX_ISINSTANCE_LINES})"
    assert observable_checks <= MAX_OBSERVABLE_ISINSTANCE_LINES, \
        f"src/ergode has {observable_checks} lines testing an observable's kind " \
        f"(ratchet {MAX_OBSERVABLE_ISINSTANCE_LINES})"
    assert system_checks <= MAX_SYSTEM_ISINSTANCE_LINES, \
        f"src/ergode has {system_checks} lines testing a system's class " \
        f"(ratchet {MAX_SYSTEM_ISINSTANCE_LINES})"
    assert rule_checks <= MAX_RULE_ISINSTANCE_LINES, \
        f"src/ergode has {rule_checks} lines testing a point rule's class " \
        f"(ratchet {MAX_RULE_ISINSTANCE_LINES})"
    assert subset_checks <= MAX_SUBSET_ISINSTANCE_LINES, \
        f"src/ergode has {subset_checks} lines testing a subset's class " \
        f"(ratchet {MAX_SUBSET_ISINSTANCE_LINES})"
    assert measure_checks <= MAX_MEASURE_ISINSTANCE_LINES, \
        f"src/ergode has {measure_checks} lines testing a measure's class " \
        f"(ratchet {MAX_MEASURE_ISINSTANCE_LINES})"


def test_the_census_holds_a_function_only_to_a_use():
    acceptance = "from ergode.m import orphan\n# orphan is unused here\n"
    readme = "`orphaned` takes no part, nor does orphan outside backticks"
    assert reach.held("ergode.m.orphan", acceptance, readme, {}) == ""
    assert reach.held("ergode.m.orphan", "orphan(1)\n", "", {}) != ""
    assert reach.held("ergode.m.orphan", "", "read `ergode.m.orphan(x)`", {}) != ""
    assert reach.held("ergode.m.orphan", "", "", {"ergode.m.orphan": "why"}) == "why"


def test_every_uncalled_public_function_is_held_to_a_use():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, reach.__file__, "--json"], env=env, capture_output=True,
                         text=True, check=True)
    uncalled = json.loads(out.stdout)
    acceptance = (reach.ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    readme = (reach.ROOT / "README.md").read_text(encoding="utf-8")
    assert [n for n in uncalled if not reach.held(n, acceptance, readme)] == []
    # a reason for a function some config calls, or one that is gone, is stale
    assert sorted(set(reach.REASONS) - set(uncalled)) == []
