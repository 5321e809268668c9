"""Which library modules may import the heavy numeric packages."""

import ast
from pathlib import Path

import gwidiv

#: the only modules allowed to import each package, anywhere in the module
ALLOWED = {"numpy": {"oracle.py"}, "scipy": {"oracle.py", "entropy.py"}}


def _imported_packages(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def test_numpy_and_scipy_stay_behind_the_oracle_and_entropy():
    importers = {package: set() for package in ALLOWED}
    for path in sorted(Path(gwidiv.__file__).parent.glob("*.py")):
        for package in _imported_packages(path):
            if package in importers:
                importers[package].add(path.name)
    for package, modules in importers.items():
        assert modules <= ALLOWED[package], (package, sorted(modules - ALLOWED[package]))
    assert importers["numpy"], "the scan found no numpy import at all"
