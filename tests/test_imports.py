"""Which library modules may import the heavy numeric packages, and what
shape their public names take."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import gwidiv

#: the only modules allowed to import each package, anywhere in the module;
#: the test-only packages (reference arithmetic, property tests) by none
ALLOWED = {"numpy": {"oracle.py"}, "scipy": {"oracle.py", "entropy.py"},
           "mpmath": set(), "hypothesis": set()}


def _imported_packages(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def test_numpy_and_scipy_stay_behind_the_oracle_and_entropy():
    """numpy and scipy only where ALLOWED says; mpmath and hypothesis nowhere."""
    importers = {package: set() for package in ALLOWED}
    for path in sorted(Path(gwidiv.__file__).parent.glob("*.py")):
        for package in _imported_packages(path):
            if package in importers:
                importers[package].add(path.name)
    for package, modules in importers.items():
        assert modules <= ALLOWED[package], (package, sorted(modules - ALLOWED[package]))
    assert importers["numpy"], "the scan found no numpy import at all"


def test_public_callables_are_plain_functions_or_classes():
    """The benchmark tracer wraps the names in each module's __all__ that
    inspect.isfunction accepts; a decorator that turns one into another kind
    of callable (an lru_cache wrapper, a partial) drops it from the traced
    per-layer numbers without a word."""
    for info in pkgutil.iter_modules(gwidiv.__path__):
        module = importlib.import_module(f"gwidiv.{info.name}")
        assert module.__all__, module.__name__
        for name in module.__all__:
            value = getattr(module, name)
            if callable(value):
                assert inspect.isfunction(value) or inspect.isclass(value), \
                    (module.__name__, name, type(value))
