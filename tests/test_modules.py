"""Tooling check on the layout of the library's modules."""

import ast
from pathlib import Path

import shiftmart

PACKAGE = Path(shiftmart.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_imports(path: Path) -> set[str]:
    """The private names that the module at ``path`` takes from the package's
    other modules: imported as ``from .module import _name``, or reached as
    ``name._attr`` through any name imported from the package."""
    tree = ast.parse(path.read_text(), str(path))
    found, imported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("shiftmart")):
            for alias in node.names:
                if _private(alias.name):
                    found.add(f"{node.module}.{alias.name}")
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("shiftmart"):
                    imported.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in imported:
                found.add(f"{base.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_names(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .conformity import NnCache, _BLOCK\n"
        "from . import transducer\n"
        "import shiftmart.betting as betting\n"
        "used = transducer._tau_draws, betting._MIX_EPS.size, NnCache._reserve, _BLOCK\n"
    )
    assert private_imports(sample) == {
        "conformity._BLOCK",
        "transducer._tau_draws",
        "betting._MIX_EPS",
        "NnCache._reserve",
    }
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 7
    found = {path.name: private_imports(path) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


_NUMBER_TYPES = {"Real", "Integral"}


def number_types(path: Path) -> set[str]:
    """The ``numbers.Real`` and ``numbers.Integral`` names that the module at
    ``path`` uses, reached as ``numbers.X`` or imported from ``numbers``."""
    tree = ast.parse(path.read_text(), str(path))
    found, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found |= {alias.name for alias in node.names if alias.name in _NUMBER_TYPES}
        elif isinstance(node, ast.Import):
            aliases |= {alias.asname or alias.name for alias in node.names if alias.name == "numbers"}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _NUMBER_TYPES
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.add(node.attr)
    return found


def test_only_core_tests_the_type_of_a_number(tmp_path):
    # every incoming number is checked by core.integer_field or core.real_field
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import numbers as n\n"
        "from numbers import Integral\n"
        "ok = isinstance(1, n.Real) and isinstance(1, Integral) and n.Complex\n"
    )
    assert number_types(sample) == {"Real", "Integral"}
    found = {path.name: number_types(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {"core.py": {"Real", "Integral"}}


def callers(path: Path, names: set[str]) -> dict[str, set[str]]:
    """For each of ``names``, the functions of the module at ``path`` that call
    it by name (a nested function's calls count for the enclosing ones too)."""
    tree = ast.parse(path.read_text(), str(path))
    found = {name: set() for name in names}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in names
                ):
                    found[node.func.id].add(func.name)
    return found


def test_each_betting_strategy_steps_in_one_function(tmp_path):
    # bet_step and run_martingale share one advance, so no strategy has a
    # second copy of its step that could drift from the first
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def step(p):\n    return p\n"
        "def one(p):\n    return step(p)\n"
        "def many(ps):\n    return [step(p) for p in ps]\n"
    )
    assert callers(sample, {"step"}) == {"step": {"one", "many"}}
    step_rules = {"_jumper_step", "_mixture_log10_capital"}
    assert callers(PACKAGE / "betting.py", step_rules) == {name: {"_advance"} for name in step_rules}
