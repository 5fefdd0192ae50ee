"""Tooling check on the layout of the library's modules."""

import ast
import json
import os
import subprocess
import sys
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


def observation_calls(path: Path) -> int:
    """How many calls the module at ``path`` makes to a name ``Observation``,
    called directly or as an attribute."""
    tree = ast.parse(path.read_text(), str(path))
    return sum(
        isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "Observation"
        for node in ast.walk(tree)
    )


def test_only_core_builds_observations(tmp_path):
    # streams travel as two checked arrays; an Observation is made only when
    # a caller iterates or indexes a Stream
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from . import core\n"
        "from .core import Observation\n"
        "pair = Observation([0.0], 0), core.Observation([1.0], 1)\n"
        "kind = Observation\n"
    )
    assert observation_calls(sample) == 2
    found = {path.name: observation_calls(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, calls in found.items() if calls] == ["core.py"]


def ownership_reads(path: Path) -> set[str]:
    """The ownership facts of an array that the module at ``path`` reads:
    ``base`` for ``x.base``, ``writeable`` for ``x.flags.writeable``.
    Assigning ``x.flags.writeable`` is not a read."""
    tree = ast.parse(path.read_text(), str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr == "base":
                found.add("base")
            elif node.attr == "writeable" and getattr(node.value, "attr", None) == "flags":
                found.add("writeable")
    return found


def test_only_core_decides_who_may_write_an_array(tmp_path):
    # Stream keeps an array only when no one else can write it and copies it
    # otherwise, so no other module inspects an array's memory
    sample = tmp_path / "sample.py"
    sample.write_text(
        "view.flags.writeable = other.flags.writeable = False\n"
        "owner = x if x.base is None else x.base\n"
        "free = x.flags.writeable\n"
    )
    assert ownership_reads(sample) == {"base", "writeable"}
    found = {path.name: ownership_reads(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, reads in found.items() if reads] == ["core.py"]


def name_readers(path: Path, name: str) -> set[str]:
    """The scopes of the module at ``path`` that read the name ``name``: a
    function or class by its qualified name, such as ``Table.check``, and the
    module's top level as ``<module>``."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load):
                found.add(scope or "<module>")
            visit(child, scope)

    found = set()
    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def test_only_the_trajectory_table_checks_the_decomposition(tmp_path):
    # TrajectoryTable holds the contract of a run's table, so neither a run
    # nor the CSV reader keeps a copy of its blue = red + green rule
    sample = tmp_path / "sample.py"
    sample.write_text(
        "TOL = 1e-9\n"
        "class Table:\n"
        "    def check(self):\n"
        "        def inner():\n"
        "            return TOL\n"
        "        return TOL\n"
        "def other(x):\n"
        "    TOL = 2\n"
        "    return abs(x) > TOL\n"
        "limit = TOL\n"
    )
    assert name_readers(sample, "TOL") == {"Table.check.inner", "Table.check", "other", "<module>"}
    found = {path.name: name_readers(path, "_DECOMPOSITION_TOL") for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: scopes for name, scopes in found.items() if scopes} == {
        "cli.py": {"TrajectoryTable.checked"}
    }


def test_importing_the_library_defers_what_only_some_calls_need():
    # pytest itself imports argparse, so the import is checked in a fresh
    # interpreter: argparse is for the command line, numpy.polynomial for the
    # mixture's quadrature rule, and both load on first use
    deferred = ["argparse", "numpy.polynomial"]
    script = f"import sys, json, shiftmart; print(json.dumps([m for m in {deferred!r} if m in sys.modules]))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert json.loads(result.stdout) == []


def package_imports(path: Path) -> list[str]:
    """The names that the module at ``path`` imports from the package's other
    modules (``from .module import name``), in the order it imports them."""
    tree = ast.parse(path.read_text(), str(path))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    ]


def test_the_package_exports_exactly_what_it_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import os\nfrom .core import Stream, Label as L\nfrom numpy import array\n")
    assert package_imports(sample) == ["Stream", "L"]
    assert shiftmart.__all__ == sorted(shiftmart.__all__)
    assert set(shiftmart.__all__) == set(package_imports(PACKAGE / "__init__.py"))
    assert len(shiftmart.__all__) == len(set(shiftmart.__all__))
