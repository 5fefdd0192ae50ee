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
