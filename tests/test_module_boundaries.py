"""Module boundaries: no module reaches a sibling's private name, and ``stream`` stands alone.

A private name (``_name``, not a dunder) belongs to its module.  Another
module may neither import it nor read it as ``sibling._name``.  ``stream``
holds the round and bit streams that the games, the protocols, the analysis
and the CLI share, so it imports nothing from the package, and ``games``
passes none of its names on.
"""

import ast
from pathlib import Path

import pytest

from diqrng import games

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diqrng"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def imported_from(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from, "" for the package itself, or None outside the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and (node.module + ".").startswith("diqrng."):
        return node.module[len("diqrng.") :]
    return None


def crossings(module: str) -> list[str]:
    """Each sibling's private name that the module imports or reads as ``sibling._name``."""
    found, siblings = [], {}
    tree = parse(module)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and imported_from(node) is not None:
            source = imported_from(node)
            for alias in node.names:
                if source == "" and alias.name in MODULES:
                    siblings[alias.asname or alias.name] = alias.name
                elif is_private(alias.name):
                    found.append(f"{source or 'diqrng'}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("diqrng.") and alias.asname:
                    siblings[alias.asname] = alias.name[len("diqrng.") :]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and is_private(node.attr):
            if node.value.id in siblings:
                found.append(f"{siblings[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_crosses_a_module_boundary(module):
    assert crossings(module) == []


def test_stream_imports_nothing_from_the_package():
    imports = [
        node for node in ast.walk(parse("stream"))
        if isinstance(node, ast.ImportFrom) and imported_from(node) is not None
        or isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "diqrng" for alias in node.names)
    ]
    assert [ast.unparse(node) for node in imports] == []


def test_games_passes_on_no_stream_name():
    defined = set()
    for node in parse("stream").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(target.id for target in node.targets if isinstance(target, ast.Name))
    assert "PackedBits" in defined and "MAX_ROUNDS" in defined
    assert sorted(name for name in defined if hasattr(games, name)) == []
