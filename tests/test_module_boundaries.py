"""Module boundaries: no module reaches a private name it does not own, and ``stream`` stands alone.

A private name (``_name``, not a dunder) belongs to its module.  Another
module may neither import it nor read it as ``sibling._name``, and a module
reads an attribute ``obj._name`` only where its own code defines ``_name``:
assigns it, sets it with ``object.__setattr__`` or defines it in a class
body.  ``stream`` holds the round and bit streams that the games, the
protocols, the analysis and the CLI share, so it imports nothing from the
package, and ``games`` passes none of its names on.

Since no private name crosses a module, one its own module never reads is
dead; so is a name a module imports and never reads (``__init__`` imports
to re-export).

A ``@dataclass`` checks its fields in ``__post_init__``; a record that
checks nothing is a ``NamedTuple``, whose class is built without generated
code.

A bit a caller hands the package is tested by ``stream.is_bit`` alone, so no
other module compares a value with ``in`` against (0, 1) or ``_BITS``.

Born weights clear their residues by one rule, ``qcore.born_weights``, so no
module but ``qcore`` reads ``PROB_SNAP``.
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


def defined_names(tree: ast.Module) -> set[str]:
    """Each name the module's code assigns, sets with ``object.__setattr__`` or defines in a class body."""
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__"
            and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
        ):
            defined.add(node.args[1].value)
        elif isinstance(node, ast.ClassDef):
            defined.update(
                item.name for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            )
    return defined


def foreign_attributes(module: str) -> list[str]:
    """Each ``obj._name`` the module reads (as ``ast.unparse`` prints it) whose ``_name`` it does not define."""
    tree = parse(module)
    defined = defined_names(tree)
    return [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and is_private(node.attr) and node.attr not in defined
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_crosses_a_module_boundary(module):
    assert crossings(module) == []


@pytest.mark.parametrize("module", MODULES)
def test_private_attributes_are_read_only_where_defined(module):
    assert foreign_attributes(module) == []


def test_private_attribute_check_sees_each_kind_of_definition():
    tree = ast.parse(
        "class A:\n"
        "    _field: int = 0\n"
        "    def _method(self):\n"
        "        self._cache = 1\n"
        "        object.__setattr__(self, '_set', 2)\n"
        "        return other._foreign, self._method, self._cache, self._set\n"
    )
    assert defined_names(tree) >= {"_field", "_method", "_cache", "_set"}
    assert "_foreign" not in defined_names(tree)


def read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unread_private_names(tree: ast.Module) -> list[str]:
    """Each private name the module's top level defines or assigns and its code never reads."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name))
    return sorted(name for name in defined if is_private(name) and name not in read_names(tree))


def unread_imports(tree: ast.Module) -> list[str]:
    """Each name an import binds that the module's code never reads; ``from __future__`` binds none."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return sorted(bound - read_names(tree))


@pytest.mark.parametrize("module", [*MODULES, "__init__"])
def test_every_private_name_is_read_in_its_module(module):
    assert unread_private_names(parse(module)) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    assert unread_imports(parse(module)) == []


def test_dead_name_checks_see_unread_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .stream import gather as take, draw_cells\n"
        "_DEAD, _LIVE = 1, 2\n"
        "def _unused(x: draw_cells):\n"
        "    return _LIVE\n"
    )
    assert unread_private_names(tree) == ["_DEAD", "_unused"]
    assert unread_imports(tree) == ["os", "take"]


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


def unchecked_dataclasses(tree: ast.Module) -> list[str]:
    """Each class decorated ``dataclass`` or ``dataclass(...)`` whose body defines no ``__post_init__``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        names = {d.id if isinstance(d, ast.Name) else getattr(d, "attr", None) for d in decorators}
        methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        if "dataclass" in names and "__post_init__" not in methods:
            found.append(node.name)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_every_dataclass_checks_itself(module):
    assert unchecked_dataclasses(parse(module)) == []


def test_dataclass_check_sees_each_decorator_form():
    tree = ast.parse(
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclasses.dataclass(frozen=True)\nclass B:\n    x: int\n"
        "@dataclass(frozen=True)\nclass C:\n    x: int\n    def __post_init__(self):\n        pass\n"
        "class D(NamedTuple):\n    x: int\n"
    )
    assert unchecked_dataclasses(tree) == ["A", "B"]


def bit_tests(tree: ast.Module) -> list[str]:
    """Each ``in`` or ``not in`` comparison against a tuple of the constants 0 and 1 or the name ``_BITS``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for op, right in zip(node.ops, node.comparators):
            bits = isinstance(right, ast.Tuple) and sorted(map(ast.unparse, right.elts)) == ["0", "1"]
            if isinstance(op, (ast.In, ast.NotIn)) and (bits or isinstance(right, ast.Name) and right.id == "_BITS"):
                found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m != "stream"])
def test_only_stream_tests_for_a_bit(module):
    assert bit_tests(parse(module)) == []


def test_bit_test_check_sees_each_form():
    tree = ast.parse(
        "a = v in (0, 1)\n"
        "b = v not in _BITS\n"
        "c = 0 <= v and v in (1, 0)\n"
        "d = v in ((0, 1), (1, 0)) or v == 1 or v in (0, 2)\n"
        "for x in (0, 1):\n"
        "    pass\n"
    )
    assert bit_tests(tree) == ["v in (0, 1)", "v not in _BITS", "v in (1, 0)"]


def snap_reads(tree: ast.Module) -> list[str]:
    """Each import of ``PROB_SNAP`` and each read of it as a name or an attribute."""
    found = []
    for node in ast.walk(tree):
        imported = isinstance(node, ast.ImportFrom) and any(alias.name == "PROB_SNAP" for alias in node.names)
        read = isinstance(node, ast.Name) and node.id == "PROB_SNAP" and isinstance(node.ctx, ast.Load)
        if imported or read or isinstance(node, ast.Attribute) and node.attr == "PROB_SNAP":
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("module", [m for m in [*MODULES, "__init__"] if m != "qcore"])
def test_only_qcore_reads_the_residue_snap(module):
    assert snap_reads(parse(module)) == []


def test_snap_read_check_sees_each_form():
    tree = ast.parse(
        "from .qcore import PROB_SNAP as snap\n"
        "a = w < qcore.PROB_SNAP\n"
        "b = w < PROB_SNAP\n"
        "PROB_SNAP = 'PROB_SNAP'\n"
    )
    assert snap_reads(tree) == ["from .qcore import PROB_SNAP as snap", "qcore.PROB_SNAP", "PROB_SNAP"]
