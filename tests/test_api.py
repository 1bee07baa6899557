"""Module boundaries: no private or unused imports, no unread API, a resolvable `__all__`."""

import ast
from pathlib import Path

import pytest

import garside

PACKAGE_DIR = Path(garside.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
PERFBENCH = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))
# `oracle.py` is test machinery, click calls the commands of `cli.py`, and
# `__init__.py` only re-exports; every other module is library code.
LIBRARY = [m for m in MODULES if m.name not in ("oracle.py", "cli.py", "__init__.py")]


def imported_private_names(path):
    """(line, module, name) for each `_`-prefixed name read from garside.

    A name counts when it is imported (`from .cosets import _walk`) and when
    it is read as an attribute of a name that an import from garside binds
    (`cosets._walk`, `garside.cosets._walk`); dunder names are not private.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "garside":
                    bound.add(alias.asname or "garside")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "garside":
                continue
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    out.append((node.lineno, node.module, alias.name))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        root = node.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in bound:
            out.append((node.lineno, ast.unparse(node.value), node.attr))
    return sorted(out)


def unused_imports(path):
    """(line, name) for each module-level imported name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in ("*", "annotations"):
                    imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # String annotations and `__all__` entries count as uses.
    used |= {
        n.value
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }
    return sorted((line, name) for name, line in imported.items() if name not in used)


def oracle_imports(path):
    """Line of each import of `garside.oracle`, in any of its spellings."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "garside" if node.level > 0 else ""
            if node.module:
                package = f"{package}.{node.module}" if package else node.module
            names = [package] + [f"{package}.{alias.name}" for alias in node.names]
        else:
            continue
        if "garside.oracle" in names:
            out.append(node.lineno)
    return out


def names_read(trees):
    """Every name, and every attribute name, that the syntax trees read."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def unread_definitions(path, readers):
    """Public top-level functions and classes of `path` that no reader names.

    The module itself counts as a reader, apart from each definition's own
    body, so a function that only calls itself is still unread.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    elsewhere = names_read(
        ast.parse(r.read_text(encoding="utf-8"), filename=str(r)) for r in readers if r != path
    )
    unread = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") or node.name in elsewhere:
            continue
        if node.name not in names_read(n for n in tree.body if n is not node):
            unread.append(node.name)
    return unread


def test_modules_found():
    assert {"kernel.py", "cosets.py", "oracle.py", "cli.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert imported_private_names(path) == []


# `__init__.py` imports only to re-export: its `__all__` is every public name.
@pytest.mark.parametrize(
    "path", [m for m in MODULES if m.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


# The brute-force oracles are test machinery: the library never calls them.
@pytest.mark.parametrize(
    "path", [m for m in MODULES if m.name != "oracle.py"], ids=lambda p: p.name
)
def test_no_library_module_imports_oracle(path):
    assert oracle_imports(path) == []


# Aim 2: library API without a library, CLI or benchmark caller is deleted,
# or moved to `oracle.py` if only the tests use it.
@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_every_public_definition_has_a_reader(path):
    assert PERFBENCH
    assert unread_definitions(path, LIBRARY + [PACKAGE_DIR / "cli.py"] + PERFBENCH) == []


def test_unread_definition_is_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def used_here():\n"
        "    return 1\n"
        "def used_elsewhere():\n"
        "    pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def unread():\n"
        "    pass\n"
        "class Shown:\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "x = used_here()\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text("import probe\nprobe.used_elsewhere()\nprint(Shown)\n")
    assert unread_definitions(probe, [probe, reader]) == ["recursive", "unread"]


def test_oracle_import_is_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .oracle import bfs_lengths\n"
        "from . import kernel, oracle as O\n"
        "import garside.oracle\n"
        "from garside import oracle\n"
        "from garside.oracle import canonical_key\n"
        "from .kernel import normalize\n"
        "from . import oracles\n"
        "import oracle\n"
    )
    assert oracle_imports(probe) == [1, 2, 3, 4, 5]


def test_unused_import_is_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .kernel import invert, multiply\n"
        "def f(x: 'Element'):\n"
        "    return multiply(x, os.sep)\n"
    )
    assert unused_imports(probe) == [(2, "sys"), (3, "invert")]


def test_private_import_is_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .cosets import _walk, projection\n"
        "def f():\n"
        "    from garside.kernel import _make\n"
        "from os import _exit\n"
    )
    assert imported_private_names(probe) == [
        (1, "cosets", "_walk"),
        (3, "garside.kernel", "_make"),
    ]


def test_private_attribute_read_is_detected(tmp_path):
    # A private name read off an imported garside module counts; attributes
    # of other objects, dunder names and modules outside garside do not.
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\n"
        "import garside.kernel\n"
        "from . import cosets\n"
        "from garside import parabolic as P\n"
        "def f(t):\n"
        "    ball = cosets._ball(t)\n"
        "    return garside.kernel._make(t), P._x, t._acceptors, cosets.__name__, os._exit\n"
    )
    assert imported_private_names(probe) == [
        (6, "cosets", "_ball"),
        (7, "P", "_x"),
        (7, "garside.kernel", "_make"),
    ]


def test_all_names_resolve():
    assert garside.__all__
    for name in garside.__all__:
        assert hasattr(garside, name), name
