"""No module of the package (other than `__init__`, which re-exports)
imports a name it never uses, no module calls the builtin `sum`, and no
module defines a function or class that the package never reads.

A name counts as used when it appears as a name anywhere in the module's
syntax tree, annotations included; `from __future__` imports are not
names.  The builtin `sum` compensates float rounding from Python 3.12 on,
so a sum's last bits would depend on the Python version; the package adds
with `errors.plain_sum` instead (its docstring says more).  No module
calls `lexsort` or passes `return_inverse=`, and a stable `argsort` runs
only where `STABLE_ARGSORTS` allows it: a stable argsort of int64 keys is
several times slower than sorting them, so the package sorts packed keys
through `graphs.stable_order` instead.  Re-exporting
a definition from `__init__` is not a read: what only tests use belongs
in their references.  No linter is a dependency, so the checks read the
tree themselves.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "localround"
PACKAGE = sorted(p.name for p in SRC.glob("*.py"))
MODULES = [name for name in PACKAGE if name != "__init__.py"]

# test references by design (README): their public names only tests read
REFERENCE_MODULES = {"oracles.py"}

# (module, name) bindings kept although the module never reads them:
# perfbench's own tests pin `clustering` as a site that binds
# `induced_subgraph` (its IMPORT_SITES), so the import goes with the next
# change to the benchmark
KEPT = {("clustering.py", "induced_subgraph")}


# (module, function, sorted expression) of the stable argsorts allowed:
# `stable_order`'s fallback for keys too large to pack, and `round_labels`'
# colour keys, 8- or 16-bit, which numpy sorts stably by radix
STABLE_ARGSORTS = {
    ("graphs.py", "stable_order", "keys"),
    ("rounding.py", "round_labels", "narrow"),
    ("rounding.py", "round_labels", "narrow[target]"),
}


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def builtin_sum_calls(source: str) -> list[int]:
    """The lines of `source` that call `sum` by its bare name."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]


def test_detector_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Callable, Mapping\n"
        "def f(x: Mapping) -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["os", "Callable"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    unused = unused_imports((SRC / module).read_text())
    assert [name for name in unused if (module, name) not in KEPT] == []


def test_kept_bindings_are_still_unused_imports():
    for module, name in KEPT:
        assert name in unused_imports((SRC / module).read_text())


def test_detector_finds_builtin_sum_calls():
    source = (
        "import numpy as np\n"
        "def f(xs, a):\n"
        "    total = sum(xs)\n"
        "    return plain_sum(xs) + a.sum() + np.sum(a) + sum(x for x in xs)\n"
    )
    assert builtin_sum_calls(source) == [3, 4]


@pytest.mark.parametrize("module", PACKAGE)
def test_module_never_calls_builtin_sum(module):
    assert builtin_sum_calls((SRC / module).read_text()) == []


def slow_sorts(source: str) -> list[tuple[str, str, str]]:
    """Every `lexsort` call, `return_inverse=` keyword and stable (or
    merge) `argsort` in `source`, called by name or as an attribute, as
    (what, the enclosing top-level function or class, the first argument
    or the keyword), in line order."""
    found = []
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            arg = ast.unparse(node.args[0]) if node.args else ""
            where = getattr(stmt, "name", "")
            kinds = [k.value for k in node.keywords if k.arg == "kind"]
            if name == "lexsort":
                found.append((node.lineno, "lexsort", where, arg))
            elif name == "argsort" and any(
                isinstance(k, ast.Constant) and k.value in ("stable", "mergesort") for k in kinds
            ):
                found.append((node.lineno, "stable argsort", where, arg))
            if any(k.arg == "return_inverse" for k in node.keywords):
                found.append((node.lineno, "return_inverse", where, "return_inverse"))
    return [item[1:] for item in sorted(found)]


def test_detector_finds_slow_sorts():
    source = (
        "import numpy as np\n"
        "def f(keys, a, b):\n"
        "    order = np.lexsort((b, a))\n"
        "    u, inv = np.unique(keys, return_inverse=True)\n"
        "    return keys.argsort(kind='stable'), np.argsort(a, kind='mergesort')\n"
        "class C:\n"
        "    def g(self, keys):\n"
        "        return np.argsort(keys), np.sort(keys, kind='stable'), np.unique(keys)\n"
    )
    assert slow_sorts(source) == [
        ("lexsort", "f", "(b, a)"),
        ("return_inverse", "f", "return_inverse"),
        ("stable argsort", "f", ""),
        ("stable argsort", "f", "a"),
    ]


@pytest.mark.parametrize("module", PACKAGE)
def test_module_sorts_only_through_packed_keys(module):
    sorts = slow_sorts((SRC / module).read_text())
    assert [
        item
        for item in sorts
        if not (item[0] == "stable argsort" and (module, *item[1:]) in STABLE_ARGSORTS)
    ] == []


def test_allowed_stable_argsorts_are_still_there():
    found = {
        (module, *item[1:])
        for module in PACKAGE
        for item in slow_sorts((SRC / module).read_text())
    }
    assert STABLE_ARGSORTS <= found


def unread_definitions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """The (module, name) of every module-level `def` or `class` in
    `sources` (module -> text) that no module reads, as a name or an
    attribute, outside the definition itself; in module order, then
    definition order."""
    statements = []  # (module, top-level statement, the names it reads)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            reads = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reads.add(node.attr)
            statements.append((module, stmt, reads))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (module, stmt.name)
        for module, stmt, _ in statements
        if isinstance(stmt, defs)
        and not any(stmt.name in reads for _, other, reads in statements if other is not stmt)
    ]


def test_detector_finds_unread_definitions():
    sources = {
        "a.py": (
            "def used(): return helper()\n"
            "def helper(): return 1\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Shape:\n    def area(self): return Shape\n"
            "def by_attribute(): pass\n"
        ),
        "b.py": "from .a import used, recursive\nimport a\nx = a.by_attribute\n",
    }
    assert unread_definitions(sources) == [("a.py", "used"), ("a.py", "recursive"), ("a.py", "Shape")]


def test_package_reads_every_definition():
    sources = {name: (SRC / name).read_text() for name in PACKAGE}
    unread = [
        (module, name)
        for module, name in unread_definitions(sources)
        if module != "__init__.py"
        and not (module in REFERENCE_MODULES and not name.startswith("_"))
    ]
    assert unread == []
