"""No dead code in the package: every import a module makes is used in it,
every private module-level function is referenced somewhere in the
package, and every public one somewhere in the package, the tests or the
benchmark harness.  ``__init__.py`` only re-exports, so it is left out.
Every value class is a frozen, slotted dataclass."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import immaculate

PACKAGE = Path(immaculate.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def names_used(nodes):
    """Every identifier read or imported within ``nodes``."""
    used = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                used.update(alias.name for alias in sub.names)
    return used


def imported_names(tree):
    """Names a module binds by its imports, except ``__future__`` ones."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "schur.py", "tableaux.py"}


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = parse(path)
        rest = [n for n in tree.body if not isinstance(n, (ast.Import, ast.ImportFrom))]
        used = names_used(rest)
        unused += [f"{path.name}: {name}" for name in imported_names(tree)
                   if name not in used]
    assert unused == []


def unreferenced_functions(wanted, outside=()):
    """Module-level functions of the package whose name passes ``wanted``
    and that nothing refers to but their own definition: no other part of
    their module, no other module and no tree in ``outside``."""
    trees = {path.name: parse(path) for path in MODULES}
    used = {name: names_used([tree]) for name, tree in trees.items()}
    used_outside = names_used(outside)
    found = []
    for name, tree in trees.items():
        others = used_outside.union(*(u for other, u in used.items() if other != name))
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and wanted(node.name)):
                continue
            elsewhere = names_used(n for n in tree.body if n is not node)
            if node.name not in others | elsewhere:
                found.append(f"{name}: {node.name}")
    return found


def test_no_unreferenced_private_functions():
    assert unreferenced_functions(
        lambda name: name.startswith("_") and not name.startswith("__")) == []


def test_no_unreferenced_public_functions():
    # a public helper counts as used when the package, its tests or the
    # benchmark harness refer to it; the re-exports in __init__ do not count
    repo = Path(__file__).resolve().parent.parent
    outside = [parse(p) for folder in ("tests", "perfbench")
               for p in sorted((repo / folder).glob("*.py"))]
    assert unreferenced_functions(lambda name: not name.startswith("_"), outside) == []


def test_sweeps_import_no_private_names():
    # a sweep reaches a kernel through its public name only: one that reuses
    # the kernel's private parts recomputes the kernel, not a second route
    tree = parse(PACKAGE / "sweeps.py")
    private = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_value_classes_are_frozen_and_slotted():
    # no instance carries a __dict__: many are built and cached, and a
    # per-instance dict costs memory and cyclic-GC time
    classes = [value for path in MODULES
               for module in [importlib.import_module(f"immaculate.{path.stem}")]
               for value in vars(module).values()
               if inspect.isclass(value) and dataclasses.is_dataclass(value)
               and value.__module__ == module.__name__]
    assert {cls.__name__ for cls in classes} >= {"Permutation", "SkewTableau", "CellRef"}
    for cls in classes:
        assert cls.__dataclass_params__.frozen, cls
        assert "__slots__" in vars(cls), cls
        assert not hasattr(object.__new__(cls), "__dict__"), cls
