"""No dead code in the package: every import a module makes is used in it,
and every private module-level function is referenced somewhere in the
package.  ``__init__.py`` only re-exports, so it is left out."""

import ast
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


def test_no_unreferenced_private_functions():
    trees = {path.name: parse(path) for path in MODULES}
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                continue
            # references outside the function's own body
            elsewhere = [n for n in tree.body if n is not node]
            others = [t for other, t in trees.items() if other != name]
            if node.name not in names_used(elsewhere + others):
                unreferenced.append(f"{name}: {node.name}")
    assert unreferenced == []
