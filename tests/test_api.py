"""The package's public names: ``__all__`` resolves, is sorted, and lists every re-export.

No module keeps an import it never uses or a private name nothing references.
"""

import ast
from pathlib import Path

import quasimeasure


def test_every_exported_name_resolves():
    assert [name for name in quasimeasure.__all__ if not hasattr(quasimeasure, name)] == []


def test_exported_names_are_sorted_without_duplicates():
    assert quasimeasure.__all__ == sorted(set(quasimeasure.__all__))


def test_every_public_import_is_exported():
    tree = ast.parse(Path(quasimeasure.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    assert sorted(name for name in imported - set(quasimeasure.__all__) if not name.startswith("_")) == []


def test_no_module_imports_a_private_name_from_another():
    package = Path(quasimeasure.__file__).parent
    private = [f"{path.name}: {alias.name}" for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("quasimeasure"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def functools_names(tree):
    """Every name a module takes from functools: imported ones and ``functools.x`` attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
            yield node.attr


def test_no_module_keeps_a_cross_call_cache():
    # Each call builds its own solver and tables; a per-object cached_property stays allowed.
    package = Path(quasimeasure.__file__).parent
    cached = [f"{path.name}: {name}" for path in sorted(package.glob("*.py"))
              for name in functools_names(ast.parse(path.read_text(encoding="utf-8")))
              if name in ("lru_cache", "cache")]
    assert cached == []


def module_trees():
    """Each module of the package but ``__init__``, parsed: ``(file name, tree)``."""
    package = Path(quasimeasure.__file__).parent
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]


def loaded_names(node):
    """The names ``node`` reads: bare names, and the base of each ``a.b`` attribute chain."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for name, tree in module_trees():
        used = loaded_names(tree)
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        bound = [alias.asname or alias.name.split(".")[0] for node in imports
                 if getattr(node, "module", None) != "__future__" for alias in node.names]
        unused += [f"{name}: {imported}" for imported in bound if imported not in used]
    assert unused == []


def defined_names(statement):
    """The module-level names one top-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_no_private_module_level_name_is_left_unreferenced():
    # A name that only its own definition reads (say, a recursive helper) counts as unreferenced.
    unreferenced = []
    for name, tree in module_trees():
        reads = [loaded_names(statement) for statement in tree.body]
        for i, statement in enumerate(tree.body):
            others = set().union(*reads[:i], *reads[i + 1:])
            private = [d for d in defined_names(statement) if d.startswith("_") and not d.startswith("__")]
            unreferenced += [f"{name}: {defined}" for defined in private if defined not in others]
    assert unreferenced == []
