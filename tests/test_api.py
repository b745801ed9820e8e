"""The package's public names: ``__all__`` resolves, is sorted, and lists every re-export."""

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
