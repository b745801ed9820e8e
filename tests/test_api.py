"""The package's public names: ``__all__`` resolves, is sorted, and each name loads from its module.

No module keeps an import it never uses or a private name nothing references.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import quasimeasure


def test_every_exported_name_resolves():
    assert [name for name in quasimeasure.__all__ if not hasattr(quasimeasure, name)] == []


def test_exported_names_are_sorted_without_duplicates():
    assert quasimeasure.__all__ == sorted(set(quasimeasure.__all__))


def test_every_table_entry_is_the_object_its_module_defines():
    wrong = [f"{module}.{name}" for module, names in quasimeasure._NAMES.items() for name in names.split()
             if getattr(quasimeasure, name) is not getattr(importlib.import_module(f"quasimeasure.{module}"), name)
             or getattr(quasimeasure, name).__module__ != f"quasimeasure.{module}"]
    assert wrong == []


def test_public_names_are_those_of_the_eager_package():
    # The 43 names the package exported when it imported every module up front, less
    # is_caratheodory_measurable, a test helper in conftest since only tests called it.
    names = """AlgebraFamily AxiomReport CheckResult Coat CoverSolution GroundSet InstanceSpec Interval
        IntervalCover IntervalSet MeasurabilityReport MeasureTable ParseError QuasiMeasure Refinement
        SearchSummary SubsetMask TrueMeasure Witness canonical_negative_instance check_alt_conditions
        check_axioms check_outer_properties exp_eval extend generate_algebra induce instance_spec_from
        measurable_family outer outer_exhaustive outer_interval parse_instance
        perturb random_algebra_instance random_instance refine render_instance search_instances
        survival_weight verify_example_axioms verify_premeasure""".split()
    assert quasimeasure.__all__ == names
    star: dict = {}
    exec("from quasimeasure import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == names
    listed = [n for n in dir(quasimeasure) if not n.startswith("_")]
    assert [n for n in listed if not isinstance(getattr(quasimeasure, n), types.ModuleType)] == names


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'frob'"):
        quasimeasure.frob


def test_importing_the_package_loads_no_submodule():
    script = "import sys, quasimeasure; print(*sorted(m for m in sys.modules if m.startswith('quasimeasure.')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


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
