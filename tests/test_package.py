"""The package namespace and its module boundaries."""

import ast
from pathlib import Path

import dimtools


def test_star_import_binds_only_the_public_names():
    namespace = {}
    exec("from dimtools import *", namespace)
    assert "io" not in namespace  # the stdlib module, not dimtools.io
    assert set(namespace) - {"__builtins__"} == set(dimtools.__all__)


def test_every_public_name_resolves():
    for name in dimtools.__all__:
        assert getattr(dimtools, name) is not None, name


ENGINE_INTERNALS = {
    "_ExactCover", "_padded", "_column_table", "_domination_masks", "_domination_table",
}


def names_in(tree):
    """Every identifier the module's code uses, defines or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[0]
            yield node.asname
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_only_the_solver_builds_exact_cover_instances():
    # The engine's input forms are the solver's business: the partition
    # search hands it row lists and needs neither the engine nor numpy.
    # (The partition certificate's array pass, in the same module, does
    # use numpy.)
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(dimtools.__file__).parent.glob("*.py")
    }
    naming = {name for name, tree in trees.items() if ENGINE_INTERNALS & set(names_in(tree))}
    assert naming == {"solver.py"}
    functions = {
        node.name: node for node in ast.walk(trees["partition.py"]) if isinstance(node, ast.FunctionDef)
    }
    for name in ("find_dim_partition", "_search_partition", "_cover_by_dims"):
        assert not {"np", "numpy"} & set(names_in(functions[name])), name
