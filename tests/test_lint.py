"""Static checks on the package source, with the standard library only."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "projlab"


def test_no_unused_top_level_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # imports there are the exports
            continue
        tree = ast.parse(path.read_text())
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in bound.items() if name not in used]
    assert unused == []


def _registered(node):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None)
               == "_register" for d in node.decorator_list)


def _definitions_and_uses(paths):
    """The package's top-level functions and classes among paths, as
    {name: (node, "file:line")}, and every name the paths use outside the
    definition of that name."""
    defined = {}
    used = set()
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            names |= {sub.attr for sub in ast.walk(node)
                      if isinstance(sub, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)  # a recursive call is no use
                if path.parent == SRC:
                    defined[node.name] = (node, "%s:%d" % (path.name,
                                                           node.lineno))
            used |= names
    return defined, used


def test_every_top_level_definition_is_used():
    # a function or class must be named outside its own definition, in the
    # package or the tests; registered experiments are reached by name
    defined, used = _definitions_and_uses(
        sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")))
    assert sorted("%s %s" % (where, name)
                  for name, (node, where) in defined.items()
                  if name not in used and not _registered(node)) == []


# public definitions that only tests reach, each with its reason
TEST_ONLY = (
    ("exceptional_set_membership",
     "kept to probe the dyadic directions of all-directions (ROADMAP)"),
    ("read_points_csv", "reader of the CSVs that --export-points writes"),
)


def test_every_public_definition_is_reached_from_the_package():
    # a public top-level function or class must be named in the package
    # outside its own definition and outside __init__.py (whose imports
    # are the exports), unless it is a listed test-only exception
    defined, used = _definitions_and_uses(
        path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py")
    unreached = {name for name in defined
                 if not name.startswith("_") and name not in used}
    exempt = {name for name, _ in TEST_ONLY}
    assert sorted(defined[name][1] + " " + name
                  for name in unreached - exempt) == []
    assert sorted(exempt - unreached) == []  # no stale exception


def test_block_sizes_are_known_only_to_embedding():
    # the kernels' block sizes, cell side, slacks, margins and hull
    # tolerances are embedding's own decision, so no other module names
    # them, not even in prose; tests may patch them
    names = re.compile(r"\b(STACK_BLOCK|MAP_BLOCK|TRANS_BLOCK|TRI_BLOCK"
                       r"|CELL_SIDE|CELL_SLACK|CEIL_SLACK|HULL_TOL"
                       r"|HULL_SCAN_MAX|DECODE_BLOCK|DECODE_PAIRS"
                       r"|GRID_MARGIN|GRID_AXIS|COVER_PAIRS)\b")
    assert ["%s %s" % (path.name, name)
            for path in sorted(SRC.glob("*.py")) if path.name != "embedding.py"
            for name in names.findall(path.read_text())] == []


def _spatial_imports(tree):
    """The top-level definitions of a module that import scipy.spatial,
    each by name, "<module>" for an import outside them."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["%s.%s" % (node.module, alias.name)
                         for alias in node.names]
            else:
                continue
            if any((name + ".").startswith("scipy.spatial.")
                   for name in names):
                found.append(getattr(top, "name", "<module>"))
    return found


def test_scipy_spatial_only_behind_the_hull():
    # the package builds no KD-tree; scipy.spatial is imported only by
    # hull_vertices' Qhull fallback and by embedding's lazy ConvexHull name
    trees, importers = [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        trees += [path.name] * ("cKDTree" in text)
        importers += ["%s %s" % (path.name, name)
                      for name in _spatial_imports(ast.parse(text))]
    assert trees == []
    assert sorted(importers) == ["embedding.py __getattr__",
                                 "embedding.py hull_vertices"]


def _numeric(node):
    """Whether an expression is built from number literals alone."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.UnaryOp):
        return _numeric(node.operand)
    return (isinstance(node, ast.BinOp) and _numeric(node.left)
            and _numeric(node.right))


def test_experiments_hold_no_kernel_internals():
    # experiments.py keeps configs, checks and artifacts: it reaches the
    # library only through public names, and its kernels' tuning constants
    # live with the kernels
    tree = ast.parse((SRC / "experiments.py").read_text())
    private = ["%d %s" % (node.lineno, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and (
                   node.level or (node.module or "").startswith("projlab"))
               for alias in node.names
               if alias.name.startswith("_") and alias.name != "__version__"]
    constants = [node.lineno for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 and node.value is not None and _numeric(node.value)]
    assert private == [] and constants == []


def test_only_the_experiments_draw_maps():
    # kernels take the map stack that their experiment drew, so
    # sample_e_batch is named in code only where it is defined, drawn and
    # exported; docstrings may still speak of it
    naming = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (getattr(node, "id", None) == "sample_e_batch"
                    or getattr(node, "name", None) == "sample_e_batch"
                    or getattr(node, "attr", None) == "sample_e_batch"):
                naming.add(path.name)
    assert naming == {"linalg.py", "experiments.py", "__init__.py"}
