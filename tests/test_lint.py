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
    # the kernels' block and chunk sizes are embedding's own decision, so
    # no other module names them, not even in prose; tests may patch them
    names = re.compile(r"\b(PAIR_BLOCK|STACK_BLOCK|MAP_BLOCK|CEIL_CHUNK"
                       r"|IMAGE_CHUNK|TRI_BLOCK)\b")
    assert ["%s %s" % (path.name, name)
            for path in sorted(SRC.glob("*.py")) if path.name != "embedding.py"
            for name in names.findall(path.read_text())] == []
