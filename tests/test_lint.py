"""Static checks on the package source, with the standard library only."""

import ast
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


def test_every_top_level_definition_is_used():
    # a function or class must be named outside its own definition, in the
    # package or the tests; registered experiments are reached by name
    defined = {}
    used = set()
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            names |= {sub.attr for sub in ast.walk(node)
                      if isinstance(sub, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)  # a recursive call is no use
                if path.parent == SRC and not _registered(node):
                    defined[node.name] = "%s:%d" % (path.name, node.lineno)
            used |= names
    assert sorted("%s %s" % (where, name) for name, where in defined.items()
                  if name not in used) == []
