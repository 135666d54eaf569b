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
    ("log_lipschitz_modulus",
     "the modulus of log-lip's defect; ROADMAP item 9 step 2 scores its "
     "values"),
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


def _tuning_constants():
    """The package's tuning constants, upper-case module-level names bound
    to number literals, each as {name: the file that defines it}."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and _numeric(node.value):
                found.update((target.id, path.name) for target in node.targets
                             if isinstance(target, ast.Name)
                             and target.id.isupper())
    return found


def test_each_tuning_constant_is_named_only_by_its_module():
    # a block size, cell side, slack, margin, cap or tolerance is the
    # decision of the module that defines it, so no other module names it,
    # not even in prose; tests may patch them
    constants = _tuning_constants()
    assert {"STACK_BLOCK", "DECODE_PAIRS", "GRID_AXIS", "COVER_PAIRS",
            "DIRAC_BLOCK", "ROW_BLOCK"} <= set(constants)
    names = re.compile(r"\b(%s)\b" % "|".join(constants))
    assert ["%s %s" % (path.name, name) for path in sorted(SRC.glob("*.py"))
            for name in names.findall(path.read_text())
            if constants[name] != path.name] == []


def _package_imports(tree):
    """The imports from the package anywhere in a module's tree, as
    (node, module imported or None for the package itself, names)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not node.level:
            if module != "projlab" and not module.startswith("projlab."):
                continue
            module = module[len("projlab."):]
        found.append((node, module or None, [a.name for a in node.names]))
    return found


def test_module_imports_form_no_cycle():
    # the package's modules import one another along an acyclic graph;
    # imports inside functions count as edges too, so that none can hide
    # a cycle.  __init__.py, whose imports are the exports, is left out
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    graph = {}
    for name in sorted(modules):
        graph[name] = set()
        for _, module, names in _package_imports(
                ast.parse((SRC / (name + ".py")).read_text())):
            graph[name] |= {module} if module else set(names) & modules
    cycles, done = [], set()

    def visit(name, path):
        if name in path:
            cycles.append(" -> ".join(path[path.index(name):] + [name]))
        elif name not in done:
            for dep in sorted(graph[name]):
                visit(dep, path + [name])
            done.add(name)

    for name in graph:
        visit(name, [])
    assert cycles == []
    assert graph["grid"] == set()  # the leaf that every layer may import


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_imports_another_modules_private_name():
    # a module reaches the others only through their public names: no
    # import of a single-underscore name, at module level or in a
    # function, and no module._name through an imported module
    modules = {path.stem for path in SRC.glob("*.py")}
    reached = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = set()
        for node, module, names in _package_imports(tree):
            reached += ["%s:%d %s" % (path.name, node.lineno, name)
                        for name in names if _private(name)]
            if module is None:
                aliases |= set(names) & modules
        reached += ["%s:%d %s.%s" % (path.name, node.lineno, node.value.id,
                                     node.attr)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and _private(node.attr)
                    and getattr(node.value, "id", None) in aliases]
    assert reached == []


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
    # experiments.py keeps configs, checks and artifacts: its kernels'
    # tuning constants live with the kernels (that it reaches them only
    # through public names is the private-import rule above)
    tree = ast.parse((SRC / "experiments.py").read_text())
    constants = [node.lineno for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 and node.value is not None and _numeric(node.value)]
    assert constants == []


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
