"""Source hygiene of the package: no dead imports, no unreferenced names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stepgraphon"
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
PERFBENCH = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "perfbench").glob("*.py"))
             if not path.name.startswith("test_")}
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
# paper constructions that only the acceptance criteria call; StepFunction1D is
# split_reconstruct's split-density input
ACCEPTANCE_ONLY = {"split_reconstruct", "strictify", "reorder_by_ordered_partition",
                   "compose_couplings", "StepFunction1D"}


def _references(tree, skip=None):
    """Names the tree reads, reaches as attributes or imports from elsewhere.

    The body of a top-level function or class named `skip` is not searched.
    """
    found = set()
    nodes = [node for node in tree.body
             if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip)]
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _imported(tree):
    """The local names that a module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":  # its imports are the package's exports
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{name}: {local}" for local in _imported(tree) if local not in read]
    assert unused == []


def _defined(tree):
    """The names a module's top-level functions, classes and assignments bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def test_every_private_module_name_is_referenced():
    referenced = set().union(*(_references(tree) for tree in MODULES.values()))
    unreferenced = [f"{name}: {d}" for name, tree in MODULES.items() for d in _defined(tree)
                    if d.startswith("_") and not d.startswith("__") and d not in referenced]
    assert unreferenced == []


def test_every_export_is_reached():
    """Each name the package exports is read by another module, perfbench or the criteria."""
    init = MODULES["__init__.py"]
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    readers = [tree for name, tree in MODULES.items() if name != "__init__.py"]
    readers += PERFBENCH.values()
    unreached = [name for name in exported if name not in ACCEPTANCE_ONLY
                 and not any(name in _references(tree, skip=name) for tree in readers)]
    assert unreached == []


def test_acceptance_only_exports_are_called_by_the_criteria():
    assert ACCEPTANCE_ONLY - _references(ast.parse(ACCEPTANCE.read_text())) == set()


def test_no_module_defines_all():
    assert [name for name, tree in MODULES.items()
            if "__all__" in _defined(tree)] == []
