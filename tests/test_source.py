"""Source hygiene: no dead imports, unreached names, methods or readers, test-only defaults."""

import ast
import collections
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
# methods that no package, perfbench or criteria code reads, kept on purpose
UNREAD_METHODS = {
    # argparse calls it on a parse error
    "cli._Parser.error",
    # perfbench/test_perfbench.py builds couplings with it, and perfbench is the benchmark's
    "core.Coupling.diagonal",
}


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


def _scopes(node, hit, scope):
    """The enclosing scope, dotted, of each node below node that hit accepts."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif hit(child):
            yield scope
        yield from _scopes(child, hit, inner)


def _new_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__")


def test_every_object_passes_its_constructor():
    """No code builds an object past its __init__ checks, but the sampled multiway plans."""
    bypasses = [scope for name, tree in MODULES.items()
                for scope in _scopes(tree, _new_call, name[:-3])]
    assert sorted(bypasses) == ["core._derived_partition"]


def _reads_match_tol(node):
    return ((isinstance(node, ast.Name) and node.id == "MATCH_TOL"
             and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == "MATCH_TOL"))


def test_only_core_matches_masses():
    """core decides when masses match; check_flatter's LP tolerance is the one other reader."""
    readers = {scope for name, tree in MODULES.items() if name != "core.py"
               for scope in _scopes(tree, _reads_match_tol, name[:-3])}
    assert sorted(readers) == ["measures.check_flatter"]


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


def _methods(tree):
    """(class name, method node) of each non-dunder method of a top-level class."""
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                yield cls.name, node


def _attribute_reads(trees):
    """How often each name is reached as an attribute anywhere in the trees."""
    return collections.Counter(node.attr for tree in trees for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute))


def test_every_method_is_reached():
    """Each method is reached outside its own body by the package, perfbench or the criteria.

    A method is reached as an attribute, matched by name, so an attribute of
    the same name elsewhere also counts; the criteria keep
    StepFunction1D.indicator.
    """
    readers = [*MODULES.values(), *PERFBENCH.values(), ast.parse(ACCEPTANCE.read_text())]
    reads = _attribute_reads(readers)
    unread = {f"{module[:-3]}.{owner}.{method.name}"
              for module, tree in MODULES.items() for owner, method in _methods(tree)
              if reads[method.name] == _attribute_reads([method])[method.name]}
    assert sorted(unread - UNREAD_METHODS) == []
    assert UNREAD_METHODS <= unread


def test_acceptance_only_exports_are_called_by_the_criteria():
    assert ACCEPTANCE_ONLY - _references(ast.parse(ACCEPTANCE.read_text())) == set()


def test_no_module_defines_all():
    assert [name for name, tree in MODULES.items()
            if "__all__" in _defined(tree)] == []


def _defaulted(tree):
    """(owner, function, parameter, position) of each defaulted parameter.

    owner is the enclosing class or None; position counts the positional
    arguments a call passes (self excluded) and is None for keyword-only.
    """
    scopes = [(None, tree.body)]
    scopes += [(node.name, node.body) for node in tree.body if isinstance(node, ast.ClassDef)]
    for owner, body in scopes:
        for f in (node for node in body if isinstance(node, ast.FunctionDef)):
            bound = owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)
            args = [*f.args.posonlyargs, *f.args.args]
            first = len(args) - len(f.args.defaults)
            for i in range(first, len(args)):
                yield owner, f.name, args[i].arg, i - bound
            for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if default is not None:
                    yield owner, f.name, arg.arg, None


def _passes(call, name, position):
    """Whether the call can set the parameter: by position, keyword, * or **."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if position is not None and len(call.args) > position:
        return True
    return any(kw.arg in (None, name) for kw in call.keywords)


def test_every_default_is_set_by_some_caller():
    """A defaulted parameter that only tests set is a knob: make it a constant.

    Calls match by the called name (a class name for __init__), so a call of
    another function of the same name also counts as setting the parameter.
    """
    def callee(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    calls = [node for tree in (*MODULES.values(), *PERFBENCH.values())
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = set()
    for module, tree in MODULES.items():
        for owner, function, name, position in _defaulted(tree):
            target = owner if function == "__init__" else function
            if not any(callee(c) == target and _passes(c, name, position) for c in calls):
                unset.add(".".join(filter(None, (module[:-3], owner, function, name))))
    assert sorted(unset) == []


def test_every_reader_has_a_command():
    """Each from_dict is reached by a command.

    cli.py passes its class, or a base of it, to io.load, or a reached
    reader calls it (MultiwayMatrixSet's reads PartitionSpec's).
    """
    classes = {node.name: node for tree in MODULES.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}

    def from_dict(cls):
        return next((node for node in cls.body if isinstance(node, ast.FunctionDef)
                     and node.name == "from_dict"), None)

    def lineage(name):
        bases = [base.id for base in classes[name].bases if isinstance(base, ast.Name)]
        return {name}.union(*(lineage(base) for base in bases if base in classes))

    loaded = {call.args[1].id for call in ast.walk(MODULES["cli.py"])
              if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
              and call.func.attr == "load" and getattr(call.func.value, "id", None) == "io"
              and len(call.args) == 2 and isinstance(call.args[1], ast.Name)}
    readers = {name for name, cls in classes.items() if from_dict(cls)}
    reached = frontier = {name for name in readers if lineage(name) & loaded}
    while frontier:
        called = {node.value.id for name in frontier for node in ast.walk(from_dict(classes[name]))
                  if isinstance(node, ast.Attribute) and node.attr == "from_dict"
                  and isinstance(node.value, ast.Name)}
        frontier = (called & readers) - reached
        reached = reached | frontier
    assert sorted(readers - reached) == []


def _inline_tolerances(tree):
    """(line, value) of each float literal with 0 < |x| < 1e-6 inside a comparison."""
    for compare in (node for node in ast.walk(tree) if isinstance(node, ast.Compare)):
        for node in ast.walk(compare):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < abs(node.value) < 1e-6):
                yield node.lineno, node.value


def test_no_comparison_has_an_inline_tolerance():
    """A tolerance is a named constant or a parameter, with its direction stated there."""
    inline = [f"{name}:{line}: {value!r}" for name, tree in MODULES.items()
              for line, value in _inline_tolerances(tree)]
    assert inline == []
