"""Static checks over src/wf: no unused imports, no unreferenced private
helpers, no parameter a function never reads, no docstring naming a
private helper that is gone, and no docstring naming a module attribute,
such as wf.jet.linearize_generator, that the module does not define.
Each is left behind by a refactor."""

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wf"
MODULES = sorted(SRC.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def referenced_names(tree):
    """Every name the module reads: bare names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def imported_bindings(tree):
    """(bound name, line) for every import, the __future__ ones aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = parse(path)
    used = referenced_names(tree)
    unused = ["%s (line %d)" % (name, line)
              for name, line in imported_bindings(tree) if name not in used]
    assert not unused, "%s imports unused names: %s" % (path.name, unused)


def test_every_private_helper_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    # a private name counts as referenced when some module reads it or
    # imports it by name
    used = set()
    for tree in trees.values():
        used |= referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and node.name not in used):
                dead.append("%s:%d %s" % (name, node.lineno, node.name))
    assert not dead, "private helpers nothing references: %s" % dead


def defined_names(tree):
    """Every name the module binds or reads: definitions, parameters,
    imports, bare names and attribute names."""
    out = referenced_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def docstrings(tree):
    """(docstring, line) of the module and of every class and function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc, node.body[0].lineno


def docstring_private_names(tree):
    """(private name, line) for each _name, dunders aside, that a module,
    class or function docstring mentions."""
    for doc, line in docstrings(tree):
        for name in re.findall(r"(?<![\w])_[A-Za-z]\w*", doc):
            yield name, line


def test_docstrings_name_only_existing_private_names():
    trees = {path.name: parse(path) for path in MODULES}
    known = set()
    for tree in trees.values():
        known |= defined_names(tree)
    stale = ["%s:%d %s" % (name, line, private)
             for name, tree in trees.items()
             for private, line in docstring_private_names(tree)
             if private not in known]
    assert not stale, "docstrings name private helpers that are gone: %s" % stale


def top_level_names(tree):
    """Every name the module binds at its top level."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.asname or alias.name.split(".")[0]
                       for alias in node.names)
    return out


def docstring_module_references(tree, modules):
    """(module, name, line) for each module.name or wf.module.name that a
    docstring mentions, module being one of modules; a file name such as
    jet.py is not a reference."""
    pattern = re.compile(r"(?<![\w.])(?:wf\.)?(%s)\.(?!py\b)([A-Za-z_]\w*)"
                         % "|".join(map(re.escape, sorted(modules))))
    for doc, line in docstrings(tree):
        for match in pattern.finditer(doc):
            yield match.group(1), match.group(2), line


def test_docstring_module_references_resolve():
    trees = {path.stem: parse(path) for path in MODULES}
    names = {stem: top_level_names(tree) for stem, tree in trees.items()}
    refs = [(stem, module, name, line) for stem, tree in trees.items()
            for module, name, line in docstring_module_references(tree, trees)]
    assert refs
    stale = ["%s.py:%d %s.%s" % (stem, line, module, name)
             for stem, module, name, line in refs
             if name not in names[module]]
    assert not stale, "docstrings name module attributes that are gone: %s" % stale


# parameters a function may leave unread, each with its reason
UNREAD_PARAMETERS_ALLOWED = {
    # ring protocol methods that only refuse: Z/p^k has no canonical
    # division by p and no delta
    ("base_ring", "IntModRing.div_pi", "a"),
    ("base_ring", "IntModRing.base_delta", "a"),
    # the tracer's counted_rref and tests/test_trace_table.py call rref
    # with three arguments
    ("gfp", "rref", "ncols"),
}


def unread_parameters(tree):
    """(qualified function name, parameter) for each parameter, self and
    cls aside, that the body of its function or lambda never reads."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                args = child.args
                params = (args.posonlyargs + args.args + args.kwonlyargs
                          + [a for a in (args.vararg, args.kwarg) if a])
                body = (child.body if isinstance(child.body, list)
                        else [child.body])
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                out.extend((name, a.arg) for a in params
                           if a.arg not in ("self", "cls", *read))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def test_every_parameter_is_read():
    unread = {(path.stem, func, param)
              for path in MODULES
              for func, param in unread_parameters(parse(path))}
    assert unread == UNREAD_PARAMETERS_ALLOWED


def test_checks_catch_dead_code():
    tree = ast.parse("from operator import add as _plus\n"
                     "import json\n"
                     "def _nf_table(pres):\n"
                     "    return json.dumps(pres)\n")
    assert [name for name, _ in imported_bindings(tree)
            if name not in referenced_names(tree)] == ["_plus"]
    assert "_nf_table" not in referenced_names(tree)


def test_docstring_check_catches_stale_names():
    tree = ast.parse('"""_add_condition adds a block; see also _gone."""\n'
                     "def _add_condition(sys):\n"
                     '    """Not __init__, nor v_inv."""\n'
                     "    return sys\n")
    found = [name for name, _ in docstring_private_names(tree)]
    assert found == ["_add_condition", "_gone"]
    assert [name for name in found
            if name not in defined_names(tree)] == ["_gone"]


def test_reference_check_catches_stale_names():
    tree = ast.parse('"""See wf.jet.lift_constant and scheme.fold_companions,\n'
                     'not xscheme.gone, the file jet.py nor wf.scheme alone."""\n')
    assert list(docstring_module_references(tree, {"jet", "scheme"})) == [
        ("jet", "lift_constant", 1), ("scheme", "fold_companions", 1)]
    module = ast.parse("from .poly import MvPoly as P\n"
                       "N: int = 1\n"
                       "A, (B, C) = 1, (2, 3)\n"
                       "def fold_companions(pres):\n"
                       "    inner = 1\n"
                       "    return inner\n")
    assert top_level_names(module) == {"P", "N", "A", "B", "C",
                                       "fold_companions"}


def test_parameter_check_catches_unread_parameters():
    tree = ast.parse("class C:\n"
                     "    def m(self, ring, c):\n"
                     "        def inner(x):\n"
                     "            return c\n"
                     "        return inner\n"
                     "table = {'a': lambda ring: 1}\n")
    assert unread_parameters(tree) == [("C.m", "ring"), ("C.m.inner", "x"),
                                       ("<lambda>", "ring")]
