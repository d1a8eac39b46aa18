"""Layout check: every public module-level function, class and assigned
name of framewave, and every public method of its classes, is named by
the code of the package outside its own definition (for an assignment,
outside its own statement).  Only identifier tokens count: a name that
appears in a docstring, a comment or a string literal is not a use.

A name that only tests reach is test code living in the package; it
belongs in ``tests/`` (see ``oracles``).  The allow-list holds the API
that the ROADMAP names (``manufactured_source``, ``data_from_target``),
the reader of the ``final_state.bin`` snapshots (``load_snapshot``) and
``w_prime``, a member of the weight family.

A second check asks that every error class of ``errors.py`` is raised by
some ``raise`` in the package; an import or an ``except`` clause alone
does not keep a class that nothing can raise any more.
"""

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "framewave"
ALLOWED = {"manufactured_source", "data_from_target", "load_snapshot", "w_prime"}


def _public(nodes):
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _public_assignments(nodes):
    """(name, statement) for each public name a module-level assignment binds."""
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield name.id, node


def _public_definitions():
    """(path, name, defining node): public module-level functions, classes
    and assigned names, then the public methods of every module-level
    class."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        yield from ((path, node.name, node) for node in _public(tree.body))
        yield from ((path, name, node) for name, node in _public_assignments(tree.body))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                yield from ((path, node.name, node) for node in _public(cls.body)
                            if isinstance(node, ast.FunctionDef))


def _identifier_lines(text):
    """{line number: identifier tokens on it}; strings and comments are
    other token types, so they name nothing here."""
    out = {}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            out.setdefault(tok.start[0], set()).add(tok.string)
    return out


def unreferenced_names():
    names = {path: _identifier_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = []
    for path, name, node in _public_definitions():
        own = range(node.lineno, node.end_lineno + 1)   # its own definition
        if not any(name in ids for p, lines in names.items()
                   for line, ids in lines.items() if p != path or line not in own):
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_every_public_name_is_used_in_the_package():
    assert [f for f in unreferenced_names() if f.split()[-1] not in ALLOWED] == []


def test_allowed_names_are_still_defined():
    names = {name for _, name, _ in _public_definitions()}
    assert ALLOWED <= names


def _raised_names(tree):
    """Names of what the ``raise`` statements of a module raise: the class
    called or named, bare or as a module attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def unraised_errors():
    """Subclasses of FramewaveError in errors.py that no ``raise`` in the
    package raises: an error class whose last raiser is gone."""
    subclasses = {"FramewaveError"}
    for cls in ast.parse((SRC / "errors.py").read_text()).body:
        if isinstance(cls, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in subclasses for b in cls.bases):
            subclasses.add(cls.name)
    raised = {name for path in SRC.glob("*.py")
              for name in _raised_names(ast.parse(path.read_text()))}
    return sorted(subclasses - {"FramewaveError"} - raised)


def test_every_error_class_is_raised_in_the_package():
    assert unraised_errors() == []
