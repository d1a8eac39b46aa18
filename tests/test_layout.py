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

A third asks that every defaulted parameter of a public function or of a
public method of a public class, ``__init__`` included, is passed by
some call in the package: by position, by keyword, through
``functools.partial``, or by any call that spreads ``*args`` or
``**kwargs``.  A call is matched by the callee's name (the class name
for ``__init__``).  A parameter that only tests set is an option the
package does not run; ``UNSET_ALLOWED`` lists the few that stay, each
with its reason.
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


CHECK_SIZE = "the certify check's size, which the acceptance tests set"
UNSET_ALLOWED = {
    "certify.check_weight_lemmas(n_q)": CHECK_SIZE,
    "certify.check_gradient_decomposition(n_fields)": CHECK_SIZE,
    "certify.check_gradient_decomposition(n_pts)": CHECK_SIZE,
    "certify.check_nullframe_rewriting(n_pts)": CHECK_SIZE,
    "certify.check_divergence_identity(n_pts)": CHECK_SIZE,
    "certify.check_commutator_identity(n_pts)": CHECK_SIZE,
    "certify.check_decay_inequalities(n_pts)": CHECK_SIZE,
    "background.BumpBackground.__init__(direction)": "the M = -I kernel cases of the tests; "
                                                      "every config runs the default M",
    "cli.main(argv)": "the console entry point reads sys.argv; tests pass their own",
    "evolve.gaussian_target(poly)": "a polynomial-times-Gaussian target for the "
                                    "manufactured solutions",
    "fields.PolyField.random(time_dependent)": "static random fields for the exact-lane "
                                               "tests",
}


def _defaulted(fn, bound):
    """(name, position or None if keyword-only) of fn's defaulted
    parameters; positions count from the first argument a call passes."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0:]
    first = len(positional) - len(args.defaults)
    out = [(p.arg, k) for k, p in enumerate(positional) if k >= first]
    out += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _public_signatures():
    """(label, callee name, defaulted parameters) of every public function
    and every public method or ``__init__`` of a public class."""
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for node in _public(ast.parse(path.read_text()).body):
            if isinstance(node, ast.FunctionDef):
                yield f"{mod}.{node.name}", node.name, _defaulted(node, False)
                continue
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and (m.name == "__init__"
                                                       or not m.name.startswith("_")):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in m.decorator_list)
                    callee = node.name if m.name == "__init__" else m.name
                    yield f"{mod}.{node.name}.{m.name}", callee, _defaulted(m, not static)


def _callee(expr):
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _package_calls():
    """{callee name: [(positional count, keyword names, spreads), ...]} over
    every call in the package; ``partial(f, ...)`` is a call of f."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name, args = _callee(node.func), node.args
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            spreads = any(isinstance(a, ast.Starred) for a in args) or \
                any(k.arg is None for k in node.keywords)
            out.setdefault(name, []).append((len(args), {k.arg for k in node.keywords},
                                             spreads))
    return out


def unset_parameters():
    """'module.function(parameter)' for each defaulted public parameter
    that no call in the package passes."""
    calls = _package_calls()
    found = []
    for label, callee, params in _public_signatures():
        for name, pos in params:
            if not any(spreads or name in keywords or (pos is not None and n_pos > pos)
                       for n_pos, keywords, spreads in calls.get(callee, ())):
                found.append(f"{label}({name})")
    return found


def test_every_defaulted_parameter_is_passed_in_the_package():
    assert [f for f in unset_parameters() if f not in UNSET_ALLOWED] == []


def test_unset_allow_list_is_still_unset():
    """An entry that the package now passes, or that names a parameter
    which is gone, leaves the list."""
    assert set(UNSET_ALLOWED) <= set(unset_parameters())
