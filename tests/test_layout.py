"""Layout check: every public module-level function, class and assigned
name of framewave, and every public method of its classes, is named by
the code of the package outside its own definition (for an assignment,
outside its own statement).  Only identifier tokens count: a name that
appears in a docstring, a comment or a string literal is not a use.  A
method whose name another class's method shares counts only the uses
whose receiver is tied to its own class (``self`` in the class, the
class name, a call of the class or of a classmethod, or a name or
``self`` attribute assigned from one); ``UNTIED_ALLOWED`` names the few
whose callers hold the object under a name that no class can be read
off, each with its reason.

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


def _sources():
    return {path: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _public_definitions(sources=None):
    """(path, name, defining node, class name or None): public module-level
    functions, classes and assigned names, then the public methods of
    every module-level class."""
    for path, text in (sources or _sources()).items():
        tree = ast.parse(text, filename=str(path))
        yield from ((path, node.name, node, None) for node in _public(tree.body))
        yield from ((path, name, node, None) for name, node in _public_assignments(tree.body))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                yield from ((path, node.name, node, cls.name) for node in _public(cls.body)
                            if isinstance(node, ast.FunctionDef))


def _identifier_lines(text):
    """{line number: identifier tokens on it}; strings and comments are
    other token types, so they name nothing here."""
    out = {}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            out.setdefault(tok.start[0], set()).add(tok.string)
    return out


def _decorated(fn, name):
    return any(isinstance(d, ast.Name) and d.id == name for d in fn.decorator_list)


class _Receivers(ast.NodeVisitor):
    """Uses ``receiver.method`` of the shared method names whose receiver
    is tied to one class that defines the method: ``self`` (``cls``) in a
    method of the class, the class name, a call of the class or of one
    of its classmethods, or a name or ``self`` attribute assigned from
    one of these (a name anywhere in its function, an attribute in any
    method of the class).  ``uses`` maps (class, method) to the (path,
    line) of each use."""

    def __init__(self, path, classes, shared, uses):
        self.path, self.classes, self.shared, self.uses = path, classes, shared, uses
        self.env = {}                # receiver source text -> class name

    def class_named(self, expr):
        """The class that ``C`` or ``module.C`` names, else None."""
        if isinstance(expr, ast.Name):
            name = expr.id
        elif isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            name = expr.attr
        else:
            return None
        return name if name in self.classes else None

    def owner(self, expr):
        if isinstance(expr, ast.Call):
            f, cls = expr.func, self.class_named(expr.func)
            if cls is None and isinstance(f, ast.Attribute):
                cls = self.class_named(f.value)       # C.method(...): a classmethod only
                if cls is not None and self.classes[cls].get(f.attr) != "classmethod":
                    cls = None
            return cls
        return self.class_named(expr) or self.env.get(ast.unparse(expr))

    def bind(self, nodes, keep=lambda target: True):
        """Bind the targets of the assignments among ``nodes`` (not inside
        a nested scope) whose value has an owner; twice, so that a name
        bound from a name bound later in the text is tied too."""
        assigns = [n for n in nodes if isinstance(n, ast.Assign)]
        for _ in range(2):
            for node in assigns:
                for target in node.targets:
                    pairs = [(target, node.value)]
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = zip(target.elts, node.value.elts)
                    for t, v in pairs:
                        if keep(t) and self.owner(v) is not None:
                            self.env[ast.unparse(t)] = self.owner(v)

    @staticmethod
    def scope(node):
        """The nodes of a body outside the nested functions, lambdas and classes."""
        out, todo = [], list(ast.iter_child_nodes(node))
        while todo:
            n = todo.pop()
            out.append(n)
            if not isinstance(n, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
                todo.extend(ast.iter_child_nodes(n))
        return out

    def visit_Module(self, node):
        self.bind(self.scope(node))
        self.generic_visit(node)

    def visit_ClassDef(self, node):
        saved, self.env = self.env, dict(self.env)
        for fn in node.body:
            if isinstance(fn, ast.FunctionDef):
                args = fn.args.posonlyargs + fn.args.args
                if args and not _decorated(fn, "staticmethod"):
                    me = args[0].arg
                    self.bind(list(ast.walk(fn)), lambda t, me=me: (
                        isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                        and t.value.id == me))
        for child in node.body:
            if isinstance(child, ast.FunctionDef):
                self.visit_function(child, node.name)
            else:
                self.visit(child)
        self.env = saved

    def visit_function(self, node, cls=None):
        saved, self.env = self.env, dict(self.env)
        args = node.args.posonlyargs + node.args.args
        for a in args + node.args.kwonlyargs:
            self.env.pop(a.arg, None)
        if cls is not None and args and not _decorated(node, "staticmethod"):
            self.env[args[0].arg] = cls
        self.bind(self.scope(node))
        self.generic_visit(node)
        self.env = saved

    def visit_FunctionDef(self, node):
        self.visit_function(node)

    def visit_Attribute(self, node):
        cls = self.owner(node.value) if node.attr in self.shared else None
        if cls is not None and node.attr in self.classes[cls]:
            self.uses.setdefault((cls, node.attr), []).append((self.path, node.lineno))
        self.generic_visit(node)


def unreferenced_names(sources=None, untied_allowed=None):
    """'path:line name' of each public definition that the package does
    not use.  A method whose name another class defines too is used only
    where its receiver is tied to its class (:class:`_Receivers`); any
    other name is used where its identifier token appears."""
    sources = sources or _sources()
    untied_allowed = UNTIED_ALLOWED if untied_allowed is None else untied_allowed
    names = {path: _identifier_lines(text) for path, text in sources.items()}
    trees = {path: ast.parse(text) for path, text in sources.items()}
    classes = {}                     # class name -> {method name: decorator kind}
    for tree in trees.values():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                classes[cls.name] = {fn.name: "classmethod" if _decorated(fn, "classmethod")
                                     else "method" for fn in cls.body
                                     if isinstance(fn, ast.FunctionDef)}
    owners = {}
    for _, name, _, cls in _public_definitions(sources):
        if cls is not None:
            owners.setdefault(name, []).append(cls)
    shared = {name for name, defined_by in owners.items() if len(defined_by) > 1}
    uses = {}
    for path, tree in trees.items():
        _Receivers(path, classes, shared, uses).visit(tree)
    found = []
    for path, name, node, cls in _public_definitions(sources):
        own = range(node.lineno, node.end_lineno + 1)   # its own definition
        if cls is not None and name in shared:
            used = any(p != path or line not in own for p, line in uses.get((cls, name), ()))
            if not used and f"{path.stem}.{cls}.{name}" not in untied_allowed:
                found.append(f"{path.name}:{node.lineno} {cls}.{name}")
        elif not any(name in ids for p, lines in names.items()
                     for line, ids in lines.items() if p != path or line not in own):
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


# Methods of a shared name whose uses all have a receiver that names no
# class, each with the uses that reach it.
UNTIED_ALLOWED = {
    "certify.CheckResult.to_json": "cli.mode_certify writes r.to_json() of each result "
                                   "of certify.run_suite",
    "estimates.EstimateReport.to_json": "cli.mode_estimate writes the to_json() of each "
                                        "energy_estimate_report(...)",
    "energy.BudgetPass.add": "run_experiment feeds passes[i], a BudgetPass or an EstimatePass",
    "energy.SliceState.region_mask": "the monitors' quadratures mask the slice state they "
                                     "are handed, state.region_mask(region)",
    "fields.GridGeometry.region_mask": "SliceState.region_mask reads self.geom.region_mask",
    "poly.Poly.diff": "the exact scalars of a target or a PolyField are Poly or GaussPoly, "
                      "and p.diff(mu) reaches either",
    "poly.GaussPoly.diff": "as poly.Poly.diff",
}


def test_every_public_name_is_used_in_the_package():
    assert [f for f in unreferenced_names() if f.split()[-1] not in ALLOWED] == []


def test_allowed_names_are_still_defined():
    names = {name for _, name, _, _ in _public_definitions()}
    assert ALLOWED <= names


def test_untied_allow_list_is_still_untied():
    """An entry whose method gains a use tied to its class, or is gone,
    leaves the list."""
    found = {f"{f.split(':')[0][:-3]}.{f.split()[-1]}"
             for f in unreferenced_names(untied_allowed={})}
    assert set(UNTIED_ALLOWED) <= found


def test_a_method_sharing_its_name_needs_a_use_of_its_own_class():
    """PolyField.is_zero beside Poly.is_zero: the many uses of
    p.is_zero() on exact scalars keep only Poly's alive."""
    sources = _sources()
    fields = SRC / "fields.py"
    anchor = "    @classmethod\n    def zero(cls, rank=0, channels=1):\n"
    assert anchor in sources[fields]
    sources[fields] = sources[fields].replace(anchor, (
        "    def is_zero(self):\n"
        "        return all(p.is_zero() for p in self.comps.ravel())\n\n") + anchor)
    assert any(f.startswith("fields.py:") and f.endswith(" PolyField.is_zero")
               for f in unreferenced_names(sources))
    assert not any(f.endswith(" PolyField.is_zero") for f in unreferenced_names())


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
