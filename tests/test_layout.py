"""Layout check: every public module-level function and class of framewave,
and every public method of its classes, is named by some line of the
package outside its own definition.

A name that only tests reach is test code living in the package; it
belongs in ``tests/`` (see ``oracles``).  The allow-list holds the API
that the ROADMAP names (``manufactured_source``, ``data_from_target``),
the reader of the ``final_state.bin`` snapshots (``load_snapshot``) and
``w_prime``, a member of the weight family.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "framewave"
ALLOWED = {"manufactured_source", "data_from_target", "load_snapshot", "w_prime"}


def _public(nodes):
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _public_definitions():
    """Public module-level functions and classes, then the public methods
    of every module-level class."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        yield from ((path, node) for node in _public(tree.body))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                yield from ((path, node) for node in _public(cls.body)
                            if isinstance(node, ast.FunctionDef))


def unreferenced_names():
    lines = {path: path.read_text().splitlines() for path in sorted(SRC.glob("*.py"))}
    found = []
    for path, node in _public_definitions():
        word = re.compile(rf"\b{re.escape(node.name)}\b")
        own = range(node.lineno - 1, node.end_lineno)   # its own definition
        if not any(word.search(text) for p, texts in lines.items()
                   for k, text in enumerate(texts) if p != path or k not in own):
            found.append(f"{path.name}:{node.lineno} {node.name}")
    return found


def test_every_public_name_is_used_in_the_package():
    assert [f for f in unreferenced_names() if f.split()[-1] not in ALLOWED] == []


def test_allowed_names_are_still_defined():
    names = {node.name for _, node in _public_definitions()}
    assert ALLOWED <= names
