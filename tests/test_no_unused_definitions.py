"""Every function, class and method defined in src/qaffine is named
somewhere besides its own definition, in src/, tests/ or perfbench/: a
helper nothing calls is deleted rather than kept.

A name counts as used when it appears as a variable, an attribute, an
imported name, or a word of a string literal that is not a docstring (the
benchmark's span recorder hooks functions by dotted name).  Dunder methods
are called by the language and are not checked."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qaffine"
SCANNED = ("src", "tests", "perfbench")

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, DEFS + (ast.Module,)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def _names(tree):
    """Every identifier the tree uses, definitions excluded."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            yield from re.findall(r"\w+", node.value)


def _trees():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def test_every_definition_is_named_elsewhere():
    used = Counter()
    defined = []
    for path, tree in _trees():
        used.update(_names(tree))
        if path.parent == SRC:
            for node in ast.walk(tree):
                if isinstance(node, DEFS):
                    defined.append((path.name, node.lineno, node.name))
    assert defined
    unused = ["%s:%d %s" % d for d in defined
              if not (d[2].startswith("__") and d[2].endswith("__"))
              and not used[d[2]]]
    assert not unused, unused
