"""The program runs on the standard library alone: every import in
src/qaffine is a qaffine module or a standard-library module."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qaffine"


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_are_stdlib_only():
    files = sorted(SRC.glob("*.py"))
    assert files
    bad = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, root in _imported_roots(tree):
            if root != "qaffine" and root not in sys.stdlib_module_names:
                bad.append("%s:%d imports %s" % (path.name, lineno, root))
    assert not bad, bad
