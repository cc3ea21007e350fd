"""Every function, class and method defined in src/qaffine is named
somewhere besides its own definition, in src/, tests/ or perfbench/: a
helper nothing calls is deleted rather than kept.  A name inside the
definition's own body (a recursive call) does not count.  The definitions
that only tests/ or perfbench/ name are a fixed list, TEST_ONLY: a new
helper that the engine does not run belongs in tests/.

A name counts as used when it appears as a variable or an attribute,
outside src/qaffine/__init__.py: a re-export is not a use, and neither is
an import.
A string literal that is not a docstring counts only when it parses as
Python, and then its names count as code does: the benchmark's span
recorder hooks functions by dotted name ("PWContext._build_irrep"), and
tests exec snippets, while report and error prose names nothing.  Methods
are matched by name, not by class.  Dunder methods are called by the
language and are not checked.

In the same way, every attribute that an __init__ in src/qaffine sets on
self is read as an attribute (x.name, loaded) somewhere in src/, tests/
or perfbench/, matched by name: a memo or field whose readers are gone
is deleted with them."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qaffine"
INIT = SRC / "__init__.py"
SCANNED = ("src", "tests", "perfbench")

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# named in src/ only where they are defined; the tests (and, for the dense
# routines, perfbench/spans.py) use them
TEST_ONLY = {"nullspace", "r0_pairing", "semi_invariant_product_check",
             "simple_root", "solve"}


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


def _names(root, docs):
    """Every identifier used under `root`, definitions excluded; `docs` are
    the ids of the docstring constants of its file."""
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            try:
                code = ast.parse(node.value)
            except (SyntaxError, ValueError):
                continue
            yield from _names(code, _docstrings(code))


def _own_uses(node, docs):
    """How often a definition names itself inside its own body, as a
    recursive call does."""
    return sum(name == node.name
               for stmt in node.body for name in _names(stmt, docs))


def _trees():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _scan(trees):
    """The definitions in src/qaffine, dunders left out, as (file, line,
    name, uses in their own body), and the names used under src/ and
    under tests/ or perfbench/."""
    in_src, outside = Counter(), Counter()
    defined = []
    for path, tree in trees:
        docs = _docstrings(tree)
        if path != INIT:
            (in_src if ROOT / "src" in path.parents else outside).update(
                _names(tree, docs))
        if path.parent == SRC:
            for node in ast.walk(tree):
                if isinstance(node, DEFS) and not (
                        node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined.append((path.name, node.lineno, node.name,
                                    _own_uses(node, docs)))
    assert defined
    return defined, in_src, outside


def _unused(trees):
    """The definitions in src/qaffine that no code outside their own body
    names, as "file:line name"."""
    defined, in_src, outside = _scan(trees)
    return ["%s:%d %s" % d[:3] for d in defined
            if in_src[d[2]] + outside[d[2]] <= d[3]]


def _test_only(trees):
    """The names of the definitions in src/qaffine that src/ names only in
    their own body, but tests/ or perfbench/ name."""
    defined, in_src, outside = _scan(trees)
    return {d[2] for d in defined if in_src[d[2]] <= d[3] and outside[d[2]]}


def _init_attributes(trees):
    """The attributes that an __init__ in src/qaffine sets on self (its
    first parameter), as (file, line, name)."""
    for path, tree in trees:
        if path.parent != SRC:
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.FunctionDef)
                    and node.name == "__init__" and node.args.args):
                continue
            me = node.args.args[0].arg
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == me):
                    yield path.name, sub.lineno, sub.attr


def _attribute_reads(root, docs):
    """Every attribute name loaded under `root`, also inside a string
    literal that parses as Python; `docs` are the ids of the docstring
    constants of its file."""
    for node in ast.walk(root):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            try:
                code = ast.parse(node.value)
            except (SyntaxError, ValueError):
                continue
            yield from _attribute_reads(code, _docstrings(code))


def _unread_attributes(trees):
    """The attributes set on self in an __init__ of src/qaffine that no
    code reads as an attribute, as "file:line name"."""
    trees = list(trees)
    read = set()
    for _, tree in trees:
        read.update(_attribute_reads(tree, _docstrings(tree)))
    attrs = list(_init_attributes(trees))
    assert attrs
    return ["%s:%d %s" % a for a in attrs if a[2] not in read]


def test_every_definition_is_named_elsewhere():
    unused = _unused(_trees())
    assert not unused, unused


def test_src_holds_only_the_listed_test_only_definitions():
    """A definition that only tests/ or perfbench/ name moves to tests/;
    the list only shrinks, when the engine starts to call one of them."""
    assert _test_only(_trees()) == TEST_ONLY


def test_a_name_used_only_in_its_own_body_is_unused():
    toy = ast.parse(
        "def fact(n):\n"
        "    return 1 if n < 2 else n * fact(n - 1)\n"
        "class Node:\n"
        "    def child(self):\n"
        "        return Node()\n"
        "def used():\n"
        "    return Node\n"
        "used()\n")
    assert _unused([(SRC / "toy.py", toy)]) == [
        "toy.py:1 fact", "toy.py:4 child"]


def test_a_name_only_tests_use_is_test_only():
    toy = ast.parse(
        "def engine():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def probe():\n"
        "    \"\"\"probe is named in its docstring only\"\"\"\n"
        "engine()\n")
    test = ast.parse("from toy import probe, helper\nprobe()\nhelper()\n")
    assert _test_only([(SRC / "toy.py", toy),
                       (ROOT / "tests" / "test_toy.py", test)]) == {"probe"}


def test_a_re_export_is_not_a_use():
    toy = ast.parse(
        "def engine():\n"
        "    return 1\n"
        "def probe():\n"
        "    return 2\n"
        "engine()\n")
    init = ast.parse("from .toy import engine, probe\n")
    test = ast.parse("from qaffine import probe\nprobe()\n")
    trees = [(SRC / "toy.py", toy), (INIT, init)]
    assert _unused(trees) == ["toy.py:3 probe"]
    assert _test_only(trees + [(ROOT / "tests" / "test_toy.py", test)]) == {
        "probe"}


def test_an_import_is_not_a_use():
    toy = ast.parse(
        "def engine():\n"
        "    return 1\n"
        "def probe():\n"
        "    return 2\n"
        "engine()\n")
    test = ast.parse("from toy import engine, probe\nengine()\n")
    assert _unused([(SRC / "toy.py", toy),
                    (ROOT / "tests" / "test_toy.py", test)]) == [
        "toy.py:3 probe"]


def test_only_a_string_that_parses_names_anything():
    toy = ast.parse(
        "def hooked():\n"
        "    return 1\n"
        "def run():\n"
        "    return 2\n"
        "def closed():\n"
        "    return 3\n"
        "HOOKS = ['Ctx.hooked', 'run(x, side=1)']\n"
        "raise ValueError('window closed vs open')\n")
    assert _unused([(SRC / "toy.py", toy)]) == ["toy.py:5 closed"]


def test_every_attribute_set_in_an_init_is_read():
    unread = _unread_attributes(_trees())
    assert not unread, unread


def test_an_attribute_only_set_is_unread():
    toy = ast.parse(
        "class Ctx:\n"
        "    def __init__(me, order):\n"
        "        me.order = order\n"
        "        me._memo = {}\n"
        "        me._tables: dict = {}\n"
        "        me.hooked = 0\n"
        "def read(ctx):\n"
        "    ctx._tables[1] = ctx.order\n"
        "    _memo = 'not an attribute'\n"
        "HOOKS = ['Ctx.hooked']\n")
    assert _unread_attributes([(SRC / "toy.py", toy)]) == ["toy.py:4 _memo"]
