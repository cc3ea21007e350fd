"""Every function, class and method defined in src/qaffine is used
somewhere besides its own definition, in src/, tests/ or perfbench/: a
helper nothing calls is deleted rather than kept.  A use inside the
definition's own body (a recursive call) does not count.  The definitions
that only tests/ or perfbench/ use are a fixed list, TEST_ONLY: a new
helper that the engine does not run belongs in tests/.

A function or class is used when its name appears as a variable or an
attribute, outside src/qaffine/__init__.py: a re-export is not a use, and
neither is an import.  A test file that defines a function of the same
name uses its own.

A method is matched by its binding Class.method, not by its name alone,
so a dead method does not pass because another callable shares its name
(as CharacterMonoid.power once passed through LieAlgebra.power).  A call
x.m runs C.m when the scan resolves the class of x to C, to a subclass
that inherits m from C, or to a base whose m C overrides.  The class of
x is read off the code: self in a method, a class named directly
(C.m, and the dotted hook names of perfbench/spans.py such as
"PWContext._build_irrep"), a constructor call, a parameter annotation,
the annotated result of a function or method, an attribute an __init__
sets from any of these, a name assigned one of them, and a pytest
fixture's result for the parameter named after it.  A call whose
receiver the scan cannot resolve counts for C.m only when no definition
outside C's interface shares the name m, or when a resolved call reaches
m in a class of that interface (INTERFACES lists the classes that stand
in for each other by duck typing; any other class is its own).  Dunder
methods are called by the language and are not checked.

A string literal that is not a docstring counts only when it parses as
Python, and then its names count as code does: the benchmark's span
recorder hooks functions by dotted name, and tests exec snippets, while
report and error prose names nothing.  This file is not scanned for
uses: its lists and toy snippets name definitions without using them.

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
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = FUNCS + (ast.Lambda,)
MODULE = "module"  # the class of a name bound by an import of a module

# used in src/ only inside their own definitions; the tests (and, for the
# dense routines and the dense view Rep.act, perfbench/) use them
TEST_ONLY = {"LieAlgebra.r0_pairing", "LieAlgebra.simple_root", "Rep.act",
             "nullspace", "semi_invariant_product_check", "solve"}

# classes that stand in for each other by duck typing: the two rings of a
# BlockFunction's context, and the two kinds of coiso membership window
INTERFACES = ({"PWContext", "QAffineContext"},
              {"EchelonSpan", "MonomialWindow"})


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


def _parsed(node, docs):
    """The code of a string literal that is not a docstring and parses as
    Python, else None."""
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docs):
        try:
            return ast.parse(node.value)
        except (SyntaxError, ValueError):
            pass
    return None


def _own(node):
    """The nodes under node, in source order, outside nested functions,
    lambdas and classes."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, SCOPES + (ast.ClassDef,)):
            yield from _own(child)


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_fixture(decorator):
    """pytest.fixture, called or not."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Attribute) and decorator.attr == "fixture"


class _Index:
    """The classes of the scanned files (bases and methods; a class of
    src/qaffine wins a clash of names), the classes that the functions and
    methods of src/qaffine return by their annotations, the classes of the
    attributes each __init__ sets, and each file's pytest fixtures."""

    def __init__(self, trees):
        self.bases, self.methods, self.fields = {}, {}, {}
        self.returns, self.fixtures = {}, {}
        self.modules = {p.stem for p, _ in trees if p.parent == SRC}
        for path, tree in sorted(trees, key=lambda t: t[0].parent != SRC):
            for node in ast.walk(tree):
                if (isinstance(node, ast.ClassDef)
                        and node.name not in self.bases):
                    self.bases[node.name] = [b.id for b in node.bases
                                             if isinstance(b, ast.Name)]
                    self.methods[node.name] = {
                        f.name: f for f in node.body if isinstance(f, FUNCS)}
            if path.parent == SRC:
                for f in tree.body:
                    if isinstance(f, FUNCS):
                        self.returns[f.name] = self.annotation(f.returns)
        for c, methods in self.methods.items():
            for name, f in methods.items():
                self.returns[c, name] = self.annotation(f.returns)
            init = methods.get("__init__")
            if init is not None and init.args.args:
                me, env = init.args.args[0].arg, self.env(init, {}, c, {})
                for sub in _own(init):
                    if isinstance(sub, ast.AnnAssign):
                        target, cls = sub.target, self.annotation(
                            sub.annotation)
                    elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                        target, cls = sub.targets[0], self.classes_of(
                            sub.value, env)
                    else:
                        continue
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == me and cls != MODULE):
                        self.fields[c, target.attr] = cls
        for path, tree in trees:
            env = self.env(tree, {}, None, {})
            self.fixtures[path] = {
                f.name: self.classes_of(ret.value, self.env(f, env, None, {}))
                for f in tree.body if isinstance(f, FUNCS) and any(
                    _is_fixture(d) for d in f.decorator_list)
                for ret in _own(f) if isinstance(ret, ast.Return)}

    def annotation(self, node):
        """The class an annotation names, C or "C", as a set."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.Name):
            return frozenset({node.id} & self.bases.keys())
        return frozenset()

    def mro(self, c):
        out, todo = [], [c]
        while todo:
            k = todo.pop(0)
            if k in self.bases and k not in out:
                out.append(k)
                todo.extend(self.bases[k])
        return out

    def lookup(self, c, m):
        """The class whose m an instance of c runs, or None."""
        return next((k for k in self.mro(c) if m in self.methods[k]), None)

    def targets(self, c, m):
        """The classes whose m a call x.m may run when x is a c: the one
        c inherits m from, and the subclasses of c that override m."""
        return ({self.lookup(c, m)} - {None}) | {
            k for k in self.bases
            if k != c and m in self.methods[k] and c in self.mro(k)}

    def classes_of(self, e, env):
        """The classes of the value of the expression e, MODULE for a
        module, empty when the scan cannot tell."""
        if isinstance(e, ast.Name):
            return env.get(e.id, frozenset({e.id} & self.bases.keys()))
        if isinstance(e, ast.Call):
            f = e.func
            if isinstance(f, ast.Name):
                if f.id in self.bases:
                    return frozenset({f.id})
                return self.returns.get(f.id, frozenset())
            if isinstance(f, ast.Attribute):
                recv = self.classes_of(f.value, env)
                if recv == MODULE:
                    return self.returns.get(f.attr, frozenset())
                return frozenset().union(*(
                    self.returns.get((self.lookup(c, f.attr), f.attr),
                                     frozenset()) for c in recv))
        if isinstance(e, ast.Attribute):
            recv = self.classes_of(e.value, env)
            if recv != MODULE:
                return frozenset().union(*(
                    self.fields.get((k, e.attr), frozenset())
                    for c in recv for k in self.mro(c)))
        return frozenset()

    def env(self, scope, outer, cls, fixtures):
        """The classes of the names of a scope (a module, a function or a
        lambda) that the scan can tell, on top of the enclosing scope's:
        the first parameter of a method of cls, annotated parameters,
        parameters named after a fixture, imported modules, and names
        assigned a value of known class."""
        env = dict(outer)
        if isinstance(scope, SCOPES):
            args = scope.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            for a in params:
                env[a.arg] = (self.annotation(a.annotation)
                              or fixtures.get(a.arg, frozenset()))
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in getattr(scope, "decorator_list", ()))
            if cls and params and not static:
                env[params[0].arg] = frozenset({cls})
        for sub in _own(scope):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                for a in sub.names:
                    if isinstance(sub, ast.Import) or a.name in self.modules:
                        env[a.asname or a.name.split(".")[0]] = MODULE
                continue
            if (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Name)):
                value = self.classes_of(sub.value, env)
                if value:
                    env[sub.targets[0].id] = value
        return env


def _uses(index, path, tree, record):
    """Call record(kind, name, classes, chain) for every use under tree:
    kind "name" for a variable, "attr" for an attribute with the classes
    of its receiver (MODULE, or empty when unknown); chain holds the
    definitions around the use.  A string literal that parses is scanned
    as code in its place."""
    fixtures = index.fixtures.get(path, {})

    def visit(node, env, chain, cls, docs):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, env, chain + (child,), child.name, docs)
                continue
            if isinstance(child, SCOPES):
                visit(child, index.env(child, env, cls, fixtures),
                      chain + (child,), None, docs)
                continue
            if isinstance(child, ast.Name):
                record("name", child.id, None, chain)
            elif isinstance(child, ast.Attribute):
                record("attr", child.attr,
                       index.classes_of(child.value, env), chain)
            code = _parsed(child, docs)
            if code is not None:
                visit(code, index.env(code, {}, None, {}), chain, None,
                      _docstrings(code))
            visit(child, env, chain, cls, docs)

    visit(tree, index.env(tree, {}, None, fixtures), (), None,
          _docstrings(tree))


def _trees():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _scan(trees):
    """Each definition in src/qaffine, dunders left out, as
    ("file:line name", uses in src/, uses in tests/ or perfbench/), name
    Class.method for a method."""
    trees = list(trees)
    index = _Index(trees)
    interface = {c: group for group in INTERFACES for c in group}
    # each definition's class (None outside a class body), and per name
    # the classes that define it (None for a function or class)
    in_class, owners = {}, {}
    for _, tree in trees:
        in_class.update((id(f), c.name) for c in ast.walk(tree)
                        if isinstance(c, ast.ClassDef) for f in c.body)
        for node in ast.walk(tree):
            if isinstance(node, DEFS):
                owners.setdefault(node.name, set()).add(
                    in_class.get(id(node)))
    # calls resolved to a class, per (where, class, method name); and the
    # other uses per (where, kind, name): a variable or an attribute of a
    # module ("name"), or an attribute of a receiver of unknown class
    # ("attr")
    bound, named = Counter(), Counter()
    for path, tree in trees:
        if path in (INIT, Path(__file__)):
            continue
        where = "src" if ROOT / "src" in path.parents else "out"
        mine = set() if where == "src" else {
            f.name for f in tree.body if isinstance(f, DEFS)}

        def record(kind, name, classes, chain, where=where, mine=mine):
            if kind == "attr" and classes and classes != MODULE:
                for c in classes:
                    for k in index.targets(c, name):
                        if index.methods[k][name] not in chain:
                            bound[where, k, name] += 1
            elif not (any(isinstance(d, DEFS) and d.name == name
                          for d in chain)
                      or (kind == "name" and name in mine)):
                named[where, "attr" if classes == frozenset() else "name",
                      name] += 1

        _uses(index, path, tree, record)
    out = []
    for path, tree in trees:
        if path.parent != SRC:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, DEFS) or _dunder(node.name):
                continue
            name, cls = node.name, in_class.get(id(node))
            group = interface.get(cls, {cls})
            # an unresolved call counts for a method only when the name is
            # its own, or resolved calls reach it in its interface
            fallback = cls is None or owners[name] <= group or any(
                bound[w, k, name] for w in ("src", "out") for k in group)
            uses = [bound[w, cls, name] if cls else named[w, "name", name]
                    for w in ("src", "out")]
            if fallback:
                uses = [u + named[w, "attr", name]
                        for u, w in zip(uses, ("src", "out"))]
            label = "%s.%s" % (cls, name) if cls else name
            out.append(("%s:%d %s" % (path.name, node.lineno, label), *uses))
    assert out
    return out


def _unused(trees):
    """The definitions in src/qaffine that nothing outside their own body
    uses, as "file:line name"."""
    return [d for d, src, outside in _scan(trees) if not src + outside]


def _test_only(trees):
    """The names of the definitions in src/qaffine that src/ uses only in
    their own body, but tests/ or perfbench/ use."""
    return {d.split()[1] for d, src, outside in _scan(trees)
            if not src and outside}


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
        "toy.py:1 fact", "toy.py:4 Node.child"]


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


def test_a_dead_method_that_shares_a_live_methods_name_is_unused():
    """Monoid.power is dead although Algebra.power is called: every call
    of .power resolves to Algebra, through a return annotation, a
    parameter annotation, a constructor and self."""
    toy = ast.parse(
        "class Algebra:\n"
        "    def power(self, m):\n"
        "        return self.power(m - 1) if m else self\n"
        "class Monoid:\n"
        "    def power(self, m):\n"
        "        return m\n"
        "def build() -> Algebra:\n"
        "    return Algebra()\n"
        "def mix(alg: 'Algebra', m):\n"
        "    return alg.power(m)\n"
        "alg = Algebra()\n"
        "mix(build().power(2), alg.power(3)), Monoid()\n")
    assert _unused([(SRC / "toy.py", toy)]) == ["toy.py:5 Monoid.power"]


def test_an_unresolved_call_counts_for_a_name_only_one_class_defines():
    """x.m with x of unknown class counts for C.m when C alone defines m,
    or when a resolved call reaches C.m; a shared name with no resolved
    call counts for neither class."""
    toy = ast.parse(
        "class A:\n"
        "    def only(self):\n"
        "        return 1\n"
        "    def both(self):\n"
        "        return 2\n"
        "    def reached(self):\n"
        "        return 3\n"
        "class B:\n"
        "    def both(self):\n"
        "        return 4\n"
        "    def reached(self):\n"
        "        return 5\n"
        "def use(x, a: A):\n"
        "    return x.only(), x.both(), x.reached(), a.reached()\n"
        "use(A(), B())\n")
    assert _unused([(SRC / "toy.py", toy)]) == [
        "toy.py:4 A.both", "toy.py:9 B.both", "toy.py:11 B.reached"]


def test_a_call_on_a_base_reaches_the_overrides():
    """self.step() in a base runs a subclass's override, and C.m in a
    string that parses (a benchmark hook name) is a call of C.m."""
    toy = ast.parse(
        "class Base:\n"
        "    def run(self):\n"
        "        return self.step()\n"
        "    def step(self):\n"
        "        return 0\n"
        "class Child(Base):\n"
        "    def step(self):\n"
        "        return 1\n"
        "class Other:\n"
        "    def run(self):\n"
        "        return 2\n"
        "Child().run(), Other()\n")
    hooks = ast.parse("TARGETS = [('toy', 'Other.run', 'toy.run')]\n")
    trees = [(SRC / "toy.py", toy),
             (ROOT / "perfbench" / "spans_toy.py", hooks)]
    assert _unused(trees) == []
    assert _test_only(trees) == {"Other.run"}


def test_a_fixture_gives_its_parameter_a_class():
    """A test's parameter named after a pytest fixture of its file has the
    class the fixture returns; classes of one interface (INTERFACES) share
    the calls on a receiver of unknown class."""
    toy = ast.parse(
        "class PWContext:\n"
        "    def coerce(self, c):\n"
        "        return c\n"
        "    def irrep(self, n):\n"
        "        return n\n"
        "class QAffineContext:\n"
        "    def coerce(self, c):\n"
        "        return c\n"
        "    def irrep(self, n):\n"
        "        return n\n"
        "def contract(ctx):\n"
        "    return ctx.coerce(0)\n"
        "contract(PWContext()), contract(QAffineContext())\n")
    test = ast.parse(
        "import pytest\n"
        "@pytest.fixture(scope='module')\n"
        "def qctx():\n"
        "    return QAffineContext()\n"
        "def test_irrep(qctx):\n"
        "    assert qctx.irrep(1) == 1\n")
    trees = [(SRC / "toy.py", toy), (ROOT / "tests" / "test_toy.py", test)]
    assert _unused(trees) == ["toy.py:4 PWContext.irrep"]
    assert _test_only(trees) == {"QAffineContext.irrep"}


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
