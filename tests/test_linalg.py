"""Exact echelon spans, sparse kernels and small dense matrix helpers."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qaffine.linalg
from qaffine.kernel import TruncatedSeries
from qaffine.linalg import (
    EchelonSpan, mat_inv, nullspace, rref, solve, sparse_nullspace, vec_add,
    vec_scale, vec_sum,
)

F = Fraction


# -- references: the full-scan insert and the dense-rref kernel ---------------


class FullScanSpan(EchelonSpan):
    """EchelonSpan whose add back-substitutes by scanning every row, the
    insert the column index replaces; kept as its reference."""

    def add(self, v):
        gen_idx = self._ngens
        self._ngens += 1
        res, combo = self._reduce_tracked(v, self.track)
        if not res:
            return False
        p = self.pivot(res)
        c = res[p]
        row = vec_scale(res, F(1) / c)
        if self.track:
            hist = vec_add(vec_scale(combo, F(-1)), {gen_idx: F(1)})
            hist = vec_scale(hist, F(1) / c)
        for piv, r in list(self.rows.items()):
            if p in r:
                coef = r[p]
                self.rows[piv] = vec_add(r, row, -coef)
                if self.track:
                    self.history[piv] = vec_add(self.history[piv], hist, -coef)
        self.rows[p] = row
        if self.track:
            self.history[p] = hist
        self._dim += 1
        return True


def rref_nullspace(a):
    """Free-variable kernel basis read off the dense rref of a."""
    if not a:
        return []
    red, pivots = rref(a)
    cols = len(a[0])
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [F(0)] * cols
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


_KEYS = [(a, b) for a in range(3) for b in range(3)]
_coef = st.integers(min_value=-2, max_value=2).map(F)
_vec = st.dictionaries(st.sampled_from(_KEYS), _coef, max_size=5).map(
    lambda v: {k: c for k, c in v.items() if c})
# each generator is a fresh vector plus a combination of earlier ones, so
# dependent inserts and cancellations during back-substitution both occur
_gens = st.lists(st.tuples(_vec, st.lists(_coef, max_size=8)), max_size=10)


def _with_combos(raw):
    gens = []
    for v, cs in raw:
        for c, g in zip(cs, gens):
            v = vec_add(v, g, c)
        gens.append(v)
    return gens


@settings(max_examples=300, deadline=None)
@given(_gens, st.lists(_vec, max_size=3), st.sampled_from([min, max]),
       st.booleans())
def test_indexed_add_matches_full_scan(raw, queries, pivot, track):
    gens = _with_combos(raw)
    got, ref = EchelonSpan(track, pivot), FullScanSpan(track, pivot)
    for v in gens:
        assert got.add(v) == ref.add(v)
        assert got.rows == ref.rows and list(got.rows) == list(ref.rows)
        assert got.history == ref.history
        # the column index names exactly the rows that hold each key
        held = {}
        for piv, row in got.rows.items():
            for k in row:
                if k != piv:
                    held.setdefault(k, set()).add(piv)
        assert {k: s for k, s in got._holders.items() if s} == held
    assert got.basis() == ref.basis()
    for q in queries + gens:
        assert got.reduce(q) == ref.reduce(q)
        if track:
            assert got.coefficients(q) == ref.coefficients(q)


# -- series entries: the hbar-shift expansion over Q is the reference -------


def _flat(v):
    """A series vector's coordinates over Q, keyed by (key, hbar power)."""
    return {(k, i): c for k, s in v.items() for i, c in enumerate(s.coeffs)
            if c}


def _hbar_shifts(v, K):
    """The Q-coordinates of hbar^j v for j < K: together they span over Q
    the module that v spans."""
    return [_flat({k: s * TruncatedSeries.hbar(K, j) for k, s in v.items()})
            for j in range(K)]


def _series(K):
    """A series of order K with a random valuation, the zero one included,
    so leading entries are often non-units."""
    return st.integers(min_value=0, max_value=K).flatmap(
        lambda v: st.lists(st.integers(min_value=-2, max_value=2),
                           min_size=K - v, max_size=K - v).map(
            lambda cs: TruncatedSeries(K, [0] * v + cs)))


@st.composite
def _series_case(draw):
    K = draw(st.integers(min_value=1, max_value=4))
    keys = st.integers(min_value=0, max_value=4)

    def vec():
        v = draw(st.dictionaries(keys, _series(K), max_size=4))
        return {k: s for k, s in v.items() if s}

    # fresh vectors plus series combinations of earlier ones, so dependent
    # inserts, torsion and pivot takeovers all occur
    gens = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        v = vec()
        for g in gens:
            if draw(st.booleans()):
                v = vec_add(v, g, draw(_series(K)))
        gens.append(v)
    queries = [vec() for _ in range(2)]
    for g in gens:
        queries.append(vec_add(queries[-1], g, draw(_series(K))))
    return K, gens, queries


def _rebuild(combo, gens):
    out = {}
    for i, c in combo.items():
        out = vec_add(out, gens[i], c)
    return out


@settings(max_examples=300, deadline=None)
@given(_series_case(), st.sampled_from([min, max]), st.booleans())
# the unit 1 + hbar that normalizes the second row lifts its entry 1 at the
# pivot of entry hbar to 1 - hbar, which must be reduced again
@example((2, [{2: TruncatedSeries(2, [0, 1])},
              {0: TruncatedSeries(2, [1, 1]), 2: TruncatedSeries(2, [1])}],
          []), min, True)
def test_series_span_matches_hbar_shift_expansion(case, pivot, track):
    """A span of series vectors is the Q-span of their hbar-shifted
    copies: the same Q-rank after every insert and the same membership;
    with min pivots the same residuals over Q; coefficients rebuild the
    vector.  Its rows are a reduced Howell form."""
    K, gens, queries = case
    got, ref = EchelonSpan(track, pivot), FullScanSpan(pivot=pivot)
    for v in gens:
        grew = [ref.add(x) for x in _hbar_shifts(v, K)]
        assert got.add(v) == grew[0]
        assert len(got) == len(ref.rows)
    vals = {p: row[p].valuation() for p, row in got.rows.items()}
    held = {}
    for p, row in got.rows.items():
        assert row[p] == TruncatedSeries.hbar(K, vals[p])
        assert pivot(row) == p
        for k, e in row.items():
            if k != p:
                held.setdefault(k, set()).add(p)
                if k in vals:  # only the part below the pivot entry is left
                    assert not any(e.coeffs[vals[k]:])
    assert {k: s for k, s in got._holders.items() if s} == held
    for q in queries + gens:
        res = got.reduce(q)
        assert (not res) == ref.contains(_flat(q))
        if pivot is min:
            assert _flat(res) == ref.reduce(_flat(q))
        if track:
            combo = got.coefficients(q)
            assert (combo is None) == bool(res)
            if combo is not None:
                assert _rebuild(combo, gens) == q


def test_unit_pivot_rows_are_placed_unscaled(monkeypatch):
    """A residual whose pivot entry is already 1 over Q, or exactly hbar^w
    over the series ring, becomes a row without a scaling by 1; its rows
    and coefficients are those of the full-scan and hbar-shift
    references."""
    scales = []
    vec_scale_ = qaffine.linalg.vec_scale

    def recorded(a, c):
        scales.append(c)
        return vec_scale_(a, c)

    monkeypatch.setattr(qaffine.linalg, "vec_scale", recorded)
    gens = [{0: F(1), 2: F(3)}, {1: F(1), 2: F(-1)},
            {0: F(1), 1: F(1), 2: F(5)}, {0: F(2), 2: F(6)}]
    got, ref = EchelonSpan(track=True), FullScanSpan(track=True)
    for v in gens:
        assert got.add(v) == ref.add(v)
        assert got.rows == ref.rows and got.history == ref.history
    for q in gens + [{2: F(1)}, {0: F(2), 1: F(1)}, {3: F(1)}]:
        assert got.coefficients(q) == ref.coefficients(q)

    K = 3
    T = TruncatedSeries
    gens = [{0: T.hbar(K), 1: T(K, [2, 1])},    # pivot entry hbar
            {1: T.hbar(K), 2: T.one(K)},        # takes pivot 1 from hbar^2
            {0: T(K, [0, 1, 5]), 2: T(K, [1, 1])},
            {2: T.hbar(K, 2), 3: T(K, [0, 3])}]
    got, ref = EchelonSpan(track=True), FullScanSpan()
    for v in gens:
        grew = [ref.add(x) for x in _hbar_shifts(v, K)]
        assert got.add(v) == grew[0]
        assert len(got) == len(ref.rows)
    expanded = FullScanSpan()
    for row in got.rows.values():
        for x in _hbar_shifts(row, K):
            expanded.add(x)
    assert expanded.rows == ref.rows
    assert any(row[p] == T.hbar(K, 1) for p, row in got.rows.items())
    for q in gens + [{1: T.hbar(K, 2)}, {3: T.one(K)}]:
        combo = got.coefficients(q)
        assert (combo is None) == (not ref.contains(_flat(q)))
        if combo is not None:
            assert _rebuild(combo, gens) == q
    assert scales and not any(c == 1 for c in scales)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.tuples(_gens, st.lists(_vec, max_size=3)).map(
        lambda t: (_with_combos(t[0]), t[1])),
    _series_case().map(lambda case: case[1:])),
    st.sampled_from([min, max]))
def test_span_methods_leave_their_input_unchanged(case, pivot):
    """add, reduce, contains and coefficients work on a copy, over Q and
    over the series ring, so a caller hands them a tensor's own data."""
    gens, queries = case
    span = EchelonSpan(track=True, pivot=pivot)
    given_items = []
    for v in gens + queries:
        given_items.append((v, list(v.items())))
        span.reduce(v)
        span.contains(v)
        span.coefficients(v)
        span.add(v)
    for v, items in given_items:
        assert list(v.items()) == items


_dense = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(st.integers(min_value=-2, max_value=2).map(F),
                                min_size=n, max_size=n),
                       min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(_dense)
def test_sparse_nullspace_is_the_rref_basis(a):
    cols = len(a[0])
    sparse = [{r: row[j] for r, row in enumerate(a) if row[j]}
              for j in range(cols)]
    ref = rref_nullspace(a)
    assert [[kv.get(j, F(0)) for j in range(cols)]
            for kv in sparse_nullspace(sparse)] == ref
    assert nullspace(a) == ref


@st.composite
def _series_columns(draw):
    K = draw(st.integers(min_value=1, max_value=4))
    nrows = draw(st.integers(min_value=1, max_value=3))

    def col():
        v = {r: draw(_series(K)) for r in range(nrows)}
        return {r: s for r, s in v.items() if s}

    # fresh columns plus series combinations of earlier ones, so kernels
    # with unit entries occur beside torsion ones
    cols = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        v = col() if draw(st.booleans()) or not cols else {}
        for c in cols:
            if draw(st.booleans()):
                v = vec_add(v, c, draw(_series(K)))
        cols.append(v)
    return K, nrows, cols


@settings(max_examples=300, deadline=None)
@given(_series_columns())
# the kernel of the column hbar is hbar^(K-1) times a unit vector
@example((2, 1, [{0: TruncatedSeries(2, [0, 1])}]))
def test_series_nullspace_matches_hbar_shift_expansion(case):
    """Over Q[[hbar]]/(hbar^K) every kernel generator maps to zero, and
    the Q-dimension of the module they span is the kernel dimension of
    the hbar-shift-expanded rational matrix."""
    K, nrows, cols = case
    gens = sparse_nullspace(cols, TruncatedSeries.one(K))
    span = EchelonSpan()
    for kv in gens:
        image = {}
        for f, c in kv.items():
            image = vec_add(image, cols[f], c)
        assert not image
        span.add(kv)
    # row (r, i): the hbar^i coefficient of entry r; column (f, j): hbar^j
    # times column f
    dense = [[cols[f][r].coeffs[i - j] if r in cols[f] and i >= j else F(0)
              for f in range(len(cols)) for j in range(K)]
             for r in range(nrows) for i in range(K)]
    assert len(span) == len(rref_nullspace(dense))


def test_semi_invariants_never_use_dense_rref(monkeypatch):
    from qaffine.cgx import hw_coefficient, pw_tensor
    from qaffine.coiso import (_fn_span, borel_subalgebra, semi_invariants,
                               weight_character)
    from qaffine.que import QAffineContext, UqContext

    def no_rref(*args):
        raise AssertionError("dense rref on the coiso path")

    monkeypatch.setattr(qaffine.linalg, "rref", no_rref)
    with pytest.raises(AssertionError):  # the patch reaches solve
        solve([[F(1)]], [F(1)])
    ctx = UqContext(3)
    qctx = QAffineContext(ctx)
    U = borel_subalgebra(ctx, 1)
    z1 = weight_character(U, 1)
    got = semi_invariants(qctx, U, (z1, z1), 1)
    expect = [pw_tensor([hw_coefficient(qctx, (1,), {a: 1}),
                         hw_coefficient(qctx, (1,), {b: 1})])
              for a in range(2) for b in range(2)]
    assert _fn_span(got).equals(_fn_span(expect))


def test_quantum_tables_never_use_dense_solve(monkeypatch):
    """The quantum Clebsch-Gordan tables read their highest weight vectors
    off the series kernel of Delta(E): no dense rref or solve and no
    classical irrep on the side.  The quantum irreps keep the context's
    dimension bound."""
    from qaffine.cgx import DimensionBoundError
    from qaffine.que import QAffineContext, UqContext

    def no_dense(*args):
        raise AssertionError("dense rref or solve on the quantum CG path")

    monkeypatch.setattr(qaffine.linalg, "rref", no_dense)
    monkeypatch.setattr(qaffine.linalg, "solve", no_dense)
    for K in range(2, 5):
        uq = UqContext(K)
        qctx = QAffineContext(uq)
        for n in range(5):
            for m in range(5):
                qctx.cg((n,), (m,))
        assert not qctx.pw._irreps
        with pytest.raises(DimensionBoundError, match=r"\(4,\)"):
            QAffineContext(uq, dim_bound=4).cg((4,), (1,))


def test_span_membership_and_rank():
    s = EchelonSpan()
    assert s.add({0: F(1), 1: F(2)})
    assert s.add({1: F(1)})
    assert not s.add({0: F(3), 1: F(1)})  # dependent
    assert len(s) == 2
    assert s.contains({0: F(5), 1: F(-7)})
    assert not s.contains({2: F(1)})


def test_span_reduce_is_idempotent():
    s = EchelonSpan()
    s.add({0: F(1), 2: F(1)})
    r = s.reduce({0: F(2), 1: F(1), 2: F(2)})
    assert r == {1: F(1)}
    assert s.reduce(r) == r


def test_span_coefficients_track_all_adds():
    s = EchelonSpan(track=True)
    s.add({0: F(1)})
    s.add({0: F(1)})          # dependent, still counted as generator 1
    s.add({1: F(1)})
    coeffs = s.coefficients({0: F(2), 1: F(3)})
    total = {}
    gens = [{0: F(1)}, {0: F(1)}, {1: F(1)}]
    for i, c in coeffs.items():
        for k, v in gens[i].items():
            total[k] = total.get(k, F(0)) + c * v
    assert total == {0: F(2), 1: F(3)}
    assert s.coefficients({2: F(1)}) is None


def test_span_equals_is_basis_independent():
    a = EchelonSpan()
    a.add({0: F(1), 1: F(1)})
    a.add({1: F(1)})
    b = EchelonSpan()
    b.add({0: F(1)})
    b.add({0: F(2), 1: F(7)})
    assert a.equals(b)


class _RevKey:
    """Wrapper reversing the total order of a key; used to recompute
    echelon complements with a permuted pivot order."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __lt__(self, other):
        return other.k < self.k

    def __eq__(self, other):
        return isinstance(other, _RevKey) and other.k == self.k

    def __hash__(self):
        return hash(("rev", self.k))


def test_max_pivot_matches_reversed_keys():
    """pivot=max is the min-pivot span over keys in reversed order: the
    same rows, basis, residuals and generator coefficients."""
    rng = random.Random(7)
    keys = [(a, b) for a in range(3) for b in range(3)]

    def vec():
        v = {k: F(rng.randint(-3, 3), rng.randint(1, 3))
             for k in rng.sample(keys, rng.randint(1, 4))}
        return {k: c for k, c in v.items() if c}

    def wrap(v):
        return {_RevKey(k): c for k, c in v.items()}

    def unwrap(v):
        return {k.k: c for k, c in v.items()}

    for _ in range(40):
        got, ref = EchelonSpan(track=True, pivot=max), EchelonSpan(track=True)
        gens = [vec() for _ in range(rng.randint(1, 7))]
        for v in gens:
            assert got.add(v) == ref.add(wrap(v))
        assert list(got.rows) == [p.k for p in ref.rows]
        assert got.rows == {p.k: unwrap(r) for p, r in ref.rows.items()}
        assert got.basis() == [unwrap(r) for r in ref.basis()]
        combo = {}
        for v in gens:
            c = F(rng.randint(-2, 2))
            for k, x in v.items():
                combo[k] = combo.get(k, F(0)) + c * x
        combo = {k: c for k, c in combo.items() if c}
        for q in (vec(), combo):
            assert got.reduce(q) == unwrap(ref.reduce(wrap(q)))
            assert got.coefficients(q) == ref.coefficients(wrap(q))


# -- vec_sum: the add-or-pop loop of every former accumulator is the reference


def add_or_pop(terms):
    """The per-term loop that BlockFunction._bump and LieTensor.add_term
    ran: add each term into its key, drop a key whose sum is zero."""
    out = {}
    for k, v in terms:
        nv = out[k] + v if k in out else v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


@st.composite
def _terms(draw):
    """Terms over a few keys, rational or series of one order; each drawn
    term may be followed by its negative, so keys cancel and come back."""
    K = draw(st.integers(min_value=0, max_value=3))
    entry = (st.integers(-3, 3).map(F) if not K else
             st.lists(st.integers(-3, 3), min_size=K, max_size=K).map(
                 lambda cs: TruncatedSeries(K, cs)))
    out = []
    for k, v, cancel in draw(st.lists(st.tuples(
            st.integers(0, 4), entry, st.booleans()), max_size=12)):
        out.append((k, v))
        if cancel:
            out.append((k, -v))
    return out


@settings(max_examples=300, deadline=None)
@given(_terms())
@example([(0, F(1)), (1, F(2)), (0, F(-1)), (2, F(3)), (0, F(4))])
@example([(0, TruncatedSeries(2, [1, 1])), (1, TruncatedSeries(2, [0, 1])),
          (0, TruncatedSeries(2, [-1, -1])), (0, TruncatedSeries(2, [0, 2]))])
def test_vec_sum_matches_add_or_pop(terms):
    """Same sums and the same key order: a key whose sum cancels leaves,
    and a later term brings it back at the end."""
    got, want = vec_sum(iter(terms)), add_or_pop(terms)
    assert list(got.items()) == list(want.items())
    assert all(got.values())


def test_vec_sum_revives_a_cancelled_key_at_the_end():
    terms = [(0, F(1)), (1, F(2)), (0, F(-1)), (2, F(3)), (0, F(4))]
    assert list(vec_sum(terms)) == [1, 2, 0]


# -- mat_inv: Gauss-Jordan with a unit-pivot search is the reference ---------


def gauss_jordan_inv(a, one=F(1), is_unit=bool):
    """Inverse by Gauss-Jordan, pivoting on the first unit at or below the
    diagonal (is_unit: a nonzero constant term over the series ring);
    raises ValueError if singular."""
    n = len(a)
    zero = one - one
    aug = [list(row) + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if is_unit(aug[r][col])), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = one / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _mat_mul(a, b, zero):
    out = []
    for row in a:
        out.append([sum((x * b[t][j] for t, x in enumerate(row)), zero)
                    for j in range(len(b[0]))])
    return out


@st.composite
def _invertible(draw):
    """(one, a, is_unit): a = P L U over Q (K = 0) or Q[[hbar]]/(hbar^K),
    with L unit lower triangular, U upper triangular on a diagonal of
    units (over the series ring units of random higher terms, so pivots
    are units that are not constant) and P a permutation."""
    K = draw(st.integers(min_value=0, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    if K:
        one, entry, is_unit = (TruncatedSeries.one(K), _series(K),
                               lambda s: s.constant_term() != 0)
        unit = st.tuples(st.sampled_from([-2, -1, 1, 2]), st.lists(
            st.integers(min_value=-2, max_value=2), min_size=K - 1,
            max_size=K - 1)).map(lambda t: TruncatedSeries(K, [t[0]] + t[1]))
    else:
        one, entry, is_unit = F(1), _coef, bool
        unit = st.sampled_from([F(-2), F(-1), F(1), F(2)])
    zero = one - one
    low = [[draw(entry) if j < i else one if i == j else zero
            for j in range(n)] for i in range(n)]
    up = [[draw(entry) if j > i else draw(unit) if i == j else zero
           for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    a = _mat_mul(low, up, zero)
    return one, [a[p] for p in perm], is_unit


@settings(max_examples=300, deadline=None)
@given(_invertible())
def test_mat_inv_matches_gauss_jordan(case):
    one, a, is_unit = case
    zero = one - one
    inv = mat_inv(a, one)
    assert inv == gauss_jordan_inv(a, one, is_unit)
    ident = [[one if i == j else zero for j in range(len(a))]
             for i in range(len(a))]
    assert _mat_mul(a, inv, zero) == ident == _mat_mul(inv, a, zero)


@settings(max_examples=200, deadline=None)
@given(_invertible(), st.data())
def test_matrix_singular_mod_hbar_raises(case, data):
    """Row i replaced by hbar times itself plus a multiple of another row
    j (over Q: by that multiple alone) is singular mod hbar, so not
    invertible; over the series ring it may still be of full rank."""
    one, a, is_unit = case
    n = len(a)
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    c = data.draw(_coef) if j != i else F(0)
    h = TruncatedSeries.hbar(one.order) if type(one) is TruncatedSeries else F(0)
    a[i] = [h * x + c * y for x, y in zip(a[i], a[j])]
    for inverse in (lambda: mat_inv(a, one),
                    lambda: gauss_jordan_inv(a, one, is_unit)):
        with pytest.raises(ValueError):
            inverse()


def test_matrix_inverse_and_solve():
    m = [[F(2), F(1)], [F(1), F(1)]]
    assert mat_inv(m) == [[F(1), F(-1)], [F(-1), F(2)]]
    x = solve(m, [F(3), F(2)])
    assert x == [F(1), F(1)]
    assert solve([[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)]) is None


def test_rref_and_nullspace():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    red, pivots = rref(m)
    assert pivots == [0]
    ns = nullspace(m)
    assert len(ns) == 2
    for v in ns:
        assert sum(m[0][j] * v[j] for j in range(3)) == 0
