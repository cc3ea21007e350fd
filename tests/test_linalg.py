"""Exact echelon spans and small dense matrix helpers."""

import random
from fractions import Fraction

from qaffine.linalg import (
    EchelonSpan, mat_identity, mat_inv, mat_mul, nullspace, rref, solve,
)

F = Fraction


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


def test_matrix_inverse_and_solve():
    m = [[F(2), F(1)], [F(1), F(1)]]
    inv = mat_inv(m)
    assert mat_mul(m, inv) == mat_identity(2)
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
