"""Truncated power series over Q and the q-combinatorics built on them."""

from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaffine.kernel import (
    SeriesDomainError, SeriesOrderError, TruncatedSeries, q_exponent, q_power,
)
from qaffine.que import UqContext, q_integer

K = 3

Rat = Union[int, Fraction]


# -- the Fraction-tuple kernel, kept as the reference for TruncatedSeries ----


def _fr(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class NaiveSeries:
    """Element of Q[[hbar]]/(hbar^K), stored as K exact coefficients.

    Immutable.  All arithmetic demands equal K on both operands; mixing
    orders raises :class:`SeriesOrderError`.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Rat] = ()):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        cs = [_fr(c) for c in coeffs]
        if len(cs) > order:
            raise ValueError("too many coefficients for order %d" % order)
        cs.extend([Fraction(0)] * (order - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("NaiveSeries is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c: Rat, order: int) -> "NaiveSeries":
        return NaiveSeries(order, [c])

    @staticmethod
    def zero(order: int) -> "NaiveSeries":
        return NaiveSeries(order)

    @staticmethod
    def one(order: int) -> "NaiveSeries":
        return NaiveSeries(order, [1])

    @staticmethod
    def hbar(order: int, power: int = 1) -> "NaiveSeries":
        if power >= order:
            return NaiveSeries(order)
        cs = [Fraction(0)] * power + [Fraction(1)]
        return NaiveSeries(order, cs)

    # -- queries ------------------------------------------------------

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        """True iff nonzero, so `not s` is the zero test shared with
        Fraction coefficients."""
        return any(self.coeffs)

    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def valuation(self) -> int:
        """Index of the first nonzero coefficient, or ``order`` if zero."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return self.order

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = NaiveSeries.const(other, self.order)
        if not isinstance(other, NaiveSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("%s*h" % c)
            else:
                terms.append("%s*h^%d" % (c, i))
        return " + ".join(terms) if terms else "0"

    # -- ring operations ----------------------------------------------

    def _check(self, other: "NaiveSeries"):
        if self.order != other.order:
            raise SeriesOrderError(
                "mixed truncation orders %d and %d" % (self.order, other.order)
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NaiveSeries.const(other, self.order)
        self._check(other)
        return NaiveSeries(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return NaiveSeries(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NaiveSeries.const(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _fr(other)
            return NaiveSeries(self.order, [a * c for a in self.coeffs])
        self._check(other)
        K = self.order
        out = [Fraction(0)] * K
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(K - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return NaiveSeries(K, out)

    __rmul__ = __mul__

    def inv(self) -> "NaiveSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise SeriesDomainError("cannot invert a series with zero constant term")
        K = self.order
        out = [Fraction(0)] * K
        out[0] = Fraction(1) / c0
        for n in range(1, K):
            s = Fraction(0)
            for i in range(1, n + 1):
                s += self.coeffs[i] * out[n - i]
            out[n] = -s / c0
        return NaiveSeries(K, out)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _fr(other))
        return self * other.inv()

    def shift(self, k: int) -> "NaiveSeries":
        """Multiply by hbar^k (k >= 0), discarding overflow."""
        if k < 0:
            raise ValueError("shift power must be nonnegative")
        K = self.order
        return NaiveSeries(K, [Fraction(0)] * min(k, K) + list(self.coeffs[: K - k]))

    def exp(self) -> "NaiveSeries":
        """exp of a series with zero constant term."""
        if self.coeffs[0] != 0:
            raise SeriesDomainError("exp requires zero constant term")
        K = self.order
        result = NaiveSeries.one(K)
        power = NaiveSeries.one(K)
        fact = 1
        for n in range(1, K):
            power = power * self
            fact *= n
            result = result + power * Fraction(1, fact)
        return result


def hb(order=K, power=1):
    return TruncatedSeries.hbar(order, power)


def test_product_truncates():
    a = TruncatedSeries.one(K) + hb()
    b = TruncatedSeries.one(K) - hb()
    assert a * b == TruncatedSeries(K, [1, 0, -1])


def test_inverse_of_one_plus_hbar():
    a = TruncatedSeries.one(K) + hb()
    assert a.inv() == TruncatedSeries(K, [1, -1, 1])
    assert a * a.inv() == TruncatedSeries.one(K)


def test_exp_taylor_coefficients():
    assert hb().exp() == TruncatedSeries(K, [1, 1, Fraction(1, 2)])


def test_exp_group_law():
    assert hb().exp() * (-hb()).exp() == TruncatedSeries.one(K)


def test_exp_additivity_on_samples():
    for ca in (Fraction(1, 2), Fraction(-2), Fraction(3, 5)):
        for cb in (Fraction(1, 3), Fraction(2)):
            a, b = hb() * ca, hb(K, 2) * cb
            assert (a + b).exp() == a.exp() * b.exp()


def test_exp_rejects_constant_term():
    with pytest.raises(SeriesDomainError):
        TruncatedSeries.one(K).exp()


def test_inv_rejects_zero_constant_term():
    with pytest.raises(SeriesDomainError):
        hb().inv()


def test_mixed_orders_rejected():
    with pytest.raises(SeriesOrderError):
        TruncatedSeries.one(3) + TruncatedSeries.one(4)


def test_shift_and_valuation():
    a = TruncatedSeries(K, [1, 2, 3])
    assert a.shift(1) == TruncatedSeries(K, [0, 1, 2])
    assert a.shift(1).valuation() == 1
    assert TruncatedSeries.zero(K).valuation() == K
    assert a.constant_term() == 1
    assert a[2] == 3


def _q_factorial(ctx, n):
    out = ctx.one_series()
    for i in range(1, n + 1):
        out = out * q_integer(ctx, i)
    return out


def _q_binom(ctx, n, i):
    return _q_factorial(ctx, n) * (
        _q_factorial(ctx, n - i) * _q_factorial(ctx, i)).inv()


def test_q_int_small_values():
    ctx = UqContext(K)
    assert q_integer(ctx, 0).is_zero()
    assert q_integer(ctx, 1) == TruncatedSeries.one(K)
    # [2]_q = q + 1/q = 2 + hbar^2/4 + ... with q = exp(hbar/2)
    assert q_integer(ctx, 2) == TruncatedSeries(K, [2, 0, Fraction(1, 4)])


def test_q_power_consistency():
    q = q_exponent(2, 4)
    assert q_power(3, 2, 4) == q * q * q
    assert q_power(-1, 2, 4) == q.inv()


def test_q_factorial_recursion():
    ctx = UqContext(4)
    qi = ctx.q_inv
    for n in range(1, 6):
        # [n+1] = q^n + q^-1 [n] and [2][n] = [n+1] + [n-1]
        assert q_integer(ctx, n + 1) == q_power(n, 1, 4) + qi * q_integer(ctx, n)
        assert q_integer(ctx, 2) * q_integer(ctx, n) == \
            q_integer(ctx, n + 1) + q_integer(ctx, n - 1)
        assert _q_factorial(ctx, n).constant_term() == factorial(n)


def test_q_binom_edges_and_example():
    ctx = UqContext(K)
    for n in range(5):
        assert _q_binom(ctx, n, 0) == TruncatedSeries.one(K)
        assert _q_binom(ctx, n, n) == TruncatedSeries.one(K)
    assert _q_binom(ctx, 2, 1) == q_integer(ctx, 2)


def test_q_binom_symmetry():
    ctx = UqContext(4)
    for n in range(7):
        for i in range(n + 1):
            assert _q_binom(ctx, n, i) == _q_binom(ctx, n, n - i)
            if 0 < i < n:
                # q-Pascal: [n, i] = q^-i [n-1, i] + q^(n-i) [n-1, i-1]
                assert _q_binom(ctx, n, i) == \
                    q_power(-i, 1, 4) * _q_binom(ctx, n - 1, i) + \
                    q_power(n - i, 1, 4) * _q_binom(ctx, n - 1, i - 1)


def test_q_binom_is_polynomial_count_at_order_zero():
    # constant term must be the ordinary binomial coefficient
    ctx = UqContext(4)
    for n in range(7):
        for i in range(n + 1):
            assert _q_binom(ctx, n, i).constant_term() == comb(n, i)


rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=10),
)
series3 = st.lists(rationals, max_size=3).map(
    lambda cs: TruncatedSeries(3, cs[:3]))


@settings(max_examples=60, deadline=None)
@given(series3, series3, series3)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == TruncatedSeries.zero(3)


@settings(max_examples=60, deadline=None)
@given(series3)
def test_inverse_roundtrip(a):
    if a.constant_term() == 0:
        with pytest.raises(SeriesDomainError):
            a.inv()
    else:
        assert a * a.inv() == TruncatedSeries.one(3)


@settings(max_examples=40, deadline=None)
@given(series3, series3)
def test_exp_homomorphism(a, b):
    a, b = a.shift(1), b.shift(1)
    assert (a + b).exp() == a.exp() * b.exp()


def test_shift_past_the_order_is_zero():
    a = TruncatedSeries(K, [1, 2, 3])
    for k in range(K, K + 3):
        assert a.shift(k) == TruncatedSeries.zero(K)


def test_representation_is_lowest_terms():
    a = TruncatedSeries(4, [Fraction(1, 2), Fraction(1, 3), 0, Fraction(5, 6)])
    assert (a.num, a.den) == ((3, 2, 0, 5), 6)
    assert (a * 6).den == 1 and (a * 6).num == (3, 2, 0, 5)
    z = a - a
    assert (z.num, z.den) == ((0, 0, 0, 0), 1)
    assert TruncatedSeries(2, [Fraction(-3, 4)]).coeffs == (Fraction(-3, 4), 0)


def _outcome(fn):
    """A result as (order, coeffs, repr), an error as its class."""
    try:
        r = fn()
    except (SeriesOrderError, SeriesDomainError) as e:
        return type(e)
    if isinstance(r, (TruncatedSeries, NaiveSeries)):
        return r.order, r.coeffs, repr(r)
    return r


small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=6),
)


@st.composite
def series_pairs(draw):
    """Coefficient lists and orders for two series: equal orders mostly, and
    sometimes one more on the right so mixing orders is exercised."""
    k = draw(st.integers(min_value=1, max_value=6))
    kb = k + draw(st.sampled_from([0, 0, 0, 1]))
    ca = draw(st.lists(small_rationals, max_size=k))
    cb = draw(st.lists(small_rationals, max_size=kb))
    return k, ca, kb, cb


@settings(max_examples=300, deadline=None)
@given(series_pairs(), small_rationals, st.integers(min_value=-5, max_value=5),
       st.integers(min_value=0, max_value=7))
def test_kernel_matches_naive_reference(pair, c, n, k):
    order, ca, kb, cb = pair
    a, b = TruncatedSeries(order, ca), TruncatedSeries(kb, cb)
    ra, rb = NaiveSeries(order, ca), NaiveSeries(kb, cb)
    ops = [
        lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
        lambda x, y: -x, lambda x, y: x.inv(), lambda x, y: x.exp(),
        lambda x, y: x.shift(1).exp(),
        lambda x, y: x * c, lambda x, y: c * x, lambda x, y: x * n,
        lambda x, y: n * x, lambda x, y: x + c, lambda x, y: n + x,
        lambda x, y: x - n, lambda x, y: c - x,
        lambda x, y: x.valuation(), lambda x, y: x == y, lambda x, y: x == c,
        lambda x, y: x == n, lambda x, y: x.is_zero(), lambda x, y: bool(x),
        lambda x, y: x.constant_term(), lambda x, y: [x[i] for i in range(order)],
    ]
    if k <= order:  # the reference rejects shifts past the order
        ops.append(lambda x, y: x.shift(k))
    for op in ops:
        assert _outcome(lambda: op(a, b)) == _outcome(lambda: op(ra, rb))


@settings(max_examples=200, deadline=None)
@given(small_rationals, st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6), st.lists(small_rationals, max_size=6),
       st.integers(min_value=-3, max_value=3))
def test_equal_values_hash_equally(c, k1, k2, cs, n):
    """a == b implies hash(a) == hash(b) across series, ints and Fractions."""
    values = [c, n, Fraction(n), TruncatedSeries.const(c, k1),
              TruncatedSeries.const(c, k2), TruncatedSeries.const(n, k1),
              TruncatedSeries(k1, cs[:k1]), TruncatedSeries(k2, cs[:k2]),
              TruncatedSeries(k1, [c] + cs[1:k1]) - TruncatedSeries(k1, cs[1:k1]).shift(1)]
    if c.denominator == 1:
        values.append(int(c))
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)


def test_constant_series_hash_as_their_constant():
    assert 1 in {TruncatedSeries.one(3)}
    assert TruncatedSeries.const(Fraction(1, 2), 4) in {Fraction(1, 2)}
    assert {TruncatedSeries.zero(2): "z"}[0] == "z"
