"""Exact scalar arithmetic: rationals and truncated power series in hbar.

Everything downstream computes over Q or over Q[[hbar]]/(hbar^K) for a
fixed truncation order K.  No floating point anywhere.  Rationals are
stdlib ``fractions.Fraction``; this module adds the truncated-series ring
and the powers of q = exp(hbar*d/2).  The q-integers are ``que.q_integer``.

A series is stored as K Python-int numerators over one positive common
denominator in lowest terms, in the manner of FLINT's fmpq_poly, so ring
operations are integer arithmetic plus one gcd; the Fraction coefficients
are made only when read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Tuple, Union

Rat = Union[int, Fraction]


class SeriesOrderError(ValueError):
    """Raised when series of different truncation orders are combined."""


class SeriesDomainError(ValueError):
    """Raised when an operation's precondition on coefficients fails."""


def _fr(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class TruncatedSeries:
    """Element of Q[[hbar]]/(hbar^K): K integer numerators ``num`` over one
    positive common denominator ``den``, in lowest terms (the zero series
    is all zeros over 1), so equal series have equal fields.

    Immutable.  All arithmetic demands equal K on both operands; mixing
    orders raises :class:`SeriesOrderError`.  The rational coefficients
    (``coeffs``, ``s[i]``, ``constant_term``) are computed on read.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs: Iterable[Rat] = ()):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        cs = [_fr(c) for c in coeffs]
        if len(cs) > order:
            raise ValueError("too many coefficients for order %d" % order)
        # lcm of reduced denominators: the numerators share no factor with it
        den = lcm(*[c.denominator for c in cs])
        num = [c.numerator * (den // c.denominator) for c in cs]
        num.extend([0] * (order - len(cs)))
        _set_order(self, order)
        _set_num(self, tuple(num))
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c: Rat, order: int) -> "TruncatedSeries":
        return TruncatedSeries(order, [c])

    @staticmethod
    def zero(order: int) -> "TruncatedSeries":
        return TruncatedSeries(order)

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries(order, [1])

    @staticmethod
    def hbar(order: int, power: int = 1) -> "TruncatedSeries":
        if power >= order:
            return TruncatedSeries(order)
        return TruncatedSeries(order, [0] * power + [1])

    # -- queries ------------------------------------------------------

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.num[i], self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        """True iff nonzero, so `not s` is the zero test shared with
        Fraction coefficients."""
        return any(self.num)

    def constant_term(self) -> Fraction:
        return Fraction(self.num[0], self.den)

    def valuation(self) -> int:
        """Index of the first nonzero coefficient, or ``order`` if zero."""
        for i, n in enumerate(self.num):
            if n:
                return i
        return self.order

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            # both sides in lowest terms with a positive denominator
            num = self.num
            return (num[0] == other.numerator and self.den == other.denominator
                    and not any(num[1:]))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.order == other.order and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        num = self.num
        if not any(num[1:]):  # a constant hashes as the rational it equals
            return hash(num[0]) if self.den == 1 else hash(self.constant_term())
        return hash((self.order, num, self.den))

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
    # + and * test for a series first: isinstance against Fraction goes
    # through the numbers ABCs and costs about as much as the operation.

    def _check(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise SeriesOrderError(
                "mixed truncation orders %d and %d" % (self.order, other.order)
            )

    def __add__(self, other):
        if type(other) is not TruncatedSeries and isinstance(other, (int, Fraction)):
            other = TruncatedSeries.const(other, self.order)
        self._check(other)
        a, da, b, db = self.num, self.den, other.num, other.den
        if da == db:
            return _reduced(self.order, [x + y for x, y in zip(a, b)], da)
        g = gcd(da, db)
        sa, sb = db // g, da // g
        return _reduced(self.order, [x * sa + y * sb for x, y in zip(a, b)],
                        da * sa)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.order, tuple([-a for a in self.num]), self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.const(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not TruncatedSeries and isinstance(other, (int, Fraction)):
            return _reduced(self.order, [a * other.numerator for a in self.num],
                            self.den * other.denominator)
        K = self.order
        if other.order != K:
            self._check(other)
        b = other.num
        out = [0] * K
        for i, a in enumerate(self.num):
            if a:
                for j, y in enumerate(b[: K - i], i):
                    out[j] += a * y
        return _reduced(K, out, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        n = self.num
        n0 = n[0]
        if n0 == 0:
            raise SeriesDomainError("cannot invert a series with zero constant term")
        K = self.order
        # (n/den)^-1 = den * sum_k m_k hbar^k / n0^(k+1), where m_0 = 1 and
        # m_k = -sum_{i=1..k} n_i m_{k-i} n0^(i-1)
        pw = [1] * K
        for i in range(1, K):
            pw[i] = pw[i - 1] * n0
        m = [1] * K
        for k in range(1, K):
            m[k] = -sum(n[i] * m[k - i] * pw[i - 1] for i in range(1, k + 1))
        den = pw[K - 1] * n0
        num = [self.den * m[k] * pw[K - 1 - k] for k in range(K)]
        if den < 0:
            num, den = [-x for x in num], -den
        return _reduced(K, num, den)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _fr(other))
        return self * other.inv()

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by hbar^k (k >= 0), discarding overflow."""
        if k < 0:
            raise ValueError("shift power must be nonnegative")
        K = self.order
        if k >= K:
            return TruncatedSeries(K)
        return _reduced(K, [0] * k + list(self.num[: K - k]), self.den)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term."""
        if self.num[0]:
            raise SeriesDomainError("exp requires zero constant term")
        K = self.order
        result = TruncatedSeries.one(K)
        power = TruncatedSeries.one(K)
        fact = 1
        for n in range(1, K):
            power = power * self
            fact *= n
            result = result + power * Fraction(1, fact)
        return result


# Trusted construction: ring operations already hold integer numerators and
# a positive denominator, so they set the slots directly and skip __init__.
_set_order = TruncatedSeries.order.__set__
_set_num = TruncatedSeries.num.__set__
_set_den = TruncatedSeries.den.__set__


def _new(order: int, num: Tuple[int, ...], den: int) -> TruncatedSeries:
    """A series from numerators already in lowest terms over den > 0."""
    s = object.__new__(TruncatedSeries)
    _set_order(s, order)
    _set_num(s, num)
    _set_den(s, den)
    return s


def _reduced(order: int, num: List[int], den: int) -> TruncatedSeries:
    """A series from integer numerators over den > 0, put in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    return _new(order, tuple(num), den)


def q_exponent(d: Rat, order: int) -> TruncatedSeries:
    """q = exp(hbar*d/2) as a truncated series."""
    return (TruncatedSeries.hbar(order) * (_fr(d) / 2)).exp()


def q_power(i: int, d: Rat, order: int) -> TruncatedSeries:
    """q^i = exp(hbar*d*i/2), valid for any integer i."""
    return (TruncatedSeries.hbar(order) * (_fr(d) * i / 2)).exp()
