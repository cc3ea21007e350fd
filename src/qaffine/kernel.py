"""Exact scalar arithmetic: rationals and truncated power series in hbar.

Everything downstream computes over Q or over Q[[hbar]]/(hbar^K) for a
fixed truncation order K.  No floating point anywhere.  Rationals are
stdlib ``fractions.Fraction``; this module adds the truncated-series ring
and the q-combinatorics (q-integers, q-factorials, q-binomials) built on
q = exp(hbar*d/2).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Rat = Union[int, Fraction]


class SeriesOrderError(ValueError):
    """Raised when series of different truncation orders are combined."""


class SeriesDomainError(ValueError):
    """Raised when an operation's precondition on coefficients fails."""


def _fr(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class TruncatedSeries:
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
        cs = [Fraction(0)] * power + [Fraction(1)]
        return TruncatedSeries(order, cs)

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
            other = TruncatedSeries.const(other, self.order)
        if not isinstance(other, TruncatedSeries):
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

    def _check(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise SeriesOrderError(
                "mixed truncation orders %d and %d" % (self.order, other.order)
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.const(other, self.order)
        self._check(other)
        return TruncatedSeries(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.const(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _fr(other)
            return TruncatedSeries(self.order, [a * c for a in self.coeffs])
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
        return TruncatedSeries(K, out)

    __rmul__ = __mul__

    def inv(self) -> "TruncatedSeries":
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
        return TruncatedSeries(K, out)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _fr(other))
        return self * other.inv()

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by hbar^k (k >= 0), discarding overflow."""
        if k < 0:
            raise ValueError("shift power must be nonnegative")
        K = self.order
        return TruncatedSeries(K, [Fraction(0)] * min(k, K) + list(self.coeffs[: K - k]))

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term."""
        if self.coeffs[0] != 0:
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


def q_exponent(d: Rat, order: int) -> TruncatedSeries:
    """q = exp(hbar*d/2) as a truncated series."""
    return (TruncatedSeries.hbar(order) * (_fr(d) / 2)).exp()


def q_power(i: int, d: Rat, order: int) -> TruncatedSeries:
    """q^i = exp(hbar*d*i/2), valid for any integer i."""
    return (TruncatedSeries.hbar(order) * (_fr(d) * i / 2)).exp()


def q_int(n: int, d: Rat, order: int) -> TruncatedSeries:
    """[n]_q = q^{n-1} + q^{n-3} + ... + q^{-(n-1)} with q = exp(hbar*d/2)."""
    if n < 0:
        raise ValueError("q_int requires n >= 0")
    total = TruncatedSeries.zero(order)
    for i in range(-n + 1, n, 2):
        total = total + q_power(i, d, order)
    return total


def q_factorial(n: int, d: Rat, order: int) -> TruncatedSeries:
    """[n]_q! = prod_{i=1}^n [i]_q."""
    result = TruncatedSeries.one(order)
    for i in range(1, n + 1):
        result = result * q_int(i, d, order)
    return result


def q_binom(n: int, i: int, d: Rat, order: int) -> TruncatedSeries:
    """[n choose i]_q = [n]_q! / ([n-i]_q! [i]_q!)."""
    if not 0 <= i <= n:
        raise ValueError("q_binom requires 0 <= i <= n")
    num = q_factorial(n, d, order)
    den = q_factorial(n - i, d, order) * q_factorial(i, d, order)
    return num * den.inv()
