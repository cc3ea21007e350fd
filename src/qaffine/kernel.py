"""Exact scalar arithmetic: rationals and truncated power series in hbar.

Everything downstream computes over Q or over Q[[hbar]]/(hbar^K) for a
fixed truncation order K.  No floating point anywhere.  Rationals are
stdlib ``fractions.Fraction``; this module adds the truncated-series ring
and the powers of q = exp(hbar*d/2).  The q-integers are ``que.q_integer``.

A series is stored as K Python-int numerators over one positive common
denominator in lowest terms, in the manner of FLINT's fmpq_poly, so ring
operations are integer arithmetic plus one gcd; the Fraction coefficients
are made only when read.

Sums of many terms defer even that gcd, and every sum of U_hbar elements
or tensors in que is made this way.  A factor enters as a ``multiplier``
(1, an integer scalar over its denominator, or the numerators of a true
series), ``mul_term`` forms each product over an unreduced denominator,
``sum_terms`` adds the terms per key into running sums over one
denominator, and ``reduce_sums`` puts each key in lowest terms once, when
the sums are read; ``series_sums`` is the two in one call.  A signed
combination of two sums, such as a difference of U_hbar tensors, adds the
second's running sums into the first (``signed_terms``) and reduces only
the keys that survive; a residual A*B - C*D goes further and subtracts
the terms of C*D into the running sums of A*B as they are generated
(``que._product_sums``), so neither side is ever built as series.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple, Union

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
        return _reduced(K, mul_num(self.num, other.num, K), self.den * other.den)

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
        """Multiply by hbar^k, discarding overflow; for k < 0 the quotient
        by hbar^-k, discarding the terms below it."""
        K = self.order
        if k >= 0:
            return _reduced(K, ([0] * k + list(self.num))[:K], self.den)
        return _reduced(K, (list(self.num[-k:]) + [0] * K)[:K], self.den)

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


def mul_num(a: Sequence[int], b: Sequence[int], order: int) -> List[int]:
    """Numerators of the product of two series over the product of their
    denominators: the convolution of a and b, truncated to order terms."""
    out = [0] * order
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: order - i], i):
                out[j] += x * y
    return out


Multiplier = Tuple[Union[None, int, Tuple[int, ...]], int]


def multiplier(s: TruncatedSeries) -> Multiplier:
    """s as a factor (c, d) for mul_term: c is None when s is 1, the
    numerator when s is a constant, and the numerators otherwise; d is the
    denominator."""
    num, den = s.num, s.den
    if any(num[1:]):
        return num, den
    n0 = num[0]
    return (None if n0 == 1 and den == 1 else n0), den


def mul_term(num: Sequence[int], den: int, c: Union[None, int, Tuple[int, ...]],
             d: int, order: int) -> Tuple[Sequence[int], int]:
    """num/den times the multiplier (c, d), over den*d and not reduced:
    num itself when c is None, the scalar multiple c*num when c is an
    integer, and the truncated product mul_num(num, c) otherwise."""
    if c is None:
        return num, den
    if type(c) is int:
        return [x * c for x in num], den * d
    return mul_num(num, c, order), den * d


def sum_terms(acc: Dict, terms: Iterable[Tuple[Hashable, Sequence[int], int]]
              ) -> Dict:
    """Add the terms (key, numerators, den) to the running sums acc, per
    key: integer numerators over a positive denominator, in lowest terms
    or not, and acc maps a key to its running sum (numerators, den).

    A key's running sum keeps integer numerators over one denominator, the
    lcm of its terms' denominators, and is not reduced.  A key whose
    running sum cancels to zero leaves the dict, and a later term enters it
    again at the end, so the keys come out in the order that adding the
    same terms one by one as series would give them.  que._product_sums
    keeps this rule inline, on running sums it owns and updates in place,
    and keeps the keys a residual's first product holds in place through
    a zero sum (see there).  Returns acc."""
    get = acc.get
    for key, num, den in terms:
        cur = get(key)
        if cur is None:
            if any(num):
                acc[key] = (num, den)
            continue
        a, ad = cur
        if ad == den:
            a = [x + y for x, y in zip(a, num)]
        else:
            g = gcd(ad, den)
            sa, sb = den // g, ad // g
            a = [x * sa + y * sb for x, y in zip(a, num)]
            ad *= sa
        if any(a):
            acc[key] = (a, ad)
        else:
            del acc[key]
    return acc


def signed_terms(acc: Dict, sign: int):
    """The running sums of acc as terms (key, numerators, den), times sign
    (1 or -1), in the order of acc's keys."""
    if sign == 1:
        return ((k, n, d) for k, (n, d) in acc.items())
    return ((k, [-x for x in n], d) for k, (n, d) in acc.items())


def reduce_sums(order: int, acc: Dict) -> Dict[Hashable, TruncatedSeries]:
    """Put each running sum of acc in lowest terms as a series, in place,
    so each running sum is freed as its series is made.  Returns acc."""
    for key, (a, ad) in acc.items():
        acc[key] = _reduced(order, a, ad)
    return acc


def series_sums(order: int,
                terms: Iterable[Tuple[Hashable, Sequence[int], int]]
                ) -> Dict[Hashable, TruncatedSeries]:
    """Sum the terms (key, numerators, den) per key (see sum_terms) and put
    each key's sum in lowest terms once, when the sums are built at the
    end."""
    return reduce_sums(order, sum_terms({}, terms))


def q_power(i: int, d: Rat, order: int) -> TruncatedSeries:
    """q^i = exp(hbar*d*i/2), valid for any integer i."""
    return (TruncatedSeries.hbar(order) * (_fr(d) * i / 2)).exp()
