"""Truncated quantum group for sl2 over Q[[hbar]]/(hbar^K).

Elements are kept in PBW normal form: linear combinations of monomials
F^a H^b E^c with truncated-series coefficients.  An element of U is an
element of the tensor power U^(x)1, so UqElement is a one-leg UqTensor
keyed by 1-tuples of monomials; it adds only a {monomial: coefficient}
constructor, and elements and tensors share one arithmetic.  The defining
relations

    [H, E] = 2E,   [H, F] = -2F,   [E, F] = (K^2 - K^-2)/(q - q^-1)

with q = exp(hbar/2) and K = exp(hbar*H/4) are built into the rewriting
engine.  The Hopf structure is

    Delta(H) = H(x)1 + 1(x)H,
    Delta(E) = E(x)K^-1 + K(x)E,     S(E) = -q^-1 E,
    Delta(F) = F(x)K^-1 + K(x)F,     S(F) = -q F,

pinned (leg order and all) by the requirement that the R-matrix below
satisfies Delta^op = R Delta R^-1 while its hbar^1 coefficient equals the
classical r-matrix (1/4)h(x)h + f(x)e.  The division in [E,F] is done on
closed-form coefficient series, never on truncated data, so no precision
is lost at the top order.

Every sum that can meet a key twice (+ and -, the product, the coproduct
on a block of legs, the antipode, and the passes of mono_mul and of E
times a monomial) adds its terms into the running sums of
kernel.sum_terms, the one rule by which series are added per key and the
order of the keys is settled; the product applies that rule inline,
adding each term as it is generated, and carries a pair of terms that
meets only at hbar^(K-1) as one integer.  A residual A*B - C*D
(almost-cocommutativity, the hexagons, the twist axiom,
intertwining_residual) sums both sides into one accumulator, the second
with sign -1, and reduces only the keys that survive, so it is empty
exactly when the two products agree.  The maps that are one-to-one on
keys (scale, swap_legs, embed, counit_leg, tensor_of) build their dicts
directly.

The quantized function algebras C_hbar[SL2^m] and C_hbar[(N\\SL2)^m] use
the block functions of cgx over a QAffineContext, whose irreps are the
V_hbar(n).  A QIrrep keeps E, F, H and every action as sparse series
columns, as cgx.Rep does: the slot actions (cgx._transposed for the dual
slot) and q_evaluate read them, and cgx._tensor_columns builds the
coproducts of E and F on a tensor product from them.  Clebsch-Gordan
entries are cgx.CGEntry tables over the series ring, built one weight
block at a time as they are read: the highest weight vectors are kernel
generators of the coproduct of E, transported along the coproduct of F.
q_multiply (the convolution product) and quantum_affine_multiply
(twisted by Twi^m(R~)) both end in the one contraction cgx.cg_contract.
The R~ action before it reads R by its E/F skeletons (its terms grouped by
their E and F exponents): the H-powers of a skeleton act on the basis
vectors by powers of weights, so each skeleton acts on an entry by one
kernel multiplier, and the terms are summed in kernel.series_sums.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .cgx import (
    BlockFunction, CGEntry, DimensionBoundError, PWContext, _apply,
    _tensor_columns, _transposed, block_pairs, cg_contract, detached,
    pw_tensor,
)
from .kernel import (
    TruncatedSeries, mul_num, mul_term, multiplier, q_power,
    reduce_sums, series_sums, signed_terms, sum_terms,
)
from .liebialg import LieTensor, build_sl

Mono = Tuple[int, int, int]  # exponents (a, b, c) of F^a H^b E^c
UNIT: Mono = (0, 0, 0)


class UqContext:
    """Carries the truncation order and all rewriting caches."""

    def __init__(self, order: int = 4):
        self.order = order
        # series are immutable, so every caller can share these two
        self._zero = TruncatedSeries.zero(order)
        self._one = TruncatedSeries.one(order)
        self._q_half_powers: Dict[int, TruncatedSeries] = {}
        self.q = self.q_half_power(2)  # q = e^{hbar/2}
        self.q_inv = self.q.inv()
        # [E,F] = kappa(H) = sum_n kappa[n] H^n over odd n, in closed form:
        # kappa[n] = t_n / sum_j t_j with t_n = (hbar/2)^(n-1) / n!
        t = {n: TruncatedSeries.hbar(order, n - 1)
             * (Fraction(1, 2) ** (n - 1) * Fraction(1, factorial(n)))
             for n in range(1, order + 1, 2)}
        winv = sum(t.values(), self._zero).inv()
        self.kappa: Dict[int, TruncatedSeries] = {n: tn * winv
                                                  for n, tn in t.items()}
        self._lE: Dict[Mono, Dict[Mono, TruncatedSeries]] = {}
        self._mono_mul: Dict[Tuple[Mono, Mono], Dict[Mono, TruncatedSeries]] = {}
        # mono_mul read by _product_sums: as kernel multipliers, and as
        # the hbar^0 structure constants of its short products
        self._mul_tables: Dict[Tuple[Mono, Mono], object] = {}
        self._mul_tops: Dict[Tuple[Mono, Mono], object] = {}
        # the data of Delta and S per monomial (see _grown): dicts, not
        # tensors, so that no memo entry points back to the context
        self._delta: Dict[Mono, Dict] = {}
        self._antipode: Dict[Mono, Dict] = {}

    def q_half_power(self, n: int) -> TruncatedSeries:
        """q^{n/2} = exp(hbar*n/4), memoized per n; K = exp(hbar*H/4)
        scales a weight-n vector by it."""
        s = self._q_half_powers.get(n)
        if s is None:
            s = self._q_half_powers[n] = q_power(n, Fraction(1, 2), self.order)
        return s

    def zero_series(self) -> TruncatedSeries:
        return self._zero

    def one_series(self) -> TruncatedSeries:
        return self._one


def _shifted_h_power(n: int, shift: Fraction) -> Dict[int, Fraction]:
    """(H + shift)^n as {H-power: rational coefficient}, highest power
    first, by the binomial theorem."""
    return {p: c for p in range(n, -1, -1)
            if (c := comb(n, p) * shift ** (n - p))}


def uq_one(ctx: UqContext) -> UqElement:
    return UqElement(ctx, {UNIT: 1})


_GENERATORS: Dict[str, Mono] = {"F": (1, 0, 0), "H": (0, 1, 0), "E": (0, 0, 1)}


def uq_gen(ctx: UqContext, name: str) -> UqElement:
    return UqElement(ctx, {_GENERATORS[name]: 1})


def sl2_generator_monos(alg) -> Dict[int, Mono]:
    """The U_hbar(sl2) generator monomial at each basis index of sl2."""
    return {0: _GENERATORS["H"], alg.raise_index(0): _GENERATORS["E"],
            alg.lower_index(0): _GENERATORS["F"]}


def uq_cartan_exp(ctx: UqContext, coeff: Fraction) -> UqElement:
    """exp(hbar * coeff * H) as a polynomial in H (exact mod hbar^K)."""
    return UqElement(ctx, {
        (0, n, 0): TruncatedSeries.hbar(ctx.order, n)
        * (coeff ** n * Fraction(1, factorial(n))) for n in range(ctx.order)})


def _term(key, s: TruncatedSeries, r: Fraction):
    """The term (key, numerators, den) of s * r for kernel.series_sums,
    not reduced."""
    return key, [x * r.numerator for x in s.num], s.den * r.denominator


def _lE_mono(ctx: UqContext, m: Mono) -> Dict[Mono, TruncatedSeries]:
    """Left multiplication by E of a normal monomial, as normal form."""
    if m in ctx._lE:
        return ctx._lE[m]
    ctx._lE[m] = out = series_sums(ctx.order, _lE_terms(ctx, m))
    return out


def _lE_terms(ctx: UqContext, m: Mono):
    """The terms of E times the monomial m for kernel.series_sums."""
    K = ctx.order
    a, b, c = m
    if a == 0:
        # E H^b E^c = (H-2)^b E^{c+1}
        one = ctx.one_series()
        for p, r in _shifted_h_power(b, Fraction(-2)).items():
            yield _term((0, p, c + 1), one, r)
        return
    # E F = F E + kappa(H), so E F^a ... = F (E F^{a-1} ...) + kappa(H) F^{a-1} ...
    for (a2, b2, c2), s in _lE_mono(ctx, (a - 1, b, c)).items():
        yield (a2 + 1, b2, c2), s.num, s.den
    for k, ks in ctx.kappa.items():
        # kappa_k H^k F^{a-1} H^b E^c = kappa_k F^{a-1} (H - 2(a-1))^k H^b E^c
        for p, r in _shifted_h_power(k, Fraction(-2 * (a - 1))).items():
            yield _term((a - 1, p + b, c), ks, r)


def _scaled_terms(items, s: TruncatedSeries, K: int):
    """The terms (key, numerators, den) of c * s for the (key, c) in items,
    for kernel.series_sums; s enters as a multiplier."""
    f, fd = multiplier(s)
    for key, c in items:
        n, d = mul_term(c.num, c.den, f, fd, K)
        yield key, n, d


def mono_mul(ctx: UqContext, m1: Mono, m2: Mono) -> Dict[Mono, TruncatedSeries]:
    """(F^a1 H^b1 E^c1)(F^a2 H^b2 E^c2) in normal form: E applied c1
    times, then H^b1, each pass summed in kernel.series_sums."""
    key = (m1, m2)
    if key in ctx._mono_mul:
        return ctx._mono_mul[key]
    a1, b1, c1 = m1
    cur: Dict[Mono, TruncatedSeries] = {m2: ctx.one_series()}
    K = ctx.order
    for _ in range(c1):
        cur = series_sums(K, (t for m, s in cur.items() for t in
                              _scaled_terms(_lE_mono(ctx, m).items(), s, K)))
    if b1:
        # H^b1 F^a = F^a (H - 2a)^b1
        cur = series_sums(K, (
            _term((a, p + b, c), s, r) for (a, b, c), s in cur.items()
            for p, r in _shifted_h_power(b1, Fraction(-2 * a)).items()))
    if a1:
        cur = {(a + a1, b, c): s for (a, b, c), s in cur.items()}
    ctx._mono_mul[key] = cur
    return cur


def counit(x: UqElement) -> TruncatedSeries:
    return x.data.get((UNIT,), x.ctx.zero_series())


def antipode(x: UqElement) -> UqElement:
    """S(F^aH^bE^c) = S(E)^c S(H)^b S(F)^a with S(E) = -q^-1 E,
    S(F) = -q F, S(H) = -H."""
    ctx = x.ctx
    out = UqElement(ctx)
    out.data = series_sums(ctx.order, (
        t for (m,), s in x.data.items()
        for t in _scaled_terms(_mono_antipode(ctx, m).items(), s, ctx.order)))
    return out


def _grown(ctx: UqContext, memo: Dict, legs: int, m: Mono, word: str,
           letters) -> Dict:
    """The data of memo[m], the product from the left, starting at 1, of
    the word of m: the generators named in word ("F", "H", "E" in some
    order), each as often as its exponent in m, a generator g standing
    for the legs-leg tensor letters()[g].  A monomial missing from memo is
    grown from the monomial one letter shorter, memo[m] = memo[p] * its
    last letter, the monomials between m and the nearest one memoized
    first, so each new monomial costs one product and its entry is the
    product from 1 cut where its word ends.  memo holds data dicts, which
    are rewrapped as tensors for each product."""
    data = memo.get(m)
    if data is None:
        chain = []
        top = m
        while top not in memo:
            g = next(g for g in reversed(word) if top["FHE".index(g)])
            i = "FHE".index(g)
            p = top[:i] + (top[i] - 1,) + top[i + 1:]
            chain.append((top, p, g))
            top = p
        factors = letters()
        for mono, p, g in reversed(chain):
            memo[mono] = (_tensor(ctx, legs, memo[p]) * factors[g]).data
        data = memo[m]
    return data


def _mono_antipode(ctx: UqContext, m: Mono) -> Dict:
    """The data of S(F^a H^b E^c) = S(E)^c S(H)^b S(F)^a, memoized per
    monomial on ctx._antipode and grown letter by letter (_grown)."""
    memo = ctx._antipode
    if not memo:
        memo[UNIT] = uq_one(ctx).data
    return _grown(ctx, memo, 1, m, "EHF", lambda: {
        g: uq_gen(ctx, g).scale(s) for g, s in (
            ("E", -ctx.q_inv), ("H", Fraction(-1)), ("F", -ctx.q))})


# -- tensor powers ---------------------------------------------------------


class UqTensor:
    """Element of U^(x)legs: dict (mono, ..., mono) -> TruncatedSeries."""

    __slots__ = ("ctx", "legs", "data")

    def __init__(self, ctx: UqContext, legs: int, data: Optional[Dict] = None):
        self.ctx = ctx
        self.legs = legs
        self.data: Dict[Tuple[Mono, ...], TruncatedSeries] = {}
        if data:
            for k, s in data.items():
                key = tuple(tuple(m) for m in k)
                if len(key) != legs:
                    raise ValueError("key %r has %d legs, expected %d"
                                     % (key, len(key), legs))
                if not isinstance(s, TruncatedSeries):
                    s = TruncatedSeries.const(s, ctx.order)
                if not s.is_zero():
                    self.data[key] = s

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        return (
            isinstance(other, UqTensor)
            and self.legs == other.legs
            and self.data == other.data
        )

    def check_legs(self, other: "UqTensor"):
        if self.legs != other.legs:
            raise ValueError("cannot combine tensors with %d and %d legs"
                             % (self.legs, other.legs))

    def __add__(self, other: "UqTensor") -> "UqTensor":
        return self._sum(other, 1)

    def __sub__(self, other: "UqTensor") -> "UqTensor":
        return self._sum(other, -1)

    def _sum(self, other: "UqTensor", sign: int) -> "UqTensor":
        """self + sign * other, each key summed once in kernel.sum_terms:
        the keys of self, then those of other that self lacks, and a key
        whose sum cancels drops out."""
        self.check_legs(other)
        return _tensor(self.ctx, self.legs, reduce_sums(
            self.ctx.order,
            sum_terms(_running(self), signed_terms(_running(other), sign))))

    def __neg__(self) -> "UqTensor":
        return _tensor(self.ctx, self.legs, {k: -s for k, s in self.data.items()})

    def scale(self, s) -> "UqTensor":
        if not isinstance(s, TruncatedSeries):
            s = TruncatedSeries.const(s, self.ctx.order)
        return _tensor(self.ctx, self.legs, {
            k: cs for k, c in self.data.items() if (cs := c * s)})

    def __mul__(self, other: "UqTensor") -> "UqTensor":
        """Componentwise product (x1(x)...)(y1(x)...) = x1y1 (x) ...; a leg
        where either monomial is the unit carries the other one unchanged,
        so embedded factors cost only their own legs.  Each output key is
        summed in _product_sums and reduced once."""
        self.check_legs(other)
        return _tensor(self.ctx, self.legs,
                       reduce_sums(self.ctx.order, _product_sums(self, other)))

    def swap_legs(self, perm: Sequence[int]) -> "UqTensor":
        """result[key] = self[key o perm]: leg j of the result is leg
        perm[j] of the input.  perm must be a permutation of the legs."""
        if sorted(perm) != list(range(self.legs)):
            raise ValueError("%r is not a permutation of %d legs"
                             % (tuple(perm), self.legs))
        return _tensor(self.ctx, self.legs, {
            tuple(k[p] for p in perm): s for k, s in self.data.items()})

    def embed(self, legs: int, positions: Sequence[int]) -> "UqTensor":
        """Place this tensor into a larger tensor power (identity elsewhere):
        leg j goes to leg positions[j], one distinct position per leg."""
        if (len(positions) != self.legs
                or len(set(positions) & set(range(legs))) != self.legs):
            raise ValueError("positions %r do not place %d legs among %d"
                             % (tuple(positions), self.legs, legs))
        src: List[Optional[int]] = [None] * legs  # the input leg of each leg
        for j, p in enumerate(positions):
            src[p] = j
        return _tensor(self.ctx, legs, {
            tuple(UNIT if j is None else k[j] for j in src): s
            for k, s in self.data.items()})

    def mod_hbar(self) -> Dict[Tuple[Mono, ...], Fraction]:
        return {k: s[0] for k, s in self.data.items() if s[0] != 0}

    def hbar_coefficient(self, i: int) -> Dict[Tuple[Mono, ...], Fraction]:
        return {k: s[i] for k, s in self.data.items() if s[i] != 0}

    def __repr__(self):
        return "UqTensor(legs=%d, %d terms)" % (self.legs, len(self.data))


def _product_sums(x: UqTensor, y: UqTensor, acc: Optional[Dict] = None,
                  sign: int = 1) -> Dict:
    """The running sums of x*y (or of -x*y when sign is -1) added into acc,
    each term as it is generated, in the order of itertools.product over
    the legs' expansions; a new dict when acc is None.  A running sum is
    an owned [numerators, den] list, updated in place and not reduced.

    A key whose sum cancels leaves acc and a later term brings it back at
    the end (the rule of kernel.sum_terms), except the keys acc held when
    the call began: those keep their place through a zero sum, and the
    zeros among them are swept at the end.  So subtracting a second
    product into the sums of a first puts the keys in the order that
    UqTensor.__sub__ of the two products gives them.

    A pair of terms whose valuations add up to K - 1 survives only in its
    hbar^(K-1) coefficient, the product of the two leading numerators: it
    is carried as that one integer through the hbar^0 structure constants
    of mono_mul and added into slot K - 1 (a short product).  The other
    pairs take their coefficients and the structure constants as kernel
    multipliers, so a constant (most of them) scales the numerators and a
    1 leaves them alone; only true series convolve.  No term is zero, so a
    new key is always kept."""
    ctx = x.ctx
    K = ctx.order
    top = K - 1
    if acc is None:
        acc = {}
    held = set(acc)
    # s1 s2 vanishes iff val(s1) + val(s2) >= K, so a term of valuation
    # v meets only the terms of y below K - v, in their own order; those
    # at K - 1 - v carry their leading numerator for the short product
    vals = [(k2, multiplier(s2), s2.valuation(), s2.num)
            for k2, s2 in y.data.items()]
    below = [[(k2, n2[v2] if v2 == top - v else None) + f2
              for k2, f2, v2, n2 in vals if v2 < K - v]
             for v in range(K + 1)]
    # mono_mul as multipliers, or as the one monomial m3 when the product
    # is m3 itself (then a leg only extends the key); tops holds the
    # hbar^0 constants (m3, numerator, den), collapsed the same way; both
    # live on ctx and are only read here, never changed once built
    tables = ctx._mul_tables
    tops = ctx._mul_tops
    get = acc.get
    for k1, s1 in x.data.items():
        n1, d1 = s1.num, s1.den
        v1 = s1.valuation()
        if sign != 1:
            n1 = [-a for a in n1]
        for k2, lead2, c2, d2 in below[v1]:
            run: Tuple[Mono, ...] = ()
            if lead2 is not None:
                # the short product: one integer per term, at hbar^(K-1)
                scalars = [((), n1[v1] * lead2, d1 * d2)]
                for m1, m2 in zip(k1, k2):
                    if m1 == UNIT:
                        run += (m2,)
                        continue
                    if m2 == UNIT:
                        run += (m1,)
                        continue
                    tbl = tops.get((m1, m2))
                    if tbl is None:
                        tbl = [(m3, c.num[0], c.den)
                               for m3, c in mono_mul(ctx, m1, m2).items()
                               if c.num[0]]
                        if len(tbl) == 1 and tbl[0][1:] == (1, 1):
                            tbl = tbl[0][0]
                        tops[m1, m2] = tbl
                    if type(tbl) is tuple:
                        run += (tbl,)
                        continue
                    scalars = [(pre + run + (m3,), t * c, td * cd)
                               for pre, t, td in scalars for m3, c, cd in tbl]
                    run = ()
                # each scalar goes into slot K - 1 of its key's running sum
                for pre, t, td in scalars:
                    key = pre + run
                    cur = get(key)
                    if cur is None:
                        a = [0] * K
                        a[top] = t
                        acc[key] = [a, td]
                        continue
                    a, ad = cur
                    if ad == td:
                        a[top] += t
                    else:
                        g = gcd(ad, td)
                        sa, sb = td // g, ad // g
                        if sa != 1:
                            a = cur[0] = [u * sa for u in a]
                            cur[1] = ad * sa
                        a[top] += t * sb
                    if not (a[top] or any(a) or key in held):
                        del acc[key]
                continue
            if c2 is None:
                n, d = n1, d1
            elif type(c2) is int:
                n, d = [a * c2 for a in n1], d1 * d2
            else:
                n, d = mul_num(n1, c2, K), d1 * d2
            # keys grow one expanding leg at a time; a unit leg or a
            # one-monomial product only extends the run of fixed monomials
            # in front of the next one
            terms = [((), n, d)]
            for m1, m2 in zip(k1, k2):
                if m1 == UNIT:
                    run += (m2,)
                    continue
                if m2 == UNIT:
                    run += (m1,)
                    continue
                tbl = tables.get((m1, m2))
                if tbl is None:
                    tbl = [(m3,) + multiplier(c)
                           for m3, c in mono_mul(ctx, m1, m2).items()]
                    if len(tbl) == 1 and tbl[0][1] is None:
                        tbl = tbl[0][0]
                    tables[m1, m2] = tbl
                if type(tbl) is tuple:
                    run += (tbl,)
                    continue
                nxt = []
                for pre, pn, pd in terms:
                    pre += run
                    for m3, c, cd in tbl:
                        if c is None:
                            nxt.append((pre + (m3,), pn, pd))
                        elif type(c) is int:
                            nxt.append((pre + (m3,), [a * c for a in pn],
                                        pd * cd))
                        elif any(tn := mul_num(pn, c, K)):
                            nxt.append((pre + (m3,), tn, pd * cd))
                terms = nxt
                run = ()
            # kernel.sum_terms inlined, on the owned running sums
            for pre, pn, pd in terms:
                key = pre + run
                cur = get(key)
                if cur is None:
                    acc[key] = [list(pn), pd]
                    continue
                a, ad = cur
                if ad == pd:
                    a = [u + v for u, v in zip(a, pn)]
                else:
                    g = gcd(ad, pd)
                    sa, sb = pd // g, ad // g
                    a = [u * sa + v * sb for u, v in zip(a, pn)]
                    cur[1] = ad * sa
                if any(a) or key in held:
                    cur[0] = a
                else:
                    del acc[key]
    if held:
        for key in [k for k in held if not any(acc[k][0])]:
            del acc[key]
    return acc


def _running(t: UqTensor) -> Dict:
    """The coefficients of t as running sums of kernel.sum_terms."""
    return {k: (s.num, s.den) for k, s in t.data.items()}


def _residual(ctx: UqContext, legs: int, acc: Dict, x: UqTensor,
              y: UqTensor) -> UqTensor:
    """The running sums acc minus x*y, subtracted into acc (see
    _product_sums), with only the keys that survive reduced."""
    return _tensor(ctx, legs,
                   reduce_sums(ctx.order, _product_sums(x, y, acc, -1)))


def _tensor(ctx: UqContext, legs: int, data: Dict) -> UqTensor:
    """A tensor on data already keyed by legs monomials, zeros dropped."""
    out = UqTensor(ctx, legs)
    out.data = data
    return out


class UqElement(UqTensor):
    """An element of U = U^(x)1: a one-leg UqTensor whose keys are 1-tuples
    of monomials, built from {monomial: coefficient}."""

    __slots__ = ()

    def __init__(self, ctx: UqContext, data: Optional[Dict] = None):
        super().__init__(ctx, 1, {(m,): s for m, s in data.items()}
                         if data else None)

    # The traced benchmark (perfbench/spans.py) hooks
    # que.UqElement.__mul__ through the class dict, so the product is bound
    # here again rather than only inherited.
    __mul__ = UqTensor.__mul__


def tensor_one(ctx: UqContext, legs: int) -> UqTensor:
    return UqTensor(ctx, legs, {(UNIT,) * legs: 1})


def tensor_of(elements: Sequence[UqElement]) -> UqTensor:
    data = {}
    for combo in itertools.product(*[e.data.items() for e in elements]):
        s = combo[0][1]
        for _, c in combo[1:]:
            s = s * c
        if s:
            data[tuple(k for (k,), _ in combo)] = s
    return _tensor(elements[0].ctx, len(elements), data)


def tensor_inv(t: UqTensor) -> UqTensor:
    """Inverse by the geometric series; requires t = 1 + (positive
    hbar-valuation part)."""
    ctx = t.ctx
    n = -(t - tensor_one(ctx, t.legs))  # t^-1 = sum_k n^k
    if any(s.num[0] for s in n.data.values()):
        raise ValueError("tensor is not unipotent: constant term differs from 1")
    out = tensor_one(ctx, t.legs)
    power = tensor_one(ctx, t.legs)
    for _ in range(1, ctx.order):
        power = power * n
        out = out + power
        if power.is_zero():
            break
    return out


# -- coproduct --------------------------------------------------------------


def _delta_generators(ctx: UqContext) -> Dict[Mono, UqTensor]:
    kp = uq_cartan_exp(ctx, Fraction(1, 4))    # K = e^{hbar H/4}
    km = uq_cartan_exp(ctx, Fraction(-1, 4))   # K^-1
    e = uq_gen(ctx, "E")
    f = uq_gen(ctx, "F")
    h = uq_gen(ctx, "H")
    one = uq_one(ctx)
    return {
        _GENERATORS["F"]: tensor_of([f, km]) + tensor_of([kp, f]),
        _GENERATORS["H"]: tensor_of([h, one]) + tensor_of([one, h]),
        _GENERATORS["E"]: tensor_of([e, km]) + tensor_of([kp, e]),
    }


def _mono_delta(ctx: UqContext, m: Mono) -> Dict:
    """The data of Delta(F^a H^b E^c) = Delta(F)^a Delta(H)^b Delta(E)^c,
    memoized per monomial on ctx._delta, which starts with 1 and the three
    generators, and grown letter by letter (_grown)."""
    memo = ctx._delta
    if not memo:
        memo[UNIT] = tensor_one(ctx, 2).data
        memo.update((g, d.data) for g, d in _delta_generators(ctx).items())
    return _grown(ctx, memo, 2, m, "FHE", lambda: {
        g: _tensor(ctx, 2, memo[mono]) for g, mono in _GENERATORS.items()})


def coproduct(x: UqElement) -> UqTensor:
    return delta_leg(x, 0)


def coproduct_op(x: UqElement) -> UqTensor:
    return coproduct(x).swap_legs((1, 0))


def delta_leg(t: UqTensor, j: int) -> UqTensor:
    """Apply the coproduct to leg j, giving legs+1 legs (new leg inserted
    after j); each output key is summed once, in kernel.series_sums."""
    return _block_delta(t, 1, j)


def _block_delta(t: UqTensor, m: int, first: int) -> UqTensor:
    """The coproduct of H^(x)m applied to legs first..first+m-1 of t, as
    one block in (H^(x)m) (x) (H^(x)m) order; the other legs keep their
    places.  Each output key is summed once, in kernel.series_sums."""
    return _tensor(t.ctx, t.legs + m,
                   series_sums(t.ctx.order, _block_delta_terms(t, m, first)))


def _block_delta_terms(t: UqTensor, m: int, first: int):
    """The terms (key, numerators, den) of _block_delta(t, m, first): per
    term of t, the product of the coproducts of its m block legs, the
    first leg outermost, with the shuffle of the 2m new legs into
    (a1..am, b1..bm) order written straight into the key.  The
    coproducts' coefficients enter as kernel multipliers, and a partial
    product of valuation v meets only the coproduct terms below hbar^(K-v),
    so no product that vanishes mod hbar^K is formed."""
    ctx = t.ctx
    K = ctx.order
    last = first + m
    # Delta(mono) as terms (x, y, c, d, valuation of the coefficient)
    deltas: Dict[Mono, List[Tuple]] = {}
    for k, s in t.data.items():
        partial = [((), (), s.num, s.den, s.valuation())]
        for mono in k[first:last]:
            tbl = deltas.get(mono)
            if tbl is None:
                tbl = deltas[mono] = [pair + multiplier(c) + (c.valuation(),)
                                      for pair, c in
                                      _mono_delta(ctx, mono).items()]
            partial = [(xs + (x,), ys + (y,)) + mul_term(n, d, c, cd, K)
                       + (v + vc,)
                       for xs, ys, n, d, v in partial
                       for x, y, c, cd, vc in tbl if v + vc < K]
        pre, post = k[:first], k[last:]
        for xs, ys, n, d, _ in partial:
            yield pre + xs + ys + post, n, d


def counit_leg(t: UqTensor, j: int) -> UqTensor:
    return _tensor(t.ctx, t.legs - 1, {
        k[:j] + k[j + 1:]: s for k, s in t.data.items() if k[j] == UNIT})


# -- the R-matrix ------------------------------------------------------------


def q_integer(ctx: UqContext, n: int) -> TruncatedSeries:
    """[n]_q = sum_{i=-n+1,step 2}^{n-1} q^i with q = e^{hbar/2}."""
    s = ctx.zero_series()
    qp = ctx.q_half_power(2 * (1 - n))
    q2 = ctx.q * ctx.q
    for _ in range(n):
        s = s + qp
        qp = qp * q2
    return s


def r_matrix_sl2(ctx: UqContext) -> UqTensor:
    """Quasitriangular R-matrix of truncated U_hbar(sl2):

    R = [ sum_n c_n (F^n K^n) (x) (E^n K^{-n}) ] * exp(hbar H(x)H/4),

    with K = e^{hbar H/4} and c_n = q^{-n(n+1)/2} (q-q^{-1})^n / [n]_q!.
    The sum truncates automatically since c_n has hbar-valuation n.

    The coefficients (the q-power exponent, the K-companions, the factor
    order) were pinned by an exhaustive exact search over a family of
    closed forms: this is the unique member passing almost-
    cocommutativity and both hexagon identities at truncation orders
    up to 6, with hbar^1 coefficient (1/4)h(x)h + f(x)e.
    """
    order = ctx.order
    # Cartan part: exp(hbar H(x)H/4) = sum_k (hbar/4)^k / k! H^k (x) H^k
    cart = r0_matrix(ctx)
    x = ctx.q - ctx.q_inv  # valuation 1
    nil = UqTensor(ctx, 2)
    xn = ctx.one_series()
    qfact = ctx.one_series()
    for n in range(order):
        if n:
            xn = xn * x
            qfact = qfact * q_integer(ctx, n)
        cn = xn * qfact.inv() * ctx.q_half_power(-n * (n + 1))
        if cn.is_zero():
            continue
        fn = UqElement(ctx, {(n, 0, 0): 1}) * uq_cartan_exp(ctx, Fraction(n, 4))
        en = UqElement(ctx, {(0, 0, n): 1}) * uq_cartan_exp(ctx, Fraction(-n, 4))
        nil = nil + tensor_of([fn, en]).scale(cn)
    return nil * cart


def r0_matrix(ctx: UqContext) -> UqTensor:
    """R_0 = exp(hbar r_0) = exp(hbar H(x)H/4) for sl2: the terms
    (hbar/4)^k / k! H^k of exp(hbar H/4), with H^k on both legs."""
    return UqTensor(ctx, 2, {(h, h): s for (h,), s in
                             uq_cartan_exp(ctx, Fraction(1, 4)).data.items()})


def intertwining_residual(R: UqTensor, d: UqTensor, d_op: UqTensor) -> UqTensor:
    """R d - d_op R, which vanishes when R intertwines d with d_op; both
    products are summed into one accumulator as they are generated, the
    second with sign -1 (see _product_sums), and only the keys that
    survive are reduced."""
    R.check_legs(d)
    R.check_legs(d_op)
    return _residual(R.ctx, R.legs, _product_sums(R, d), d_op, R)


def almost_cocommutativity_residuals(ctx: UqContext, R: UqTensor) -> List[UqTensor]:
    """R Delta(x) - Delta^op(x) R for the three generators."""
    out = []
    for g in ("E", "F", "H"):
        x = uq_gen(ctx, g)
        out.append(intertwining_residual(R, coproduct(x), coproduct_op(x)))
    return out


def hexagon_residuals(ctx: UqContext, R: UqTensor) -> List[UqTensor]:
    """(Delta(x)I)R - R13 R23 and (I(x)Delta)R - R13 R12: the coproduct's
    running sums, owned, take the product subtracted into them as it is
    generated (see _product_sums)."""
    r13 = R.embed(3, (0, 2))
    r23 = R.embed(3, (1, 2))
    r12 = R.embed(3, (0, 1))
    out = []
    for j, r in ((0, r23), (1, r12)):
        acc = {k: [list(n), d] for k, (n, d) in
               sum_terms({}, _block_delta_terms(R, 1, j)).items()}
        out.append(_residual(ctx, 3, acc, r13, r))
    return out


# -- twisted m-fold tensor products -----------------------------------------


def hopf_power_delta(t: UqTensor, m: int) -> UqTensor:
    """Coproduct of H^(x)m applied to t (m legs)."""
    if t.legs != m:
        raise ValueError("expected a tensor with %d legs, got %d"
                         % (m, t.legs))
    return _block_delta(t, m, 0)


def block_embed(t: UqTensor, m: int, blocks: int, positions: Sequence[int]) -> UqTensor:
    """Embed t, viewed as a tensor over groups of m legs, into a larger
    power of H^(x)m (identity in the remaining blocks)."""
    groups, rest = divmod(t.legs, m)
    if rest or len(positions) != groups:
        raise ValueError("a %d-leg tensor is not %d blocks of %d legs"
                         % (t.legs, len(positions), m))
    legpos = []
    for g in range(groups):
        legpos.extend(positions[g] * m + i for i in range(m))
    return t.embed(blocks * m, legpos)


def _ordered_product(ctx: UqContext, factors: Sequence[UqTensor], legs: int) -> UqTensor:
    out = tensor_one(ctx, legs)
    for f in factors:
        out = out * f
    return out


def _twi_legs(m: int):
    """The leg pairs (k - 1, m + l - 1) of the factors R_{k, m+l} of
    Twi^m = prod_{k=2}^m prod_{l=k-1}^1 R_{k, m+l}, leftmost first."""
    for k in range(2, m + 1):
        for l in range(k - 1, 0, -1):
            yield k - 1, m + l - 1


def twi_m(R: UqTensor, m: int) -> UqTensor:
    """Twi^m(R) = prod_{k=2}^m prod_{l=k-1}^1 R_{k, m+l} in H^(x)2m
    (closed formula)."""
    return _ordered_product(
        R.ctx, [R.embed(2 * m, legs) for legs in _twi_legs(m)], 2 * m)


def twi_m_inductive(R: UqTensor, m: int) -> UqTensor:
    """Twi^m(R) by the recursion
    Twi^m = Twi^{m-1} * (Delta^(m-1) (x) I (x) Delta^(m-1) (x) I)(R_23)."""
    ctx = R.ctx
    if m == 1:
        return tensor_one(ctx, 2)
    prev = twi_m_inductive(R, m - 1)
    # embed Twi^{m-1} in legs (0..m-2) and (m..2m-2)
    prev_emb = prev.embed(2 * m, list(range(m - 1)) + list(range(m, 2 * m - 1)))
    r23 = R.embed(4, (1, 2))
    # expand legs 0 and 2 of H^(x)4 by Delta^(m-1)
    t = r23
    for _ in range(m - 2):
        t = delta_leg(t, 0)
    # legs now: (0..m-2) = Delta^{m-1} of old leg0, m-1 = old leg1,
    # m = old leg2, m+1 = old leg3
    for _ in range(m - 2):
        t = delta_leg(t, m)
    return prev_emb * t


def _swap_blocks(t: UqTensor, m: int) -> UqTensor:
    """t in (H^(x)m) (x) (H^(x)m) with its two blocks of m legs swapped:
    J_21 from J."""
    return t.swap_legs(list(range(m, 2 * m)) + list(range(m)))


def r_matrix_m(R: UqTensor, m: int) -> UqTensor:
    """R^(m) in (H^(x)m) (x) (H^(x)m), the quasitriangular structure of the
    twisted m-fold product:

    R^(m) = (J_21)^-1 (prod_{k=1}^m R_{k, m+k}) J,   J = Twi^m(R),

    the standard R-matrix of a Hopf algebra twisted by J, applied to the
    componentwise quasitriangular structure of H^(x)m.
    """
    ctx = R.ctx
    J = twi_m(R, m)
    factors = [tensor_inv(_swap_blocks(J, m))]
    for k in range(1, m + 1):
        factors.append(R.embed(2 * m, (k - 1, m + k - 1)))
    factors.append(J)
    return _ordered_product(ctx, factors, 2 * m)


class TwistedHopf:
    """The Hopf structure of H^(x)m twisted by an invertible J:
    Delta_J(x) = J^-1 Delta(x) J, same counit, S_J = Q S Q^-1."""

    def __init__(self, J: UqTensor, m: int):
        self.J = J
        self.m = m
        self.ctx = J.ctx
        self.J_inv = tensor_inv(J)

    def delta(self, t: UqTensor) -> UqTensor:
        """Delta_J(t) in (H^(x)m) (x) (H^(x)m); Delta_J^op(t) is the same
        tensor with its two blocks of m legs swapped."""
        return self.J_inv * hopf_power_delta(t, self.m) * self.J

    def untwist(self, t: UqTensor) -> UqTensor:
        """J_21 t J^-1 for t in (H^(x)m) (x) (H^(x)m).

        Delta_J^op(x) is Delta_J(x) with its two blocks swapped, that is
        J_21^-1 Delta^op(x) J_21, so for every x

            t Delta_J(x) - Delta_J^op(x) t
                = J_21^-1 (u Delta(x) - Delta^op(x) u) J,   u = untwist(t),

        exactly (the products are exact modulo hbar^K), so t
        intertwines Delta_J with Delta_J^op iff u intertwines the
        untwisted Delta with Delta^op (Drinfeld's twisting).  For
        t = R^(m), u is the componentwise prod_k R_{k, m+k}."""
        return _swap_blocks(self.J, self.m) * (t * self.J_inv)


def twist_condition_residuals(J: UqTensor, m: int) -> Tuple[UqTensor, UqTensor, UqTensor]:
    """Residuals of the twisting-element axioms for J over H' = H^(x)m:
    (Delta'(x)I)(J)J_12 - (I(x)Delta')(J)J_23, its two products summed
    into one accumulator as they are generated (see _product_sums), and
    the two counit defects."""
    ctx = J.ctx
    resid = _residual(
        ctx, 3 * m,
        _product_sums(_block_delta(J, m, 0), block_embed(J, m, 3, (0, 1))),
        _block_delta(J, m, m), block_embed(J, m, 3, (1, 2)))
    # counit defects
    c1 = J
    for _ in range(m):
        c1 = counit_leg(c1, 0)
    c2 = J
    for _ in range(m):
        c2 = counit_leg(c2, c2.legs - 1)
    one = tensor_one(ctx, m)
    return resid, c1 - one, c2 - one


def semiclassical_r(t: UqTensor, m: int):
    """Extract the hbar^1 coefficient of a 2m-leg R-matrix as a LieTensor
    over sl2^m.  Raises if the coefficient is not quadratic in the
    generators."""
    alg = build_sl(2)
    alg_m = alg.power(m)
    gen_index = {mono: i for i, mono in sl2_generator_monos(alg).items()}
    terms = []
    for key, c in t.hbar_coefficient(1).items():
        nontriv = [(j, mono) for j, mono in enumerate(key) if mono != UNIT]
        if len(nontriv) != 2:
            raise ValueError("hbar^1 term is not quadratic: %s" % (key,))
        (j1, m1), (j2, m2) = nontriv
        if m1 not in gen_index or m2 not in gen_index:
            raise ValueError("hbar^1 term has a higher monomial: %s" % (key,))
        if not (j1 < m and j2 >= m):
            raise ValueError("hbar^1 term is not split across the two groups")
        i1 = j1 * alg.dim + gen_index[m1]
        i2 = (j2 - m) * alg.dim + gen_index[m2]
        terms.append(((i1, i2), c))
    return LieTensor._from_terms(alg_m, 2, terms)


# -- quantized irreducible representations of sl2 ----------------------------


class QIrrep:
    """V_hbar(n) for sl2: basis w_0..w_n with
    F w_k = w_{k+1},  H w_k = (n-2k) w_k,  E w_k = [k]_q [n-k+1]_q w_{k-1}.

    E, F and H, and every action, are sparse series columns: column k holds
    the nonzero entries of the image of w_k.  Reduces mod hbar to the classical irrep in its lowering-word basis.
    """

    def __init__(self, ctx: UqContext, n: int):
        self.ctx = ctx
        self.dim = n + 1
        self.weights = [n - 2 * k for k in range(n + 1)]
        # w_k = F^k w_0, as in the lowering words of cgx.Irrep
        self.words = [None] + [(k - 1, 0) for k in range(1, n + 1)]
        one = ctx.one_series()
        self.F = [{k + 1: one} if k < n else {} for k in range(n + 1)]
        self.E = [{k - 1: q_integer(ctx, k) * q_integer(ctx, n - k + 1)}
                  if k else {} for k in range(n + 1)]
        self.H = [{k: TruncatedSeries.const(w, ctx.order)} if w else {}
                  for k, w in enumerate(self.weights)]
        self._mono_cols: Dict[Mono, List[Dict]] = {}

    def act_mono(self, m: Mono) -> List[Dict]:
        """rho(F^a H^b E^c), memoized per monomial."""
        cols = self._mono_cols.get(m)
        if cols is None:
            a, b, c = m
            one = self.ctx.one_series()
            cols = [{k: one} for k in range(self.dim)]
            for gen, times in ((self.E, c), (self.H, b), (self.F, a)):
                for _ in range(times):
                    cols = [_apply(gen, col) for col in cols]
            self._mono_cols[m] = cols
        return cols

    def act(self, x: UqElement) -> List[Dict]:
        """rho(x): column k combines the columns k of the actions of x's
        monomials with x's coefficients."""
        monos = [self.act_mono(m) for (m,) in x.data]
        coeffs = dict(enumerate(x.data.values()))
        return [_apply([cols[k] for cols in monos], coeffs)
                for k in range(self.dim)]


# -- quantized function algebras ---------------------------------------------


class QAffineContext:
    """Caches for C_hbar[SL2] and C_hbar[(N\\SL2)^m]: quantized irreps
    up to dimension dim_bound, quantum Clebsch-Gordan tables (built from
    the V_hbar(n) alone), the R-matrix and the R~ tables read off its E/F
    skeletons per weight pair, and the companion classical context that
    mod-hbar forms live in; the context of block functions with
    coefficients in Q[[hbar]]/(hbar^K)."""

    def __init__(self, uq: UqContext, dim_bound: int = 64):
        self.uq = uq
        self.ring = "Q[[hbar]]/(hbar^%d)" % uq.order
        self.alg = build_sl(2)
        self.dim_bound = dim_bound
        self.pw = PWContext(self.alg, dim_bound)
        self._qirreps: Dict[int, QIrrep] = {}
        self._cg: Dict[Tuple[int, int], CGEntry] = {}
        self._plans: Dict[Tuple, List] = {}  # see cgx.cg_contract
        self._slot: Dict[Tuple, List[Dict]] = {}
        self._rtilde: Dict[Tuple[int, int], List[List[List]]] = {}

    @cached_property
    def R(self) -> UqTensor:
        return r_matrix_sl2(self.uq)

    def rtilde_table(self, n1: int, n2: int) -> List[List[List]]:
        """R~ on the dual slots of V_hbar(n1) and V_hbar(n2), for
        _apply_rtilde: per E/F skeleton of R, the table [j1][j2] of
        (k1, k2, c, d) or None, with (c, d) the multiplier of the whole
        skeleton's action taking the dual indices (j1, j2) to (k1, k2).
        S(F^a H^b E^c) = S(E)^c (-H)^b S(F)^a, so the H^b of a term acts
        on w_k as the power (2(k + a) - n)^b of a weight: a skeleton's
        terms collapse into one series per (j1, j2), times the character
        exp(-hbar n1 n2 / 4) of R_0^{-1} = exp(-hbar H(x)H/4) and the two
        skeleton slot entries.  A monomial F^a E^c moves each basis vector
        to one basis vector, so a dual index meets at most one entry.
        Memoized per (n1, n2)."""
        out = self._rtilde.get((n1, n2))
        if out is not None:
            return out
        # R's terms (b1, b2, s) of s F^a1 H^b1 E^c1 (x) F^a2 H^b2 E^c2 per
        # skeleton F^a1 E^c1 (x) F^a2 E^c2, in the order R first meets them
        skeletons: Dict[Tuple[Mono, Mono], List[Tuple]] = {}
        for ((a1, b1, c1), (a2, b2, c2)), s in self.R.data.items():
            skeletons.setdefault(((a1, 0, c1), (a2, 0, c2)), []).append(
                (b1, b2, s))
        uq = self.uq
        q = uq.q_half_power(-n1 * n2)
        out = self._rtilde[n1, n2] = []
        for (m1, m2), terms in skeletons.items():
            # the entries (j, k, c, w) of the skeleton slot actions, with w
            # the weight whose power H^b brings
            ents1, ents2 = (
                [(j, k, c, 2 * (k + mono[0]) - n) for j, line in enumerate(
                    self.slot_action((n,), UqElement(uq, {mono: 1}), "left"))
                 for k, c in line.items()]
                for n, mono in ((n1, m1), (n2, m2)))
            tbl = [[None] * (n2 + 1) for _ in range(n1 + 1)]
            for j1, k1, c1, w1 in ents1:
                for j2, k2, c2, w2 in ents2:
                    h = series_sums(uq.order, (
                        _term(0, s, w1 ** b1 * w2 ** b2)
                        for b1, b2, s in terms)).get(0)
                    if h is not None:
                        tbl[j1][j2] = (k1, k2) + multiplier(h * q * c1 * c2)
            out.append(tbl)
        return out

    def irrep(self, lam: Tuple[int]) -> QIrrep:
        (n,) = lam
        if n not in self._qirreps:
            if n + 1 > self.dim_bound:
                raise DimensionBoundError(lam, self.dim_bound)
            self._qirreps[n] = QIrrep(self.uq, n)
        return self._qirreps[n]

    def cg(self, lam: Tuple[int], mu: Tuple[int]) -> CGEntry:
        key = (lam[0], mu[0])
        if key not in self._cg:
            self._cg[key] = self._build_qcg(*key)
        return self._cg[key]

    def coerce(self, c) -> TruncatedSeries:
        if isinstance(c, TruncatedSeries):
            return c
        return TruncatedSeries.const(c, self.uq.order)

    def is_unit(self, s: TruncatedSeries) -> bool:
        return s.num[0] != 0

    def pair(self, s: TruncatedSeries) -> Tuple[TruncatedSeries, int]:
        """s as a term pair of cgx.cg_contract: the series over 1."""
        return s, 1

    def build(self, s: TruncatedSeries, d: int) -> TruncatedSeries:
        """The coefficient of a summed pair of cgx.cg_contract: the
        series itself (d is 1)."""
        return s

    def coeff_json(self, s: TruncatedSeries) -> List[str]:
        return [str(c) for c in s.coeffs]

    def json_fields(self) -> Dict:
        return {"order": self.uq.order}

    def slot_action(self, lam: Tuple[int], y: UqElement, side: str):
        """rho(S(y)) on V_hbar(lam) as the sparse columns of its transpose
        (side "left", the dual slot) or of itself (side "right", the
        vector slot); see cgx.act_factor.  Memoized per weight, element
        (for an R-term, one monomial) and side."""
        key = (lam, tuple(y.data.items()), side)
        lines = self._slot.get(key)
        if lines is None:
            lines = self.irrep(lam).act(antipode(y))
            if side == "left":
                lines = _transposed(lines)
            self._slot[key] = lines
        return lines

    def _build_qcg(self, n: int, m: int) -> CGEntry:
        """Decomposition of V_hbar(n)(x)V_hbar(m) with series intertwiners:
        the highest weight vectors are the kernel generators of
        Delta(E) = E(x)K^-1 + K(x)E, transported along Delta(F) =
        F(x)K^-1 + K(x)F, where K = exp(hbar H/4) scales a weight-w vector
        by exp(hbar w/4); its blocks are built as they are read."""
        va, vb = self.irrep((n,)), self.irrep((m,))
        kp = [self.uq.q_half_power(w) for w in va.weights]
        km = [self.uq.q_half_power(-w) for w in vb.weights]
        return CGEntry(detached(self), (n,), (m,),
                       [(wa + wb,) for wa in va.weights for wb in vb.weights],
                       [_tensor_columns(va.E, vb.E, kp, km)],
                       [_tensor_columns(va.F, vb.F, kp, km)])


def q_multiply(f: BlockFunction, g: BlockFunction) -> BlockFunction:
    """Product in C_hbar[SL2^m]: the convolution product of functionals,
    (fg)(x) = sum f(x_(1)) g(x_(2)), realized per factor by a quantum
    Clebsch-Gordan decomposition (associative, not commutative).  In terms
    of matrix coefficients, c_{xi,v} c_{eta,w} is the coefficient of
    eta(x)xi and w(x)v on the tensor module, which is why g is the left
    and f the right side of the contraction."""
    f.check_compatible(g)
    return cg_contract(f.ctx, f.m, block_pairs(g, f))


def _apply_rtilde(qctx: QAffineContext, P: BlockFunction, fa: int,
                  fb: int) -> BlockFunction:
    """Apply R~ = tau_23(R (x) R_0^{-1}) with the U-legs acting on the dual
    slots of factors fa and fb, and the Cartan legs acting by the weight
    characters of those factors.  Per block, each E/F skeleton of R acts
    on an entry by one kernel multiplier (QAffineContext.rtilde_table),
    and the terms are summed per entry in kernel.series_sums: no series is
    reduced before the sums are."""
    K = qctx.uq.order

    def terms():
        for key, blk in P.blocks.items():
            for tbl in qctx.rtilde_table(key[fa][0], key[fb][0]):
                for idx, c in blk.items():
                    hit = tbl[idx[2 * fa]][idx[2 * fb]]
                    if hit is None:
                        continue
                    s1, s2, f, fd = hit
                    n, d = mul_term(c.num, c.den, f, fd, K)
                    nidx = list(idx)
                    nidx[2 * fa] = s1
                    nidx[2 * fb] = s2
                    yield (key, tuple(nidx)), n, d
    return BlockFunction._from_sums(qctx, P.m, series_sums(K, terms()))


def _contract_pairs(P: BlockFunction, m: int) -> BlockFunction:
    """Multiply factor i with factor m+i for each i, turning a 2m-factor
    function into an m-factor one (the factorwise multiplication map).
    Convolution order: factor j of the product is (factor j) * (factor
    m+j), contracted through the CG tables of V(n_{m+j}) (x) V(n_j)."""
    pair = P.ctx.pair
    return cg_contract(P.ctx, m, (
        (key[m:], key[:m], [(idx[2 * m:], idx[:2 * m], *pair(c))
                            for idx, c in blk.items()])
        for key, blk in P.blocks.items()))


def quantum_affine_multiply(f: BlockFunction, g: BlockFunction) -> BlockFunction:
    """Multiplication in C_hbar[(N\\SL2)^m] = (C_hbar[N\\SL2]^(x)m) twisted
    by Twi^m(R~): mu(Twi^m(R~) . (f (x) g)) with the factorwise module
    structure.  Requires semi-invariant inputs."""
    f.check_compatible(g)
    m = f.m
    if not (f.semi_invariant and g.semi_invariant):
        raise ValueError("inputs must be graded (semi-invariant) functions")
    qctx = f.ctx
    P = pw_tensor([f, g])
    # the leftmost factor R~_{k, m+l} of Twi^m(R~) acts last
    for fa, fb in reversed(list(_twi_legs(m))):
        P = _apply_rtilde(qctx, P, fa, fb)
    return _contract_pairs(P, m)


def quantum_affine_multiply_pairwise(f: BlockFunction,
                                     g: BlockFunction) -> BlockFunction:
    """Same multiplication via the per-factor case split: factors of f
    supported at position i and of g at position j multiply plainly when
    i <= j and through R~_{ij} applied to the swapped product when i > j.
    Only defined when f and g are each supported in a single factor
    (all other factors trivial); used as a cross-check."""
    f.check_compatible(g)
    m = f.m

    def support(h: BlockFunction) -> int:
        zero = (0,)
        pos = set()
        for key in h.blocks:
            for j in range(m):
                if key[j] != zero:
                    pos.add(j)
        if len(pos) > 1:
            raise ValueError("function is not supported in a single factor")
        return pos.pop() if pos else 0

    i, j = support(f), support(g)
    if i <= j:
        P = pw_tensor([f, g])
    else:
        P = pw_tensor([g, f])
        # R~_{ij} with the first leg on (the f part of) factor i and the
        # second on factor j; after the swap f occupies the second group
        P = _apply_rtilde(f.ctx, P, m + i, j)
    return _contract_pairs(P, m)


def semiclassical_bracket(f: BlockFunction, g: BlockFunction, product=None):
    """(1/hbar)(fg - gf) mod hbar as a classical block function.  The
    product defaults to q_multiply; pass quantum_affine_multiply for the
    twisted algebras."""
    if product is None:
        product = q_multiply
    d = product(f, g) - product(g, f)
    if not d.hbar_coefficient(0).is_zero():
        raise ValueError("product is not commutative mod hbar")
    return d.hbar_coefficient(1)
