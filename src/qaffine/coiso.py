"""Strongly coisotropic subalgebras of the truncated quantum group.

A subalgebra U of the Hopf algebra H is *right strongly coisotropic* when

    Delta(U)  is contained in  U(x)U + H(x)[U,U],

with [U,U] the two-sided ideal of U generated by commutators (the left
version puts the ideal in the first leg).  On such U the characters form
a monoid through the reduced coproduct, the character eigenspaces of the
right action on the quantized function algebra assemble into a graded
subalgebra, and highest-weight matrix coefficients become quantum
sections of the associated line bundles.

Everything here is decided inside explicit windows: a PBW degree bound
for U, a degree bound for the ambient factor, the series truncation
order, and weight bounds on function-algebra blocks.  Membership answers
are therefore three-valued -- ``true``, ``false`` (with a witness whose
residual is stable under window enlargement), or ``inconclusive`` -- and
every report records the window it was computed in.

The right action c_{xi,v} . y = c_{xi, S(y)v} behind semi-invariants and
quantum sections is read from one place, the memoized lines of
``QAffineContext.slot_action`` (directly by ``semi_invariants``, through
``cgx.act_factor`` for the basis elements of U elsewhere).

When U and its commutator ideal are monomial spans (each echelon row one
monomial with pivot entry 1, as for the Borel, <H>, <E>, <F> and <H, F>),
the membership window is the module of vectors supported on the keys a
predicate accepts, and ``MonomialWindow`` tests membership key by key
without building the window; the echelon ``HopfSubalgebra.window`` serves
every other U.  The twisted tensor-power check reads the same predicate.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .cgx import BlockFunction, act_factor, pw_one
from .kernel import TruncatedSeries
from .linalg import EchelonSpan, sparse_nullspace, vec_sum
from .que import (
    QAffineContext,
    UqContext,
    UqElement,
    UqTensor,
    TwistedHopf,
    coproduct,
    counit,
    q_multiply,
    sl2_generator_monos,
    tensor_one,
    twi_m,
    uq_gen,
    uq_one,
)

Word = Tuple[int, ...]  # word in generator indices

# A window answer that is not ``true`` is recomputed with its bound raised
# by SLACK; strong_coiso_twisted checks words of per-factor length up to
# CHECK_BOUND.
SLACK = 2
CHECK_BOUND = 2


# -- vectorization over Q[[hbar]]/(hbar^K) ----------------------------------


def qfun_vec(f: BlockFunction) -> Dict:
    """A block function as a sparse series vector keyed by (weights,
    index)."""
    return {(key, idx): s for key, blk in f.blocks.items()
            for idx, s in blk.items()}


def _hbar_terms(vec: Dict) -> List[Tuple]:
    """The (key, hbar power) terms of a series vector: its coordinates
    over Q."""
    return [(key, k) for key, s in vec.items()
            for k, n in enumerate(s.num) if n]


def _h_monomials(bound: int) -> List[Tuple[int, int, int]]:
    out = []
    for a in range(bound + 1):
        for b in range(bound + 1 - a):
            for c in range(bound + 1 - a - b):
                out.append((a, b, c))
    out.sort()
    return out


# -- Hopf subalgebra windows -------------------------------------------------


class HopfSubalgebra:
    """The span of words of bounded length in a set of generators,
    cached as an echelon basis of the truncated-series module they span,
    with the words that grew it as the basis.

    Extensions, commutator ideals and membership windows are built once
    per key and kept on the instance, so they live exactly as long as U.
    An ideal or a window is a plain echelon span or a ``MonomialWindow``,
    neither of which keeps a reference to U, so U holds it without a
    reference cycle.
    """

    def __init__(self, ctx: UqContext, generators: Sequence[UqElement],
                 degree_bound: int, names: Optional[Sequence[str]] = None,
                 base: Optional["HopfSubalgebra"] = None):
        """The words are built breadth first: a word that grows the span
        joins the basis and, below the bound, is multiplied by each
        generator to give a word of the next length.  Given base, the same
        subalgebra at a lower bound, the build goes on from its words:
        its basis is inserted again in order (an insert that does not grow
        the span changes nothing, so the span comes out as base built it)
        and only its basis words of the longest length are expanded."""
        self.ctx = ctx
        self.generators = list(generators)
        self.degree_bound = degree_bound
        self.names = list(names) if names else [
            "g%d" % i for i in range(len(generators))
        ]
        self.span = EchelonSpan()
        self.basis: List[UqElement] = []       # rank-increasing words only
        self.basis_words: List[Word] = []
        self._coordinates: Dict[object, EchelonSpan] = {}
        self._extended: Dict[int, HopfSubalgebra] = {}
        self._ideals: Dict[int, EchelonSpan] = {}
        self._windows: Dict[Tuple[int, str], EchelonSpan] = {}
        self._memberships: Dict[Tuple[int, str], object] = {}

        if base is None:
            start, level = 0, [((), uq_one(ctx))]
        else:
            start = base.degree_bound + 1
            for el in base.basis:
                self.span.add(el.data)
            self.basis.extend(base.basis)
            self.basis_words.extend(base.basis_words)
            level = [(w + (gi,), el * g)
                     for w, el in zip(base.basis_words, base.basis)
                     if len(w) == base.degree_bound
                     for gi, g in enumerate(self.generators)]
        for length in range(start, degree_bound + 1):
            nxt: List[Tuple[Word, UqElement]] = []
            for w, el in level:
                if self.span.add(el.data):
                    self.basis.append(el)
                    self.basis_words.append(w)
                    if length < degree_bound:
                        for gi, g in enumerate(self.generators):
                            nxt.append((w + (gi,), el * g))
            level = nxt

    def contains(self, x: UqElement) -> bool:
        return self.span.contains(x.data)

    def coordinates(self, pivot=min) -> EchelonSpan:
        """The basis, in order, as the inserts of a span with coordinates
        (each one grows it), built on first use per pivot order."""
        span = self._coordinates.get(pivot)
        if span is None:
            span = self._coordinates[pivot] = EchelonSpan.with_coordinates(
                pivot)
            for u in self.basis:
                span.add(u.data)
        return span

    def extend(self, degree_bound: int) -> "HopfSubalgebra":
        """The same subalgebra with a (weakly) larger word-length bound,
        built on from the words U holds and kept on U per bound."""
        if degree_bound <= self.degree_bound:
            return self
        ext = self._extended.get(degree_bound)
        if ext is None:
            ext = self._extended[degree_bound] = HopfSubalgebra(
                self.ctx, self.generators, degree_bound, self.names, self)
        return ext

    def membership_window(self, bound: int, side: str = "right"):
        """The window that membership reads at this bound and side, built
        on first use and kept on U: a ``MonomialWindow`` when U extended
        to the bound and the commutator ideal at the bound are monomial
        spans, else the echelon ``window(bound, side)``.  Both answer
        reduce and contains alike."""
        key = (bound, side)
        win = self._memberships.get(key)
        if win is None:
            win = self._memberships[key] = (
                _monomial_window(self, bound, side)
                or self.window(bound, side))
        return win

    def window(self, bound: int, side: str = "right") -> EchelonSpan:
        """U(x)U + H(x)[U,U] (right) or U(x)U + [U,U](x)H (left) at this
        bound, built on first use: the echelon span of r(x)r'
        over the echelon rows r, r' of U extended to the bound, and of
        h(x)c (or c(x)h) over the H-monomials h of degree up to the bound
        and the echelon rows c of the commutator ideal at the bound.  Over
        Q[[hbar]]/(hbar^K) the Howell rows of a span generate the module
        its inserted vectors generate, so these products generate the same
        module as the tensors of every pair of spanning elements.  An h
        that lies in U itself is skipped: each h(x)c then lies in U(x)U,
        which the r(x)r' already span, so it could not change a row.
        Membership reads it through ``membership_window``, which takes it
        only when U or its ideal is not a monomial span; it stays the
        reference that a ``MonomialWindow`` is tested against."""
        key = (bound, side)
        span = self._windows.get(key)
        if span is None:
            W = self.extend(bound)
            rows = W.span.rows.values()
            ideal = ideal_commutator(self, bound).rows.values()
            span = self._windows[key] = EchelonSpan()
            for ra in rows:
                for rb in rows:
                    span.add({ka + kb: x for ka, s in ra.items()
                              for kb, t in rb.items() if (x := s * t)})
            one = self.ctx.one_series()
            # with no ideal rows (U commutative) there is nothing to skip,
            # and the membership tests alone would cost
            for hm in _h_monomials(bound) if ideal else ():
                if W.span.contains({(hm,): one}):
                    continue
                for c in ideal:
                    span.add({(hm,) + k: t for k, t in c.items()}
                             if side == "right" else
                             {k + (hm,): t for k, t in c.items()})
        return span


def ideal_commutator(U: HopfSubalgebra,
                     bound: Optional[int] = None) -> EchelonSpan:
    """Window of the two-sided ideal [U,U] of U generated by commutators,
    built once per bound and kept on U: the echelon span of u[g_i, g_j]u'
    over the generators g_i, g_j and the basis words u, u' of U extended
    to the bound, with total length inside the bound.  That is the span
    of every u[v, w]u' over basis words, because [xy, z] = x[y, z] +
    [x, z]y writes a commutator of words as generator commutators
    sandwiched between words of the same total length, and every word
    lies in the span of basis words no longer than itself."""
    if bound is None:
        bound = U.degree_bound
    span = U._ideals.get(bound)
    if span is None:
        W = U.extend(bound)
        span = U._ideals[bound] = EchelonSpan()
        gens = W.generators
        comms = [c for i, gi in enumerate(gens) for gj in gens[i + 1:]
                 if not (c := gi * gj - gj * gi).is_zero()]
        for c in comms:
            for wl, el_l in zip(W.basis_words, W.basis):
                if len(wl) + 2 > bound:
                    continue
                left = el_l * c
                for wr, el_r in zip(W.basis_words, W.basis):
                    if len(wl) + 2 + len(wr) <= bound:
                        span.add((left * el_r).data)
    return span


# -- strong coisotropy of Hopf subalgebras -----------------------------------


class CoisoReport:
    """Three-valued answer of a windowed membership computation."""

    def __init__(self, status: str, window: Dict, witness=None,
                 details: Optional[Dict] = None):
        if status not in ("true", "false", "inconclusive", "skipped"):
            raise ValueError("unknown status %r" % (status,))
        self.status = status
        self.window = window
        self.witness = witness
        self.details = details or {}

    def __repr__(self):
        return "CoisoReport(%s, window=%s)" % (self.status, self.window)

    def to_json(self) -> Dict:
        out = {"status": self.status, "window": dict(self.window)}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details:
            out["details"] = self.details
        return out


def _window_bound(U: HopfSubalgebra) -> int:
    """The coproduct of a degree-d word has legs of degree up to d plus
    the truncation order, so the window of U is built to that bound."""
    return U.degree_bound + U.ctx.order - 1


def _three_valued(residuals, window: Dict, bound: int,
                  witness) -> CoisoReport:
    """``true`` when residuals(bound) is empty, or becomes empty at
    bound + SLACK; else ``false`` when the residuals are stable under that
    enlargement and ``inconclusive`` when they are not, with
    witness(*first residual) of the enlarged window.  The report window
    records the bound as both its span and its h bound."""
    res = residuals(bound)
    if not res:
        return CoisoReport("true", window)
    res2 = residuals(bound + SLACK)
    if not res2:
        window["span_bound"] = window["h_bound"] = bound + SLACK
        return CoisoReport("true", window)
    status = "false" if res2 == res else "inconclusive"
    return CoisoReport(status, window, witness(*res2[0]))


def _membership(U: HopfSubalgebra, targets, side: str,
                extra_window: Dict) -> CoisoReport:
    bound = _window_bound(U)
    window = {"degree_bound": U.degree_bound, "span_bound": bound,
              "h_bound": bound, "order": U.ctx.order, "side": side}
    window.update(extra_window)

    def residuals(b: int):
        """(label, nonzero residual) for each target outside the window."""
        span = U.membership_window(b, side)
        return [(label, r) for label, t in targets
                if (r := span.reduce(t.data))]

    return _three_valued(
        residuals, window, bound,
        lambda label, residual: {
            "element": str(label),
            "residual_terms": sorted(map(str, _hbar_terms(residual)))[:8],
            "residual_size": len(_hbar_terms(residual)),
        })


def strong_coiso_hopf(U: HopfSubalgebra, side: str = "right") -> CoisoReport:
    """Does Delta(u) lie in U(x)U + H(x)[U,U] (right) resp.
    U(x)U + [U,U](x)H (left) for every cached basis element u?

    The target span is built from an enlarged copy of U (the coproduct
    of a degree-d word has legs of degree up to d plus the truncation
    order), so a ``true`` answer is exact within the window.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left', got %r" % (side,))
    targets = [("Delta(%s)" % ".".join(U.names[g] for g in w) if w
                else "Delta(1)", coproduct(u))
               for w, u in zip(U.basis_words, U.basis)]
    return _membership(U, targets, side, {})


def r_membership_hopf(U: HopfSubalgebra, R: UqTensor) -> CoisoReport:
    """Membership R in U(x)U + H(x)[U,U] mod hbar^K within the window.
    When it holds, the tensor powers of U stay right strongly
    coisotropic for the twisted coproducts (see
    ``strong_coiso_twisted``)."""
    return _membership(U, [("R", R)], "right", {"target": "R"})


# -- strong coisotropy of U^(x)m in the twisted tensor power -----------------


def _monomial_support(span: EchelonSpan) -> Optional[set]:
    """If every echelon row is a single coordinate with pivot entry 1, the
    span is the module of all vectors supported on those coordinates;
    return its set of monomials (else None).  A single-coordinate row with
    pivot entry hbar^w, w > 0, holds only the hbar^w multiples of its
    monomial, so it gives None too."""
    monos = set()
    for piv, row in span.rows.items():
        if len(row) != 1 or row[piv] != 1:
            return None
        (m,), = row.keys()
        monos.add(m)
    return monos


class MonomialWindow:
    """U^(x)m (x) U^(x)m + H^(x)m (x) [U^(x)m, U^(x)m] (right) or its left
    twin at a bound, for U and its commutator ideal monomial spans with
    monomial sets u_monos and i_monos: the module of the vectors supported
    on the keys ``ok`` accepts (m = 1 is the window of
    ``HopfSubalgebra.window``).  reduce(v) is what the min-pivot echelon
    span of that window leaves of v: the entries whose keys fail ``ok``,
    in ascending key order."""

    def __init__(self, u_monos: set, i_monos: set, bound: int,
                 side: str = "right", m: int = 1):
        self.u_monos = u_monos
        self.i_monos = i_monos
        self.bound = bound
        self.side = side
        self.m = m

    def ok(self, key: Tuple) -> bool:
        """Every monomial of key lies in U, or the H block (the first m
        legs on the right side, the last m on the left) is bounded by the
        bound and the other block lies in U with a monomial in [U,U]."""
        if self.u_monos.issuperset(key):
            return True
        m = self.m
        h, rest = ((key[:m], key[m:]) if self.side == "right"
                   else (key[m:], key[:m]))
        return (all(sum(mono) <= self.bound for mono in h)
                and self.u_monos.issuperset(rest)
                and not self.i_monos.isdisjoint(rest))

    def reduce(self, v: Dict) -> Dict:
        ok = self.ok
        return {k: v[k] for k in sorted(k for k in v if not ok(k))}

    def contains(self, v: Dict) -> bool:
        return all(map(self.ok, v))


def _monomial_window(U: HopfSubalgebra, bound: int, side: str,
                     m: int = 1) -> Optional[MonomialWindow]:
    """The ``MonomialWindow`` of U at the bound when U extended to it and
    the commutator ideal at it are monomial spans, else None."""
    u_monos = _monomial_support(U.extend(bound).span)
    i_monos = _monomial_support(ideal_commutator(U, bound))
    if u_monos is None or i_monos is None:
        return None
    return MonomialWindow(u_monos, i_monos, bound, side, m)


def _twisted_word_images(th: TwistedHopf, U: HopfSubalgebra,
                         words: Sequence[Word]) -> List[Dict[Word, UqTensor]]:
    """images[j][w] = Delta_J of the basis element of word w placed in
    factor j, for every word of words, each listed after its prefix.
    Delta_J = J^-1 Delta J is multiplicative mod hbar^K and a basis
    element is the ordered product of its word's generators, so each
    image is the product of the twisted images of those generators."""
    m = th.m
    images = []
    for j in range(m):
        gens = [th.delta(g.embed(m, (j,))) for g in U.generators]
        image = {(): tensor_one(U.ctx, 2 * m)}
        for w in words:
            if w not in image:
                image[w] = image[w[:-1]] * gens[w[-1]]
        images.append(image)
    return images


def strong_coiso_twisted(U: HopfSubalgebra, R: UqTensor,
                         m: int = 2) -> CoisoReport:
    """Direct verification that U^(x)m is right strongly coisotropic in
    the m-fold tensor power with coproduct twisted by the closed-formula
    twisting element of R:

        Delta_J(u) in (U^(x)m)(x)(U^(x)m) + (H^(x)m)(x)[U^(x)m, U^(x)m],

    where [U^(x)m, U^(x)m] = sum_j U(x)..(x)[U,U]_j(x)..(x)U.  Checked on
    tensors of basis words of per-factor length <= CHECK_BOUND, in the
    window of bound CHECK_BOUND + 2(K - 1) at truncation order K.
    Delta_J of a tensor u_1 (x) .. (x) u_m is the ordered product of the
    twisted images of u_j in factor j (``_twisted_word_images``), so J
    conjugates only the generators.  Requires the U- and ideal-windows to
    be monomial spans (true for the triangular subalgebras this is used
    on), so that membership is the per-key predicate of a
    ``MonomialWindow`` on 2m legs and the product window never has to be
    enumerated."""
    ctx = U.ctx
    bound = CHECK_BOUND + 2 * (ctx.order - 1)
    window = {"m": m, "check_bound": CHECK_BOUND, "span_bound": bound,
              "h_bound": bound, "order": ctx.order}

    th = TwistedHopf(twi_m(R, m), m)
    check_words = [w for w in U.extend(CHECK_BOUND).basis_words
                   if len(w) <= CHECK_BOUND]
    images = _twisted_word_images(th, U, check_words)

    def residuals(b: int):
        win = _monomial_window(U, b, "right", m)
        if win is None:
            raise ValueError(
                "tensor-power window requires monomial U- and ideal-spans"
            )
        out = []
        for combo in itertools.product(check_words, repeat=m):
            d = images[0][combo[0]]
            for j in range(1, m):
                d = d * images[j][combo[j]]
            bad = list(win.reduce(d.data))
            if bad:
                label = " (x) ".join(
                    ".".join(U.names[g] for g in w) or "1" for w in combo
                )
                out.append((label, bad))
        return out

    return _three_valued(
        residuals, window, bound,
        lambda label, bad: {"element": label,
                            "residual_terms": [str(k) for k in bad[:8]]})


# -- characters and their monoid ---------------------------------------------


class Character:
    """Algebra character of a Hopf-subalgebra window, stored by its
    values on the generators and validated on the cached basis."""

    def __init__(self, U: HopfSubalgebra, values: Sequence):
        if len(values) != len(U.generators):
            raise ValueError("%d values for %d generators"
                             % (len(values), len(U.generators)))
        self.U = U
        order = U.ctx.order
        self.values = [
            v if isinstance(v, TruncatedSeries) else TruncatedSeries.const(v, order)
            for v in values
        ]

    def __eq__(self, other):
        return (isinstance(other, Character) and self.U is other.U
                and self.values == other.values)

    def __repr__(self):
        return "Character(%s)" % ", ".join(
            "%s=%s" % (n, v) for n, v in zip(self.U.names, self.values)
        )

    def on_word(self, word: Word) -> TruncatedSeries:
        out = self.U.ctx.one_series()
        for gi in word:
            out = out * self.values[gi]
        return out

    def on_vector(self, v: Dict) -> Optional[TruncatedSeries]:
        """Value on the element of the window whose data dict is v (an
        element's data or an echelon row of a span of elements), through
        its coordinates over U's basis; None when v is outside the
        window."""
        residual, coords = self.U.coordinates().coefficients(v)
        return None if residual else _on_combination(
            self, self.U.basis_words, coords)

    def is_valid(self) -> bool:
        """Multiplicative on the cached basis and vanishing on the echelon
        rows of U's commutator-ideal window at its degree bound, which
        generate that window."""
        U = self.U
        for i, (wi, bi) in enumerate(zip(U.basis_words, U.basis)):
            for wj, bj in zip(U.basis_words, U.basis):
                if len(wi) + len(wj) > U.degree_bound:
                    continue
                got = self.on_vector((bi * bj).data)
                if got is None or got != self.on_word(wi) * self.on_word(wj):
                    return False
        for row in ideal_commutator(U).rows.values():
            v = self.on_vector(row)
            if v is None or not v.is_zero():
                return False
        return True


def _on_combination(chi: Character, words: Sequence[Word],
                    combo: Dict) -> TruncatedSeries:
    """sum chi(words[i]) c over coordinates i -> c on a basis of words."""
    out = chi.U.ctx.zero_series()
    for i, c in combo.items():
        out = out + chi.on_word(words[i]) * c
    return out


def counit_character(U: HopfSubalgebra) -> Character:
    return Character(U, [counit(g) for g in U.generators])


def borel_subalgebra(ctx: UqContext, degree_bound: int = 4) -> HopfSubalgebra:
    """The Hopf subalgebra generated by H and E (the quantized positive
    Borel of sl2)."""
    return HopfSubalgebra(ctx, [uq_gen(ctx, "H"), uq_gen(ctx, "E")],
                          degree_bound, names=["H", "E"])


def weight_character(U: HopfSubalgebra, n: int) -> Character:
    """The character by which the weight-n highest-weight block of the
    quantized function algebra transforms under the right action
    c_{xi,v} . y = c_{xi, S(y)v}, read off each generator's PBW terms:
    chi_n(F^a H^b E^c) = (-n)^b when a = c = 0, and 0 otherwise (H acts by
    -n, E and F by their counit 0), whatever the generators are named."""
    zero = U.ctx.zero_series()
    return Character(U, [
        sum((s * (-n) ** b for ((a, b, c),), s in g.data.items()
             if a == c == 0), zero)
        for g in U.generators])


class CharacterMonoid:
    """Monoid structure on characters of a right strongly coisotropic
    window: (phi psi)(g) = sum s phi~(x) psi~(y) over the terms s x(x)y of
    Delta(g), for each generator g, with phi~ and psi~ any linear
    extensions of phi and psi to H.  This is (phi (x) psi)(reduced
    Delta(g)): Delta(g) = sum u_i (x) v_i + sum h (x) c with c in [U,U],
    which psi kills.  phi~(x) is phi of x - reduce(x), the part of the
    monomial x along U's basis at the window bound, read off that basis's
    coordinates in one reduction.  Every product is read from a min- and
    a max-pivot span, and the two answers must agree; Delta(g) must lie
    in the shared right membership window (``membership_window``, a
    ``MonomialWindow`` whenever U is monomial)."""

    def __init__(self, U: HopfSubalgebra, precheck: bool = True):
        bound = _window_bound(U)
        if precheck:
            rep = strong_coiso_hopf(U, "right")
            if rep.status != "true":
                raise ValueError(
                    "character monoid requires a right strongly coisotropic "
                    "window (got %s)" % rep.status
                )
            bound = rep.window["span_bound"]
        self.U = U
        window = U.membership_window(bound, "right")
        self.inside = all(window.contains(coproduct(g).data)
                          for g in U.generators)
        W = U.extend(bound)
        self.words = W.basis_words
        # each with its memo: monomial -> coordinates
        self.spans = [(W.coordinates(pivot), {}) for pivot in (min, max)]

    @property
    def unit(self) -> Character:
        return counit_character(self.U)

    def _extension(self, span: EchelonSpan, combos: Dict,
                   chi: Character, x) -> TruncatedSeries:
        """chi~(x) for a monomial x, through span."""
        combo = combos.get(x)
        if combo is None:
            combo = combos[x] = span.coefficients(
                {(x,): self.U.ctx.one_series()})[1]
        return _on_combination(chi, self.words, combo)

    def product(self, phi: Character, psi: Character) -> Character:
        if not self.inside:
            raise ValueError("coproduct of a generator left the window")
        values = []
        for g in self.U.generators:
            answers = []
            for span, combos in self.spans:
                v = self.U.ctx.zero_series()
                for (x, y), s in coproduct(g).data.items():
                    v = v + (s * self._extension(span, combos, phi, x)
                             * self._extension(span, combos, psi, y))
                answers.append(v)
            if answers[0] != answers[1]:
                raise AssertionError(
                    "character product depends on the pivot order")
            values.append(answers[0])
        return Character(self.U, values)


# -- graded semi-invariants of the quantized function algebras ---------------


def q_evaluate(f: BlockFunction, *us: UqElement) -> TruncatedSeries:
    """Evaluate a matrix-coefficient function on a tensor of quantum
    group elements (one per factor): c_{xi,v}(u) = <u.xi, v> with the
    antipode-twisted dual action, the pairing under which the product of
    the function algebra is the convolution."""
    qctx = f.ctx
    if len(us) != f.m:
        raise ValueError("%d elements for a function on %d factors"
                         % (len(us), f.m))
    out = qctx.uq.zero_series()
    for key, blk in f.blocks.items():
        # entry (xi, v) of rho(S(u)) is row xi of its column v
        cols = [qctx.slot_action(key[j], u, "right") for j, u in enumerate(us)]
        for idx, s in blk.items():
            for j, lines in enumerate(cols):
                e = lines[idx[2 * j + 1]].get(idx[2 * j])
                if e is None or not (s := s * e):
                    break
            else:
                out = out + s
    return out


def semi_invariants(qctx: QAffineContext, U: HopfSubalgebra,
                    chis: Sequence[Character],
                    weight_bound: int) -> List[BlockFunction]:
    """Generators of the module {f in the weight window : f.u = chi_j(u) f
    on each factor j}, on m = len(chis) factors, one unknown per window
    entry (key, idx): the kernel generators (linalg.sparse_nullspace) of
    the map taking each entry c to its residuals c.g - chi_j(g) c, keyed
    (j, gi, key, idx').  The column of an entry is read off the lines of
    ``QAffineContext.slot_action`` for g on the vector slot of factor j,
    with -chi_j(g) on the diagonal.  The eigencondition is enforced on the
    generators g of U, which suffices: the right action is multiplicative
    and the character values extend multiplicatively.  Each character
    must be one of a subalgebra with U's generators, since its values are
    read by generator index."""
    if any(chi.U.generators != U.generators for chi in chis):
        raise ValueError("a character of a subalgebra with generators "
                         "other than U's")
    m = len(chis)
    lines = [[qctx.slot_action((n,), g, "right") for g in U.generators]
             for n in range(weight_bound + 1)]
    diag = [[-v for v in chi.values] for chi in chis]

    def column(key, idx):
        for j, ((n,), minus_chi) in enumerate(zip(key, diag)):
            slot = 2 * j + 1
            head, tail = idx[:slot], idx[slot + 1:]
            for gi, acts in enumerate(lines[n]):
                for s, a in acts[idx[slot]].items():
                    yield (j, gi, key, head + (s,) + tail), a
                yield (j, gi, key, idx), minus_chi[gi]

    # the entries in the window, a dual and a vector index per factor
    entries = [(key, idx)
               for ns in itertools.product(range(weight_bound + 1), repeat=m)
               for key in [tuple((n,) for n in ns)]
               for idx in itertools.product(
                   *(range(n + 1) for n in ns for _ in (0, 1)))]
    out = []
    for kv in sparse_nullspace([vec_sum(column(*e)) for e in entries],
                               qctx.uq.one_series()):
        blocks: Dict = {}
        for e, c in kv.items():
            key, idx = entries[e]
            blocks.setdefault(key, {})[idx] = c
        out.append(BlockFunction(qctx, m, blocks))
    return out


def is_eigenfunction(f: BlockFunction, chis: Sequence[Character]) -> bool:
    """f.u = chi_j(u) f for every cached basis element u of U, on every
    factor j, where U is the window of the characters chis.  Each u acts
    as one element (act_factor), which is the action of its word letter
    by letter since (c.y1).y2 = c.(y1 y2)."""
    for j, chi in enumerate(chis):
        for w, u in zip(chi.U.basis_words, chi.U.basis):
            if act_factor(f, j, u, "right") != f.scale(chi.on_word(w)):
                return False
    return True


def _fn_span(fns: List[BlockFunction]) -> EchelonSpan:
    span = EchelonSpan()
    for f in fns:
        span.add(qfun_vec(f))
    return span


def _products_inside(fs: List[BlockFunction], gs: List[BlockFunction],
                     span: EchelonSpan, product) -> bool:
    """Does product(f, g) lie in span for every f of fs and g of gs?"""
    return all(span.contains(qfun_vec(product(f, g))) for f in fs for g in gs)


def semi_invariant_product_check(monoid: CharacterMonoid,
                                 qctx: QAffineContext,
                                 chis1: Sequence[Character],
                                 chis2: Sequence[Character],
                                 weight_bound: int,
                                 product=q_multiply) -> bool:
    """A^{chis1} A^{chis2} lands in A^{chis1 chis2} on the window, with
    one character per factor and the characters multiplied factorwise
    (products whose weights leave the window are excluded by choosing
    the bound large enough for the inputs used)."""
    chis12 = [monoid.product(c1, c2)
              for c1, c2 in zip(chis1, chis2, strict=True)]
    a1, a2, a12 = (semi_invariants(qctx, monoid.U, chis, weight_bound)
                   for chis in (chis1, chis2, chis12))
    return _products_inside(a1, a2, _fn_span(a12), product)


# -- quantum sections ---------------------------------------------------------


def restriction_character(d: BlockFunction, U: HopfSubalgebra) -> Character:
    """p(d): the restriction of the evaluation functional of d to U,
    recorded by its values on the generators.  A character precisely
    when d is a prequantum section.  A function on m != 1 factors is
    refused by ``q_evaluate``."""
    return Character(U, [q_evaluate(d, g) for g in U.generators])


def prequantum_check(d: BlockFunction, U: HopfSubalgebra) -> CoisoReport:
    """Windowed test of Delta(d) in d(x)d + ker(p)(x)A, where p restricts
    matrix coefficients to U.  With ker(p) realized as the annihilator
    of the U-window under the evaluation pairing, the condition is
    equivalent to the eigenproperty d.u = p(d)(u) d for every cached
    basis element u of U (apply evaluation at u to the first leg:
    coproduct terms in ker(p)(x)A die, Delta(d) gives d.u, and d(x)d
    gives p(d)(u) d).  d.u is the right action of u as one element
    (act_factor), as in ``is_eigenfunction``."""
    window = {"degree_bound": U.degree_bound, "order": U.ctx.order,
              "weights": [list(k) for k in d.weight_keys()]}
    # q_evaluate refuses a function on m != 1 factors, zero or not
    at_one = q_evaluate(d, uq_one(U.ctx))
    if d.is_zero():
        return CoisoReport("false", window, {"element": "d", "reason": "zero"})
    if at_one != U.ctx.one_series():
        return CoisoReport("false", window,
                           {"element": "d", "reason": "d(1) != 1"})
    for w, u in zip(U.basis_words, U.basis):
        lhs = act_factor(d, 0, u, "right")
        rhs = d.scale(q_evaluate(d, u))
        if lhs != rhs:
            name = ".".join(U.names[g] for g in w) or "1"
            return CoisoReport(
                "false", window,
                {"element": name,
                 "reason": "d.u is not proportional to d with ratio p(d)(u)"},
            )
    return CoisoReport("true", window)


def quantum_section_check(d: BlockFunction, U: HopfSubalgebra,
                          monoid: CharacterMonoid, n_max: int = 3
                          ) -> Tuple[CoisoReport, CoisoReport]:
    """The pair (prequantum, graded): the prequantum test for d, then the
    graded structure.  For each n <= n_max the degree-n sections computed
    from the coproduct condition (equivalently, the p(d^n)-eigenspace of
    the right action) must coincide with the semi-invariants of the
    monoid power p(d)^n, and products of sections must land in the
    correct degree.  The weight window is n_max times the largest weight
    of d; once the sections are built, the graded report's details hold
    their Q-dimensions as "dims".  The prequantum test runs first, so a
    function on m != 1 factors is refused before any window is built."""
    qctx = d.ctx
    pre = prequantum_check(d, U)
    window = {"n_max": n_max, "order": U.ctx.order}
    if pre.status != "true" or strong_coiso_hopf(U, "left").status != "true":
        return pre, CoisoReport("skipped", window)

    weight_bound = window["weight_bound"] = n_max * max(
        (key[0][0] for key in d.weight_keys()), default=0)
    chi = restriction_character(d, U)
    if not chi.is_valid():
        return pre, CoisoReport("false", window,
                                {"reason": "p(d) is not a character"})

    spaces: List[List[BlockFunction]] = []  # module generators
    spans: List[EchelonSpan] = []
    dn = pw_one(qctx, 1)
    chin = monoid.unit
    for n in range(n_max + 1):
        if n:
            dn = q_multiply(dn, d)
            chin = monoid.product(chin, chi)
        # p(d^n) = p(d)^n: the monoid power evaluates d^n on the generators
        evals = [q_evaluate(dn, g) for g in U.generators]
        if evals != chin.values:
            return pre, CoisoReport(
                "false", window, {"reason": "p(d^%d) != p(d)^%d" % (n, n)})
        spaces.append(semi_invariants(qctx, U, (chin,), weight_bound))
        spans.append(_fn_span(spaces[n]))
        if n and not spans[n].contains(qfun_vec(dn)):
            return pre, CoisoReport(
                "false", window,
                {"reason": "d^%d outside its section space" % n})
    details = {"dims": [len(span) for span in spans]}  # over Q
    for a in range(n_max + 1):
        for b in range(n_max + 1 - a):
            if not _products_inside(spaces[a], spaces[b], spans[a + b],
                                    q_multiply):
                return pre, CoisoReport(
                    "false", window,
                    {"reason": "product of degrees (%d, %d) left degree %d"
                               % (a, b, a + b)}, details)
    return pre, CoisoReport("true", window, details=details)


# -- classical shadow ---------------------------------------------------------


def classical_shadow(U: HopfSubalgebra):
    """The Lie subalgebra of sl2 whose basis elements lie in the window
    mod hbar; lets the quantum coisotropy data be compared with the
    classical test on the semiclassical limit."""
    from .liebialg import Subspace, basis_tensor, build_sl

    alg = build_sl(2)
    gen_mono = sl2_generator_monos(alg)
    vectors = []
    for idx in range(alg.dim):
        x = UqElement(U.ctx, {gen_mono[idx]: 1})
        if U.contains(x):
            vectors.append(basis_tensor(alg, idx))
    return Subspace(alg, vectors)
