"""Strongly coisotropic Hopf subalgebras, character monoids, graded
semi-invariants, and quantum-section checks."""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qaffine.coiso import (
    SLACK, Character, CharacterMonoid, HopfSubalgebra, MonomialWindow,
    _fn_span, _hbar_terms, _h_monomials, _monomial_support,
    borel_subalgebra, classical_shadow, counit_character, ideal_commutator,
    is_eigenfunction, q_evaluate, qfun_vec,
    quantum_section_check, r_membership_hopf, semi_invariant_product_check,
    semi_invariants, strong_coiso_hopf, strong_coiso_twisted,
    weight_character,
)
from qaffine.cgx import (
    BlockFunction, act_factor, hw_coefficient, matrix_coefficient, pw_one,
    pw_tensor,
)
from qaffine.kernel import TruncatedSeries
from qaffine.linalg import EchelonSpan, sparse_nullspace
from qaffine.que import (
    QAffineContext, antipode, coproduct, q_multiply, UqContext, UqElement,
    quantum_affine_multiply, r_matrix_sl2, tensor_of, uq_gen, uq_one,
)
from qaffine.liebialg import standard_r, strongly_coisotropic_lie
from tracked_span import TrackedSpan

F = Fraction


@pytest.fixture(scope="module")
def ctx():
    return UqContext(3)


@pytest.fixture(scope="module")
def U(ctx):
    return borel_subalgebra(ctx, 4)


@pytest.fixture(scope="module")
def R(ctx):
    return r_matrix_sl2(ctx)


@pytest.fixture(scope="module")
def qctx(ctx):
    return QAffineContext(ctx)


@pytest.fixture(scope="module")
def mon(U):
    return CharacterMonoid(U)


def test_borel_window_is_closed(ctx, U):
    """A product of basis words that leaves the window exceeds its word
    length: inside the bound the word construction is closed."""
    for wu, u in zip(U.basis_words, U.basis):
        for wv, v in zip(U.basis_words, U.basis):
            assert U.contains(u * v) or len(wu) + len(wv) > U.degree_bound
    assert U.contains(uq_gen(ctx, "H") * uq_gen(ctx, "E"))
    assert not U.contains(uq_gen(ctx, "F"))


def test_commutator_ideal(ctx, U):
    ideal = ideal_commutator(U)
    assert ideal.contains(uq_gen(ctx, "E").data)  # since [H, E] = 2E
    # window monotonicity: a larger bound never shrinks the span
    bigger = ideal_commutator(U, 5)
    for row in ideal.basis():
        assert bigger.contains(row)
    # a commutative window has a zero ideal
    Uh = HopfSubalgebra(ctx, [uq_gen(ctx, "H")], 4, names=["H"])
    assert not ideal_commutator(Uh).rows


@pytest.mark.parametrize("K", [2, 3])
def test_ideal_below_the_degree_bound_filters_words_by_length(K):
    """At a bound below U's degree bound, extend returns U itself and the
    ideal keeps only the words within the bound: it equals the ideal of
    the subalgebra built at that bound."""
    uq = UqContext(K)
    for names in ("HE", "EF", "HF"):
        gens = [uq_gen(uq, c) for c in names]
        U6 = HopfSubalgebra(uq, gens, 6, names=list(names))
        for b in (2, 3, 4):
            assert U6.extend(b) is U6
            got = ideal_commutator(U6, b)
            want = ideal_commutator(HopfSubalgebra(uq, gens, b, list(names)), b)
            assert got.equals(want) and len(got) == len(want), (names, b)


def _build_state(U: HopfSubalgebra):
    """Everything a build leaves on U, in order: the basis words, the keys
    and coefficients of the basis, and the echelon rows by pivot."""
    return (U.degree_bound, U.basis_words,
            [list(u.data.items()) for u in U.basis],
            [(p, list(r.items())) for p, r in U.span.rows.items()])


@pytest.mark.parametrize("K", [2, 3, 4])
def test_extend_goes_on_from_the_words_u_holds(K):
    """extend re-inserts U's basis and expands only its longest basis
    words; the result must be the subalgebra built fresh at the larger
    bound, for the Borel <H, E>, <F> and <H, F>, extended once or twice."""
    uq = UqContext(K)
    for names in ("HE", "F", "HF"):
        gens = [uq_gen(uq, c) for c in names]
        fresh = {b: _build_state(HopfSubalgebra(uq, gens, b, list(names)))
                 for b in range(5)}
        for low, highs in ((0, (2,)), (1, (3,)), (2, (4,)), (1, (2, 4))):
            U = HopfSubalgebra(uq, gens, low, list(names))
            for high in highs:
                U = U.extend(high)
                assert _build_state(U) == fresh[high], (names, low, high)


def test_strong_coisotropy(ctx, U):
    assert strong_coiso_hopf(U, "right").status == "true"
    assert strong_coiso_hopf(U, "left").status == "true"
    whole = HopfSubalgebra(ctx, [uq_gen(ctx, g) for g in "FHE"], 2,
                           names=["F", "H", "E"])
    assert strong_coiso_hopf(whole, "right").status == "true"


def test_strong_coisotropy_negative_witness(ctx):
    Uf = HopfSubalgebra(ctx, [uq_gen(ctx, "F")], 4, names=["F"])
    rep = strong_coiso_hopf(Uf, "right")
    assert rep.status == "false"
    assert rep.witness["element"] == "Delta(F)"
    js = rep.to_json()
    assert js["status"] == "false" and js["witness"]


def test_r_membership(ctx, U, R):
    assert r_membership_hopf(U, R).status == "true"
    whole = HopfSubalgebra(ctx, [uq_gen(ctx, g) for g in "FHE"], 2,
                           names=["F", "H", "E"])
    assert r_membership_hopf(whole, R).status == "true"
    Uf = HopfSubalgebra(ctx, [uq_gen(ctx, "F")], 4, names=["F"])
    assert r_membership_hopf(Uf, R).status == "false"


def test_twisted_square_strongly_coisotropic(U, R):
    assert strong_coiso_twisted(U, R, 2).status == "true"


def test_classical_shadow(U):
    sh = classical_shadow(U)
    assert len(sh.span) == 2
    res = strongly_coisotropic_lie(sh, standard_r(sh.alg).r)
    assert res["strongly"]


def test_character_monoid(U, mon):
    eps = counit_character(U)
    assert eps.is_valid()
    z = {n: weight_character(U, n) for n in range(5)}
    assert all(zz.is_valid() for zz in z.values())
    for n in (1, 2):
        for l in (1, 2):
            assert mon.product(z[n], z[l]) == z[n + l]
    assert mon.product(eps, z[1]) == z[1]
    assert mon.product(z[1], eps) == z[1]
    assert mon.product(mon.product(z[1], z[2]), z[1]) == \
        mon.product(z[1], mon.product(z[2], z[1]))


def test_character_monoid_requires_strong_coisotropy(ctx):
    Uf = HopfSubalgebra(ctx, [uq_gen(ctx, "F")], 4, names=["F"])
    with pytest.raises(ValueError):
        CharacterMonoid(Uf)


def test_invariants_window(qctx, U):
    eps = counit_character(U)
    inv = semi_invariants(qctx, U, (eps,), 2)
    # the constants only: one generator, of Q-dimension K
    assert len(inv) == 1
    assert len(_fn_span(inv)) == qctx.uq.order
    assert _fn_span(inv).contains(qfun_vec(pw_one(qctx, 1)))


def test_weight_one_semi_invariants(qctx, U):
    z1 = weight_character(U, 1)
    got = semi_invariants(qctx, U, (z1,), 2)
    expect = [hw_coefficient(qctx, (1,), {a: 1}) for a in range(2)]
    assert _fn_span(got).equals(_fn_span(expect))
    eps = counit_character(U)
    assert all(is_eigenfunction(f, (eps,))
               for f in semi_invariants(qctx, U, (eps,), 2))
    assert all(is_eigenfunction(f, (z1,)) for f in got)


def test_semi_invariant_products_close(qctx, U, mon):
    z1 = weight_character(U, 1)
    assert semi_invariant_product_check(mon, qctx, (z1,), (z1,), 2)


def test_m2_semi_invariants_are_affine_blocks(qctx, U, mon):
    z1 = weight_character(U, 1)
    got = semi_invariants(qctx, U, (z1, z1), 1)
    expect = [pw_tensor([hw_coefficient(qctx, (1,), {a: 1}),
                         hw_coefficient(qctx, (1,), {b: 1})])
              for a in range(2) for b in range(2)]
    assert _fn_span(got).equals(_fn_span(expect))
    eps = counit_character(U)
    assert semi_invariant_product_check(
        mon, qctx, (z1, eps), (eps, z1), 2,
        product=quantum_affine_multiply)


def test_evaluation_pairing(qctx, U, ctx):
    phi = hw_coefficient(qctx, (1,), {1: 1})
    # pairing against F hits the lowered vector
    val = q_evaluate(phi, uq_gen(ctx, "F"))
    assert not val.is_zero()
    assert q_evaluate(phi, uq_gen(ctx, "E")).is_zero()


def test_quantum_sections(qctx, U, mon):
    d = hw_coefficient(qctx, (1,), {0: 1})
    pre, graded = quantum_section_check(d, U, mon, n_max=3)
    assert pre.status == "true"
    assert graded.status == "true"
    # Q-dimensions K (n + 1) of the degree-n sections, n <= 3, at K = 3
    assert graded.details["dims"] == [3, 6, 9, 12]
    pre1, graded1 = quantum_section_check(pw_one(qctx, 1), U, mon, n_max=2)
    assert pre1.status == "true"
    assert graded1.status == "true"


def test_quantum_section_negative(qctx, U, mon):
    dbad = matrix_coefficient(qctx, (2,), {0: 1}, {1: 1})
    pre, _ = quantum_section_check(dbad, U, mon, n_max=2)
    assert pre.status == "false"


# Each expression hands a coiso entry point an input it must reject.  The
# monoid is built on a subalgebra of its own, so U starts with no window.
_BAD_INPUT_SETUP = (
    "from qaffine.cgx import BlockFunction, pw_one, pw_tensor\n"
    "from qaffine.coiso import (\n"
    "    Character, CharacterMonoid, CoisoReport, borel_subalgebra,\n"
    "    prequantum_check, q_evaluate, quantum_section_check,\n"
    "    restriction_character, strong_coiso_hopf)\n"
    "from qaffine.que import QAffineContext, UqContext, uq_one\n"
    "ctx = UqContext(2)\n"
    "U = borel_subalgebra(ctx, 1)\n"
    "mon = CharacterMonoid(borel_subalgebra(ctx, 1))\n"
    "qctx = QAffineContext(ctx)\n"
    "f2 = pw_tensor([pw_one(qctx, 1), pw_one(qctx, 1)])\n"
    "z2 = BlockFunction(qctx, 2, {})\n"
)
_BAD_INPUTS = (
    "CoisoReport('maybe', {})",
    "strong_coiso_hopf(U, side='middle')",
    "Character(U, [1])",
    "q_evaluate(f2, uq_one(ctx))",
    "restriction_character(f2, U)",
    "prequantum_check(f2, U)",
    "quantum_section_check(f2, U, mon)",
    "prequantum_check(z2, U)",
    "quantum_section_check(z2, U, mon)",
)


def test_bad_inputs_are_rejected():
    env = {}
    exec(_BAD_INPUT_SETUP, env)
    for expr in _BAD_INPUTS:
        with pytest.raises(ValueError):
            eval(expr, env)
    # a function on two factors is refused before any window is built
    assert not env["U"]._windows and not env["U"]._ideals


def test_bad_inputs_are_rejected_under_optimization():
    """The checks are not asserts: they hold under `python -O` too."""
    code = _BAD_INPUT_SETUP + (
        "for expr in %r:\n"
        "    try:\n"
        "        eval(expr)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('accepted: ' + expr)\n" % (_BAD_INPUTS,))
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- the Q-coordinates through s.coeffs, kept as the reference --------------


def _flat(vec):
    """A series vector over Q, keyed by (key, hbar power)."""
    out = {}
    for key, s in vec.items():
        for k, c in enumerate(s.coeffs):
            if c != 0:
                out[(key, k)] = c
    return out


def _qfun_vec_ref(f):
    return {(key, idx): s for key, blk in f.blocks.items()
            for idx, s in blk.items()}


def _same_items(a, b):
    return list(a.items()) == list(b.items())


def test_flatteners_match_coefficient_reference(ctx, qctx, R):
    """The witness terms of a series vector are its Q-coordinates."""
    for name in ("E", "F", "H"):
        x = antipode(uq_gen(ctx, name) * uq_gen(ctx, "E"))
        assert _hbar_terms(x.data) == list(_flat(x.data))
    assert _hbar_terms(R.data) == list(_flat(R.data))
    f = hw_coefficient(qctx, (1,), {0: 1, 1: F(1, 3)})
    g = matrix_coefficient(qctx, (2,), {1: F(1, 2)}, {0: 1})
    for h in (q_multiply(f, g), q_multiply(g, f), pw_tensor([f, g])):
        assert _same_items(qfun_vec(h), _qfun_vec_ref(h))
        assert _hbar_terms(qfun_vec(h)) == list(_flat(_qfun_vec_ref(h)))


# -- the hbar-shift expansion over Q, the reference the windows were built ---
# -- on; hbar^k x by a series multiply is the reference for its key shift ----


def _hbar(ctx, k):
    return TruncatedSeries.hbar(ctx.order, k) if k else ctx.one_series()


def _hbar_shifts(vec, order):
    """The Q-coordinates of hbar^k x for k < order, from those of x: every
    key's hbar power raised by k, powers >= order dropped."""
    return [{(key, p + k): c for (key, p), c in _flat(vec).items()
             if p + k < order} for k in range(order)]


def _expand(span):
    """The Q-span of a series span: its rows and their hbar shifts, with
    the same pivot order."""
    out = EchelonSpan(pivot=span.pivot)
    for row in span.rows.values():
        for v in _hbar_shifts(row, next(iter(row.values())).order):
            out.add(v)
    return out


def _random_series(rng, K):
    """A random series of random valuation (K: the zero series)."""
    v = rng.randint(0, K)
    return TruncatedSeries(K, [0] * v + [
        F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(K - v)])


def test_hbar_shifts_match_series_scaling():
    rng = random.Random(19)
    monos = [(a, b, c) for a in range(2) for b in range(3) for c in range(2)]
    for K in range(1, 6):
        uq = UqContext(K)
        qctx = QAffineContext(uq)
        for _ in range(6):
            x = UqElement(uq, {rng.choice(monos): _random_series(rng, K)
                               for _ in range(rng.randint(1, 5))})
            y = UqElement(uq, {rng.choice(monos): _random_series(rng, K)
                               for _ in range(rng.randint(1, 5))})
            for t in (x, x * y, tensor_of([x, y])):
                shifts = _hbar_shifts(t.data, K)
                assert len(shifts) == K
                for k in range(K):
                    assert shifts[k] == _flat(t.scale(_hbar(uq, k)).data)
            blocks = {}
            for _ in range(rng.randint(1, 4)):
                ns = tuple((rng.randint(0, 2),) for _ in range(2))
                idx = tuple(rng.randint(0, n) for (n,) in ns for _ in range(2))
                blocks.setdefault(ns, {})[idx] = _random_series(rng, K)
            f = BlockFunction(qctx, 2, blocks)
            g = hw_coefficient(qctx, (1,), {0: _random_series(rng, K),
                                            1: _random_series(rng, K)})
            for h in (f, q_multiply(g, g)):
                shifts = _hbar_shifts(qfun_vec(h), K)
                for k in range(K):
                    assert shifts[k] == _flat(qfun_vec(h.scale(_hbar(uq, k))))


# -- the per-call window builders, kept as the reference for the shared ------
# -- windows: every call rebuilt U(x)U + H(x)[U,U] and its ideal from scratch -


class _IdealRef:
    def __init__(self, U, bound, elements, span):
        self.U = U
        self.bound = bound
        self.elements = elements
        self.span = span


def _ideal_commutator_ref(U, bound=None):
    if bound is None:
        bound = U.degree_bound
    ctx = U.ctx
    W = U.extend(bound)
    span = EchelonSpan()
    elements = []
    comms = []
    for i in range(len(W.basis)):
        li = len(W.basis_words[i])
        for j in range(i + 1, len(W.basis)):
            lj = len(W.basis_words[j])
            if li + lj > bound:
                continue
            c = W.basis[i] * W.basis[j] - W.basis[j] * W.basis[i]
            if not c.is_zero():
                comms.append((li + lj, c))
    for lc, c in comms:
        for wl, el_l in zip(W.basis_words, W.basis):
            if len(wl) + lc > bound:
                continue
            for wr, el_r in zip(W.basis_words, W.basis):
                if len(wl) + lc + len(wr) > bound:
                    continue
                el = el_l * c * el_r
                grew = False
                for k in range(ctx.order):
                    v = _flat(el.scale(_hbar(ctx, k)).data)
                    if span.add(v) and k == 0:
                        grew = True
                if grew:
                    elements.append(el)
    return _IdealRef(W, bound, elements, span)


def _window_span_ref(Uext, ideal, h_bound, side, track=False, pivot=min):
    ctx = Uext.ctx
    span = TrackedSpan(track=track, pivot=pivot)
    tags = []
    for i, u in enumerate(Uext.basis):
        for j, v in enumerate(Uext.basis):
            base = tensor_of([u, v])
            for k in range(ctx.order):
                span.add(_flat(base.scale(_hbar(ctx, k)).data))
                tags.append(("uu", i, j, k))
    for hm in _h_monomials(h_bound):
        x = UqElement(ctx, {hm: 1})
        for ci, c in enumerate(ideal.elements):
            base = tensor_of([x, c]) if side == "right" else tensor_of([c, x])
            for k in range(ctx.order):
                span.add(_flat(base.scale(_hbar(ctx, k)).data))
                tags.append(("ideal", hm, ci, k))
    return span, tags


class _ReducedCoproductRef:
    def __init__(self, U, span_bound=None, h_bound=None, key_order="lex"):
        ctx = U.ctx
        if span_bound is None:
            span_bound = U.degree_bound + ctx.order - 1
        if h_bound is None:
            h_bound = span_bound
        self.U = U
        self.Uext = U.extend(span_bound)
        self.ideal = _ideal_commutator_ref(self.Uext, span_bound)
        self.span, self.tags = _window_span_ref(
            self.Uext, self.ideal, h_bound, "right", track=True,
            pivot=min if key_order == "lex" else max,
        )

    def pair_value(self, phi, psi, x):
        combo = self.span.coefficients(_flat(coproduct(x).data))
        if combo is None:
            return None
        ctx = self.U.ctx
        out = ctx.zero_series()
        for gen_idx, c in combo.items():
            tag = self.tags[gen_idx]
            if tag[0] != "uu":
                continue
            _, i, j, k = tag
            out = out + (phi.on_word(self.Uext.basis_words[i])
                         * psi.on_word(self.Uext.basis_words[j])
                         * _hbar(ctx, k) * c)
        return out


def _product_ref(rc, rc_alt, phi, psi):
    """The character product of a monoid on two unshared reduced
    coproducts, the pivot-order recheck included."""
    values = []
    for g in phi.U.generators:
        v = rc.pair_value(phi, psi, g)
        assert v is not None and rc_alt.pair_value(phi, psi, g) == v
        values.append(v)
    return values


@pytest.fixture(scope="module")
def U3(ctx):
    return borel_subalgebra(ctx, 3)


@pytest.fixture(scope="module")
def ref_coproducts(U3):
    """Unshared min- and max-pivot reduced coproducts of the Borel window
    at K = 3, degree bound 3 (span and h bounds 5)."""
    return (_ReducedCoproductRef(U3, key_order="lex"),
            _ReducedCoproductRef(U3, key_order="rev"))


def test_shared_windows_match_per_call_builds(ctx, U3, ref_coproducts):
    bound = U3.degree_bound + ctx.order - 1
    fresh = borel_subalgebra(ctx, 3)
    left_ref, _ = _window_span_ref(
        fresh.extend(bound), _ideal_commutator_ref(fresh.extend(bound), bound),
        bound, "left")
    refs = {"right": ref_coproducts[0].span, "left": left_ref}
    ideal_ref = ref_coproducts[0].ideal
    targets = [coproduct(g) for g in U3.generators]
    outside_f = coproduct(uq_gen(ctx, "F"))  # outside every window
    for side, span in refs.items():
        win = U3.window(bound, side)
        # a plain span: the rows the reference engine builds, no more
        assert list(win.rows.items()) == \
            list(_full_loop_window(U3, bound, side).rows.items())
        assert _expand(win).equals(span) and len(win) == len(span)
        for t in targets + [outside_f]:
            assert bool(win.reduce(t.data)) == \
                (not span.contains(_flat(t.data)))
        assert win.reduce(outside_f.data)
        assert U3.window(bound, side) is win
        ideal = ideal_commutator(U3, bound)  # the one the window read
        assert ideal_commutator(U3, bound) is ideal
        assert _expand(ideal).equals(ideal_ref.span)
        assert len(ideal) == len(ideal_ref.span)
    # a tracked span has the rows of the untracked one
    untracked, _ = _window_span_ref(fresh.extend(bound), ideal_ref, bound,
                                    "right")
    assert untracked.equals(refs["right"])
    assert U3.extend(bound) is U3.extend(bound)


def _has_hbar_pivot(span):
    return any(row[p].valuation() for p, row in span.rows.items())


def test_generator_commutator_ideal_matches_all_pairs(ctx):
    """The ideal sandwiches only the generator commutators, yet spans the
    module of the commutators of every pair of basis words."""
    U = borel_subalgebra(ctx, 2)
    for bound in range(2, 7):
        ref = _ideal_commutator_ref(U, bound)
        got = ideal_commutator(U, bound)
        assert _expand(got).equals(ref.span) and len(got) == len(ref.span)


def test_row_built_windows_match_spanning_element_builds(ctx):
    """For <E,F> and <H,F>, whose rows include hbar^v pivots, the ideal
    matches the all-pairs build, and U(x)U + H(x)[U,U] and its left twin,
    built from echelon rows, span the module the tensors of every basis
    pair and every ideal element span."""
    hbar_pivots = False
    for names in ("EF", "HF"):
        for degree_bound in (1, 2):
            U = HopfSubalgebra(ctx, [uq_gen(ctx, c) for c in names],
                               degree_bound, names=list(names))
            bound = degree_bound + ctx.order - 1
            ideal = _ideal_commutator_ref(U, bound)
            got = ideal_commutator(U, bound)
            assert _expand(got).equals(ideal.span) and \
                len(got) == len(ideal.span), (names, degree_bound)
            hbar_pivots |= _has_hbar_pivot(U.extend(bound).span)
            hbar_pivots |= _has_hbar_pivot(got)
            for side in ("right", "left"):
                ref, _ = _window_span_ref(U.extend(bound), ideal, bound, side)
                win = U.window(bound, side)
                assert _expand(win).equals(ref) and len(win) == len(ref), \
                    (names, degree_bound, side)
    assert hbar_pivots


def _full_loop_window(U, bound, side):
    """The window as built before the H-monomials of U were skipped, by
    the reference engine: one h(x)c insert for every H-monomial h and
    ideal row c."""
    rows = U.extend(bound).span.rows.values()
    ideal = ideal_commutator(U, bound).rows.values()
    span = TrackedSpan()
    for ra in rows:
        for rb in rows:
            span.add({ka + kb: x for ka, s in ra.items()
                      for kb, t in rb.items() if (x := s * t)})
    for hm in _h_monomials(bound):
        for c in ideal:
            span.add({(hm,) + k: t for k, t in c.items()}
                     if side == "right" else
                     {k + (hm,): t for k, t in c.items()})
    return span


@pytest.mark.parametrize("names,degree_bound", [
    ("HE", 3), ("HF", 1), ("HF", 2), ("EF", 1), ("EF", 2), ("EF", 4),
    ("H", 2), ("E", 2)])
def test_windows_skip_h_monomials_of_u_without_changing_rows(ctx, names,
                                                              degree_bound):
    """Skipping the h(x)c with h in U leaves every window row, pivot order
    and entry as the full loop builds them: the Borel window (<H,E>) and
    the <H,F> and <E,F> windows at K = 3, on both sides, and the windows
    of the commutative <H> and <E>, whose ideal has no rows."""
    for side in ("right", "left"):
        U = HopfSubalgebra(ctx, [uq_gen(ctx, c) for c in names],
                           degree_bound, names=list(names))
        bound = degree_bound + ctx.order - 1
        ref = _full_loop_window(U, bound, side)
        win = U.window(bound, side)
        W = U.extend(bound)
        assert any(W.contains(UqElement(ctx, {hm: 1}))
                   for hm in _h_monomials(bound))  # some insert is skipped
        assert list(win.rows.items()) == list(ref.rows.items())
        assert win._vals == ref._vals and len(win) == len(ref)


def test_windows_insert_row_products_of_generator_commutators(ctx,
                                                              monkeypatch):
    """Work-count guard: the Borel right window at K = 3, degree bound 3
    inserts one product per pair of U-rows and one per H-monomial and
    ideal row, and its ideal forms only the generator commutators."""
    from qaffine.que import UqTensor

    U = borel_subalgebra(ctx, 3)
    bound = U.degree_bound + ctx.order - 1
    W = U.extend(bound)
    subtracted, inserted = [], []
    sub, add = UqTensor.__sub__, EchelonSpan.add

    def counted_sub(self, other):
        subtracted.append((self, other))
        return sub(self, other)

    def counted_add(self, v):
        inserted.append((self, v))
        return add(self, v)

    monkeypatch.setattr(UqTensor, "__sub__", counted_sub)
    monkeypatch.setattr(EchelonSpan, "add", counted_add)
    ideal = ideal_commutator(U, bound)  # on the W built above
    H, E = U.generators
    assert subtracted == [(H * E, E * H)]
    # u [H, E] u' over the basis words u, u' of total length <= bound
    lengths = [len(w) for w in W.basis_words]
    assert len(inserted) == sum(1 for a in lengths for b in lengths
                                if a + 2 + b <= bound)
    inserted.clear()
    win = U.window(bound, "right")
    assert ideal_commutator(U, bound) is ideal  # the window read this ideal
    products = [v for span, v in inserted if span is win]
    # an H-monomial that lies in U brings no h(x)c: the 21 monomials
    # H^b E^c with b + c <= 5 of the 56, each times the 10 ideal rows
    outside = [hm for hm in _h_monomials(bound)
               if not W.contains(UqElement(ctx, {hm: 1}))]
    assert (len(_h_monomials(bound)) - len(outside), len(ideal.rows)) == \
        (21, 10)
    assert len(products) == (
        len(W.span.rows) ** 2 + len(outside) * len(ideal.rows))
    # products of rows have pivot entry 1, unlike products of elements
    # such as H.E - E.H = 2E
    assert all(v[min(v)] == 1 for v in products)


def test_character_monoid_matches_unshared_reduced_coproducts(U3,
                                                              ref_coproducts):
    mon = CharacterMonoid(U3, precheck=False)
    z = [weight_character(U3, n) for n in range(5)]
    for phi in z:
        for psi in z:
            assert mon.product(phi, psi).values == \
                _product_ref(*ref_coproducts, phi, psi)


def test_coiso_suite_builds_each_window_once(monkeypatch):
    import qaffine.coiso as coiso
    from qaffine.cli import RunConfig, run_suite

    # every distinct window handed out is one build, recorded by its id
    # with the window kept alive, so an id is never reused
    built_windows, built_ideals, echelon_builds = {}, {}, []
    membership, window = (coiso.HopfSubalgebra.membership_window,
                          coiso.HopfSubalgebra.window)
    ideal_of = coiso.ideal_commutator

    def recorded_membership(self, bound, side="right"):
        win = membership(self, bound, side)
        built_windows.setdefault(id(win), (win, (
            tuple(self.names), self.extend(bound).degree_bound, bound, side),
            self))
        return win

    def recorded_window(self, bound, side="right"):
        echelon_builds.append((tuple(self.names), bound, side))
        return window(self, bound, side)

    def recorded_ideal(U, bound=None):
        span = ideal_of(U, bound)
        built_ideals.setdefault(id(span), (span, (
            tuple(U.names), U.degree_bound if bound is None else bound)))
        return span

    monkeypatch.setattr(coiso.HopfSubalgebra, "membership_window",
                        recorded_membership)
    monkeypatch.setattr(coiso.HopfSubalgebra, "window", recorded_window)
    monkeypatch.setattr(coiso, "ideal_commutator", recorded_ideal)
    report = json.loads(run_suite(
        RunConfig(suites=("coiso",), degree_bound=3)).dumps())
    assert report["summary"]["fail"] == 0
    windows = [w for _, w, _ in built_windows.values()]
    ideals = [i for _, i in built_ideals.values()]
    borel = [w for w in windows if w[0] == ("H", "E")]
    assert sorted(borel) == [(("H", "E"), 5, 5, "left"),
                             (("H", "E"), 5, 5, "right")]
    # the Borel and <F> are monomial, so no echelon window is built; a
    # monomial window reduces every suite target (Delta of each basis
    # element, R, and Delta(F), outside the Borel's windows) to the
    # residual the reference engine leaves, and an echelon one has its rows
    assert not echelon_builds
    for win, (_, _, bound, side), U in built_windows.values():
        ref = _full_loop_window(U, bound, side)
        if isinstance(win, EchelonSpan):
            assert list(win.rows.items()) == list(ref.rows.items())
            continue
        assert isinstance(win, MonomialWindow)
        targets = [coproduct(u) for u in U.basis] + [
            r_matrix_sl2(U.ctx), coproduct(uq_gen(U.ctx, "F"))]
        for t in targets:
            assert list(win.reduce(t.data).items()) == \
                list(ref.reduce(t.data).items())
    # the F negative control needs its slack-enlarged window too
    assert sorted(w for w in windows if w[0] == ("F",)) == [
        (("F",), 5, 5, "right"), (("F",), 7, 7, "right")]
    assert len(ideals) == len(set(ideals))
    assert sorted(b for n, b in ideals if n == ("H", "E")) == [3, 5, 6]


def test_monoid_reads_the_window_of_the_precheck_answer():
    """<E,F> at K = 3, degree bound 1 is strongly coisotropic only at
    span bound 5, past its default window bound 3; the monoid reads that
    window.  Its extension spans are not monomial, so the min- and
    max-pivot spans differ and the pivot check compares two answers."""
    ctx = UqContext(3)
    U = HopfSubalgebra(ctx, [uq_gen(ctx, "E"), uq_gen(ctx, "F")], 1,
                       names=["E", "F"])
    assert U.degree_bound + ctx.order - 1 == 3
    assert strong_coiso_hopf(U, "right").window["span_bound"] == 5
    mon = CharacterMonoid(U)
    (lo, _), (hi, _) = mon.spans
    assert not lo.equals(hi)
    eps = counit_character(U)
    assert mon.product(eps, eps) == eps


def test_monoid_rejects_a_coproduct_outside_the_window(ctx):
    """Without the precheck, Delta(F) still has to lie in <F>'s window."""
    Uf = HopfSubalgebra(ctx, [uq_gen(ctx, "F")], 4, names=["F"])
    mon = CharacterMonoid(Uf, precheck=False)
    eps = counit_character(Uf)
    with pytest.raises(ValueError, match="left the window"):
        mon.product(eps, eps)


# -- the twisted check with Delta_J applied to every checked tensor, kept as --
# -- the reference for the products of twisted generator images -------------


def _strong_coiso_twisted_ref(U, R, m=2):
    from qaffine.coiso import (
        CHECK_BOUND, _monomial_support, _three_valued)
    from qaffine.que import TwistedHopf, twi_m

    ctx = U.ctx
    bound = CHECK_BOUND + 2 * (ctx.order - 1)
    window = {"m": m, "check_bound": CHECK_BOUND, "span_bound": bound,
              "h_bound": bound, "order": ctx.order}
    th = TwistedHopf(twi_m(R, m), m)
    Ucheck = U.extend(CHECK_BOUND)
    check_basis = [(w, el) for w, el in zip(Ucheck.basis_words, Ucheck.basis)
                   if len(w) <= CHECK_BOUND]

    def residuals(b):
        u_monos = _monomial_support(U.extend(b).span)
        i_monos = _monomial_support(ideal_commutator(U, b))
        assert u_monos is not None and i_monos is not None

        def ok(key):
            if all(mono in u_monos for mono in key):
                return True
            if any(sum(mono) > b for mono in key[:m]):
                return False
            hit = False
            for mono in key[m:]:
                if mono in i_monos:
                    hit = True
                elif mono not in u_monos:
                    return False
            return hit

        out = []
        for combo in itertools.product(check_basis, repeat=m):
            t = tensor_of([el for _, el in combo])
            d = th.delta(t)
            bad = {key: s for key, s in d.data.items() if not ok(key)}
            if bad:
                label = " (x) ".join(
                    ".".join(U.names[g] for g in w) or "1" for w, _ in combo
                )
                out.append((label, sorted(bad)))
        return out

    return _three_valued(
        residuals, window, bound,
        lambda label, bad: {"element": label,
                            "residual_terms": [str(k) for k in bad[:8]]})


@pytest.mark.parametrize("K,m", [(2, 2), (3, 2), (4, 2), (2, 3)])
def test_twisted_images_match_direct_coproducts(K, m):
    from qaffine.coiso import CHECK_BOUND, _twisted_word_images
    from qaffine.que import TwistedHopf, twi_m, uq_one

    uq = UqContext(K)
    R = r_matrix_sl2(uq)
    th = TwistedHopf(twi_m(R, m), m)
    statuses = set()
    for names in ("HE", "F", "H"):
        U = HopfSubalgebra(uq, [uq_gen(uq, c) for c in names], 2,
                           names=list(names))
        W = U.extend(CHECK_BOUND)
        for w, el in zip(W.basis_words, W.basis):
            prod = uq_one(uq)
            for g in w:
                prod = prod * U.generators[g]
            assert prod == el, w
        basis = dict(zip(W.basis_words, W.basis))
        words = [w for w in W.basis_words if len(w) <= CHECK_BOUND]
        images = _twisted_word_images(th, U, words)
        for combo in itertools.product(words, repeat=m):
            d = images[0][combo[0]]
            for j in range(1, m):
                d = d * images[j][combo[j]]
            assert d == th.delta(tensor_of([basis[w] for w in combo])), combo
        rep = strong_coiso_twisted(U, R, m)
        assert rep.to_json() == _strong_coiso_twisted_ref(U, R, m).to_json()
        statuses.add(rep.status)
    assert statuses == {"true", "false"}


def test_monoid_pivot_check_compares_the_two_spans(U3):
    """A product whose min- and max-pivot extensions disagree raises."""
    mon = CharacterMonoid(U3, precheck=False)
    z1 = weight_character(U3, 1)
    assert mon.product(z1, z1) == weight_character(U3, 2)
    (_, lo), (_, hi) = mon.spans
    h = (0, 1, 0)  # the monomial H, a leg of Delta(H)
    hi[h] = {i: -c for i, c in lo[h].items()}
    with pytest.raises(AssertionError, match="pivot order"):
        mon.product(z1, z1)


# -- monomial windows against the echelon windows they stand in for ---------


def _monomial_window_targets(U, win, rng):
    """Coproducts of U's basis, R, Delta(F) and Delta(EF), and random
    series vectors over keys inside and outside the window."""
    ctx = U.ctx
    K = ctx.order
    E, Fg = uq_gen(ctx, "E"), uq_gen(ctx, "F")
    out = [coproduct(u).data for u in U.basis]
    out += [r_matrix_sl2(ctx).data, coproduct(Fg).data,
            coproduct(E * Fg).data]
    u_monos, i_monos = sorted(win.u_monos), sorted(win.i_monos)
    pool = _h_monomials(win.bound + 1)
    for _ in range(12):
        keys = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.randrange(4)
            if kind == 0:
                keys.append((rng.choice(u_monos), rng.choice(u_monos)))
            elif kind == 1 and i_monos:
                keys.append((rng.choice(pool), rng.choice(i_monos)))
            elif kind == 2 and i_monos:
                keys.append((rng.choice(i_monos), rng.choice(pool)))
            else:
                keys.append((rng.choice(pool), rng.choice(pool)))
        vec = {k: s for k in keys if (s := _random_series(rng, K))}
        if vec:
            out.append(vec)
    return out


@pytest.mark.parametrize("K", [2, 3, 4])
def test_monomial_windows_match_echelon_windows(K):
    """reduce (residual entries, in order) and contains of the monomial
    window agree with the echelon window on both sides, for the Borel,
    <F>, <H>, <E> and <H, F> (and <E, F> at K = 2, where it is monomial),
    at the membership bound and that bound plus SLACK."""
    uq = UqContext(K)
    rng = random.Random(K)
    cases = ["HE", "F", "H", "E", "HF"] + (["EF"] if K == 2 else [])
    for names in cases:
        U = HopfSubalgebra(uq, [uq_gen(uq, c) for c in names], 2,
                           names=list(names))
        b = U.degree_bound + K - 1
        for bound in (b, b + SLACK):
            for side in ("right", "left"):
                win = U.membership_window(bound, side)
                assert isinstance(win, MonomialWindow), (names, bound)
                assert U.membership_window(bound, side) is win
                ref = U.window(bound, side)
                for v in _monomial_window_targets(U, win, rng):
                    assert list(win.reduce(v).items()) == \
                        list(ref.reduce(v).items()), (names, bound, side)
                    assert win.contains(v) == ref.contains(v)


def test_non_monomial_window_falls_back_to_echelon():
    """<E, F> at K = 3 has hbar^v pivots and rows of several keys, so its
    membership window is the echelon one."""
    uq = UqContext(3)
    U = HopfSubalgebra(uq, [uq_gen(uq, "E"), uq_gen(uq, "F")], 1,
                       names=["E", "F"])
    bound = U.degree_bound + uq.order - 1
    assert _monomial_support(U.extend(bound).span) is None
    for side in ("right", "left"):
        win = U.membership_window(bound, side)
        assert isinstance(win, EchelonSpan)
        assert win is U.window(bound, side)


def test_monomial_support_needs_unit_pivots(ctx):
    """A single-key row with pivot entry hbar holds only the hbar
    multiples of its monomial, so the span is not read as monomial."""
    m = (0, 1, 0)
    span = EchelonSpan()
    span.add({(m,): TruncatedSeries.hbar(ctx.order, 1)})
    assert _monomial_support(span) is None
    assert not span.contains({(m,): ctx.one_series()})
    unit = EchelonSpan()
    unit.add({(m,): ctx.one_series()})
    assert _monomial_support(unit) == {m}


def test_echelon_membership_gives_the_same_reports(monkeypatch, capsys):
    """With every membership window echelon (the twisted check, which
    needs the monomial predicate, keeps it), the coiso suite and each
    coiso-check letter set give the same JSON."""
    import qaffine.coiso as coiso
    from qaffine.cli import RunConfig, main, run_suite

    def outputs():
        out = [run_suite(RunConfig(suites=("coiso",))).dumps()]
        for letters in ("H", "E", "F", "HE", "EH", "HF", "FH", "EF"):
            for degree_bound, order in ((1, 2), (2, 2), (1, 3)):
                if letters == "EF" and order == 3:
                    continue  # echelon either way
                assert main(["compute", "coiso-check", letters,
                             "--degree-bound", str(degree_bound),
                             "--hbar-order", str(order)]) == 0
                out.append(capsys.readouterr().out)
        return out

    monomial = outputs()
    monomial_window, window = coiso._monomial_window, HopfSubalgebra.window
    echelon = []
    monkeypatch.setattr(
        coiso, "_monomial_window",
        lambda U, bound, side, m=1: (monomial_window(U, bound, side, m)
                                     if m > 1 else None))
    monkeypatch.setattr(
        HopfSubalgebra, "window",
        lambda U, bound, side="right": echelon.append(side) or window(
            U, bound, side))
    assert outputs() == monomial
    assert set(echelon) == {"right", "left"}


def test_monomial_window_predicate_on_tensor_powers(ctx):
    """On 2m legs the H block must be bounded, and the other block must
    lie in U^(x)m with some leg in [U,U]; the left side mirrors the
    right.  The Borel at bound 4: H = (0,1,0) lies in U, E = (0,0,1) in
    [U,U], F = (1,0,0) outside U."""
    from qaffine.coiso import _monomial_window

    U = borel_subalgebra(ctx, 2)
    f, h, e = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    for side in ("right", "left"):
        win = _monomial_window(U, 4, side, 2)
        assert isinstance(win, MonomialWindow)
        assert h in win.u_monos and e in win.i_monos
        assert f not in win.u_monos
        ok = win.ok if side == "right" else (
            lambda key: win.ok(key[2:] + key[:2]))
        assert ok((h, e, h, h))                   # all in U
        assert ok((f, f, h, e))                   # H block, E in [U,U]
        assert not ok((f, f, h, h))               # no leg in [U,U]
        assert not ok((f, f, f, e))               # a leg outside U
        assert not ok(((5, 0, 0), f, h, e))       # H block past the bound
        assert ok(((4, 0, 0), f, e, e))


@pytest.mark.parametrize("K,m", [(2, 2), (3, 2), (2, 3)])
def test_twisted_check_matches_reference_predicate(K, m):
    """The twisted check reads MonomialWindow.ok on 2m legs; its answers
    and witnesses equal the reference's own inline predicate, for <E>,
    <H, F> and the Borel."""
    uq = UqContext(K)
    R = r_matrix_sl2(uq)
    for names in ("E", "HF", "HE"):
        U = HopfSubalgebra(uq, [uq_gen(uq, c) for c in names], 2,
                           names=list(names))
        assert strong_coiso_twisted(U, R, m).to_json() == \
            _strong_coiso_twisted_ref(U, R, m).to_json()


# -- the former right-action routes, kept as the reference: one single-entry -
# -- function per unknown acted on, scaled and subtracted, and words acted ---
# -- on letter by letter -------------------------------------------------------


def _right_action_word_ref(f, j, U, word):
    """c_{xi,v} . (g_1 ... g_k) as k actions of single generators."""
    for gi in word:
        f = act_factor(f, j, U.generators[gi], "right")
    return f


def _window_basis_ref(qctx, m, weight_bound):
    out = []
    for ns in itertools.product(range(weight_bound + 1), repeat=m):
        key = tuple((n,) for n in ns)
        ranges = []
        for n in ns:
            ranges.append(range(n + 1))
            ranges.append(range(n + 1))
        for idx in itertools.product(*ranges):
            out.append(BlockFunction(qctx, m, {key: {idx: 1}}))
    return out


def _semi_invariants_ref(qctx, U, chis, weight_bound):
    """The kernel of b -> b.g - chi_j(g) b over the single-entry window
    basis, each residual a function read back through qfun_vec."""
    m = len(chis)
    basis = _window_basis_ref(qctx, m, weight_bound)
    cols = []
    for b in basis:
        col = {}
        for j in range(m):
            for gi, g in enumerate(U.generators):
                res = (act_factor(b, j, g, "right")
                       - b.scale(chis[j].values[gi]))
                col.update(((j, gi) + key, c)
                           for key, c in qfun_vec(res).items())
        cols.append(col)
    entries = [(key, idx) for b in basis for key, blk in b.blocks.items()
               for idx in blk]
    out = []
    for kv in sparse_nullspace(cols, qctx.uq.one_series()):
        blocks = {}
        for bi, c in kv.items():
            key, idx = entries[bi]
            blocks.setdefault(key, {})[idx] = c
        out.append(BlockFunction(qctx, m, blocks))
    return out


def _function_state(fs):
    """Each function's blocks and entries, in their order."""
    return [[(key, list(blk.items())) for key, blk in f.blocks.items()]
            for f in fs]


@pytest.mark.parametrize("K", [2, 3, 4])
def test_semi_invariants_match_per_basis_function_solve(K):
    """Columns read off the slot-action lines give the generators of the
    former per-basis-function solve, in order and entry for entry, on
    <H, E>, <H, F>, <H> and <E, F> (hbar^v pivots at K = 3), at weight
    bounds 1-3, m = 1 and 2, for the counit, weight and hbar-valued
    characters."""
    uq = UqContext(K)
    qctx = QAffineContext(uq)
    for names in ("HE", "HF", "H", "EF"):
        U = HopfSubalgebra(uq, [uq_gen(uq, c) for c in names], 2,
                           names=list(names))
        eps, z1, z2 = (weight_character(U, n) for n in range(3))
        h = Character(U, [TruncatedSeries.hbar(K)] * len(names))
        for chis in ((eps,), (z1,), (z2,), (h,), (eps, z1), (z1, z1),
                     (z2, h)):
            for wb in (1, 2, 3):
                got = semi_invariants(qctx, U, chis, wb)
                want = _semi_invariants_ref(qctx, U, chis, wb)
                assert _function_state(got) == _function_state(want), \
                    (names, chis, wb)


def test_basis_elements_act_as_their_words(ctx, qctx):
    """Acting with a basis element u of U at once equals acting with its
    word letter by letter, (c.y1).y2 = c.(y1 y2), on both factors of a
    function on two factors, for every basis word of <H, E> and <E, F>."""
    rng = random.Random(7)
    K = ctx.order
    f = BlockFunction(qctx, 2, {
        ((a,), (b,)): {idx: _random_series(rng, K)
                       for idx in itertools.product(
                           range(a + 1), range(a + 1),
                           range(b + 1), range(b + 1))}
        for a in range(3) for b in range(2)})
    for names in ("HE", "EF"):
        U = HopfSubalgebra(ctx, [uq_gen(ctx, c) for c in names], 3,
                           names=list(names))
        assert len(U.basis_words) > 4
        for w, u in zip(U.basis_words, U.basis):
            for j in range(2):
                assert act_factor(f, j, u, "right") == \
                    _right_action_word_ref(f, j, U, w), (names, w, j)


def test_weight_character_reads_the_pbw_terms(ctx, qctx):
    """The Borel built without names (labelled g0, g1) gets the weight
    characters of the named one: H acts by -n, E and F by 0, and the
    highest-weight coefficient of V(1) is a z1-eigenfunction for both."""
    H, E, F_ = (uq_gen(ctx, c) for c in "HEF")
    named = borel_subalgebra(ctx, 3)
    for U in (named, HopfSubalgebra(ctx, [H, E], 3)):
        for n in range(4):
            assert weight_character(U, n).values == \
                weight_character(named, n).values
        d = hw_coefficient(qctx, (1,), {0: 1})
        assert is_eigenfunction(d, (weight_character(U, 1),))
    Ufh = HopfSubalgebra(ctx, [F_, H], 2)
    assert weight_character(Ufh, 2).values == [0, -2]
    # a generator that is a sum of PBW terms: chi(2H + E - 3) = -2n - 3
    Umix = HopfSubalgebra(ctx, [H.scale(2) + E - uq_one(ctx).scale(3)], 1)
    assert weight_character(Umix, 2).values == [-7]


def test_semi_invariants_refuse_characters_of_other_generators(ctx, qctx):
    """A character's values are read by generator index, so one of a
    subalgebra with other generators is refused; one of another
    subalgebra with the same generators is read as U's."""
    U = borel_subalgebra(ctx, 2)
    other = HopfSubalgebra(ctx, [uq_gen(ctx, "H"), uq_gen(ctx, "F")], 2)
    with pytest.raises(ValueError):
        semi_invariants(qctx, U, (weight_character(other, 1),), 1)
    with pytest.raises(ValueError):
        semi_invariants(qctx, U, (counit_character(U),
                                  counit_character(other)), 1)
    same = HopfSubalgebra(ctx, list(U.generators), 3)
    assert _function_state(
        semi_invariants(qctx, U, (weight_character(same, 1),), 1)) == \
        _function_state(semi_invariants(qctx, U, (weight_character(U, 1),), 1))
