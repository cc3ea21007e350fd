"""Strongly coisotropic Hopf subalgebras, character monoids, graded
semi-invariants, and quantum-section checks."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qaffine.coiso import (
    CharacterMonoid, GradedSemiInvariants, HopfSubalgebra, _fn_span,
    _hbar_shifts, _h_monomials, borel_subalgebra, classical_shadow,
    counit_character, ideal_commutator, q_evaluate, qfun_vec,
    quantum_section_check, r_membership_hopf, semi_invariant_product_check,
    semi_invariants, strong_coiso_hopf, strong_coiso_twisted, tensor_vec,
    weight_character,
)
from qaffine.cgx import (
    BlockFunction, hw_coefficient, matrix_coefficient, pw_one, pw_tensor,
)
from qaffine.kernel import TruncatedSeries
from qaffine.linalg import EchelonSpan
from qaffine.que import (
    QAffineContext, antipode, coproduct, q_multiply, UqContext, UqElement,
    quantum_affine_multiply, r_matrix_sl2, tensor_of, uq_gen,
)
from qaffine.liebialg import standard_r, strongly_coisotropic_lie

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
    assert U.closed
    assert U.contains(uq_gen(ctx, "H") * uq_gen(ctx, "E"))
    assert not U.contains(uq_gen(ctx, "F"))


def test_commutator_ideal(ctx, U):
    ideal = ideal_commutator(U)
    assert ideal.contains(uq_gen(ctx, "E"))  # since [H, E] = 2E
    # window monotonicity: a larger bound never shrinks the span
    bigger = ideal_commutator(U, 5)
    for row in ideal.span.basis():
        assert bigger.span.contains(row)
    # a commutative window has a zero ideal
    Uh = HopfSubalgebra(ctx, [uq_gen(ctx, "H")], 4, names=["H"])
    assert not ideal_commutator(Uh).elements


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
    assert sh.dim() == 2
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
    inv = semi_invariants(qctx, U, eps, 2)
    # constants and their hbar shifts only
    assert len(inv) == qctx.uq.order
    assert _fn_span(inv).contains(qfun_vec(pw_one(qctx, 1)))


def test_weight_one_semi_invariants(qctx, U):
    z1 = weight_character(U, 1)
    got = semi_invariants(qctx, U, z1, 2)
    expect = [hw_coefficient(qctx, (1,), {a: 1}) for a in range(2)]
    assert _fn_span(got).equals(_fn_span(expect))
    graded = GradedSemiInvariants(U, 1)
    graded.add(counit_character(U), semi_invariants(
        qctx, U, counit_character(U), 2))
    graded.add(z1, got)
    assert graded.validate()


def test_semi_invariant_products_close(qctx, U, mon):
    z1 = weight_character(U, 1)
    assert semi_invariant_product_check(mon, qctx, z1, z1, 2)


def test_m2_semi_invariants_are_affine_blocks(qctx, U, mon):
    z1 = weight_character(U, 1)
    got = semi_invariants(qctx, U, (z1, z1), 1, m=2)
    expect = [pw_tensor([hw_coefficient(qctx, (1,), {a: 1}),
                         hw_coefficient(qctx, (1,), {b: 1})])
              for a in range(2) for b in range(2)]
    assert _fn_span(got).equals(_fn_span(expect))
    eps = counit_character(U)
    assert semi_invariant_product_check(
        mon, qctx, (z1, eps), (eps, z1), 2, m=2,
        product=quantum_affine_multiply)


def test_evaluation_pairing(qctx, U, ctx):
    phi = hw_coefficient(qctx, (1,), {1: 1})
    # pairing against F hits the lowered vector
    val = q_evaluate(phi, uq_gen(ctx, "F"))
    assert not val.is_zero()
    assert q_evaluate(phi, uq_gen(ctx, "E")).is_zero()


def test_quantum_sections(qctx, U, mon):
    d = hw_coefficient(qctx, (1,), {0: 1})
    rep = quantum_section_check(d, U, n_max=3, monoid=mon)
    assert rep.prequantum.status == "true"
    assert rep.graded.status == "true"
    rep1 = quantum_section_check(pw_one(qctx, 1), U, n_max=2, monoid=mon)
    assert rep1.prequantum.status == "true"
    assert rep1.graded.status == "true"


def test_quantum_section_negative(qctx, U, mon):
    dbad = matrix_coefficient(qctx, (2,), {0: 1}, {1: 1})
    rep = quantum_section_check(dbad, U, n_max=2, monoid=mon)
    assert rep.prequantum.status == "false"


# Each expression hands a coiso entry point an input it must reject.
_BAD_INPUT_SETUP = (
    "from qaffine.cgx import pw_one, pw_tensor\n"
    "from qaffine.coiso import (\n"
    "    Character, CoisoReport, borel_subalgebra, q_evaluate,\n"
    "    quantum_section_check, restriction_character, semi_invariants,\n"
    "    strong_coiso_hopf, weight_character)\n"
    "from qaffine.que import QAffineContext, UqContext, uq_one\n"
    "ctx = UqContext(2)\n"
    "U = borel_subalgebra(ctx, 1)\n"
    "qctx = QAffineContext(ctx)\n"
    "f2 = pw_tensor([pw_one(qctx, 1), pw_one(qctx, 1)])\n"
)
_BAD_INPUTS = (
    "CoisoReport('maybe', {})",
    "strong_coiso_hopf(U, side='middle')",
    "Character(U, [1])",
    "q_evaluate(f2, uq_one(ctx))",
    "semi_invariants(qctx, U, [weight_character(U, 0)], 1, m=2)",
    "restriction_character(f2, U)",
    "quantum_section_check(f2, U)",
)


def test_bad_inputs_are_rejected():
    env = {}
    exec(_BAD_INPUT_SETUP, env)
    for expr in _BAD_INPUTS:
        with pytest.raises(ValueError):
            eval(expr, env)


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


# -- the flatteners through s.coeffs, kept as the reference ------------------


def _uq_vec_ref(x):
    out = {}
    for m, s in x.data.items():
        for k, c in enumerate(s.coeffs):
            if c != 0:
                out[(m, k)] = c
    return out


def _tensor_vec_ref(t):
    out = {}
    for key, s in t.data.items():
        for k, c in enumerate(s.coeffs):
            if c != 0:
                out[(key, k)] = c
    return out


def _qfun_vec_ref(f):
    out = {}
    for key, blk in f.blocks.items():
        for idx, s in blk.items():
            for k, c in enumerate(s.coeffs):
                if c != 0:
                    out[(key, idx, k)] = c
    return out


def _same_items(a, b):
    return list(a.items()) == list(b.items())


def test_flatteners_match_coefficient_reference(ctx, qctx, R):
    for name in ("E", "F", "H"):
        x = antipode(uq_gen(ctx, name) * uq_gen(ctx, "E"))
        assert _same_items(tensor_vec(x), _uq_vec_ref(x))
    assert _same_items(tensor_vec(R), _tensor_vec_ref(R))
    f = hw_coefficient(qctx, (1,), {0: 1, 1: F(1, 3)})
    g = matrix_coefficient(qctx, (2,), {1: F(1, 2)}, {0: 1})
    for h in (q_multiply(f, g), q_multiply(g, f), pw_tensor([f, g])):
        assert _same_items(qfun_vec(h), _qfun_vec_ref(h))


# -- hbar^k x by a series multiply, kept as the reference for the key shift --


def _hbar(ctx, k):
    return TruncatedSeries.hbar(ctx.order, k) if k else ctx.one_series()


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
                shifts = _hbar_shifts(tensor_vec(t), K)
                assert len(shifts) == K
                for k in range(K):
                    assert _same_items(shifts[k],
                                       tensor_vec(t.scale(_hbar(uq, k))))
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
                    assert _same_items(shifts[k],
                                       qfun_vec(h.scale(_hbar(uq, k))))


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
                    v = tensor_vec(el.scale(_hbar(ctx, k)))
                    if span.add(v) and k == 0:
                        grew = True
                if grew:
                    elements.append(el)
    return _IdealRef(W, bound, elements, span)


def _window_span_ref(Uext, ideal, h_bound, side, track=False, pivot=min):
    ctx = Uext.ctx
    span = EchelonSpan(track=track, pivot=pivot)
    tags = []
    for i, u in enumerate(Uext.basis):
        for j, v in enumerate(Uext.basis):
            base = tensor_of([u, v])
            for k in range(ctx.order):
                span.add(tensor_vec(base.scale(_hbar(ctx, k))))
                tags.append(("uu", i, j, k))
    for hm in _h_monomials(h_bound):
        x = UqElement(ctx, {hm: 1})
        for ci, c in enumerate(ideal.elements):
            base = tensor_of([x, c]) if side == "right" else tensor_of([c, x])
            for k in range(ctx.order):
                span.add(tensor_vec(base.scale(_hbar(ctx, k))))
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
        combo = self.span.coefficients(tensor_vec(coproduct(x)))
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
    left_ref = _window_span_ref(
        fresh.extend(bound), _ideal_commutator_ref(fresh.extend(bound), bound),
        bound, "left", track=True)
    refs = {("right", min): (ref_coproducts[0].span, ref_coproducts[0].tags),
            ("right", max): (ref_coproducts[1].span, ref_coproducts[1].tags),
            ("left", min): left_ref}
    ideal_ref = ref_coproducts[0].ideal
    targets = [tensor_vec(coproduct(g)) for g in U3.generators]
    for (side, pivot), (span, tags) in refs.items():
        win = U3.window(bound, bound, side, pivot)
        assert win.span.rows == span.rows and win.tags == tags
        for t in targets:
            if side == "right":
                assert win.span.coefficients(t) == span.coefficients(t)
            else:  # only the right windows are tracked
                with pytest.raises(ValueError):
                    win.span.coefficients(t)
        assert U3.window(bound, bound, side, pivot) is win
        assert win.ideal is ideal_commutator(U3, bound)
        assert win.ideal.span.equals(ideal_ref.span)
        assert win.ideal.elements == ideal_ref.elements
    # a tracked span has the rows of the untracked one
    untracked, _ = _window_span_ref(fresh.extend(bound), ideal_ref, bound,
                                    "right")
    assert untracked.equals(refs[("right", min)][0])
    assert U3.extend(bound) is U3.extend(bound)


def test_shared_windows_keep_the_pivot_order(ctx):
    """The Borel window is a monomial span, the same for either pivot;
    the E, F window is not, so its min- and max-pivot windows differ."""
    U = HopfSubalgebra(ctx, [uq_gen(ctx, "E"), uq_gen(ctx, "F")], 1,
                       names=["E", "F"])
    bound = U.degree_bound + ctx.order - 1
    ideal = _ideal_commutator_ref(U.extend(bound), bound)
    refs = {pivot: _window_span_ref(U.extend(bound), ideal, bound, "right",
                                    track=True, pivot=pivot)
            for pivot in (min, max)}
    assert not refs[min][0].equals(refs[max][0])
    for pivot, (span, tags) in refs.items():
        win = U.window(bound, bound, "right", pivot)
        assert win.span.equals(span) and win.tags == tags


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

    windows, ideals = [], []
    window_span, ideal_init = coiso._window_span, coiso.IdealWindow.__init__

    def counted_window(Uext, ideal, h_bound, side, pivot=min):
        windows.append((tuple(Uext.names), Uext.degree_bound, h_bound, side,
                        pivot.__name__))
        return window_span(Uext, ideal, h_bound, side, pivot)

    def counted_ideal(self, W, bound):
        ideals.append((tuple(W.names), bound))
        ideal_init(self, W, bound)

    monkeypatch.setattr(coiso, "_window_span", counted_window)
    monkeypatch.setattr(coiso.IdealWindow, "__init__", counted_ideal)
    report = json.loads(run_suite(
        RunConfig(suites=("coiso",), degree_bound=3)).dumps())
    assert report["summary"]["fail"] == 0
    borel = [w for w in windows if w[0] == ("H", "E")]
    assert sorted(borel) == [(("H", "E"), 5, 5, "left", "min"),
                             (("H", "E"), 5, 5, "right", "max"),
                             (("H", "E"), 5, 5, "right", "min")]
    # the F negative control needs its slack-enlarged window too
    assert sorted(w for w in windows if w[0] == ("F",)) == [
        (("F",), 5, 5, "right", "min"), (("F",), 7, 7, "right", "min")]
    assert len(ideals) == len(set(ideals))
    assert sorted(b for n, b in ideals if n == ("H", "E")) == [3, 5, 6]
