"""The truncated quantum group, its R-matrix, iterated twists, and the
quantized function algebras with their semiclassical limits."""

import itertools
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from qaffine import que
from qaffine.kernel import TruncatedSeries, q_power
from qaffine.linalg import mat_inv, solve
from qaffine.que import (
    QAffineContext, QIrrep, TwistedHopf, UqContext, UqElement, UqTensor,
    _apply_rtilde, _block_delta, almost_cocommutativity_residuals, antipode,
    block_embed, coproduct, coproduct_op, counit, counit_leg, delta_leg,
    hexagon_residuals, hopf_power_delta, intertwining_residual, mono_mul,
    q_integer, q_multiply, quantum_affine_multiply,
    quantum_affine_multiply_pairwise, r_matrix_m, r_matrix_sl2,
    semiclassical_bracket, semiclassical_r, tensor_inv, tensor_of,
    tensor_one, twi_m, twi_m_inductive, twist_condition_residuals,
    uq_cartan_exp, uq_gen, uq_one,
)
from qaffine.liebialg import build_sl, standard_r, twisted_r
from qaffine.cgx import (
    BlockFunction, BracketSpec, classical_bracket, hw_coefficient,
    matrix_coefficient, pw_multiply, pw_one, pw_tensor, sparse_columns,
)

F = Fraction


@pytest.fixture(scope="module")
def ctx():
    return UqContext(4)


@pytest.fixture(scope="module")
def gens(ctx):
    return uq_gen(ctx, "E"), uq_gen(ctx, "F"), uq_gen(ctx, "H")


def test_defining_relations(ctx, gens):
    E, Fg, H = gens
    assert H * E - E * H == E.scale(2)
    assert H * Fg - Fg * H == Fg.scale(-2)
    comm = E * Fg - Fg * E
    assert comm.mod_hbar() == {((0, 1, 0),): F(1)}
    # (q - q^-1) [E,F] = K^2 - K^-2 with K^2 = exp(hbar H / 2)
    lhs = comm.scale(ctx.q - ctx.q_inv)
    rhs = uq_cartan_exp(ctx, F(1, 2)) - uq_cartan_exp(ctx, F(-1, 2))
    assert lhs == rhs


def test_q_integer_matches_kernel(ctx):
    # [n]_q = q^(n-1) + q^(n-3) + ... + q^(1-n) from the kernel's q-powers
    for n in range(6):
        want = TruncatedSeries.zero(ctx.order)
        for i in range(1 - n, n, 2):
            want = want + q_power(i, 1, ctx.order)
        assert q_integer(ctx, n) == want


def test_associativity_sampled(ctx, gens):
    rng = random.Random(7)
    pool = list(gens) + [gens[0] * gens[1], uq_one(ctx)]
    for _ in range(25):
        x, y, z = (rng.choice(pool) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_normalize_is_multiplicative(gens):
    E, Fg, H = gens
    assert E * Fg * H * E == E * (Fg * H * E)
    # EF = FE + lower terms: the normal form of EF has leading mono FHE-free
    ef = E * Fg
    assert ((1, 0, 1),) in ef.data and ((0, 1, 0),) in ef.data


def test_antipode_values(ctx, gens):
    E, Fg, H = gens
    assert antipode(E) == E.scale(-ctx.q_inv)
    assert antipode(Fg) == Fg.scale(-ctx.q)
    assert antipode(H) == H.scale(-1)


def test_hopf_axioms(ctx, gens):
    E, Fg, H = gens
    for g in gens:
        d = coproduct(g)
        assert delta_leg(d, 0) == delta_leg(d, 1)  # coassociativity
        assert counit_leg(d, 0) == g
        left = UqElement(ctx)
        right = UqElement(ctx)
        for (m1, m2), s in d.data.items():
            x1 = UqElement(ctx, {m1: 1})
            x2 = UqElement(ctx, {m2: 1})
            left = left + (antipode(x1) * x2).scale(s)
            right = right + (x1 * antipode(x2)).scale(s)
        assert left.is_zero() and right.is_zero()  # counit(g) = 0
    for x in gens:
        for y in gens:
            assert coproduct(x * y) == coproduct(x) * coproduct(y)
            assert counit(x * y) == counit(x) * counit(y)
            # antipode is an anti-homomorphism
            assert antipode(x * y) == antipode(y) * antipode(x)


def test_r_matrix_quasitriangular(ctx):
    R = r_matrix_sl2(ctx)
    for r in almost_cocommutativity_residuals(ctx, R):
        assert r.is_zero()
    h1, h2 = hexagon_residuals(ctx, R)
    assert h1.is_zero() and h2.is_zero()
    assert counit_leg(R, 0) == tensor_one(ctx, 1)
    assert counit_leg(R, 1) == tensor_one(ctx, 1)
    Rinv = tensor_inv(R)
    assert R * Rinv == tensor_one(ctx, 2)
    assert Rinv * R == tensor_one(ctx, 2)


def test_r_matrix_first_order(ctx):
    R = r_matrix_sl2(ctx)
    h1 = (R - tensor_one(ctx, 2)).hbar_coefficient(1)
    assert h1 == {((0, 1, 0), (0, 1, 0)): F(1, 4),
                  ((1, 0, 0), (0, 0, 1)): F(1)}


def test_twist_closed_vs_inductive():
    ctx = UqContext(3)
    R = r_matrix_sl2(ctx)
    assert twi_m(R, 1) == tensor_one(ctx, 2)
    assert r_matrix_m(R, 1) == R
    # the twist of the square is R placed in legs (2, 3) of H^(x)4
    assert twi_m(R, 2) == R.embed(4, (1, 2))
    for m in (2, 3):
        J = twi_m(R, m)
        assert J == twi_m_inductive(R, m)
        res, c1, c2 = twist_condition_residuals(J, m)
        assert res.is_zero() and c1.is_zero() and c2.is_zero()


def test_twisted_square_r_matrix():
    ctx = UqContext(3)
    R = r_matrix_sl2(ctx)
    R2 = r_matrix_m(R, 2)
    th = TwistedHopf(twi_m(R, 2), 2)
    monos = {"E": (0, 0, 1), "F": (1, 0, 0), "H": (0, 1, 0)}
    for mono in monos.values():
        for leg in (0, 1):
            key = [(0, 0, 0), (0, 0, 0)]
            key[leg] = mono
            xt = UqTensor(ctx, 2, {tuple(key): 1})
            d = th.delta(xt)
            # Delta_J^op swaps the two blocks of Delta_J
            assert R2 * d == d.swap_legs((2, 3, 0, 1)) * R2


def _untwisted_r_matrix_m(R, m):
    """prod_k R_{k, m+k}: the componentwise R-matrix of H^(x)m, which is
    R^(m) without its twist."""
    out = tensor_one(R.ctx, 2 * m)
    for k in range(m):
        out = out * R.embed(2 * m, (k, m + k))
    return out


@pytest.mark.parametrize("K", [3, 4, 5])
def test_untwisted_residual_conjugates_to_the_twisted_one(K):
    """R Delta_J(x) - Delta_J^op(x) R == J_21^-1 (M Delta(x) - Delta^op(x) M) J
    with M = TwistedHopf.untwist(R), for each generator on each leg, on
    R^(2) and on three wrong candidates built from R13 R24: R^(2) gives
    zero residuals, and each wrong one fails all six cases in both forms."""
    uq = UqContext(K)
    R = r_matrix_sl2(uq)
    J = twi_m(R, 2)
    th = TwistedHopf(J, 2)
    swap = (2, 3, 0, 1)
    j21 = J.swap_legs(swap)
    j21_inv = tensor_inv(j21)
    plain = _untwisted_r_matrix_m(R, 2)
    candidates = [
        r_matrix_m(R, 2),
        plain,
        J * plain * j21_inv,
        j21_inv.swap_legs(swap) * plain * j21,
    ]
    for i, cand in enumerate(candidates):
        M = th.untwist(cand)
        zero = []
        for mono in ((0, 0, 1), (1, 0, 0), (0, 1, 0)):
            for leg in (0, 1):
                key = [(0, 0, 0), (0, 0, 0)]
                key[leg] = mono
                x = UqTensor(uq, 2, {tuple(key): 1})
                d = th.delta(x)
                direct = intertwining_residual(cand, d, d.swap_legs(swap))
                d = hopf_power_delta(x, 2)
                conj = intertwining_residual(M, d, d.swap_legs(swap))
                assert direct == j21_inv * conj * J
                zero.append((direct.is_zero(), conj.is_zero()))
        assert zero == [(i == 0, i == 0)] * 6


def test_semiclassical_r_matrices():
    ctx = UqContext(3)
    R = r_matrix_sl2(ctx)
    st = standard_r(build_sl(2))
    assert semiclassical_r(R, 1) == st.r
    for m in (2, 3):
        assert semiclassical_r(r_matrix_m(R, m), m) == twisted_r(st.r, m)


@pytest.fixture(scope="module")
def qctx(ctx):
    return QAffineContext(ctx)


# -- dense closed-form V_hbar(n), the reference for the sparse QIrrep -------


def _smat_zero(K: int, n: int, m: int):
    z = TruncatedSeries.zero(K)
    return [[z] * m for _ in range(n)]


def _smat_mul(a, b):
    z = TruncatedSeries.zero(a[0][0].order)
    return [[sum((x * b[t][j] for t, x in enumerate(row)), z)
             for j in range(len(b[0]))] for row in a]


def _q_int(K: int, k: int) -> TruncatedSeries:
    """[k]_q = sum of exp(hbar i/2) over i = 1-k, 3-k, ..., k-1."""
    h = TruncatedSeries.hbar(K)
    return sum(((h * F(i, 2)).exp() for i in range(1 - k, k, 2)),
               TruncatedSeries.zero(K))


def _closed_form(K: int, n: int):
    """Dense E, F, H of V_hbar(n): E w_k = [k][n-k+1] w_{k-1},
    F w_k = w_{k+1}, H w_k = (n-2k) w_k."""
    E, Fm, H = (_smat_zero(K, n + 1, n + 1) for _ in range(3))
    for k in range(n + 1):
        if k:
            E[k - 1][k] = _q_int(K, k) * _q_int(K, n - k + 1)
        if k < n:
            Fm[k + 1][k] = TruncatedSeries.one(K)
        H[k][k] = TruncatedSeries.const(n - 2 * k, K)
    return E, Fm, H


def _dense_act(K: int, n: int, x: UqElement):
    """rho(x) on V_hbar(n) as a dense matrix, each PBW monomial
    F^a H^b E^c a product of closed-form matrices."""
    E, Fm, H = _closed_form(K, n)
    out = _smat_zero(K, n + 1, n + 1)
    for ((a, b, c),), s in x.data.items():
        mat = [[TruncatedSeries.const(int(i == j), K) for j in range(n + 1)]
               for i in range(n + 1)]
        for gen, times in ((E, c), (H, b), (Fm, a)):
            for _ in range(times):
                mat = _smat_mul(gen, mat)
        out = [[o + y * s for o, y in zip(ro, ry)]
               for ro, ry in zip(out, mat)]
    return out


def test_quantum_irreps_reduce_to_classical(qctx):
    """The sparse columns of E, F, H of QIrrep are those of the dense
    closed form, which at hbar=0 is the classical irrep in its
    lowering-word basis."""
    alg = qctx.alg
    pw = qctx.pw
    K = qctx.uq.order
    for n in range(9):
        qv = qctx.irrep((n,))
        cv = pw.irrep((n,))
        assert qv.dim == cv.dim
        for k in range(1, n + 1):
            assert cv.act[alg.raise_index(0)][k - 1][k] == k * (n - k + 1)
        E, Fm, H = _closed_form(K, n)
        for cols, dense, idx in ((qv.H, H, 0), (qv.E, E, alg.raise_index(0)),
                                 (qv.F, Fm, alg.lower_index(0))):
            assert cols == sparse_columns(dense)
            for i in range(qv.dim):
                for j in range(qv.dim):
                    assert dense[i][j][0] == cv.act[idx][i][j]


def test_series_inverse_pivots_on_units(qctx):
    """Over Q[[hbar]]/(hbar^K) a pivot must be a unit, not merely nonzero:
    [[hbar, 1], [1, 0]] pivots on its second row."""
    K = qctx.uq.order
    one, zero, h = (TruncatedSeries.one(K), TruncatedSeries.zero(K),
                    TruncatedSeries.hbar(K))
    assert mat_inv([[h, one], [one, zero]], one) == [[zero, one], [one, -h]]


def test_unit_series_are_built_once_and_stay_units():
    """zero_series() and one_series() return one object each, which sums,
    products, a coproduct and the twisted product leave equal to 0 and
    1."""
    uq = UqContext(3)
    one, zero = uq.one_series(), uq.zero_series()
    assert uq.one_series() is one and uq.zero_series() is zero
    h = TruncatedSeries.hbar(3)
    assert (one + h).coeffs == (1, 1, 0) and one * h == h == h + zero
    assert (one - one, -one + one, zero * h) == (zero, zero, zero)
    qctx = QAffineContext(uq)
    f = hw_coefficient(qctx, (1,), {0: 1, 1: 2})
    quantum_affine_multiply(f, q_multiply(f, f))
    coproduct(UqElement(uq, {(1, 1, 1): one}))
    assert uq.one_series() is one and uq.zero_series() is zero
    assert one == TruncatedSeries.one(3) and zero == TruncatedSeries.zero(3)
    assert (one.num, one.den, zero.num, zero.den) == ((1, 0, 0), 1,
                                                      (0, 0, 0), 1)


def test_q_multiply_ring_and_classical_limit(qctx):
    pw = qctx.pw
    f = matrix_coefficient(qctx, (1,), {0: 1}, {1: 1})
    g = matrix_coefficient(qctx, (2,), {1: F(1, 2)}, {0: 1})
    h = matrix_coefficient(qctx, (1,), {1: 3}, {0: 1})
    fc = matrix_coefficient(pw, (1,), {0: F(1)}, {1: F(1)})
    gc = matrix_coefficient(pw, (2,), {1: F(1, 2)}, {0: F(1)})
    assert q_multiply(f, g).hbar_coefficient(0) == pw_multiply(fc, gc)
    assert q_multiply(q_multiply(f, g), h) == q_multiply(f, q_multiply(g, h))
    assert q_multiply(f, g) != q_multiply(g, f)  # noncommutative at order 1
    assert q_multiply(pw_one(qctx, 1), f) == f
    assert q_multiply(f, pw_one(qctx, 1)) == f


def test_semiclassical_bracket_m1(qctx):
    pw = qctx.pw
    spec1 = BracketSpec(pw, 1, "product")
    cases = [
        (matrix_coefficient(qctx, (1,), {0: 1}, {1: 1}),
         matrix_coefficient(pw, (1,), {0: F(1)}, {1: F(1)})),
        (matrix_coefficient(qctx, (2,), {1: F(1, 2)}, {0: 1}),
         matrix_coefficient(pw, (2,), {1: F(1, 2)}, {0: F(1)})),
        (hw_coefficient(qctx, (1,), {1: 1}),
         hw_coefficient(pw, (1,), {1: F(1)})),
    ]
    for qa, ca in cases:
        for qb, cb in cases:
            assert semiclassical_bracket(qa, qb) == \
                classical_bracket(ca, cb, spec1)


def test_quantum_affine_product(qctx):
    phi = hw_coefficient(qctx, (1,), {0: 1})
    psi = hw_coefficient(qctx, (1,), {1: 1})
    # m = 1 reduces to the convolution product
    assert quantum_affine_multiply(phi, psi) == q_multiply(phi, psi)
    F2, G2 = pw_tensor([phi, psi]), pw_tensor([psi, phi])
    H2 = pw_tensor([phi, phi])
    prod = quantum_affine_multiply
    assert prod(prod(F2, G2), H2) == prod(F2, prod(G2, H2))
    assert prod(F2, G2).is_semi_invariant()
    # per-factor case split
    one1 = hw_coefficient(qctx, (0,), {0: 1})
    fa, ga = pw_tensor([phi, one1]), pw_tensor([psi, one1])
    fb, gb = pw_tensor([one1, phi]), pw_tensor([one1, psi])
    for x, y in ((fa, gb), (gb, fa), (fb, ga), (ga, fb), (fa, ga), (fb, gb)):
        assert prod(x, y) == quantum_affine_multiply_pairwise(x, y)


def test_semiclassical_bracket_m2(qctx):
    pw = qctx.pw
    spec2m = BracketSpec(pw, 2, "mixed")
    qg = [hw_coefficient(qctx, (1,), {a: 1}) for a in range(2)]
    cg = [hw_coefficient(pw, (1,), {a: F(1)}) for a in range(2)]
    for i in range(2):
        for j in range(2):
            qF, qG = pw_tensor([qg[i], qg[j]]), pw_tensor([qg[j], qg[i]])
            cF, cG = pw_tensor([cg[i], cg[j]]), pw_tensor([cg[j], cg[i]])
            got = semiclassical_bracket(qF, qG, quantum_affine_multiply)
            assert got == classical_bracket(cF, cG, spec2m)


def test_qfunction_serialization(qctx):
    f = hw_coefficient(qctx, (2,), {0: 1, 1: F(1, 3)})
    js = f.to_json()
    assert js["m"] == 1
    assert js["order"] == qctx.uq.order
    assert set(js["blocks"]) == {"2"}


def test_mixed_arities_and_rings_are_rejected(qctx):
    pw = qctx.pw
    other = QAffineContext(UqContext(3))
    q1, q2 = pw_one(qctx, 1), pw_one(qctx, 2)
    c1 = pw_one(pw, 1)
    for f, g in ((q1, q2), (q1, c1), (c1, q1), (q1, pw_one(other, 1))):
        with pytest.raises(ValueError):
            f + g
        with pytest.raises(ValueError):
            f - g
        with pytest.raises(ValueError):
            q_multiply(f, g)
        with pytest.raises(ValueError):
            pw_multiply(f, g)
        with pytest.raises(ValueError):
            quantum_affine_multiply(f, g)
    with pytest.raises(ValueError):
        quantum_affine_multiply_pairwise(q1, q2)
    with pytest.raises(ValueError):
        pw_tensor([q1, c1])
    # same ring and arity from another context of the same order combine
    assert q1 + pw_one(QAffineContext(qctx.uq), 1) == q1.scale(2)
    assert c1 != pw_one(qctx, 1)


# -- references that add one series per term, through add_term -------------


def add_term(t: UqTensor, key, s: TruncatedSeries):
    """t[key] += s as one series add (the former UqTensor.add_term): a key
    whose sum cancels leaves the dict, and a later term puts it back at the
    end."""
    cur = t.data.get(key)
    ns = s if cur is None else cur + s
    if ns.is_zero():
        t.data.pop(key, None)
    else:
        t.data[key] = ns


def naive_add(a: UqTensor, b: UqTensor, sign: int = 1) -> UqTensor:
    out = UqTensor(a.ctx, a.legs)
    for k, s in a.data.items():
        add_term(out, k, s)
    for k, s in b.data.items():
        add_term(out, k, s if sign == 1 else -s)
    return out


def naive_scale(t: UqTensor, s: TruncatedSeries) -> UqTensor:
    out = UqTensor(t.ctx, t.legs)
    for k, c in t.data.items():
        add_term(out, k, c * s)
    return out


def naive_swap_legs(t: UqTensor, perm) -> UqTensor:
    out = UqTensor(t.ctx, t.legs)
    for k, s in t.data.items():
        add_term(out, tuple(k[p] for p in perm), s)
    return out


def naive_embed(t: UqTensor, legs: int, positions) -> UqTensor:
    out = UqTensor(t.ctx, legs)
    for k, s in t.data.items():
        key = [(0, 0, 0)] * legs
        for m, p in zip(k, positions):
            key[p] = m
        add_term(out, tuple(key), s)
    return out


def naive_counit_leg(t: UqTensor, j: int) -> UqTensor:
    out = UqTensor(t.ctx, t.legs - 1)
    for k, s in t.data.items():
        if k[j] == (0, 0, 0):
            add_term(out, k[:j] + k[j + 1:], s)
    return out


def naive_tensor_of(elements) -> UqTensor:
    out = UqTensor(elements[0].ctx, len(elements))
    for combo in itertools.product(*[e.data.items() for e in elements]):
        s = combo[0][1]
        for _, c in combo[1:]:
            s = s * c
        if s:
            add_term(out, tuple(k[0] for k, _ in combo), s)
    return out


def naive_mono_delta(ctx, m) -> UqTensor:
    """Delta(F)^a Delta(H)^b Delta(E)^c, the generators' coproducts
    written out and multiplied by naive_tensor_mul from the left."""
    kp, km = uq_cartan_exp(ctx, F(1, 4)), uq_cartan_exp(ctx, F(-1, 4))
    one = uq_one(ctx)
    out = tensor_one(ctx, 2)
    for name, n in zip("FHE", m):
        g = uq_gen(ctx, name)
        left, right = (one, one) if name == "H" else (kp, km)
        dg = naive_add(naive_tensor_of([g, right]), naive_tensor_of([left, g]))
        for _ in range(n):
            out = naive_tensor_mul(out, dg)
    return out


def naive_coproduct(x: UqElement) -> UqTensor:
    out = UqTensor(x.ctx, 2)
    for (m,), s in x.data.items():
        for k, s2 in naive_mono_delta(x.ctx, m).data.items():
            add_term(out, k, s * s2)
    return out


def naive_antipode(x: UqElement) -> UqElement:
    """S(F^a H^b E^c) = S(E)^c S(H)^b S(F)^a, summed term by term."""
    ctx = x.ctx
    sE = naive_scale(uq_gen(ctx, "E"), -ctx.q_inv)
    sH = naive_scale(uq_gen(ctx, "H"), TruncatedSeries.const(-1, ctx.order))
    sF = naive_scale(uq_gen(ctx, "F"), -ctx.q)
    out = UqElement(ctx)
    for (m,), s in x.data.items():
        a, b, c = m
        acc = uq_one(ctx)
        for g, n in ((sE, c), (sH, b), (sF, a)):
            for _ in range(n):
                acc = naive_tensor_mul(acc, g)
        for k, s2 in acc.data.items():
            add_term(out, k, s * s2)
    return out


def naive_tensor_mul(t1: UqTensor, t2: UqTensor) -> UqTensor:
    """Componentwise product through mono_mul on every leg, unit or not."""
    assert t1.legs == t2.legs
    ctx = t1.ctx
    out = UqTensor(ctx, t1.legs)
    for k1, s1 in t1.data.items():
        for k2, s2 in t2.data.items():
            s = s1 * s2
            if s.is_zero():
                continue
            factors = [mono_mul(ctx, m1, m2) for m1, m2 in zip(k1, k2)]
            for combo in itertools.product(*[f.items() for f in factors]):
                key = tuple(m for m, _ in combo)
                cs = s
                for _, c in combo:
                    cs = cs * c
                    if cs.is_zero():
                        break
                if not cs.is_zero():
                    add_term(out, key, cs)
    return out


def naive_tensor_inv(t: UqTensor) -> UqTensor:
    one = tensor_one(t.ctx, t.legs)
    minus_one = TruncatedSeries.const(-1, t.ctx.order)
    n = naive_add(t, one, -1)
    out = tensor_one(t.ctx, t.legs)
    power = tensor_one(t.ctx, t.legs)
    for _ in range(1, t.ctx.order):
        power = naive_scale(naive_tensor_mul(power, n), minus_one)
        out = naive_add(out, power)
    return out


def same_tensor(a: UqTensor, b: UqTensor) -> bool:
    """Equal, with the terms in the same order (reports serialize it)."""
    return a == b and list(a.data) == list(b.data)


def _random_tensor(ctx, rng, legs):
    """Up to six terms with exponents up to 2, so that E F and E^2 F^2
    bring in the series constants of kappa(H)."""
    monos = [(0, 0, 0)] * 3 + [(a, b, c) for a in range(3) for b in range(3)
                               for c in range(3)]
    data = {}
    for _ in range(rng.randint(1, 6)):
        key = tuple(rng.choice(monos) for _ in range(legs))
        v = rng.randint(0, ctx.order - 1)
        data[key] = TruncatedSeries(ctx.order, [0] * v + [
            F(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(ctx.order - v)])
    return UqTensor(ctx, legs, data)


def test_unit_leg_product_matches_all_legs_reference(ctx):
    R = r_matrix_sl2(ctx)
    assert same_tensor(R * R, naive_tensor_mul(R, R))
    for m in (2, 3):
        # the embedded factors of twi_m, multiplied in its order
        acc = tensor_one(ctx, 2 * m)
        for k in range(2, m + 1):
            for l in range(k - 1, 0, -1):
                f = R.embed(2 * m, (k - 1, m + l - 1))
                got = acc * f
                assert same_tensor(got, naive_tensor_mul(acc, f))
                acc = got
        assert acc == twi_m(R, m)
    J = twi_m(R, 2)
    assert same_tensor(tensor_inv(J), naive_tensor_inv(J))


def test_random_products_match_all_legs_reference():
    rng = random.Random(11)
    for K in range(1, 7):
        uq = UqContext(K)
        for _ in range(20):
            legs = rng.randint(1, 4)
            a, b = _random_tensor(uq, rng, legs), _random_tensor(uq, rng, legs)
            assert same_tensor(a * b, naive_tensor_mul(a, b))


def test_product_key_that_cancels_and_revives_moves_to_the_end():
    """In (1 + H + E)(H - 1 + F) the H term of 1*H cancels against H*(-1),
    and kappa(H) of E*F brings it back: it must come out last, where the
    series additions of add_term put it."""
    U, H, E, Fm = (0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0)
    for K in range(1, 7):
        uq = UqContext(K)
        x = UqElement(uq, {U: 1, H: 1, E: 1})
        y = UqElement(uq, {H: 1, U: -1, Fm: 1})
        got = x * y
        assert same_tensor(got, naive_tensor_mul(x, y))
        keys = list(got.data)
        assert keys.index((H,)) > keys.index((E,)) > keys.index((U,))
        assert got.data[(H,)].constant_term() == 1
        # the same on a second leg, behind a non-unit first leg
        x2, y2 = tensor_of([uq_gen(uq, "F"), x]), tensor_of([uq_gen(uq, "E"), y])
        assert same_tensor(x2 * y2, naive_tensor_mul(x2, y2))


# -- the former delta_leg loop, kept as the reference for delta_leg ----------


def naive_delta_leg(t: UqTensor, j: int) -> UqTensor:
    """Delta on leg j through add_term, one series product per term."""
    ctx = t.ctx
    out = UqTensor(ctx, t.legs + 1)
    deltas = {}
    for k, s in t.data.items():
        if k[j] not in deltas:
            deltas[k[j]] = naive_mono_delta(ctx, k[j])
        for (m1, m2), s2 in deltas[k[j]].data.items():
            add_term(out, k[:j] + (m1, m2) + k[j + 1:], s * s2)
    return out


def test_delta_leg_matches_former_loop():
    rng = random.Random(5)
    for K in range(1, 7):
        uq = UqContext(K)
        R = r_matrix_sl2(uq)
        for j in (0, 1):
            assert same_tensor(delta_leg(R, j), naive_delta_leg(R, j))
        for _ in range(8):
            t = _random_tensor(uq, rng, rng.randint(1, 3))
            j = rng.randrange(t.legs)
            assert same_tensor(delta_leg(t, j), naive_delta_leg(t, j))


def _as_element(t: UqTensor) -> UqElement:
    return UqElement(t.ctx, {m: s for (m,), s in t.data.items()})


def _random_series(ctx, rng):
    """A series of random valuation, zero now and then, so that products
    with it may vanish mod hbar^K."""
    K = ctx.order
    v = rng.randint(0, K)
    return TruncatedSeries(K, [0] * v + [
        F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(K - v)])


def test_sums_and_maps_match_add_term_loops():
    """+ and - sum through kernel.series_sums, the maps that are one-to-one
    on keys build their dicts directly; each must give the add_term loop's
    tensor, key order included."""
    rng = random.Random(29)
    for K in range(1, 7):
        uq = UqContext(K)
        for _ in range(12):
            legs = rng.randint(1, 4)
            a, b = _random_tensor(uq, rng, legs), _random_tensor(uq, rng, legs)
            assert same_tensor(a + b, naive_add(a, b))
            assert same_tensor(a - b, naive_add(a, b, -1))
            assert (a - a).is_zero()
            s = _random_series(uq, rng)
            assert same_tensor(a.scale(s), naive_scale(a, s))
            perm = rng.sample(range(legs), legs)
            assert same_tensor(a.swap_legs(perm), naive_swap_legs(a, perm))
            big = legs + rng.randint(0, 2)
            positions = rng.sample(range(big), legs)
            assert same_tensor(a.embed(big, positions),
                               naive_embed(a, big, positions))
            j = rng.randrange(legs)
            assert same_tensor(counit_leg(a, j), naive_counit_leg(a, j))
        for _ in range(6):
            xs = [_as_element(_random_tensor(uq, rng, 1))
                  for _ in range(rng.randint(1, 3))]
            assert same_tensor(tensor_of(xs), naive_tensor_of(xs))
            x = xs[0]
            assert same_tensor(coproduct(x), naive_coproduct(x))
            sx = antipode(x)
            assert isinstance(sx, UqElement)
            assert same_tensor(sx, naive_antipode(x))


def _delta_from_scratch(ctx, m) -> UqTensor:
    """Delta(F)^a Delta(H)^b Delta(E)^c multiplied from the left starting
    at 1, every letter again: the loop that grew no entry from another
    (a generator is its own coproduct)."""
    gens = que._delta_generators(ctx)
    if m in gens:
        return gens[m]
    out = tensor_one(ctx, 2)
    for g, n in zip(que._GENERATORS.values(), m):
        for _ in range(n):
            out = out * gens[g]
    return out


def _antipode_from_scratch(ctx, m) -> UqTensor:
    """S(E)^c S(H)^b S(F)^a multiplied from the left starting at 1."""
    a, b, c = m
    out = uq_one(ctx)
    for g, n, s in (("E", c, -ctx.q_inv), ("H", b, F(-1)),
                    ("F", a, -ctx.q)):
        sg = uq_gen(ctx, g).scale(s)
        for _ in range(n):
            out = out * sg
    return out


@pytest.mark.parametrize("K", [3, 4])
def test_grown_coproducts_and_antipodes_are_the_from_scratch_products(K):
    """Delta and S of every monomial of degree <= 4, each grown from the
    monomial one letter shorter, equal the products from 1 in values and
    key order, whether the memo fills from short monomials up or from
    long ones down."""
    monos = [m for m in itertools.product(range(5), repeat=3) if sum(m) <= 4]
    for order in (monos, monos[::-1]):
        uq = UqContext(K)
        for m in order:
            for got, want in ((que._mono_delta(uq, m),
                               _delta_from_scratch(uq, m)),
                              (que._mono_antipode(uq, m),
                               _antipode_from_scratch(uq, m))):
                assert got == want.data and list(got) == list(want.data)
        assert sorted(uq._delta) == sorted(uq._antipode) == sorted(monos)


def test_difference_key_that_cancels_and_revives_moves_to_the_end():
    """x - y drops the H term that cancels; subtracting a later H term
    brings it back behind the others, as add_term does."""
    U, H, E = (0, 0, 0), (0, 1, 0), (0, 0, 1)
    for K in range(1, 7):
        uq = UqContext(K)
        h = TruncatedSeries(K, [F(2, 3)] + [F(1, 5)] * (K - 1))
        x = UqElement(uq, {U: 1, H: h, E: 3})
        y = UqElement(uq, {H: h, E: 1})
        d = x - y
        assert same_tensor(d, naive_add(x, y, -1))
        assert list(d.data) == [(U,), (E,)]
        z = UqElement(uq, {H: -5})
        revived = d - z
        assert same_tensor(revived, naive_add(d, z, -1))
        assert list(revived.data) == [(U,), (E,), (H,)]
        assert revived.data[(H,)] == 5
        assert same_tensor(d + (y - z), naive_add(d, naive_add(y, z, -1)))


# -- one-pass residuals, against the naive products and differences -------


def _broken_r(uq, n=2):
    """R + hbar^(K-1) F^n (x) E^n: a wrong R-matrix whose orders below K-1
    are right.  With n = 1 the bump is primitive in each leg mod hbar,
    and the hexagons and the twist axiom are linear in it at the top
    order, so only almost-cocommutativity and its twisted form see it;
    with n = 2 every check does."""
    bump = TruncatedSeries.hbar(uq.order, uq.order - 1)
    return r_matrix_sl2(uq) + UqTensor(uq, 2, {((n, 0, 0), (0, 0, n)): bump})


def _naive_difference(a, b, c, d):
    """a b - c d from naive_tensor_mul and naive_add."""
    return naive_add(naive_tensor_mul(a, b), naive_tensor_mul(c, d), -1)


def _naive_block_delta(t, m, first):
    for j in range(m):
        t = naive_delta_leg(t, first + 2 * j)
    perm = (list(range(first)) + [first + 2 * j for j in range(m)]
            + [first + 2 * j + 1 for j in range(m)]
            + list(range(first + 2 * m, t.legs)))
    return naive_swap_legs(t, perm)


@pytest.mark.parametrize("K,n", [(3, 1), (4, 1), (3, 2), (4, 2)])
def test_one_pass_residuals_match_naive_differences_on_a_broken_r(K, n):
    """On R + hbar^(K-1) F^n (x) E^n each residual the quantum suite reads
    equals, values and key order, the difference of the two sides built
    by naive_tensor_mul and naive_add, and is nonzero wherever the bump
    breaks the identity (see _broken_r)."""
    uq = UqContext(K)
    R = _broken_r(uq, n)
    res = almost_cocommutativity_residuals(uq, R)
    for g, r in zip("EFH", res):
        x = uq_gen(uq, g)
        assert same_tensor(
            r, _naive_difference(R, coproduct(x), coproduct_op(x), R))
    # the bump has weight 0, so it commutes with Delta(H)
    assert [r.is_zero() for r in res] == [False, False, True]
    r13, r23, r12 = R.embed(3, (0, 2)), R.embed(3, (1, 2)), R.embed(3, (0, 1))
    for j, r, h in zip((0, 1), (r23, r12), hexagon_residuals(uq, R)):
        assert h.is_zero() == (n == 1)
        assert same_tensor(h, naive_add(naive_delta_leg(R, j),
                                        naive_tensor_mul(r13, r), -1))
    J = twi_m(R, 2)
    resid, _, _ = twist_condition_residuals(J, 2)
    assert resid.is_zero() == (n == 1)
    assert same_tensor(resid, _naive_difference(
        _naive_block_delta(J, 2, 0), block_embed(J, 2, 3, (0, 1)),
        _naive_block_delta(J, 2, 2), block_embed(J, 2, 3, (1, 2))))
    R2, th = r_matrix_m(R, 2), TwistedHopf(J, 2)
    nonzero = 0
    for mono in ((0, 0, 1), (1, 0, 0), (0, 1, 0)):
        for leg in (0, 1):
            key = [(0, 0, 0), (0, 0, 0)]
            key[leg] = mono
            d = th.delta(UqTensor(uq, 2, {tuple(key): 1}))
            d_op = d.swap_legs((2, 3, 0, 1))
            got = intertwining_residual(R2, d, d_op)
            assert same_tensor(got, _naive_difference(R2, d, d_op, R2))
            nonzero += not got.is_zero()
    assert nonzero


def test_one_pass_residual_matches_naive_on_random_tensors():
    """a b - c a and a b - b a for random 1-4-leg tensors with unit legs:
    their two products share keys, and some of those cancel."""
    rng = random.Random(41)
    cancelled = 0
    for K in range(1, 6):
        uq = UqContext(K)
        for _ in range(10):
            legs = rng.randint(1, 4)
            a, b, c = (_random_tensor(uq, rng, legs) for _ in range(3))
            for d_op in (c, b):
                left, right = naive_tensor_mul(a, b), naive_tensor_mul(d_op, a)
                want = naive_add(left, right, -1)
                assert same_tensor(intertwining_residual(a, b, d_op), want)
                cancelled += len(left.data.keys() & right.data.keys()
                                 - want.data.keys())
            one = tensor_one(uq, legs)
            assert intertwining_residual(a, one, one).is_zero()
    assert cancelled


# -- pairs that meet at hbar^(K-1): the short product of _product_sums ----


def _tensor_at_every_valuation(ctx, rng, legs):
    """One term at each valuation 0..K-1 (keys may repeat, and then the
    later term wins), on random keys with unit legs; half the series
    have only their leading coefficient."""
    K = ctx.order
    monos = [(0, 0, 0)] * 3 + [(a, b, c) for a in range(3) for b in range(3)
                               for c in range(3)]
    data = {}
    for v in range(K):
        key = tuple(rng.choice(monos) for _ in range(legs))
        lead = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        tail = ([F(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(K - v - 1)] if rng.random() < 0.5 else [])
        data[key] = TruncatedSeries(K, [0] * v + [lead] + tail)
    return UqTensor(ctx, legs, data)


def test_top_order_pairs_match_all_legs_reference():
    """Products and one-pass residuals of tensors with a term at every
    valuation, at K = 1..6: each product has pairs at every total
    valuation, those at K - 1 carried as scalars."""
    rng = random.Random(53)
    for K in range(1, 7):
        uq = UqContext(K)
        for _ in range(8):
            legs = rng.randint(1, 4)
            a, b, c = (_tensor_at_every_valuation(uq, rng, legs)
                       for _ in range(3))
            assert same_tensor(a * b, naive_tensor_mul(a, b))
            assert same_tensor(intertwining_residual(a, b, c),
                               _naive_difference(a, b, c, a))


def test_products_on_a_warm_context_match_a_fresh_one():
    """_product_sums keeps its mono_mul tables on the context: products
    and one-pass residuals on a context warmed by the same products, and
    R^(2) after them, equal those on a fresh context, values and key
    order."""
    rng = random.Random(67)
    for K in range(1, 6):
        warm = UqContext(K)
        cases = []
        for _ in range(8):
            legs = rng.randint(1, 4)
            cases.append([_tensor_at_every_valuation(warm, rng, legs)
                          for _ in range(3)])
        for a, b, c in cases:
            a * b
            intertwining_residual(a, b, c)
        # at K = 1 every pair is top-order, so only the hbar^0 tables fill
        assert warm._mul_tops and (K == 1 or warm._mul_tables)
        for a, b, c in cases:
            fresh = UqContext(K)
            fa, fb, fc = (UqTensor(fresh, t.legs, t.data) for t in (a, b, c))
            assert same_tensor(a * b, fa * fb)
            assert same_tensor(intertwining_residual(a, b, c),
                               intertwining_residual(fa, fb, fc))
        assert same_tensor(r_matrix_m(r_matrix_sl2(warm), 2),
                           r_matrix_m(r_matrix_sl2(UqContext(K)), 2))


def test_every_pair_is_top_order_at_k1():
    """At K = 1 every pair of terms meets at hbar^0 = hbar^(K-1), so the
    products, residuals and R-matrix checks run on the short product
    alone."""
    uq = UqContext(1)
    rng = random.Random(59)
    for _ in range(20):
        legs = rng.randint(1, 4)
        a, b, c = (_random_tensor(uq, rng, legs) for _ in range(3))
        assert same_tensor(a * b, naive_tensor_mul(a, b))
        assert same_tensor(intertwining_residual(a, b, c),
                           _naive_difference(a, b, c, a))
    R = r_matrix_sl2(uq)
    assert same_tensor(R * R, naive_tensor_mul(R, R))
    assert all(r.is_zero() for r in almost_cocommutativity_residuals(uq, R))
    assert all(h.is_zero() for h in hexagon_residuals(uq, R))
    J = twi_m(R, 2)
    assert same_tensor(J, naive_tensor_mul(tensor_one(uq, 4),
                                           R.embed(4, (1, 2))))
    assert twist_condition_residuals(J, 2)[0].is_zero()


@pytest.mark.parametrize("K", [2, 3, 4, 5])
def test_top_order_and_lower_order_pairs_share_a_key(K):
    """A key that a scalar at hbar^(K-1) reaches first and a lower-order
    pair reaches later, and the reverse, with sums that cancel and come
    back at the end."""
    U, H, E, Fm = (0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0)
    top = TruncatedSeries.hbar(K, K - 1)
    uq = UqContext(K)
    # H: the scalar of U*H enters it, the scalar of H*(-top U) cancels it,
    # and kappa(H) of the lower-order E*F brings it back behind F E
    x = UqElement(uq, {U: top, H: 1, E: 1})
    y = UqElement(uq, {H: 1, U: -top, Fm: 1})
    got = x * y
    assert same_tensor(got, naive_tensor_mul(x, y))
    keys = list(got.data)
    FE = (1, 0, 1)
    assert keys.index((H,)) > keys.index((FE,))
    # E: the lower-order E*H enters it, the scalar of E*(-top U) adds to it
    assert keys.index((E,)) < keys.index((FE,))
    # H^3 at K = 3: kappa_3 = hbar^2/24 of the lower-order E*F enters it
    # at hbar^(K-1) only, the scalar of top*(-H^3/24) cancels it, and the
    # lower-order H*H^2 brings it back at the end
    H2, H3 = (0, 2, 0), (0, 3, 0)
    if K == 3:
        x = UqElement(uq, {E: 1, U: top, H: 1})
        y = UqElement(uq, {Fm: 1, H3: F(-1, 24), H2: 1})
        got = x * y
        assert same_tensor(got, naive_tensor_mul(x, y))
        keys = list(got.data)
        assert keys[-1] == (H3,) and keys.index((Fm,)) < len(keys) - 1
    # H: lower-order pairs leave it at hbar^(K-1) only, and the hbar^0
    # constant kappa_1 = 1 of the scalar top E * (-F) cancels it
    x = UqElement(uq, {U: 1, H: 1, E: top})
    y = UqElement(uq, {H: 1, U: top - 1, Fm: -1})
    got = x * y
    assert same_tensor(got, naive_tensor_mul(x, y))
    assert (H,) not in got.data and (E,) in got.data


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_residual_keeps_a_held_key_through_a_zero_sum(K):
    """a b - c a, where the second product passes a key of the first
    through zero and then leaves it nonzero: the key keeps its place in
    the first product's order, as naive_add of the two sides gives it,
    whether the crossing is made by a scalar at hbar^(K-1) or not."""
    U, H, H2 = (0, 0, 0), (0, 1, 0), (0, 2, 0)
    uq = UqContext(K)
    top = TruncatedSeries.hbar(K, K - 1)
    # b = top H: the scalar of (top U) * H takes H of a b to zero, and
    # H * U then leaves it at -1; b = H: the same by lower-order pairs
    cases = [({U: 1, H: 1}, {H: top}, {U: top, H: 1}),
             ({U: 1, H: 1}, {H: 1}, {U: 1, H: 1})]
    for a, b, c in cases:
        a, b, c = (UqElement(uq, t) for t in (a, b, c))
        got = intertwining_residual(a, b, c)
        assert same_tensor(got, _naive_difference(a, b, c, a))
        assert list(got.data)[0] == (H,)
        assert (a * b).data.keys() >= {(H,), (H2,)}


@pytest.mark.parametrize("K", [3, 4, 5])
def test_one_pass_block_delta_matches_leg_by_leg_passes(K):
    """_block_delta, one pass over products of the legs' coproducts,
    against the leg-by-leg passes and the regrouping of _naive_block_delta,
    for blocks of m = 1..3 legs at either end of Twi^m(R) and of random
    tensors.  The values agree everywhere, and so does the key order but
    for Twi^3(R) at K = 5: there keys cancel and re-enter the running sums
    at other points of the passes than of the one pass, and so come out in
    another order."""
    uq = UqContext(K)
    R = r_matrix_sl2(uq)
    rng = random.Random(K)
    for m in (1, 2, 3):
        tensors = [twi_m(R, m)]
        tensors += [_random_tensor(uq, rng, 2 * m) for _ in range(2)]
        for i, t in enumerate(tensors):
            for first in (0, m):
                got = _block_delta(t, m, first)
                want = _naive_block_delta(t, m, first)
                assert got == want
                same_order = list(got.data) == list(want.data)
                assert same_order == ((K, m, i) != (5, 3, 0))


def test_quantum_checks_fail_on_a_broken_r(monkeypatch):
    """The suite's three R-matrix checks refute R + hbar^(K-1) F^2 (x) E^2."""
    import qaffine.que as que
    from qaffine.cli import RunConfig, run_suite

    monkeypatch.setattr(que, "r_matrix_sl2", _broken_r)
    for K in (3, 4):
        report = run_suite(RunConfig(hbar_order=K, suites=("quantum",)))
        status = {c["id"]: c["status"] for c in report.checks}
        assert [status[c] for c in ("quantum.rmatrix", "quantum.twists",
                                    "quantum.rmatrix-m")] == ["fail"] * 3


def test_quantum_checks_fail_on_an_untwisted_r2(monkeypatch):
    """With R^(2) replaced by R13 R24, which lacks only the twist, the
    suite's rmatrix-m and semiclassical checks fail and the other four,
    which never read R^(2), pass."""
    import qaffine.que as que
    from qaffine.cli import RunConfig, run_suite

    monkeypatch.setattr(que, "r_matrix_m", _untwisted_r_matrix_m)
    for K in (3, 4):
        report = run_suite(RunConfig(hbar_order=K, suites=("quantum",)))
        status = {c["id"]: c["status"] for c in report.checks}
        assert status == {
            "quantum.algebra": "pass", "quantum.rmatrix": "pass",
            "quantum.twists": "pass", "quantum.rmatrix-m": "fail",
            "quantum.semiclassical": "fail",
            "quantum.factorization": "pass"}


# -- the former R~ loop of _apply_rtilde, kept as its reference -------------


def _apply_rtilde_ref(qctx, P, fa, fb):
    """base = c * s * scalar and each term base * c1 * c2 as reduced series
    products, summed per entry in vec_sum by BlockFunction._from_terms."""
    uq = qctx.uq

    def terms():
        for key, blk in P.blocks.items():
            scalar = uq.q_half_power(-key[fa][0] * key[fb][0])
            for (m1, m2), s in qctx.R.data.items():
                y1, y2 = UqElement(uq, {m1: 1}), UqElement(uq, {m2: 1})
                lines1 = qctx.slot_action(key[fa], y1, "left")
                lines2 = qctx.slot_action(key[fb], y2, "left")
                for idx, c in blk.items():
                    base = c * s * scalar
                    if not base:
                        continue
                    for s1, c1 in lines1[idx[2 * fa]].items():
                        for s2, c2 in lines2[idx[2 * fb]].items():
                            nidx = list(idx)
                            nidx[2 * fa] = s1
                            nidx[2 * fb] = s2
                            yield (key, tuple(nidx)), base * c1 * c2
    return BlockFunction._from_terms(qctx, P.m, terms())


def _same_blocks(f, g):
    """Equal blocks, in the same order, with their entries in the same
    order."""
    return (list(f.blocks) == list(g.blocks)
            and all(list(f.blocks[k].items()) == list(g.blocks[k].items())
                    for k in f.blocks))


def _skewed_r(uq):
    """R + hbar^(K-1) (F^2 H (x) H E^2 + F E (x) F H E): not of the closed
    form, with H-powers on a term of an existing E/F skeleton, and a new
    skeleton with a > 0 and c > 0 on both legs and an H-power behind the
    F of the second leg."""
    K = uq.order
    bump = TruncatedSeries.hbar(K, K - 1)
    return r_matrix_sl2(uq) + UqTensor(uq, 2, {
        ((2, 1, 0), (0, 1, 2)): bump, ((1, 0, 1), (1, 1, 1)): bump})


@pytest.mark.parametrize("K", [3, 4, 5, 6])
def test_rtilde_action_matches_series_product_loop(K):
    """Every R~ application of quantum_affine_multiply at m = 2 and 3, on
    products of random coefficients (some of high valuation, so that a
    term vanishes mod hbar^K), against the series-product loop; with R
    itself, and with an R not of the closed form (see _skewed_r)."""
    uq = UqContext(K)
    for R in (r_matrix_sl2(uq), _skewed_r(uq)):
        qctx = QAffineContext(uq)
        qctx.R = R
        _check_rtilde_against_loop(qctx, random.Random(K))


def _check_rtilde_against_loop(qctx, rng):
    K = qctx.uq.order

    def coefficient():
        n = rng.randint(1, 2)
        xi = {a: _random_series(qctx.uq, rng) for a in range(n + 1)}
        xi[rng.randint(0, n)] = TruncatedSeries(K, [
            F(rng.randint(1, 4), rng.randint(1, 3))] * K)  # never zero
        return hw_coefficient(qctx, (n,), xi)

    for m in (2, 3):
        pairs = [(k - 1, m + l - 1) for k in range(2, m + 1)
                 for l in range(k - 1, 0, -1)]
        for _ in range(2):
            P = pw_tensor([coefficient() for _ in range(2 * m)])
            for fa, fb in reversed(pairs):
                got = _apply_rtilde(qctx, P, fa, fb)
                assert got.blocks and got != P
                assert _same_blocks(got, _apply_rtilde_ref(qctx, P, fa, fb))
                P = got
            # the case split's placement, the first leg on the second group
            assert _same_blocks(_apply_rtilde(qctx, P, m, 0),
                                _apply_rtilde_ref(qctx, P, m, 0))


@pytest.mark.parametrize("K", [3, 4, 5])
def test_slot_action_of_an_h_power_is_a_weight_power(K):
    """rho(S(F^a H^b E^c)) w_k = (-(n - 2(k + a)))^b rho(S(F^a E^c)) w_k,
    since S(F^a H^b E^c) = S(E)^c (-H)^b S(F)^a: the identity by which
    QAffineContext.rtilde_table collapses the H-powers of an E/F skeleton
    of R.  On both slots, for n <= 4, a, c <= n and b < K."""
    qctx = QAffineContext(UqContext(K))
    uq = qctx.uq
    for n in range(5):
        for a in range(n + 1):
            for c in range(n + 1):
                skeleton = UqElement(uq, {(a, 0, c): 1})
                right = qctx.slot_action((n,), skeleton, "right")
                left = qctx.slot_action((n,), skeleton, "left")
                for b in range(K):
                    y = UqElement(uq, {(a, b, c): 1})
                    # column k of the right slot is the image of w_k, and
                    # entry k of each line of the left slot its transpose
                    assert qctx.slot_action((n,), y, "right") == [
                        {j: x for j, e in col.items()
                         if (x := e * (2 * (k + a) - n) ** b)}
                        for k, col in enumerate(right)]
                    assert qctx.slot_action((n,), y, "left") == [
                        {k: x for k, e in line.items()
                         if (x := e * (2 * (k + a) - n) ** b)}
                        for line in left]


# -- the former bump loops of _lE_mono and mono_mul, kept as references -----


def _ref_shifted_h_power(n, shift):
    """(H + shift)^n as {H-power: coefficient}, one factor at a time."""
    out = {0: F(1)}
    for _ in range(n):
        nxt = {}
        for p, c in out.items():
            nxt[p + 1] = nxt.get(p + 1, F(0)) + c
            if shift != 0:
                nxt[p] = nxt.get(p, F(0)) + c * shift
        out = nxt
    return {p: c for p, c in out.items() if c != 0}


def _ref_lE_mono(ctx, m, memo):
    """Left multiplication by E, one series add per term."""
    if m in memo:
        return memo[m]
    a, b, c = m
    out = {}

    def bump(mono, s):
        cur = out.get(mono)
        ns = s if cur is None else cur + s
        if ns.is_zero():
            out.pop(mono, None)
        else:
            out[mono] = ns

    if a == 0:
        for p, coeff in _ref_shifted_h_power(b, F(-2)).items():
            bump((0, p, c + 1), TruncatedSeries.const(coeff, ctx.order))
    else:
        for (a2, b2, c2), s in _ref_lE_mono(ctx, (a - 1, b, c), memo).items():
            bump((a2 + 1, b2, c2), s)
        for n, ks in ctx.kappa.items():
            for p, coeff in _ref_shifted_h_power(n, F(-2 * (a - 1))).items():
                bump((a - 1, p + b, c), ks * coeff)
    memo[m] = out
    return out


def _ref_left_E(ctx, cur, memo):
    """E * cur, the first pass of the former mono_mul."""
    nxt = {}
    for m, s in cur.items():
        for m3, s3 in _ref_lE_mono(ctx, m, memo).items():
            ns = s * s3
            if ns.is_zero():
                continue
            acc = nxt.get(m3)
            ns2 = ns if acc is None else acc + ns
            if ns2.is_zero():
                nxt.pop(m3, None)
            else:
                nxt[m3] = ns2
    return nxt


def _ref_left_H(ctx, cur, b1):
    """H^b1 * cur, the second pass of the former mono_mul."""
    nxt = {}
    for (a, b, c), s in cur.items():
        for p, coeff in _ref_shifted_h_power(b1, F(-2 * a)).items():
            m3 = (a, p + b, c)
            ns = s * coeff
            acc = nxt.get(m3)
            ns2 = ns if acc is None else acc + ns
            if ns2.is_zero():
                nxt.pop(m3, None)
            else:
                nxt[m3] = ns2
    return nxt


def test_shifted_h_power_matches_former_loop():
    """The binomial expansion, key order included."""
    from qaffine.que import _shifted_h_power

    for n in range(8):
        for shift in (F(0), F(-2), F(-6), F(3, 2)):
            got = _shifted_h_power(n, shift)
            assert list(got.items()) == \
                list(_ref_shifted_h_power(n, shift).items())
            assert all(type(c) is F for c in got.values())


def test_mono_mul_matches_former_bump_loops():
    """E times every monomial with exponents up to 3, and every product of
    two of them, equal the former loops' dicts, key order included.  The
    reference shares its E^c1 passes between the m1 = F^a1 H^b1 E^c1."""
    from qaffine.que import _lE_mono

    monos = list(itertools.product(range(4), repeat=3))
    for K in range(1, 7):
        uq = UqContext(K)
        memo = {}
        for m in monos:
            assert list(_lE_mono(uq, m).items()) == \
                list(_ref_lE_mono(uq, m, memo).items()), (K, m)
        for m2 in monos:
            cur = {m2: uq.one_series()}
            for c1 in range(4):
                if c1:
                    cur = _ref_left_E(uq, cur, memo)
                for b1 in range(4):
                    want = _ref_left_H(uq, cur, b1) if b1 else cur
                    for a1 in range(4):
                        got = mono_mul(uq, (a1, b1, c1), m2)
                        assert list(got.items()) == [
                            ((a + a1, b, c), s)
                            for (a, b, c), s in want.items()], (K, a1, b1, c1, m2)


# -- the product of the former element class, kept as the reference for ----
# -- UqTensor.__mul__ on one leg ----------------------------------------------


class _ElementRef:
    """The element class before elements became one-leg tensors: dict
    mono -> TruncatedSeries, with its own product loop."""

    def __init__(self, ctx, data):
        self.ctx = ctx
        self.data = dict(data)

    def add_term(self, m, s):
        cur = self.data.get(m)
        ns = s if cur is None else cur + s
        if ns.is_zero():
            self.data.pop(m, None)
        else:
            self.data[m] = ns

    def __mul__(self, other):
        out = _ElementRef(self.ctx, {})
        for m1, s1 in self.data.items():
            for m2, s2 in other.data.items():
                s = s1 * s2
                if s.is_zero():
                    continue
                for m, c in mono_mul(self.ctx, m1, m2).items():
                    out.add_term(m, c * s)
        return out


def _random_element(uq, rng):
    """Up to five terms, the unit among them often, each of a random
    hbar-valuation below the order."""
    monos = [(0, 0, 0)] * 4 + [(a, b, c) for a in range(3) for b in range(2)
                               for c in range(3)]
    K = uq.order
    data = {}
    for _ in range(rng.randint(1, 5)):
        v = rng.randint(0, K - 1)
        data[rng.choice(monos)] = TruncatedSeries(K, [0] * v + [
            F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(K - v)])
    return UqElement(uq, data)


def test_element_product_matches_former_element_loop():
    rng = random.Random(23)
    for K in range(1, 6):
        uq = UqContext(K)
        for _ in range(12):
            x, y = _random_element(uq, rng), _random_element(uq, rng)
            got = x * y
            want = (_ElementRef(uq, {k: s for (k,), s in x.data.items()})
                    * _ElementRef(uq, {k: s for (k,), s in y.data.items()}))
            assert got.legs == 1
            # equal values, inserted in the same order
            assert [(k, s) for (k,), s in got.data.items()] == \
                list(want.data.items())


def test_memoized_slot_action_matches_fresh(qctx):
    uq = qctx.uq
    ys = [UqElement(uq, {m1: 1}) for m1, _ in qctx.R.data]
    ys += [UqElement(uq, {m2: 1}) for _, m2 in qctx.R.data]
    ys += [uq_gen(uq, "E") + uq_gen(uq, "F").scale(F(1, 2)), uq_one(uq)]
    for n in range(4):
        for y in ys:
            for side in ("left", "right"):
                got = qctx.slot_action((n,), y, side)
                assert qctx.slot_action((n,), y, side) is got
                mat = _dense_act(uq.order, n, antipode(y))
                fresh = sparse_columns(
                    mat if side == "right" else list(zip(*mat)))
                assert got == fresh


def _dense_q_evaluate(f, *us):
    """q_evaluate as a product of entries of dense matrices rho(S(u))."""
    K = f.ctx.uq.order
    out = TruncatedSeries.zero(K)
    for key, blk in f.blocks.items():
        mats = [_dense_act(K, key[j][0], antipode(u)) for j, u in enumerate(us)]
        for idx, s in blk.items():
            for j, mat in enumerate(mats):
                s = s * mat[idx[2 * j]][idx[2 * j + 1]]
            out = out + s
    return out


def test_q_evaluate_matches_dense_evaluation(qctx):
    """On V_hbar(n), n <= 4, at E, F, H, the legs of R and a sum of them,
    and on the tensor of two factors, q_evaluate reads the dense value."""
    from qaffine.coiso import q_evaluate

    uq = qctx.uq
    rng = random.Random(5)
    E, Fg, H = uq_gen(uq, "E"), uq_gen(uq, "F"), uq_gen(uq, "H")
    legs = [UqElement(uq, {m: 1}) for key in qctx.R.data for m in key]
    us = [E, Fg, H] + legs + [E + Fg.scale(F(1, 2)) + H + legs[-1]]
    fs = [matrix_coefficient(
        qctx, (n,), {a: rng.randint(-2, 2) for a in range(n + 1)},
        {b: F(rng.randint(-3, 3), rng.randint(1, 3)) for b in range(n + 1)})
        for n in range(5)]
    for f in fs:
        for u in us:
            assert q_evaluate(f, u) == _dense_q_evaluate(f, u)
    for f, g in ((fs[1], fs[4]), (fs[3], fs[2])):
        fg = pw_tensor([f, g])
        for u, w in ((E, Fg), (H, legs[1]), (us[-1], E)):
            assert q_evaluate(fg, u, w) == _dense_q_evaluate(fg, u, w)


def test_leg_counts_must_match(ctx):
    t2, t3 = tensor_one(ctx, 2), tensor_one(ctx, 3)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(t2, t3)
        with pytest.raises(ValueError):
            op(t3, t2)
    with pytest.raises(ValueError):
        hopf_power_delta(t3, 2)
    with pytest.raises(ValueError):
        block_embed(t3, 2, 3, (0, 1))
    with pytest.raises(ValueError):
        block_embed(tensor_one(ctx, 4), 2, 3, (0,))
    with pytest.raises(ValueError):  # a 1-leg key in a 2-leg tensor
        UqTensor(ctx, 2, {((0, 0, 1),): 1}) * tensor_one(ctx, 2)


def test_swap_and_embed_reject_maps_that_merge_keys(ctx):
    """swap_legs and embed move each key to one output key, so a map that
    could send two keys to one is refused before it merges them."""
    t = tensor_of([uq_gen(ctx, "E"), uq_gen(ctx, "F") + uq_one(ctx)])
    for perm in ((0, 0), (1, 1), (0,), (0, 1, 2), (1, 2), (-1, 0)):
        with pytest.raises(ValueError):
            t.swap_legs(perm)
    assert t.swap_legs((1, 0)).swap_legs([1, 0]) == t
    for legs, positions in ((3, (0, 0)), (3, (2, 2)), (3, (0, 3)),
                            (3, (-1, 0)), (3, (0,)), (3, (0, 1, 2)),
                            (1, (0, 1))):
        with pytest.raises(ValueError):
            t.embed(legs, positions)
    assert counit_leg(t.embed(3, [2, 0]), 1) == t.swap_legs((1, 0))


def test_leg_counts_are_checked_under_optimization():
    """The checks are not asserts: they hold under `python -O` too."""
    code = (
        "from qaffine.que import UqContext, UqTensor, tensor_one\n"
        "ctx = UqContext(2)\n"
        "for op in ('__add__', '__sub__', '__mul__'):\n"
        "    try:\n"
        "        getattr(tensor_one(ctx, 2), op)(tensor_one(ctx, 3))\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('%s accepted 2 and 3 legs' % op)\n"
        "try:\n"
        "    UqTensor(ctx, 2, {((0, 0, 1),): 1}) * tensor_one(ctx, 2)\n"
        "except ValueError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('a 1-leg key in a 2-leg tensor was accepted')\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- the whole-matrix series split, kept as the reference for _build_qcg ----


def _smat_vec(a, v):
    out = []
    for row in a:
        s = None
        for c, x in zip(row, v):
            if c.is_zero() or x.is_zero():
                continue
            p = c * x
            s = p if s is None else s + p
        out.append(s if s is not None else row[0] - row[0])
    return out


def _smat_inv(a, ctx: UqContext):
    """Gauss-Jordan over the series ring; pivots need unit constant term."""
    n = len(a)
    one = ctx.one_series()
    zero = ctx.zero_series()
    aug = [[a[i][j] for j in range(n)] +
           [one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(
            (r for r in range(col, n) if aug[r][col].constant_term() != 0), None
        )
        if piv is None:
            raise ValueError("matrix not invertible over the series ring")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inv()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _cartan_diag(rep: QIrrep, coeff: Fraction):
    """exp(hbar*coeff*H) as a diagonal matrix."""
    ctx = rep.ctx
    out = _smat_zero(ctx.order, rep.dim, rep.dim)
    for k, w in enumerate(rep.weights):
        out[k][k] = (TruncatedSeries.hbar(ctx.order) * (coeff * w)).exp()
    return out


class DenseQContext(QAffineContext):
    """V_hbar(n) (x) V_hbar(m) split with dense series matrices of the
    coproduct and one inverse of the whole injection; cg gives the whole
    split as its dense summands."""

    def _tensor_generator_mats(self, va: QIrrep, vb: QIrrep):
        """Matrices of E, F on V_hbar(n)(x)V_hbar(m) via the coproduct."""
        ctx = self.uq
        da, db = va.dim, vb.dim
        kp_a = _cartan_diag(va, Fraction(1, 4))
        km_b = _cartan_diag(vb, Fraction(-1, 4))

        def kron(A, B):
            out = _smat_zero(ctx.order, da * db, da * db)
            for i in range(da):
                for j in range(da):
                    if A[i][j].is_zero():
                        continue
                    for s in range(db):
                        for t in range(db):
                            if not B[s][t].is_zero():
                                out[i * db + s][j * db + t] = A[i][j] * B[s][t]
            return out

        def madd(A, B):
            return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]

        Ea, Fa, _ = _closed_form(ctx.order, va.dim - 1)
        Eb, Fb, _ = _closed_form(ctx.order, vb.dim - 1)
        return madd(kron(Ea, km_b), kron(kp_a, Eb)), \
            madd(kron(Fa, km_b), kron(kp_a, Fb))

    def _build_qcg(self, n: int, m: int) -> SimpleNamespace:
        ctx = self.uq
        K = ctx.order
        va, vb = self.irrep((n,)), self.irrep((m,))
        dT = va.dim * vb.dim
        matE, matF = self._tensor_generator_mats(va, vb)
        wT = [wa + wb for wa in va.weights for wb in vb.weights]
        cl = self.pw.cg((n,), (m,))
        summands = []
        cols_all = []
        for (nu_w, inj_cl, proj_cl) in cl.summands:
            nu = nu_w[0]
            # lift the classical highest weight vector order by order
            idxs = [i for i, w in enumerate(wT) if w == nu]
            rows = [i for i, w in enumerate(wT) if w == nu + 2]
            # hbar-coefficient matrices of E restricted to the weight block
            eblocks = [
                [[matE[r][c][k] for c in idxs] for r in rows] for k in range(K)
            ]
            coeffs = [[inj_cl[i][0] for i in idxs]]  # order-0 = classical hw
            for k in range(1, K):
                rhs = [Fraction(0)] * len(rows)
                for j in range(1, k + 1):
                    for ri in range(len(rows)):
                        for ci in range(len(idxs)):
                            rhs[ri] -= eblocks[j][ri][ci] * coeffs[k - j][ci]
                if rows:
                    sol = solve(eblocks[0], rhs)
                    if sol is None:
                        raise ValueError(
                            "highest-weight lift failed for V(%d)(x)V(%d)" % (n, m)
                        )
                else:
                    sol = [Fraction(0)] * len(idxs)
                coeffs.append(sol)
            hw = [ctx.zero_series()] * dT
            for ci, i in enumerate(idxs):
                hw[i] = TruncatedSeries(K, [coeffs[k][ci] for k in range(K)])
            # word transport: columns w, Fw, F^2 w, ...
            cols = [hw]
            for _ in range(nu):
                cols.append(_smat_vec(matF, cols[-1]))
            summands.append((nu, cols))
            cols_all.extend(cols)
        if len(cols_all) != dT:
            raise ValueError("incomplete quantum decomposition")
        big = [[cols_all[c][r] for c in range(dT)] for r in range(dT)]
        big_inv = _smat_inv(big, ctx)
        out = []
        offset = 0
        for nu, cols in summands:
            d = len(cols)
            inj = [[cols[c][r] for c in range(d)] for r in range(dT)]
            proj = [big_inv[offset + s] for s in range(d)]
            out.append(((nu,), inj, proj))
            offset += d
        return SimpleNamespace(summands=out)


def test_block_split_matches_whole_matrix_reference():
    """The per-weight-block inverse and the sparse coproduct give the
    summands of the dense series split exactly (the CG options, read one
    block at a time, are checked against these summands in
    tests/test_cgx.py)."""
    for order in range(1, 6):
        uq = UqContext(order)
        got, want = QAffineContext(uq), DenseQContext(uq)
        for n in range(6):
            for m in range(6):
                assert got.cg((n,), (m,)).summands == \
                    want.cg((n,), (m,)).summands, (order, n, m)
