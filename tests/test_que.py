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

import pytest

from qaffine.kernel import TruncatedSeries, q_power
from qaffine.linalg import mat_inv, solve
from qaffine.que import (
    QAffineContext, QIrrep, TwistedHopf, UqContext, UqElement, UqTensor,
    almost_cocommutativity_residuals, antipode, block_embed, coproduct,
    counit, counit_leg, delta_leg, hexagon_residuals, hopf_power_delta,
    mono_mul, q_integer, q_multiply,
    quantum_affine_multiply, quantum_affine_multiply_pairwise, r_matrix_m,
    r_matrix_sl2, semiclassical_bracket, semiclassical_r, tensor_inv,
    tensor_one, twi_m, twi_m_inductive, twist_condition_residuals,
    uq_cartan_exp, uq_gen, uq_normalize, uq_one,
)
from qaffine.liebialg import build_sl, standard_r, twisted_r
from qaffine.cgx import (
    BracketSpec, CGEntry, classical_bracket, hw_coefficient,
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


def test_normalize_is_multiplicative(ctx):
    w = uq_normalize(ctx, ["E", "F", "H", "E"])
    assert w == uq_normalize(ctx, ["E"]) * uq_normalize(ctx, ["F", "H", "E"])
    # EF = FE + lower terms: the normal form of EF has leading mono FHE-free
    ef = uq_normalize(ctx, ["E", "F"])
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
            assert R2 * th.delta(xt) == th.delta_op(xt) * R2


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


def test_q_multiply_ring_and_classical_limit(qctx):
    pw = qctx.pw
    f = matrix_coefficient(qctx, (1,), {0: 1}, {1: 1})
    g = matrix_coefficient(qctx, (2,), {1: F(1, 2)}, {0: 1})
    h = matrix_coefficient(qctx, (1,), {1: 3}, {0: 1})
    fc = matrix_coefficient(pw, (1,), {0: F(1)}, {1: F(1)})
    gc = matrix_coefficient(pw, (2,), {1: F(1, 2)}, {0: F(1)})
    assert q_multiply(f, g).mod_hbar() == pw_multiply(fc, gc)
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


# -- the all-legs tensor product, kept as the reference for UqTensor.__mul__ --


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
                    out.add_term(key, cs)
    return out


def naive_tensor_inv(t: UqTensor) -> UqTensor:
    one = tensor_one(t.ctx, t.legs)
    n = t - one
    out = tensor_one(t.ctx, t.legs)
    power = tensor_one(t.ctx, t.legs)
    for _ in range(1, t.ctx.order):
        power = naive_tensor_mul(power, n).scale(Fraction(-1))
        out = out + power
    return out


def same_tensor(a: UqTensor, b: UqTensor) -> bool:
    """Equal, with the terms in the same order (reports serialize it)."""
    return a == b and list(a.data) == list(b.data)


def _random_tensor(ctx, rng, legs):
    monos = [(0, 0, 0)] * 3 + [(a, b, c) for a in range(2) for b in range(2)
                               for c in range(2)]
    data = {}
    for _ in range(rng.randint(1, 6)):
        key = tuple(rng.choice(monos) for _ in range(legs))
        data[key] = TruncatedSeries(ctx.order, [
            F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ctx.order)])
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
    rng = random.Random(11)
    for _ in range(40):
        legs = rng.randint(1, 4)
        a, b = _random_tensor(ctx, rng, legs), _random_tensor(ctx, rng, legs)
        assert same_tensor(a * b, naive_tensor_mul(a, b))


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
    coproduct and one inverse of the whole injection."""

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

        Ea, Fa, _ = _closed_form(ctx.order, va.n)
        Eb, Fb, _ = _closed_form(ctx.order, vb.n)
        return madd(kron(Ea, km_b), kron(kp_a, Eb)), \
            madd(kron(Fa, km_b), kron(kp_a, Fb))

    def _build_qcg(self, n: int, m: int) -> CGEntry:
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
        return CGEntry((n,), (m,), out)


def test_block_split_matches_whole_matrix_reference():
    """The per-weight-block inverse and the sparse coproduct give the
    summands of the dense series split exactly."""
    for order in range(1, 6):
        uq = UqContext(order)
        got, want = QAffineContext(uq), DenseQContext(uq)
        for n in range(6):
            for m in range(6):
                assert got.cg((n,), (m,)).summands == \
                    want.cg((n,), (m,)).summands, (order, n, m)
