"""Acceptance gate: one timed, exact (zero-residual) criterion per test,
with a summary line printed per criterion."""

import json
import random
import time
from fractions import Fraction

import pytest

from qaffine.cli import RunConfig, run_suite
from qaffine.liebialg import (
    LieTensor, Subspace, _ad2, basis_tensor, build_sl, cobracket,
    cybe_residual, diagonal_r, mix_tensor, r_membership_lie, standard_r,
    strongly_coisotropic_lie, twisted_r, verify_twisting_element,
)
from qaffine.cgx import (
    BracketSpec, PWContext, classical_bracket, hw_bracket_oracle,
    hw_coefficient, matrix_coefficient, poisson_action_residual, pw_multiply,
    pw_tensor,
)
from qaffine.que import (
    QAffineContext, UqContext, UqElement, almost_cocommutativity_residuals,
    antipode, coproduct, counit_leg, delta_leg, hexagon_residuals,
    quantum_affine_multiply, quantum_affine_multiply_pairwise, r_matrix_m,
    r_matrix_sl2, semiclassical_bracket, semiclassical_r, tensor_one,
    twi_m, twi_m_inductive, twist_condition_residuals, uq_gen,
)
from qaffine.coiso import (
    CharacterMonoid, _fn_span, borel_subalgebra, quantum_section_check,
    r_membership_hopf, semi_invariants, strong_coiso_hopf, weight_character,
)

F = Fraction

# one line per criterion; echoed by the conftest terminal-summary hook
CRITERION_LINES = []


def _criterion(num, name, budget, fn):
    t0 = time.monotonic()
    try:
        fn()
    except BaseException:
        CRITERION_LINES.append("criterion %2d %-28s: FAIL" % (num, name))
        raise
    dt = time.monotonic() - t0
    ok = dt < budget
    CRITERION_LINES.append(
        "criterion %2d %-28s: %s (%.1fs, budget %ds)"
        % (num, name, "pass" if ok else "FAIL", dt, budget))
    assert ok, "criterion %d exceeded its %ds budget (%.1fs)" % (
        num, budget, dt)


@pytest.fixture(scope="module")
def sl2():
    return build_sl(2)


@pytest.fixture(scope="module")
def sl3():
    return build_sl(3)


@pytest.fixture(scope="module")
def pwctx(sl2):
    return PWContext(sl2)


@pytest.fixture(scope="module")
def uq3():
    return UqContext(3)


@pytest.fixture(scope="module")
def qctx(uq3):
    return QAffineContext(uq3)


def test_criterion_01_cybe(sl2, sl3):
    def body():
        for alg in (sl2, sl3):
            assert cybe_residual(standard_r(alg).r).is_zero()
        st = standard_r(sl2)
        for m in (2, 3):
            assert cybe_residual(twisted_r(st.r, m)).is_zero()
    _criterion(1, "Yang-Baxter equation", 5, body)


def test_criterion_02_cobracket(sl2, sl3):
    def body():
        for alg in (sl2, sl3):
            st = standard_r(alg)
            deltas = [cobracket(st.r, basis_tensor(alg, i))
                      for i in range(alg.dim)]
            for dx in deltas:
                assert (dx + dx.transpose()).is_zero()
            for i in range(alg.dim):
                for j in range(alg.dim):
                    bij = alg.bracket_basis(i, j)
                    lhs = cobracket(st.r, LieTensor(
                        alg, 1, {(k,): c for k, c in bij.items()}))
                    rhs = _ad2(alg, i, deltas[j]) - _ad2(alg, j, deltas[i])
                    assert (lhs - rhs).is_zero()
    _criterion(2, "cobracket laws", 5, body)


def test_criterion_03_twisting_element(sl2):
    def body():
        st = standard_r(sl2)
        for m in (2, 3):
            t = mix_tensor(st.r, m)
            ok, res = verify_twisting_element(
                t, diagonal_r(st.r, m, t.alg))
            assert ok and res.is_zero()
    _criterion(3, "mixed twisting element", 5, body)


def test_criterion_04_projection_identity(pwctx):
    def body():
        spec1 = BracketSpec(pwctx, 1, "product")
        for w in (1, 2):
            for l in (1, 2):
                for a in range(w + 1):
                    for b in range(l + 1):
                        f = hw_coefficient(pwctx, (w,), {a: F(1)})
                        g = hw_coefficient(pwctx, (l,), {b: F(1)})
                        got = classical_bracket(f, g, spec1)
                        oracle = hw_bracket_oracle(
                            pwctx, spec1.st, w, l, {a: F(1)}, {b: F(1)})
                        assert got == oracle
                        if not got.is_zero():
                            assert got.weight_keys() == [((w + l,),)]
    _criterion(4, "top projection identity", 30, body)


def test_criterion_05_bracket_agreement_and_action(pwctx):
    def body():
        spec1 = BracketSpec(pwctx, 1, "product")
        spec2p = BracketSpec(pwctx, 2, "product")
        spec2m = BracketSpec(pwctx, 2, "mixed")
        gens1 = [hw_coefficient(pwctx, (1,), {a: F(1)}) for a in range(2)]
        gens2 = [hw_coefficient(pwctx, (2,), {a: F(1)}) for a in range(3)]
        pairs = [pw_tensor([f, g])
                 for f in gens1 + gens2 for g in gens1 + gens2]
        for f in pairs:
            for g in pairs:
                assert classical_bracket(f, g, spec2p) == \
                    classical_bracket(f, g, spec2m)
        f1 = matrix_coefficient(pwctx, (1,), {0: F(1)}, {1: F(1)})
        g1 = matrix_coefficient(pwctx, (2,), {1: F(1)}, {0: F(1)})
        assert poisson_action_residual(spec1, f1, g1) is None
        assert poisson_action_residual(
            spec1, pw_multiply(gens1[0], gens1[1]), gens2[0]) is None
        Ft = pw_tensor([gens1[0], gens2[1]])
        Gt = pw_tensor([gens2[0], gens1[1]])
        assert poisson_action_residual(spec2m, Ft, Gt) is None
    _criterion(5, "bracket agreement + action", 60, body)


def test_criterion_06_grading(pwctx):
    def body():
        spec2m = BracketSpec(pwctx, 2, "mixed")
        gens = [hw_coefficient(pwctx, (n,), {a: F(1)})
                for n in (1, 2) for a in range(n + 1)]
        pairs = [pw_tensor([f, g]) for f in gens[:3] for g in gens]
        for f in pairs:
            fk = f.weight_keys()[0]
            for g in pairs:
                gk = g.weight_keys()[0]
                want = tuple((fk[j][0] + gk[j][0],) for j in range(2))
                for key in classical_bracket(f, g, spec2m).weight_keys():
                    assert key == want
        lam = (1, 2)
        for n1 in (1, 2):
            for n2 in (1, 2):
                f = pw_tensor([
                    hw_coefficient(pwctx, (n1 * lam[0],), {0: F(1)}),
                    hw_coefficient(pwctx, (n1 * lam[1],), {1: F(1)})])
                g = pw_tensor([
                    hw_coefficient(pwctx, (n2 * lam[0],), {1: F(1)}),
                    hw_coefficient(pwctx, (n2 * lam[1],), {0: F(1)})])
                want = (((n1 + n2) * lam[0],), ((n1 + n2) * lam[1],))
                for key in classical_bracket(f, g, spec2m).weight_keys():
                    assert key == want
    _criterion(6, "weight grading + sections", 30, body)


def test_criterion_07_jacobi(pwctx):
    def body():
        spec2m = BracketSpec(pwctx, 2, "mixed")
        gens1 = [hw_coefficient(pwctx, (1,), {a: F(1)}) for a in range(2)]
        gens = [pw_tensor([a, b]) for a in gens1 for b in gens1]
        for f in gens:
            for g in gens:
                for h in gens:
                    j = (classical_bracket(
                            f, classical_bracket(g, h, spec2m), spec2m)
                         + classical_bracket(
                            g, classical_bracket(h, f, spec2m), spec2m)
                         + classical_bracket(
                            h, classical_bracket(f, g, spec2m), spec2m))
                    assert j.is_zero()
    _criterion(7, "Jacobi identity", 60, body)


def test_criterion_08_classical_coisotropy(sl2):
    def body():
        st = standard_r(sl2)
        borel = Subspace.from_indices(sl2, [0, sl2.raise_index(0)])
        res = strongly_coisotropic_lie(borel, st.r)
        assert res["strongly"] and res["coisotropic"]
        assert r_membership_lie(borel, st.r)
        span_f = Subspace.from_indices(sl2, [sl2.lower_index(0)])
        res = strongly_coisotropic_lie(span_f, st.r)
        assert res["coisotropic"] and not res["strongly"]
        r2 = twisted_r(st.r, 2)
        borel2 = Subspace.from_indices(
            r2.alg, [0, sl2.raise_index(0),
                     sl2.dim, sl2.dim + sl2.raise_index(0)])
        assert strongly_coisotropic_lie(borel2, r2)["strongly"]
    _criterion(8, "classical strong coisotropy", 5, body)


def test_criterion_09_quantum_axioms(uq3):
    def body():
        ctx = uq3
        E, Fg, H = uq_gen(ctx, "E"), uq_gen(ctx, "F"), uq_gen(ctx, "H")
        assert H * E - E * H == E.scale(2)
        assert H * Fg - Fg * H == Fg.scale(-2)
        assert (E * Fg - Fg * E).mod_hbar() == {((0, 1, 0),): F(1)}
        # associativity through PBW degree 4
        words = [E, Fg, H, E * Fg, H * E]
        for x in words:
            for y in words[:3]:
                for z in words[:3]:
                    assert (x * y) * z == x * (y * z)
        for g in (E, Fg, H):
            d = coproduct(g)
            assert delta_leg(d, 0) == delta_leg(d, 1)
            assert counit_leg(d, 0) == g
            acc = UqElement(ctx)
            for (m1, m2), s in d.data.items():
                acc = acc + (antipode(UqElement(ctx, {m1: 1}))
                             * UqElement(ctx, {m2: 1})).scale(s)
            assert acc.is_zero()
        for x in (E, Fg, H):
            for y in (E, Fg, H):
                assert coproduct(x * y) == coproduct(x) * coproduct(y)
        R = r_matrix_sl2(ctx)
        for r in almost_cocommutativity_residuals(ctx, R):
            assert r.is_zero()
        h1, h2 = hexagon_residuals(ctx, R)
        assert h1.is_zero() and h2.is_zero()
        assert counit_leg(R, 0) == tensor_one(ctx, 1)
        assert counit_leg(R, 1) == tensor_one(ctx, 1)
    _criterion(9, "quantum group axioms", 120, body)


def test_criterion_10_twists(uq3):
    def body():
        R = r_matrix_sl2(uq3)
        for m in (2, 3):
            J = twi_m(R, m)
            assert J == twi_m_inductive(R, m)
            res, c1, c2 = twist_condition_residuals(J, m)
            assert res.is_zero() and c1.is_zero() and c2.is_zero()
    _criterion(10, "iterated twists", 120, body)


def test_criterion_11_semiclassical(uq3, qctx, sl2, pwctx):
    def body():
        ctx = uq3
        R = r_matrix_sl2(ctx)
        st = standard_r(sl2)
        h1 = (R - tensor_one(ctx, 2)).hbar_coefficient(1)
        assert h1 == {((0, 1, 0), (0, 1, 0)): F(1, 4),
                      ((1, 0, 0), (0, 0, 1)): F(1)}
        assert semiclassical_r(r_matrix_m(R, 2), 2) == twisted_r(st.r, 2)
        spec1 = BracketSpec(pwctx, 1, "product")
        spec2 = BracketSpec(pwctx, 2, "mixed")
        qg = [hw_coefficient(qctx, (1,), {a: 1}) for a in range(2)]
        cg = [hw_coefficient(pwctx, (1,), {a: F(1)}) for a in range(2)]
        for qa, ca in zip(qg, cg):
            for qb, cb in zip(qg, cg):
                assert semiclassical_bracket(qa, qb) == \
                    classical_bracket(ca, cb, spec1)
        for i in range(2):
            for j in range(2):
                qF, qG = pw_tensor([qg[i], qg[j]]), pw_tensor([qg[j], qg[i]])
                cF, cG = pw_tensor([cg[i], cg[j]]), pw_tensor([cg[j], cg[i]])
                got = semiclassical_bracket(qF, qG, quantum_affine_multiply)
                assert got == classical_bracket(cF, cG, spec2)
    _criterion(11, "semiclassical limits", 180, body)


def test_criterion_12_factorization(qctx):
    def body():
        rng = random.Random(0)
        gens = [hw_coefficient(qctx, (1,), {a: 1}) for a in range(2)]
        gens += [hw_coefficient(qctx, (2,), {a: 1}) for a in range(3)]
        pool = [pw_tensor([rng.choice(gens), rng.choice(gens)])
                for _ in range(12)]
        for _ in range(20):
            f, g, h = (rng.choice(pool) for _ in range(3))
            lhs = quantum_affine_multiply(quantum_affine_multiply(f, g), h)
            rhs = quantum_affine_multiply(f, quantum_affine_multiply(g, h))
            assert lhs == rhs
        one1 = hw_coefficient(qctx, (0,), {0: 1})
        fa, ga = pw_tensor([gens[0], one1]), pw_tensor([gens[1], one1])
        fb, gb = pw_tensor([one1, gens[0]]), pw_tensor([one1, gens[1]])
        for x, y in ((fa, gb), (gb, fa), (fb, ga), (ga, fb), (fa, ga),
                     (fb, gb)):
            assert quantum_affine_multiply(x, y) == \
                quantum_affine_multiply_pairwise(x, y)
    _criterion(12, "factorization/associativity", 60, body)


def test_criterion_13_hopf_coisotropy(uq3, qctx):
    def body():
        ctx = uq3
        U = borel_subalgebra(ctx, 4)
        R = r_matrix_sl2(ctx)
        assert r_membership_hopf(U, R).status == "true"
        assert strong_coiso_hopf(U, "right").status == "true"
        mon = CharacterMonoid(U, precheck=False)
        z = {n: weight_character(U, n) for n in range(5)}
        for n in (1, 2):
            for l in (1, 2):
                assert mon.product(z[n], z[l]) == z[n + l]
        got = semi_invariants(qctx, U, (z[1], z[1]), 1)
        expect = [pw_tensor([hw_coefficient(qctx, (1,), {a: 1}),
                             hw_coefficient(qctx, (1,), {b: 1})])
                  for a in range(2) for b in range(2)]
        assert _fn_span(got).equals(_fn_span(expect))
        d = hw_coefficient(qctx, (1,), {0: 1})
        pre, graded = quantum_section_check(d, U, mon, n_max=3)
        assert pre.status == "true"
        assert graded.status == "true"
    _criterion(13, "Hopf coisotropy pipeline", 120, body)


def test_criterion_14_determinism():
    def body():
        first = run_suite(RunConfig()).dumps()
        second = run_suite(RunConfig()).dumps()
        assert first == second
        js = json.loads(first)
        assert js["summary"]["fail"] == 0
    _criterion(14, "byte-identical reports", 600, body)
