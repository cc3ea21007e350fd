"""Standard r-matrices, cobrackets, twisted products, and coisotropy
at the Lie-algebra level."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qaffine.liebialg import (
    LieTensor, Subspace, adjoint_invariance_residual, basis_tensor, build_sl,
    cobracket, cybe_residual, diag_embedding, diagonal_r, load_algebra,
    mix_tensor, r_membership_lie, standard_r, strongly_coisotropic_lie,
    twisted_r, verify_twisting_element, wedge,
)

F = Fraction


@pytest.fixture(scope="module")
def sl2():
    return build_sl(2)


@pytest.fixture(scope="module")
def sl3():
    return build_sl(3)


def test_sl2_layout(sl2):
    assert sl2.dim == 3 and sl2.rank == 1 and sl2.n_pos == 1
    assert sl2.labels[0].startswith("h")
    h, e, f = 0, sl2.raise_index(0), sl2.lower_index(0)
    assert sl2.bracket_basis(h, e) == {e: F(2)}
    assert sl2.bracket_basis(h, f) == {f: F(-2)}
    assert sl2.bracket_basis(e, f) == {h: F(1)}
    assert sl2.form(e, f) == 1
    assert sl2.form(h, h) == 2


def test_sl3_layout(sl3):
    assert sl3.dim == 8 and sl3.rank == 2 and sl3.n_pos == 3
    for b in range(sl3.n_pos):
        assert sl3.form(sl3.raise_index(b), sl3.lower_index(b)) == 1


def test_load_algebra_round_trip(sl2):
    alg = load_algebra({"type": "sl", "n": 2})
    assert alg.dim == sl2.dim
    assert alg.labels == sl2.labels
    with pytest.raises(Exception):
        load_algebra({"type": "so", "n": 5})


def test_tensor_algebra(sl2):
    t = wedge(sl2, 2, 1)
    assert t.data == {(2, 1): F(1), (1, 2): F(-1)}
    assert t.transpose() == t.scale(-1)
    assert t.antisymmetric_part() == t
    assert t.symmetric_part().is_zero()
    s = t + t.scale(2)
    assert s == t.scale(3)
    assert t.swap((1, 0)) == t.transpose()


def test_standard_r_sl2_values(sl2):
    st = standard_r(sl2)
    h, e, f = 0, sl2.raise_index(0), sl2.lower_index(0)
    assert st.r.data == {(h, h): F(1, 4), (f, e): F(1)}
    assert st.r0.data == {(h, h): F(1, 4)}
    assert st.lam == wedge(sl2, f, e, F(1, 2))
    assert st.r.antisymmetric_part() == st.lam


def test_cybe(sl2, sl3):
    for alg in (sl2, sl3):
        assert cybe_residual(standard_r(alg).r).is_zero()


def test_symmetric_part_is_invariant(sl2, sl3):
    for alg in (sl2, sl3):
        st = standard_r(alg)
        t = st.r - st.lam
        assert t == t.transpose()
        for res in adjoint_invariance_residual(t):
            assert res.is_zero()


def test_cobracket_values_sl2(sl2):
    st = standard_r(sl2)
    h, e, f = 0, sl2.raise_index(0), sl2.lower_index(0)
    assert cobracket(st.r, basis_tensor(sl2, h)).is_zero()
    assert cobracket(st.r, basis_tensor(sl2, e)) == wedge(sl2, h, e, F(1, 2))
    assert cobracket(st.r, basis_tensor(sl2, f)) == wedge(sl2, h, f, F(1, 2))


def test_cobracket_cocycle(sl2, sl3):
    for alg in (sl2, sl3):
        st = standard_r(alg)
        deltas = [cobracket(st.r, basis_tensor(alg, i))
                  for i in range(alg.dim)]
        for dx in deltas:
            assert (dx + dx.transpose()).is_zero()  # antisymmetry
        for i in range(alg.dim):
            for j in range(alg.dim):
                bij = alg.bracket_basis(i, j)
                lhs = cobracket(
                    st.r, LieTensor(alg, 1, {(k,): c for k, c in bij.items()}))
                rhs = _ad2(alg, i, deltas[j]) - _ad2(alg, j, deltas[i])
                assert (lhs - rhs).is_zero()


def _ad2(alg, x_idx, t):
    out = LieTensor(alg, 2)
    for (a, b), c in t.data.items():
        for k, cc in alg.bracket_basis(x_idx, a).items():
            out.add_term((k, b), c * cc)
        for k, cc in alg.bracket_basis(x_idx, b).items():
            out.add_term((a, k), c * cc)
    return out


def test_form_scaling_keeps_structure():
    for scale in (F(2), F(1, 3)):
        alg = build_sl(2, scale)
        h, e, f = 0, alg.raise_index(0), alg.lower_index(0)
        assert alg.form(e, f) == 1
        assert alg.form(h, h) == 2 * scale
        st = standard_r(alg)
        assert st.r.data[(h, h)] == F(1, 4) / scale
        assert cybe_residual(st.r).is_zero()
        dx = cobracket(st.r, basis_tensor(alg, e))
        assert (dx + dx.transpose()).is_zero()


def test_mix_tensor_sl2_square(sl2):
    st = standard_r(sl2)
    mix = mix_tensor(st.r, 2)
    d = sl2.dim
    h, e, f = 0, sl2.raise_index(0), sl2.lower_index(0)
    want = (wedge(mix.alg, h, d + h, F(1, 4))
            + wedge(mix.alg, e, d + f, F(1)))
    assert mix == want


def test_twisted_r_satisfies_cybe(sl2, sl3):
    for alg in (sl2, sl3):
        st = standard_r(alg)
        for m in (2, 3):
            assert cybe_residual(twisted_r(st.r, m)).is_zero()


def test_mix_is_twisting_element(sl2, sl3):
    for alg in (sl2, sl3):
        st = standard_r(alg)
        for m in (2, 3):
            t = mix_tensor(st.r, m)
            ok, res = verify_twisting_element(
                t, diagonal_r(st.r, m, t.alg))
            assert ok and res.is_zero()


def test_twisting_element_negative_control(sl2):
    st = standard_r(sl2)
    alg2 = diagonal_r(st.r, 2).alg
    e1 = sl2.raise_index(0)
    f2 = sl2.dim + sl2.lower_index(0)
    t = wedge(alg2, e1, f2)
    ok, res = verify_twisting_element(t, diagonal_r(st.r, 2, alg2))
    assert not ok and not res.is_zero()


def test_diagonal_embedding_is_a_morphism(sl2):
    st = standard_r(sl2)
    for m in (2, 3):
        r_m = twisted_r(st.r, m)
        alg_m = r_m.alg
        # Lie algebra morphism
        for i in range(sl2.dim):
            for j in range(sl2.dim):
                bij = LieTensor(
                    sl2, 1,
                    {(k,): c for k, c in sl2.bracket_basis(i, j).items()})
                di = diag_embedding(basis_tensor(sl2, i), m, alg_m)
                dj = diag_embedding(basis_tensor(sl2, j), m, alg_m)
                br = alg_m.bracket({k[0]: c for k, c in di.data.items()},
                                   {k[0]: c for k, c in dj.data.items()})
                want = diag_embedding(bij, m, alg_m)
                assert br == {k[0]: c for k, c in want.data.items()}
        # bialgebra morphism: cobrackets intertwine
        for i in range(sl2.dim):
            x = basis_tensor(sl2, i)
            lhs = cobracket(r_m, diag_embedding(x, m, alg_m))
            rhs = diag_embedding(cobracket(st.r, x), m, alg_m)
            assert (lhs - rhs).is_zero()


def test_borel_strongly_coisotropic(sl2, sl3):
    for alg in (sl2, sl3):
        st = standard_r(alg)
        borel = Subspace.from_indices(
            alg, list(range(alg.rank))
            + [alg.raise_index(b) for b in range(alg.n_pos)])
        assert borel.is_subalgebra()
        res = strongly_coisotropic_lie(borel, st.r)
        assert res == {"strongly": True, "coisotropic": True}
        assert r_membership_lie(borel, st.r)


def test_lowering_line_coisotropic_not_strongly(sl2):
    st = standard_r(sl2)
    span_f = Subspace.from_indices(sl2, [sl2.lower_index(0)])
    res = strongly_coisotropic_lie(span_f, st.r)
    assert res == {"strongly": False, "coisotropic": True}
    assert not r_membership_lie(span_f, st.r)


def test_borel_square_in_twisted_product(sl2):
    st = standard_r(sl2)
    r2 = twisted_r(st.r, 2)
    borel2 = Subspace.from_indices(
        r2.alg, [0, sl2.raise_index(0),
                 sl2.dim, sl2.dim + sl2.raise_index(0)])
    res = strongly_coisotropic_lie(borel2, r2)
    assert res["strongly"]


def test_borel_derived_is_nilradical(sl2):
    borel = Subspace.from_indices(sl2, [0, sl2.raise_index(0)])
    der = borel.derived()
    assert der.dim() == 1
    assert der.contains({sl2.raise_index(0): F(1)})


# Each expression hands a tensor of the wrong arity (or an algebra without
# a Cartan matrix) to a liebialg or cgx entry point that must reject it.
_BAD_ARITY_SETUP = (
    "from qaffine.cgx import PWContext, invariant_action, pw_one\n"
    "from qaffine.liebialg import (\n"
    "    LieAlgebra, Subspace, basis_tensor, build_sl, cobracket,\n"
    "    cybe_residual, mix_tensor, standard_r, verify_twisting_element)\n"
    "alg = build_sl(2)\n"
    "x = basis_tensor(alg, 0)\n"
    "r = standard_r(alg).r\n"
    "f = pw_one(PWContext(alg), 1)\n"
)
_BAD_ARITY = (
    "x + r",
    "x.transpose()",
    "cybe_residual(x)",
    "cobracket(x, x)",
    "cobracket(r, r)",
    "mix_tensor(x, 2)",
    "verify_twisting_element(x, r)",
    "Subspace(alg, [r])",
    "invariant_action(r, f, 'left')",
    "LieAlgebra('ab', ['x'], {}, [[1]]).simple_root(0)",
)


def test_bad_arities_are_rejected():
    env = {}
    exec(_BAD_ARITY_SETUP, env)
    for expr in _BAD_ARITY:
        with pytest.raises(ValueError):
            eval(expr, env)


def test_bad_arities_are_rejected_under_optimization():
    """The arity checks are not asserts: they hold under `python -O` too."""
    code = _BAD_ARITY_SETUP + (
        "for expr in %r:\n"
        "    try:\n"
        "        eval(expr)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('accepted: ' + expr)\n" % (_BAD_ARITY,))
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
