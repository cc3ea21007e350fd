"""Strongly coisotropic Hopf subalgebras, character monoids, graded
semi-invariants, and quantum-section checks."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qaffine.coiso import (
    CharacterMonoid, GradedSemiInvariants, HopfSubalgebra, _fn_span,
    borel_subalgebra, classical_shadow, counit_character, ideal_commutator,
    q_evaluate, qfun_vec, quantum_section_check, r_membership_hopf,
    semi_invariant_product_check, semi_invariants, strong_coiso_hopf,
    strong_coiso_twisted, tensor_vec, uq_vec, weight_character,
)
from qaffine.cgx import hw_coefficient, matrix_coefficient, pw_one, pw_tensor
from qaffine.que import (
    QAffineContext, antipode, q_multiply, UqContext, quantum_affine_multiply, r_matrix_sl2, uq_gen,
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
        assert _same_items(uq_vec(x), _uq_vec_ref(x))
    assert _same_items(tensor_vec(R), _tensor_vec_ref(R))
    f = hw_coefficient(qctx, (1,), {0: 1, 1: F(1, 3)})
    g = matrix_coefficient(qctx, (2,), {1: F(1, 2)}, {0: 1})
    for h in (q_multiply(f, g), q_multiply(g, f), pw_tensor([f, g])):
        assert _same_items(qfun_vec(h), _qfun_vec_ref(h))
