"""Standard r-matrices, cobrackets, twisted products, and coisotropy
at the Lie-algebra level."""

import itertools
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qaffine.liebialg import (
    LieAlgebra, LieAlgebraError, LieTensor, Subspace, basis_tensor,
    build_sl, cobracket, cybe_residual, diagonal_r, embed_index,
    mix_tensor, r_membership_lie, standard_r,
    strongly_coisotropic_lie, twisted_r, verify_twisting_element, wedge,
)

F = Fraction


def symmetric_part(t):
    return (t + t.transpose()).scale(F(1, 2))


def antisymmetric_part(t):
    return (t - t.transpose()).scale(F(1, 2))


def adjoint_invariance_residual(t):
    """[x(x)1+1(x)x, t] for every basis x; all zero iff t is g-invariant."""
    return [cobracket(t, basis_tensor(t.alg, i)) for i in range(t.alg.dim)]


def add_or_pop(data, key, c):
    """The add-or-pop loop that LieTensor.add_term was: the slow reference
    accumulator of the tensors below, apart from linalg.vec_sum."""
    nv = data.get(key, F(0)) + c
    if nv == 0:
        data.pop(key, None)
    else:
        data[key] = nv


def diag_embedding(x, m, alg_m):
    """diag_m(x) for arity-1 x, or (diag (x) diag)(t) for arity-2 t."""
    data = {}
    for key, c in x.data.items():
        for js in itertools.product(range(m), repeat=x.arity):
            add_or_pop(data, tuple(embed_index(x.alg, a, j)
                                   for a, j in zip(key, js)), c)
    return LieTensor(alg_m, x.arity, data)


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
    assert sl2.gram[e][f] == 1
    assert sl2.gram[h][h] == 2


def test_sl3_layout(sl3):
    assert sl3.dim == 8 and sl3.rank == 2 and sl3.n_pos == 3
    for b in range(sl3.n_pos):
        assert sl3.gram[sl3.raise_index(b)][sl3.lower_index(b)] == 1


def _dense_sl(n, scale):
    """The dense reference for build_sl: full n x n Fraction matrices,
    commutators and traces with n-term sums."""
    def emat(i, j, c=Fraction(1)):
        m = [[Fraction(0)] * n for _ in range(n)]
        m[i][j] = c
        return m

    k = n - 1
    pos_pairs = sorted(
        ((i, j) for i in range(n) for j in range(i + 1, n)),
        key=lambda p: (p[1] - p[0], p[0]),
    )
    mats = []
    labels = []
    for i in range(k):
        h = [[Fraction(0)] * n for _ in range(n)]
        h[i][i] = Fraction(1)
        h[i + 1][i + 1] = Fraction(-1)
        mats.append(h)
        labels.append("h%d" % (i + 1))
    for (i, j) in pos_pairs:
        mats.append(emat(i, j))
        labels.append("e[%d%d]" % (i + 1, j + 1))
    for (i, j) in pos_pairs:
        mats.append(emat(j, i, Fraction(1) / scale))
        labels.append("f[%d%d]" % (i + 1, j + 1))
    dim = len(mats)

    def mat_commutator(a, b):
        return [
            [
                sum(a[i][t] * b[t][j] - b[i][t] * a[t][j] for t in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]

    def decompose(m):
        out = {}
        for idx, (i, j) in enumerate(pos_pairs):
            if m[i][j] != 0:
                out[k + idx] = m[i][j]
            if m[j][i] != 0:
                out[k + len(pos_pairs) + idx] = m[j][i] * scale
        run = Fraction(0)
        for i in range(k):
            run += m[i][i]
            if run != 0:
                out[i] = run
        return out

    structure = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            val = decompose(mat_commutator(mats[i], mats[j]))
            if val:
                structure[(i, j)] = val
    gram = [
        [
            scale * sum(mats[a][i][t] * mats[b][t][i]
                        for i in range(n) for t in range(n))
            for b in range(dim)
        ]
        for a in range(dim)
    ]
    cartan = [
        [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(k)]
        for i in range(k)
    ]
    pos_roots = []
    for (i, j) in pos_pairs:
        root = [0] * k
        for t in range(i, j):  # alpha_{i+1} + ... + alpha_j
            for a in range(k):
                root[a] += cartan[a][t]
        pos_roots.append(tuple(root))
    return labels, structure, gram, pos_roots, cartan, mats


def test_sparse_build_matches_dense_reference():
    for n in (2, 3, 4, 5):
        for scale in (F(1), F(3, 2), F(1, 3)):
            labels, structure, gram, roots, cartan, mats = _dense_sl(n, scale)
            alg = build_sl(n, scale)
            assert list(alg.structure.items()) == list(structure.items())
            assert alg.gram == gram
            assert alg.positive_roots == roots
            assert alg.labels == labels
            assert alg.cartan_matrix == cartan
            assert alg.defining_matrices == mats


def _perturbed_sl3(change):
    """sl3's data with `change(structure, gram)` applied, validated anew."""
    alg = build_sl(3)
    structure = {key: dict(val) for key, val in alg.structure.items()}
    gram = [list(row) for row in alg.gram]
    change(structure, gram)
    return LieAlgebra("sl3", alg.labels, structure, gram, rank=alg.rank,
                      positive_roots=alg.positive_roots,
                      cartan_matrix=alg.cartan_matrix)


def test_validate_rejects_each_broken_identity(sl3):
    h1, e1, f1 = 0, sl3.raise_index(0), sl3.lower_index(0)
    assert sl3.structure[(h1, e1)] == {e1: 2}

    def reversed_entry_disagrees(structure, gram):
        structure[(e1, h1)] = {e1: F(2)}  # should be -2 e1

    def bracket_changed(structure, gram):
        structure[(h1, e1)] = {e1: F(3)}

    def form_entry_changed_one_side(structure, gram):
        gram[0][1] += 1  # <h1, h2> only; <h2, h1> keeps its value

    def form_doubled(structure, gram):
        for row in gram:
            row[:] = [2 * g for g in row]

    for change, message in (
            (reversed_entry_disagrees, "not antisymmetric"),
            (bracket_changed, "Jacobi identity fails"),
            (form_entry_changed_one_side, "fails invariance"),
            (form_doubled, "<e_beta, e_-beta> != 1")):
        with pytest.raises(LieAlgebraError, match=re.escape(message)):
            _perturbed_sl3(change)
    _perturbed_sl3(lambda structure, gram: None)  # unperturbed: accepted


def test_invariance_reads_a_form_that_is_not_symmetric():
    """On the 2-dimensional algebra [x, y] = y the two terms of
    <[x,y],z> + <y,[x,z]> read different entries of the form, so a check
    that took the form to be symmetric would accept [[0, 1], [0, 0]]."""
    aff = {(0, 1): {1: F(1)}}
    LieAlgebra("aff", ["x", "y"], aff, [[F(1), F(0)], [F(0), F(0)]])
    with pytest.raises(LieAlgebraError,
                       match="invariant form fails invariance"):
        LieAlgebra("aff", ["x", "y"], aff, [[F(0), F(1)], [F(0), F(0)]])


def test_sl_needs_n_at_least_two():
    for n in (1, 0, -1):
        with pytest.raises(LieAlgebraError, match="n >= 2, got %d" % n):
            build_sl(n)
    for n, shown in ((2.5, "2.5"), ("x", "'x'"), (None, "None"),
                     ("5/2", "'5/2'")):
        with pytest.raises(LieAlgebraError,
                           match=re.escape("n >= 2, got %s" % shown)):
            build_sl(n)
    assert build_sl("3").labels == build_sl(3).labels


def test_bad_form_scale_is_named():
    with pytest.raises(LieAlgebraError, match="bad form scaling '1/0'"):
        build_sl(2, "1/0")
    with pytest.raises(LieAlgebraError, match="bad form scaling 'x'"):
        build_sl(2, "x")
    with pytest.raises(LieAlgebraError, match="bad form scaling None"):
        build_sl(2, None)
    with pytest.raises(LieAlgebraError, match="must be positive"):
        build_sl(2, "-1/2")
    assert build_sl(2, "3/2").gram[0][0] == 3


def test_tensor_algebra(sl2):
    t = wedge(sl2, 2, 1)
    assert t.data == {(2, 1): F(1), (1, 2): F(-1)}
    assert t.transpose() == t.scale(-1)
    assert antisymmetric_part(t) == t
    assert symmetric_part(t).is_zero()
    s = t + t.scale(2)
    assert s == t.scale(3)
    assert t.swap((1, 0)) == t.transpose()
    with pytest.raises(TypeError):  # __eq__ without __hash__
        hash(t)


def test_standard_r_sl2_values(sl2):
    st = standard_r(sl2)
    h, e, f = 0, sl2.raise_index(0), sl2.lower_index(0)
    assert st.r.data == {(h, h): F(1, 4), (f, e): F(1)}
    assert st.r0.data == {(h, h): F(1, 4)}
    assert st.lam == wedge(sl2, f, e, F(1, 2))
    assert antisymmetric_part(st.r) == st.lam


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
    data = {}
    for (a, b), c in t.data.items():
        for k, cc in alg.bracket_basis(x_idx, a).items():
            add_or_pop(data, (k, b), c * cc)
        for k, cc in alg.bracket_basis(x_idx, b).items():
            add_or_pop(data, (a, k), c * cc)
    return LieTensor(alg, 2, data)


def test_form_scaling_keeps_structure():
    for scale in (F(2), F(1, 3)):
        alg = build_sl(2, scale)
        h, e, f = 0, alg.raise_index(0), alg.lower_index(0)
        assert alg.gram[e][f] == 1
        assert alg.gram[h][h] == 2 * scale
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
    assert len(der.span) == 1
    assert der.contains({sl2.raise_index(0): F(1)})


# Each expression hands a tensor of the wrong arity (or an algebra without
# a Cartan matrix) to a liebialg entry point that must reject it.
_BAD_ARITY_SETUP = (
    "from qaffine.liebialg import (\n"
    "    LieAlgebra, Subspace, basis_tensor, build_sl, cobracket,\n"
    "    cybe_residual, mix_tensor, standard_r, verify_twisting_element)\n"
    "alg = build_sl(2)\n"
    "x = basis_tensor(alg, 0)\n"
    "r = standard_r(alg).r\n"
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
