"""Irreps, Clebsch-Gordan data, matrix-coefficient algebras, and the
classical Poisson brackets on products of principal affine spaces."""

import gc
import hashlib
import itertools
import json
import math
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from qaffine import cgx, que
from qaffine.cgx import (
    BlockFunction, BracketSpec, CGEntry, DimensionBoundError, Irrep,
    PWContext, act_factor, block_pairs, classical_bracket, hw_coefficient,
    matrix_coefficient, pw_multiply, pw_one, pw_tensor, sparse_columns,
)
from qaffine.cli import main
from qaffine.kernel import TruncatedSeries
from qaffine.linalg import mat_inv, nullspace, vec_sum
from qaffine.liebialg import StandardR, basis_tensor, build_sl, cobracket
from qaffine.que import (
    QAffineContext, UqContext, antipode, coproduct, q_multiply,
    quantum_affine_multiply, uq_gen,
)
from tracked_span import TrackedSpan

F = Fraction
BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def ctx():
    return PWContext(build_sl(2))


@pytest.fixture(scope="module")
def ctx3():
    return PWContext(build_sl(3))


def test_sl2_irrep_dimensions(ctx):
    for n in range(6):
        rep = ctx.irrep((n,))
        assert rep.dim == n + 1
        assert rep.weights[0] == (n,)


def test_sl3_irrep_dimensions(ctx3):
    """Weyl's formula: dim V(a, b) = (a + 1)(b + 1)(a + b + 2) / 2."""
    for a in range(5):
        for b in range(5 - a):
            assert ctx3.irrep((a, b)).dim == (a + 1) * (b + 1) * (a + b + 2) // 2


def test_dense_view_is_the_sparse_columns(ctx, ctx3, monkeypatch):
    """Rep.act, the dense view that the benchmark's oracle reads, holds
    exactly the entries of the sparse columns, each column in ascending
    row order; on sl2 V(0)..V(8) the view passes that oracle."""
    monkeypatch.syspath_prepend(str(BENCH))
    import oracles

    reps = [ctx.irrep((n,)) for n in range(9)]
    reps += [ctx3.irrep((a, b)) for a in range(4) for b in range(4 - a)]
    for rep in reps:
        assert len(rep.act) == len(rep.cols) == rep.alg.dim
        for cols, mat in zip(rep.cols, rep.act):
            assert [len(row) for row in mat] == [rep.dim] * rep.dim
            assert sparse_columns(mat) == cols
            assert all(list(col) == sorted(col) for col in cols)
    h, e, f = 0, ctx.alg.raise_index(0), ctx.alg.lower_index(0)
    for n in range(9):
        rep = ctx.irrep((n,))
        assert oracles.sl2_irrep_problems(
            n, rep.weights, rep.act[h], rep.act[e], rep.act[f]) == []


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exterior_powers_are_representations(n):
    """Lambda^p C^n for p = 1..n-1: rho([x, y]) = [rho(x), rho(y)] for
    every pair of basis elements of sl(n), which holds only if every
    replacement i -> j in a subset carries the right sign (the engine
    builds these fundamentals only up to n = 3)."""
    alg = build_sl(n)
    for p in range(1, n):
        rep = cgx.exterior_power(cgx.defining_rep(alg), p)
        assert rep.dim == math.comb(n, p)
        assert any(rep.cols[alg.raise_index(0)])

        def product(a, b):
            return [cgx._apply(a, col) for col in b]

        for x in range(alg.dim):
            for y in range(alg.dim):
                xy = product(rep.cols[x], rep.cols[y])
                yx = product(rep.cols[y], rep.cols[x])
                got = [vec_sum(itertools.chain(
                    u.items(), ((r, -c) for r, c in v.items())))
                    for u, v in zip(xy, yx)]
                want = [vec_sum((r, c * v) for k, c in
                                alg.bracket_basis(x, y).items()
                                for r, v in rep.cols[k][j].items())
                        for j in range(rep.dim)]
                assert got == want, (p, x, y)


def test_sl2_clebsch_gordan_rule(ctx):
    for n in range(4):
        for m in range(4):
            cg = ctx.cg((n,), (m,))
            got = sorted(w[0] for w, _, _ in cg.summands)
            assert got == sorted(range(abs(n - m), n + m + 1, 2))


def test_sl3_clebsch_gordan_examples(ctx3):
    cg = ctx3.cg((1, 0), (0, 1))
    assert sorted(w for w, _, _ in cg.summands) == [(0, 0), (1, 1)]
    cg = ctx3.cg((1, 0), (1, 0))
    assert sorted(w for w, _, _ in cg.summands) == [(0, 1), (2, 0)]


def test_dimension_bound_is_enforced():
    small = PWContext(build_sl(2), dim_bound=4)
    with pytest.raises(DimensionBoundError, match=r"\(5,\)"):
        small.irrep((5,))


def test_product_ring_axioms(ctx):
    f = matrix_coefficient(ctx, (1,), {0: F(1)}, {1: F(1)})
    g = matrix_coefficient(ctx, (2,), {1: F(1, 2)}, {0: F(1)})
    h = matrix_coefficient(ctx, (1,), {1: F(3)}, {0: F(1)})
    assert pw_multiply(f, g) == pw_multiply(g, f)
    assert pw_multiply(pw_multiply(f, g), h) == pw_multiply(f, pw_multiply(g, h))
    assert pw_multiply(pw_one(ctx, 1), f) == f
    assert pw_multiply(f + g.scale(2), h) == \
        pw_multiply(f, h) + pw_multiply(g, h).scale(2)


def pw_evaluate(f, words):
    """Evaluate f against a PBW monomial per factor: the pairing
    <(word_m ... applied to xi), v> per factor, multiplied over factors,
    with the dual action (x.xi)(v) = -xi(x.v) as dense matrices.
    Independent of the canonical-form machinery."""
    ctx = f.ctx
    total = F(0)
    for key, blk in f.blocks.items():
        reps = [ctx.irrep(w) for w in key]
        duals = [[[[-a[j][i] for j in range(rep.dim)] for i in range(rep.dim)]
                  for a in rep.act] for rep in reps]
        for idx, c in blk.items():
            val = c
            for j, word in enumerate(words):
                rep = reps[j]
                vec = [F(0)] * rep.dim
                vec[idx[2 * j]] = F(1)
                for bi in word:
                    mat = duals[j][bi]
                    vec = [sum(mat[r][s] * vec[s] for s in range(rep.dim))
                           for r in range(rep.dim)]
                val *= vec[idx[2 * j + 1]]
                if val == 0:
                    break
            total += val
    return total


def test_evaluation_oracle(ctx):
    f = matrix_coefficient(ctx, (1,), {0: F(1)}, {1: F(1)})
    g = matrix_coefficient(ctx, (2,), {1: F(1)}, {0: F(1)})
    # at the identity (empty word) evaluation is a character
    assert pw_evaluate(pw_multiply(f, g), [[]]) == \
        pw_evaluate(f, [[]]) * pw_evaluate(g, [[]])
    # a highest-weight coefficient paired against a lowering word is nonzero
    alg = ctx.alg
    phi = hw_coefficient(ctx, (1,), {1: F(1)})
    assert pw_evaluate(phi, [[]]) == 0
    assert pw_evaluate(phi, [[alg.lower_index(0)]]) != 0


def test_left_and_right_actions_are_derivations(ctx):
    alg = ctx.alg
    f = matrix_coefficient(ctx, (1,), {0: F(1)}, {1: F(1)})
    g = matrix_coefficient(ctx, (2,), {1: F(1, 2)}, {0: F(1)})
    for side in ("left", "right"):
        for i in range(alg.dim):
            lhs = act_factor(pw_multiply(f, g), 0, i, side)
            rhs = pw_multiply(act_factor(f, 0, i, side), g) \
                + pw_multiply(f, act_factor(g, 0, i, side))
            assert lhs == rhs


def test_weight_reading_on_semi_invariants(ctx):
    alg = ctx.alg
    for n in (1, 2, 3):
        for a in range(n + 1):
            phi = hw_coefficient(ctx, (n,), {a: F(1)})
            assert phi.is_semi_invariant()
            hr = act_factor(phi, 0, 0, "right")
            assert hr == phi.scale(-n)
            # raising vectors kill semi-invariants from the right
            er = act_factor(phi, 0, alg.raise_index(0), "right")
            assert er.is_zero()


def test_semi_invariant_products_add_weights(ctx):
    phi = hw_coefficient(ctx, (3,), {2: F(1)})
    psi = hw_coefficient(ctx, (2,), {1: F(1)})
    pr = pw_multiply(phi, psi)
    assert pr.is_semi_invariant()
    assert pr.weight_keys() == [((5,),)]


def test_product_bracket_m1_axioms(ctx):
    spec1 = BracketSpec(ctx, 1, "product")
    f = matrix_coefficient(ctx, (1,), {0: F(1)}, {1: F(1)})
    g = matrix_coefficient(ctx, (2,), {1: F(1, 2)}, {0: F(1)})
    h = matrix_coefficient(ctx, (1,), {1: F(3)}, {0: F(1)})

    def br(a, b):
        return classical_bracket(a, b, spec1)

    assert (br(f, g) + br(g, f)).is_zero()
    assert br(f, pw_one(ctx, 1)).is_zero()
    assert br(f, pw_multiply(g, h)) == \
        pw_multiply(br(f, g), h) + pw_multiply(g, br(f, h))
    assert (br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))).is_zero()


def test_bracket_of_semi_invariants_is_top_projection(ctx):
    """On semi-invariants only the left legs of the standard bivector
    survive, so the bracket is the bivector applied by left-invariant
    derivations followed by multiplication."""
    spec1 = BracketSpec(ctx, 1, "product")
    lam = spec1.st.lam
    for (w, a) in [(1, 0), (1, 1), (2, 1), (3, 2)]:
        for (l, b) in [(1, 1), (2, 0), (2, 2)]:
            phi = hw_coefficient(ctx, (w,), {a: F(1)})
            psi = hw_coefficient(ctx, (l,), {b: F(1)})
            oracle = None
            for (x, y), c in lam.data.items():
                piece = pw_multiply(act_factor(phi, 0, x, "left"),
                                    act_factor(psi, 0, y, "left")).scale(c)
                oracle = piece if oracle is None else oracle + piece
            got = classical_bracket(phi, psi, spec1)
            assert got == oracle
            if not got.is_zero():
                assert got.weight_keys() == [((w + l,),)]


def test_mixed_bracket_axioms_m2(ctx):
    spec2m = BracketSpec(ctx, 2, "mixed")
    phi = hw_coefficient(ctx, (3,), {2: F(1)})
    psi = hw_coefficient(ctx, (2,), {1: F(1)})
    Ft = pw_tensor([phi, psi])
    Gt = pw_tensor([psi, phi])
    Ht = pw_tensor([phi, phi])
    assert (classical_bracket(Ft, Gt, spec2m)
            + classical_bracket(Gt, Ft, spec2m)).is_zero()
    j = (classical_bracket(Ft, classical_bracket(Gt, Ht, spec2m), spec2m)
         + classical_bracket(Gt, classical_bracket(Ht, Ft, spec2m), spec2m)
         + classical_bracket(Ht, classical_bracket(Ft, Gt, spec2m), spec2m))
    assert j.is_zero()


def test_product_and_mixed_brackets_agree_on_semi_invariants(ctx):
    spec2p = BracketSpec(ctx, 2, "product")
    spec2m = BracketSpec(ctx, 2, "mixed")
    gens = [hw_coefficient(ctx, (1,), {a: F(1)}) for a in range(2)] \
        + [hw_coefficient(ctx, (2,), {a: F(1)}) for a in range(3)]
    pairs = [pw_tensor([f, g]) for f in gens[:2] for g in gens]
    for f in pairs:
        for g in pairs:
            assert classical_bracket(f, g, spec2p) == \
                classical_bracket(f, g, spec2m)


def test_cross_factor_bracket_formula(ctx):
    """For f in the first factor and g in the second, the bracket reduces
    to minus the mixing part of the bivector acting by left-invariant
    derivations, plus a weight-pairing multiple of the plain product."""
    from qaffine.liebialg import mix_tensor, standard_r

    spec2m = BracketSpec(ctx, 2, "mixed")
    st = standard_r(ctx.alg)
    mix = mix_tensor(st.r, 2)
    d = ctx.alg.dim
    one = hw_coefficient(ctx, (0,), {0: F(1)})
    for (w, a) in [(1, 0), (2, 1)]:
        for (l, b) in [(1, 1), (2, 0)]:
            phi = hw_coefficient(ctx, (w,), {a: F(1)})
            psi = hw_coefficient(ctx, (l,), {b: F(1)})
            fl = pw_tensor([phi, one])
            gt = pw_tensor([one, psi])
            oracle = pw_multiply(fl, gt).scale(
                ctx.alg.r0_pairing((w,), (l,)))
            for (x, y), c in mix.data.items():
                jx, bx = divmod(x, d)
                jy, by = divmod(y, d)
                piece = pw_multiply(
                    act_factor(fl, jx, bx, "left"),
                    act_factor(gt, jy, by, "left")).scale(-c)
                oracle = oracle + piece
            assert classical_bracket(fl, gt, spec2m) == oracle


def test_bracket_grading(ctx):
    spec2m = BracketSpec(ctx, 2, "mixed")
    gens = [hw_coefficient(ctx, (n,), {a: F(1)})
            for n in (1, 2) for a in range(n + 1)]
    for f1 in gens[:3]:
        for f2 in gens:
            for g1 in gens[:3]:
                for g2 in gens:
                    f = pw_tensor([f1, f2])
                    g = pw_tensor([g1, g2])
                    fk, gk = f.weight_keys()[0], g.weight_keys()[0]
                    want = tuple((fk[j][0] + gk[j][0],) for j in range(2))
                    for key in classical_bracket(f, g, spec2m).weight_keys():
                        assert key == want


def test_sl3_bracket_smoke(ctx3):
    spec1 = BracketSpec(ctx3, 1, "product")
    phi = hw_coefficient(ctx3, (1, 0), {0: F(1)})
    psi = hw_coefficient(ctx3, (0, 1), {1: F(1)})
    br = classical_bracket(phi, psi, spec1)
    assert (br + classical_bracket(psi, phi, spec1)).is_zero()
    for key in br.weight_keys():
        assert key == ((1, 1),)


# sha256 of json.dumps(h.to_json(), sort_keys=True) for the sl3 product
# a b, the product bracket {c, d} and the mixed bracket {a (x) b, c (x) d}
SL3_PINS = {
    1: ("7516f64ce172c250a2c6286bb6785dfc4240790867abd6296a3a14b64905198e",
        "ab56a7672ff7ed7a8828d733d688a26b94eb31badecb5594b1b30c665d269429",
        "f75867b7eedb4a1351f1ba24b57563e973f0dd2b9aab5828423d95841f52859a"),
    F(3, 2): (
        "7516f64ce172c250a2c6286bb6785dfc4240790867abd6296a3a14b64905198e",
        "40a522cd8c292a9654ba3850f33889581ea39677e107324b319b262868f5cae8",
        "48655ebeab55988ee00798b71a98c7c9d9bd7abe94850af54759780dd207c4e9"),
}


@pytest.mark.parametrize("scale", sorted(SL3_PINS), ids=str)
def test_sl3_products_and_brackets_are_pinned(scale):
    """sl3 function-algebra outputs, on both fundamentals and the adjoint,
    at the trace form and a rescaled one."""
    ctx = PWContext(build_sl(3, scale))
    a = hw_coefficient(ctx, (1, 0), {0: 1})
    b = hw_coefficient(ctx, (0, 1), {2: 1})
    c = hw_coefficient(ctx, (1, 1), {3: 1})
    d = hw_coefficient(ctx, (1, 0), {1: 1})
    got = [pw_multiply(a, b),
           classical_bracket(c, d, BracketSpec(ctx, 1, "product")),
           classical_bracket(pw_tensor([a, b]), pw_tensor([c, d]),
                             BracketSpec(ctx, 2, "mixed"))]
    assert tuple(hashlib.sha256(json.dumps(h.to_json(), sort_keys=True)
                                .encode()).hexdigest()
                 for h in got) == SL3_PINS[scale]


# -- slow references: dense tensor products and the tensor-power model ------


def _ref_options(entry, dual_flat, vec_flat):
    """The CG options of a pair of flat indices, read off the dense
    summands: every (nu, s, t, inj[dual_flat][s] * proj[t][vec_flat])."""
    opts = []
    for nu, inj, proj in entry.summands:
        dnu = len(inj[0])
        for s in range(dnu):
            ic = inj[dual_flat][s]
            if not ic:
                continue
            for t in range(dnu):
                pc = proj[t][vec_flat]
                if pc:
                    opts.append((nu, s, t, ic * pc))
    return opts


def _paired(pair, opts):
    """Options (nu, s, t, c) as CGEntry.options holds them: (nu, s, t, n,
    d) with (n, d) = pair(c), pair the hook of the context's ring."""
    return [(nu, s, t, *pair(c)) for nu, s, t, c in opts]


class DenseEntry:
    """A whole split held as dense (nu, injection, projection) summands:
    the reference that CGEntry, built one weight block at a time, is
    compared against; pair is the ring hook of its context."""

    def __init__(self, lam, mu, summands, pair):
        self.lam, self.mu, self.summands = lam, mu, summands
        self.pair = pair

    def options(self, dual_flat, vec_flat):
        return _paired(self.pair, _ref_options(self, dual_flat, vec_flat))


def mat_zero(m, n):
    return [[F(0)] * n for _ in range(m)]


class DenseRep:
    """A representation held as dense action matrices, the model of the
    references below (a cgx.Rep holds sparse columns)."""

    def __init__(self, alg, act, weights):
        self.alg, self.act, self.weights = alg, act, weights
        self.dim = len(weights)


def _dense_tensor(a, b) -> DenseRep:
    dim = a.dim * b.dim
    weights = [
        tuple(x + y for x, y in zip(wa, wb)) for wa in a.weights for wb in b.weights
    ]
    act = []
    for ma, mb in zip(a.act, b.act):
        out = mat_zero(dim, dim)
        for i in range(a.dim):
            for j in range(a.dim):
                for t in range(b.dim):
                    out[i * b.dim + t][j * b.dim + t] += ma[i][j]
        for t in range(b.dim):
            for u in range(b.dim):
                for i in range(a.dim):
                    out[i * b.dim + t][i * b.dim + u] += mb[t][u]
        act.append(out)
    return DenseRep(a.alg, act, weights)


def _mat_vec(mat, v):
    nz = [(c, x) for c, x in enumerate(v) if x != 0]
    return [sum((row[c] * x for c, x in nz), F(0)) for row in mat]


def _unit_kernel(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


class DenseContext(PWContext):
    """V(lam) (x) V(mu) split with dense actions on the tensor product."""

    def _decompose(self, lam, mu):
        alg = self.alg
        t = _dense_tensor(self.irrep(lam), self.irrep(mu))
        by_weight = {}
        for i, w in enumerate(t.weights):
            by_weight.setdefault(w, []).append(i)
        summand_data, inj_cols = [], []
        for w in sorted(by_weight, reverse=True):
            if any(c < 0 for c in w):
                continue
            idxs = by_weight[w]
            rows = []
            for i in range(alg.rank):
                target = tuple(a + b for a, b in zip(w, alg.simple_root(i)))
                rows += [[t.act[alg.raise_index(i)][r][c] for c in idxs]
                         for r in by_weight.get(target, [])]
            for kv in nullspace(rows) if rows else _unit_kernel(len(idxs)):
                vec = [F(0)] * t.dim
                for pos, i in enumerate(idxs):
                    vec[i] = kv[pos]
                lead = next(c for c in vec if c != 0)
                cols = [[c / lead for c in vec]]
                ref = self.irrep(w)
                for j in range(1, ref.dim):
                    parent, i = ref.words[j]
                    cols.append(_mat_vec(t.act[alg.lower_index(i)], cols[parent]))
                summand_data.append((w, cols))
                inj_cols.extend(cols)
        big_inv = mat_inv([[col[r] for col in inj_cols] for r in range(t.dim)])
        summands, offset = [], 0
        for w, cols in summand_data:
            inj = [[col[r] for col in cols] for r in range(t.dim)]
            summands.append((w, inj, big_inv[offset:offset + len(cols)]))
            offset += len(cols)
        return DenseEntry(lam, mu, summands, self.pair)


class TensorPowerContext(DenseContext):
    """V(lam) generated from the highest weight vector inside the tensor
    product of lam_a copies of each fundamental, with dense mat-vecs."""

    def _build_irrep(self, lam):
        alg = self.alg
        model = DenseRep(alg, [mat_zero(1, 1) for _ in range(alg.dim)],
                         [(0,) * alg.rank])
        for a in range(alg.rank):
            for _ in range(lam[a]):
                model = _dense_tensor(model, self.fundamental(a))
        idxs = [i for i, w in enumerate(model.weights) if w == lam]
        rows = [[model.act[alg.raise_index(i)][r][c] for c in idxs]
                for i in range(alg.rank) for r in range(model.dim)]
        (kern,) = nullspace(rows)
        hw = [F(0)] * model.dim
        for pos, i in enumerate(idxs):
            hw[i] = kern[pos]
        span = TrackedSpan(track=True)
        span.add({i: c for i, c in enumerate(hw) if c != 0})
        basis, words, gen_map, ngens = [hw], [None], {0: 0}, 1
        p = 0
        while p < len(basis):
            for i in range(alg.rank):
                img = _mat_vec(model.act[alg.lower_index(i)], basis[p])
                sv = {r: c for r, c in enumerate(img) if c != 0}
                if not sv:
                    continue
                if span.add(sv):
                    gen_map[ngens] = len(basis)
                    basis.append(img)
                    words.append((p, i))
                ngens += 1
            p += 1
        act = []
        for amat in model.act:
            mat = mat_zero(len(basis), len(basis))
            for col, v in enumerate(basis):
                img = _mat_vec(amat, v)
                coeffs = span.coefficients(
                    {r: c for r, c in enumerate(img) if c != 0})
                for gidx, c in coeffs.items():
                    mat[gen_map[gidx]][col] = c
            act.append(mat)
        weights = [model.weights[next(i for i, c in enumerate(v) if c != 0)]
                   for v in basis]
        return Irrep(alg, [sparse_columns(m) for m in act], weights, words)


def _same_irrep(got, want):
    """Equal columns, with their entries in the same (ascending) order, and
    equal dense views, weights and words."""
    assert [[list(col.items()) for col in cols] for cols in got.cols] == \
        [[list(col.items()) for col in cols] for cols in want.cols]
    assert (got.act, got.weights, got.words) == (want.act, want.weights, want.words)


def test_sparse_builders_match_dense_references(ctx, ctx3):
    ref2, ref3 = TensorPowerContext(build_sl(2)), TensorPowerContext(build_sl(3))
    for n in range(8):
        _same_irrep(ctx.irrep((n,)), ref2.irrep((n,)))
    for a in range(4):
        for b in range(4 - a):
            _same_irrep(ctx3.irrep((a, b)), ref3.irrep((a, b)))
    # the split of V(lam) (x) V(mu) against dense transport over the same
    # irreps, which the tensor-power model only reaches slowly (V(8), V(2,2))
    ref2, ref3 = DenseContext(build_sl(2)), DenseContext(build_sl(3))
    for a in range(5):
        for b in range(5):
            assert ctx.cg((a,), (b,)).summands == ref2.cg((a,), (b,)).summands
    small = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    for lam in small:
        for mu in small:
            assert ctx3.cg(lam, mu).summands == ref3.cg(lam, mu).summands


# -- slow references: one contraction per term, one product per leg --------
#
# The contraction and the bracket as they were before CGEntry.options and
# the single-pass bracket: the option list is rebuilt for every entry pair,
# and every bivector term is its own product, scaled and added.


def bump(blocks, key, idx, c):
    """The add-or-pop loop that BlockFunction._bump was: the slow reference
    accumulator of the functions below, apart from linalg.vec_sum."""
    if not c:
        return
    blk = blocks.setdefault(key, {})
    cur = blk.get(idx)
    nv = c if cur is None else cur + c
    if not nv:
        del blk[idx]
        if not blk:
            del blocks[key]
    else:
        blk[idx] = nv


def ref_cg_contract(ctx, m, groups):
    blocks = {}
    for lkey, rkey, terms in groups:
        tables = [ctx.cg(lkey[j], rkey[j]) for j in range(m)]
        dims = [ctx.irrep(rkey[j]).dim for j in range(m)]
        for lidx, ridx, n, d in terms:
            coeff = ctx.build(n, d)
            if not coeff:
                continue
            parts = []
            for j in range(m):
                d = dims[j]
                dual_flat = lidx[2 * j] * d + ridx[2 * j]
                vec_flat = lidx[2 * j + 1] * d + ridx[2 * j + 1]
                parts.append(_ref_options(tables[j], dual_flat, vec_flat))
            for combo in itertools.product(*parts):
                key = tuple(ch[0] for ch in combo)
                idx = tuple(x for ch in combo for x in (ch[1], ch[2]))
                c = coeff
                for ch in combo:
                    c = c * ch[3]
                bump(blocks, key, idx, c)
    return BlockFunction(ctx, m, blocks)


def ref_pw_multiply(f, g):
    f.check_compatible(g)
    return ref_cg_contract(f.ctx, f.m, block_pairs(f, g))


def _ref_rho_apply(spec, i, f):
    alg = spec.ctx.alg
    d, k = alg.dim, alg.rank
    dt = d + k
    j, bi = divmod(i, dt)
    if bi < d:
        return act_factor(f, j, bi, "left")
    return act_factor(f, j, bi - d, "right").scale(Fraction(-1))


def ref_classical_bracket(f, g, spec):
    if f.m != spec.m or g.m != spec.m:
        raise ValueError("bracket spec arity mismatch")
    ctx = spec.ctx
    out = BlockFunction(ctx, spec.m)
    if spec.kind == "product":
        d = ctx.alg.dim
        for (u, w), c in spec.bivector.data.items():
            ju, bu = divmod(u, d)
            jw, bw = divmod(w, d)
            lf = act_factor(f, ju, bu, "left")
            lg = act_factor(g, jw, bw, "left")
            out = out + ref_pw_multiply(lf, lg).scale(c)
            rf = act_factor(f, ju, bu, "right")
            rg = act_factor(g, jw, bw, "right")
            out = out - ref_pw_multiply(rf, rg).scale(c)
        return out
    if not (f.is_semi_invariant() and g.is_semi_invariant()):
        raise ValueError("mixed bracket requires semi-invariant inputs")
    for (u, w), c in spec.bivector.items():
        out = out + ref_pw_multiply(_ref_rho_apply(spec, u, f),
                                    _ref_rho_apply(spec, w, g)).scale(c)
    return out


def random_function(rng, ctx, m, semi, top=2, blocks=2, entries=3):
    """A few random blocks with weights of height <= top, on the highest
    weight line in every vector slot when semi."""
    rank = ctx.alg.rank
    out = {}
    for _ in range(blocks):
        key = tuple(tuple(rng.randint(0, top) for _ in range(rank))
                    for _ in range(m))
        dims = [ctx.irrep(w).dim for w in key]
        for _ in range(entries):
            idx = []
            for d in dims:
                idx += [rng.randrange(d), 0 if semi else rng.randrange(d)]
            c = ctx.coerce(F(rng.randint(-3, 3), rng.randint(1, 3)))
            bump(out, key, tuple(idx), c)
    return BlockFunction(ctx, m, out)


def _assert_reduced_fractions(h):
    """Every coefficient of h is a nonzero Fraction: neither an int nor an
    integer pair of the contraction reaches a block function."""
    assert all(type(c) is Fraction and c
               for blk in h.blocks.values() for c in blk.values())


@pytest.fixture(scope="module")
def ctx_scaled():
    """sl2 with the form scaled by 3/2: the bracket legs carry
    denominators."""
    return PWContext(build_sl(2, Fraction(3, 2)))


@pytest.mark.parametrize("m, top", [(1, 3), (2, 2), (3, 2)])
def test_bracket_matches_per_term_reference(ctx, ctx_scaled, m, top):
    for pw in (ctx, ctx_scaled):
        rng = random.Random(20 + m)
        specs = [BracketSpec(pw, m, kind) for kind in ("product", "mixed")]
        for _ in range(4):
            for semi in (True, False):
                f = random_function(rng, pw, m, semi, top)
                g = random_function(rng, pw, m, semi, top)
                for spec in specs:
                    if spec.kind == "mixed" and not semi:
                        with pytest.raises(ValueError):
                            classical_bracket(f, g, spec)
                        continue
                    got = classical_bracket(f, g, spec)
                    assert got.blocks == \
                        ref_classical_bracket(f, g, spec).blocks
                    _assert_reduced_fractions(got)


@pytest.mark.parametrize("m, top", [(1, 3), (2, 2), (3, 1)])
def test_pw_multiply_matches_per_term_reference(ctx, ctx_scaled, m, top):
    """The integer-pair contraction over Q gives the entries of the
    per-term Fraction reference, each a reduced nonzero Fraction."""
    for pw in (ctx, ctx_scaled):
        rng = random.Random(30 + m)
        for _ in range(4):
            semi = rng.random() < 0.5
            f = random_function(rng, pw, m, semi, top)
            g = random_function(rng, pw, m, semi, top)
            for a, b in ((f, g), (g, f), (f, f)):
                got = pw_multiply(a, b)
                assert got.blocks == ref_pw_multiply(a, b).blocks
                _assert_reduced_fractions(got)


def random_hw_function(rng, ctx, m, terms=2):
    """A sum of tensor products of seeded highest-weight coefficients."""
    out = BlockFunction(ctx, m)
    for _ in range(terms):
        factors = []
        for _ in range(m):
            n = rng.randint(1, 2)
            xi = {a: F(rng.randint(-3, 3) or 1, rng.randint(1, 3))
                  for a in range(n + 1) if rng.random() < 0.7}
            factors.append(hw_coefficient(ctx, (n,), xi or {0: F(1)}))
        out = out + pw_tensor(factors)
    return out


@pytest.fixture
def leg_builds(monkeypatch):
    """The (id(f), j, x, side) of every cgx._pair_leg call, in order."""
    calls = []
    real = cgx._pair_leg

    def counting(f, j, x, side):
        calls.append((id(f), j, x, side))
        return real(f, j, x, side)

    monkeypatch.setattr(cgx, "_pair_leg", counting)
    return calls


@pytest.mark.parametrize("m", [1, 2, 3])
def test_leg_memo_matches_per_term_reference(ctx, m, leg_builds):
    """Brackets that read their legs through the memo _pair_legs equal the
    reference that calls act_factor for every bivector term, also when
    one function is bracketed again with warm legs."""
    rng = random.Random(40 + m)
    fns = [random_hw_function(rng, ctx, m) for _ in range(3)]
    specs = [BracketSpec(ctx, m, kind) for kind in ("product", "mixed")]
    want = {(a, b, spec.kind): ref_classical_bracket(fns[a], fns[b], spec)
            for spec in specs for a in range(3) for b in range(3)}
    assert all(f._pair_legs == {} for f in fns)  # the reference fills none
    assert leg_builds == []
    for _ in range(2):
        for spec in specs:
            for a in range(3):
                for b in range(3):
                    got = classical_bracket(fns[a], fns[b], spec)
                    assert got.blocks == want[a, b, spec.kind].blocks
    # every leg was computed once, on the first pass
    assert leg_builds
    assert len(leg_builds) == len(set(leg_builds)) == \
        sum(len(f._pair_legs) for f in fns)


def test_a_sum_starts_its_own_leg_memo(ctx):
    """Functions never change, so a memo never goes stale: f + h is a new
    function with an empty memo, f's memo stays as it was, and brackets of
    f + h equal the reference."""
    rng = random.Random(7)
    spec = BracketSpec(ctx, 2, "mixed")
    f, g = random_hw_function(rng, ctx, 2), random_hw_function(rng, ctx, 2)
    before = classical_bracket(f, g, spec)
    assert f._pair_legs and g._pair_legs
    legs = dict(f._pair_legs)
    h = BlockFunction(ctx, 2, {((1,), (1,)): {(0, 0, 1, 0): F(5)}})
    fh = f + h
    assert fh._pair_legs == {} and fh._pair_legs is not f._pair_legs
    after = classical_bracket(fh, g, spec)
    assert f._pair_legs == legs
    assert after.blocks == ref_classical_bracket(fh, g, spec).blocks
    assert after != before
    assert classical_bracket(f, g, spec) == before


def test_quantum_action_never_fills_the_leg_memo(ctx, leg_builds):
    """act_factor with an element of U_hbar(sl2), and the quantum
    products, leave the memo empty and never build a leg, which a bracket
    of the classical function of the same shape does."""
    qctx = QAffineContext(UqContext(2))
    f = pw_tensor([hw_coefficient(qctx, (1,), {0: 1, 1: 1}),
                   hw_coefficient(qctx, (2,), {1: 1})])
    acted = [act_factor(f, j, uq_gen(qctx.uq, name), side)
             for j in range(2) for name in "EFH" for side in ("left", "right")]
    assert sum(not a.is_zero() for a in acted) > 6
    quantum_affine_multiply(f, f)
    assert f._pair_legs == {} and leg_builds == []
    fc = pw_tensor([hw_coefficient(ctx, (1,), {0: 1, 1: 1}),
                    hw_coefficient(ctx, (2,), {1: 1})])
    classical_bracket(fc, fc, BracketSpec(ctx, 2, "mixed"))
    assert fc._pair_legs and len(leg_builds) == len(fc._pair_legs)


def _pair_entries(f):
    """The entries (key, idx, n, d) of a function over a PWContext, n / d
    its coefficient there, in block order: the form of a leg that
    cgx._sum_of_products reads."""
    return [(key, idx, c.numerator, c.denominator)
            for key, blk in f.blocks.items() for idx, c in blk.items()]


def _ref_rho_tensor(t, f, g):
    """rho(t)(f (x) g) by the diagonal actions: each term a(x)b of t as the
    functions cgx._diag_act(f, a) and cgx._diag_act(g, b), read back into
    integer pairs for one cgx._sum_of_products pass."""
    return cgx._sum_of_products(f.ctx, f.m, [
        (_pair_entries(cgx._diag_act(f, a)), _pair_entries(cgx._diag_act(g, b)),
         c.numerator, c.denominator) for (a, b), c in t.data.items()])


@pytest.mark.parametrize("m", [1, 2])
def test_rho_tensor_from_the_leg_memo_matches_the_diagonal_action(
        ctx, m, leg_builds):
    """_rho_tensor, which sums the legs of every pair of factors read
    through the leg memos, equals the diagonal-action route on seeded
    functions, for the cobracket of every basis element, and builds each
    leg once."""
    rng = random.Random(80 + m)
    st = StandardR(ctx.alg)
    nonzero = 0
    for f, g in ((random_function(rng, ctx, m, False),
                  random_function(rng, ctx, m, False)),
                 (random_hw_function(rng, ctx, m),
                  random_hw_function(rng, ctx, m))):
        for x in range(ctx.alg.dim):
            t = cobracket(st.r, basis_tensor(ctx.alg, x))
            got = cgx._rho_tensor(t, f, g)
            assert got == _ref_rho_tensor(t, f, g)
            nonzero += not got.is_zero()
        assert f._pair_legs and g._pair_legs
    assert nonzero
    assert leg_builds and len(leg_builds) == len(set(leg_builds))


def _act_entries(h):
    """The entries (key, idx, coefficient) of a function, in block order."""
    return [(key, idx, c) for key, blk in h.blocks.items()
            for idx, c in blk.items()]


def _leg_as_fractions(f, j, x, side):
    return [(key, idx, F(n, d))
            for key, idx, n, d in cgx._pair_leg(f, j, x, side)]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pair_leg_matches_act_factor(ctx, ctx_scaled, ctx3, m):
    """The integer-pair leg of every end (j, x, side) is act_factor(f, j,
    x, side) entry for entry, in order, once each (n, d) is read as a
    Fraction: seeded functions over sl2, sl2 with a scaled form and sl3,
    semi-invariant and not."""
    for pw, top in ((ctx, 3), (ctx_scaled, 2), (ctx3, 1)):
        rng = random.Random(60 + m)
        for _ in range(3):
            f = random_function(rng, pw, m, rng.random() < 0.5, top)
            for j in range(m):
                for x in range(pw.alg.dim):
                    for side in ("left", "right"):
                        assert _leg_as_fractions(f, j, x, side) == \
                            _act_entries(act_factor(f, j, x, side))


def test_pair_leg_sums_entries_that_land_on_one_index(ctx3):
    """On the sl3 adjoint V(1,1), a basis element sends two basis vectors
    onto one; the leg sums the two terms there, and drops the entry when
    they cancel, as act_factor does, on either slot and in a middle
    factor."""
    lam = (1, 1)
    found = 0
    for side in ("left", "right"):
        for x in range(ctx3.alg.dim):
            lines = ctx3.slot_action(lam, x, side)
            hits = [(s, a, b) for a in range(len(lines))
                    for b in range(a + 1, len(lines))
                    for s in lines[a] if s in lines[b]]
            if not hits:
                continue
            s, a, b = hits[0]
            ca, cb = lines[a][s], lines[b][s]
            found += 1
            for p, q, lands in ((F(1, 2), F(2, 3), ca / 2 + cb * 2 / 3),
                                (cb / 5, -ca / 5, 0)):
                # factor 1 of three, entries at slot a and b of that factor
                pos = 2 + (side == "right")
                base = [1, 0, 2, 0, 0, 0]
                ia, ib = list(base), list(base)
                ia[pos], ib[pos] = a, b
                key = ((1, 0), lam, (0, 1))
                f = BlockFunction(ctx3, 3, {key: {tuple(ia): p,
                                                  tuple(ib): q}})
                leg = _leg_as_fractions(f, 1, x, side)
                assert leg == _act_entries(act_factor(f, 1, x, side))
                at = list(base)
                at[pos] = s
                got = {idx: c for _, idx, c in leg}
                assert got.get(tuple(at), 0) == lands
    assert found >= 2


def test_sl3_bracket_matches_per_term_reference(ctx3):
    rng = random.Random(3)
    for kind in ("product", "mixed"):
        spec = BracketSpec(ctx3, 1, kind)
        for _ in range(2):
            f = random_function(rng, ctx3, 1, True, top=1)
            g = random_function(rng, ctx3, 1, True, top=1)
            assert classical_bracket(f, g, spec).blocks == \
                ref_classical_bracket(f, g, spec).blocks


def _random_series_function(rng, qctx, m, semi, top):
    K = qctx.uq.order
    shape = random_function(rng, qctx, m, semi, top=top)
    return BlockFunction(qctx, m, {key: {idx: TruncatedSeries(
        K, [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(K)])
        for idx in blk} for key, blk in shape.blocks.items()})


@pytest.mark.parametrize("K", [2, 3, 4])
def test_quantum_products_match_per_term_reference(K, monkeypatch):
    qctx = QAffineContext(UqContext(K))
    rng = random.Random(K)
    cases = []
    for m, top in ((1, 3), (2, 2), (3, 1)):
        for _ in range(2):
            f = _random_series_function(rng, qctx, m, False, top)
            g = _random_series_function(rng, qctx, m, False, top)
            cases.append((q_multiply, f, g))
            f = _random_series_function(rng, qctx, m, True, top)
            g = _random_series_function(rng, qctx, m, True, top)
            cases.append((quantum_affine_multiply, f, g))
    got = [product(f, g) for product, f, g in cases]
    monkeypatch.setattr(que, "cg_contract", ref_cg_contract)
    for (product, f, g), fast in zip(cases, got):
        assert fast.blocks == product(f, g).blocks


@pytest.mark.parametrize("m", [1, 2, 3])
def test_self_bracket_cancels_in_the_pre_sum(ctx, m):
    """{f, f} vanishes for both kinds: every term the legs contribute
    cancels in the per-index-pair sums, as it does in the reference."""
    rng = random.Random(60 + m)
    for kind in ("product", "mixed"):
        spec = BracketSpec(ctx, m, kind)
        for semi in (True, False) if kind == "product" else (True,):
            f = random_function(rng, ctx, m, semi, top=2)
            got = classical_bracket(f, f, spec)
            assert got.blocks == ref_classical_bracket(f, f, spec).blocks
            assert got.is_zero()
        f = random_hw_function(rng, ctx, m)
        assert classical_bracket(f, f, spec).blocks == \
            ref_classical_bracket(f, f, spec).blocks == {}


def test_legs_that_cancel_at_an_index_pair(ctx, monkeypatch):
    """Legs whose terms c * lf[fi] * lg[gi] sum to zero at some (fi, gi)
    reach cg_contract without that pair, and without a block pair whose
    pairs all cancel; the sum of products is the sum of the reference
    products."""
    seen = []
    real = cgx.cg_contract

    def recording(c, m, groups):
        groups = [(lk, rk, list(terms)) for lk, rk, terms in groups]
        seen.append(groups)
        return real(c, m, groups)

    monkeypatch.setattr(cgx, "cg_contract", recording)
    rng = random.Random(11)
    for m in (1, 2):
        for c in (F(1, 2), F(3), F(2, 3)):
            f = random_function(rng, ctx, m, False)
            g = random_function(rng, ctx, m, False)
            # extra and h live on V(3)^m, which f (weights <= 2) misses
            top = ((3,),) * m
            extra = BlockFunction(ctx, m, {top: {(0, 1) * m: F(2)}})
            h = BlockFunction(ctx, m, {top: {(1, 2) * m: F(rng.randint(1, 3)),
                                             (0, 1) * m: F(1)}})
            # c f g - c (f + extra) g + h g = (h - c extra) g
            legs = [(f, g, c), (f + extra, g, -c), (h, g, F(1))]
            del seen[:]
            got = cgx._sum_of_products(ctx, m, [
                (_pair_entries(a), _pair_entries(b), k.numerator,
                 k.denominator) for a, b, k in legs])
            assert got.blocks == ref_pw_multiply(h - extra.scale(c), g).blocks
            (groups,) = seen
            # one group per block pair, in first-seen order, except the
            # pairs of the blocks of f, at every index pair of which the
            # legs cancel
            assert [(lk, rk) for lk, rk, _ in groups] == list(dict.fromkeys(
                (fk, gk) for lf, lg, _ in legs
                for fk in lf.blocks if fk not in f.blocks for gk in lg.blocks))
            # the legs also cancel at the pairs of (0, 1)^m in V(3)^m when
            # c = 1/2
            for lk, rk, terms in groups:
                assert terms and all(n for _, _, n, _ in terms)
                lidx = {fi for fi, _, _, _ in terms}
                assert ((0, 1) * m in lidx) == (lk == top and c != F(1, 2))


def test_classical_round_contracts_each_block_pair_once(monkeypatch):
    """One classical suite round hands cg_contract one group per block
    pair whose summed terms do not all cancel: 1,271 groups and 3,820
    terms, against 7,212 groups holding 7,241 terms when every leg was its
    own product (and 1,350 groups when the empty ones were passed on)."""
    from qaffine.cli import RunConfig, run_suite

    counts = [0, 0]
    real = cgx.cg_contract

    def counting(c, m, groups):
        groups = [(lk, rk, list(terms)) for lk, rk, terms in groups]
        counts[0] += len(groups)
        counts[1] += sum(len(terms) for _, _, terms in groups)
        return real(c, m, groups)

    monkeypatch.setattr(cgx, "cg_contract", counting)
    run_suite(RunConfig(suites=("classical",)))
    assert counts == [1271, 3820]


def test_classical_round_multiplies_on_integers(monkeypatch):
    """The brackets and contractions of one classical suite round sum on
    integer numerators: 6,068 Fraction multiplications and 1,443 additions,
    against 28,136 and 6,141 when every product and sum was a Fraction."""
    from qaffine.cli import RunConfig, run_suite

    counts = {"__mul__": 0, "__add__": 0}
    for name in counts:
        real = getattr(Fraction, name)

        def counting(a, b, name=name, real=real):
            counts[name] += 1
            return real(a, b)

        monkeypatch.setattr(Fraction, name, counting)
    run_suite(RunConfig(suites=("classical",)))
    monkeypatch.undo()
    assert 0 < counts["__mul__"] <= 10000
    assert 0 < counts["__add__"] <= 3000


def test_bracket_rejects_a_series_valued_function(ctx):
    """A function over QAffineContext against a classical spec raises the
    ring mismatch before any leg is computed, for both kinds, and a spec
    over QAffineContext is refused."""
    qctx = QAffineContext(UqContext(2))
    fq = hw_coefficient(qctx, (1,), {0: 1, 1: 2})
    fc = hw_coefficient(ctx, (1,), {0: F(1), 1: F(2)})
    for kind in ("product", "mixed"):
        with pytest.raises(ValueError, match="ring mismatch"):
            BracketSpec(qctx, 1, kind)
        spec = BracketSpec(ctx, 1, kind)
        for f, g in ((fq, fc), (fc, fq), (fq, fq)):
            with pytest.raises(ValueError, match="ring mismatch"):
                classical_bracket(f, g, spec)
        assert fq._pair_legs == {} and fc._pair_legs == {}


def test_one_contraction_per_bracket(ctx, monkeypatch):
    calls = []
    real = cgx.cg_contract

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(cgx, "cg_contract", counting)
    rng = random.Random(5)
    for m in (1, 2):
        for kind in ("product", "mixed"):
            spec = BracketSpec(ctx, m, kind)
            f = random_function(rng, ctx, m, True)
            g = random_function(rng, ctx, m, True)
            del calls[:]
            classical_bracket(f, g, spec)
            assert calls == [m]
    # the cobracket side of the Poisson-action identity is one pass as well
    del calls[:]
    t = cobracket(StandardR(ctx.alg).r, basis_tensor(ctx.alg, 1))
    cgx._rho_tensor(t, f, g)
    assert calls == [2]


def test_cg_options_are_the_reference_lists(ctx, ctx3):
    qctx = QAffineContext(UqContext(3))
    entries = [PWContext(build_sl(2)).cg((a,), (b,))
               for a in range(4) for b in range(4)]
    entries += [PWContext(build_sl(3)).cg((1, 0), (1, 1)),
                qctx.cg((2,), (1,)), qctx.cg((1,), (3,))]
    for entry in entries:
        dim = len(entry.summands[0][1])  # rows of an injection
        for dual_flat in range(dim):
            for vec_flat in range(dim):
                opts = entry.options(dual_flat, vec_flat)
                assert opts == _paired(
                    entry._ctx.pair, _ref_options(entry, dual_flat, vec_flat))
                assert entry.options(dual_flat, vec_flat) is opts
        assert len(entry._options) <= dim * dim


def _all_options(entry, dim):
    return [entry.options(d, v) for d in range(dim) for v in range(dim)]


def test_block_options_match_the_dense_split():
    """Options read one weight block at a time, on a fresh table and on one
    whose dense view was built first, are the lists of the whole split: on
    sl2 up to V(4) (x) V(4) and on the small sl3 pairs against dense
    transport with one whole inverse, and over Q[[hbar]]/(hbar^K) for
    K = 2..4 against the dense view (which tests/test_que.py holds to the
    whole-matrix series split)."""
    small = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    for n, pairs in ((2, [((a,), (b,)) for a in range(5) for b in range(5)]),
                     (3, [(lam, mu) for lam in small for mu in small])):
        ref = DenseContext(build_sl(n))
        before, after = PWContext(build_sl(n)), PWContext(build_sl(n))
        for lam, mu in pairs:
            want = ref.cg(lam, mu)
            dim = len(want.summands[0][1])
            assert _all_options(before.cg(lam, mu), dim) == \
                _all_options(want, dim), (lam, mu)
            after.cg(lam, mu).summands
            assert _all_options(after.cg(lam, mu), dim) == \
                _all_options(want, dim), (lam, mu)
    for K in (2, 3, 4):
        before = QAffineContext(UqContext(K))
        after = QAffineContext(UqContext(K))
        for a in range(4):
            for b in range(4):
                entry = after.cg((a,), (b,))
                want = DenseEntry((a,), (b,), entry.summands, after.pair)
                dim = (a + 1) * (b + 1)
                assert _all_options(before.cg((a,), (b,)), dim) == \
                    _all_options(want, dim), (K, a, b)
                assert _all_options(entry, dim) == _all_options(want, dim)


@pytest.mark.parametrize("args, inverses", [
    (["bracket", "sl2", "product", "3:1", "3:2"], 1),
    (["qmultiply", "3:1", "3:2"], 1),
    (["qmultiply", "3:3,1:0,2:1", "3:1,2:2,1:1"], 3),
])
def test_cg_tables_invert_only_the_blocks_read(args, inverses, monkeypatch,
                                               capsys):
    """A product of highest weight vectors reads one weight block per CG
    table, so a call inverts one block per table it meets, not every
    weight block of V(lam) (x) V(mu) (7 for V(3) (x) V(3) alone)."""
    calls = []
    real = cgx.mat_inv

    def counting(*a):
        calls.append(len(a[0]))
        return real(*a)

    monkeypatch.setattr(cgx, "mat_inv", counting)
    assert main(["compute"] + args) == 0
    capsys.readouterr()
    assert len(calls) == inverses, calls


def test_a_block_builds_only_the_summands_that_have_its_weight():
    """V(nu) has weight w exactly when nu - w+ is a sum of positive roots,
    w+ the dominant weight in the Weyl orbit of w.  So the lowest block of
    V_hbar(3) (x) V_hbar(3) (weight -6, w+ = 6) transports into V_hbar(6)
    alone, and the weight-0 block into every summand."""
    qctx = QAffineContext(UqContext(2))
    entry = qctx.cg((3,), (3,))
    assert [opt[:3] for opt in entry.options(15, 15)] == [((6,), 6, 6)]
    assert sorted(qctx._qirreps) == [3, 6]
    entry.options(6, 6)
    assert sorted(qctx._qirreps) == [0, 2, 3, 4, 6]


def test_block_without_matching_columns_is_an_incomplete_decomposition(ctx):
    """With the raising operators dropped, every weight vector of V(1) (x)
    V(1) is a highest weight vector: the weight-0 block gets three
    columns for two rows and raises when read, while the top block, one
    column for one row, still reads."""
    weights, (lowering,) = cgx._sparse_tensor(
        ctx.irrep((1,)), ctx.irrep((1,)), [ctx.alg.lower_index(0)])
    entry = CGEntry(cgx.detached(ctx), (1,), (1,), weights,
                    [[{} for _ in weights]], [lowering])
    assert entry.options(0, 0) == [((2,), 0, 0, 1, 1)]
    with pytest.raises(ValueError, match="incomplete decomposition"):
        entry.options(1, 1)
    with pytest.raises(ValueError, match="incomplete decomposition"):
        entry.summands


def test_contexts_are_freed_by_refcount():
    """A context and the CG tables it memoizes form no reference cycle:
    with the cycle collector off, a context is gone as soon as the last
    function over it is."""
    gc.disable()
    try:
        ctx = PWContext(build_sl(2))
        f = matrix_coefficient(ctx, (3,), {1: 1, 2: 3}, {0: 1, 2: 1})
        g = hw_coefficient(ctx, (3,), {2: 1})
        pw_multiply(f, g)
        classical_bracket(f, g, BracketSpec(ctx, 1))
        alive = weakref.ref(ctx)
        del ctx, f, g
        assert alive() is None
        qctx = QAffineContext(UqContext(3))
        f = matrix_coefficient(qctx, (3,), {1: 1}, {0: 1, 3: 1})
        q_multiply(f, hw_coefficient(qctx, (3,), {2: 1}))
        f = pw_tensor([hw_coefficient(qctx, (3,), {1: 1}),
                       hw_coefficient(qctx, (1,), {0: 1})])
        g = pw_tensor([hw_coefficient(qctx, (2,), {0: 1}),
                       hw_coefficient(qctx, (3,), {2: 1})])
        quantum_affine_multiply(f, g)
        alive, pw = weakref.ref(qctx), weakref.ref(qctx.pw)
        del qctx, f, g
        assert alive() is None and pw() is None
        # the coproduct and antipode memos of a UqContext hold data, not
        # tensors that point back to it
        uq = UqContext(3)
        coproduct(uq_gen(uq, "E") * uq_gen(uq, "F"))
        antipode(uq_gen(uq, "F") * uq_gen(uq, "H"))
        assert uq._delta and uq._antipode
        alive = weakref.ref(uq)
        del uq
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("suite, settings", [
    ("classical", {}), ("quantum", {"hbar_order": 4}),
    ("coiso", {"hbar_order": 3, "degree_bound": 3})])
def test_a_suite_run_leaves_no_garbage_cycles(suite, settings):
    """With the cycle collector off, one run_suite of each suite frees
    everything it built by refcount alone."""
    from qaffine.cli import RunConfig, run_suite

    gc.collect()
    gc.disable()
    try:
        run_suite(RunConfig(suites=(suite,), **settings))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _memo_cases(pw, qctx):
    """Seeded (f, g) pairs over both rings, semi-invariant and not, for
    the memo tests: over pw as classical functions and over qctx as
    series-valued ones, m = 1 and 2."""
    rng = random.Random(91)
    cases = []
    for m in (1, 2):
        for semi in (True, False):
            cases.append((random_function(rng, pw, m, semi),
                          random_function(rng, pw, m, semi)))
            cases.append((_random_series_function(rng, qctx, m, semi, 2),
                          _random_series_function(rng, qctx, m, semi, 2)))
    return cases


def _products(f, g):
    """Every product and bracket of f and g that their ring and shape
    allow, by name."""
    out = {}
    if f.ctx.ring == PWContext.ring:
        out["pw"] = pw_multiply(f, g)
        for kind in ("product", "mixed"):
            if kind == "product" or f.semi_invariant and g.semi_invariant:
                out[kind] = classical_bracket(f, g,
                                              BracketSpec(f.ctx, f.m, kind))
    else:
        out["q"] = q_multiply(f, g)
        if f.semi_invariant and g.semi_invariant:
            out["affine"] = quantum_affine_multiply(f, g)
    return out


def _rebuilt(h, ctx):
    """h as a new function over ctx, with empty memos."""
    return BlockFunction(ctx, h.m, h.blocks)


def test_warm_plans_give_what_a_fresh_context_gives():
    """Products and brackets read through a context whose plan memo is
    warm equal those of a fresh context, over both rings."""
    pw, qctx = PWContext(build_sl(2)), QAffineContext(UqContext(3))
    cases = _memo_cases(pw, qctx)
    cold = [_products(f, g) for f, g in cases]
    assert pw._plans and qctx._plans
    plans = (dict(pw._plans), dict(qctx._plans))
    for _ in range(2):
        for (f, g), want in zip(cases, cold):
            assert _products(f, g) == want
    assert (pw._plans, qctx._plans) == plans  # every pair already planned
    fresh_pw, fresh_q = PWContext(build_sl(2)), QAffineContext(UqContext(3))
    for (f, g), want in zip(cases, cold):
        ctx = fresh_pw if f.ctx is pw else fresh_q
        got = _products(_rebuilt(f, ctx), _rebuilt(g, ctx))
        assert {k: h.blocks for k, h in got.items()} == \
            {k: h.blocks for k, h in want.items()}


def test_detached_views_hold_their_own_empty_plan_memo():
    """detached(ctx) shares the caches of ctx but starts its own plan
    memo, and the CG tables, which hold such views, never fill one."""
    for ctx in (PWContext(build_sl(2)), QAffineContext(UqContext(2))):
        f = matrix_coefficient(ctx, (2,), {0: 1, 1: 2}, {0: 1, 2: 1})
        pw_multiply(f, f)
        assert ctx._plans
        view = cgx.detached(ctx)
        assert view._plans == {} and view._plans is not ctx._plans
        assert view._cg == {} and view._slot is ctx._slot
        for entry in ctx._cg.values():
            assert entry._ctx._plans == {}
            assert entry._ctx._plans is not ctx._plans


def test_semi_invariance_memo_is_a_fresh_scan():
    """BlockFunction.semi_invariant, read once and again, equals a fresh
    is_semi_invariant() on semi-invariant functions and on others, over
    both rings."""
    pw, qctx = PWContext(build_sl(2)), QAffineContext(UqContext(3))
    seen = set()
    for f, g in _memo_cases(pw, qctx):
        for h in (f, g, f + g, f - f):
            assert h.semi_invariant == h.is_semi_invariant()
            assert h.semi_invariant == h.is_semi_invariant()
            seen.add((h.ctx.ring, h.semi_invariant))
    assert len(seen) == 4


def test_non_semi_invariant_inputs_still_raise_after_memos_fill():
    """The mixed bracket and the twisted product refuse a function off the
    highest weight line, also after the memos of its partner are warm."""
    pw, qctx = PWContext(build_sl(2)), QAffineContext(UqContext(3))
    for m in (1, 2):
        spec = BracketSpec(pw, m, "mixed")
        f = pw_tensor([hw_coefficient(pw, (1,), {0: 1, 1: 2})] * m)
        g = pw_tensor([matrix_coefficient(pw, (1,), {0: 1}, {1: 1})] * m)
        classical_bracket(f, f, spec)
        fq = pw_tensor([hw_coefficient(qctx, (1,), {0: 1, 1: 2})] * m)
        gq = pw_tensor([matrix_coefficient(qctx, (1,), {0: 1}, {1: 1})] * m)
        quantum_affine_multiply(fq, fq)
        assert f.semi_invariant and fq.semi_invariant
        for a, b in ((f, g), (g, f), (g, g)):
            with pytest.raises(ValueError, match="semi-invariant"):
                classical_bracket(a, b, spec)
        for a, b in ((fq, gq), (gq, fq), (gq, gq)):
            with pytest.raises(ValueError, match="semi-invariant"):
                quantum_affine_multiply(a, b)
