"""Function algebras on G^m in the Peter-Weyl model.

Regular functions are block functions: finite sums of matrix-coefficient
blocks c_{xi,v} indexed by tuples of dominant weights.  One type,
BlockFunction, serves C[G^m] (rational coefficients, PWContext) and its
deformation C_hbar[SL2^m] (coefficients in Q[[hbar]]/(hbar^K),
que.QAffineContext).  Both contexts answer irrep(lam) and cg(lam, mu), and
every product goes through one Clebsch-Gordan contraction, cg_contract:
blocks are tensored factor by factor and decomposed back with exact
intertwiners, each pair of flat indices read from an option list that its
CG table memoizes (CGEntry.options).  A Poisson bracket is one such
contraction: the legs (a(f), b(g), c) of every bivector term go into a
single cg_contract pass with c folded into the term coefficients, and
each leg is computed once per function (BlockFunction.leg).  This
module holds the classical contexts, the Poisson brackets, and the oracles
the bracket checks are compared against.

Irreps are built recursively: V(lam) is generated inside
V(lam - w_a) (x) V(w_a), with a the last index where lam_a > 0, whose
weight-lam space is the highest weight line.  Tensor products act through
sparse columns (one nonzero dict per basis vector).

One routine, cg_split, splits V(lam) (x) V(mu) over either ring: it
transports each highest weight vector along the lowering words of V(nu)
and inverts the injection one weight block at a time.  One routine,
highest_weight_vectors, finds those vectors over either ring as kernel
generators of the raising operators: of sl(n) for PWContext, the series
coproduct of E for que.QAffineContext.

Conventions (pinned by the test suite):
  * dual action (x.xi)(v) = -xi(x.v), i.e. xi(S(x)v) with S(x) = -x,
  * x^L acts on the dual slot, x^R acts on the vector slot via v -> -x.v,
    so that x^R(f) = -<weight, x> f on a semi-invariant block,
  * irrep bases are generated from the highest weight vector by recorded
    lowering words, which makes word transport an intertwiner.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .kernel import TruncatedSeries
from .linalg import EchelonSpan, Matrix, mat_inv, mat_zero, sparse_nullspace
from .liebialg import (LieAlgebra, LieTensor, StandardR, Weight, mix_tensor,
                       require_arity)

Key = Tuple[Weight, ...]
SparseVec = Dict[int, Fraction]


class DimensionBoundError(ValueError):
    """An irrep above a context's dimension bound was asked for."""

    def __init__(self, lam: Weight, bound: int):
        super().__init__("irrep %s exceeds dimension bound %d"
                         % (tuple(lam), bound))


class Rep:
    """A representation given by exact action matrices for every basis
    element of the algebra, with weight-homogeneous basis vectors."""

    def __init__(self, alg: LieAlgebra, act: List[Matrix], weights: List[Weight]):
        self.alg = alg
        self.act = act
        self.weights = weights
        self.dim = len(weights)


def defining_rep(alg: LieAlgebra) -> Rep:
    mats = alg.defining_matrices
    n = len(mats[0])
    k = alg.rank
    weights = []
    for i in range(n):
        weights.append(tuple(int(mats[a][i][i]) for a in range(k)))
    return Rep(alg, mats, weights)


def exterior_power(rep: Rep, p: int) -> Rep:
    subsets = list(itertools.combinations(range(rep.dim), p))
    index = {s: i for i, s in enumerate(subsets)}
    k = rep.alg.rank
    weights = [
        tuple(sum(rep.weights[i][a] for i in s) for a in range(k)) for s in subsets
    ]
    act = []
    for mat in rep.act:
        out = mat_zero(len(subsets), len(subsets))
        for col, s in enumerate(subsets):
            for pos, i in enumerate(s):
                for j in range(rep.dim):
                    c = mat[j][i]
                    if c == 0 or (j != i and j in s):
                        continue
                    new = list(s)
                    new[pos] = j
                    order = sorted(range(p), key=lambda t: new[t])
                    sign = _perm_sign(order)
                    new_sorted = tuple(sorted(new))
                    out[index[new_sorted]][col] += sign * c
        act.append(out)
    return Rep(rep.alg, act, weights)


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _sparse_tensor(a: Rep, b: Rep, gens: Optional[Sequence[int]] = None
                   ) -> Tuple[List[Weight], List[List[SparseVec]]]:
    """Weights and sparse action of a (x) b on the basis e_i (x) f_t, at
    index i * b.dim + t: cols[x][j] holds the nonzeros of column j of the
    x-th of gens (by default every basis element of the algebra)."""
    db = b.dim
    weights = [
        tuple(x + y for x, y in zip(wa, wb)) for wa in a.weights for wb in b.weights
    ]
    if gens is None:
        gens = range(len(a.act))
    cols = []
    for x in gens:
        ca, cb = sparse_columns(a.act[x]), sparse_columns(b.act[x])
        mat = []
        for i in range(a.dim):
            for t in range(db):
                col = {r * db + t: c for r, c in ca[i].items()}
                for s, c in cb[t].items():
                    col[i * db + s] = col.get(i * db + s, 0) + c
                mat.append({r: c for r, c in col.items() if c != 0})
        cols.append(mat)
    return weights, cols


def sparse_columns(mat) -> List[Dict]:
    """Nonzeros of every column of a matrix over Q or Q[[hbar]]/(hbar^K)."""
    return [{r: row[j] for r, row in enumerate(mat) if row[j]}
            for j in range(len(mat[0]))]


def _apply(cols: List[SparseVec], v: SparseVec) -> SparseVec:
    """Matrix (given by its sparse columns) times sparse vector, over Q or
    Q[[hbar]]/(hbar^K)."""
    out: SparseVec = {}
    for j, x in v.items():
        for r, c in cols[j].items():
            p = c * x
            cur = out.get(r)
            out[r] = p if cur is None else cur + p
    return {r: c for r, c in out.items() if c}


class Irrep(Rep):
    """Irreducible representation with its construction words.

    words[j] = (parent index, simple root index) with words[0] = None;
    basis vector j is the lowering word applied to the highest weight
    vector, so transporting the words along any highest weight vector of
    the same weight yields an intertwiner.
    """

    def __init__(self, alg, act, weights, hw: Weight, words):
        super().__init__(alg, act, weights)
        self.hw = hw
        self.words = words

    def dual_act(self, idx: int) -> Matrix:
        """Action on the dual basis: (x.xi)(v) = -xi(x.v)."""
        a = self.act[idx]
        return [[-a[j][i] for j in range(self.dim)] for i in range(self.dim)]


class CGEntry:
    """Decomposition of V(lam)(x)V(mu) with exact intertwiners, with
    rational entries or, for que.QAffineContext, truncated series."""

    def __init__(self, lam: Weight, mu: Weight,
                 summands: List[Tuple[Weight, Matrix, Matrix]]):
        self.lam = lam
        self.mu = mu
        self.summands = summands  # (nu, injection, projection)
        self._options: Dict[Tuple[int, int], List] = {}

    def options(self, dual_flat: int, vec_flat: int) -> List:
        """The nonzero (nu, s, t, inj[dual_flat][s] * proj[t][vec_flat]):
        where the basis pair (dual_flat, vec_flat) of V(lam) (x) V(mu)
        lands in the blocks of the summands V(nu); memoized per pair."""
        key = (dual_flat, vec_flat)
        opts = self._options.get(key)
        if opts is None:
            opts = self._options[key] = []
            for nu, inj, proj in self.summands:
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

    def cartan_injection(self) -> Matrix:
        nu = tuple(a + b for a, b in zip(self.lam, self.mu))
        for w, inj, _ in self.summands:
            if w == nu:
                return inj
        raise KeyError(nu)

    def cartan_projection(self) -> Matrix:
        nu = tuple(a + b for a, b in zip(self.lam, self.mu))
        for w, _, proj in self.summands:
            if w == nu:
                return proj
        raise KeyError(nu)


def cg_split(ctx, lam: Weight, mu: Weight, weights: List,
             lowering: List[List[SparseVec]],
             hw_list: List[Tuple[Weight, SparseVec]]) -> CGEntry:
    """Split V(lam) (x) V(mu) over the ring of ctx, given the weights of
    its basis, the sparse columns of its lowering operators (one per
    simple root) and its highest weight vectors (nu, vector).  Each vector
    is transported along ctx.irrep(nu).words into the injection of
    V(nu).  The injection maps weight spaces to weight spaces, so its
    inverse, whose rows are the projections, is computed one weight block
    at a time."""
    dim = len(weights)
    zero, one = ctx.coerce(0), ctx.coerce(1)
    rows_of: Dict = {}  # weight -> basis indices of V(lam) (x) V(mu)
    for r, w in enumerate(weights):
        rows_of.setdefault(w, []).append(r)
    cols_of: Dict = {}  # weight -> (summand, position) of injection columns
    transported = []
    for n, (nu, hw) in enumerate(hw_list):
        ref = ctx.irrep(nu)
        vecs = [hw]
        for parent, i in ref.words[1:]:
            vecs.append(_apply(lowering[i], vecs[parent]))
        for s, w in enumerate(ref.weights):
            cols_of.setdefault(w, []).append((n, s))
        transported.append(vecs)
    if sum(map(len, transported)) != dim or any(
            len(rows_of.get(w, ())) != len(c) for w, c in cols_of.items()):
        raise ValueError("incomplete decomposition of %s (x) %s" % (lam, mu))
    projs = [[None] * len(vecs) for vecs in transported]
    for w, cols in cols_of.items():
        rows = rows_of[w]
        block = [[transported[n][s].get(r, zero) for n, s in cols]
                 for r in rows]
        for (n, s), line in zip(cols, mat_inv(block, one)):
            full = [zero] * dim
            for r, x in zip(rows, line):
                full[r] = x
            projs[n][s] = full
    summands = []
    for (nu, _), vecs, proj in zip(hw_list, transported, projs):
        inj = [[v.get(r, zero) for v in vecs] for r in range(dim)]
        summands.append((nu, inj, proj))
    return CGEntry(tuple(lam), tuple(mu), summands)


def highest_weight_vectors(ctx, weights: List[Weight],
                           raising: List[List[SparseVec]]
                           ) -> List[Tuple[Weight, SparseVec]]:
    """The highest weight vectors (nu, vector) of a tensor product over the
    ring of ctx, given the weights of its basis and the sparse columns of
    its raising operators (one per simple root), dominant weights in
    decreasing order.  Per weight they are the kernel generators of the
    raising operators that have a unit entry, each divided by its entry at
    the last unit index, then by the constant term of its entry at the
    first; over Q that scales the leading coefficient to 1."""
    one = ctx.coerce(1)
    by_weight: Dict[Weight, List[int]] = {}
    for i, w in enumerate(weights):
        by_weight.setdefault(w, []).append(i)
    hw_list: List[Tuple[Weight, SparseVec]] = []
    for w in sorted(by_weight, reverse=True):
        if any(c < 0 for c in w):
            continue
        idxs = by_weight[w]
        # column pos: the images of basis vector idxs[pos] under every
        # raising operator, which lie in the weight spaces above w
        cols = [{(i, r): x for i, e in enumerate(raising)
                 for r, x in e[c].items()} for c in idxs]
        for kv in sparse_nullspace(cols, one):
            units = [pos for pos, x in kv.items() if ctx.is_unit(x)]
            if units:
                c = one / kv[units[-1]]
                lead = kv[units[0]] * c
                if type(lead) is TruncatedSeries:
                    lead = lead.constant_term()
                c = c / lead
                hw_list.append((w, {idxs[pos]: x * c for pos, x in kv.items()}))
    return hw_list


class PWContext:
    """Memo cache of irreps and Clebsch-Gordan tables for one algebra; the
    context of block functions with rational coefficients."""

    ring = "Q"

    def __init__(self, alg: LieAlgebra, dim_bound: int = 64):
        self.alg = alg
        self.dim_bound = dim_bound
        self._irreps: Dict[Weight, Irrep] = {}
        self._cg: Dict[Tuple[Weight, Weight], CGEntry] = {}
        self._fund: Dict[int, Rep] = {}
        self._slot: Dict[Tuple[Weight, int, str], List[SparseVec]] = {}

    def coerce(self, c) -> Fraction:
        return Fraction(c)

    def is_unit(self, c: Fraction) -> bool:
        return c != 0

    def coeff_json(self, c: Fraction) -> str:
        return str(c)

    def json_fields(self) -> Dict:
        return {}

    def slot_action(self, lam: Weight, x: int, side: str) -> List[SparseVec]:
        """rho(S(x)) = -A_x on V(lam) for basis element x, as the sparse
        columns of its transpose (side "left", acting on the dual slot)
        or of itself (side "right", the vector slot); see act_factor."""
        key = (lam, x, side)
        if key not in self._slot:
            a = self.irrep(lam).act[x]
            rows = a if side == "right" else zip(*a)
            self._slot[key] = sparse_columns([[-c for c in r] for r in rows])
        return self._slot[key]

    def fundamental(self, a: int) -> Rep:
        if a not in self._fund:
            self._fund[a] = exterior_power(defining_rep(self.alg), a + 1)
        return self._fund[a]

    def irrep(self, lam: Weight) -> Irrep:
        lam = tuple(lam)
        if lam not in self._irreps:
            self._irreps[lam] = self._build_irrep(lam)
        return self._irreps[lam]

    def _build_irrep(self, lam: Weight) -> Irrep:
        """V(lam) inside V(lam - w_a) (x) V(w_a), a the last index with
        lam_a > 0; its weight-lam space is the highest weight line."""
        alg = self.alg
        if len(lam) != alg.rank or any(c < 0 for c in lam):
            raise ValueError("weight must be dominant integral")
        if not any(lam):
            return self._generate([lam], [[{}] for _ in range(alg.dim)], lam)
        a = max(i for i, c in enumerate(lam) if c)
        try:
            sub = self.irrep(lam[:a] + (lam[a] - 1,) + lam[a + 1:])
        except DimensionBoundError:
            # dim V(lam) >= dim V(lam - w_a): name the weight asked for
            raise DimensionBoundError(lam, self.dim_bound) from None
        return self._generate(*_sparse_tensor(sub, self.fundamental(a)), lam)

    def _generate(self, weights: List[Weight], cols: List[List[SparseVec]],
                  lam: Weight) -> Irrep:
        """Close the highest weight vector of the model (weights, cols)
        under the lowering operators, recording the lowering words."""
        alg = self.alg
        span = EchelonSpan(track=True)
        hw = {weights.index(lam): Fraction(1)}
        span.add(hw)
        basis = [hw]
        words: List[Optional[Tuple[int, int]]] = [None]
        gen_map: Dict[int, int] = {0: 0}  # span generator index -> basis position
        ngens = 1
        p = 0
        while p < len(basis):
            for i in range(alg.rank):
                img = _apply(cols[alg.lower_index(i)], basis[p])
                if not img:
                    continue
                if span.add(img):
                    if len(basis) >= self.dim_bound:
                        raise DimensionBoundError(lam, self.dim_bound)
                    gen_map[ngens] = len(basis)
                    basis.append(img)
                    words.append((p, i))
                ngens += 1
            p += 1
        dim = len(basis)
        act = []
        for idx in range(alg.dim):
            mat = mat_zero(dim, dim)
            for col in range(dim):
                coeffs = span.coefficients(_apply(cols[idx], basis[col]))
                if coeffs is None:
                    raise ValueError("module not closed under the action")
                for gidx, c in coeffs.items():
                    mat[gen_map[gidx]][col] = c
            act.append(mat)
        weights = [weights[min(v)] for v in basis]
        return Irrep(self.alg, act, weights, lam, words)

    # -- Clebsch-Gordan -------------------------------------------------

    def cg(self, lam: Weight, mu: Weight) -> CGEntry:
        key = (tuple(lam), tuple(mu))
        if key not in self._cg:
            self._cg[key] = self._decompose(*key)
        return self._cg[key]

    def _decompose(self, lam: Weight, mu: Weight) -> CGEntry:
        """The split of V(lam) (x) V(mu) by cg_split, from its highest
        weight vectors."""
        alg = self.alg
        va, vb = self.irrep(lam), self.irrep(mu)
        weights, lowering = _sparse_tensor(
            va, vb, [alg.lower_index(i) for i in range(alg.rank)])
        hw_list = highest_weight_vectors(self, *_sparse_tensor(
            va, vb, [alg.raise_index(i) for i in range(alg.rank)]))
        return cg_split(self, lam, mu, weights, lowering, hw_list)


# -- block functions --------------------------------------------------------


class BlockFunction:
    """Finite sum of matrix-coefficient blocks c_{xi,v} on G^m.

    blocks[key] is a sparse dict from index tuples of length 2m (dual
    index and vector index per factor, interleaved) to a coefficient in
    the ring of the context: Fraction for a PWContext (C[G^m]),
    TruncatedSeries for a QAffineContext (C_hbar[SL2^m]).  The rings
    differ only in ctx.coerce, the zero test `not c`, and the JSON of a
    coefficient (ctx.coeff_json, with ctx.json_fields at the top level).

    _legs memoizes act_factor(self, j, x, side) for a basis index x (see
    leg); _bump clears it, and copy starts a fresh one.
    """

    def __init__(self, ctx, m: int, blocks: Optional[Dict] = None):
        self.ctx = ctx
        self.m = m
        self.blocks: Dict[Key, Dict[Tuple[int, ...], object]] = {}
        self._legs: Dict[Tuple[int, int, str], "BlockFunction"] = {}
        if blocks:
            for key, blk in blocks.items():
                for idx, c in blk.items():
                    self._bump(tuple(tuple(w) for w in key), tuple(idx),
                               ctx.coerce(c))

    def _bump(self, key: Key, idx: Tuple[int, ...], c):
        if not c:
            return
        if self._legs:
            self._legs.clear()
        blk = self.blocks.setdefault(key, {})
        cur = blk.get(idx)
        nv = c if cur is None else cur + c
        if not nv:
            del blk[idx]
            if not blk:
                del self.blocks[key]
        else:
            blk[idx] = nv

    def check_compatible(self, other: "BlockFunction"):
        """Sums and products need equal arities and coefficient rings."""
        if self.m != other.m:
            raise ValueError("arity mismatch: m=%d and m=%d"
                             % (self.m, other.m))
        if self.ctx.ring != other.ctx.ring:
            raise ValueError("ring mismatch: %s and %s"
                             % (self.ctx.ring, other.ctx.ring))

    def leg(self, j: int, x: int, side: str) -> "BlockFunction":
        """act_factor(self, j, x, side) for a basis index x, computed once
        until the next _bump.  The result is shared: read it, never bump
        it."""
        key = (j, x, side)
        out = self._legs.get(key)
        if out is None:
            out = self._legs[key] = act_factor(self, j, x, side)
        return out

    def copy(self) -> "BlockFunction":
        out = BlockFunction(self.ctx, self.m)
        out.blocks = {k: dict(b) for k, b in self.blocks.items()}
        return out

    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other):
        return (
            isinstance(other, BlockFunction)
            and self.m == other.m
            and self.ctx.ring == other.ctx.ring
            and self.blocks == other.blocks
        )

    def __add__(self, other: "BlockFunction") -> "BlockFunction":
        self.check_compatible(other)
        out = self.copy()
        for key, blk in other.blocks.items():
            for idx, c in blk.items():
                out._bump(key, idx, c)
        return out

    def __sub__(self, other: "BlockFunction") -> "BlockFunction":
        self.check_compatible(other)
        out = self.copy()
        for key, blk in other.blocks.items():
            for idx, c in blk.items():
                out._bump(key, idx, -c)
        return out

    def scale(self, c) -> "BlockFunction":
        c = self.ctx.coerce(c)
        out = BlockFunction(self.ctx, self.m)
        if c:
            for key, blk in self.blocks.items():
                # a product of nonzero series can vanish mod hbar^K
                nb = {i: p for i, v in blk.items() if (p := c * v)}
                if nb:
                    out.blocks[key] = nb
        return out

    def weight_keys(self) -> List[Key]:
        return sorted(self.blocks)

    def is_semi_invariant(self) -> bool:
        """All vector slots sit on the highest weight line (index 0)."""
        for blk in self.blocks.values():
            for idx in blk:
                if any(idx[2 * j + 1] != 0 for j in range(self.m)):
                    return False
        return True

    def hbar_coefficient(self, i: int) -> "BlockFunction":
        """Coefficient of hbar^i of a series-valued function, as a function
        over the companion classical context ctx.pw."""
        out = BlockFunction(self.ctx.pw, self.m)
        for key, blk in self.blocks.items():
            for idx, s in blk.items():
                out._bump(key, idx, s[i])
        return out

    def mod_hbar(self) -> "BlockFunction":
        return self.hbar_coefficient(0)

    def to_json(self):
        ctx = self.ctx
        out = {}
        for key in sorted(self.blocks):
            name = ";".join(",".join(str(c) for c in w) for w in key)
            out[name] = sorted(
                [list(idx) + [ctx.coeff_json(c)]
                 for idx, c in self.blocks[key].items()]
            )
        return dict(ctx.json_fields(), m=self.m, blocks=out)

    def __repr__(self):
        return "BlockFunction(m=%d, ring=%s, keys=%s)" % (
            self.m, self.ctx.ring, self.weight_keys())


def pw_one(ctx, m: int) -> BlockFunction:
    """The unit of the function algebra on G^m over either context."""
    key = tuple((0,) * ctx.alg.rank for _ in range(m))
    return BlockFunction(ctx, m, {key: {(0,) * (2 * m): 1}})


def matrix_coefficient(ctx, lam: Weight, xi: Dict[int, object],
                       v: Dict[int, object]) -> BlockFunction:
    """Single-block function c_{xi, v} on V(lam) (m = 1)."""
    out = BlockFunction(ctx, 1)
    key = (tuple(lam),)
    for a, ca in xi.items():
        for b, cb in v.items():
            out._bump(key, (a, b), ctx.coerce(ca) * ctx.coerce(cb))
    return out


def hw_coefficient(ctx, lam: Weight, xi: Dict[int, object]) -> BlockFunction:
    """Phi_lam(xi): the semi-invariant coefficient with v = highest weight
    vector of V(lam)."""
    return matrix_coefficient(ctx, lam, xi, {0: 1})


def pw_tensor(fs: Sequence[BlockFunction]) -> BlockFunction:
    """Place functions side by side on G^(m_1 + m_2 + ...)."""
    ctx = fs[0].ctx
    if any(f.ctx.ring != ctx.ring for f in fs):
        raise ValueError("ring mismatch in a tensor product")
    out = BlockFunction(ctx, sum(f.m for f in fs))
    for combo in itertools.product(*[f.blocks.items() for f in fs]):
        key = tuple(w for (k, _) in combo for w in k)
        for idxs in itertools.product(*[blk.items() for (_, blk) in combo]):
            idx = tuple(i for (ii, _) in idxs for i in ii)
            out._bump(key, idx, math.prod(c for _, c in idxs))
    return out


def cg_contract(ctx, m: int, groups) -> BlockFunction:
    """The Clebsch-Gordan contraction behind every product of block
    functions and every Poisson bracket.  groups yields (lkey, rkey,
    terms), terms listing (lidx, ridx, coeff): coeff times the entry lidx
    of an m-factor block lkey times the entry ridx of an m-factor block
    rkey, multiplied factor by factor, factor j split through the CG table
    of V(lkey[j]) (x) V(rkey[j]).  Each factor reads its options from the
    table's memo (CGEntry.options), so a pair of flat indices is expanded
    once per table, however many terms or groups meet it."""
    out = BlockFunction(ctx, m)
    for lkey, rkey, terms in groups:
        tables = [ctx.cg(lkey[j], rkey[j]) for j in range(m)]
        dims = [ctx.irrep(rkey[j]).dim for j in range(m)]
        for lidx, ridx, coeff in terms:
            if not coeff:
                continue
            parts = []
            for j in range(m):
                d = dims[j]
                parts.append(tables[j].options(
                    lidx[2 * j] * d + ridx[2 * j],
                    lidx[2 * j + 1] * d + ridx[2 * j + 1]))
            for combo in itertools.product(*parts):
                key = tuple(ch[0] for ch in combo)
                idx = tuple(x for ch in combo for x in (ch[1], ch[2]))
                c = coeff
                for ch in combo:
                    c = c * ch[3]
                out._bump(key, idx, c)
    return out


def block_pairs(f: BlockFunction, g: BlockFunction, c=None):
    """The cg_contract groups of the product of f (left) by g (right),
    times the scalar c if given: every block of f against every block
    of g."""
    for fkey, fblk in f.blocks.items():
        for gkey, gblk in g.blocks.items():
            if c is None:
                terms = [(fi, gi, fc * gc) for fi, fc in fblk.items()
                         for gi, gc in gblk.items()]
            else:
                terms = [(fi, gi, c * fc * gc) for fi, fc in fblk.items()
                         for gi, gc in gblk.items()]
            yield fkey, gkey, terms


def pw_multiply(f: BlockFunction, g: BlockFunction) -> BlockFunction:
    """Product in C[G^m]: blockwise tensor, then CG-decompose per factor."""
    f.check_compatible(g)
    return cg_contract(f.ctx, f.m, block_pairs(f, g))


def _sum_of_products(ctx, m: int, legs) -> BlockFunction:
    """sum of c * (lf lg) over legs (lf, lg, c), as one cg_contract pass:
    the scalar c rides in the term coefficients, so no product is scaled,
    copied or added on its own."""
    for lf, lg, _ in legs:
        lf.check_compatible(lg)
    return cg_contract(ctx, m, (group for lf, lg, c in legs
                                for group in block_pairs(lf, lg, c)))


# -- invariant vector fields ------------------------------------------------


def act_factor(f: BlockFunction, j: int, x, side: str) -> BlockFunction:
    """Action of an algebra element x on factor j (0-based) through
    rho(S(x)) (S(x) = -x for x in g): on the dual slot for side "left",
    x^L c_{xi,v} = c_{x.xi, v} with (x.xi)(v) = xi(S(x)v), and on the vector
    slot for side "right", x^R c_{xi,v} = c_{xi, S(x)v}.  x is a basis
    index for a PWContext and an element of U_hbar(sl2) (a one-leg
    UqTensor, such as a UqElement) for a QAffineContext."""
    return _act_into(BlockFunction(f.ctx, f.m), f, j, x, side)


def _act_into(out: BlockFunction, f: BlockFunction, j: int, x, side: str,
              c=None) -> BlockFunction:
    """Add act_factor(f, j, x, side), times the scalar c if given, into
    out, and return out."""
    ctx = f.ctx
    slot = 2 * j + (side == "right")
    for key, blk in f.blocks.items():
        lines = ctx.slot_action(key[j], x, side)
        for idx, v in blk.items():
            if c is not None:
                v = v * c
            for s, a in lines[idx[slot]].items():
                out._bump(key, idx[:slot] + (s,) + idx[slot + 1:], v * a)
    return out


def invariant_action(x: LieTensor, f: BlockFunction, side: str,
                     base_dim: Optional[int] = None) -> BlockFunction:
    """x^L or x^R for x an arity-1 tensor over g or g^m.

    base_dim is dim(g) when x lives over g^m; component j of the product
    acts on factor j.
    """
    require_arity(x, 1, "x")
    ctx = f.ctx
    d = base_dim or ctx.alg.dim
    out = BlockFunction(ctx, f.m)
    for (i,), c in x.data.items():
        j, bi = divmod(i, d)
        _act_into(out, f, j, bi, side, ctx.coerce(c))
    return out


def pw_evaluate(f: BlockFunction, words: Sequence[Sequence[int]]) -> Fraction:
    """Evaluate f against a PBW monomial per factor: the pairing
    <(word_m ... applied to xi), v> per factor, multiplied over factors.

    Independent of the canonical-form machinery; used as a test oracle.
    """
    ctx = f.ctx
    total = Fraction(0)
    for key, blk in f.blocks.items():
        reps = [ctx.irrep(w) for w in key]
        duals = [
            [rep.dual_act(i) for i in range(ctx.alg.dim)] for rep in reps
        ]
        for idx, c in blk.items():
            val = c
            for j, word in enumerate(words):
                rep = reps[j]
                vec = [Fraction(0)] * rep.dim
                vec[idx[2 * j]] = Fraction(1)
                for bi in word:
                    mat = duals[j][bi]
                    vec = [
                        sum(mat[r][s] * vec[s] for s in range(rep.dim))
                        for r in range(rep.dim)
                    ]
                val *= vec[idx[2 * j + 1]]
                if val == 0:
                    break
            total += val
    return total


# -- Poisson brackets -------------------------------------------------------


class BracketSpec:
    """Selects {,}_{r_st}^{(m)} on C[G^m] ("product") or the mixed bracket
    {,}^{(m)} on C[N\\G]^(x)m ("mixed")."""

    def __init__(self, ctx: PWContext, m: int, kind: str = "product"):
        if kind not in ("product", "mixed"):
            raise ValueError(kind)
        self.ctx = ctx
        self.m = m
        self.kind = kind
        alg = ctx.alg
        self.st = StandardR(alg)
        if kind == "product":
            self.bivector = self._lambda_m(alg, m)
        else:
            self.bivector = self._mixed_bivector(alg, m)

    def _lambda_m(self, alg, m):
        """Lambda_st^(m) = (Lambda_st, ..., Lambda_st) - Mix^m(r_st) over g^m,
        as index pairs (component j, basis i) flattened by dim(g)."""
        from .liebialg import diagonal_r
        alg_m = alg.power(m)
        return (
            diagonal_r(self.st.lam, m, alg_m) - mix_tensor(self.st.r, m, alg_m)
        )

    def _mixed_bivector(self, alg, m):
        """sum_j (Lambda_st)_jj - Mix^m(r~_st) over (g (+) t)^m.

        Indices: component j occupies [j*dt, (j+1)*dt) with dt = dim g + rank;
        the first dim(g) slots act as y^L, the last rank slots as -x^R on the
        Cartan part.
        """
        d, k = alg.dim, alg.rank
        dt = d + k
        terms: Dict[Tuple[int, int], Fraction] = {}

        def bump(key, c):
            nv = terms.get(key, Fraction(0)) + c
            if nv == 0:
                terms.pop(key, None)
            else:
                terms[key] = nv

        for j in range(m):
            for (a, b), c in self.st.lam.data.items():
                bump((j * dt + a, j * dt + b), c)
        # Mix^m(r~_st) with r~ = (r_st, 0) - (0, r_0)
        rtilde: Dict[Tuple[int, int], Fraction] = {}
        for (a, b), c in self.st.r.data.items():
            rtilde[(a, b)] = rtilde.get((a, b), Fraction(0)) + c
        for (a, b), c in self.st.r0.data.items():
            key = (d + a, d + b)
            rtilde[key] = rtilde.get(key, Fraction(0)) - c
        for (a, b), c in rtilde.items():
            if c == 0:
                continue
            for kk in range(m):
                for ll in range(kk + 1, m):
                    yk = kk * dt + b
                    xl = ll * dt + a
                    bump((yk, xl), -c)
                    bump((xl, yk), c)
        return terms


def _rho_leg(spec: BracketSpec, i: int, f: BlockFunction):
    """One flattened leg of the mixed bivector as a derivation: (the
    action on f, its sign).  Slots below dim(g) act as y^L, the Cartan
    slots as -x^R."""
    alg = spec.ctx.alg
    d = alg.dim
    j, bi = divmod(i, d + alg.rank)
    if bi < d:
        return f.leg(j, bi, "left"), 1
    return f.leg(j, bi - d, "right"), -1


def classical_bracket(f: BlockFunction, g: BlockFunction, spec: BracketSpec) -> BlockFunction:
    """{f, g} for the bivector of spec: the legs (a(f), b(g), c) of its
    terms c a (x) b, summed in one cg_contract pass.  Each leg is read
    through the memo of f or g (BlockFunction.leg), so a function
    bracketed many times acts with each basis element once."""
    if f.m != spec.m or g.m != spec.m:
        raise ValueError("bracket spec arity mismatch")
    ctx = spec.ctx
    legs = []
    if spec.kind == "product":
        d = ctx.alg.dim
        for (u, w), c in spec.bivector.data.items():
            ju, bu = divmod(u, d)
            jw, bw = divmod(w, d)
            legs.append((f.leg(ju, bu, "left"), g.leg(jw, bw, "left"), c))
            legs.append((f.leg(ju, bu, "right"), g.leg(jw, bw, "right"), -c))
    else:
        if not (f.is_semi_invariant() and g.is_semi_invariant()):
            raise ValueError("mixed bracket requires semi-invariant inputs")
        for (u, w), c in spec.bivector.items():
            lf, su = _rho_leg(spec, u, f)
            lg, sw = _rho_leg(spec, w, g)
            legs.append((lf, lg, su * sw * c))
    return _sum_of_products(ctx, spec.m, legs)


# -- oracles for the bracket checks -----------------------------------------


def _diag_act(f: BlockFunction, idx: int) -> BlockFunction:
    """Diagonal left-invariant action of one basis element on every factor."""
    out = BlockFunction(f.ctx, f.m)
    for j in range(f.m):
        _act_into(out, f, j, idx, "left")
    return out


def _rho_tensor(t: LieTensor, f: BlockFunction, g: BlockFunction):
    """rho(t)(f (x) g) = sum over terms a(x)b of (rho(a)f)(rho(b)g) for the
    diagonal action rho, in one cg_contract pass."""
    return _sum_of_products(f.ctx, f.m, [
        (_diag_act(f, a), _diag_act(g, b), c) for (a, b), c in t.data.items()])


def poisson_action_residual(spec: BracketSpec, f: BlockFunction,
                            g: BlockFunction) -> Optional[BlockFunction]:
    """First nonzero residual (or None) of the Poisson-action identity for
    the diagonal left action: rho(delta(x))(f (x) g) = rho(x){f,g} -
    {rho(x)f, g} - {f, rho(x)g} over all basis elements x."""
    from .liebialg import basis_tensor, cobracket

    alg = spec.ctx.alg
    fg = classical_bracket(f, g, spec)
    for x_idx in range(alg.dim):
        lhs = _rho_tensor(cobracket(spec.st.r, basis_tensor(alg, x_idx)), f, g)
        rhs = (_diag_act(fg, x_idx)
               - classical_bracket(_diag_act(f, x_idx), g, spec)
               - classical_bracket(f, _diag_act(g, x_idx), spec))
        diff = lhs - rhs
        if not diff.is_zero():
            return diff
    return None


def _dual_act_vec(rep: Irrep, basis_idx: int,
                  xi: Dict[int, Fraction]) -> Dict[int, Fraction]:
    """Action on the dual slot of a matrix coefficient: (x.xi)_s =
    -sum_a A[a][s] xi_a."""
    mat = rep.act[basis_idx]
    out: Dict[int, Fraction] = {}
    for a, c in xi.items():
        row = mat[a]
        for s in range(rep.dim):
            if row[s] != 0:
                nv = out.get(s, Fraction(0)) - c * row[s]
                if nv == 0:
                    out.pop(s, None)
                else:
                    out[s] = nv
    return out


def hw_bracket_oracle(ctx: PWContext, st: StandardR, w: int, l: int,
                      xi: Dict[int, Fraction],
                      mu: Dict[int, Fraction]) -> BlockFunction:
    """Independent value of the bracket of two highest-weight coefficients:
    apply the standard bivector to xi (x) mu inside V(w) (x) V(l), project
    onto the top Clebsch-Gordan summand V(w+l), and read the result off as
    a single highest-weight coefficient."""
    rw, rl = ctx.irrep((w,)), ctx.irrep((l,))
    flat: Dict[int, Fraction] = {}
    for (a, b), c in st.lam.data.items():
        axi = _dual_act_vec(rw, a, xi)
        bmu = _dual_act_vec(rl, b, mu)
        for i, ci in axi.items():
            for j, cj in bmu.items():
                k = i * rl.dim + j
                nv = flat.get(k, Fraction(0)) + c * ci * cj
                if nv == 0:
                    flat.pop(k, None)
                else:
                    flat[k] = nv
    cg = ctx.cg((w,), (l,))
    inj = cg.cartan_injection()
    proj = cg.cartan_projection()
    dnu = len(inj[0])
    out = BlockFunction(ctx, 1)
    key = ((w + l,),)
    for s in range(dnu):
        ic = Fraction(0)
        for fl, c in flat.items():
            ic += inj[fl][s] * c
        if ic == 0:
            continue
        for t in range(dnu):
            pc = proj[t][0]  # image of the pair of highest vectors
            if pc != 0:
                out._bump(key, (s, t), ic * pc)
    return out
