"""Function algebras on G^m in the Peter-Weyl model.

Regular functions are block functions: finite sums of matrix-coefficient
blocks c_{xi,v} indexed by tuples of dominant weights.  One immutable
type, BlockFunction, serves C[G^m] (rational coefficients, PWContext) and
its deformation C_hbar[SL2^m] (coefficients in Q[[hbar]]/(hbar^K),
que.QAffineContext); every builder yields its terms, which are summed
once, in linalg.vec_sum.  Both contexts answer irrep(lam) and
cg(lam, mu), and every product goes through one Clebsch-Gordan
contraction, cg_contract: blocks are tensored factor by factor and
decomposed back with exact intertwiners, each pair of flat indices read
from an option list that its CG table memoizes (CGEntry.options), and
the option memos of the tables and the dimensions of a block pair
memoized as its plan.  One loop serves both rings: its terms carry their
coefficients as the pairs it sums (numerator and denominator over Q, a
series over 1, as ctx.pair makes them), and it builds one coefficient per
entry of the result, from that entry's running sum, with ctx.build.  A
Poisson bracket (over Q) is one such contraction, on integer pairs from
end to end: each leg a(f) is computed once per function, as a list of
entries (key, idx, n, d) (_pair_leg), the terms c * a(f)[fi] * b(g)[gi]
of every bivector term are summed per block pair and index pair, and
those sums go into a single cg_contract pass as they are, one group per
block pair.
This module holds the classical contexts, the Poisson brackets, and the
oracles the bracket checks are compared against.

Representations (Rep, Irrep, que.QIrrep) act by sparse columns, one
nonzero dict per basis vector in ascending row order; Rep.act is a dense
view that no engine path reads.  Irreps are built recursively: V(lam) is
generated inside V(lam - w_a) (x) V(w_a), with a the last index where
lam_a > 0, whose weight-lam space is the highest weight line.  Tensor
products act through _tensor_columns and duals through _transposed, over
either ring.

One type, CGEntry, splits V(lam) (x) V(mu) over either ring, one weight
block at a time and only for the blocks that are read: a block takes the
highest weight vectors of the summands V(nu) that have its weight, as
kernel generators of the raising operators (of sl(n) for PWContext, the
series coproduct of E for que.QAffineContext), transports them along the
lowering words of V(nu), and inverts the injection on that weight.

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
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .kernel import TruncatedSeries
from .linalg import EchelonSpan, Matrix, mat_inv, sparse_nullspace, vec_sum
from .liebialg import LieAlgebra, LieTensor, StandardR, Weight, mix_tensor

Key = Tuple[Weight, ...]
SparseVec = Dict[int, Fraction]


class DimensionBoundError(ValueError):
    """An irrep above a context's dimension bound was asked for."""

    def __init__(self, lam: Weight, bound: int):
        super().__init__("irrep %s exceeds dimension bound %d"
                         % (tuple(lam), bound))


class Rep:
    """A representation given by the sparse columns of every basis element
    of the algebra, cols[x][j] the nonzeros of column j of x in ascending
    row order, with weight-homogeneous basis vectors."""

    def __init__(self, alg: LieAlgebra, cols: List[List[SparseVec]],
                 weights: List[Weight]):
        self.alg = alg
        self.cols = cols
        self.weights = weights
        self.dim = len(weights)

    @cached_property
    def act(self) -> List[Matrix]:
        """The action matrices, a dense read-only view of cols."""
        zero = Fraction(0)
        return [[[col.get(r, zero) for col in cols] for r in range(self.dim)]
                for cols in self.cols]


def defining_rep(alg: LieAlgebra) -> Rep:
    mats = alg.defining_matrices
    weights = [tuple(int(mats[a][i][i]) for a in range(alg.rank))
               for i in range(len(mats[0]))]
    return Rep(alg, [sparse_columns(m) for m in mats], weights)


def exterior_power(rep: Rep, p: int) -> Rep:
    """Lambda^p of rep on the p-subsets s: x replaces an i in s by a j
    outside it, with sign (-1)^#{u in s : min(i,j) < u < max(i,j)}."""
    subsets = list(itertools.combinations(range(rep.dim), p))
    index = {s: i for i, s in enumerate(subsets)}
    k = rep.alg.rank
    weights = [
        tuple(sum(rep.weights[i][a] for i in s) for a in range(k)) for s in subsets
    ]
    cols = []
    for xcols in rep.cols:
        out = []
        for s in subsets:
            col: SparseVec = {}
            for pos, i in enumerate(s):
                for j, c in xcols[i].items():
                    if j != i and j in s:
                        continue
                    if sum(min(i, j) < u < max(i, j) for u in s) % 2:
                        c = -c
                    r = index[tuple(sorted(s[:pos] + (j,) + s[pos + 1:]))]
                    col[r] = col.get(r, 0) + c
            out.append({r: col[r] for r in sorted(col) if col[r]})
        cols.append(out)
    return Rep(rep.alg, cols, weights)


def _tensor_columns(ca: List[SparseVec], cb: List[SparseVec],
                    left: Optional[Sequence] = None,
                    right: Optional[Sequence] = None) -> List[SparseVec]:
    """Sparse columns of x (x) k' + k (x) x' on the basis e_i (x) f_t of
    V (x) W, at index i * dim W + t: ca and cb the columns of x on V and
    of x' on W, left and right the diagonals of k on V and of k' on W (the
    identity when None).  Where the two parts meet they add, and zeros are
    dropped."""
    db = len(cb)
    cols = []
    for i, a in enumerate(ca):
        for t, b in enumerate(cb):
            col = {r * db + t: c if right is None else c * right[t]
                   for r, c in a.items()}
            for s, c in b.items():
                if left is not None:
                    c = left[i] * c
                cur = col.get(i * db + s)
                col[i * db + s] = c if cur is None else cur + c
            cols.append({r: c for r, c in col.items() if c})
    return cols


def _sparse_tensor(a: Rep, b: Rep, gens: Optional[Sequence[int]] = None
                   ) -> Tuple[List[Weight], List[List[SparseVec]]]:
    """Weights and sparse action x (x) 1 + 1 (x) x of a (x) b (see
    _tensor_columns), for every x of gens (by default every basis element
    of the algebra)."""
    weights = [
        tuple(x + y for x, y in zip(wa, wb)) for wa in a.weights for wb in b.weights
    ]
    if gens is None:
        gens = range(len(a.cols))
    return weights, [_tensor_columns(a.cols[x], b.cols[x]) for x in gens]


def sparse_columns(mat) -> List[Dict]:
    """Nonzeros of every column of a matrix over Q or Q[[hbar]]/(hbar^K)."""
    return [{r: row[j] for r, row in enumerate(mat) if row[j]}
            for j in range(len(mat[0]))]


def _transposed(cols: List[SparseVec]) -> List[SparseVec]:
    """The sparse columns of the transpose of a square matrix."""
    out: List[SparseVec] = [{} for _ in cols]
    for j, col in enumerate(cols):
        for r, c in col.items():
            out[r][j] = c
    return out


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

    def __init__(self, alg, cols, weights, words):
        super().__init__(alg, cols, weights)
        self.words = words


class CGEntry:
    """The split of V(lam) (x) V(mu) into summands V(nu) with exact
    intertwiners, with rational entries or, for que.QAffineContext,
    truncated series, built one weight block at a time as reads need it.

    The injection maps weight spaces to weight spaces, so the split is
    block-diagonal by weight.  The entry keeps the weights of the tensor
    basis and the sparse columns of its raising and lowering operators (one
    list per simple root).  options(dual_flat, vec_flat) builds the block
    of weight w = weight(vec_flat) the first time it is read: the highest
    weight vectors of the summands V(nu) that have weight w, their
    transports along ctx.irrep(nu).words, and the inverse of that one
    block, whose rows are the projections; each is memoized.  summands is
    the complete dense view, built on demand.

    ctx must not hold the entry (see detached), so that a context and the
    tables it memoizes form no reference cycle."""

    def __init__(self, ctx, lam: Weight, mu: Weight, weights: List[Weight],
                 raising: List[List[SparseVec]],
                 lowering: List[List[SparseVec]]):
        self.lam = tuple(lam)
        self.mu = tuple(mu)
        self._ctx = ctx
        self._zero, self._one = ctx.coerce(0), ctx.coerce(1)
        self._weights = weights
        self._raising = raising
        self._lowering = lowering
        self._rows_of: Dict[Weight, List[int]] = {}  # weight -> basis indices
        for r, w in enumerate(weights):
            self._rows_of.setdefault(w, []).append(r)
        # depth of a weight w: lam + mu - w in simple roots, read off the
        # lowering words of the factors at the first basis vector of w
        rank = ctx.alg.rank
        da, db = (_depths(ctx.irrep(x).words, rank) for x in (lam, mu))
        self._depth = {w: tuple(map(sum, zip(da[rows[0] // len(db)],
                                             db[rows[0] % len(db)])))
                       for w, rows in self._rows_of.items()}
        # the dominant weights, where highest weight vectors can lie
        self._dominants = sorted((w for w in self._rows_of if min(w) >= 0),
                            reverse=True)
        self._at: Dict[Weight, Tuple[List[List[SparseVec]], List]] = {}
        self._blocks: Dict[Weight, Tuple[List, Dict]] = {}
        self._options: Dict[Tuple[int, int], List] = {}

    def options(self, dual_flat: int, vec_flat: int) -> List:
        """The (nu, s, t, n, d) with n / d = ctx.pair(inj[dual_flat][s] *
        proj[t][vec_flat]) nonzero: where the basis pair (dual_flat,
        vec_flat) of V(lam) (x) V(mu) lands in the blocks of the summands
        V(nu); memoized per pair."""
        key = (dual_flat, vec_flat)
        opts = self._options.get(key)
        if opts is None:
            opts = self._options[key] = []
            pair = self._ctx.pair
            parts, proj = self._block(self._weights[vec_flat])
            for p, line in proj[vec_flat].items():
                nu, _, vecs = parts[p]
                for s, v in enumerate(vecs):
                    ic = v.get(dual_flat)
                    if ic:
                        opts.extend((nu, s, t, *pair(ic * pc))
                                    for t, pc in line)
        return opts

    def _summands_at(self, nu: Weight) -> Tuple[List[List[SparseVec]], List]:
        """The summands V(nu) of highest weight nu, each as the transport
        of its highest weight vector along ctx.irrep(nu).words, and the
        depths of the basis of V(nu); V(nu) is built only when there is
        such a vector.  The vectors are the kernel generators of the
        raising operators at weight nu that have a unit entry, each
        divided by its entry at the last unit index, then by the constant
        term of its entry at the first; over Q that scales the leading
        coefficient to 1."""
        got = self._at.get(nu)
        if got is None:
            ctx, one = self._ctx, self._one
            idxs = self._rows_of[nu]
            # column pos: the images of basis vector idxs[pos] under every
            # raising operator, which lie in the weight spaces above nu
            cols = [{(i, r): x for i, e in enumerate(self._raising)
                     for r, x in e[c].items()} for c in idxs]
            transports = []
            for kv in sparse_nullspace(cols, one):
                units = [pos for pos, x in kv.items() if ctx.is_unit(x)]
                if units:
                    c = one / kv[units[-1]]
                    lead = kv[units[0]] * c
                    if type(lead) is TruncatedSeries:
                        lead = lead.constant_term()
                    c = c / lead
                    transports.append([{idxs[pos]: x * c
                                        for pos, x in kv.items()}])
            depths: List = []
            if transports:
                ref = ctx.irrep(nu)
                for vecs in transports:
                    for parent, i in ref.words[1:]:
                        vecs.append(_apply(self._lowering[i], vecs[parent]))
                depths = _depths(ref.words, ctx.alg.rank)
            got = self._at[nu] = (transports, depths)
        return got

    def _block(self, w: Weight) -> Tuple[List, Dict]:
        """The summands (nu, k, transported vectors) that have weight w,
        k the place of the summand among those of highest weight nu, in
        summand order, and the inverse of the weight-w block
        of the injection by columns: proj[r][p] lists the nonzero (t,
        proj[t][r]) of summand p at the basis index r of weight w.  A
        summand V(nu) has weight w when nu - w+ lies in the positive root
        cone, w+ the dominant weight in the Weyl orbit of w, so no V(nu)
        is built for a block it misses."""
        blk = self._blocks.get(w)
        if blk is None:
            rows = self._rows_of[w]
            depth = self._depth
            top = depth[_dominant(w, self._ctx.alg.cartan_matrix)]
            parts: List = []
            cols: List[Tuple[int, int]] = []  # (summand p, position s)
            for nu in self._dominants:
                if any(a < b for a, b in zip(top, depth[nu])):
                    continue
                transports, depths = self._summands_at(nu)
                rel = tuple(a - b for a, b in zip(depth[w], depth[nu]))
                at = [s for s, d in enumerate(depths) if d == rel]
                for k, vecs in enumerate(transports):
                    cols.extend((len(parts), s) for s in at)
                    parts.append((nu, k, vecs))
            if len(cols) != len(rows):
                raise ValueError("incomplete decomposition of %s (x) %s"
                                 % (self.lam, self.mu))
            zero = self._zero
            inv = mat_inv([[parts[p][2][s].get(r, zero) for p, s in cols]
                           for r in rows], self._one)
            proj: Dict[int, Dict[int, List]] = {r: {} for r in rows}
            for (p, t), line in zip(cols, inv):
                for r, x in zip(rows, line):
                    if x:
                        proj[r].setdefault(p, []).append((t, x))
            blk = self._blocks[w] = (parts, proj)
        return blk

    @cached_property
    def summands(self) -> List[Tuple[Weight, Matrix, Matrix]]:
        """The complete split as dense (nu, injection, projection), the
        summands by descending nu; builds every block."""
        dim, zero = len(self._weights), self._zero
        projs: Dict[Tuple[Weight, int], Dict[int, List]] = {}
        for w in self._rows_of:
            parts, proj = self._block(w)
            for r, by_part in proj.items():
                for p, line in by_part.items():
                    rows = projs.setdefault(parts[p][:2], {})
                    for t, x in line:
                        if t not in rows:
                            rows[t] = [zero] * dim
                        rows[t][r] = x
        out = []
        for nu in self._dominants:
            for k, vecs in enumerate(self._summands_at(nu)[0]):
                inj = [[v.get(r, zero) for v in vecs] for r in range(dim)]
                rows = projs[nu, k]
                out.append((nu, inj, [rows[t] for t in range(len(vecs))]))
        if sum(len(inj[0]) for _, inj, _ in out) != dim:
            raise ValueError("incomplete decomposition of %s (x) %s"
                             % (self.lam, self.mu))
        return out

    def cartan(self) -> Tuple[Matrix, Matrix]:
        """The (injection, projection) of the Cartan summand V(lam+mu)."""
        nu = tuple(a + b for a, b in zip(self.lam, self.mu))
        for w, inj, proj in self.summands:
            if w == nu:
                return inj, proj
        raise KeyError(nu)


def _depths(words: List, rank: int) -> List[Tuple[int, ...]]:
    """Per basis vector of an irrep, how often its lowering word applies
    each simple root: its highest weight minus its weight, in simple
    roots."""
    out: List[Tuple[int, ...]] = []
    for word in words:
        if word is None:
            out.append((0,) * rank)
        else:
            parent, i = word
            d = out[parent]
            out.append(d[:i] + (d[i] + 1,) + d[i + 1:])
    return out


def _dominant(w: Weight, cartan: Matrix) -> Weight:
    """The dominant weight in the Weyl orbit of w (fundamental
    coordinates): reflect by s_i(w) = w - w_i alpha_i, alpha_i the column
    i of the Cartan matrix, while some w_i < 0."""
    w = list(w)
    while (i := next((i for i, c in enumerate(w) if c < 0), None)) is not None:
        c = w[i]
        w = [x - c * cartan[j][i] for j, x in enumerate(w)]
    return tuple(w)


def detached(ctx):
    """A shallow copy of ctx that shares its irreps and other caches but
    holds an empty CG memo and an empty plan memo of its own: the CG
    tables of ctx build their irreps through it, and the plans of ctx hold
    those tables, so a context and the tables it memoizes form no
    reference cycle and the context is freed as soon as its last user
    drops it."""
    view = object.__new__(type(ctx))
    view.__dict__.update(vars(ctx), _cg={}, _plans={})
    return view


class PWContext:
    """Memo cache of irreps and Clebsch-Gordan tables for one algebra; the
    context of block functions with rational coefficients."""

    ring = "Q"

    def __init__(self, alg: LieAlgebra, dim_bound: int = 64):
        self.alg = alg
        self.dim_bound = dim_bound
        self._irreps: Dict[Weight, Irrep] = {}
        self._cg: Dict[Tuple[Weight, Weight], CGEntry] = {}
        self._plans: Dict[Tuple[Key, Key], List] = {}  # see cg_contract
        self._fund: Dict[int, Rep] = {}
        self._slot: Dict[Tuple[Weight, int, str], List[SparseVec]] = {}

    def coerce(self, c) -> Fraction:
        return Fraction(c)

    def is_unit(self, c: Fraction) -> bool:
        return c != 0

    def pair(self, c: Fraction) -> Tuple[int, int]:
        """c as a term pair of cg_contract: (numerator, denominator)."""
        return c.numerator, c.denominator

    def build(self, n: int, d: int) -> Fraction:
        """The coefficient of a summed pair of cg_contract, which need not
        be in lowest terms."""
        return Fraction(n, d)

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
            cols = [{r: -c for r, c in col.items()}
                    for col in self.irrep(lam).cols[x]]
            self._slot[key] = cols if side == "right" else _transposed(cols)
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
        span = EchelonSpan.with_coordinates()
        hw = {weights.index(lam): Fraction(1)}
        span.add(hw)
        basis = [hw]  # the inserts that grew the span, in index order
        words: List[Optional[Tuple[int, int]]] = [None]
        p = 0
        while p < len(basis):
            for i in range(alg.rank):
                img = _apply(cols[alg.lower_index(i)], basis[p])
                if img and span.add(img):
                    if len(basis) >= self.dim_bound:
                        raise DimensionBoundError(lam, self.dim_bound)
                    basis.append(img)
                    words.append((p, i))
            p += 1
        act = []
        for idx in range(alg.dim):
            out = []
            for v in basis:
                residual, coords = span.coefficients(_apply(cols[idx], v))
                if residual:
                    raise ValueError("module not closed under the action")
                # identity keys settle in index order: ascending rows
                out.append(coords)
            act.append(out)
        weights = [weights[min(v)] for v in basis]
        return Irrep(self.alg, act, weights, words)

    # -- Clebsch-Gordan -------------------------------------------------

    def cg(self, lam: Weight, mu: Weight) -> CGEntry:
        key = (tuple(lam), tuple(mu))
        if key not in self._cg:
            self._cg[key] = self._decompose(*key)
        return self._cg[key]

    def _decompose(self, lam: Weight, mu: Weight) -> CGEntry:
        """The split of V(lam) (x) V(mu), from the sparse raising and
        lowering operators on it; its blocks are built as they are read."""
        alg = self.alg
        rank = alg.rank
        weights, cols = _sparse_tensor(
            self.irrep(lam), self.irrep(mu),
            [alg.raise_index(i) for i in range(rank)]
            + [alg.lower_index(i) for i in range(rank)])
        return CGEntry(detached(self), lam, mu, weights, cols[:rank],
                       cols[rank:])


# -- block functions --------------------------------------------------------


def _blocks_of(entries: Dict) -> Dict:
    """The blocks of the summed entries {(key, idx): coefficient}, in
    their order."""
    blocks: Dict = {}
    for (key, idx), c in entries.items():
        blk = blocks.get(key)
        if blk is None:
            blocks[key] = {idx: c}
        else:
            blk[idx] = c
    return blocks


class BlockFunction:
    """Finite sum of matrix-coefficient blocks c_{xi,v} on G^m.

    blocks[key] is a sparse dict from index tuples of length 2m (dual
    index and vector index per factor, interleaved) to a coefficient in
    the ring of the context: Fraction for a PWContext (C[G^m]),
    TruncatedSeries for a QAffineContext (C_hbar[SL2^m]).  The rings
    differ only in ctx.coerce, the zero test `not c`, the JSON of a
    coefficient (ctx.coeff_json, with ctx.json_fields at the top level),
    and the pairs that cg_contract sums (ctx.pair and ctx.build).

    A function never changes once built: every builder hands its terms
    ((key, idx), coefficient) to _from_terms, which sums them per entry
    in linalg.vec_sum, or its entries already summed to _from_sums
    (cg_contract, from one running sum per entry).  So its memos never go
    stale: _pair_legs holds, per bracket leg end (j, x, side) with x a
    basis index, the entries of act_factor(self, j, x, side) as integer
    pairs (see _pair_leg; filled only by _memo_legs), and
    semi_invariant is is_semi_invariant() computed once.
    """

    def __init__(self, ctx, m: int, blocks: Optional[Dict] = None):
        coerce = ctx.coerce
        self.ctx = ctx
        self.m = m
        self._pair_legs: Dict[Tuple[int, int, str], List[Tuple]] = {}
        self.blocks: Dict[Key, Dict[Tuple[int, ...], object]] = _blocks_of(
            vec_sum(((tuple(tuple(w) for w in key), tuple(idx)), coerce(c))
                    for key, blk in (blocks or {}).items()
                    for idx, c in blk.items()))

    @classmethod
    def _from_terms(cls, ctx, m: int, terms) -> "BlockFunction":
        """The function of the terms ((key, idx), coefficient)."""
        return cls._from_sums(ctx, m, vec_sum(terms))

    @classmethod
    def _from_sums(cls, ctx, m: int, entries: Dict) -> "BlockFunction":
        """The function of the nonzero entries {(key, idx): coefficient},
        each key's terms already summed (by vec_sum, by cg_contract or,
        over the series ring, by kernel.series_sums)."""
        out = cls.__new__(cls)
        out.ctx, out.m, out.blocks = ctx, m, _blocks_of(entries)
        out._pair_legs = {}
        return out

    def _terms(self):
        return (((key, idx), c) for key, blk in self.blocks.items()
                for idx, c in blk.items())

    def check_compatible(self, other: "BlockFunction"):
        """Sums and products need equal arities and coefficient rings."""
        if self.m != other.m:
            raise ValueError("arity mismatch: m=%d and m=%d"
                             % (self.m, other.m))
        if self.ctx.ring != other.ctx.ring:
            raise ValueError("ring mismatch: %s and %s"
                             % (self.ctx.ring, other.ctx.ring))

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
        return BlockFunction._from_terms(self.ctx, self.m, itertools.chain(
            self._terms(), other._terms()))

    def __sub__(self, other: "BlockFunction") -> "BlockFunction":
        self.check_compatible(other)
        return BlockFunction._from_terms(self.ctx, self.m, itertools.chain(
            self._terms(), ((k, -c) for k, c in other._terms())))

    def scale(self, c) -> "BlockFunction":
        # a product of nonzero series can vanish mod hbar^K: vec_sum drops it
        c = self.ctx.coerce(c)
        return BlockFunction._from_terms(self.ctx, self.m, (
            (k, c * v) for k, v in self._terms()) if c else ())

    def weight_keys(self) -> List[Key]:
        return sorted(self.blocks)

    def is_semi_invariant(self) -> bool:
        """All vector slots sit on the highest weight line (index 0)."""
        for blk in self.blocks.values():
            for idx in blk:
                if any(idx[2 * j + 1] != 0 for j in range(self.m)):
                    return False
        return True

    @cached_property
    def semi_invariant(self) -> bool:
        """is_semi_invariant(), scanned once per function."""
        return self.is_semi_invariant()

    def hbar_coefficient(self, i: int) -> "BlockFunction":
        """Coefficient of hbar^i of a series-valued function, as a function
        over the companion classical context ctx.pw."""
        return BlockFunction._from_terms(self.ctx.pw, self.m, (
            (k, s[i]) for k, s in self._terms()))

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
    key = (tuple(lam),)
    return BlockFunction._from_terms(ctx, 1, (
        ((key, (a, b)), ctx.coerce(ca) * ctx.coerce(cb))
        for a, ca in xi.items() for b, cb in v.items()))


def hw_coefficient(ctx, lam: Weight, xi: Dict[int, object]) -> BlockFunction:
    """Phi_lam(xi): the semi-invariant coefficient with v = highest weight
    vector of V(lam)."""
    return matrix_coefficient(ctx, lam, xi, {0: 1})


def pw_tensor(fs: Sequence[BlockFunction]) -> BlockFunction:
    """Place functions side by side on G^(m_1 + m_2 + ...)."""
    ctx = fs[0].ctx
    if any(f.ctx.ring != ctx.ring for f in fs):
        raise ValueError("ring mismatch in a tensor product")

    def terms():
        for combo in itertools.product(*[f.blocks.items() for f in fs]):
            key = tuple(w for (k, _) in combo for w in k)
            for idxs in itertools.product(*[blk.items() for (_, blk) in combo]):
                idx = tuple(i for (ii, _) in idxs for i in ii)
                yield (key, idx), math.prod(c for _, c in idxs)
    return BlockFunction._from_terms(ctx, sum(f.m for f in fs), terms())


def _add_pair(acc: Dict, k, n, d) -> int:
    """Add n/d (d > 0) to the pair acc[k] = [num, den], starting it when k
    is new, and return the new numerator; den stays the lcm of the
    denominators added."""
    cur = acc.get(k)
    if cur is None:
        acc[k] = [n, d]
        return n
    cn, cd = cur
    if cd == d:
        cur[0] = cn = cn + n
    else:
        g = math.gcd(cd, d)
        cur[0] = cn = cn * (d // g) + n * (cd // g)
        cur[1] = cd // g * d
    return cn


def cg_contract(ctx, m: int, groups) -> BlockFunction:
    """The Clebsch-Gordan contraction behind every product of block
    functions and every Poisson bracket.  groups yields (lkey, rkey,
    terms), terms listing (lidx, ridx, n, d): n / d times the entry lidx
    of an m-factor block lkey times the entry ridx of an m-factor block
    rkey, multiplied factor by factor, factor j split through the CG table
    of V(lkey[j]) (x) V(rkey[j]).  (n, d) is a pair as ctx.pair makes it:
    integers over Q (in lowest terms or not), a series over 1 over
    Q[[hbar]]/(hbar^K).  The plan of a block pair, memoized per context
    (ctx._plans), holds per factor its table's option memo, the table's
    options method and dim V(rkey[j]); a pair of flat indices is read
    straight from the memo, and CGEntry.options runs only on a miss, so
    it is expanded once per table, however many terms or groups meet it.
    The pairs are multiplied and summed per entry by the rule of
    linalg.vec_sum (an entry that cancels leaves and a later term brings
    it back at the end), and each entry of the result is built once from
    its running sum, by ctx.build."""
    build, plans = ctx.build, ctx._plans
    gcd = math.gcd
    acc: Dict = {}
    get = acc.get
    for lkey, rkey, terms in groups:
        plan = plans.get((lkey, rkey))
        if plan is None:
            plan = plans[lkey, rkey] = []
            for j in range(m):
                entry = ctx.cg(lkey[j], rkey[j])
                plan.append((entry._options, entry.options,
                             ctx.irrep(rkey[j]).dim, 2 * j, 2 * j + 1))
        for lidx, ridx, n, d in terms:
            if not n:
                continue
            # the combinations of options in itertools.product order
            combos = [((), (), n, d)]
            for memo, options, dim, a, b in plan:
                flat = (lidx[a] * dim + ridx[a], lidx[b] * dim + ridx[b])
                opts = memo.get(flat)
                if opts is None:
                    opts = options(*flat)
                combos = [(key + (nu,), idx + (s, t), n * on, d * od)
                          for key, idx, n, d in combos
                          for nu, s, t, on, od in opts]
            for key, idx, n, d in combos:
                k = (key, idx)
                cur = get(k)
                if cur is None:
                    if n:
                        acc[k] = [n, d]
                    continue
                cn, cd = cur
                if cd == d:
                    cn += n
                else:
                    g = gcd(cd, d)
                    cn = cn * (d // g) + n * (cd // g)
                    cur[1] = cd // g * d
                if cn:
                    cur[0] = cn
                else:
                    del acc[k]
    return BlockFunction._from_sums(ctx, m, {
        k: build(n, d) for k, (n, d) in acc.items()})


def block_pairs(f: BlockFunction, g: BlockFunction):
    """The cg_contract groups of the product of f (left) by g (right):
    every block of f against every block of g, each pair of entries as
    ctx.pair of the product of their coefficients."""
    pair = f.ctx.pair
    for fkey, fblk in f.blocks.items():
        for gkey, gblk in g.blocks.items():
            yield fkey, gkey, [(fi, gi, *pair(fc * gc))
                               for fi, fc in fblk.items()
                               for gi, gc in gblk.items()]


def pw_multiply(f: BlockFunction, g: BlockFunction) -> BlockFunction:
    """Product in C[G^m]: blockwise tensor, then CG-decompose per factor."""
    f.check_compatible(g)
    return cg_contract(f.ctx, f.m, block_pairs(f, g))


def _sum_of_products(ctx, m: int, legs) -> BlockFunction:
    """sum of (cn / cd) * (lf lg) over legs (lf, lg, cn, cd) of compatible
    functions over a PWContext, each function given by its entries (key,
    idx, n, d) (_pair_leg), as one cg_contract pass: the terms
    c * lf[fi] * lg[gi] of every leg are summed per block pair
    (fkey, gkey) and index pair (fi, gi) first, as integer numerators and
    denominators, and those sums go into cg_contract as they are, so it
    meets each block pair once, in first-seen order, and never an index
    pair whose terms cancel, nor a block pair whose pairs all do."""
    sums: Dict[Tuple[Key, Key], Dict] = {}
    gcd = math.gcd
    for lf, lg, cn, cd in legs:
        for fkey, fi, fn, fd in lf:
            fn *= cn
            fd *= cd
            for gkey, gi, gn, gd in lg:
                acc = sums.get((fkey, gkey))
                if acc is None:
                    acc = sums[fkey, gkey] = {}
                n, d = fn * gn, fd * gd
                cur = acc.get((fi, gi))
                if cur is None:
                    acc[fi, gi] = [n, d]
                elif cur[1] == d:
                    # an index pair that cancels keeps its place
                    cur[0] += n
                else:
                    an, ad = cur
                    g = gcd(ad, d)
                    cur[0] = an * (d // g) + n * (ad // g)
                    cur[1] = ad // g * d
    return cg_contract(ctx, m, (
        (fkey, gkey, terms) for (fkey, gkey), acc in sums.items()
        if (terms := [(fi, gi, n, d)
                      for (fi, gi), (n, d) in acc.items() if n])))


# -- invariant vector fields ------------------------------------------------


def act_factor(f: BlockFunction, j: int, x, side: str) -> BlockFunction:
    """Action of an algebra element x on factor j (0-based) through
    rho(S(x)) (S(x) = -x for x in g): on the dual slot for side "left",
    x^L c_{xi,v} = c_{x.xi, v} with (x.xi)(v) = xi(S(x)v), and on the vector
    slot for side "right", x^R c_{xi,v} = c_{xi, S(x)v}.  x is a basis
    index for a PWContext and an element of U_hbar(sl2) (a one-leg
    UqTensor, such as a UqElement) for a QAffineContext."""
    return BlockFunction._from_terms(f.ctx, f.m, _act_terms(f, j, x, side))


def _act_terms(f: BlockFunction, j: int, x, side: str):
    """The terms ((key, idx), coefficient) of act_factor(f, j, x, side)."""
    ctx = f.ctx
    slot = 2 * j + (side == "right")
    for key, blk in f.blocks.items():
        lines = ctx.slot_action(key[j], x, side)
        for idx, v in blk.items():
            for s, a in lines[idx[slot]].items():
                yield (key, idx[:slot] + (s,) + idx[slot + 1:]), v * a


def _pair_leg(f: BlockFunction, j: int, x: int, side: str) -> List[Tuple]:
    """act_factor(f, j, x, side) for f over a PWContext and x a basis
    index, as its entries (key, idx, n, d) in the order of its blocks:
    the lines of ctx.slot_action, read as integer pairs, times the
    coefficients of f, summed per entry by the rule of linalg.vec_sum, n /
    d the entry (not in lowest terms).  The bracket leg form that
    classical_bracket memoizes on f (f._pair_legs)."""
    ctx = f.ctx
    slot = 2 * j + (side == "right")
    out: List[Tuple] = []
    for key, blk in f.blocks.items():
        lines = ctx.slot_action(key[j], x, side)
        acc: Dict = {}
        for idx, v in blk.items():
            vn, vd = v.numerator, v.denominator
            head, tail = idx[:slot], idx[slot + 1:]
            for s, a in lines[idx[slot]].items():
                k = head + (s,) + tail
                if not _add_pair(acc, k, vn * a.numerator,
                                 vd * a.denominator):
                    del acc[k]
        out.extend((key, k, n, d) for k, (n, d) in acc.items())
    return out


# -- Poisson brackets -------------------------------------------------------


class BracketSpec:
    """Selects {,}_{r_st}^{(m)} on C[G^m] ("product") or the mixed bracket
    {,}^{(m)} on C[N\\G]^(x)m ("mixed")."""

    def __init__(self, ctx: PWContext, m: int, kind: str = "product"):
        if kind not in ("product", "mixed"):
            raise ValueError(kind)
        if ctx.ring != PWContext.ring:
            raise ValueError("ring mismatch: a bracket spec needs a "
                             "PWContext, not %s" % ctx.ring)
        self.ctx = ctx
        self.m = m
        self.kind = kind
        alg = ctx.alg
        self.st = StandardR(alg)
        # legs: ((j, x, side), (j', x', side'), n, d), one per product
        # c (x on factor j of f) (x' on factor j' of g) that {f, g} sums,
        # every sign folded into c = n / d; each end is read through the
        # leg memo of its function (see classical_bracket)
        self.legs = []
        d = alg.dim
        if kind == "product":
            self.bivector = self._lambda_m(alg, m)
            for (u, w), c in self.bivector.data.items():
                (ju, bu), (jw, bw) = divmod(u, d), divmod(w, d)
                n, dc = c.numerator, c.denominator
                self.legs.append(((ju, bu, "left"), (jw, bw, "left"), n, dc))
                self.legs.append(((ju, bu, "right"), (jw, bw, "right"), -n,
                                  dc))
        else:
            # slots below dim(g) of each (g (+) t) component act as y^L,
            # the Cartan slots as -x^R
            self.bivector = self._mixed_bivector(alg, m)
            for (u, w), c in self.bivector.items():
                ends = []
                for i in (u, w):
                    j, bi = divmod(i, d + alg.rank)
                    if bi < d:
                        ends.append((j, bi, "left"))
                    else:
                        ends.append((j, bi - d, "right"))
                        c = -c
                self.legs.append((ends[0], ends[1], c.numerator,
                                  c.denominator))

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
        d = alg.dim
        dt = d + alg.rank
        # Mix^m(r~_st) with r~ = (r_st, 0) - (0, r_0)
        rtilde = itertools.chain(self.st.r.data.items(), (
            ((d + a, d + b), -c) for (a, b), c in self.st.r0.data.items()))

        def terms():
            for j in range(m):
                for (a, b), c in self.st.lam.data.items():
                    yield (j * dt + a, j * dt + b), c
            for (a, b), c in rtilde:
                for kk in range(m):
                    for ll in range(kk + 1, m):
                        yk, xl = kk * dt + b, ll * dt + a
                        yield (yk, xl), -c
                        yield (xl, yk), c
        return vec_sum(terms())


def classical_bracket(f: BlockFunction, g: BlockFunction, spec: BracketSpec) -> BlockFunction:
    """{f, g} for the bivector of spec: the legs (a(f), b(g), c) of its
    terms c a (x) b (spec.legs), summed in one cg_contract pass by
    _sum_of_products, each end read through the memo of f or g
    (_memo_legs), so a function bracketed many times acts with each basis
    element once."""
    if f.m != spec.m or g.m != spec.m:
        raise ValueError("bracket spec arity mismatch")
    for h in (f, g):
        if h.ctx.ring != spec.ctx.ring:
            raise ValueError("ring mismatch: %s and %s"
                             % (h.ctx.ring, spec.ctx.ring))
    if spec.kind == "mixed" and not (f.semi_invariant and g.semi_invariant):
        raise ValueError("mixed bracket requires semi-invariant inputs")
    return _sum_of_products(spec.ctx, spec.m, _memo_legs(f, g, spec.legs))


def _memo_legs(f: BlockFunction, g: BlockFunction, ends) -> List[Tuple]:
    """The legs (a(f), b(g), n, d) of the leg ends (a, b, n, d), each side
    the entry list of _pair_leg read through the memo of f or g
    (_pair_legs); b(g) is read only when a(f) is nonzero, and a leg with
    a zero side is dropped."""
    fmemo, gmemo = f._pair_legs, g._pair_legs
    legs = []
    for a, b, n, d in ends:
        lf = fmemo.get(a)
        if lf is None:
            lf = fmemo[a] = _pair_leg(f, *a)
        if lf:
            lg = gmemo.get(b)
            if lg is None:
                lg = gmemo[b] = _pair_leg(g, *b)
            if lg:
                legs.append((lf, lg, n, d))
    return legs


# -- oracles for the bracket checks -----------------------------------------


def _diag_act(f: BlockFunction, idx: int) -> BlockFunction:
    """Diagonal left-invariant action of one basis element on every factor."""
    return BlockFunction._from_terms(f.ctx, f.m, (
        t for j in range(f.m) for t in _act_terms(f, j, idx, "left")))


def _rho_tensor(t: LieTensor, f: BlockFunction, g: BlockFunction):
    """rho(t)(f (x) g) = sum over terms a(x)b of (rho(a)f)(rho(b)g) for the
    diagonal action rho(a) = sum_j (a on factor j), in one cg_contract
    pass over the legs (j, a, "left") of f and (k, b, "left") of g for
    every pair of factors j, k, read through the leg memos (_memo_legs)."""
    return _sum_of_products(f.ctx, f.m, _memo_legs(f, g, [
        ((j, a, "left"), (k, b, "left"), c.numerator, c.denominator)
        for (a, b), c in t.data.items()
        for j in range(f.m) for k in range(g.m)]))


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
    rows = _transposed(rep.cols[basis_idx])
    return vec_sum((s, -c * x) for a, c in xi.items()
                   for s, x in rows[a].items())


def hw_bracket_oracle(ctx: PWContext, st: StandardR, w: int, l: int,
                      xi: Dict[int, Fraction],
                      mu: Dict[int, Fraction]) -> BlockFunction:
    """Independent value of the bracket of two highest-weight coefficients:
    apply the standard bivector to xi (x) mu inside V(w) (x) V(l), project
    onto the top Clebsch-Gordan summand V(w+l), and read the result off as
    a single highest-weight coefficient."""
    rw, rl = ctx.irrep((w,)), ctx.irrep((l,))
    legs = [(c, _dual_act_vec(rw, a, xi), _dual_act_vec(rl, b, mu))
            for (a, b), c in st.lam.data.items()]
    flat = vec_sum((i * rl.dim + j, c * ci * cj) for c, axi, bmu in legs
                   for i, ci in axi.items() for j, cj in bmu.items())
    cg = ctx.cg((w,), (l,))
    inj, proj = cg.cartan()
    dnu = len(inj[0])
    key = ((w + l,),)
    ics = [sum((inj[fl][s] * c for fl, c in flat.items()), Fraction(0))
           for s in range(dnu)]
    # proj[t][0] is the image of the pair of highest vectors
    return BlockFunction._from_terms(ctx, 1, (
        ((key, (s, t)), ic * proj[t][0])
        for s, ic in enumerate(ics) if ic for t in range(dnu)))
