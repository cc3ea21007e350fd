"""Semisimple Lie algebra data and exact tensor calculus.

Builds sl(n) in a Chevalley-style basis realized by elementary matrices in
the defining representation, with an invariant form <X,Y> = s*tr(XY).
Negative root vectors are rescaled so that <e_beta, e_-beta> = 1 for every
positive root and any scaling s.  Structure constants are derived from
matrix commutators and validated (antisymmetry, Jacobi, form invariance)
at construction.

Tensor conventions used everywhere downstream:
  * a wedge b = a(x)b - b(x)a (no 1/2),
  * r_0 = (1/2) * canonical element of the inverse Gram matrix on the
    Cartan subalgebra,
  * the twisting residual of t is the Yang-Baxter defect of r - t, split
    as a cobracket part (linear in t) plus half the Schouten square
    [t,t] = 2*([t12,t13]+[t12,t23]+[t13,t23]).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import EchelonSpan, Matrix, mat_inv

Weight = Tuple[int, ...]  # fundamental-weight coordinates


class LieAlgebraError(ValueError):
    pass


def require_arity(t: "LieTensor", arity: int, what: str = "tensor"):
    """Reject a tensor of the wrong arity; unlike an assert, this also
    holds under ``python -O``."""
    if t.arity != arity:
        raise LieAlgebraError("%s must have arity %d, got %d"
                              % (what, arity, t.arity))


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class LieAlgebra:
    """A Lie algebra with a fixed ordered basis and exact structure data.

    Basis order: Cartan elements h_1..h_k first, then for each positive
    root beta (height-then-position order) the raising vector e_beta,
    then the lowering vectors e_-beta in the same root order.
    """

    def __init__(
        self,
        name: str,
        labels: List[str],
        structure: Dict[Tuple[int, int], Dict[int, Fraction]],
        gram: Matrix,
        rank: int = 0,
        positive_roots: Optional[List[Weight]] = None,
        cartan_matrix: Optional[List[List[int]]] = None,
        validate: bool = True,
    ):
        self.name = name
        self.labels = labels
        self.dim = len(labels)
        self.rank = rank
        self.structure = structure
        self.gram = gram
        self.positive_roots = positive_roots or []
        self.cartan_matrix = cartan_matrix
        self._gram_t_inv: Optional[Matrix] = None
        if rank:
            gt = [row[:rank] for row in gram[:rank]]
            try:
                self._gram_t_inv = mat_inv(gt)
            except ValueError:
                raise LieAlgebraError("invariant form degenerate on the Cartan")
        if validate:
            self._validate()

    # index layout helpers
    def raise_index(self, b: int) -> int:
        return self.rank + b

    def lower_index(self, b: int) -> int:
        return self.rank + len(self.positive_roots) + b

    @property
    def n_pos(self) -> int:
        return len(self.positive_roots)

    def bracket_basis(self, i: int, j: int) -> Dict[int, Fraction]:
        if i == j:
            return {}
        if (i, j) in self.structure:
            return self.structure[(i, j)]
        rev = self.structure.get((j, i), {})
        return {k: -v for k, v in rev.items()}

    def bracket(self, x: Dict[int, Fraction], y: Dict[int, Fraction]) -> Dict[int, Fraction]:
        out: Dict[int, Fraction] = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for k, c in self.bracket_basis(i, j).items():
                    nv = out.get(k, Fraction(0)) + ci * cj * c
                    if nv == 0:
                        out.pop(k, None)
                    else:
                        out[k] = nv
        return out

    def form(self, i: int, j: int) -> Fraction:
        return self.gram[i][j]

    def r0_pairing(self, mu: Sequence, lam: Sequence) -> Fraction:
        """<mu (x) lam, r_0> for weights in fundamental coordinates."""
        if self._gram_t_inv is None:
            raise LieAlgebraError("no Cartan data")
        k = self.rank
        total = Fraction(0)
        for a in range(k):
            ma = _frac(mu[a])
            if ma == 0:
                continue
            for b in range(k):
                lb = _frac(lam[b])
                if lb != 0:
                    total += ma * self._gram_t_inv[a][b] * lb
        return total / 2

    def simple_root(self, i: int) -> Weight:
        """alpha_i in fundamental coordinates (a column of the Cartan matrix)."""
        if self.cartan_matrix is None:
            raise LieAlgebraError("algebra has no Cartan matrix")
        return tuple(self.cartan_matrix[j][i] for j in range(self.rank))

    # -- validation ----------------------------------------------------

    def _validate(self):
        """Antisymmetry, Jacobi, invariance of the form, and
        <e_beta, e_-beta> = 1, each summed over nonzero entries only."""
        n = self.dim
        for (i, j), bij in self.structure.items():
            bji = self.structure.get((j, i))
            if i != j and bji is not None \
                    and {k: -v for k, v in bij.items()} != bji:
                raise LieAlgebraError("structure constants not antisymmetric")
        # ad[x][y] = [x, y], for the nonzero brackets only
        ad: List[Dict[int, Dict[int, Fraction]]] = [{} for _ in range(n)]
        for (i, j), val in self.structure.items():
            if i != j and val:
                ad[i][j] = val
                ad[j][i] = {k: -v for k, v in val.items()}
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc: Dict[int, Fraction] = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for l, cl in ad[b].get(c, {}).items():
                            for m, cm in ad[a].get(l, {}).items():
                                acc[m] = acc.get(m, 0) + cl * cm
                    if any(acc.values()):
                        raise LieAlgebraError("Jacobi identity fails")
        # <[x,y],z> + <y,[x,z]> over the nonzero entries of the form: row l
        # gives the <l, z> of the first term, column l the <y, l> of the
        # second, so a form that is not symmetric is read as it is
        rows = [[(z, g) for z, g in enumerate(self.gram[l]) if g]
                for l in range(n)]
        cols: List[List[Tuple[int, Fraction]]] = [[] for _ in range(n)]
        for y in range(n):
            for l, g in rows[y]:
                cols[l].append((y, g))
        for x in range(n):
            s: Dict[Tuple[int, int], Fraction] = {}
            for y, bxy in ad[x].items():
                for l, c in bxy.items():
                    for z, g in rows[l]:
                        s[(y, z)] = s.get((y, z), 0) + c * g
            for z, bxz in ad[x].items():
                for l, c in bxz.items():
                    for y, g in cols[l]:
                        s[(y, z)] = s.get((y, z), 0) + c * g
            if any(s.values()):
                raise LieAlgebraError("invariant form fails invariance")
        for b in range(self.n_pos):
            if self.gram[self.raise_index(b)][self.lower_index(b)] != 1:
                raise LieAlgebraError("<e_beta, e_-beta> != 1")

    # -- direct powers ---------------------------------------------------

    def power(self, m: int) -> "LieAlgebra":
        """Direct sum g^m with block-diagonal structure constants and form.

        No root data; tensor calculus and coisotropy checks only.
        """
        if m == 1:
            return self
        labels = [
            "%s[%d]" % (lab, j) for j in range(1, m + 1) for lab in self.labels
        ]
        structure: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        d = self.dim
        for (i, j), val in self.structure.items():
            for blk in range(m):
                structure[(blk * d + i, blk * d + j)] = {
                    blk * d + k: v for k, v in val.items()
                }
        gram = [[Fraction(0)] * (d * m) for _ in range(d * m)]
        for blk in range(m):
            for i in range(d):
                for j in range(d):
                    gram[blk * d + i][blk * d + j] = self.gram[i][j]
        return LieAlgebra(
            "%s^%d" % (self.name, m), labels, structure, gram, rank=0, validate=False
        )


def _sl_matrices(n: int, scale: Fraction):
    """Basis matrices of sl(n): coroots, then E_ij (i<j), then E_ji/scale,
    each as its nonzero entries {(row, col): value}."""
    k = n - 1
    pos_pairs = sorted(
        ((i, j) for i in range(n) for j in range(i + 1, n)),
        key=lambda p: (p[1] - p[0], p[0]),
    )
    entries: List[Dict[Tuple[int, int], Fraction]] = []
    labels = []
    for i in range(k):
        entries.append({(i, i): Fraction(1), (i + 1, i + 1): Fraction(-1)})
        labels.append("h%d" % (i + 1))
    for (i, j) in pos_pairs:
        entries.append({(i, j): Fraction(1)})
        labels.append("e[%d%d]" % (i + 1, j + 1))
    lower = Fraction(1) / scale
    for (i, j) in pos_pairs:
        entries.append({(j, i): lower})
        labels.append("f[%d%d]" % (i + 1, j + 1))
    return entries, labels, pos_pairs


def build_sl(n: int, scale=1) -> LieAlgebra:
    """sl(n) with invariant form <X,Y> = scale * tr(XY).

    Every product of basis matrices is taken over their nonzero entries
    only: a basis matrix has at most two."""
    try:
        size = _frac(n)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        size = None
    if size is None or size.denominator != 1 or size < 2:
        raise LieAlgebraError("sl(n) needs an integer n >= 2, got %r" % (n,))
    n = int(size)
    try:
        scale = _frac(scale)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise LieAlgebraError("bad form scaling %r" % (scale,)) from None
    if scale <= 0:
        raise LieAlgebraError("form scaling must be positive")
    entries, labels, pos_pairs = _sl_matrices(n, scale)
    k = n - 1
    n_pos = len(pos_pairs)
    dim = len(entries)
    # an off-diagonal position -> (coordinate order, basis index, factor);
    # the order lists e_beta before e_-beta, root by root
    slot: Dict[Tuple[int, int], Tuple[int, int, Fraction]] = {}
    for idx, (i, j) in enumerate(pos_pairs):
        slot[(i, j)] = (2 * idx, k + idx, Fraction(1))
        slot[(j, i)] = (2 * idx + 1, k + n_pos + idx, scale)

    def commutator(a, b) -> Dict[Tuple[int, int], Fraction]:
        # AB pairs A[i][t] with B[t][j]; BA pairs B[u][i] with A[i][t]
        out: Dict[Tuple[int, int], Fraction] = {}
        for (i, t), x in entries[a].items():
            for (u, j), y in entries[b].items():
                if t == u:
                    out[(i, j)] = out.get((i, j), 0) + x * y
                if j == i:
                    out[(u, t)] = out.get((u, t), 0) - y * x
        return out

    def decompose(m) -> Dict[int, Fraction]:
        off = []
        diag: Dict[int, Fraction] = {}
        for (i, j), c in m.items():
            if c == 0:
                continue
            if i == j:
                diag[i] = c
            else:
                order, idx, factor = slot[(i, j)]
                off.append((order, idx, c * factor))
        off.sort()
        out = {idx: c for _, idx, c in off}
        run = Fraction(0)
        for i in range(k):
            run += diag.get(i, 0)
            if run != 0:
                out[i] = run
        return out

    structure: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            val = decompose(commutator(i, j))
            if val:
                structure[(i, j)] = val
    # tr(X_a X_b) pairs entry (i, t) of X_a with entry (t, i) of X_b
    at: Dict[Tuple[int, int], List[Tuple[int, Fraction]]] = {}
    for b, ent in enumerate(entries):
        for pos, c in ent.items():
            at.setdefault(pos, []).append((b, c))
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    for a, ent in enumerate(entries):
        tr: Dict[int, Fraction] = {}
        for (i, t), x in ent.items():
            for b, y in at.get((t, i), ()):
                tr[b] = tr.get(b, 0) + x * y
        for b, c in tr.items():
            gram[a][b] = scale * c
    cartan = [
        [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(k)]
        for i in range(k)
    ]
    pos_roots: List[Weight] = []
    for (i, j) in pos_pairs:
        root = [0] * k
        for t in range(i, j):  # alpha_{i+1} + ... + alpha_j
            for a in range(k):
                root[a] += cartan[a][t]
        pos_roots.append(tuple(root))
    alg = LieAlgebra(
        "sl%d" % n, labels, structure, gram,
        rank=k, positive_roots=pos_roots, cartan_matrix=cartan,
    )
    mats = []
    for ent in entries:
        m = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), c in ent.items():
            m[i][j] = c
        mats.append(m)
    alg.defining_matrices = mats
    return alg


def load_algebra(spec: Dict) -> LieAlgebra:
    """Build an algebra from a declarative description.

    Keys: "type" ("sl"), "n" (matrix size, an integer or its string),
    optional "form_scale" (rational string or number).
    """
    if spec.get("type", "sl") != "sl":
        raise LieAlgebraError("unsupported algebra type %r" % spec.get("type"))
    if "n" not in spec:
        raise LieAlgebraError("algebra spec has no n")
    return build_sl(spec["n"], spec.get("form_scale", 1))


# -- sparse tensors ----------------------------------------------------


class LieTensor:
    """Sparse exact element of g^(x)k over a fixed algebra."""

    __slots__ = ("alg", "arity", "data")

    def __init__(self, alg: LieAlgebra, arity: int, data: Optional[Dict] = None):
        self.alg = alg
        self.arity = arity
        self.data: Dict[Tuple[int, ...], Fraction] = {}
        if data:
            for key, val in data.items():
                v = _frac(val)
                if v != 0:
                    self.data[tuple(key)] = v

    def copy(self) -> "LieTensor":
        t = LieTensor(self.alg, self.arity)
        t.data = dict(self.data)
        return t

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        return (
            isinstance(other, LieTensor)
            and self.arity == other.arity
            and self.data == other.data
        )

    def __hash__(self):
        raise TypeError("unhashable")

    def add_term(self, key: Tuple[int, ...], coeff: Fraction):
        nv = self.data.get(key, Fraction(0)) + coeff
        if nv == 0:
            self.data.pop(key, None)
        else:
            self.data[key] = nv

    def __add__(self, other: "LieTensor") -> "LieTensor":
        require_arity(other, self.arity, "summand")
        out = self.copy()
        for k, v in other.data.items():
            out.add_term(k, v)
        return out

    def __sub__(self, other: "LieTensor") -> "LieTensor":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "LieTensor":
        c = _frac(c)
        return LieTensor(self.alg, self.arity, {k: c * v for k, v in self.data.items()})

    def swap(self, perm: Sequence[int]) -> "LieTensor":
        """Permute legs: result[key] = self[key o perm]."""
        out = LieTensor(self.alg, self.arity)
        for key, v in self.data.items():
            out.add_term(tuple(key[p] for p in perm), v)
        return out

    def transpose(self) -> "LieTensor":
        require_arity(self, 2)
        return self.swap((1, 0))

    def symmetric_part(self) -> "LieTensor":
        return (self + self.transpose()).scale(Fraction(1, 2))

    def antisymmetric_part(self) -> "LieTensor":
        return (self - self.transpose()).scale(Fraction(1, 2))

    def as_vector(self) -> Dict[Tuple[int, ...], Fraction]:
        return dict(self.data)

    def __repr__(self):
        labels = self.alg.labels
        parts = []
        for key in sorted(self.data):
            parts.append(
                "%s*%s" % (self.data[key], "(x)".join(labels[i] for i in key))
            )
        return " + ".join(parts) if parts else "0"


def basis_tensor(alg: LieAlgebra, idx: int) -> LieTensor:
    return LieTensor(alg, 1, {(idx,): Fraction(1)})


def wedge(alg: LieAlgebra, a: int, b: int, coeff=1) -> LieTensor:
    """coeff * (a wedge b) = coeff*(a(x)b - b(x)a)."""
    c = _frac(coeff)
    t = LieTensor(alg, 2)
    t.add_term((a, b), c)
    t.add_term((b, a), -c)
    return t


def _bracket_legs(alg: LieAlgebra, r: LieTensor, s: LieTensor, mode: str) -> LieTensor:
    """[r_12, s_13], [r_12, s_23] or [r_13, s_23] inside g^(x)3."""
    out = LieTensor(alg, 3)
    for (a, b), cr in r.data.items():
        for (c, d), cs in s.data.items():
            coeff = cr * cs
            if mode == "12,13":
                for l, cl in alg.bracket_basis(a, c).items():
                    out.add_term((l, b, d), coeff * cl)
            elif mode == "12,23":
                for l, cl in alg.bracket_basis(b, c).items():
                    out.add_term((a, l, d), coeff * cl)
            elif mode == "13,23":
                for l, cl in alg.bracket_basis(b, d).items():
                    out.add_term((a, c, l), coeff * cl)
            else:
                raise ValueError(mode)
    return out


def cybe_lhs(r: LieTensor, s: Optional[LieTensor] = None) -> LieTensor:
    """[r12,s13] + [r12,s23] + [r13,s23]; with s = r this is the CYBE side."""
    if s is None:
        s = r
    alg = r.alg
    return (
        _bracket_legs(alg, r, s, "12,13")
        + _bracket_legs(alg, r, s, "12,23")
        + _bracket_legs(alg, r, s, "13,23")
    )


def cybe_residual(r: LieTensor) -> LieTensor:
    require_arity(r, 2, "r")
    return cybe_lhs(r)


def cobracket(r: LieTensor, x: LieTensor) -> LieTensor:
    """delta_r(x) = [x(x)1 + 1(x)x, r]."""
    require_arity(r, 2, "r")
    require_arity(x, 1, "x")
    alg = r.alg
    out = LieTensor(alg, 2)
    for (a,), cx in x.data.items():
        for (u, v), cr in r.data.items():
            coeff = cx * cr
            for l, cl in alg.bracket_basis(a, u).items():
                out.add_term((l, v), coeff * cl)
            for l, cl in alg.bracket_basis(a, v).items():
                out.add_term((u, l), coeff * cl)
    return out


def _ad2(alg: LieAlgebra, x_idx: int, t: LieTensor) -> LieTensor:
    """Diagonal adjoint action of basis element x_idx on an arity-2 tensor."""
    out = LieTensor(alg, 2)
    for (a, b), c in t.data.items():
        for k, cc in alg.bracket_basis(x_idx, a).items():
            out.add_term((k, b), c * cc)
        for k, cc in alg.bracket_basis(x_idx, b).items():
            out.add_term((a, k), c * cc)
    return out


def adjoint_invariance_residual(t: LieTensor) -> List[LieTensor]:
    """[x(x)1+1(x)x, t] for every basis x; all zero iff t is g-invariant."""
    alg = t.alg
    return [cobracket(t, basis_tensor(alg, i)) for i in range(alg.dim)]


# -- standard r-matrix --------------------------------------------------


class StandardR:
    """r_st together with its pieces r_0, Lambda_st, and the auxiliary
    r-matrix on g (+) t used for the mixed bracket."""

    def __init__(self, alg: LieAlgebra):
        if not alg.rank:
            raise LieAlgebraError("standard r-matrix needs root data")
        self.alg = alg
        k = alg.rank
        inv = alg._gram_t_inv
        r0 = LieTensor(alg, 2)
        for a in range(k):
            for b in range(k):
                if inv[a][b] != 0:
                    r0.add_term((a, b), inv[a][b] / 2)
        self.r0 = r0
        r = r0.copy()
        lam = LieTensor(alg, 2)
        for bidx in range(alg.n_pos):
            e = alg.raise_index(bidx)
            f = alg.lower_index(bidx)
            r.add_term((f, e), Fraction(1))
            lam = lam + wedge(alg, f, e, Fraction(1, 2))
        self.r = r
        self.lam = lam  # Lambda_st = (1/2) sum e_-a wedge e_a


def standard_r(alg: LieAlgebra) -> StandardR:
    return StandardR(alg)


# -- twisted m-fold products ---------------------------------------------


def embed_index(alg: LieAlgebra, idx: int, j: int) -> int:
    """Index of (x)_j inside g^m (j is 0-based)."""
    return j * alg.dim + idx


def embed_tensor(t: LieTensor, alg_m: LieAlgebra, legs: Sequence[int]) -> LieTensor:
    """Embed t in g^m by sending tensor leg p into component legs[p]."""
    alg = t.alg
    out = LieTensor(alg_m, t.arity)
    for key, v in t.data.items():
        out.add_term(tuple(embed_index(alg, i, j) for i, j in zip(key, legs)), v)
    return out


def mix_tensor(r: LieTensor, m: int, alg_m: Optional[LieAlgebra] = None) -> LieTensor:
    """Mix^m(r) = sum_{k<l} sum_i (y_i)_k wedge (x_i)_l for r = sum x_i(x)y_i."""
    require_arity(r, 2, "r")
    alg = r.alg
    if alg_m is None:
        alg_m = alg.power(m)
    out = LieTensor(alg_m, 2)
    for (a, b), c in r.data.items():  # term c * a(x)b: x = a, y = b
        for k in range(m):
            for l in range(k + 1, m):
                yk = embed_index(alg, b, k)
                xl = embed_index(alg, a, l)
                out.add_term((yk, xl), c)
                out.add_term((xl, yk), -c)
    return out


def diagonal_r(r: LieTensor, m: int, alg_m: Optional[LieAlgebra] = None) -> LieTensor:
    """(r, ..., r) in g^m (x) g^m."""
    alg = r.alg
    if alg_m is None:
        alg_m = alg.power(m)
    out = LieTensor(alg_m, 2)
    for j in range(m):
        out = out + embed_tensor(r, alg_m, (j, j))
    return out


def twisted_r(r: LieTensor, m: int, alg_m: Optional[LieAlgebra] = None) -> LieTensor:
    """r^(m) = (r, ..., r) - Mix^m(r)."""
    alg = r.alg
    if alg_m is None:
        alg_m = alg.power(m)
    return diagonal_r(r, m, alg_m) - mix_tensor(r, m, alg_m)


def diag_embedding(x: LieTensor, m: int, alg_m: LieAlgebra) -> LieTensor:
    """diag_m(x) for arity-1 x, or (diag (x) diag)(t) for arity-2 t."""
    alg = x.alg
    out = LieTensor(alg_m, x.arity)
    if x.arity == 1:
        for (a,), c in x.data.items():
            for j in range(m):
                out.add_term((embed_index(alg, a, j),), c)
        return out
    if x.arity == 2:
        for (a, b), c in x.data.items():
            for j1 in range(m):
                for j2 in range(m):
                    out.add_term(
                        (embed_index(alg, a, j1), embed_index(alg, b, j2)), c
                    )
        return out
    raise ValueError("arity must be 1 or 2")


# -- twisting elements ----------------------------------------------------


def schouten_square(t: LieTensor) -> LieTensor:
    """[t,t] on wedge^2 g, normalized so that the twist equation reads
    delta(t) + (1/2)[t,t] = 0; equals 2*cybe_lhs(t) for antisymmetric t."""
    return cybe_lhs(t).scale(2)


def cobracket_extension(t: LieTensor, r: LieTensor) -> LieTensor:
    """delta_r applied to t in wedge^2 g, landing in g^(x)3.

    Computed as the t-linear part of the Yang-Baxter defect of r - t, with
    the sign fixed so that Mix^m(r_st) is a twisting element (the residual
    delta(t) + (1/2)[t,t] vanishes); see verify_twisting_element.
    """
    mixed = (
        cybe_lhs(r, t) + cybe_lhs(t, r)
    )
    return mixed.scale(-1)


def verify_twisting_element(t: LieTensor, r: LieTensor) -> Tuple[bool, LieTensor]:
    """Check delta_r(t) + (1/2)[t,t] = 0 for antisymmetric t.

    The residual equals cybe_residual(r - t) - cybe_residual(r), the
    Yang-Baxter defect created by twisting r by t.
    """
    require_arity(t, 2, "t")
    if not (t + t.transpose()).is_zero():
        raise LieAlgebraError("twisting element must be antisymmetric")
    residual = cobracket_extension(t, r) + schouten_square(t).scale(Fraction(1, 2))
    return residual.is_zero(), residual


# -- subspaces and coisotropy ----------------------------------------------


class Subspace:
    """Span of arity-1 tensors in canonical reduced echelon form."""

    def __init__(self, alg: LieAlgebra, vectors: Iterable[LieTensor] = ()):
        self.alg = alg
        self.span = EchelonSpan()
        for v in vectors:
            require_arity(v, 1, "spanning vector")
            self.span.add({k[0]: c for k, c in v.data.items()})

    @staticmethod
    def from_indices(alg: LieAlgebra, indices: Iterable[int]) -> "Subspace":
        return Subspace(alg, [basis_tensor(alg, i) for i in indices])

    def basis_vectors(self) -> List[Dict[int, Fraction]]:
        return self.span.basis()

    def contains(self, v: Dict[int, Fraction]) -> bool:
        return self.span.contains(v)

    def dim(self) -> int:
        return len(self.span)

    def is_subalgebra(self) -> bool:
        for x in self.basis_vectors():
            for y in self.basis_vectors():
                if not self.contains(self.alg.bracket(x, y)):
                    return False
        return True

    def derived(self) -> "Subspace":
        """[u, u] as a subspace (linear span of brackets of basis vectors)."""
        out = Subspace(self.alg)
        for x in self.basis_vectors():
            for y in self.basis_vectors():
                b = self.alg.bracket(x, y)
                if b:
                    out.span.add(b)
        return out


def _two_sided_span(alg: LieAlgebra, left: Optional[Subspace], right: Optional[Subspace]) -> EchelonSpan:
    """Echelon span of g(x)W + V(x)g for W = right, V = left (None = skip)."""
    span = EchelonSpan()
    for sub, side in ((right, "right"), (left, "left")):
        if sub is None:
            continue
        for w in sub.basis_vectors():
            for i in range(alg.dim):
                if side == "right":
                    span.add({(i, k): c for k, c in w.items()})
                else:
                    span.add({(k, i): c for k, c in w.items()})
    return span


def strongly_coisotropic_lie(u: Subspace, r: LieTensor) -> Dict[str, bool]:
    """Test coisotropy and strong coisotropy of u in (g, delta_r)."""
    alg = r.alg
    if not u.is_subalgebra():
        raise LieAlgebraError("u is not closed under the bracket")
    uu = u.derived()
    strong_span = _two_sided_span(alg, uu, uu)
    cois_span = _two_sided_span(alg, u, u)
    strongly = True
    coisotropic = True
    for x in u.basis_vectors():
        xt = LieTensor(alg, 1, {(k,): c for k, c in x.items()})
        d = cobracket(r, xt)
        vec = d.as_vector()
        if not strong_span.contains(vec):
            strongly = False
        if not cois_span.contains(vec):
            coisotropic = False
    return {"strongly": strongly, "coisotropic": coisotropic}


def r_membership_lie(u: Subspace, r: LieTensor) -> bool:
    """r in u(x)u + g(x)[u,u] + [u,u](x)g (echelon membership)."""
    alg = r.alg
    uu = u.derived()
    span = _two_sided_span(alg, uu, uu)
    for x in u.basis_vectors():
        for y in u.basis_vectors():
            vec = {}
            for a, ca in x.items():
                for b, cb in y.items():
                    vec[(a, b)] = ca * cb
            span.add(vec)
    return span.contains(r.as_vector())
