"""Exact linear algebra over Q: sparse echelon spans and dense matrices.

Vectors are dicts mapping hashable, totally ordered coordinate keys to
nonzero Fractions.  Echelon spans keep a reduced row echelon basis with a
deterministic pivot order (the smallest key, or the largest one), so
subspace equality and membership are canonical.  mat_inv also inverts
over Q[[hbar]]/(hbar^K).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Tuple

Vec = Dict[Hashable, Fraction]


def vec_add(a: Vec, b: Vec, scale: Fraction = Fraction(1)) -> Vec:
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, Fraction(0)) + scale * v
        if nv == 0:
            out.pop(k, None)
        else:
            out[k] = nv
    return out


def vec_scale(a: Vec, c: Fraction) -> Vec:
    if c == 0:
        return {}
    return {k: c * v for k, v in a.items()}


class EchelonSpan:
    """Reduced echelon span of sparse vectors with optional coefficient
    tracking against the originally inserted generators.  The pivot of a
    row is its pivot(...) key: min (the default) or max, which gives the
    echelon complement of the reversed key order."""

    def __init__(self, track: bool = False, pivot=min):
        self.rows: Dict[Hashable, Vec] = {}  # pivot key -> row (pivot coeff 1)
        self.track = track
        self.pivot = pivot
        self.history: Dict[Hashable, Vec] = {}  # pivot -> combo of gen index
        self._ngens = 0

    def __len__(self):
        return len(self.rows)

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after reduction; does not modify the span."""
        res, _ = self._reduce_tracked(v, False)
        return res

    def _reduce_tracked(self, v: Vec, track: bool) -> Tuple[Vec, Vec]:
        """Residual of v and, when tracking, the combination of inserted
        generators that was subtracted."""
        pivot = self.pivot
        v = dict(v)
        combo: Vec = {}
        while v:
            k = pivot(v)
            row = self.rows.get(k)
            if row is None:
                break
            c = v[k]
            v = vec_add(v, row, -c)
            if track:
                combo = vec_add(combo, self.history[k], c)
        if not v:
            return {}, combo
        # keys below the smallest remaining pivot are settled; sweep the rest
        out: Vec = {}
        while v:
            k = pivot(v)
            row = self.rows.get(k)
            if row is None:
                out[k] = v.pop(k)
            else:
                c = v[k]
                v = vec_add(v, row, -c)
                if track:
                    combo = vec_add(combo, self.history[k], c)
        return out, combo

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def add(self, v: Vec) -> bool:
        """Insert v into the span.  Returns True if the rank grew."""
        gen_idx = self._ngens
        self._ngens += 1
        res, combo = self._reduce_tracked(v, self.track)
        if not res:
            return False
        p = self.pivot(res)
        c = res[p]
        row = vec_scale(res, Fraction(1) / c)
        if self.track:
            hist = vec_add(vec_scale(combo, Fraction(-1)), {gen_idx: Fraction(1)})
            hist = vec_scale(hist, Fraction(1) / c)
        # back-substitute into existing rows to stay fully reduced
        for piv, r in list(self.rows.items()):
            if p in r:
                coef = r[p]
                self.rows[piv] = vec_add(r, row, -coef)
                if self.track:
                    self.history[piv] = vec_add(self.history[piv], hist, -coef)
        self.rows[p] = row
        if self.track:
            self.history[p] = hist
        return True

    def coefficients(self, v: Vec) -> Optional[Vec]:
        """Express v as a combination of the inserted generators, or None.

        Requires track=True.  Returns {generator index: coefficient}.
        """
        if not self.track:
            raise ValueError("span was not built with coefficient tracking")
        res, combo = self._reduce_tracked(v, True)
        if res:
            return None
        return combo

    def basis(self) -> List[Vec]:
        return [self.rows[p] for p in sorted(self.rows,
                                             reverse=self.pivot is max)]

    def equals(self, other: "EchelonSpan") -> bool:
        if set(self.rows) != set(other.rows):
            return False
        return all(self.rows[p] == other.rows[p] for p in self.rows)


# -- dense matrices over Fraction -------------------------------------

Matrix = List[List[Fraction]]


def mat_zero(m: int, n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(m)]


def mat_identity(n: int) -> Matrix:
    out = mat_zero(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    m, k, n = len(a), len(b), len(b[0])
    out = mat_zero(m, n)
    for i in range(m):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c == 0:
                continue
            bt = b[t]
            for j in range(n):
                if bt[j] != 0:
                    oi[j] += c * bt[j]
    return out


def mat_inv(a: Matrix, one=Fraction(1), is_unit=bool) -> Matrix:
    """Inverse by Gauss-Jordan; raises ValueError if singular.

    Over Q by default.  Over Q[[hbar]]/(hbar^K) pass the unit series as
    one and a test for a nonzero constant term as is_unit: a matrix over
    that local ring is invertible iff it is invertible mod hbar, and its
    pivots must be units."""
    n = len(a)
    zero = one - one
    aug = [list(row) + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if is_unit(aug[r][col])), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = one / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def rref(a: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and pivot column list."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pc = m[r][c]
        m[r] = [x / pc for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                coef = m[i][c]
                m[i] = [x - coef * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(a: Matrix) -> List[List[Fraction]]:
    """Basis of the right kernel, deterministic (free vars in order)."""
    if not a:
        return []
    red, pivots = rref(a)
    cols = len(a[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def solve(a: Matrix, b: List[Fraction]) -> Optional[List[Fraction]]:
    """One solution of a x = b with free variables set to 0, or None."""
    if not a:
        return [] if all(x == 0 for x in b) else None
    aug = [list(row) + [bb] for row, bb in zip(a, b)]
    red, pivots = rref(aug)
    cols = len(a[0])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, p in enumerate(pivots):
        x[p] = red[r][cols]
    return x
