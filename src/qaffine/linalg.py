"""Exact linear algebra over Q and Q[[hbar]]/(hbar^K): sparse echelon
spans and dense matrices.

Vectors are dicts mapping hashable, totally ordered coordinate keys to
nonzero entries, Fractions or TruncatedSeries of one order K.  vec_sum
adds a stream of (key, entry) terms per key; the block functions of cgx
and the Lie tensors of liebialg are built through it.  Echelon spans keep
a reduced echelon basis with a deterministic pivot order (the smallest
key, or the largest one), so subspace equality and membership are
canonical.  Over the series ring a row's pivot entry is hbar^v (the
Howell form of the module): a row clears only the part of an entry at or
above hbar^v, and len() counts the Q-dimension sum (K - v).  This one
echelon engine, with one reduce, place and back-substitute path, does all
elimination over either ring, and three readers take their answers off
an identity block in it: sparse_nullspace reads kernels off the span of
[columns | identity], mat_inv reads an inverse off the span of [rows |
identity], and a span made by EchelonSpan.with_coordinates() reads the
coordinates of a vector over the inserts that grew it off [inserts |
identity].  Representations act by sparse columns (cgx.Rep).  The dense
rref, solve and nullspace serve no engine path; they stay in this module
because the tests check the sparse routines against them and
perfbench/spans.py hooks them, with mat_inv, by name.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple, Union

from .kernel import TruncatedSeries

Vec = Dict[Hashable, Union[Fraction, TruncatedSeries]]


def vec_sum(terms: Iterable[Tuple[Hashable, object]]) -> Vec:
    """The terms (key, entry) summed per key, over Q or Q[[hbar]]/(hbar^K).
    A key whose running sum cancels leaves the dict, and a later term
    brings it back at the end, so the keys come out in the order that
    adding the terms one by one gives them (as kernel.series_sums does)."""
    out: Vec = {}
    get = out.get
    for k, v in terms:
        cur = get(k)
        if cur is None:
            if v:
                out[k] = v
        elif (s := cur + v):
            out[k] = s
        else:
            del out[k]
    return out


def vec_add(a: Vec, b: Vec, scale: Fraction = Fraction(1)) -> Vec:
    out = dict(a)
    for k, v in b.items():
        old = out.get(k)
        nv = scale * v if old is None else old + scale * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def vec_scale(a: Vec, c: Fraction) -> Vec:
    """c * a, without the entries a non-unit series c kills."""
    if not c:
        return {}
    return {k: x for k, v in a.items() if (x := c * v)}


class EchelonSpan:
    """Reduced echelon span of sparse vectors over Q or over
    Q[[hbar]]/(hbar^K), read off the entries.  The pivot of a row is its
    pivot(...) key: min (the default) or max, which gives the echelon
    complement of the reversed key order.  A row's pivot entry is 1, or
    hbar^v for a series row; a row with v > 0 keeps hbar^(K - v) * row in
    the span of the rows past its pivot.  A span made by with_coordinates()
    holds [v | e_i] for the i-th insert v that grew it (data keys (0, k),
    identity keys (1, i) under min and (-1, i) under max, which settle
    after every data key), and coefficients() reads off that identity
    block.  Only a residual that keeps a data key becomes a row."""

    def __init__(self, pivot=min):
        self.rows: Dict[Hashable, Vec] = {}  # pivot key -> row
        self.pivot = pivot
        self._dim = 0  # over Q: sum of K - v, one per row over Q
        self._vals: Dict[Hashable, int] = {}  # pivot -> v, for v > 0
        # key -> pivots of the other rows holding it (a pivot key is held
        # by its own row only, unless some row has v > 0)
        self._holders: Dict[Hashable, Set[Hashable]] = {}
        self._grown: Optional[int] = None  # grown inserts, with coordinates

    @classmethod
    def with_coordinates(cls, pivot=min) -> "EchelonSpan":
        span = cls(pivot)
        span._grown = 0
        return span

    def __len__(self):
        return self._dim

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after reduction; does not modify the span."""
        if self._grown is None:
            return self._reduce(v)
        return self.coefficients(v)[0]

    def _reduce(self, v: Vec) -> Vec:
        """Residual of v, keys settled in pivot order; a row of pivot
        entry hbar^w clears the part at or above hbar^w."""
        pivot, rows, vals = self.pivot, self.rows, self._vals
        v = dict(v)
        out: Vec = {}
        while v:
            k = pivot(v)
            row = rows.get(k)
            if row is not None:
                c = v[k].shift(-vals[k]) if k in vals else v[k]
                if c:
                    v = vec_add(v, row, -c)
                    continue
            out[k] = v.pop(k)
        return out

    def _grows(self, res: Vec) -> bool:
        """Does the reduced vector res keep a data key?"""
        return bool(res) and (self._grown is None or not self.pivot(res)[0])

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def add(self, v: Vec) -> bool:
        """Insert v into the span.  Returns True if the rank grew: the
        residual of v (with e_i, given coordinates) becomes a new row, and
        the vectors its placing unsettles are reduced and placed in turn."""
        i = self._grown
        res = self._reduce(
            v if i is None else {(0, k): x for k, x in v.items()})
        if not self._grows(res):
            return False
        if i is not None:
            e = next(iter(res.values()))
            res[(1 if self.pivot is min else -1, i)] = (
                TruncatedSeries.one(e.order) if type(e) is TruncatedSeries
                else Fraction(1))
            self._grown = i + 1
        todo: List[Vec] = []
        self._place(res, todo)
        while todo:
            res = self._reduce(todo.pop())
            if self._grows(res):
                self._place(res, todo)
        return True

    def _place(self, res: Vec, todo: List[Vec]) -> None:
        """Make the reduced vector res a row with pivot entry 1 or hbar^w,
        and back-substitute it into the rows that hold its pivot.  The row
        whose pivot it takes and, for w > 0, hbar^(K - w) * row go onto
        todo."""
        p = self.pivot(res)
        e = res[p]
        if type(e) is TruncatedSeries:
            w = e.valuation()
            unit = e.shift(-w)
            size, scale = e.order - w, None if unit == 1 else unit.inv()
        else:
            w, size, scale = 0, 1, None if e == 1 else Fraction(1) / e
        # a pivot entry 1 or hbar^w needs no scaling
        row = res if scale is None else vec_scale(res, scale)
        rows, holders, vals = self.rows, self._holders, self._vals
        if p in rows:  # a row of higher valuation, to be placed again
            old = rows.pop(p)
            self._dim -= old[p].order - vals.pop(p)
            for k in old:
                if k != p:
                    holders[k].discard(p)
            todo.append(old)
        if w:
            vals[p] = w
            todo.append(vec_scale(row, TruncatedSeries.hbar(e.order, size)))
        row = self._settled(p, row)
        for k in row:
            if k != p:
                holders.setdefault(k, set()).add(p)
        rows[p] = row
        self._dim += size
        # back-substitute into the rows that hold p, to stay fully reduced
        for piv in holders.pop(p, ()):
            r = rows[piv]
            coef = r[p].shift(-w) if w else r[p]
            if not coef:  # only a part below hbar^w, which stays
                holders.setdefault(p, set()).add(piv)
                continue
            new = rows[piv] = self._settled(piv, vec_add(r, row, -coef))
            for k in (r.keys() | new.keys()) if vals else row:
                if k in new:
                    if k != piv:
                        holders.setdefault(k, set()).add(piv)
                elif k != p:
                    holders[k].discard(piv)

    def _settled(self, p: Hashable, row: Vec) -> Vec:
        """The row at p, with its other entries reduced again if one keeps
        a part at or above the pivot entry hbar^v of its key's row, as
        scaling by a unit that is not constant or subtracting a series
        multiple of a row can leave."""
        vals = self._vals
        if not (vals and any(k in vals and k != p and row[k].shift(-vals[k])
                             for k in row)):
            return row
        return {p: row[p],
                **self._reduce({k: x for k, x in row.items() if k != p})}

    def coefficients(self, v: Vec) -> Tuple[Vec, Vec]:
        """The reduction of [v | 0] split into the residual of v and the
        coordinates i -> c of the rest: v - residual is the sum of c times
        the i-th insert that grew the span.  Needs with_coordinates()."""
        if self._grown is None:
            raise ValueError("span was not made with coordinates")
        res = self._reduce({(0, k): x for k, x in v.items()})
        return ({k: x for (t, k), x in res.items() if not t},
                {k: -x for (t, k), x in res.items() if t})

    def basis(self) -> List[Vec]:
        return [self.rows[p] for p in sorted(self.rows,
                                             reverse=self.pivot is max)]

    def equals(self, other: "EchelonSpan") -> bool:
        return self.rows == other.rows


def sparse_nullspace(cols: List[Vec], one=Fraction(1)) -> List[Vec]:
    """Generators of the right kernel of the matrix with these sparse
    columns, keyed by column index, over Q or, with one the unit series,
    over Q[[hbar]]/(hbar^K).  The Howell rows of [cols | identity] are kept
    in an echelon span whose identity keys sort below every
    column key and in column order, so a kernel row pivots on its largest
    column.  The rows whose pivot lies in the identity block are returned
    in pivot order; over Q they are the free-variable basis of a dense
    rref."""
    span = EchelonSpan(pivot=max)
    for f, col in enumerate(cols):
        row = {(1, k): x for k, x in col.items()}
        row[(0, f)] = one
        span.add(row)
    return [{f: x for (_, f), x in sorted(span.rows[p].items())}
            for p in sorted(p for p in span.rows if not p[0])]


# -- dense matrices over Fraction -------------------------------------

Matrix = List[List[Fraction]]


def mat_inv(a: Matrix, one=Fraction(1)) -> Matrix:
    """Inverse over Q or, with one the unit series, over Q[[hbar]]/(hbar^K);
    raises ValueError if singular.  The rows [a_i | e_i] go into one
    echelon span whose a-keys sort below the identity keys, so a row
    pivoting on column j of a is [e_j | row j of the inverse].  The matrix
    is singular when fewer than n rows pivot on a's columns, or when a
    pivot entry is hbar^v with v > 0 (not invertible mod hbar)."""
    n = len(a)
    span = EchelonSpan()
    for i, row in enumerate(a):
        v = {(0, j): x for j, x in enumerate(row) if x}
        v[(1, i)] = one
        span.add(v)
    rows = [span.rows.get((0, j)) for j in range(n)]
    if any(r is None or r[(0, j)] != one for j, r in enumerate(rows)):
        raise ValueError("singular matrix")
    zero = one - one
    return [[r.get((1, i), zero) for i in range(n)] for r in rows]


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
    cols = len(a[0])
    sparse = [{i: row[j] for i, row in enumerate(a) if row[j]}
              for j in range(cols)]
    return [[kv.get(j, Fraction(0)) for j in range(cols)]
            for kv in sparse_nullspace(sparse)]


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
