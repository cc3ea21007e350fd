"""A reference echelon span with a coefficient-tracking mode: beside every
row it carries the row's combination of the inserted generators through
every reduce, place and back-substitution, and coefficients() returns the
combination for a vector in the span.  The identity-block coordinates of
linalg.EchelonSpan, its rows, and the builders that read coordinates are
checked against it."""

from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Set, Tuple

from qaffine.kernel import TruncatedSeries
from qaffine.linalg import Vec, vec_add, vec_scale


class TrackedSpan:
    """Reduced echelon span of sparse vectors over Q or over
    Q[[hbar]]/(hbar^K), read off the entries, with optional coefficient
    tracking against the originally inserted generators.  The pivot of a
    row is its pivot(...) key: min (the default) or max, which gives the
    echelon complement of the reversed key order.  A row's pivot entry is
    1, or hbar^v for a series row; a row with v > 0 keeps
    hbar^(K - v) * row in the span of the rows past its pivot."""

    def __init__(self, track: bool = False, pivot=min):
        self.rows: Dict[Hashable, Vec] = {}  # pivot key -> row
        self.track = track
        self.pivot = pivot
        self.history: Dict[Hashable, Vec] = {}  # pivot -> combo of gen index
        self._ngens = 0
        self._dim = 0  # over Q: sum of K - v, one per row over Q
        self._vals: Dict[Hashable, int] = {}  # pivot -> v, for v > 0
        # key -> pivots of the other rows holding it (a pivot key is held
        # by its own row only, unless some row has v > 0)
        self._holders: Dict[Hashable, Set[Hashable]] = {}

    def __len__(self):
        return self._dim

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after reduction; does not modify the span."""
        return self._reduce_tracked(v, False)[0]

    def _reduce_tracked(self, v: Vec, track: bool) -> Tuple[Vec, Vec]:
        """Residual of v and, when tracking, the combination of inserted
        generators that was subtracted.  Keys are settled in pivot order;
        a row of pivot entry hbar^w clears the part at or above hbar^w."""
        pivot, rows, vals = self.pivot, self.rows, self._vals
        v = dict(v)
        combo: Vec = {}
        out: Vec = {}
        while v:
            k = pivot(v)
            row = rows.get(k)
            if row is not None:
                c = v[k].shift(-vals[k]) if k in vals else v[k]
                if c:
                    v = vec_add(v, row, -c)
                    if track:
                        combo = vec_add(combo, self.history[k], c)
                    continue
            out[k] = v.pop(k)
        return out, combo

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def add(self, v: Vec) -> bool:
        """Insert v into the span as the next generator.  Returns True if
        the rank grew: the residual of v becomes a new row, and the
        vectors its placing unsettles are reduced and placed in turn."""
        res, combo = self._reduce_tracked(v, self.track)
        gen_idx = self._ngens
        self._ngens += 1
        if not res:
            return False
        hist = (vec_add(vec_scale(combo, Fraction(-1)), {gen_idx: Fraction(1)})
                if self.track else None)
        todo: List[Tuple[Vec, Optional[Vec]]] = []
        self._place(res, hist, todo)
        while todo:
            v, hist = todo.pop()
            res, combo = self._reduce_tracked(v, self.track)
            if res:
                if self.track:
                    hist = vec_add(hist, combo, Fraction(-1))
                self._place(res, hist, todo)
        return True

    def _place(self, res: Vec, hist: Optional[Vec], todo: List) -> None:
        """Make the reduced vector res (a combination hist of generators)
        a row with pivot entry 1 or hbar^w, and back-substitute it into
        the rows that hold its pivot.  The row whose pivot it takes and,
        for w > 0, hbar^(K - w) * row go onto todo."""
        p = self.pivot(res)
        e = res[p]
        if type(e) is TruncatedSeries:
            w = e.valuation()
            unit = e.shift(-w)
            size, scale = e.order - w, None if unit == 1 else unit.inv()
        else:
            w, size, scale = 0, 1, None if e == 1 else Fraction(1) / e
        row = res
        if scale is not None:  # a pivot entry 1 or hbar^w needs no scaling
            row = vec_scale(res, scale)
            if self.track:
                hist = vec_scale(hist, scale)
        rows, holders, vals = self.rows, self._holders, self._vals
        if p in rows:  # a row of higher valuation, to be placed again
            old = rows.pop(p)
            self._dim -= old[p].order - vals.pop(p)
            for k in old:
                if k != p:
                    holders[k].discard(p)
            todo.append((old, self.history.pop(p, None)))
        if w:
            vals[p] = w
            h = TruncatedSeries.hbar(e.order, size)
            todo.append((vec_scale(row, h),
                         vec_scale(hist, h) if self.track else None))
        row, hist = self._settled(p, row, hist)
        for k in row:
            if k != p:
                holders.setdefault(k, set()).add(p)
        rows[p] = row
        if self.track:
            self.history[p] = hist
        self._dim += size
        # back-substitute into the rows that hold p, to stay fully reduced
        for piv in holders.pop(p, ()):
            r = rows[piv]
            coef = r[p].shift(-w) if w else r[p]
            if not coef:  # only a part below hbar^w, which stays
                holders.setdefault(p, set()).add(piv)
                continue
            new, h = self._settled(piv, vec_add(r, row, -coef), vec_add(
                self.history[piv], hist, -coef) if self.track else None)
            rows[piv] = new
            if self.track:
                self.history[piv] = h
            for k in (r.keys() | new.keys()) if vals else row:
                if k in new:
                    if k != piv:
                        holders.setdefault(k, set()).add(piv)
                elif k != p:
                    holders[k].discard(piv)

    def _settled(self, p: Hashable, row: Vec,
                 hist: Optional[Vec]) -> Tuple[Vec, Optional[Vec]]:
        """The row at p, with its other entries reduced again if one keeps
        a part at or above the pivot entry hbar^v of its key's row, as
        scaling by a unit that is not constant or subtracting a series
        multiple of a row can leave."""
        vals = self._vals
        if not (vals and any(k in vals and k != p and row[k].shift(-vals[k])
                             for k in row)):
            return row, hist
        tail, combo = self._reduce_tracked(
            {k: x for k, x in row.items() if k != p}, self.track)
        if self.track:
            hist = vec_add(hist, combo, Fraction(-1))
        return {p: row[p], **tail}, hist

    def coefficients(self, v: Vec) -> Optional[Vec]:
        """Express v as a combination of the inserted generators, or None.

        Requires track=True.  Returns {generator index: coefficient}.
        """
        if not self.track:
            raise ValueError("span was not built with coefficient tracking")
        res, combo = self._reduce_tracked(v, True)
        return None if res else combo

    def basis(self) -> List[Vec]:
        return [self.rows[p] for p in sorted(self.rows,
                                             reverse=self.pivot is max)]

    def equals(self, other: "TrackedSpan") -> bool:
        return self.rows == other.rows
