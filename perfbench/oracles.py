"""Output checks made apart from the program.

Each check either recomputes a value with the benchmark's own Fraction
arithmetic or tests a property the mathematics forces; none compares with
a stored copy of earlier output.  Every function returns a list of problem
descriptions, empty when the check passes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

Matrix = List[List[Fraction]]


# -- Fraction matrices ----------------------------------------------------------


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = len(b[0]) if b else 0
    return [[sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(cols)] for row in a]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c) -> Matrix:
    return [[x * c for x in row] for row in a]


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


# -- classical-sl2 ----------------------------------------------------------------


def sl2_irrep_problems(n: int, weights: Sequence[Tuple[int, ...]],
                       h: Matrix, e: Matrix, f: Matrix) -> List[str]:
    """V(n) has dimension n+1, weights n, n-2, ..., -n (H diagonal with
    those entries) and [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    out = []
    dim = n + 1
    if len(weights) != dim or len(h) != dim:
        return ["V(%d): dimension %d, expected %d" % (n, len(weights), dim)]
    want = [n - 2 * i for i in range(dim)]
    if sorted((w[0] for w in weights), reverse=True) != want:
        out.append("V(%d): weights %s" % (n, [w[0] for w in weights]))
    for i in range(dim):
        for j in range(dim):
            expect = Fraction(weights[i][0]) if i == j else Fraction(0)
            if h[i][j] != expect:
                out.append("V(%d): H is not diag(weights)" % n)
                break
        else:
            continue
        break
    if commutator(e, f) != h:
        out.append("V(%d): [e,f] != h" % n)
    if commutator(h, e) != mat_scale(e, 2):
        out.append("V(%d): [h,e] != 2e" % n)
    if commutator(h, f) != mat_scale(f, -2):
        out.append("V(%d): [h,f] != -2f" % n)
    return out


def clebsch_gordan_problems(a: int, b: int,
                            summands: Iterable[Tuple[Tuple[int, ...], Matrix, Matrix]]
                            ) -> List[str]:
    """V(a)(x)V(b) = V(a+b) + V(a+b-2) + ... + V(|a-b|), each summand with
    projection o injection = identity."""
    out = []
    summands = list(summands)
    got = sorted((nu[0] for nu, _, _ in summands), reverse=True)
    want = list(range(a + b, abs(a - b) - 1, -2))
    if got != want:
        out.append("V(%d)(x)V(%d) splits as %s, expected %s" % (a, b, got, want))
    for nu, inj, proj in summands:
        if mat_mul(proj, inj) != identity(nu[0] + 1):
            out.append("V(%d)(x)V(%d): projection o injection != 1 on V(%d)"
                       % (a, b, nu[0]))
    return out


# -- quantum-k4 ---------------------------------------------------------------------


def q_integer_expansion(n: int, order: int) -> List[Fraction]:
    """Coefficients of [n]_q = sum_{i=-n+1, step 2}^{n-1} e^{i hbar/2} in
    Q[hbar]/(hbar^order): the hbar^k coefficient is sum_i (i/2)^k / k!."""
    out = []
    fact = 1
    for k in range(order):
        if k:
            fact *= k
        s = sum((Fraction(i, 2) ** k for i in range(-n + 1, n, 2)), Fraction(0))
        out.append(s / fact)
    return out


# -- coiso-k3 -----------------------------------------------------------------------


def borel_window_rank(order: int, degree_bound: int) -> int:
    """Q-rank of the Borel window: one hbar-shifted copy per truncation order
    of each monomial H^b E^c with b + c <= d."""
    d = degree_bound
    return order * (d + 1) * (d + 2) // 2


# -- compute-oneshot ----------------------------------------------------------------


def lie_terms(js: Dict) -> Dict[Tuple[int, ...], Fraction]:
    return {tuple(key): Fraction(c) for key, c in js["terms"]
            if Fraction(c) != 0}


def antisymmetry_problems(terms: Dict[Tuple[int, int], Fraction]) -> List[str]:
    for (a, b), c in terms.items():
        if terms.get((b, a), Fraction(0)) != -c:
            return ["not antisymmetric at (%d,%d)" % (a, b)]
    return []


def pw_values(js: Dict) -> Dict[Tuple[str, Tuple[int, ...]], Fraction]:
    """A classical block function's JSON as {(block, index): value}."""
    out = {}
    for name, entries in js["blocks"].items():
        for e in entries:
            c = Fraction(e[-1])
            if c:
                out[(name, tuple(e[:-1]))] = c
    return out


def q_values(js: Dict, k: int) -> Dict[Tuple[str, Tuple[int, ...]], Fraction]:
    """The hbar^k coefficient of a quantized block function's JSON."""
    out = {}
    for name, entries in js["blocks"].items():
        for e in entries:
            c = Fraction(e[-1][k])
            if c:
                out[(name, tuple(e[:-1]))] = c
    return out


def _diff(a: Dict, b: Dict) -> Dict:
    out = dict(a)
    for key, v in b.items():
        nv = out.get(key, Fraction(0)) - v
        if nv:
            out[key] = nv
        else:
            out.pop(key, None)
    return out


def bracket_group_problems(b_fg: Dict, b_gf: Dict, q_fg: Dict,
                           q_gf: Dict) -> List[str]:
    """For one pair of specs f, g: {f,g} = -{g,f}; fg = gf mod hbar; and the
    hbar^1 coefficient of fg - gf is {f,g}."""
    out = []
    bfg, bgf = pw_values(b_fg), pw_values(b_gf)
    if _diff(bfg, {k: -v for k, v in bgf.items()}):
        out.append("bracket not antisymmetric")
    if _diff(q_values(q_fg, 0), q_values(q_gf, 0)):
        out.append("qmultiply not commutative mod hbar")
    if _diff(_diff(q_values(q_fg, 1), q_values(q_gf, 1)), bfg):
        out.append("hbar^1 of the commutator differs from the bracket")
    return out


def twist_problems(js: Dict, m: int, order: int) -> List[str]:
    """Twi^m(R) lives on 2m legs at the asked order and is 1 mod hbar; for
    m = 1 it is the empty product, 1 (x) 1."""
    if js["legs"] != 2 * m or js["order"] != order:
        return ["legs %d / order %d" % (js["legs"], js["order"])]
    unit = [[0, 0, 0]] * (2 * m)
    mod_hbar = {}
    for monos, coeffs in js["terms"]:
        c0 = Fraction(coeffs[0])
        if c0:
            mod_hbar[str(monos)] = c0
    if mod_hbar != {str(unit): Fraction(1)}:
        return ["not 1 mod hbar"]
    if m == 1 and len(js["terms"]) != 1:
        return ["Twi^1 is not 1 (x) 1"]
    return []


def coiso_consistency_problems(answers: Dict[str, List[Tuple[str, str]]]
                               ) -> List[str]:
    """Windows over the same generator set must not give contradicting
    conclusive answers: {letters as a set: [(strong, membership), ...]}."""
    out = []
    for letters, pairs in sorted(answers.items()):
        for i, name in enumerate(("strong_coiso", "r_membership")):
            seen = {p[i] for p in pairs} - {"inconclusive"}
            if len(seen) > 1:
                out.append("%s on %s: %s" % (name, letters, sorted(seen)))
    return out
