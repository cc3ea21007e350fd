"""Command-line driver: configure the engine, run verification suites,
compute individual brackets/products, and emit machine-readable reports.

The report format is versioned JSON; with a fixed configuration the
output is byte-identical across runs (wall-clock timings are only
included when explicitly requested, since they would break that
guarantee).

Exit codes: 0 = all checks pass (inconclusive results do not fail a
run), 1 = at least one check failed, 2 = configuration error, 3 = at
least one check raised an unexpected exception (recorded with status
"error"; the report is still written).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

SCHEMA = "qaffine-report/3"
STATUSES = ("pass", "fail", "inconclusive", "error")

_SUITES = ("classical", "quantum", "coiso")
_ALGEBRAS = {"sl2": 2, "sl3": 3}  # name -> n of sl_n


class ConfigError(ValueError):
    pass


class RunConfig:
    """Validated run configuration.  A fixed configuration (including
    the seed) produces a byte-identical report.  The signature holds every
    default; the command-line flags are the only way to change one."""

    def __init__(self, algebra: str = "sl2", hbar_order: int = 3,
                 degree_bound: int = 4, seed: int = 0, scale: str = "1",
                 suites: Optional[Sequence[str]] = None,
                 timings: bool = False):
        if algebra not in _ALGEBRAS:
            raise ConfigError("unknown algebra %r (expected %s)"
                              % (algebra, " or ".join(_ALGEBRAS)))
        if not 2 <= hbar_order <= 6:
            raise ConfigError("hbar-order must be in 2..6")
        if degree_bound < 1:
            raise ConfigError("bounds must be positive")
        scale = str(scale)
        try:
            form_scale = Fraction(scale)
        except (ValueError, ZeroDivisionError):
            raise ConfigError("bad form scaling %r" % (scale,))
        if form_scale <= 0:
            raise ConfigError("form scaling must be positive")
        # the quantum and coiso suites build sl2 with its unscaled form
        unscaled_sl2 = algebra == "sl2" and form_scale == 1
        if suites is None:
            suites = _SUITES if unscaled_sl2 else ("classical",)
        for s in suites:
            if s not in _SUITES:
                raise ConfigError("unknown suite %r" % (s,))
        if not unscaled_sl2 and set(suites) & {"quantum", "coiso"}:
            raise ConfigError(
                "the quantum and coiso suites run at desk scale for sl2 only"
                if algebra != "sl2" else
                "the quantum and coiso suites run at form scaling 1 only")
        self.algebra = algebra
        self.hbar_order = hbar_order
        self.degree_bound = degree_bound
        self.seed = seed
        self.scale = scale
        self.suites = tuple(suites)
        self.timings = timings

    def to_json(self) -> Dict:
        return {
            "algebra": self.algebra,
            "hbar_order": self.hbar_order,
            "degree_bound": self.degree_bound,
            "seed": self.seed,
            "scale": self.scale,
            "suites": list(self.suites),
        }


class Report:
    """Per-check records, assembled deterministically (sorted by id)."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.checks: List[Dict] = []
        self._timings: Dict[str, float] = {}

    def record(self, check_id: str, description: str, status: str,
               residual: str, witness=None, wall: float = 0.0):
        if status not in STATUSES:
            raise ValueError("unknown check status %r" % (status,))
        self.checks.append({
            "id": check_id,
            "description": description,
            "status": status,
            "residual": residual,
            "witness": witness,
        })
        self._timings[check_id] = wall

    @property
    def failed(self) -> bool:
        return any(c["status"] == "fail" for c in self.checks)

    @property
    def errored(self) -> bool:
        return any(c["status"] == "error" for c in self.checks)

    def to_json(self) -> Dict:
        checks = sorted(self.checks, key=lambda c: c["id"])
        out = {
            "schema": SCHEMA,
            "config": self.config.to_json(),
            "checks": checks,
            "summary": dict(
                total=len(checks),
                **{st: sum(c["status"] == st for c in checks)
                   for st in STATUSES}),
        }
        if self.config.timings:
            out["timings_ms"] = {
                k: round(v * 1000.0, 1)
                for k, v in sorted(self._timings.items())
            }
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"


def _run_check(report: Report, check_id: str, description: str,
               fn: Callable[[], Tuple[bool, str, object]]):
    from .cgx import DimensionBoundError

    t0 = time.monotonic()
    try:
        ok, residual, witness = fn()
        status = "pass" if ok else "fail"
    except DimensionBoundError as e:  # resource bound, not a refutation
        status, residual, witness = "inconclusive", "bound exceeded", str(e)
    except Exception as e:  # a fault of the engine, not of the identity
        status, residual = "error", "exception raised"
        witness = "%s: %s" % (type(e).__name__, e)
    report.record(check_id, description, status, residual, witness,
                  time.monotonic() - t0)


# -- classical suite ----------------------------------------------------------


def _suite_classical(cfg: RunConfig, report: Report):
    from .liebialg import (
        LieTensor, Subspace, _ad2, basis_tensor, build_sl, cobracket,
        cybe_residual, diagonal_r, mix_tensor, r_membership_lie, standard_r,
        strongly_coisotropic_lie, twisted_r, verify_twisting_element,
    )
    from .cgx import (
        BracketSpec, PWContext, classical_bracket, hw_bracket_oracle,
        hw_coefficient, matrix_coefficient, poisson_action_residual,
        pw_multiply, pw_tensor,
    )

    alg = build_sl(_ALGEBRAS[cfg.algebra], Fraction(cfg.scale))
    st = standard_r(alg)

    def cybe():
        res = cybe_residual(st.r)
        if not res.is_zero():
            return False, "%d terms" % len(res.data), "r_st"
        if cfg.algebra == "sl2":
            for m in (2, 3):
                res = cybe_residual(twisted_r(st.r, m))
                if not res.is_zero():
                    return False, "%d terms" % len(res.data), "r^(%d)" % m
        return True, "0", None

    _run_check(report, "classical.cybe",
               "classical Yang-Baxter equation for the standard and twisted "
               "r-matrices", cybe)

    def cobr():
        deltas = [cobracket(st.r, basis_tensor(alg, i))
                  for i in range(alg.dim)]
        for i, dx in enumerate(deltas):
            if not (dx + dx.transpose()).is_zero():
                return False, "antisymmetry", alg.labels[i]
        for i in range(alg.dim):
            for j in range(alg.dim):
                bij = alg.bracket_basis(i, j)
                lhs = cobracket(
                    st.r, LieTensor(alg, 1, {(k,): c for k, c in bij.items()}))
                rhs = _ad2(alg, i, deltas[j]) - _ad2(alg, j, deltas[i])
                if not (lhs - rhs).is_zero():
                    return False, "cocycle", \
                        "(%s,%s)" % (alg.labels[i], alg.labels[j])
        return True, "0", None

    _run_check(report, "classical.cobracket",
               "antisymmetry and cocycle identity of the standard cobracket",
               cobr)

    def twisting():
        for m in (2, 3):
            t = mix_tensor(st.r, m)
            ok, res = verify_twisting_element(t, diagonal_r(st.r, m, t.alg))
            if not ok:
                return False, "%d terms" % len(res.data), "m=%d" % m
        return True, "0", None

    _run_check(report, "classical.twisting",
               "the mixed tensor is a twisting element of the direct product",
               twisting)

    def coisotropy():
        borel = Subspace.from_indices(
            alg, list(range(alg.rank))
            + [alg.raise_index(b) for b in range(alg.n_pos)])
        res = strongly_coisotropic_lie(borel, st.r)
        if not (res["strongly"] and res["coisotropic"]):
            return False, "borel", str(res)
        if not r_membership_lie(borel, st.r):
            return False, "borel r-membership", None
        if cfg.algebra != "sl2":
            return True, "0", None
        span_f = Subspace.from_indices(alg, [alg.lower_index(0)])
        res = strongly_coisotropic_lie(span_f, st.r)
        if res["strongly"] or not res["coisotropic"]:
            return False, "span(f)", str(res)
        r2 = twisted_r(st.r, 2)
        borel2 = Subspace.from_indices(
            r2.alg, [0, alg.raise_index(0),
                     alg.dim, alg.dim + alg.raise_index(0)])
        res = strongly_coisotropic_lie(borel2, r2)
        if not res["strongly"]:
            return False, "borel^2", str(res)
        return True, "0", None

    _run_check(report, "classical.coisotropy",
               "strong coisotropy of the Borel and its square; the opposite "
               "nilpotent line is coisotropic but not strongly", coisotropy)

    if cfg.algebra != "sl2":
        return  # function-algebra checks run at desk scale on sl2

    ctx = PWContext(alg)
    spec1 = BracketSpec(ctx, 1, "product")

    def projection():
        for w in (1, 2):
            for l in (1, 2):
                for a in range(w + 1):
                    for b in range(l + 1):
                        f = hw_coefficient(ctx, (w,), {a: Fraction(1)})
                        g = hw_coefficient(ctx, (l,), {b: Fraction(1)})
                        got = classical_bracket(f, g, spec1)
                        oracle = hw_bracket_oracle(
                            ctx, spec1.st, w, l,
                            {a: Fraction(1)}, {b: Fraction(1)})
                        if got != oracle:
                            return False, "mismatch", \
                                "(%d,%d,%d,%d)" % (w, l, a, b)
                        if not got.is_zero() and \
                                got.weight_keys() != [((w + l,),)]:
                            return False, "off-block", \
                                "(%d,%d,%d,%d)" % (w, l, a, b)
        return True, "0", None

    _run_check(report, "classical.projection",
               "brackets of highest-weight coefficients factor through the "
               "top Clebsch-Gordan projection", projection)

    spec2p = BracketSpec(ctx, 2, "product")
    spec2m = BracketSpec(ctx, 2, "mixed")
    gens1 = [hw_coefficient(ctx, (1,), {a: Fraction(1)}) for a in range(2)]
    gens2 = [hw_coefficient(ctx, (2,), {a: Fraction(1)}) for a in range(3)]
    pairs2 = [pw_tensor([f, g])
              for f in gens1 + gens2 for g in gens1 + gens2]
    mixed2 = {}

    def mixed_bracket2(a: int, b: int):
        """{pairs2[a], pairs2[b]} for the mixed spec, computed on first
        use and shared by agreement and grading."""
        if (a, b) not in mixed2:
            mixed2[a, b] = classical_bracket(pairs2[a], pairs2[b], spec2m)
        return mixed2[a, b]

    def agreement():
        for a, f in enumerate(pairs2):
            for b, g in enumerate(pairs2):
                if classical_bracket(f, g, spec2p) != mixed_bracket2(a, b):
                    return False, "mismatch", \
                        str(f.weight_keys() + g.weight_keys())
        return True, "0", None

    _run_check(report, "classical.bracket-agreement",
               "ambient and intrinsic brackets agree on semi-invariants of "
               "the twisted square", agreement)

    def poisson_action():
        f1 = matrix_coefficient(ctx, (1,), {0: Fraction(1)}, {1: Fraction(1)})
        g1 = matrix_coefficient(ctx, (2,), {1: Fraction(1)}, {0: Fraction(1)})
        res = poisson_action_residual(spec1, f1, g1)
        if res is not None:
            return False, "%d blocks" % len(res.blocks), "m=1"
        res = poisson_action_residual(
            spec1, pw_multiply(gens1[0], gens1[1]), gens2[0])
        if res is not None:
            return False, "%d blocks" % len(res.blocks), "m=1 products"
        F = pw_tensor([gens1[0], gens2[1]])
        G = pw_tensor([gens2[0], gens1[1]])
        res = poisson_action_residual(spec2m, F, G)
        if res is not None:
            return False, "%d blocks" % len(res.blocks), "m=2"
        return True, "0", None

    _run_check(report, "classical.poisson-action",
               "the diagonal left action is a Poisson action on the twisted "
               "product", poisson_action)

    def grading():
        for a, f in enumerate(pairs2):
            fk = f.weight_keys()[0]
            for b, g in enumerate(pairs2):
                gk = g.weight_keys()[0]
                want = tuple((fk[j][0] + gk[j][0],) for j in range(2))
                for key in mixed_bracket2(a, b).weight_keys():
                    if key != want:
                        return False, "off-block", str(key)
        # section-algebra substrate: powers of a fixed weight pair close
        lam = (1, 2)
        for n1 in (1, 2):
            for n2 in (1, 2):
                f = pw_tensor([
                    hw_coefficient(ctx, (n1 * lam[0],), {0: Fraction(1)}),
                    hw_coefficient(ctx, (n1 * lam[1],), {1: Fraction(1)})])
                g = pw_tensor([
                    hw_coefficient(ctx, (n2 * lam[0],), {1: Fraction(1)}),
                    hw_coefficient(ctx, (n2 * lam[1],), {0: Fraction(1)})])
                br = classical_bracket(f, g, spec2m)
                want = (((n1 + n2) * lam[0],), ((n1 + n2) * lam[1],))
                for key in br.weight_keys():
                    if key != want:
                        return False, "section", str(key)
        return True, "0", None

    _run_check(report, "classical.grading",
               "semi-invariant brackets respect the weight grading and close "
               "on the section algebras", grading)

    def jacobi():
        gens = [pw_tensor([a, b]) for a in gens1 for b in gens1]
        inner, outer = {}, {}

        def nested(x: int, y: int, z: int):
            """{gens[x], {gens[y], gens[z]}}, each bracket computed once."""
            if (y, z) not in inner:
                inner[y, z] = classical_bracket(gens[y], gens[z], spec2m)
            if (x, y, z) not in outer:
                outer[x, y, z] = classical_bracket(
                    gens[x], inner[y, z], spec2m)
            return outer[x, y, z]

        ids = range(len(gens))
        for f in ids:
            for g in ids:
                for h in ids:
                    j = nested(f, g, h) + nested(g, h, f) + nested(h, f, g)
                    if not j.is_zero():
                        return False, "%d blocks" % len(j.blocks), None
        return True, "0", None

    _run_check(report, "classical.jacobi",
               "Jacobi identity of the twisted-square bracket on weight-1 "
               "generators", jacobi)


# -- quantum suite ------------------------------------------------------------


def _suite_quantum(cfg: RunConfig, report: Report):
    from .liebialg import build_sl, standard_r, twisted_r
    from .cgx import BracketSpec, classical_bracket, hw_coefficient, pw_tensor
    from .que import (
        QAffineContext, TwistedHopf, UqContext, UqElement, UqTensor,
        almost_cocommutativity_residuals, antipode, coproduct, counit_leg,
        delta_leg, hexagon_residuals, quantum_affine_multiply,
        quantum_affine_multiply_pairwise, r_matrix_m, semiclassical_bracket,
        semiclassical_r, tensor_one, twi_m, twi_m_inductive,
        twist_condition_residuals, uq_gen,
    )

    ctx = UqContext(cfg.hbar_order)
    E, F, H = uq_gen(ctx, "E"), uq_gen(ctx, "F"), uq_gen(ctx, "H")
    qctx = QAffineContext(ctx)  # one set of quantum CG tables for the suite
    R = qctx.R

    def algebra():
        if (H * E - E * H) != E.scale(2) or (H * F - F * H) != F.scale(-2):
            return False, "Cartan relations", None
        if (E * F - F * E).mod_hbar() != {((0, 1, 0),): Fraction(1)}:
            return False, "[E,F] mod hbar", None
        rng = random.Random(cfg.seed)
        gens = [E, F, H]
        for _ in range(10):
            x, y, z = (rng.choice(gens) for _ in range(3))
            if (x * y) * z != x * (y * z):
                return False, "associativity", None
        for name, g in (("E", E), ("F", F), ("H", H)):
            d = coproduct(g)
            if delta_leg(d, 0) != delta_leg(d, 1):
                return False, "coassociativity", name
            if counit_leg(d, 0) != g:
                return False, "counit axiom", name
            acc = UqElement(ctx)
            for (m1, m2), s in d.data.items():
                acc = acc + (antipode(UqElement(ctx, {m1: 1}))
                             * UqElement(ctx, {m2: 1})).scale(s)
            if not acc.is_zero():
                return False, "antipode axiom", name
        for x in (E, F, H):
            for y in (E, F, H):
                if coproduct(x * y) != coproduct(x) * coproduct(y):
                    return False, "coproduct not an algebra map", None
        return True, "0", None

    _run_check(report, "quantum.algebra",
               "defining relations and Hopf axioms of the truncated quantum "
               "group", algebra)

    def rmatrix():
        for r in almost_cocommutativity_residuals(ctx, R):
            if not r.is_zero():
                return False, "almost-cocommutativity", None
        h1, h2 = hexagon_residuals(ctx, R)
        if not (h1.is_zero() and h2.is_zero()):
            return False, "hexagon", None
        if counit_leg(R, 0) != tensor_one(ctx, 1) or \
                counit_leg(R, 1) != tensor_one(ctx, 1):
            return False, "counit of R", None
        return True, "0", None

    _run_check(report, "quantum.rmatrix",
               "quasitriangularity of the R-matrix", rmatrix)

    def twists():
        for m in (2, 3):
            J = twi_m(R, m)
            if J != twi_m_inductive(R, m):
                return False, "closed vs inductive", "m=%d" % m
            res, c1, c2 = twist_condition_residuals(J, m)
            if not (res.is_zero() and c1.is_zero() and c2.is_zero()):
                return False, "twist axiom", "m=%d" % m
        return True, "0", None

    _run_check(report, "quantum.twists",
               "twisting-element axioms for the iterated twist, closed and "
               "inductive forms", twists)

    def rmatrix_m():
        R2 = r_matrix_m(R, 2)
        th = TwistedHopf(twi_m(R, 2), 2)
        monos = {"E": (0, 0, 1), "F": (1, 0, 0), "H": (0, 1, 0)}
        for g, mono in monos.items():
            for leg in (0, 1):
                key = [(0, 0, 0), (0, 0, 0)]
                key[leg] = mono
                xt = UqTensor(ctx, 2, {tuple(key): 1})
                # Delta_J^op(x) is Delta_J(x) with its two blocks swapped
                d = th.delta(xt)
                if R2 * d != d.swap_legs((2, 3, 0, 1)) * R2:
                    return False, "almost-cocommutativity", \
                        "%s leg %d" % (g, leg)
        return True, "0", None

    _run_check(report, "quantum.rmatrix-m",
               "the twisted tensor-square R-matrix intertwines the twisted "
               "coproduct", rmatrix_m)

    def semiclassical():
        alg = build_sl(2)
        st = standard_r(alg)
        h1 = (R - tensor_one(ctx, 2)).hbar_coefficient(1)
        want = {((0, 1, 0), (0, 1, 0)): Fraction(1, 4),
                ((1, 0, 0), (0, 0, 1)): Fraction(1)}
        if h1 != want:
            return False, "order-1 of R", None
        if semiclassical_r(r_matrix_m(R, 2), 2) != twisted_r(st.r, 2):
            return False, "order-1 of the twisted R", None
        pw = qctx.pw
        spec1 = BracketSpec(pw, 1, "product")
        spec2 = BracketSpec(pw, 2, "mixed")
        qg = [hw_coefficient(qctx, (1,), {a: 1}) for a in range(2)]
        cg = [hw_coefficient(pw, (1,), {a: Fraction(1)}) for a in range(2)]
        for qa, ca in zip(qg, cg):
            for qb, cb in zip(qg, cg):
                if semiclassical_bracket(qa, qb) != \
                        classical_bracket(ca, cb, spec1):
                    return False, "bracket m=1", None
        for i in range(2):
            for j in range(2):
                qF, qG = pw_tensor([qg[i], qg[j]]), pw_tensor([qg[j], qg[i]])
                cF, cG = pw_tensor([cg[i], cg[j]]), pw_tensor([cg[j], cg[i]])
                got = semiclassical_bracket(qF, qG, quantum_affine_multiply)
                if got != classical_bracket(cF, cG, spec2):
                    return False, "bracket m=2", "(%d,%d)" % (i, j)
        return True, "0", None

    _run_check(report, "quantum.semiclassical",
               "order-1 data of the R-matrices and products reproduce the "
               "classical structures", semiclassical)

    def factorization():
        rng = random.Random(cfg.seed)
        gens = [hw_coefficient(qctx, (1,), {a: 1}) for a in range(2)]
        gens += [hw_coefficient(qctx, (2,), {a: 1}) for a in range(3)]
        pool = [pw_tensor([rng.choice(gens), rng.choice(gens)])
                for _ in range(12)]
        for _ in range(20):
            f, g, h = (rng.choice(pool) for _ in range(3))
            lhs = quantum_affine_multiply(quantum_affine_multiply(f, g), h)
            rhs = quantum_affine_multiply(f, quantum_affine_multiply(g, h))
            if lhs != rhs:
                return False, "associativity", None
        one1 = hw_coefficient(qctx, (0,), {0: 1})
        fa = pw_tensor([gens[0], one1])
        ga = pw_tensor([gens[1], one1])
        fb = pw_tensor([one1, gens[0]])
        gb = pw_tensor([one1, gens[1]])
        for x, y in ((fa, gb), (gb, fa), (fb, ga), (ga, fb), (fa, ga),
                     (fb, gb)):
            if quantum_affine_multiply(x, y) != \
                    quantum_affine_multiply_pairwise(x, y):
                return False, "factor case split", None
        return True, "0", None

    _run_check(report, "quantum.factorization",
               "associativity of the twisted product on seeded triples and "
               "the per-factor case split", factorization)


# -- coiso suite --------------------------------------------------------------


def _suite_coiso(cfg: RunConfig, report: Report):
    from .cgx import hw_coefficient, pw_tensor
    from .que import QAffineContext, UqContext, uq_gen
    from .coiso import (
        CharacterMonoid, HopfSubalgebra, _fn_span, borel_subalgebra,
        classical_shadow, counit_character, is_eigenfunction,
        quantum_section_check, r_membership_hopf, semi_invariants,
        strong_coiso_hopf, strong_coiso_twisted, weight_character,
    )
    from .liebialg import standard_r, strongly_coisotropic_lie

    ctx = UqContext(cfg.hbar_order)
    U = borel_subalgebra(ctx, cfg.degree_bound)
    qctx = QAffineContext(ctx)  # one set of quantum CG tables for the suite
    R = qctx.R

    def membership():
        rep = r_membership_hopf(U, R)
        if rep.status != "true":
            return False, rep.status, rep.witness
        Uf = HopfSubalgebra(ctx, [uq_gen(ctx, "F")], cfg.degree_bound, ["F"])
        repf = r_membership_hopf(Uf, R)
        if repf.status != "false":
            return False, "negative control: " + repf.status, repf.witness
        return True, "0", None

    _run_check(report, "coiso.r-membership",
               "R-matrix compatibility window for the Borel subalgebra, with "
               "a negative control", membership)

    def strong():
        rep = strong_coiso_hopf(U, "right")
        if rep.status != "true":
            return False, rep.status, rep.witness
        rep = strong_coiso_twisted(U, R, 2)
        if rep.status != "true":
            return False, "tensor square: " + rep.status, rep.witness
        sh = classical_shadow(U)
        res = strongly_coisotropic_lie(sh, standard_r(sh.alg).r)
        if not res["strongly"]:
            return False, "classical shadow", str(res)
        return True, "0", None

    _run_check(report, "coiso.strong",
               "strong coisotropy of the Borel window, its twisted tensor "
               "square, and its classical shadow", strong)

    def monoid():
        mon = CharacterMonoid(U, precheck=False)
        eps = counit_character(U)
        z = {n: weight_character(U, n) for n in range(5)}
        for n in (1, 2):
            for l in (1, 2):
                if mon.product(z[n], z[l]) != z[n + l]:
                    return False, "additivity", "(%d,%d)" % (n, l)
        if mon.product(eps, z[1]) != z[1] or mon.product(z[1], eps) != z[1]:
            return False, "unit", None
        lhs = mon.product(mon.product(z[1], z[2]), z[1])
        rhs = mon.product(z[1], mon.product(z[2], z[1]))
        if lhs != rhs:
            return False, "associativity", None
        return True, "0", None

    _run_check(report, "coiso.monoid",
               "weight characters add under the reduced-coproduct product",
               monoid)

    def semi():
        z1 = weight_character(U, 1)
        got = semi_invariants(qctx, U, (z1, z1), 1)
        if not all(is_eigenfunction(f, (z1, z1)) for f in got):
            return False, "eigenproperty", None
        expect = [pw_tensor([hw_coefficient(qctx, (1,), {a: 1}),
                             hw_coefficient(qctx, (1,), {b: 1})])
                  for a in range(2) for b in range(2)]
        if not _fn_span(got).equals(_fn_span(expect)):
            return False, "block mismatch", "%d generators" % len(got)
        return True, "0", None

    _run_check(report, "coiso.semi-invariants",
               "semi-invariants of the twisted square match the quantum "
               "principal affine blocks", semi)

    def sections():
        mon = CharacterMonoid(U, precheck=False)
        d = hw_coefficient(qctx, (1,), {0: 1})
        pre, graded = quantum_section_check(d, U, mon, n_max=3)
        if pre.status != "true" or graded.status != "true":
            return False, "%s/%s" % (pre.status, graded.status), \
                graded.witness or pre.witness
        return True, "0", None

    _run_check(report, "coiso.sections",
               "the highest-weight coefficient is a quantum section with the "
               "expected grading", sections)


def run_suite(config: RunConfig) -> Report:
    report = Report(config)
    if "classical" in config.suites:
        _suite_classical(config, report)
    if "quantum" in config.suites:
        _suite_quantum(config, report)
    if "coiso" in config.suites:
        _suite_coiso(config, report)
    return report


# -- compute subcommands ------------------------------------------------------


def _lie_tensor_json(t) -> Dict:
    return {
        "arity": t.arity,
        "terms": sorted([list(key), str(c)] for key, c in t.data.items()),
    }


def _uq_tensor_json(t) -> Dict:
    return {
        "legs": t.legs,
        "order": t.ctx.order,
        "terms": sorted(
            [[list(m) for m in key], [str(c) for c in s.coeffs]]
            for key, s in t.data.items()
        ),
    }


def _generator_index(alg, name: str) -> int:
    aliases = {"h": "h1", "e": "e1", "f": "f1"}
    name = aliases.get(name, name)
    kind, idx = name[:1], name[1:]
    if kind not in ("h", "e", "f") or not idx.isdecimal():
        raise ConfigError("unknown generator %r" % (name,))
    i = int(idx) - 1
    if kind == "h" and 0 <= i < alg.rank:
        return i
    if kind == "e" and 0 <= i < alg.n_pos:
        return alg.raise_index(i)
    if kind == "f" and 0 <= i < alg.n_pos:
        return alg.lower_index(i)
    raise ConfigError("generator %r out of range" % (name,))


def _parse_function_spec(spec: str) -> List[Tuple[int, int]]:
    """Per-factor highest-weight coefficients "n:a" joined by commas."""
    out = []
    for part in spec.split(","):
        try:
            n_s, a_s = part.split(":")
            n, a = int(n_s), int(a_s)
        except ValueError:
            raise ConfigError(
                "bad function spec %r (expected n:a,...)" % (spec,))
        if n < 0 or not 0 <= a <= n:
            raise ConfigError("bad function spec %r" % (spec,))
        out.append((n, a))
    return out


def _algebra_size(name: str) -> int:
    if name not in _ALGEBRAS:
        raise ConfigError("unknown algebra %r" % (name,))
    return _ALGEBRAS[name]


def _compute(args, config: RunConfig) -> Dict:
    from .liebialg import basis_tensor, build_sl, cobracket, mix_tensor, \
        standard_r

    if args.expr == "cobracket":
        if len(args.args) != 2:
            raise ConfigError("usage: compute cobracket <sl2|sl3> <generator>")
        alg = build_sl(_algebra_size(args.args[0]))
        st = standard_r(alg)
        idx = _generator_index(alg, args.args[1])
        return {"cobracket": _lie_tensor_json(
            cobracket(st.r, basis_tensor(alg, idx)))}

    if args.expr == "mix":
        if len(args.args) != 2 or not args.args[1].isdecimal():
            raise ConfigError("usage: compute mix <sl2|sl3> <m>")
        m = int(args.args[1])
        if not 1 <= m <= 3:
            raise ConfigError("m must be in 1..3")
        alg = build_sl(_algebra_size(args.args[0]))
        return {"mix": _lie_tensor_json(mix_tensor(standard_r(alg).r, m))}

    if args.expr == "bracket":
        from .cgx import BracketSpec, PWContext, classical_bracket, \
            hw_coefficient, pw_tensor

        if len(args.args) != 4:
            raise ConfigError(
                "usage: compute bracket sl2 <product|mixed> <f-spec> <g-spec>")
        if args.args[0] != "sl2":
            raise ConfigError("bracket computations run on sl2")
        mode = args.args[1]
        if mode not in ("product", "mixed"):
            raise ConfigError("bracket mode must be product or mixed")
        fs = _parse_function_spec(args.args[2])
        gs = _parse_function_spec(args.args[3])
        if len(fs) != len(gs):
            raise ConfigError("factor counts differ")
        ctx = PWContext(build_sl(2))
        spec = BracketSpec(ctx, len(fs), mode)
        f = pw_tensor([hw_coefficient(ctx, (n,), {a: Fraction(1)})
                       for n, a in fs])
        g = pw_tensor([hw_coefficient(ctx, (n,), {a: Fraction(1)})
                       for n, a in gs])
        return {"bracket": classical_bracket(f, g, spec).to_json()}

    if args.expr == "qmultiply":
        from .cgx import hw_coefficient, pw_tensor
        from .que import (QAffineContext, UqContext, q_multiply,
                          quantum_affine_multiply)

        if len(args.args) != 2:
            raise ConfigError("usage: compute qmultiply <f-spec> <g-spec>")
        fs = _parse_function_spec(args.args[0])
        gs = _parse_function_spec(args.args[1])
        if len(fs) != len(gs):
            raise ConfigError("factor counts differ")
        qctx = QAffineContext(UqContext(config.hbar_order))
        f = pw_tensor([hw_coefficient(qctx, (n,), {a: 1}) for n, a in fs])
        g = pw_tensor([hw_coefficient(qctx, (n,), {a: 1}) for n, a in gs])
        prod = q_multiply if len(fs) == 1 else quantum_affine_multiply
        return {"qmultiply": prod(f, g).to_json()}

    if args.expr == "twi":
        from .que import UqContext, r_matrix_sl2, twi_m

        if len(args.args) != 1 or not args.args[0].isdecimal():
            raise ConfigError("usage: compute twi <m>")
        m = int(args.args[0])
        if not 1 <= m <= 3:
            raise ConfigError("m must be in 1..3")
        ctx = UqContext(config.hbar_order)
        return {"twi": _uq_tensor_json(twi_m(r_matrix_sl2(ctx), m))}

    if args.expr == "coiso-check":
        from .que import UqContext, r_matrix_sl2, uq_gen
        from .coiso import HopfSubalgebra, r_membership_hopf, \
            strong_coiso_hopf

        if len(args.args) != 1:
            raise ConfigError(
                "usage: compute coiso-check <generators, e.g. HE>")
        letters = args.args[0]
        if not letters or any(c not in "EFH" for c in letters):
            raise ConfigError("subalgebra spec must use the letters E, F, H")
        ctx = UqContext(config.hbar_order)
        U = HopfSubalgebra(ctx, [uq_gen(ctx, c) for c in letters],
                           config.degree_bound, list(letters))
        return {
            "strong_coiso": strong_coiso_hopf(U, "right").to_json(),
            "r_membership": r_membership_hopf(U, r_matrix_sl2(ctx)).to_json(),
        }

    raise ConfigError("unknown compute expression %r" % (args.expr,))


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qaffine",
        description="exact verification suites and computations for twisted "
                    "products of principal affine spaces and their "
                    "quantizations")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run verification suites")
    run.add_argument("--algebra")
    run.add_argument("--hbar-order", type=int)
    run.add_argument("--degree-bound", type=int)
    run.add_argument("--scale",
                     help="invariant-form scaling (a positive rational)")
    run.add_argument("--seed", type=int)
    run.add_argument("--suite", dest="suites", action="append",
                     choices=_SUITES,
                     help="restrict to a suite (repeatable)")
    run.add_argument("--timings", action="store_true", default=None,
                     help="include wall-clock timings (breaks byte-for-byte "
                          "report determinism)")
    run.add_argument("--out", help="write the JSON report to a file")

    comp = sub.add_parser("compute", help="compute and print a single value")
    comp.add_argument("expr", choices=["bracket", "qmultiply", "cobracket",
                                       "mix", "twi", "coiso-check"])
    comp.add_argument("args", nargs="*")
    comp.add_argument("--hbar-order", type=int)
    comp.add_argument("--degree-bound", type=int)
    return p


def _config_from_args(args) -> RunConfig:
    """The RunConfig of the flags that were given; RunConfig supplies the
    default of every other setting."""
    return RunConfig(**{k: v for k, v in vars(args).items()
                        if v is not None
                        and k not in ("command", "out", "expr", "args")})


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if e.code is not None else 0
        return 0 if code == 0 else 2
    try:
        config = _config_from_args(args)
        if args.command == "run":
            try:  # before any suite runs, so a bad path costs nothing
                out = (open(args.out, "w") if args.out
                       else contextlib.nullcontext(sys.stdout))
            except OSError as e:
                raise ConfigError("cannot write %s: %s" % (
                    args.out, e.strerror or e)) from None
            with out as fh:
                report = run_suite(config)
                fh.write(report.dumps())
            return 3 if report.errored else 1 if report.failed else 0
        from .cgx import DimensionBoundError
        try:
            result = _compute(args, config)
        except DimensionBoundError as e:  # an input too large to build
            raise ConfigError(str(e)) from None
        sys.stdout.write(json.dumps(result, sort_keys=True, indent=2) + "\n")
        return 0
    except ConfigError as e:
        sys.stderr.write("config error: %s\n" % (e,))
        return 2


if __name__ == "__main__":
    sys.exit(main())
