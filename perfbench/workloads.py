"""The benchmark's workloads and the inputs they are generated from.

Only the generated inputs reach the program: a ``RunConfig`` for the suite
workloads and a list of ``qaffine compute`` argument vectors for the
one-shot stream.  The same seed gives the same inputs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

# name -> (suites, hbar order, degree bound)
SUITES: Dict[str, Tuple[Tuple[str, ...], int, int]] = {
    "classical-sl2": (("classical",), 3, 4),
    "quantum-k4": (("quantum",), 4, 4),
    "coiso-k3": (("coiso",), 3, 3),
}

WORKLOADS = ("classical-sl2", "quantum-k4", "coiso-k3", "compute-oneshot")

CHECKS: Dict[str, Tuple[str, ...]] = {
    "classical": (
        "classical.bracket-agreement", "classical.cobracket",
        "classical.coisotropy", "classical.cybe", "classical.grading",
        "classical.jacobi", "classical.poisson-action",
        "classical.projection", "classical.twisting"),
    "quantum": (
        "quantum.algebra", "quantum.factorization", "quantum.rmatrix",
        "quantum.rmatrix-m", "quantum.semiclassical", "quantum.twists"),
    "coiso": (
        "coiso.monoid", "coiso.r-membership", "coiso.sections",
        "coiso.semi-invariants", "coiso.strong"),
}


def suite_config(workload: str, seed: int):
    from qaffine.cli import RunConfig

    suites, order, degree_bound = SUITES[workload]
    return RunConfig(algebra="sl2", hbar_order=order,
                     degree_bound=degree_bound, seed=seed, suites=suites)


def expected_checks(workload: str) -> Tuple[str, ...]:
    return tuple(c for s in SUITES[workload][0] for c in CHECKS[s])


# -- the one-shot compute stream ------------------------------------------------

SL3_GENERATORS = ("h1", "h2", "e1", "e2", "e3", "f1", "f2", "f3")

# Per-factor weights of the bracket / qmultiply groups.  The weights are
# fixed so that every seed builds the same irreps (a call's cost is set by
# its largest block); the seed picks the dual indices.  The three groups with
# weight 3 on both sides of one factor build V(6) from scratch in every call:
# their 12 calls (with the H,F window at degree bound 2 just below them) are
# the slowest tenth of the stream, so the 90th percentile falls inside one
# cost class rather than on the edge between two.
GROUP_WEIGHTS: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...] = (
    ((1,), (1,)), ((1,), (2,)), ((2,), (2,)), ((1,), (3,)), ((2,), (3,)),
    ((3,), (3,)),
    ((1, 1), (1, 1)), ((1, 2), (2, 1)), ((2, 2), (2, 1)), ((1, 3), (3, 1)),
    ((2, 3), (3, 2)), ((3, 3), (3, 1)),
    ((1, 1, 1), (1, 1, 1)), ((1, 2, 1), (2, 1, 2)), ((2, 2, 2), (2, 2, 2)),
    ((3, 1, 2), (3, 2, 1)),
)

# coiso-check: one or two of H/E/F, never E with F (the EF window alone
# takes about two minutes).  Both orders of a pair are asked, so the two
# answers can be compared.  The H,F windows grow fastest and run only at
# degree bound 1..2, hbar order 2.
COISO_LETTERS = ("H", "E", "F", "HE", "EH", "HF", "FH")
COISO_WINDOWS = ((1, 2), (2, 2), (1, 3))  # (degree bound, hbar order)

TWI_CASES = tuple((m, k) for m in (1, 2, 3) for k in (3, 4, 5))


class Call:
    """One ``qaffine compute`` invocation of the stream."""

    def __init__(self, expr: str, argv: Sequence[str], group: int = -1):
        self.expr = expr
        self.argv = list(argv)
        self.group = group  # bracket/qmultiply group index, or -1

    def key(self) -> Tuple[str, ...]:
        return tuple(self.argv)

    def __repr__(self):
        return "Call(%s)" % " ".join(self.argv)


def _spec(rng: random.Random, weights: Sequence[int]) -> str:
    return ",".join("%d:%d" % (n, rng.randint(0, n)) for n in weights)


def compute_stream(seed: int) -> List[Call]:
    """At least 100 distinct calls; the seed picks dual indices and order."""
    rng = random.Random(seed)
    calls: List[Call] = []
    for gen in ("e", "f", "h"):
        calls.append(Call("cobracket", ["compute", "cobracket", "sl2", gen]))
    for gen in SL3_GENERATORS:
        calls.append(Call("cobracket", ["compute", "cobracket", "sl3", gen]))
    for alg in ("sl2", "sl3"):
        for m in (1, 2, 3):
            calls.append(Call("mix", ["compute", "mix", alg, str(m)]))
    for gi, (wf, wg) in enumerate(GROUP_WEIGHTS):
        f = _spec(rng, wf)
        g = _spec(rng, wg)
        while g == f:
            g = _spec(rng, wg)
        mode = "product" if len(wf) == 1 else "mixed"
        calls.append(Call("bracket", ["compute", "bracket", "sl2", mode, f, g], gi))
        calls.append(Call("bracket", ["compute", "bracket", "sl2", mode, g, f], gi))
        calls.append(Call("qmultiply", ["compute", "qmultiply", f, g], gi))
        calls.append(Call("qmultiply", ["compute", "qmultiply", g, f], gi))
    for m, k in TWI_CASES:
        calls.append(Call("twi", ["compute", "twi", str(m),
                                  "--hbar-order", str(k)]))
    for letters in COISO_LETTERS:
        for bound, k in COISO_WINDOWS:
            if "F" in letters and "H" in letters and k == 3:
                continue
            calls.append(Call("coiso-check", [
                "compute", "coiso-check", letters, "--degree-bound",
                str(bound), "--hbar-order", str(k)]))
    rng.shuffle(calls)
    return calls
