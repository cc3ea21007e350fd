"""Exact symbolic engine for twisted products of principal affine spaces,
their Poisson structures, and their truncated quantizations."""

from .kernel import TruncatedSeries
from .linalg import EchelonSpan
from .liebialg import (
    LieAlgebra, LieTensor, StandardR, Subspace, basis_tensor, build_sl,
    cobracket, cybe_residual, diagonal_r, mix_tensor,
    r_membership_lie, standard_r, strongly_coisotropic_lie, twisted_r,
    verify_twisting_element, wedge,
)
from .cgx import (
    BlockFunction, BracketSpec, PWContext, act_factor, classical_bracket,
    hw_coefficient, matrix_coefficient, pw_multiply, pw_one, pw_tensor,
)
from .que import (
    QAffineContext, QIrrep, TwistedHopf, UqContext, UqElement, UqTensor,
    antipode, coproduct, counit, q_multiply, quantum_affine_multiply,
    r_matrix_m, r_matrix_sl2, semiclassical_bracket, semiclassical_r, twi_m,
    uq_gen, uq_one,
)
from .coiso import (
    Character, CharacterMonoid, CoisoReport, HopfSubalgebra,
    borel_subalgebra, classical_shadow, counit_character, ideal_commutator,
    prequantum_check, q_evaluate, quantum_section_check,
    r_membership_hopf, semi_invariants, strong_coiso_hopf,
    strong_coiso_twisted, weight_character,
)
from .cli import RunConfig, run_suite

__version__ = "0.1.0"
