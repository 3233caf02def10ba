"""Exact q-calculus engine.

Gaussian-rational Laurent-polynomial coefficients (q = s**2), q-Hermite
polynomials in both parameter directions, mechanical verification of the
package's algebraic identities, and a q-wave d'Alembert initial-value
solver with numeric grid sampling.
"""

from .coeffs import (
    CE_I,
    CE_ONE,
    CE_Q,
    CE_ZERO,
    CoefExpr,
    GaussianRational,
    GR_I,
    GR_ONE,
    GR_ZERO,
    LaurentPoly,
    LP_ONE,
    LP_Q,
    LP_S,
    LP_ZERO,
    NeedsSquareRootError,
    PoleError,
    QCalcError,
    UnsupportedOrderError,
    ZeroDenominatorError,
)
from .qcore import (
    factorial_ratio,
    gauss_binomial,
    q_euler_number,
    q_exp_series,
    q_factorial,
    q_int,
    q_int_reciprocal,
    q_trig_series,
)
from .polys import (
    MPoly,
    d_operator,
    dbar_operator,
    jackson_integral_numeric,
    q_binomial_expand,
    q_binomial_power,
    q_binomial_weights,
    q_laplacian,
    q_laplacian_chain,
    q_power_product,
)
from .hermite import (
    hermite_classical,
    q_hermite,
    q_hermite_dual,
    q_hermite_special_value,
)
from .identities import (
    IDENTITY_CHECKS,
    Verdict,
    one_directional_check,
    verify_double_q_analytic,
    verify_exp_factorization,
    verify_exp_product,
    verify_hermite_binomial,
    verify_q_hermite_binomial,
    verify_q_laplacian_identity,
    verify_traveling_hermite_expansion,
    verify_xi_identity,
)
from .qwave import (
    NAMED_SOURCES,
    SYMBOLIC_SPEED,
    InitialData,
    PostconditionError,
    WaveSolution,
    dalembert_solve,
    named_source,
    named_wave,
    poly_from_coefficients,
    q_binomial_substitute,
    qwave_operator,
    sample_grid,
)

__version__ = "0.1.0"
