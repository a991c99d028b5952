"""Shannon-entropy entanglement criterion for coupled harmonic oscillators.

Diagonalizes a pair of harmonically coupled masses into normal modes,
evaluates the Shannon entropies of the sum/difference-coordinate marginal
densities (closed forms cross-checked against panel quadrature), and
reports the entanglement criterion f(eta) = eta0 - eta with its threshold
table eta0(n, m).
"""

__version__ = "0.1.0"

from .criterion import (
    EntropyReport,
    IntegralBundle,
    ScalingTransform,
    criterion_curve,
    criterion_f,
    integral_bundle,
    is_entangled,
    marginal,
    shannon_entropy,
    standard_entropy,
    threshold_eta0,
)
from .errors import (
    DomainError,
    IntegrandEvaluationError,
    UnboundModeError,
    UnsupportedOrderError,
    UnsupportedRegimeError,
)
from .oscillator import (
    CoupledHamiltonian,
    DiagonalizedSystem,
    ModePair,
    diagonalize,
    energy,
    reconstruct,
    wavefunction,
)
from .quadrature import (
    QuadratureRule,
    entropy_integral_numeric,
    gauss_hermite_rule,
    integrate_panels,
    legendre_panel_rule,
)
from .specfun import (
    CONSTANTS,
    MathConstants,
    RootSet,
    hermite_eval,
    hermite_roots,
    hermite_values,
    ln_factorial,
    log_potential,
)

__all__ = [
    "CONSTANTS",
    "CoupledHamiltonian",
    "DiagonalizedSystem",
    "DomainError",
    "EntropyReport",
    "IntegralBundle",
    "IntegrandEvaluationError",
    "MathConstants",
    "ModePair",
    "QuadratureRule",
    "RootSet",
    "ScalingTransform",
    "UnboundModeError",
    "UnsupportedOrderError",
    "UnsupportedRegimeError",
    "criterion_curve",
    "criterion_f",
    "diagonalize",
    "energy",
    "entropy_integral_numeric",
    "gauss_hermite_rule",
    "hermite_eval",
    "hermite_roots",
    "hermite_values",
    "integral_bundle",
    "integrate_panels",
    "is_entangled",
    "legendre_panel_rule",
    "ln_factorial",
    "log_potential",
    "marginal",
    "reconstruct",
    "shannon_entropy",
    "standard_entropy",
    "threshold_eta0",
    "wavefunction",
    "__version__",
]
