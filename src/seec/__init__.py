"""Shannon-entropy entanglement criterion for coupled harmonic oscillators.

Diagonalizes a pair of harmonically coupled masses into normal modes,
evaluates the Shannon entropies of the sum/difference-coordinate marginal
densities (from a frozen table of level entropies, checked against their
panel quadrature), and
reports the entanglement criterion f(eta) = eta0 - eta with its threshold
table eta0(n, m).

The package imports lazily (PEP 562): ``import seec`` loads no submodule,
and each public name or submodule is imported on first access, so code
that needs no arrays never imports numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "EntropyReport": "criterion",
    "critical_coupling": "criterion",
    "criterion_f": "criterion",
    "marginal": "criterion",
    "standard_entropy": "criterion",
    "threshold_eta0": "criterion",
    "variance_threshold": "criterion",
    "DomainError": "errors",
    "UnboundModeError": "errors",
    "UnsupportedOrderError": "errors",
    "UnsupportedRegimeError": "errors",
    "CoupledHamiltonian": "oscillator",
    "DiagonalizedSystem": "oscillator",
    "ModePair": "oscillator",
    "diagonalize": "oscillator",
    "energy": "oscillator",
    "reconstruct": "oscillator",
    "wavefunction": "oscillator",
    "QuadratureRule": "quadrature",
    "entropy_integral_numeric": "quadrature",
    "gauss_hermite_rule": "quadrature",
    "RootSet": "quadrature",
    "hermite_roots": "quadrature",
}

_SUBMODULES = frozenset(
    {
        "_kernels",
        "cli",
        "criterion",
        "errors",
        "oscillator",
        "quadrature",
        "scalars",
        "svgplot",
        "verification",
    }
)

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule also binds it as a package attribute
        return importlib.import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
