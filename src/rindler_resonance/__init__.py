"""Resonance energy shift of two uniformly accelerated, correlated atoms.

The package computes the radiation-reaction resonance shift for a pair
of two-level atoms sharing one excitation in a symmetric or
antisymmetric state, riding parallel uniformly accelerated
trajectories.  Scalar and electromagnetic couplings are covered, with
closed forms, far-zone asymptotes, and independent numerical
cross-checks of every result.
"""

import importlib

from . import core, scalar
from .core import *
from .scalar import *

# Names imported on first access (PEP 562), so that importing the package
# and a scalar first call (what the bench's setup_s times) never read
# em.py, quad.py or oracle.py.  None of them imports numpy at module
# level: em loads it only to build a tensor record, and quad and oracle
# never do.  Each module's __all__ is its share of the package's; the
# lazy modules' shares are written out here, since reading them would
# import the modules.
_LAZY = {
    **dict.fromkeys(
        (
            "EmSpectralTensors",
            "PotentialTensors",
            "SpectralCoefficients",
            "Tensor3",
            "em_farzone_asymptote",
            "em_inertial_potential",
            "em_potential_tensors",
            "em_resonance_energy",
            "em_spectral_coefficients",
            "em_spectral_tensors",
            "em_wightman_tensor",
        ),
        "em",
    ),
    **dict.fromkeys(
        (
            "QuadratureSpec",
            "TrigPolyDensity",
            "pv_resonance_kernel",
        ),
        "quad",
    ),
    **dict.fromkeys(
        (
            "CheckResult",
            "VerificationReport",
            "asymptote_convergence_report",
            "commutator_agreeing_components",
            "em_commutator_consistency",
            "em_energy_pv_oracle",
            "em_pv_suite",
            "scalar_energy_pv_oracle",
            "scalar_pv_suite",
        ),
        "oracle",
    ),
}


def __getattr__(name: str):
    if name in _LAZY.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})


__version__ = "0.1.0"

__all__ = [*core.__all__, *scalar.__all__, *_LAZY, "__version__"]
