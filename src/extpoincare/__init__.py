"""Toolkit for the superluminally extended Poincare group.

Exact algebra for the discrete extension of the Lorentz group, the two-sector
massless doublet representation on a log-frequency lattice, its unitary
dictionary onto path/polarization two-qubit states, and a Monte Carlo of the
correlation interferometer that reads the swap eigenvalue off the sign of the
X-X correlation.
"""

__version__ = "0.1.0"

from .doublet import (
    AxialElement,
    DoubletState,
    FrequencyGrid,
    apply_axial_boost,
    apply_axial_rotation,
    apply_translation,
    apply_u_lambda_inf,
    apply_u_minus_i,
    check_covariance,
    make_epsilon_eigenstate,
)
from .experiment import (
    ExperimentConfig,
    TrialTally,
    category_probabilities,
    estimate_exx,
    expected_correlation,
    run_trials,
    sweep_phase,
)
from .group import (
    ExtPoincareElement,
    OrbitClass,
    alpha_z,
    classify_orbit,
    make_lambda_inf,
    minkowski,
    poincare_mul,
    z_orbit,
)
from .qubit import (
    entanglement_entropy,
    expectation_equality,
    iota,
    reduced_state,
    sector_isometry,
    u_lambda_conjugation_check,
)

__all__ = [
    "AxialElement", "DoubletState", "FrequencyGrid",
    "apply_axial_boost", "apply_axial_rotation", "apply_translation",
    "apply_u_lambda_inf", "apply_u_minus_i", "check_covariance",
    "make_epsilon_eigenstate",
    "ExperimentConfig", "TrialTally", "category_probabilities", "estimate_exx",
    "expected_correlation", "run_trials", "sweep_phase",
    "ExtPoincareElement", "OrbitClass", "alpha_z",
    "classify_orbit", "make_lambda_inf", "minkowski", "poincare_mul", "z_orbit",
    "entanglement_entropy", "expectation_equality", "iota", "reduced_state",
    "sector_isometry",
    "u_lambda_conjugation_check",
    "__version__",
]
