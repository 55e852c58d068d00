"""Schmidt decomposition of discretized continuous-variable bipartite states.

The package pairs a numerical pipeline (uniform-grid discretization, then a
dense SVD, a certified randomized factorization, or the eigenvalues of the
Gram matrix, chosen from the grid size and the spectrum's decay) with the
exactly solvable correlated Gaussian state, whose geometric Schmidt
spectrum, Hermite-function modes, entropies, and thermal mapping are all
available in closed form for validation.
"""

from .discretize import (
    DiscretizedState,
    GridSpec,
    build_grid,
    marginals,
    read_state_file,
    sample_state,
    shannon_mi_numeric,
    write_state_file,
)
from .epr_sim import CoincidenceReport, run_coincidence_experiment, sample_stream
from .errors import DomainError, NumericalError, StateFileError
from .gaussian_model import (
    GaussianParams,
    GeometricSpectrum,
    analytic_mode,
    analytic_weights,
    closed_form_entropy,
    density,
    hermite_function,
    rho_squared_from_K,
    schmidt_number_from_rho,
    shannon_mi_gaussian,
    synthesize_wavefunction,
    truncated_weights,
    wavefunction,
)
from .information import (
    InfoReport,
    coincidence_probability,
    effective_microstates,
    info_report,
    schmidt_information,
)
from .schmidt import SchmidtSpectrum, decompose, entanglement_entropy, reconstruct, schmidt_number
from .thermo import K_from_beta, beta_from_K, oscillator_entropy, rho_squared_from_beta

__version__ = "0.1.0"

__all__ = [
    "CoincidenceReport",
    "DiscretizedState",
    "DomainError",
    "GaussianParams",
    "GeometricSpectrum",
    "GridSpec",
    "InfoReport",
    "K_from_beta",
    "NumericalError",
    "SchmidtSpectrum",
    "StateFileError",
    "analytic_mode",
    "analytic_weights",
    "beta_from_K",
    "build_grid",
    "closed_form_entropy",
    "coincidence_probability",
    "decompose",
    "density",
    "effective_microstates",
    "entanglement_entropy",
    "hermite_function",
    "info_report",
    "marginals",
    "oscillator_entropy",
    "read_state_file",
    "reconstruct",
    "rho_squared_from_K",
    "rho_squared_from_beta",
    "run_coincidence_experiment",
    "sample_state",
    "sample_stream",
    "schmidt_information",
    "schmidt_number",
    "schmidt_number_from_rho",
    "shannon_mi_gaussian",
    "shannon_mi_numeric",
    "synthesize_wavefunction",
    "truncated_weights",
    "wavefunction",
    "write_state_file",
]
