"""Locating the change point in a stream of qubit states.

A source emits particles in a default state until an unknown position k,
after which every particle comes out in a mutated state with overlap c to
the default.  This package computes how well the change point can be
identified: exact bounds and the square-root-measurement value for
collective measurements on the whole sequence, the closed-form large-n
asymptote, and Monte Carlo estimates for online strategies that measure
particle by particle.
"""

from .collective import (
    CollectiveSummary,
    PovmSolverResult,
    WeightedGram,
    asymptotic_pmax,
    collective_summary,
    embed_states,
    optimal_povm_fixed_point,
    srm_success,
    success_lower_bound,
    success_upper_bound,
    weighted_gram,
)
from .exceptions import (
    DegenerateEnsembleError,
    ImpossibleOutcomeError,
    SpectralFailureError,
)
from .gram import (
    GramSpectrum,
    build_gram,
    diag_deviation_asymptotic,
    jacobi_eigensolve,
    solve_spectrum,
    sqrt_gram,
    sqrt_trace_limit,
)
from .online import (
    TrialRecord,
    basic_local_closed_form,
    exact_greedy_enumeration,
    helstrom_measurement,
    iter_trial_records,
    monte_carlo,
    qubit_pair,
    simulate_basic_local,
    simulate_greedy_trial,
)
from .rng import CounterRng, mix64, trial_seed
from .special import elliptic_k, phase_amplitude

__version__ = "0.1.0"

__all__ = [
    "CollectiveSummary",
    "CounterRng",
    "DegenerateEnsembleError",
    "GramSpectrum",
    "ImpossibleOutcomeError",
    "PovmSolverResult",
    "SpectralFailureError",
    "TrialRecord",
    "WeightedGram",
    "asymptotic_pmax",
    "basic_local_closed_form",
    "build_gram",
    "collective_summary",
    "diag_deviation_asymptotic",
    "elliptic_k",
    "embed_states",
    "exact_greedy_enumeration",
    "helstrom_measurement",
    "iter_trial_records",
    "jacobi_eigensolve",
    "mix64",
    "monte_carlo",
    "optimal_povm_fixed_point",
    "phase_amplitude",
    "qubit_pair",
    "simulate_basic_local",
    "simulate_greedy_trial",
    "solve_spectrum",
    "sqrt_gram",
    "sqrt_trace_limit",
    "srm_success",
    "success_lower_bound",
    "success_upper_bound",
    "trial_seed",
    "weighted_gram",
]
