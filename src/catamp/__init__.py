"""Numerical simulator of conditional cat-state amplification.

Truncated-Fock-space linear optics: small cat states approximated by
squeezed single photons are interfered pairwise, mixed with an auxiliary
coherent field, and post-selected on two threshold-detector clicks to
grow the cat amplitude by sqrt(2) per iteration.
"""

from .detection import DegenerateProbabilityError
from .fock import (DEFAULT_CUTOFF, DensityOperator, MultiModeState,
                   fidelity_mixed, projector)
from .protocol import (IterationResult, Schedule, SourceModel, StageParams,
                       amplify_once, best_schedule, homodyne_error,
                       optimal_squeezing, plan_schedule, prepare_source,
                       run_schedule, success_probability,
                       squeezed_photon_cat_fidelity)
from .states import CatSpec, cat_state, squeezed_photon, squeezed_vacuum

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CUTOFF", "MultiModeState", "DensityOperator", "projector",
    "fidelity_mixed",
    "CatSpec", "cat_state", "squeezed_photon", "squeezed_vacuum",
    "DegenerateProbabilityError",
    "StageParams", "IterationResult", "SourceModel", "Schedule",
    "plan_schedule", "prepare_source", "amplify_once", "run_schedule",
    "best_schedule", "success_probability",
    "squeezed_photon_cat_fidelity", "optimal_squeezing", "homodyne_error",
]
