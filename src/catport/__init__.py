"""catport: teleportation of coherent-state superpositions, end to end.

Two cross-validating state backends (exact coherent algebra and a
truncated-Fock oracle), the entangled quadruple with its combined
parity-displacement observables, the discrete teleportation protocol
with ideal and homodyne measurement paths, and a reproducible CLI
experiment harness.
"""

__version__ = "0.1.0"

from .algebra import (CoherentSuperposition, CoherentTerm,
                      DegenerateStateError, DimensionMismatchError,
                      fidelity, gram_matrix, norm, normalize, overlap,
                      partial_overlap, tensor)
from .bell import (BellLabel, DisplacementQuantum, QuasiBellSet,
                   UnsupportedConfigurationError, combined_op,
                   eigen_residual, generate_from_dynamics, make_cat,
                   make_quasi_bell)
from .fock import (DynamicsParams, FockVector, evolve, fock_displacement,
                   fock_parity, half_line_projector, quadrature_x, to_fock,
                   truncation_rule)
from .protocol import (CorrectionLabel, DegenerateBasisError,
                       LowdinMeasurement, MeasurementOutcome, ProtocolResult,
                       ProtocolRun, TargetState, apply_correction,
                       classical_baseline, misclassification_probability,
                       run_teleport_homodyne, run_teleport_ideal)

__all__ = [
    "__version__",
    "CoherentSuperposition", "CoherentTerm", "DegenerateStateError",
    "DimensionMismatchError", "fidelity", "gram_matrix", "norm",
    "normalize", "overlap", "partial_overlap", "tensor",
    "BellLabel", "DisplacementQuantum", "QuasiBellSet",
    "UnsupportedConfigurationError", "combined_op", "eigen_residual",
    "generate_from_dynamics", "make_cat", "make_quasi_bell",
    "DynamicsParams", "FockVector", "evolve", "fock_displacement",
    "fock_parity", "half_line_projector", "quadrature_x", "to_fock",
    "truncation_rule",
    "CorrectionLabel", "DegenerateBasisError", "LowdinMeasurement",
    "MeasurementOutcome", "ProtocolResult", "ProtocolRun", "TargetState",
    "apply_correction", "classical_baseline", "misclassification_probability",
    "run_teleport_homodyne", "run_teleport_ideal",
]
