"""Grover search simulator and planner for expectation-value quantum computers."""

from .constants import EXACT_ATOL, MAX_QUBITS, NORM_ATOL
from .core import (
    MarkedSet,
    OracleLedger,
    StateVector,
    apply_diffusion,
    apply_grover,
    apply_oracle,
    class_amplitudes,
    closed_form_state,
    grover_angle,
    new_uniform,
    qubit_values,
)
from .filtering import (
    FilterState,
    SearchFailure,
    SearchResult,
    apply_correlation,
    extract_location,
)
from .measurement import (
    ClassState,
    EnsembleModel,
    class_state,
    decide_sign,
    exact_ev,
    measure_all,
    measure_classes,
    sampled_ev,
    sign_error_rate,
)
from .planner import (
    TruncationPlan,
    attenuation,
    m_standard,
    m_truncated,
    m_truncated_estimate,
    make_plan,
)

__all__ = [
    "EXACT_ATOL",
    "MAX_QUBITS",
    "NORM_ATOL",
    "MarkedSet",
    "OracleLedger",
    "StateVector",
    "apply_diffusion",
    "apply_grover",
    "apply_oracle",
    "class_amplitudes",
    "closed_form_state",
    "grover_angle",
    "new_uniform",
    "qubit_values",
    "FilterState",
    "SearchFailure",
    "SearchResult",
    "apply_correlation",
    "extract_location",
    "ClassState",
    "EnsembleModel",
    "class_state",
    "decide_sign",
    "exact_ev",
    "measure_all",
    "measure_classes",
    "sampled_ev",
    "sign_error_rate",
    "TruncationPlan",
    "attenuation",
    "m_standard",
    "m_truncated",
    "m_truncated_estimate",
    "make_plan",
]

__version__ = "0.1.0"
