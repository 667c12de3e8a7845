"""Grover search simulator and planner for expectation-value quantum computers.

The package exports what a plan, a search or a sweep runs.  The dense
statevector reference the fast paths are checked against stays on its
modules: :mod:`grover_ev.core`, :mod:`grover_ev.measurement` and
:mod:`grover_ev.filtering`.
"""

from .core import MarkedSet, class_amplitudes, grover_angle
from .filtering import SearchFailure, SearchResult, extract_location
from .measurement import (
    ClassState,
    EnsembleModel,
    class_state,
    decide_sign,
    measure_classes,
    sign_error_rate,
)
from .planner import TruncationPlan, attenuation, make_plan

__all__ = [
    "MarkedSet",
    "grover_angle",
    "class_amplitudes",
    "EnsembleModel",
    "ClassState",
    "class_state",
    "measure_classes",
    "decide_sign",
    "sign_error_rate",
    "SearchFailure",
    "SearchResult",
    "extract_location",
    "TruncationPlan",
    "attenuation",
    "make_plan",
]

__version__ = "0.1.0"
