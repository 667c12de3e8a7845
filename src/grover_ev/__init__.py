"""Grover search simulator and planner for expectation-value quantum computers.

The package exports what a plan, a search or a sweep runs.  The dense
statevector reference the fast paths are checked against stays on its
modules: :mod:`grover_ev.core`, :mod:`grover_ev.measurement` and
:mod:`grover_ev.filtering`.

Integer inputs are read through ``operator.index`` in the check that bounds
them: N and M (``grover_angle``, so ``make_plan``), an iterate count
(``attenuation``, which ``class_state`` calls, and ``extract_location``),
``EnsembleModel``'s shots and seed, and ``sign_error_rate``'s qubit, trials
and row.  A float or a string raises ``TypeError`` there, as ``range(1.5)``
does, and numpy integers and bools are taken.
"""

from .core import MarkedSet, grover_angle
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
