"""Numerical tolerances and size limits used across the package."""

# Largest register the dense simulator accepts (2**24 complex amplitudes,
# roughly 256 MiB per state).
MAX_QUBITS = 24

# |norm^2 - 1| allowed on any StateVector after an arbitrary operation sequence.
NORM_ATOL = 1e-9

# Tolerance for cases that are exact up to floating-point rounding
# (involutions, analytically exact expectation values).
EXACT_ATOL = 1e-12
