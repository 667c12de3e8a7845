"""The norm tolerance and the register size limit used across the package."""

# Largest register the dense simulator accepts (2**24 complex amplitudes,
# roughly 256 MiB per state).
MAX_QUBITS = 24

# |norm^2 - 1| allowed on any StateVector after an arbitrary operation sequence.
NORM_ATOL = 1e-9
