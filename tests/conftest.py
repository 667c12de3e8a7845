"""Shared brute-force oracles, independent of the implementation under test.

Everything here recomputes expected values from first principles: explicit
operator matrices, direct enumeration of filtered marked subsets, and
straight bit arithmetic on labels.  The planner's original linear scan
over the attenuation curve is kept here as the reference for its inversion.
"""

import numpy as np

from grover_ev import attenuation, m_standard


def oracle_matrix(qubit_count, locations):
    """Diagonal sign-flip operator as an explicit dense matrix."""
    n = 1 << qubit_count
    diag = np.ones(n)
    diag[list(locations)] = -1.0
    return np.diag(diag).astype(complex)


def diffusion_matrix(qubit_count):
    """Inversion about the mean as an explicit dense matrix: 2J/N - I."""
    n = 1 << qubit_count
    return (2.0 / n) * np.ones((n, n), dtype=complex) - np.eye(n, dtype=complex)


def grover_matrix(qubit_count, locations):
    """One amplification step as a matrix product (diffusion after oracle)."""
    return diffusion_matrix(qubit_count) @ oracle_matrix(qubit_count, locations)


def bit_of(label, k):
    """Bit k of a basis label, 1-indexed from the least significant end."""
    return (label >> (k - 1)) & 1


def low_bits(label, count):
    """The lowest ``count`` bits of a label, least significant first."""
    return tuple(bit_of(label, k) for k in range(1, count + 1))


def filtered_subset(locations, prefix_bits):
    """Marked locations whose low bits match the determined prefix."""
    k = len(prefix_bits)
    return [x for x in locations if low_bits(x, k) == tuple(prefix_bits)]


def filtered_ev_formula(locations, prefix_bits, target, scale):
    """Expected averaged EV: (scale / M) * sum over the filtered subset
    of (-1)**(bit ``target``)."""
    subset = filtered_subset(locations, prefix_bits)
    signed = sum(1 - 2 * bit_of(x, target) for x in subset)
    return scale * signed / len(locations)


def random_marked_locations(rng, universe_size, count):
    """Distinct random locations drawn without replacement."""
    return tuple(int(x) for x in rng.choice(universe_size, size=count, replace=False))


def basis_state_vector(qubit_count, label):
    """Amplitude array for the computational basis state |label>."""
    amps = np.zeros(1 << qubit_count, dtype=complex)
    amps[label] = 1.0
    return amps


def uniform_over(qubit_count, locations):
    """Amplitude array of the ideal final state: equal weight on the
    given locations, zero elsewhere."""
    amps = np.zeros(1 << qubit_count, dtype=complex)
    amps[list(locations)] = 1.0 / np.sqrt(len(locations))
    return amps


def reference_truncation_scan(universe_size, marked_count, a_th):
    """The planner's original O(m_stand) linear scan, kept as the reference
    for its closed-form inversion: the smallest m whose attenuation exceeds
    a_th, or (m_stand, True) when none up to the standard count does.

    It walks the package's own ``attenuation`` so that float rounding in the
    curve is the same on both sides of the comparison.
    """
    if not 0 <= a_th < 1:
        raise ValueError(f"a_th must satisfy 0 <= a_th < 1, got {a_th}")
    m_stand = m_standard(universe_size, marked_count)
    for m in range(m_stand + 1):
        if attenuation(universe_size, marked_count, m) > a_th:
            return m, False
    return m_stand, True
