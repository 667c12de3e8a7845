"""Shared brute-force oracles, independent of the implementation under test.

Everything here recomputes expected values from first principles: explicit
operator matrices, direct enumeration of filtered marked subsets, and
straight bit arithmetic on labels.  The planner's original linear scan
over the attenuation curve is kept here as the reference for its inversion,
as are the first closed-form inverse of the two-amplitude Born CDF and the
search loop that read every qubit of every run.
"""

import numpy as np

from grover_ev import (
    ClassState,
    EnsembleModel,
    SearchFailure,
    SearchResult,
    attenuation,
    class_state,
    decide_sign,
    make_plan,
    measure_classes,
)

# Tolerance for cases that are exact up to floating-point rounding
# (involutions, analytically exact expectation values).
EXACT_ATOL = 1e-12


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
    m_stand = make_plan(universe_size, marked_count, 0.0).m_stand
    for m in range(m_stand + 1):
        if attenuation(universe_size, marked_count, m) > a_th:
            return m, False
    return m_stand, True


def reference_class_inverse_cdf(heavy, dim, weights):
    """The two-amplitude Born CDF's first closed-form inverse: each draw's
    segment by searchsorted, then only the draws between two steps inverted,
    through boolean-mask gathers and ``np.clip``."""
    on, off = weights
    heavy = np.sort(heavy)
    rise = on - off
    total = off * dim + rise * heavy.size
    before = np.arange(heavy.size)
    starts = np.append((off * heavy + rise * before) / total, np.inf)
    ends = (off * (heavy + 1) + rise * (before + 1)) / total
    step_labels = np.append(heavy, 0)
    lowest = np.append(0, heavy + 1)
    highest = np.append(heavy - 1, dim - 1)

    def labels_of(draws):
        segment = np.searchsorted(ends, draws, side="right")
        labels = step_labels[segment]
        between = draws < starts[segment]
        seg = segment[between]
        offset = np.floor((draws[between] * total - rise * seg) / off)
        labels[between] = np.clip(offset, lowest[seg], highest[seg]).astype(labels.dtype)
        return labels

    return labels_of


def reference_extract_location(marked, iterations, model, a_th):
    """The bit-extraction search as first written: every run, plain or
    correlated, is read out on every qubit, and a stage averages the target
    qubit's entries of the two full EV lists.  Run ``i`` draws from seed
    ``seed XOR i``, and the search gives up rather than make run ``4 L + 1``."""
    state = class_state(marked, iterations)
    qubit_count, locations = state.qubit_count, state.heavy

    def run(index, heavy):
        run_model = EnsembleModel(
            shots=model.shots,
            seed=model.seed ^ index,
            gaussian_noise_sigma=model.gaussian_noise_sigma,
        )
        full = ClassState(qubit_count, heavy, state.weights)
        return measure_classes(full, run_model, range(1, qubit_count + 1))

    plain = run(0, locations)
    total_runs, branch_events, verifications = 1, 0, 0
    pending, bits = [], ()
    while True:
        while len(bits) < qubit_count:
            target = len(bits) + 1
            if not bits:
                ev = plain[0]
            else:
                if total_runs == 4 * qubit_count:
                    raise SearchFailure(
                        "run budget spent",
                        reason="budget",
                        total_runs=total_runs,
                        branch_events=branch_events,
                    )
                prefix = sum(b << i for i, b in enumerate(bits))
                low = locations & ((1 << len(bits)) - 1)
                moved = np.where(low == prefix, locations, locations ^ (1 << (target - 1)))
                correlated = run(total_runs, moved)
                total_runs += 1
                ev = (plain[target - 1] + correlated[target - 1]) / 2.0
            bit = decide_sign(ev, a_th)
            if bit is None:
                branch_events += 1
                pending.append(bits + (1,))
                bit = 0
            bits += (bit,)
        candidate = sum(b << i for i, b in enumerate(bits))
        verifications += 1
        if candidate in marked.locations:
            return SearchResult(
                location=candidate,
                verified=True,
                total_runs=total_runs,
                total_oracle_invocations=iterations * total_runs + verifications,
                branch_events=branch_events,
                bits=bits,
                verification_queries=verifications,
            )
        if not pending:
            raise SearchFailure(
                "all branch candidates failed verification",
                reason="exhausted",
                total_runs=total_runs,
                branch_events=branch_events,
            )
        bits = pending.pop()
