"""Filter predicate, correlation operation, two-run averaging, bit extraction."""

import itertools
import json
import math

import numpy as np
import pytest
from conftest import (
    bit_of,
    filtered_ev_formula,
    low_bits,
    random_marked_locations,
    uniform_over,
)

from grover_ev import (
    EnsembleModel,
    FilterState,
    MarkedSet,
    OracleLedger,
    SearchFailure,
    StateVector,
    apply_correlation,
    apply_grover,
    attenuation,
    closed_form_state,
    extract_location,
    m_standard,
    m_truncated,
    measure_all,
    new_uniform,
)
from grover_ev import filtering, measurement

EXACT = EnsembleModel()


def filtered_out(labels, s_bits):
    """Which labels the correlation for prefix ``s_bits`` flips: the filter
    is 1 on them, 0 on the labels whose low bits match the prefix."""
    target = len(s_bits) + 1
    moved = filtering._correlated_labels(np.asarray(labels), target, FilterState(s_bits))
    return [int(m != x) for m, x in zip(moved, labels)]


# ----------------------------------------------------------- filter predicate

def test_filter_single_bit_truth_table():
    # Labels 0..3 carry low bit 0, 1, 0, 1.
    assert filtered_out(range(4), (0,)) == [0, 1, 0, 1]
    assert filtered_out(range(4), (1,)) == [1, 0, 1, 0]


def test_filter_two_bit_truth_table():
    # Low two bits, least significant first: (0,0), (1,0), (0,1), (1,1).
    assert filtered_out(range(8), (1, 0)) == [1, 0, 1, 1, 1, 0, 1, 1]


def test_filter_zero_on_exact_match():
    rng = np.random.default_rng(31)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=k))
        high = int(rng.integers(0, 1 << 8))
        label = (high << k) | sum(b << i for i, b in enumerate(bits))
        assert filtered_out([label], bits) == [0]


# ---------------------------------------------------------------- correlation

def test_correlation_leaves_matching_prefix():
    # |01> has qubit 1 equal to the determined bit, so nothing moves.
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0
    state = apply_correlation(StateVector(2, amps), 2, (1,))
    assert np.allclose(state.amplitudes, amps, atol=1e-15)


def test_correlation_flips_mismatched_prefix():
    # |00> misses the determined bit, so qubit 2 flips: |00> -> |10>.
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    state = apply_correlation(StateVector(2, amps), 2, (1,))
    expected = np.zeros(4, dtype=complex)
    expected[2] = 1.0
    assert np.allclose(state.amplitudes, expected, atol=1e-15)


def test_correlation_is_involution():
    rng = np.random.default_rng(41)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    state = StateVector(4, amps)
    twice = apply_correlation(apply_correlation(state, 3, (1, 0)), 3, (1, 0))
    assert np.max(np.abs(twice.amplitudes - state.amplitudes)) <= 1e-12


def test_correlation_matches_per_label_filter():
    # The vectorized permutation must agree with a literal per-label
    # evaluation of the filter function.
    rng = np.random.default_rng(43)
    qubits = 4
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    state = StateVector(qubits, amps)
    for prefix_len in range(1, qubits):
        target = prefix_len + 1
        for s_bits in itertools.product((0, 1), repeat=prefix_len):
            moved = apply_correlation(state, target, s_bits)
            expected = np.empty_like(amps)
            for label in range(16):
                if low_bits(label, prefix_len) != tuple(s_bits):
                    expected[label] = amps[label ^ (1 << (target - 1))]
                else:
                    expected[label] = amps[label]
            assert np.max(np.abs(moved.amplitudes - expected)) <= 1e-15


def test_correlation_validates_arguments():
    state = new_uniform(3)
    with pytest.raises(ValueError):
        apply_correlation(state, 2, ())
    with pytest.raises(ValueError):
        apply_correlation(state, 3, (1,))  # target must extend the prefix
    with pytest.raises(ValueError):
        apply_correlation(state, 4, (1, 0, 1))  # target beyond register
    with pytest.raises(ValueError):
        apply_correlation(state, 2, (2,))


def test_correlation_preserves_other_qubit_evs():
    # The operation only touches the target qubit, so every other EV is
    # unchanged between the plain and correlated runs.
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = 32
        marked = MarkedSet(random_marked_locations(rng, n, 3), n)
        state = closed_form_state(5, marked, int(rng.integers(0, 3)))
        prefix_len = int(rng.integers(1, 5))
        target = prefix_len + 1
        s_bits = tuple(int(b) for b in rng.integers(0, 2, size=prefix_len))
        plain = measure_all(state, EXACT)
        correlated = measure_all(apply_correlation(state, target, s_bits), EXACT)
        for k in range(1, 6):
            if k != target:
                assert abs(plain[k - 1] - correlated[k - 1]) <= 1e-12


# ------------------------------------------------------------------ averaging

def two_run_average(state, target, s_bits):
    """The stage EV: the target qubit's exact EV, averaged over the plain
    and the correlated run."""
    plain = measure_all(state, EXACT)
    correlated = measure_all(apply_correlation(state, target, s_bits), EXACT)
    return (plain[target - 1] + correlated[target - 1]) / 2.0


def test_averaging_restores_split_signal():
    # Ideal final state over {1, 5}: both members share bit 2 = 0, so the
    # filtered EV at stage 2 is the full +1 even though bit 3 later splits.
    state = StateVector(3, uniform_over(3, (1, 5)))
    assert two_run_average(state, 2, (1,)) == pytest.approx(1.0, abs=1e-12)
    assert two_run_average(state, 3, (1, 0)) == pytest.approx(0.0, abs=1e-12)


def test_averaging_trivial_for_single_item():
    marked = MarkedSet((11,), 16)
    for m in (1, 2, 3):
        state = closed_form_state(4, marked, m)
        expected = attenuation(16, 1, m) * (-1) ** bit_of(11, 2)
        plain = measure_all(state, EXACT)
        assert two_run_average(state, 2, low_bits(11, 1)) == pytest.approx(
            plain[1], abs=1e-12
        )
        assert plain[1] == pytest.approx(expected, abs=1e-12)


def test_averaging_enumeration_oracle_ideal_states():
    # Exhaustive against direct enumeration of the filtered subset, for all
    # marked sets of size <= 3 over a 16-item database, prefixes taken from
    # each member's own bits.
    qubits = 4
    for m_count in (1, 2, 3):
        for locations in itertools.combinations(range(16), m_count):
            state = StateVector(qubits, uniform_over(qubits, locations))
            for anchor in locations:
                for prefix_len in range(1, qubits):
                    target = prefix_len + 1
                    s_bits = low_bits(anchor, prefix_len)
                    expected = filtered_ev_formula(locations, s_bits, target, 1.0)
                    assert two_run_average(state, target, s_bits) == pytest.approx(
                        expected, abs=1e-12
                    ), (locations, anchor, prefix_len)


def test_averaging_enumeration_oracle_truncated_states():
    # Same check on genuinely iterated (attenuated) states: the averaged EV
    # equals the enumeration result scaled by the attenuation.
    rng = np.random.default_rng(53)
    for n in (8, 16, 32):
        qubits = n.bit_length() - 1
        for m_count in (1, 2, 3):
            for _ in range(10):
                locations = random_marked_locations(rng, n, m_count)
                marked = MarkedSet(locations, n)
                state = new_uniform(qubits)
                ledger = OracleLedger()
                for m in range(1, m_standard(n, m_count) + 1):
                    state = apply_grover(state, marked, ledger)
                    anchor = int(rng.choice(locations))
                    prefix_len = int(rng.integers(1, qubits))
                    target = prefix_len + 1
                    s_bits = low_bits(anchor, prefix_len)
                    expected = filtered_ev_formula(
                        locations, s_bits, target, attenuation(n, m_count, m)
                    )
                    assert two_run_average(state, target, s_bits) == pytest.approx(
                        expected, abs=1e-10
                    )


# ------------------------------------------------------------- bit extraction

def test_extract_single_item_no_branching():
    result = extract_location(MarkedSet((5,), 8), 2, EXACT, 0.25)
    assert result.location == 5 and result.verified
    assert result.total_runs == 3
    assert result.branch_events == 0
    assert result.bits == (1, 0, 1)
    # two iterates per run plus one verification query
    assert result.total_oracle_invocations == 2 * 3 + 1


def test_extract_branches_on_split_bit():
    # {1, 5} agree on bits 1-2 and split on bit 3: the stage-3 EV vanishes,
    # branching tries bit 0 first and verification confirms location 1.
    result = extract_location(MarkedSet((1, 5), 8), 1, EXACT, 0.25)
    assert result.location == 1 and result.verified
    assert result.branch_events == 1
    assert result.bits == (1, 0, 0)


def test_extract_survives_devastating_cancellation():
    # {3, 5} split already on bit 2, the classic cancellation case.
    result = extract_location(MarkedSet((3, 5), 8), 1, EXACT, 0.2)
    assert result.verified and result.location in (3, 5)
    assert result.branch_events >= 1


def test_extract_counts_runs_without_branching():
    for n, location in [(8, 5), (16, 11), (64, 37)]:
        qubits = n.bit_length() - 1
        m = m_truncated(n, 1, 0.25)
        result = extract_location(MarkedSet((location,), n), m, EXACT, 0.25)
        assert result.location == location
        assert result.total_runs == qubits
        assert result.branch_events == 0
        assert result.total_oracle_invocations == m * qubits + 1


def test_extract_exhaustive_small_databases():
    # Exact model, truncated iterate count: every marked set of size <= 3
    # must yield a verified member.
    for n in (8, 16, 32):
        for m_count in (1, 2, 3):
            m = m_truncated(n, m_count, 0.25)
            for locations in itertools.combinations(range(n), m_count):
                result = extract_location(MarkedSet(locations, n), m, EXACT, 0.25)
                assert result.verified and result.location in locations, (
                    n, locations,
                )


def test_extract_deterministic_with_sampling():
    marked = MarkedSet((37,), 64)
    model = EnsembleModel(shots=4096, seed=11)
    first = extract_location(marked, 3, model, 0.2)
    second = extract_location(marked, 3, model, 0.2)
    assert first == second


def test_extract_failure_exhausts_branches():
    # Two shots per run cannot reliably decide signs; seed 113 mis-decides
    # an early bit, prunes the true subtree, and runs out of candidates.
    model = EnsembleModel(shots=2, seed=113)
    with pytest.raises(SearchFailure) as excinfo:
        extract_location(MarkedSet((5,), 8), 1, model, 0.0)
    assert excinfo.value.total_runs >= 3


def test_extract_validates_arguments():
    with pytest.raises(ValueError):
        extract_location(MarkedSet((5,), 8), 0, EXACT, 0.25)
    with pytest.raises(ValueError):
        extract_location(MarkedSet((5,), 8), 1, EXACT, -0.1)


def test_search_result_json_schema():
    result = extract_location(MarkedSet((5,), 8), 2, EXACT, 0.25)
    payload = json.loads(json.dumps(result.to_json_dict()))
    assert payload == {
        "location": 5,
        "verified": True,
        "total_runs": 3,
        "oracle_invocations": 7,
        "branch_events": 0,
        "bits": [1, 0, 1],
    }


def test_filter_state_tracks_stage():
    state = FilterState()
    assert state.stage == 0
    extended = state.extended(1).extended(0)
    assert extended.determined_bits == (1, 0)
    assert extended.stage == 2
    assert (state.value, extended.value, extended.extended(1).value) == (0, 1, 5)
    with pytest.raises(ValueError):
        FilterState((2,))


def test_filter_state_checks_each_bit_once(monkeypatch):
    with pytest.raises(ValueError):
        FilterState((0, 1, -1))
    with pytest.raises(ValueError):
        FilterState((1, 0)).extended(2)
    prefix = FilterState((1, 0, 1))
    checks = []
    monkeypatch.setattr(FilterState, "__post_init__", lambda self: checks.append(self))
    for bit in (0, 1) * 20:
        prefix = prefix.extended(bit)
    assert checks == []
    monkeypatch.undo()
    # An extended prefix is the same value a direct construction gives.
    direct = FilterState((1, 0, 1) + (0, 1) * 20)
    assert prefix == direct and hash(prefix) == hash(direct)
    assert prefix.stage == 43
    assert prefix.value == direct.value == sum(b << i for i, b in enumerate(direct.determined_bits))


def test_correlated_runs_read_only_their_target_qubit(monkeypatch):
    # L = 16 with one marked label; at this threshold about 1,100 runs
    # branch and backtrack.  Every run goes through measure_classes, and a
    # correlated run must still read one qubit.
    qubits = 16
    reads, widths, noise = [], [], []
    measure_classes = filtering.measure_classes
    label_evs = measurement._label_evs
    readout_noise = measurement._readout_noise

    def counted_reads(state, model, qubit_list):
        reads.append(list(qubit_list))
        return measure_classes(state, model, qubit_list)

    def counted_label_evs(labels, qubit_list):
        widths.append(len(qubit_list))
        return label_evs(labels, qubit_list)

    def counted_noise(model, k):
        noise.append(k)
        return readout_noise(model, k)

    monkeypatch.setattr(filtering, "measure_classes", counted_reads)
    monkeypatch.setattr(measurement, "_label_evs", counted_label_evs)
    monkeypatch.setattr(measurement, "_readout_noise", counted_noise)
    model = EnsembleModel(shots=1024, seed=7, gaussian_noise_sigma=0.05)
    result = extract_location(MarkedSet((40503,), 1 << qubits), 59, model, 0.16)
    assert result.location == 40503 and result.branch_events > 0
    runs = result.total_runs
    assert runs > qubits
    assert reads[0] == list(range(1, qubits + 1)) and len(reads) == runs
    assert all(len(read) == 1 for read in reads[1:])
    assert widths == [qubits] + [1] * (runs - 1)
    assert len(noise) == qubits + runs - 1

