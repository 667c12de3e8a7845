"""Filter predicate, correlation operation, two-run averaging, bit extraction."""

import ast
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    bit_of,
    filtered_ev_formula,
    generator_state,
    low_bits,
    random_marked_locations,
    record_generators,
    uniform_over,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_ev import (
    EnsembleModel,
    MarkedSet,
    SearchFailure,
    attenuation,
    decide_sign,
    extract_location,
    make_plan,
    measure_classes,
)
from grover_ev import filtering, measurement
from grover_ev.core import (
    READ,
    StateVector,
    apply_grover,
    closed_form_state,
    new_uniform,
)
from grover_ev.filtering import apply_correlation
from grover_ev.measurement import measure_all

EXACT = EnsembleModel()
run_generator = measurement._run_generator


def filtered_out(labels, s_bits):
    """Which labels the correlation for prefix ``s_bits`` flips: the filter
    is 1 on them, 0 on the labels whose low bits match the prefix."""
    target = len(s_bits) + 1
    prefix = sum(b << i for i, b in enumerate(s_bits))
    moved = filtering._correlated_labels(np.asarray(labels), target, prefix)
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
                for m in range(1, make_plan(n, m_count, 0.0).m_stand + 1):
                    state = apply_grover(state, marked)
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


def prefix_key(prefix, stage, qubits):
    """The ``qubits``-bit key whose top ``stage`` bits spell ``prefix`` from
    qubit 1 down, the rest 0: a label's key is ``prefix_key(label, L, L)``."""
    return sum((prefix >> i & 1) << (qubits - 1 - i) for i in range(stage))


def check_stage_against_formula(locations, n, m, atol):
    """Check ``filtering._stage``, driven through the search's reader, under
    exact readout at every anchor and stage against the enumeration formula
    scaled by A_m, within 1e-12 relative or ``atol``.  A tie is exactly 0 on
    both sides, so the bit is the formula's sign.  Returns the number of
    stages checked."""
    marked = MarkedSet(locations, n)
    plain, correlated = measurement._search_runs(marked, m, EXACT)
    assert plain == measure_classes(marked, m, EXACT)
    qubits = len(plain)
    scale = attenuation(n, len(locations), m)
    for anchor in locations:
        for stage in range(qubits):
            prefix = anchor & ((1 << stage) - 1)
            key = prefix_key(prefix, stage, qubits)
            ev, bit = filtering._stage(plain, correlated, key, stage, 0.0)
            expected = filtered_ev_formula(
                locations, low_bits(anchor, stage), stage + 1, scale
            )
            case = (locations, m, anchor, stage)
            assert ev == pytest.approx(expected, rel=1e-12, abs=atol), case
            assert bit == decide_sign(expected, 0.0), case
    return len(locations) * qubits


def test_stage_ev_matches_formula_on_every_small_set():
    # The production stage, not the dense average: every marked set of size
    # <= 3 at N = 16, every m up to m_stand, every anchor and stage, against
    # the paper's filtered EV, A_m / M times the signed consistent count.
    cases = 0
    for m_count in (1, 2, 3):
        for locations in itertools.combinations(range(16), m_count):
            for m in range(1, make_plan(16, m_count, 0.0).m_stand + 1):
                cases += check_stage_against_formula(locations, 16, m, 1e-12)
    assert cases == 8832


def test_stage_ev_matches_formula_at_62_qubits():
    # No dense state exists at L = 62.  A_m is about 7e-18 at m = 1, so the
    # stage EVs of a random set are checked relative to it alone.
    n = 1 << 62
    locations = random_marked_locations(np.random.default_rng(62), n, 4)
    m_stand = make_plan(n, 4, 0.0).m_stand
    for m in (1, m_stand // 3, m_stand):
        assert check_stage_against_formula(locations, n, m, 0.0) == 4 * 62


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(2, 62), st.data())
def test_stage_count_reads_as_the_moved_labels(qubits, data):
    # The reader reads a correlated run off one count, found by bisecting
    # the sorted keys.  A stage's EV, and every draw the reader makes, are
    # bit for bit those _read and _read_one give from one generator: the
    # plain run, then the target's ones over the marked labels the
    # correlation moves, counted here, exact or sampled, with or without
    # noise, at every L up to 62.  Labels one bit flip apart share long
    # prefixes, so deep stages keep several labels.  The reader rejects a
    # state past the crossing before any draw.
    n = 1 << qubits
    free = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    flips = data.draw(st.lists(st.tuples(st.sampled_from(free), st.integers(0, qubits - 1)),
                               max_size=8))
    locations = sorted({*free, *(label ^ 1 << bit for label, bit in flips)})[: n - 1]
    marked, m = MarkedSet(tuple(locations), n), data.draw(st.integers(0, 40))
    a_m = attenuation(n, marked.count, m)
    stage = data.draw(st.integers(1, qubits - 1))
    anchor = data.draw(st.one_of(st.sampled_from(locations), st.integers(0, n - 1)))
    prefix = anchor & ((1 << stage) - 1)
    model = EnsembleModel(shots=data.draw(st.sampled_from((0, 64, 4096, 10**12))),
                          seed=data.draw(st.integers(0, 2**64 - 1)),
                          gaussian_noise_sigma=data.draw(st.sampled_from((0.0, 0.05))))
    with pytest.MonkeyPatch.context() as patch:
        built = record_generators(patch)
        if a_m < 0:
            with pytest.raises(ValueError, match=f"^at m = {m} a marked label weighs less"):
                measurement._search_runs(marked, m, model)
            assert built == []
            return
        plain, correlated = measurement._search_runs(marked, m, model)
        ev, bit = filtering._stage(plain, correlated, prefix_key(prefix, stage, qubits),
                                   stage, 0.0)
    moved = filtering._correlated_labels(np.array(marked.locations), stage + 1, prefix)
    moved_ones = sum(int(label) >> stage & 1 for label in moved)
    label_bits = np.array([[label >> i & 1 for i in range(qubits)] for label in locations])
    reference = run_generator(model)
    assert plain == measurement._read(a_m, model, label_bits.sum(axis=0).tolist(),
                                      label_bits, reference)
    target_ev = measurement._read_one(a_m, marked.count, model, moved_ones, reference)
    expected = (plain[stage] + target_ev) / 2.0
    assert ev == expected and bit == decide_sign(expected, 0.0)
    (rng,) = built or [None]
    if rng is not None:
        assert rng.key == (model.seed, READ, 0)
        assert generator_state(rng) == generator_state(reference)


@pytest.mark.parametrize("model", [EXACT, EnsembleModel(shots=1024, seed=1),
                                   EnsembleModel(shots=1024, seed=2, gaussian_noise_sigma=0.05)],
                         ids=["exact", "sampled", "noisy"])
def test_search_moves_no_label(monkeypatch, model):
    # Every correlated run is read off a count, so a search, branching and
    # backtracking included, verifies a location with the label map gone.
    # At m = 2, (2, 7, 8, 13) on 16 labels is back at equal weights: every EV
    # is 0, so the exact search branches on every tie, and a sampled search
    # would read noise alone.  The noisy models read that set at m = 1, where
    # every shot lands on a marked label.
    tied_m = 2 if model == EXACT else 1

    def refuse(*args, **kwargs):
        raise AssertionError("the search moved a label")

    monkeypatch.setattr(filtering, "_correlated_labels", refuse)
    for locations, n, m in [((3, 77, 200), 256, 3), ((40503,), 1 << 16, 59),
                            ((2, 7, 8, 13), 16, tied_m), ((5, 6), 64, 2)]:
        result = extract_location(MarkedSet(locations, n), m, model, 0.0)
        assert result.location in locations


# ------------------------------------------------------------- bit extraction

def test_extract_single_item_no_branching():
    result = extract_location(MarkedSet((5,), 8), 2, EXACT, 0.25)
    assert result.location == 5
    assert result.total_runs == 3
    assert result.branch_events == 0
    # two iterates per run plus one verification query
    assert result.total_oracle_invocations == 2 * 3 + 1


def test_extract_location_reads_only_the_readers_evs(monkeypatch):
    # The search loop sees EVs alone.  A stub reader's plain run spells
    # location 7 (bits 1, 1, 1, 0 from qubit 1) except at stage 2, which
    # ties at 0 in both runs: the search branches there, tries bit 0 first,
    # fails verification on 3, backtracks and verifies 7.  Each correlated
    # read is asked for by (stage, key), the key holding the prefix bits from
    # qubit 1 down in its top bits.
    plain = [-0.5, -0.5, 0.0, 0.5]
    asked, reads = [], []

    def correlated(stage, key):
        reads.append((stage, key))
        return plain[stage]

    def stub_reader(marked, iterations, model):
        asked.append((marked, iterations, model))
        return plain, correlated

    monkeypatch.setattr(filtering, "_search_runs", stub_reader)
    marked, model = MarkedSet((7,), 16), EnsembleModel(shots=64, seed=5)
    result = extract_location(marked, 3, model, 0.0)
    assert asked == [(marked, 3, model)]
    assert reads == [(1, 0b1000), (2, 0b1100), (3, 0b1100), (3, 0b1110)]
    assert (result.location, result.total_runs, result.branch_events,
            result.verification_queries, result.total_oracle_invocations) == (7, 5, 1, 2, 17)


def test_extract_branches_on_split_bit():
    # {1, 5} agree on bits 1-2 and split on bit 3: the stage-3 EV vanishes,
    # branching tries bit 0 first and verification confirms location 1.
    result = extract_location(MarkedSet((1, 5), 8), 1, EXACT, 0.25)
    assert result.location == 1
    assert result.branch_events == 1


def test_extract_survives_devastating_cancellation():
    # {3, 5} split already on bit 2, the classic cancellation case.
    result = extract_location(MarkedSet((3, 5), 8), 1, EXACT, 0.2)
    assert result.location in (3, 5)
    assert result.branch_events >= 1


def test_extract_counts_runs_without_branching():
    for n, location in [(8, 5), (16, 11), (64, 37)]:
        qubits = n.bit_length() - 1
        m = make_plan(n, 1, 0.25).m_trunc
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
            m = make_plan(n, m_count, 0.25).m_trunc
            for locations in itertools.combinations(range(n), m_count):
                result = extract_location(MarkedSet(locations, n), m, EXACT, 0.25)
                assert result.location in locations, (n, locations)


def test_extract_deterministic_with_sampling():
    marked = MarkedSet((37,), 64)
    model = EnsembleModel(shots=4096, seed=11)
    first = extract_location(marked, 3, model, 0.2)
    second = extract_location(marked, 3, model, 0.2)
    assert first == second


def test_extract_failure_exhausts_branches():
    # Two shots per run cannot reliably decide signs; seed 20 mis-decides
    # an early bit, prunes the true subtree, and runs out of candidates
    # after one branch and 3 runs.
    model = EnsembleModel(shots=2, seed=20)
    with pytest.raises(SearchFailure) as excinfo:
        extract_location(MarkedSet((5,), 8), 1, model, 0.0)
    assert excinfo.value.reason == "exhausted"
    assert excinfo.value.total_runs >= 3


def test_extract_stops_at_the_run_budget():
    # Two shots per run again, at L = 8: seed 15 keeps mis-deciding bits and
    # backtracking until the search has spent its 4 L = 32 runs.
    model = EnsembleModel(shots=2, seed=15)
    with pytest.raises(SearchFailure) as excinfo:
        extract_location(MarkedSet((77,), 256), 3, model, 0.0)
    assert excinfo.value.reason == "budget"
    assert excinfo.value.total_runs == filtering.RUN_BUDGET_PER_QUBIT * 8 == 32
    assert excinfo.value.branch_events > 0


def test_extract_validates_arguments():
    with pytest.raises(ValueError):
        extract_location(MarkedSet((5,), 8), 0, EXACT, 0.25)
    with pytest.raises(ValueError):
        extract_location(MarkedSet((5,), 8), 1, EXACT, -0.1)
    # A NaN threshold decides no stage; the first stage must raise, not
    # branch on every bit until the run budget is spent.
    with pytest.raises(ValueError, match="threshold must be >= 0, got nan"):
        extract_location(MarkedSet((5,), 64), 2, EXACT, float("nan"))


@pytest.mark.parametrize("model", [EXACT, EnsembleModel(shots=4096, seed=1),
                                   EnsembleModel(seed=1, gaussian_noise_sigma=0.05)],
                         ids=["exact", "sampled", "noisy"])
def test_extract_rejects_states_past_the_crossing(monkeypatch, model):
    # Where a marked label weighs less than an unmarked one (m = 3 past
    # m_stand = 1, or M > N/2 at m = 1) no EV sign names a marked bit, so
    # the search raises before its first run, under any readout.
    def refuse(*args, **kwargs):
        raise AssertionError("the search read a run")

    for name in ("stream", "_read", "_read_one"):
        monkeypatch.setattr(measurement, name, refuse)
    for locations, n, m in [((3, 9, 12), 16, 3), ((0, 1, 2), 4, 1), ((1, 2, 4, 6, 7), 8, 1)]:
        with pytest.raises(ValueError, match=f"^at m = {m} a marked label weighs less"):
            extract_location(MarkedSet(locations, n), m, model, 0.0)


def test_extract_runs_states_back_at_equal_weights():
    # At M = N/2 (every m), or M/N = 1/4 at m = 2, every label weighs the
    # same: every EV is 0, so every stage branches, and the exact search
    # still verifies a marked label by backtracking.
    for locations, n, m in [((1, 3, 5, 7, 9, 11, 13, 15), 16, 1), ((0, 3), 4, 3),
                            ((2, 7, 8, 13), 16, 2)]:
        assert attenuation(n, len(locations), m) == 0.0
        result = extract_location(MarkedSet(locations, n), m, EXACT, 0.0)
        assert result.location in locations
        assert result.branch_events >= n.bit_length() - 1


def test_search_result_json_schema():
    result = extract_location(MarkedSet((5,), 8), 2, EXACT, 0.25)
    payload = json.loads(json.dumps(result.to_json_dict(3)))
    assert payload == {
        "location": 5,
        "verified": True,
        "total_runs": 3,
        "oracle_invocations": 7,
        "branch_events": 0,
        "bits": [1, 0, 1],
    }
    assert result.to_json_dict(4)["bits"] == [1, 0, 1, 0]


def test_correlated_runs_read_only_their_target_qubit(monkeypatch):
    # L = 16 with one marked label; at this threshold the search branches
    # 34 times and backtracks through 33 verifications in 47 runs, inside the
    # 4 L budget.  It builds one generator, the stream (1, READ, 0), and every
    # run reads from it in turn: the plain run its counts and noise on every
    # qubit, then each correlated run, read by the one-qubit reader, one
    # binomial count and one noise value.
    qubits = 16
    reads = []
    read, read_one = measurement._read, measurement._read_one

    def counted_reads(a, model, ones, bits, rng):
        reads.append(("_read", list(ones), rng))
        return read(a, model, ones, bits, rng)

    def counted_one(a, size, model, ones, rng):
        reads.append(("_read_one", None, rng))
        return read_one(a, size, model, ones, rng)

    monkeypatch.setattr(measurement, "_read", counted_reads)
    monkeypatch.setattr(measurement, "_read_one", counted_one)
    built = record_generators(monkeypatch)
    model = EnsembleModel(shots=1024, seed=1, gaussian_noise_sigma=0.05)
    result = extract_location(MarkedSet((40503,), 1 << qubits), 59, model, 0.16)
    assert result.location == 40503 and result.branch_events > 0
    runs = result.total_runs
    assert runs > qubits
    (rng,) = built
    assert rng.key == (1, READ, 0) and all(run_rng is rng for *_, run_rng in reads)
    assert reads[0][:2] == ("_read", [40503 >> i & 1 for i in range(qubits)])
    assert [reader for reader, *_ in reads[1:]] == ["_read_one"] * (runs - 1)
    draws = [(name, draw.size) for name, draw in rng.draws]
    assert draws == [("binomial", 1), ("binomial", qubits), ("multinomial", 1),
                     ("normal", qubits)] + [("binomial", 1), ("normal", 1)] * (runs - 1)


@pytest.mark.parametrize("locations, n, m, model", [
    ((40503,), 1 << 16, 59, EnsembleModel(shots=1024, seed=28, gaussian_noise_sigma=0.05)),
    ((3, 77, 200), 256, 3, EnsembleModel(shots=1024, seed=1)),
    ((3, 9, 12), 16, 2, EnsembleModel(shots=64, seed=2**64 - 1)),
    ((5, 6), 64, 2, EnsembleModel(seed=7, gaussian_noise_sigma=0.05)),
], ids=["M1-noisy", "M3", "past-m_stand", "exact-noisy"])
def test_sampled_search_plain_run_reads_as_measure_classes(monkeypatch, locations, n, m, model):
    # A search's one generator is default_rng(seed) and the plain run reads
    # from it first, so the plain run's EVs are, bit for bit, those one
    # measure_classes call reads from the same state and model.  At N = 16,
    # M = 3, m = 2 is past m_stand = 1 with a marked label still the heavier.
    reads = []
    read = measurement._read

    def recorded(*args, **kwargs):
        evs = read(*args, **kwargs)
        reads.append(evs)
        return evs

    monkeypatch.setattr(measurement, "_read", recorded)
    marked = MarkedSet(locations, n)
    try:
        extract_location(marked, m, model, 0.0)
    except SearchFailure:
        pass
    assert reads[0] == measure_classes(marked, m, model)
    assert len(reads[0]) == n.bit_length() - 1


def test_filtering_reads_no_label_table():
    # The search loop reads EVs through one reader: filtering imports from
    # measurement only the model, the sign rule, the reader and the dense
    # readout the benchmark's tracer wraps there, and no bisection.
    tree = ast.parse(Path(filtering.__file__).read_text())
    from_measurement, imported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            if node.module == "measurement" and node.level == 1:
                from_measurement.update(alias.name for alias in node.names)
    assert from_measurement == {"EnsembleModel", "decide_sign", "_search_runs", "measure_all"}
    assert "bisect" not in imported
