"""The search's two-amplitude readout, checked against the dense reference.

The dense side is the statevector path: the iterated register (or its
closed form), the correlation applied as a permutation of amplitudes, and
``measure_all``.
The images of the marked labels under the correlation are recomputed here
from the prefix bits, independently of the implementation.  Exact readouts
must agree with the dense ones to rounding.  Sampled readouts are drawn by
counts, so they are checked in distribution: per-qubit counts and pairwise
count covariances against their closed form over the Born weights, and
sign-error rates against the exact binomial tail.  Each such test uses
fixed seeds and states its power.
"""

import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    EXACT_ATOL,
    assert_counts_match,
    assert_rate_matches,
    bit_of,
    class_born_weights,
    count_check_power,
    generator_state,
    low_bits,
    ones_probabilities,
    record_generators,
    reference_extract_location,
    sign_error_probability,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grover_ev import (
    ClassState,
    EnsembleModel,
    MarkedSet,
    SearchFailure,
    attenuation,
    class_state,
    extract_location,
    make_plan,
    measure_classes,
    sign_error_rate,
)
from grover_ev import measurement
from grover_ev.cli import main
from grover_ev.core import (
    ROW,
    StateVector,
    apply_grover,
    class_amplitudes,
    closed_form_state,
    grover_angle,
    new_uniform,
)
from grover_ev.filtering import apply_correlation
from grover_ev.measurement import (
    _BLOCK_DRAWS,
    _label_evs,
    measure_all,
    sampled_ev,
)

EXACT = EnsembleModel()


def dense_state(marked, iterations):
    state = new_uniform(marked.universe_size.bit_length() - 1)
    for _ in range(iterations):
        state = apply_grover(state, marked)
    return state


def class_weights(universe_size, marked_count, iterations):
    """The Born weight of one marked and of one unmarked label, from the
    dense reference's two amplitudes."""
    on, off = class_amplitudes(universe_size, marked_count, iterations)
    return on * on, off * off


def reads_of(state, model, reads):
    """The per-qubit ones of ``reads`` whole runs of ``state`` at consecutive
    seeds from ``model.seed`` (mod 2**64), one row per run."""
    rows = []
    for t in range(reads):
        run = replace(model, seed=(model.seed + t) % 2**64)
        evs = np.array(measure_classes(state, run))
        rows.append(np.rint((1.0 - evs) * model.shots / 2.0))
    return np.array(rows)


def ones_of(state, k):
    """How many of the state's marked labels have bit k set."""
    return sum(bit_of(int(label), k) for label in state.heavy)


def one_qubit_evs(state, model, k, reads):
    """Qubit k's EVs of ``reads`` one-qubit runs of ``state``, read by
    ``_read_one`` from generators seeded ``model.seed + t`` (mod 2**64)."""
    ones = ones_of(state, k)
    evs = []
    for t in range(reads):
        run = replace(model, seed=(model.seed + t) % 2**64)
        evs.append(measurement._read_one(state, run, ones, measurement._run_generator(run)))
    return np.array(evs)


def one_trial_blocks(marked, iterations, k, model, trials):
    """``sign_error_rate`` with ``_BLOCK_DRAWS`` at 1: its rate, every trial's
    EV, and the one generator it builds, row 0's stream (None when it builds
    none).  A block read as EVs is recorded as it is held to the readout
    bound; a noiseless block of counts, scored on the counts and held to
    [0, shots] instead, reaches no bound check, so its EV is rebuilt from its
    recorded count by ``_count_evs``."""
    evs = []
    check = measurement._check_ev_bound

    def recorded_check(block, sigma):
        evs.extend(block.tolist())
        return check(block, sigma)

    with pytest.MonkeyPatch.context() as patch:
        built = record_generators(patch)
        patch.setattr(measurement, "_BLOCK_DRAWS", 1)
        patch.setattr(measurement, "_check_ev_bound", recorded_check)
        rate = sign_error_rate(marked, iterations, k, model, trials=trials)
    (rng,) = built or [None]
    assert rng is None or rng.key == (model.seed, ROW, 0)
    if model.shots and not model.gaussian_noise_sigma:
        assert evs == [] and {name for name, _ in rng.draws} == {"binomial"}
        counts = np.concatenate([draw for _, draw in rng.draws])
        evs = measurement._count_evs(counts, model.shots).tolist()
    return rate, evs, rng


def assert_trials_are_one_qubit_reads(marked, iterations, k, model, trials):
    """A rate read one trial per block is ``trials`` successive ``_read_one``
    reads from one stream, ``(seed, ROW, 0)`` (one read when exact and
    noiseless), each a Python float: each trial's EV bit for bit, the rate
    as their wrong-sign share, and both generators in the same state at the
    end.  Returns the reads."""
    state = class_state(marked, iterations)
    ones = ones_of(state, k)
    rate, evs, rng = one_trial_blocks(marked, iterations, k, model, trials)
    reference = measurement._run_generator(model, ROW, 0)
    reads = [measurement._read_one(state, model, ones, reference)
             for _ in range(trials if reference else 1)]
    assert all(type(read) is float for read in reads)
    assert [ev.hex() for ev in evs] == [read.hex() for read in reads]
    truth = np.sign(measurement._read_one(state, EXACT, ones, None))
    assert rate == sum(np.sign(read) != truth for read in reads) / len(reads)
    if reference is not None:
        assert generator_state(rng) == generator_state(reference)
    return reads


def correlated_image(label, target, s_bits):
    """The label the correlation sends ``label`` to."""
    if low_bits(label, len(s_bits)) == tuple(s_bits):
        return label
    return label ^ (1 << (target - 1))


@st.composite
def marked_runs(draw):
    """A marked set with L <= 10 and M <= 4, an iterate count, and every
    correlated run whose prefix is the low bits of a marked label or of one
    more drawn label: ``(correlation, dense state, heavy labels)`` triples,
    where the correlation is ``(target, s_bits)`` and None for the plain run,
    which comes first."""
    qubits = draw(st.integers(1, 10))
    n = 1 << qubits
    count = draw(st.integers(1, min(4, n - 1)))
    locations = draw(
        st.lists(st.integers(0, n - 1), min_size=count, max_size=count, unique=True)
    )
    probe = draw(st.integers(0, n - 1))
    iterations = draw(st.integers(0, 12))
    marked = MarkedSet(tuple(locations), n)
    plain = dense_state(marked, iterations)
    runs = [(None, plain, np.array(marked.locations))]
    prefixes = {
        (length + 1, low_bits(anchor, length))
        for anchor in (*marked.locations, probe)
        for length in range(1, qubits)
    }
    for target, s_bits in sorted(prefixes):
        heavy = np.array([correlated_image(x, target, s_bits) for x in marked.locations])
        runs.append(
            ((target, s_bits), apply_correlation(plain, target, s_bits), heavy)
        )
    return qubits, marked, iterations, runs


@settings(max_examples=60, deadline=None)
@given(marked_runs())
def test_exact_readout_matches_dense_reference(case):
    qubits, marked, m, runs = case
    a_m = attenuation(marked.universe_size, marked.count, m)
    for info, dense, heavy in runs:
        expected = measure_all(dense, EXACT)
        got = measure_classes(ClassState(qubits, heavy, a_m), EXACT)
        assert np.max(np.abs(np.subtract(got, expected))) <= EXACT_ATOL, info


def test_sampled_record_matches_dense_record():
    # A whole-register read of a run, by counts on the two-amplitude state
    # and by shot labels on the dense state: over 600 seeds each, every
    # qubit's mean count and every pair's count covariance lie within 5
    # standard errors of the closed form.  Power (asserted below): a p_k off
    # by 1/sqrt(shots) moves some mean by 48 standard errors or more, and in
    # the correlated run letting the qubits of the uniform part, 66% of the
    # shots, share one count moves every covariance by 15 or more.  In the
    # plain runs off^2 ~ 1e-33, so every shot lands on a marked label.
    shots, reads = 1000, 600
    for locations, n, m, correlation in [
        ((3, 9, 12), 64, 1, (3, (1, 1))),
        ((2, 5), 8, 1, None),
        ((2, 5), 8, 7, None),
        ((0, 7), 8, 1, None),
        ((6, 7), 8, 7, None),
    ]:
        marked = MarkedSet(locations, n)
        qubits = range(1, n.bit_length())
        heavy = np.array(locations)
        weights = class_weights(n, marked.count, m)
        dense = dense_state(marked, m)
        if correlation:
            heavy = np.array([correlated_image(x, *correlation) for x in locations])
            dense = apply_correlation(dense, *correlation)
        state = ClassState(len(qubits), heavy, attenuation(n, marked.count, m))
        born = dense.probabilities()
        assert np.max(np.abs(born - class_born_weights(len(qubits), heavy, weights))) <= EXACT_ATOL
        uniform_weight = weights[1] * n
        mean_power, pair_power = count_check_power(born, qubits, shots, reads, uniform_weight)
        assert mean_power > 48 and (pair_power > 15 if correlation else uniform_weight < 1e-30)
        model = EnsembleModel(shots=shots, seed=21)
        assert_counts_match(reads_of(state, model, reads), born, qubits, shots)
        dense_ones = [
            np.rint((1.0 - np.array(measure_all(dense, replace(model, seed=21 + t)))) * shots / 2)
            for t in range(reads)
        ]
        assert_counts_match(np.array(dense_ones), born, qubits, shots)


def test_one_qubit_readout_keeps_the_record_bound():
    # Not a state: both heavy labels have bit 2 clear, so qubit 2 reads 1.5.
    state = ClassState(2, np.array([0, 1]), 1.5)
    with pytest.raises(ValueError, match="EV outside"):
        measure_classes(state, EXACT)
    with pytest.raises(ValueError, match=r"^EV outside \[-1\.0, 1\.0\]: 1\.5$"):
        measurement._read_one(state, EXACT, 0, None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 62), st.data())
def test_one_qubit_reader_is_the_block_reader_on_one_run(qubits, data):
    # A sign-error rate read one trial per block reads, trial by trial, what
    # successive _read_one calls read from one generator, bit for bit and
    # draw for draw: every L up to 62, shots up to 2^60 (3^37 is past 2^53
    # and no float, so a quotient of two ints would round otherwise), with
    # or without noise, and on both sides of the crossing, since a one-qubit
    # read takes every state.
    n = 1 << qubits
    locations = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=min(8, n - 1), unique=True))
    size = len(locations)
    # A marked label weighs less than an unmarked one within half a step of
    # (2m + 1) theta / 2 = pi, where theta = grover_angle.
    past = round(math.pi / grover_angle(n, size) - 0.5)
    iterations = data.draw(st.one_of(st.integers(0, 40), st.just(past)))
    model = EnsembleModel(shots=data.draw(st.sampled_from((0, 64, 4096, 10**12, 2**60, 3**37))),
                          seed=data.draw(st.integers(0, 2**64 - 1)),
                          gaussian_noise_sigma=data.draw(st.sampled_from((0.0, 0.05))))
    assert_trials_are_one_qubit_reads(MarkedSet(tuple(locations), n), iterations,
                                      data.draw(st.integers(1, qubits)), model,
                                      data.draw(st.integers(1, 6)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(1, 62), st.data())
def test_readout_is_the_papers_formula(qubits, data):
    # A two-amplitude state is its attenuation: class_state's is the
    # planner's A_m bit for bit, every exact EV is A_m (M - 2 ones_k) / M bit
    # for bit, and every one-shot chance of a one, (1 - EV) / 2, lies in
    # [0, 1], so a count can be drawn at it: any set of up to 8 labels (M >=
    # N/2 too, at small L), m in 0..40 and the m past the crossing.
    n = 1 << qubits
    locations = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=min(8, n - 1), unique=True))
    size = len(locations)
    past = round(math.pi / grover_angle(n, size) - 0.5)
    iterations = data.draw(st.one_of(st.integers(0, 40), st.just(past)))
    state = class_state(MarkedSet(tuple(locations), n), iterations)
    a_m = attenuation(n, size, iterations)
    assert state.attenuation.hex() == a_m.hex()
    evs = measure_classes(state, EXACT)
    ones = [ones_of(state, k) for k in range(1, qubits + 1)]
    assert [ev.hex() for ev in evs] == [(a_m * (size - 2 * c) / size).hex() for c in ones]
    assert all(0.0 <= (1.0 - ev) / 2.0 <= 1.0 for ev in evs)


@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("locations, n, m, a_m", [
    # M/N = 1/4 at m = 1: A_m = 1, and an unmarked label weighs 0.
    ((1,), 4, 1, 1.0),
    ((0, 5, 6, 11), 16, 1, 1.0),
    # M/N = 3/4 at m = 1 mod 3: A_m = -3, and a marked label weighs 0.
    ((0, 1, 2), 4, 1, -3.0),
    ((0, 1, 2), 4, 4, -3.0),
    ((1, 2, 3, 4, 5, 6), 8, 1, -3.0),
])
def test_zero_weight_states_read_by_counts(locations, n, m, a_m, sigma):
    # Where one label class weighs 0, a one-shot chance of a one is exactly
    # 0 or 1 on a qubit that reads +-1, and numpy draws at it: every
    # sampled read runs, and a qubit whose exact EV is +-1 reads its sign in
    # every trial (the noise is clipped below 1).  A whole run at A_m = 1
    # draws every shot on a marked label; one at A_m = -3 is past the
    # crossing and raises before it draws.
    marked = MarkedSet(locations, n)
    state = class_state(marked, m)
    assert state.attenuation == a_m
    model = EnsembleModel(shots=1024, seed=7, gaussian_noise_sigma=sigma)
    exact = measure_classes(state, EXACT)
    sure = [abs(ev) == 1.0 for ev in exact]
    assert any(sure) or len(locations) > 1
    for k, ev in enumerate(exact, start=1):
        rate = sign_error_rate(marked, m, k, model, trials=50)
        assert rate == 0.0 or not sure[k - 1]
    if a_m < 0:
        with pytest.raises(ValueError, match="weighs less than an unmarked one"):
            measure_classes(state, model)
        return
    got = measure_classes(state, model)
    for read, ev, certain in zip(got, exact, sure):
        assert abs(read - ev) <= 3 * sigma + 1e-12 or not certain


def test_one_qubit_reader_clips_noise_as_the_block_reader():
    # Over 10,000 trials the noise passes 3 sigma about 13 times on each side
    # (at seed 0 it does so on both); every trial, clipped or not, is a
    # _read_one read bit for bit.
    sigma = 0.05
    marked = MarkedSet((3, 9, 12), 16)
    exact = measurement._read_one(class_state(marked, 1), EXACT, 1, None)
    model = EnsembleModel(seed=0, gaussian_noise_sigma=sigma)
    reads = assert_trials_are_one_qubit_reads(marked, 1, 2, model, 10_000)
    clipped = {read > exact for read in reads if abs(read - exact) > 3 * sigma - 1e-12}
    assert clipped == {False, True}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 10), st.data())
def test_whole_runs_match_dense_readout(qubits, data):
    # A whole run: exact readout gives the dense entries to rounding, and
    # sampled readout counts whose means and covariance over 200 seeds lie
    # within 6 standard errors of the closed form over the dense state's
    # Born weights.  Past the crossing (A_m < 0) a sampled run is rejected.
    # Power: a p_k off by 1/sqrt(shots) moves its mean by 2 sqrt(200) = 28
    # standard errors or more.
    n = 1 << qubits
    count = data.draw(st.integers(1, min(4, n - 1)))
    locations = data.draw(
        st.lists(st.integers(0, n - 1), min_size=count, max_size=count, unique=True)
    )
    marked = MarkedSet(tuple(locations), n)
    iterations = data.draw(st.integers(0, 12))
    shots = data.draw(st.sampled_from((0, 64, 1024)))
    model = EnsembleModel(shots=shots, seed=data.draw(st.integers(0, 2**64 - 1)))
    dense = closed_form_state(qubits, marked, iterations)
    state = class_state(marked, iterations)
    a_m = state.attenuation
    if shots == 0:
        got = measure_classes(state, model)
        assert all(type(ev) is float for ev in got)
        assert np.max(np.abs(np.subtract(got, measure_all(dense, model)))) <= EXACT_ATOL
        # Read as Python floats, each is the float64 array expression's EV.
        ones = np.array([ones_of(state, k) for k in range(1, qubits + 1)])
        assert got == (a_m * (count - 2 * ones) / count).tolist()
    elif a_m < 0:
        with pytest.raises(ValueError, match="weighs less than an unmarked one"):
            measure_classes(state, model)
    else:
        ones = reads_of(state, model, 200)
        assert_counts_match(ones, dense.probabilities(), range(1, qubits + 1), shots, bound=6.0)


def test_readout_noise_is_a_clipped_normal_per_qubit():
    # Exact readout with sigma = 0.05 over 2,000 seeds: each qubit's noise
    # stays within 3 sigma, has mean 0 and the variance of a normal clipped
    # at 3 sigma (0.99501 sigma^2), and no two qubits' noise is correlated,
    # each within 5 standard errors.  Power: noise shared by all qubits
    # gives a correlation of 1, 44 standard errors.
    sigma, reads = 0.05, 2000
    state = class_state(MarkedSet((3, 9, 12), 16), 1)
    exact = np.array(measure_classes(state, EXACT))
    noise = np.array([
        measure_classes(state, EnsembleModel(seed=t, gaussian_noise_sigma=sigma))
        for t in range(reads)
    ]) - exact
    assert np.abs(noise).max() <= 3 * sigma + 1e-12
    variance = 0.99501 * sigma**2
    assert np.all(np.abs(noise.mean(axis=0)) <= 5 * np.sqrt(variance / reads))
    assert np.all(np.abs(noise.var(axis=0) / variance - 1) <= 5 * np.sqrt(2 / reads))
    correlation = np.corrcoef(noise, rowvar=False)[np.triu_indices(4, 1)]
    assert np.all(np.abs(correlation) <= 5 / np.sqrt(reads))


@pytest.mark.parametrize("model", [EXACT, EnsembleModel(shots=64, seed=3)],
                         ids=["exact", "sampled"])
@pytest.mark.parametrize("k", [0, 5, 99, -1])
def test_reads_reject_qubits_outside_the_register(model, k):
    # A 4-qubit register has qubits 1..4.  No two-amplitude read takes a
    # qubit index (it reads a whole run, or one qubit by its count); the
    # dense reference's sampled_ev does, and rejects any other, exact or
    # sampled.  sign_error_rate's check is in test_measurement.py.
    state = closed_form_state(4, MarkedSet((3, 9, 12), 16), 1)
    with pytest.raises(ValueError, match=rf"^qubit index {k} out of range 1\.\.4$"):
        sampled_ev(state, k, model)


def test_uniform_reads_at_62_qubits_are_unbiased():
    # At m = 0 every label of a 2**62 register weighs the same, so each
    # qubit's sampled EV has mean 0 and standard deviation 1/32 at 1,024
    # shots.  The mean of 400 reads lies within 5 standard errors (5/640)
    # of 0 on every qubit, the top and bottom ones included.  Power: a qubit
    # whose bit is always 0 (as the lowest bits past L = 53 are when a label
    # comes from one float draw) reads a mean of 1, 640 standard errors out.
    state = class_state(MarkedSet((5, 2**62 - 1), 2**62), 0)
    evs = np.array([
        measure_classes(state, EnsembleModel(shots=1024, seed=t))
        for t in range(400)
    ])
    assert evs.shape == (400, 62)
    assert np.all(np.abs(evs.mean(axis=0)) <= 5 / 640)


def test_label_reads_past_the_standard_count_take_any_shot_count():
    # Every read costs O(M L) whatever the shot count: at N = 16, M = 3 a
    # one-qubit read past m_stand (1 here), and a whole-register read at
    # m_stand, each take 10**12 shots, within 1e-4 of the exact EVs (the
    # standard error is at most 1e-6).
    huge = EnsembleModel(shots=10**12, seed=1)
    marked = MarkedSet((3, 9, 12), 16)
    assert make_plan(16, 3, 0.0).m_stand == 1
    past = class_state(marked, 3)
    got = one_qubit_evs(past, huge, 2, 1)[0]
    assert abs(got - measure_classes(past, EXACT)[1]) <= 1e-4
    state = class_state(marked, 1)
    got = measure_classes(state, huge)
    assert len(got) == 4
    assert np.max(np.abs(np.subtract(got, measure_classes(state, EXACT)))) <= 1e-4


def test_reads_at_the_largest_shot_count_are_exact_to_within_1e_4():
    # 2^63 - 1 shots, the most a count holds: a whole run, one qubit past
    # m_stand and a sweep row each read within 1e-4 of exact (the standard
    # error is below 1e-9), with no overflow on the way.
    top = EnsembleModel(shots=2**63 - 1, seed=1)
    marked = MarkedSet((3, 9, 12), 16)
    state = class_state(marked, 1)
    got = measure_classes(state, top)
    assert np.max(np.abs(np.subtract(got, measure_classes(state, EXACT)))) <= 1e-4
    past = class_state(marked, 3)
    assert abs(one_qubit_evs(past, top, 2, 1)[0] - measure_classes(past, EXACT)[1]) <= 1e-4
    assert sign_error_rate(marked, 1, 1, top, trials=50) == 0.0


@pytest.mark.parametrize("locations, n, m, qubits", [
    ((3, 9, 12), 16, 3, [3, 1]),
    ((0, 1, 2), 4, 1, [1, 2]),
    ((0, 2, 3, 5, 6), 8, 1, [1, 2, 3]),
    ((1, 2), 32, 6, [5, 1, 3, 2, 4]),
    ((5, 17, 40, 63), 64, 6, list(range(1, 7))),
    ((5, 77, 600), 1024, 29, list(range(1, 11))),
    ((3, 9, 12), 16, 3, [1, 2]),
    ((0, 1, 3), 4, 1, [1, 2]),
])
def test_counts_past_the_standard_count_match_dense_weights(
    monkeypatch, locations, n, m, qubits
):
    # Past m_stand (A_m < 0) a marked label weighs less than an unmarked
    # one (at N = 4 with 3 marked labels and m = 1, about 1e-33, so every
    # shot lands on the unmarked label and each count is exact), and no
    # search reads such a state.  A sampled whole run raises before its
    # generator draws anything; the exact read of every qubit gives the
    # dense EVs; and each listed qubit read alone by _read_one gives counts
    # whose mean and variance over 300 seeds lie within 5 standard errors of
    # the closed form over the dense Born weights.  Power: a p_k off by
    # 1/sqrt(shots) moves its mean by 20 standard errors or more.
    marked = MarkedSet(locations, n)
    state = class_state(marked, m)
    assert state.attenuation < 0
    with monkeypatch.context() as patch:
        built = record_generators(patch)
        with pytest.raises(ValueError, match="weighs less than an unmarked one"):
            measure_classes(state, EnsembleModel(shots=64, seed=1))
    (rng,) = built
    assert rng.draws == []
    dense = closed_form_state(state.qubit_count, marked, m)
    exact = measure_classes(state, EXACT)
    assert np.max(np.abs(np.subtract(exact, measure_all(dense, EXACT)))) <= EXACT_ATOL
    shots, reads = 1000, 300
    born = dense.probabilities()
    for k in qubits:
        assert count_check_power(born, [k], shots, reads, 0.0)[0] > 20
        evs = one_qubit_evs(state, EnsembleModel(shots=shots, seed=40), k, reads)
        assert_counts_match(np.rint((1.0 - evs[:, None]) * shots / 2.0), born, [k], shots)


def test_sign_error_rate_builds_its_tables_once(monkeypatch):
    # The one thing a row builds to draw from, its stream (row seed, ROW,
    # row), is built once whatever the trial count; every trial's count and
    # noise come from it.  Exact, noiseless readout builds none.
    built = record_generators(monkeypatch)
    marked = MarkedSet((3, 17), 32)
    for model, trials, row, generators in [
        (EnsembleModel(shots=64, seed=5), 3000, 0, 1),
        (EnsembleModel(shots=64, seed=5, gaussian_noise_sigma=0.05), 2500, 7, 1),
        (EnsembleModel(seed=5, gaussian_noise_sigma=0.05), 20, 99_999, 1),
        (EnsembleModel(seed=5), 20, 3, 0),
    ]:
        built.clear()
        sign_error_rate(marked, 2, 1, model, trials=trials, row=row)
        assert [rng.key for rng in built] == [(model.seed, ROW, row)] * generators


def test_sign_error_rate_draws_bounded_blocks(monkeypatch):
    # However many trials a rate reads, and however many shots, one block
    # draws at most _BLOCK_DRAWS counts and as many noise values, and every
    # trial is drawn once.
    built = record_generators(monkeypatch)
    for shots in (64, 4096, 10**12):
        model = EnsembleModel(shots=shots, seed=5, gaussian_noise_sigma=0.05)
        for trials in (200, 5000):
            built.clear()
            sign_error_rate(MarkedSet((3, 17), 32), 2, 1, model, trials=trials)
            (rng,) = built
            counts = [draw.size for name, draw in rng.draws if name == "binomial"]
            noise = [draw.size for name, draw in rng.draws if name == "normal"]
            assert max(counts) <= _BLOCK_DRAWS and sum(counts) == trials
            assert noise == counts


def test_sign_error_rate_memory_is_bounded():
    # The tracemalloc peak of a 100,000-trial rate is within 2x of a
    # 1,000-trial one: no per-trial list, and blocks of at most _BLOCK_DRAWS.
    marked = MarkedSet((5, 77, 600), 1024)
    model = EnsembleModel(shots=64, seed=3, gaussian_noise_sigma=0.05)
    peaks = []
    for trials in (1000, 100_000):
        sign_error_rate(marked, 1, 1, model, trials=trials)
        tracemalloc.start()
        try:
            sign_error_rate(marked, 1, 1, model, trials=trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def test_exact_noiseless_sign_error_rate_reads_one_trial(monkeypatch):
    # No generator is built and nothing is drawn; the exact EV is read once
    # for the reference sign, as a float held to the readout bound, and the
    # single trial, that same EV, is held to it as an array, as every block
    # of trials is.
    marked = MarkedSet((3, 17), 32)
    exact = measure_classes(class_state(marked, 2), EXACT)[:1]
    checks = []
    check_one, check = measurement._check_ev, measurement._check_ev_bound

    def refuse(*args):
        raise AssertionError("an exact, noiseless rate drew samples")

    def counted_one(ev, sigma):
        checks.append((type(ev), [ev], sigma))
        return check_one(ev, sigma)

    def counted(evs, sigma):
        checks.append((type(evs), evs.tolist(), sigma))
        return check(evs, sigma)

    monkeypatch.setattr(measurement, "stream", refuse)
    monkeypatch.setattr(measurement, "_check_ev", counted_one)
    monkeypatch.setattr(measurement, "_check_ev_bound", counted)
    assert sign_error_rate(marked, 2, 1, EnsembleModel(seed=5), trials=200) == 0.0
    assert checks == [(float, exact, 0.0), (np.ndarray, exact, 0.0)]


def at_chance(build, p):
    """``build``, a stream function, with each built generator's binomial
    counts drawn at chance ``p`` of a one, whatever chance it is asked for."""
    def forced(*key):
        rng = build(*key)
        binomial = rng.binomial
        rng.binomial = lambda shots, asked, size: binomial(shots, p, size)
        return rng

    return forced


# A marked set on 16 labels, read at m = 1 on qubit 1, for each sign of the
# reference: label 0 has bit 1 clear, label 1 has it set, and {1, 2} splits.
REFERENCE_SETS = {1: MarkedSet((0,), 16), -1: MarkedSet((1,), 16), 0: MarkedSet((1, 2), 16)}
COUNT_SHOTS = (1, 2, 3, 64, 3**37, 2**60, 2**63 - 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from((1, -1, 0)), st.sampled_from(COUNT_SHOTS),
       st.one_of(st.none(), st.floats(0.999, 1.0), st.floats(0.0, 1.0)),
       st.sampled_from((1, 1023, 1024, 1025, 2049)), st.integers(0, 2**64 - 1))
@example(1, 2**63 - 1, 1.0 - 1e-12, 1025, 0)
@example(-1, 2**63 - 1, 1.0 - 1e-12, 2049, 1)
@example(0, 2**63 - 1, 0.5, 1024, 2)
@example(0, 2**60, 0.5, 1023, 3)
@example(-1, 3**37, None, 1, 4)
def test_noiseless_rate_reads_each_counts_sign(truth, shots, p, trials, seed):
    # A noiseless sampled rate is the wrong-sign share of sign(_count_evs(c))
    # over the counts it drew, for each reference sign, across block edges,
    # and for counts past 2^62, where 2 c would overflow int64: p (the
    # chance of a one) is drawn near 1 as well as the set's own (None); the
    # row's generator draws its counts at that p in place of the one asked.
    # Each sign is also checked on Python ints, which do not overflow.
    marked = REFERENCE_SETS[truth]
    assert np.sign(measure_classes(class_state(marked, 1), EXACT)[0]) == truth
    with pytest.MonkeyPatch.context() as patch:
        built = record_generators(patch)
        if p is not None:
            patch.setattr(measurement, "stream", at_chance(measurement.stream, p))
        rate = sign_error_rate(marked, 1, 1, EnsembleModel(shots=shots, seed=seed), trials=trials)
    (rng,) = built
    # One block of counts per _BLOCK_DRAWS trials, and no noise.
    blocks = len(range(0, trials, _BLOCK_DRAWS))
    assert [name for name, _ in rng.draws] == ["binomial"] * blocks
    counts = np.concatenate([draw for _, draw in rng.draws])
    assert counts.size == trials
    signs = np.sign(measurement._count_evs(counts, shots))
    assert rate == np.count_nonzero(signs != truth) / trials
    exact_signs = [(shots > 2 * c) - (shots < 2 * c) for c in counts.tolist()]
    assert signs.tolist() == exact_signs
    if p is not None and p > 0.75 and shots == 2**63 - 1:
        assert counts.min() > 2**62


class BadCounts:
    """A generator stand-in whose binomial counts are fair, but for one
    count set to ``bad(shots)``."""

    def __init__(self, bad):
        self.bad = bad

    def binomial(self, shots, p, size):
        counts = np.random.default_rng(0).binomial(shots, p, size)
        counts[size // 2] = self.bad(shots)
        return counts


@pytest.mark.parametrize("truth", [1, -1, 0])
@pytest.mark.parametrize("shots", [1, 64, 2**60, 2**63 - 2])
@pytest.mark.parametrize("bad", [lambda shots: shots + 1, lambda shots: -1,
                                 lambda shots: -2**63], ids=["shots+1", "-1", "-2^63"])
def test_noiseless_counts_outside_the_shots_raise(monkeypatch, truth, shots, bad):
    # The count check is the readout bound of a noiseless block: a count
    # outside [0, shots] raises ValueError naming it, whatever the reference.
    monkeypatch.setattr(measurement, "stream", lambda *key: BadCounts(bad))
    model = EnsembleModel(shots=shots, seed=1)
    with pytest.raises(ValueError) as excinfo:
        sign_error_rate(REFERENCE_SETS[truth], 1, 1, model, trials=5)
    assert str(excinfo.value) == f"count outside [0, {shots}]: {bad(shots)}"


def test_two_sweep_rows_on_one_set_count_its_ones_once(monkeypatch):
    # A sweep holds one explicit set across its rows, and qubit 1's marked
    # ones are counted on the first row alone: the one count_nonzero over
    # the labels, not over a block's booleans.
    counted = []
    real = np.count_nonzero

    def spy(a, *args, **kwargs):
        if np.asarray(a).dtype != bool:
            counted.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", spy)
    argv = ["sweep", "--n", "64", "--marked", "5,9,40", "--sweep", "shots",
            "--values", "16,32,0", "--trials", "20", "--out", os.devnull]
    assert main(argv) == 0
    assert len(counted) == 1


def test_search_builds_no_statevector(monkeypatch):
    def refuse(self):
        raise AssertionError("the search built a StateVector")

    monkeypatch.setattr(StateVector, "__post_init__", refuse)
    n = 1 << 20
    result = extract_location(
        MarkedSet((654_321,), n), make_plan(n, 1, 0.25).m_trunc, EXACT, 0.25
    )
    assert result.total_runs == 20
    assert result.location == 654_321


# ------------------------------------------------------ one-pass label counts

def mean_ev(labels, k):
    """Empirical sigma_z(k) as a plain mean of 1 - 2 bit_k over the shots."""
    return float(np.mean(1.0 - 2.0 * ((labels >> (k - 1)) & 1)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24), st.integers(1, 4096), st.integers(0, 2**64 - 1),
       st.sampled_from(("uniform", "mostly 0", "mostly 1", "constant")))
def test_one_pass_counts_equal_per_qubit_means(qubits, shots, seed, shape):
    rng = np.random.default_rng(seed)
    top = 1 << qubits
    labels = rng.integers(0, top, size=shots)
    if shape == "mostly 0":
        labels &= rng.integers(0, top, size=shots) & rng.integers(0, top, size=shots)
    elif shape == "mostly 1":
        labels |= rng.integers(0, top, size=shots) | rng.integers(0, top, size=shots)
    elif shape == "constant":
        labels[:] = labels[0]
    expected = [mean_ev(labels, k) for k in range(1, qubits + 1)]
    assert _label_evs(labels, range(1, qubits + 1)).tolist() == expected
    for k in range(1, qubits + 1):
        assert _label_evs(labels, [k])[0] == expected[k - 1]


@st.composite
def error_rate_cases(draw):
    """A marked set with L <= 12 and M <= 4, an iterate count, a qubit and a
    readout model for one sign_error_rate call."""
    qubits = draw(st.integers(1, 12))
    n = 1 << qubits
    count = draw(st.integers(1, min(4, n - 1)))
    locations = draw(
        st.lists(st.integers(0, n - 1), min_size=count, max_size=count, unique=True)
    )
    return (
        MarkedSet(tuple(locations), n),
        draw(st.integers(0, 12)),
        draw(st.integers(1, qubits)),
        EnsembleModel(
            shots=draw(st.integers(1, 512)),
            gaussian_noise_sigma=draw(st.sampled_from((0.0, 0.05))),
            seed=draw(st.integers(0, 2**63)),
        ),
    )


def exact_error_probability(marked, iterations, k, model):
    """The chance one trial of ``model`` misreads qubit k's sign, from the
    Born weights enumerated over every label and the exact binomial."""
    state = class_state(marked, iterations)
    weights = class_weights(marked.universe_size, marked.count, iterations)
    born = class_born_weights(state.qubit_count, state.heavy, weights)
    exact = measure_classes(state, EXACT)[k - 1]
    p = ones_probabilities(born, [k])[0]
    return sign_error_probability(model.shots, p, exact, model.gaussian_noise_sigma)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(error_rate_cases())
def test_sign_error_rate_matches_per_trial_class_readouts(case):
    # A rate of 2,000 trials from one generator, and the share of 300
    # _read_one readouts at seeds seed + t that misread the sign, each
    # within 5 standard errors (plus three errors) of the exact chance of a
    # wrong sign.  Power: wherever that chance lies in [0.05, 0.95] it has
    # sd at most 0.011 over 2,000 trials, so a p_k off by 1/sqrt(shots),
    # which moves the mean count by two of its sd or more, fails the check.
    marked, iterations, k, model = case
    probability = exact_error_probability(marked, iterations, k, model)
    rate = sign_error_rate(marked, iterations, k, model, trials=2000)
    assert_rate_matches(round(rate * 2000), 2000, probability)
    state = class_state(marked, iterations)
    truth = np.sign(measure_classes(state, EXACT)[k - 1])
    wrong = np.count_nonzero(np.sign(one_qubit_evs(state, model, k, 300)) != truth)
    assert_rate_matches(wrong, 300, probability)


@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("locations", [(77,), (5, 77, 600)])
@pytest.mark.parametrize("shots, trials", [
    (1, 200),
    (64, 129),
    (8191, 3),
    (8192, 2),
    (8193, 2),
    (10_000, 3),
])
def test_sign_error_rate_across_block_edges(monkeypatch, shots, trials, locations, sigma):
    # With blocks of 1, 2, trials - 1, trials and trials + 1, each trial is
    # drawn once and scored by its own count and noise: the errors
    # recomputed from every recorded draw give the rate.  Without noise the
    # counts are one binomial stream, so every block size gives one rate.
    marked = MarkedSet(locations, 1024)
    model = EnsembleModel(shots=shots, seed=2**64 - 2, gaussian_noise_sigma=sigma)
    truth = np.sign(measure_classes(class_state(marked, 1), EXACT)[0])
    built = record_generators(monkeypatch)
    rates = set()
    for block in sorted({1, 2, max(1, trials - 1), trials, trials + 1}):
        monkeypatch.setattr(measurement, "_BLOCK_DRAWS", block)
        built.clear()
        rate = sign_error_rate(marked, 1, 1, model, trials=trials)
        (rng,) = built
        counts = [draw for name, draw in rng.draws if name == "binomial"]
        noise = [draw for name, draw in rng.draws if name == "normal"]
        sizes = [min(block, trials - start) for start in range(0, trials, block)]
        assert [draw.size for draw in counts] == sizes
        assert [draw.size for draw in noise] == (sizes if sigma else [])
        evs = (shots - 2 * np.concatenate(counts)) / shots
        if sigma:
            evs = evs + np.clip(np.concatenate(noise), -3 * sigma, 3 * sigma)
        assert rate == np.count_nonzero(np.sign(evs) != truth) / trials
        rates.add(rate)
    assert sigma or len(rates) == 1


def search_outcome(search, *args):
    """A search's result, or the reason and counts its failure carries."""
    try:
        return search(*args)
    except SearchFailure as exc:
        return ("failure", exc.reason, exc.total_runs, exc.branch_events)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.data())
def test_search_matches_reference_loop(qubits, data):
    # The search keeps its prefix as an integer and its branches on a stack;
    # it must take every decision, and fail for every reason, that the loop
    # as first written takes from the same reads.  With M <= N/2 every m up
    # to max(1, m_stand) leaves a marked label at least as heavy as an
    # unmarked one, the only states a search reads.
    n = 1 << qubits
    count = data.draw(st.integers(1, min(4, n // 2)))
    locations = data.draw(
        st.lists(st.integers(0, n - 1), min_size=count, max_size=count, unique=True)
    )
    marked = MarkedSet(tuple(locations), n)
    iterations = data.draw(st.integers(1, max(1, make_plan(n, count, 0.0).m_stand)))
    model = EnsembleModel(
        shots=data.draw(st.sampled_from((0, 64, 1024))),
        seed=data.draw(st.integers(0, 2**64 - 1)),
        gaussian_noise_sigma=data.draw(st.sampled_from((0.0, 0.05))),
    )
    a_th = data.draw(st.floats(0.0, 0.5))
    expected = search_outcome(reference_extract_location, marked, iterations, model, a_th)
    assert search_outcome(extract_location, marked, iterations, model, a_th) == expected
