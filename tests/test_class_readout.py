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

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    EXACT_ATOL,
    assert_counts_match,
    assert_rate_matches,
    class_born_weights,
    count_check_power,
    low_bits,
    ones_probabilities,
    record_generators,
    reference_class_inverse_cdf,
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
    class_amplitudes,
    class_state,
    extract_location,
    make_plan,
    measure_classes,
    sign_error_rate,
)
from grover_ev import measurement
from grover_ev.core import (
    StateVector,
    apply_grover,
    closed_form_state,
    new_uniform,
)
from grover_ev.filtering import apply_correlation
from grover_ev.measurement import (
    _BLOCK_DRAWS,
    _born_cdf,
    _label_evs,
    _shot_labels,
    measure_all,
)

EXACT = EnsembleModel()
BOUNDARY_GAP = 1e-9


def dense_state(marked, iterations):
    state = new_uniform(marked.universe_size.bit_length() - 1)
    for _ in range(iterations):
        state = apply_grover(state, marked)
    return state


def class_weights(universe_size, marked_count, iterations):
    on, off = class_amplitudes(universe_size, marked_count, iterations)
    return on * on, off * off


def class_inverse_cdf(heavy, dim, weights):
    """Inverse of the Born CDF of a two-amplitude state, from its heavy labels:
    a function from uniform draws in [0, 1) to basis labels.

    Each of the M ``heavy`` labels has Born weight ``weights[0]`` and each of
    the other ``dim - M`` labels ``weights[1]``.  With the heavy labels sorted
    as h_0 < h_1 < ..., the CDF is off * (x + 1) + (on - off) * #{h_j <= x}:
    a step of width ``on`` at each h_j and linear in between.  The tables
    are indexed by segment j = 0..M: the unmarked labels just below h_j (or
    above the last step, for j = M), then the step at h_j.  One searchsorted
    over the M step ends finds each draw's segment, and every draw is then
    inverted in one branch-free pass: the unmarked label
    ``floor((u total - rise j) / off)``, clamped to its segment, or the step
    label when the draw falls on the step.  When ``off`` is 0 every unmarked
    segment is empty, so the step labels are returned and nothing divides.
    """
    on, off = weights
    heavy = np.sort(heavy)
    rise = on - off
    total = off * dim + rise * heavy.size
    segments = np.arange(heavy.size + 1)
    # Heavy labels with a sentinel on either side: -1 below, dim above.
    bounds = np.concatenate(([-1], heavy, [dim]))
    step_labels = bounds[1:]
    lowest = bounds[:-1] + 1
    highest = bounds[1:] - 1
    # CDF just below and at each heavy label, scaled to end at 1 as in
    # _born_cdf; a sentinel start past 1 sends draws above the last step
    # into the final unmarked segment.
    starts = (off * step_labels + rise * segments) / total
    starts[-1] = np.inf
    ends = (off * lowest[1:] + rise * segments[1:]) / total

    def labels_of(draws):
        segment = np.searchsorted(ends, draws, side="right")
        steps = step_labels[segment]
        if off == 0:
            return steps
        unmarked = np.multiply(draws, total)
        unmarked -= rise * segment
        unmarked /= off
        np.floor(unmarked, out=unmarked)
        np.maximum(unmarked, lowest[segment], out=unmarked)
        np.minimum(unmarked, highest[segment], out=unmarked)
        return np.where(draws < starts[segment], unmarked.astype(np.int64), steps)

    return labels_of


def uniform_draws(model):
    """The ``shots`` uniform draws in [0, 1) the dense readout of ``model`` labels."""
    return np.random.default_rng(model.seed).random(model.shots)


def class_labels(qubits, heavy, weights, model):
    """Shot labels of one sampled run on a two-amplitude state, by the
    closed-form inverse CDF on the dense readout's draws."""
    heavy = np.asarray(heavy, dtype=np.int64)
    return class_inverse_cdf(heavy, 1 << qubits, weights)(uniform_draws(model))


def reads_of(state, model, qubits, reads):
    """The per-qubit ones of ``reads`` runs of ``state`` at consecutive seeds
    from ``model.seed`` (mod 2**64), one row per run."""
    rows = []
    for t in range(reads):
        run = replace(model, seed=(model.seed + t) % 2**64)
        evs = np.array(measure_classes(state, run, qubits))
        rows.append(np.rint((1.0 - evs) * model.shots / 2.0))
    return np.array(rows)


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
    weights = class_weights(marked.universe_size, marked.count, m)
    for info, dense, heavy in runs:
        expected = measure_all(dense, EXACT)
        got = measure_classes(ClassState(qubits, heavy, weights), EXACT, range(1, qubits + 1))
        assert np.max(np.abs(np.subtract(got, expected))) <= EXACT_ATOL, info


def far_from_boundaries(cdf, draws):
    """Mask of draws further than BOUNDARY_GAP from every CDF value."""
    right = np.clip(np.searchsorted(cdf, draws), 0, cdf.size - 1)
    left = np.clip(right - 1, 0, cdf.size - 1)
    gap = np.minimum(np.abs(cdf[right] - draws), np.abs(draws - cdf[left]))
    return gap > BOUNDARY_GAP


@settings(max_examples=60, deadline=None)
@given(marked_runs(), st.integers(1, 2048), st.integers(0, 2**64 - 1))
def test_sampled_labels_match_dense_reference(case, shots, seed):
    qubits, marked, m, runs = case
    weights = class_weights(marked.universe_size, marked.count, m)
    model = EnsembleModel(shots=shots, seed=seed)
    draws = uniform_draws(model)
    for info, dense, heavy in runs:
        far = far_from_boundaries(_born_cdf(dense), draws)
        assert far.mean() > 0.99
        expected = _shot_labels(dense, draws)
        got = class_labels(qubits, heavy, weights, model)
        assert np.array_equal(got[far], expected[far]), info


@pytest.mark.parametrize(
    "n, locations, m",
    [
        # b^2 ~ 1e-33: every unmarked label all but vanishes.
        (8, (2, 5), 1),
        (8, (2, 5), 7),
        (8, (0, 7), 1),
        (8, (6, 7), 7),
        # a^2 ~ 1e-33: the marked labels all but vanish.
        (4, (0, 1, 3), 1),
    ],
)
def test_sampled_labels_at_degenerate_weights(n, locations, m):
    marked = MarkedSet(locations, n)
    weights = class_weights(n, marked.count, m)
    assert min(weights) < 1e-30
    dense = dense_state(marked, m)
    for seed in range(5):
        model = EnsembleModel(shots=20_480, seed=seed)
        got = class_labels(n.bit_length() - 1, locations, weights, model)
        assert np.array_equal(got, _shot_labels(dense, uniform_draws(model)))


def test_sampled_record_matches_dense_record():
    # A whole-register read of a correlated run, by counts on the
    # two-amplitude state and by shot labels on the dense state: over 600
    # seeds each, every qubit's mean count and every pair's count covariance
    # lie within 5 standard errors of the closed form.  Power (asserted
    # below): a p_k off by 1/sqrt(shots) moves some mean by 48 standard
    # errors or more, and letting the qubits of the uniform part, 66% of the
    # shots here, share one count moves every covariance by 15 or more.
    marked = MarkedSet((3, 9, 12), 64)
    heavy = np.array([correlated_image(x, 3, (1, 1)) for x in marked.locations])
    weights = class_weights(64, 3, 1)
    state = ClassState(6, heavy, weights)
    dense = apply_correlation(dense_state(marked, 1), 3, (1, 1))
    qubits, shots, reads = range(1, 7), 1000, 600
    born = dense.probabilities()
    assert np.max(np.abs(born - class_born_weights(6, heavy, weights))) <= EXACT_ATOL
    uniform_weight = weights[1] * 64
    assert 0.6 < uniform_weight < 0.7
    mean_power, pair_power = count_check_power(born, qubits, shots, reads, uniform_weight)
    assert mean_power > 48 and pair_power > 15
    model = EnsembleModel(shots=shots, seed=21)
    assert_counts_match(reads_of(state, model, qubits, reads), born, qubits, shots)
    dense_ones = [
        np.rint((1.0 - np.array(measure_all(dense, replace(model, seed=21 + t)))) * shots / 2)
        for t in range(reads)
    ]
    assert_counts_match(np.array(dense_ones), born, qubits, shots)


def test_one_qubit_readout_keeps_the_record_bound():
    # Not a state: both heavy labels have bit 2 clear, so qubit 2 reads 1.5.
    state = ClassState(2, np.array([0, 1]), (0.75, 0.0))
    with pytest.raises(ValueError, match="EV outside"):
        measure_classes(state, EXACT, [2])
    with pytest.raises(ValueError, match="EV outside"):
        measure_classes(state, EXACT, range(1, 3))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 10), st.data())
def test_qubit_subsets_match_dense_readout(qubits, data):
    # Any subset of a run's qubits, in any order, read alone: exact readout
    # gives the dense entries to rounding, and sampled readout counts whose
    # means and covariance over 200 seeds lie within 6 standard errors of
    # the closed form over the dense state's Born weights.  Past the
    # crossing (on < off) a sampled read of two or more qubits is rejected.
    # Power: a p_k off by 1/sqrt(shots) moves its mean by 2 sqrt(200) = 28
    # standard errors or more.
    n = 1 << qubits
    count = data.draw(st.integers(1, min(4, n - 1)))
    locations = data.draw(
        st.lists(st.integers(0, n - 1), min_size=count, max_size=count, unique=True)
    )
    marked = MarkedSet(tuple(locations), n)
    iterations = data.draw(st.integers(0, 12))
    subset = data.draw(st.lists(st.integers(1, qubits), min_size=1, max_size=qubits,
                                unique=True))
    shots = data.draw(st.sampled_from((0, 64, 1024)))
    model = EnsembleModel(shots=shots, seed=data.draw(st.integers(0, 2**64 - 1)))
    dense = closed_form_state(qubits, marked, iterations)
    state = class_state(marked, iterations)
    on, off = state.weights
    if shots == 0:
        expected = [measure_all(dense, model)[k - 1] for k in subset]
        got = measure_classes(state, model, subset)
        assert all(type(ev) is float for ev in got)
        assert np.max(np.abs(np.subtract(got, expected))) <= EXACT_ATOL
    elif on < off and len(subset) > 1:
        with pytest.raises(ValueError, match="weighs less than an unmarked one"):
            measure_classes(state, model, subset)
    else:
        ones = reads_of(state, model, subset, 200)
        assert_counts_match(ones, dense.probabilities(), subset, shots, bound=6.0)


def test_readout_noise_is_a_clipped_normal_per_qubit():
    # Exact readout with sigma = 0.05 over 2,000 seeds: each qubit's noise
    # stays within 3 sigma, has mean 0 and the variance of a normal clipped
    # at 3 sigma (0.99501 sigma^2), and no two qubits' noise is correlated,
    # each within 5 standard errors.  Power: noise shared by all qubits
    # gives a correlation of 1, 44 standard errors.
    sigma, reads = 0.05, 2000
    state = class_state(MarkedSet((3, 9, 12), 16), 1)
    exact = np.array(measure_classes(state, EXACT, range(1, 5)))
    noise = np.array([
        measure_classes(state, EnsembleModel(seed=t, gaussian_noise_sigma=sigma), range(1, 5))
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
    # A 4-qubit register has qubits 1..4, whether k is read alone or after
    # qubits that exist.
    state = class_state(MarkedSet((3, 9, 12), 16), 1)
    for qubits in ([k], [1, 2, k]):
        with pytest.raises(ValueError, match=rf"^qubit index {k} out of range 1\.\.4$"):
            measure_classes(state, model, qubits)


def test_uniform_reads_at_62_qubits_are_unbiased():
    # At m = 0 every label of a 2**62 register weighs the same, so each
    # qubit's sampled EV has mean 0 and standard deviation 1/32 at 1,024
    # shots.  The mean of 400 reads lies within 5 standard errors (5/640)
    # of 0 on every qubit, the top and bottom ones included.  Power: a qubit
    # whose bit is always 0 (as a float inverse CDF leaves the lowest bits
    # past L = 53) reads a mean of 1, 640 standard errors out.
    state = class_state(MarkedSet((5, 2**62 - 1), 2**62), 0)
    evs = np.array([
        measure_classes(state, EnsembleModel(shots=1024, seed=t), range(1, 63))
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
    for m, qubits in [(3, [2]), (1, range(1, 5))]:
        state = class_state(marked, m)
        got = measure_classes(state, huge, qubits)
        assert len(got) == len(qubits)
        assert np.max(np.abs(np.subtract(got, measure_classes(state, EXACT, qubits)))) <= 1e-4


@pytest.mark.parametrize("locations, n, m, qubits", [
    ((3, 9, 12), 16, 3, [3, 1]),
    ((0, 1, 2), 4, 1, [1, 2]),
    ((0, 2, 3, 5, 6), 8, 1, [1, 2, 3]),
    ((1, 2), 32, 6, [5, 1, 3, 2, 4]),
    ((5, 17, 40, 63), 64, 6, list(range(1, 7))),
    ((5, 77, 600), 1024, 29, list(range(1, 11))),
    ((3, 9, 12), 16, 3, [1, 2]),
])
def test_counts_past_the_standard_count_match_dense_weights(
    monkeypatch, locations, n, m, qubits
):
    # Past m_stand (on < off) a marked label weighs less than an unmarked
    # one (at N = 4 with 3 marked labels and m = 1, about 1e-33, so every
    # shot lands on label 3 and each count is exact), and no search reads
    # such a state.  A sampled read of two or more of its qubits raises
    # before its generator draws anything; the exact read of every qubit
    # gives the dense EVs; and each listed qubit read alone gives counts
    # whose mean and variance over 300 seeds lie within 5 standard errors of
    # the closed form over the dense Born weights.  Power: a p_k off by
    # 1/sqrt(shots) moves its mean by 20 standard errors or more.
    marked = MarkedSet(locations, n)
    state = class_state(marked, m)
    on, off = state.weights
    assert on < off
    with monkeypatch.context() as patch:
        built = record_generators(patch)
        with pytest.raises(ValueError, match="weighs less than an unmarked one"):
            measure_classes(state, EnsembleModel(shots=64, seed=1), qubits)
    (rng,) = built
    assert rng.draws == []
    dense = closed_form_state(state.qubit_count, marked, m)
    exact = measure_classes(state, EXACT, range(1, state.qubit_count + 1))
    assert np.max(np.abs(np.subtract(exact, measure_all(dense, EXACT)))) <= EXACT_ATOL
    shots, reads = 1000, 300
    born = dense.probabilities()
    for k in qubits:
        assert count_check_power(born, [k], shots, reads, 0.0)[0] > 20
        ones = reads_of(state, EnsembleModel(shots=shots, seed=40), [k], reads)
        assert_counts_match(ones, born, [k], shots)


def test_sign_error_rate_builds_its_tables_once(monkeypatch):
    # The one thing a row builds to draw from, default_rng(row seed), is
    # built once whatever the trial count; every trial's count and noise
    # come from it.  Exact, noiseless readout builds none.
    built = record_generators(monkeypatch)
    marked = MarkedSet((3, 17), 32)
    for model, trials, generators in [
        (EnsembleModel(shots=64, seed=5), 3000, 1),
        (EnsembleModel(shots=64, seed=5, gaussian_noise_sigma=0.05), 2500, 1),
        (EnsembleModel(seed=5, gaussian_noise_sigma=0.05), 20, 1),
        (EnsembleModel(seed=5), 20, 0),
    ]:
        built.clear()
        sign_error_rate(marked, 2, 1, model, trials=trials)
        assert [rng.seed for rng in built] == [model.seed] * generators


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
    # for the reference sign, and the single trial, that same EV, is held
    # to the readout bound as an array, as every block of trials is.
    marked = MarkedSet((3, 17), 32)
    exact = measure_classes(class_state(marked, 2), EXACT, [1])
    checks = []
    check = measurement._check_ev_bound

    def refuse(*args):
        raise AssertionError("an exact, noiseless rate drew samples")

    def counted(evs, sigma):
        checks.append((type(evs), evs.tolist(), sigma))
        return check(evs, sigma)

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(measurement, "_check_ev_bound", counted)
    assert sign_error_rate(marked, 2, 1, EnsembleModel(seed=5), trials=200) == 0.0
    assert checks == [(np.ndarray, exact, 0.0)] * 2


def test_search_builds_no_statevector(monkeypatch):
    def refuse(self):
        raise AssertionError("the search built a StateVector")

    monkeypatch.setattr(StateVector, "__post_init__", refuse)
    n = 1 << 20
    result = extract_location(
        MarkedSet((654_321,), n), make_plan(n, 1, 0.25).m_trunc, EXACT, 0.25
    )
    assert result.total_runs == 20
    assert result.verified and result.location == 654_321


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
    born = class_born_weights(state.qubit_count, state.heavy, state.weights)
    exact = measure_classes(state, EXACT, [k])[0]
    p = ones_probabilities(born, [k])[0]
    return sign_error_probability(model.shots, p, exact, model.gaussian_noise_sigma)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(error_rate_cases())
def test_sign_error_rate_matches_per_trial_class_readouts(case):
    # A rate of 2,000 trials from one generator, and the share of 300
    # one-qubit class readouts at seeds seed + t that misread the sign, each
    # within 5 standard errors (plus three errors) of the exact chance of a
    # wrong sign.  Power: wherever that chance lies in [0.05, 0.95] it has
    # sd at most 0.011 over 2,000 trials, so a p_k off by 1/sqrt(shots),
    # which moves the mean count by two of its sd or more, fails the check.
    marked, iterations, k, model = case
    probability = exact_error_probability(marked, iterations, k, model)
    rate = sign_error_rate(marked, iterations, k, model, trials=2000)
    assert_rate_matches(round(rate * 2000), 2000, probability)
    state = class_state(marked, iterations)
    truth = np.sign(measure_classes(state, EXACT, [k])[0])
    wrong = sum(
        np.sign(measure_classes(state, replace(model, seed=model.seed + t), [k])[0]) != truth
        for t in range(300)
    )
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
    truth = np.sign(measure_classes(class_state(marked, 1), EXACT, [1])[0])
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


@st.composite
def inverse_cases(draw):
    """Heavy labels, a register size, class weights and a draw seed for one
    inverse-CDF table.  Layouts put heavy labels next to each other or at
    both ends of the register; weights come from a Grover state, or make
    one class almost empty (weight 1e-33) or empty, or equal the other
    class (M/N = 1/2 gives that, and then the CDF rises evenly)."""
    qubits = draw(st.integers(1, 12))
    dim = 1 << qubits
    count = draw(st.integers(1, min(6, dim - 1)))
    layout = draw(st.sampled_from(("random", "adjacent", "ends")))
    if layout == "adjacent":
        start = draw(st.integers(0, dim - count))
        heavy = set(range(start, start + count))
    else:
        heavy = draw(st.sets(st.integers(0, dim - 1), min_size=count, max_size=count))
        if layout == "ends" and dim > 2:
            heavy = (heavy - {0, dim - 1}) | {0, dim - 1}
            while len(heavy) >= dim:
                heavy.pop()
    count = len(heavy)
    kind = draw(st.sampled_from(("grover", "tiny off", "tiny on", "equal", "zero off")))
    if kind == "grover":
        weights = class_weights(dim, count, draw(st.integers(0, 30)))
    elif kind == "tiny off":
        weights = ((1.0 - 1e-33 * (dim - count)) / count, 1e-33)
    elif kind == "tiny on":
        weights = (1e-33, (1.0 - 1e-33 * count) / (dim - count))
    elif kind == "equal":
        weights = (1.0 / dim, 1.0 / dim)
    else:
        weights = (1.0 / count, 0.0)
    return tuple(sorted(heavy)), dim, weights, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=300, deadline=None)
@given(inverse_cases())
@example(((3, 4, 5), 16, class_weights(16, 3, 1), 0))
@example(((0, 15), 16, class_weights(16, 2, 1), 1))
@example(((0, 1, 2, 3), 16, class_weights(16, 4, 2), 2))
@example(((2, 9), 16, ((1.0 - 1e-33 * 14) / 2, 1e-33), 3))
@example(((2, 9), 16, (1e-33, (1.0 - 2e-33) / 14), 4))
@example(((1, 3, 5, 7, 9, 11, 13, 15), 16, class_weights(16, 8, 3), 5))
@example(((5,), 8, (1.0, 0.0), 6))
def test_inverse_cdf_matches_reference_bit_for_bit(case):
    heavy, dim, weights, seed = case
    heavy = np.array(heavy, dtype=np.int64)
    on, off = weights
    rise = on - off
    total = off * dim + rise * heavy.size
    # Every CDF breakpoint and the floats on either side of it, so that
    # draws land exactly on and next to each step's start and end.
    breaks = np.concatenate([
        (off * heavy + rise * np.arange(heavy.size)) / total,
        (off * (heavy + 1) + rise * np.arange(1, heavy.size + 1)) / total,
    ])
    draws = np.concatenate([
        np.random.default_rng(seed).random(512),
        breaks, np.nextafter(breaks, 0.0), np.nextafter(breaks, 1.0),
        [0.0, np.nextafter(1.0, 0.0)],
    ])
    draws = draws[(draws >= 0.0) & (draws < 1.0)]
    got = class_inverse_cdf(heavy, dim, weights)(draws)
    expected = reference_class_inverse_cdf(heavy, dim, weights)(draws)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert got.min() >= 0 and got.max() < dim


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
