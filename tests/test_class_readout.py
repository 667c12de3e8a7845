"""The search's two-amplitude readout, checked against the dense reference.

The dense side is the statevector path: the iterated register (or its
closed form), the correlation applied as a permutation of amplitudes, and
``measure_all``.
The images of the marked labels under the correlation are recomputed here
from the prefix bits, independently of the implementation.
"""

import numpy as np
import pytest
from conftest import low_bits, reference_class_inverse_cdf, reference_extract_location
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grover_ev import (
    EXACT_ATOL,
    MAX_QUBITS,
    ClassState,
    EnsembleModel,
    MarkedSet,
    OracleLedger,
    SearchFailure,
    StateVector,
    apply_correlation,
    apply_grover,
    class_amplitudes,
    class_state,
    closed_form_state,
    decide_sign,
    extract_location,
    m_standard,
    m_truncated,
    measure_all,
    measure_classes,
    new_uniform,
    sign_error_rate,
)
from grover_ev import measurement
from grover_ev.measurement import (
    _born_cdf,
    _class_inverse_cdf,
    _label_evs,
    _readout_noise,
    _shot_labels,
    _uniform_draws,
)

EXACT = EnsembleModel()
BOUNDARY_GAP = 1e-9


def dense_state(marked, iterations):
    state, ledger = new_uniform(marked.universe_size.bit_length() - 1), OracleLedger()
    for _ in range(iterations):
        state = apply_grover(state, marked, ledger)
    return state


def class_weights(universe_size, marked_count, iterations):
    on, off = class_amplitudes(universe_size, marked_count, iterations)
    return on * on, off * off


def class_labels(qubits, heavy, weights, model):
    """Shot labels of one sampled run on a two-amplitude state."""
    return ClassState(qubits, np.asarray(heavy), weights).labels_of(_uniform_draws(model))


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
    draws = _uniform_draws(model)
    for info, dense, heavy in runs:
        far = far_from_boundaries(_born_cdf(dense), draws)
        assert far.mean() > 0.99
        expected = _shot_labels(dense, model)
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
        assert np.array_equal(got, _shot_labels(dense, model))


def test_sampled_record_matches_dense_record():
    marked = MarkedSet((3, 9, 12), 16)
    dense = apply_correlation(dense_state(marked, 1), 3, (1, 1))
    heavy = np.array([correlated_image(x, 3, (1, 1)) for x in marked.locations])
    state = ClassState(4, heavy, class_weights(16, 3, 1))
    model = EnsembleModel(shots=1000, seed=21, gaussian_noise_sigma=0.02)
    expected = measure_all(dense, model)
    assert measure_classes(state, model, range(1, 5)) == expected
    for k in range(1, 5):
        assert measure_classes(state, model, [k]) == [expected[k - 1]]


def test_one_qubit_readout_keeps_the_record_bound():
    # Not a state: both heavy labels have bit 2 clear, so qubit 2 reads 1.5.
    state = ClassState(2, np.array([0, 1]), (0.75, 0.0))
    with pytest.raises(ValueError, match="EV outside"):
        measure_classes(state, EXACT, [2])
    with pytest.raises(ValueError, match="EV outside"):
        measure_classes(state, EXACT, range(1, 3))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10), st.data())
def test_qubit_subsets_match_dense_readout(qubits, data):
    # Any subset of a run's qubits, in any order, reads the entries a dense
    # full-register readout gives them: exactly when sampled (the same draws
    # give the same labels away from the CDF's breakpoints), and to rounding
    # when exact.
    n = 1 << qubits
    count = data.draw(st.integers(1, min(4, n - 1)))
    locations = data.draw(
        st.lists(st.integers(0, n - 1), min_size=count, max_size=count, unique=True)
    )
    marked = MarkedSet(tuple(locations), n)
    iterations = data.draw(st.integers(0, 12))
    subset = data.draw(st.lists(st.integers(1, qubits), min_size=1, max_size=qubits,
                                unique=True))
    model = EnsembleModel(
        shots=data.draw(st.sampled_from((0, 1, 64, 1024))),
        seed=data.draw(st.integers(0, 2**64 - 1)),
        gaussian_noise_sigma=data.draw(st.sampled_from((0.0, 0.05))),
    )
    dense = closed_form_state(qubits, marked, iterations)
    expected = [measure_all(dense, model)[k - 1] for k in subset]
    got = measure_classes(class_state(marked, iterations), model, subset)
    assert all(type(ev) is float for ev in got)
    if model.shots == 0:
        assert np.max(np.abs(np.subtract(got, expected))) <= EXACT_ATOL
    else:
        assume(far_from_boundaries(_born_cdf(dense), _uniform_draws(model)).all())
        assert got == expected


def test_sign_error_rate_builds_its_tables_once(monkeypatch):
    builds = []
    inverse_cdf = measurement._class_inverse_cdf

    def counted(*args):
        builds.append(args)
        return inverse_cdf(*args)

    monkeypatch.setattr(measurement, "_class_inverse_cdf", counted)
    sign_error_rate(MarkedSet((3, 17), 32), 2, 1, shots=64, trials=20, seed=5)
    assert len(builds) == 1
    sign_error_rate(MarkedSet((3, 17), 32), 2, 1, shots=0, sigma=0.05, trials=20, seed=5)
    assert len(builds) == 1


def test_search_builds_no_statevector(monkeypatch):
    def refuse(self):
        raise AssertionError("the search built a StateVector")

    monkeypatch.setattr(StateVector, "__post_init__", refuse)
    n = 1 << 20
    result = extract_location(
        MarkedSet((654_321,), n), m_truncated(n, 1, 0.25), EXACT, 0.25
    )
    assert result.total_runs == 20
    assert result.verified and result.location == 654_321


def test_search_rejects_register_past_cap():
    with pytest.raises(ValueError, match="qubit_count"):
        extract_location(MarkedSet((5,), 1 << (MAX_QUBITS + 1)), 1, EXACT, 0.25)


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
    """A marked set with L <= 16 and M <= 4, an iterate count, a qubit, and
    the readout settings of one sign_error_rate call."""
    qubits = draw(st.integers(1, 16))
    n = 1 << qubits
    count = draw(st.integers(1, min(4, n - 1)))
    locations = draw(
        st.lists(st.integers(0, n - 1), min_size=count, max_size=count, unique=True)
    )
    return (
        MarkedSet(tuple(locations), n),
        draw(st.integers(0, 12)),
        draw(st.integers(1, qubits)),
        dict(
            shots=draw(st.integers(1, 512)),
            sigma=draw(st.sampled_from((0.0, 0.05))),
            threshold=draw(st.sampled_from((0.0, 0.1))),
            trials=draw(st.integers(1, 20)),
            seed=draw(st.integers(0, 2**63)),
        ),
    )


@settings(max_examples=60, deadline=None)
@given(error_rate_cases())
def test_sign_error_rate_matches_per_trial_class_readouts(case):
    # The rate builds its inverse-CDF tables once; each trial must still
    # decide exactly as a readout through tables of its own would.
    marked, iterations, k, opts = case
    n = marked.universe_size
    weights = class_weights(n, marked.count, iterations)
    exact = (weights[0] - weights[1]) * sum(1 - 2 * ((x >> (k - 1)) & 1)
                                            for x in marked.locations)
    truth = decide_sign(exact, 0.0)
    wrong = 0
    for t in range(opts["trials"]):
        model = EnsembleModel(shots=opts["shots"], seed=opts["seed"] + t,
                              gaussian_noise_sigma=opts["sigma"])
        labels = class_labels(n.bit_length() - 1, marked.locations, weights, model)
        ev = mean_ev(labels, k) + _readout_noise(model, k)
        wrong += decide_sign(ev, opts["threshold"]) != truth
    assert sign_error_rate(marked, iterations, k, **opts) == wrong / opts["trials"]


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
    got = _class_inverse_cdf(heavy, dim, weights)(draws)
    expected = reference_class_inverse_cdf(heavy, dim, weights)(draws)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert got.min() >= 0 and got.max() < dim


def search_outcome(search, *args):
    """A search's result, or the counts its failure carries."""
    try:
        return search(*args)
    except SearchFailure as exc:
        return ("failure", exc.total_runs, exc.branch_events)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.data())
def test_search_matches_full_record_reference(qubits, data):
    # A correlated run reads only its target qubit; the search must still
    # take every decision the loop that read whole records took.
    n = 1 << qubits
    count = data.draw(st.integers(1, min(4, n - 1)))
    locations = data.draw(
        st.lists(st.integers(0, n - 1), min_size=count, max_size=count, unique=True)
    )
    marked = MarkedSet(tuple(locations), n)
    iterations = data.draw(st.integers(1, max(1, m_standard(n, count))))
    model = EnsembleModel(
        shots=data.draw(st.sampled_from((0, 64, 1024))),
        seed=data.draw(st.integers(0, 2**64 - 1)),
        gaussian_noise_sigma=data.draw(st.sampled_from((0.0, 0.05))),
    )
    a_th = data.draw(st.floats(0.0, 0.5))
    expected = search_outcome(reference_extract_location, marked, iterations, model, a_th)
    assert search_outcome(extract_location, marked, iterations, model, a_th) == expected
