"""Exact and sampled sigma_z expectation values, sign decisions, readout."""

import numpy as np
import pytest
from conftest import (
    assert_rate_matches,
    basis_state_vector,
    bit_of,
    ones_probabilities,
    sign_error_probability,
)

from grover_ev import (
    EnsembleModel,
    MarkedSet,
    attenuation,
    decide_sign,
    make_plan,
    sign_error_rate,
)
from grover_ev.core import ROW, StateVector, closed_form_state, new_uniform, stream
from grover_ev.measurement import _check_ev_bound, exact_ev, measure_all, sampled_ev


# ------------------------------------------------------------------- exact_ev

def test_exact_ev_uniform_is_zero():
    state = new_uniform(4)
    for k in range(1, 5):
        assert exact_ev(state, k) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("label", [0, 5, 7])
def test_exact_ev_basis_state_reads_bits(label):
    state = StateVector(3, basis_state_vector(3, label))
    for k in range(1, 4):
        assert exact_ev(state, k) == (-1) ** bit_of(label, k)


def test_exact_ev_closed_form_signal():
    # For one marked item every qubit reads the same attenuated magnitude,
    # signed by the corresponding bit of the location.
    marked = MarkedSet((5,), 16)
    for m in range(0, make_plan(16, 1, 0.0).m_stand + 1):
        state = closed_form_state(4, marked, m)
        expected_magnitude = attenuation(16, 1, m)
        for k in range(1, 5):
            sign = (-1) ** bit_of(5, k)
            assert exact_ev(state, k) == pytest.approx(sign * expected_magnitude, abs=1e-12)


def test_exact_ev_linear_in_probabilities():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    state = StateVector(4, amps)
    probs = np.abs(amps) ** 2
    for k in range(1, 5):
        signs = np.array([(-1) ** bit_of(x, k) for x in range(16)])
        assert exact_ev(state, k) == pytest.approx(float(probs @ signs), abs=1e-12)


def test_exact_ev_rejects_bad_qubit():
    with pytest.raises(ValueError):
        exact_ev(new_uniform(2), 3)
    with pytest.raises(ValueError):
        exact_ev(new_uniform(2), 0)


# ----------------------------------------------------------------- sampled_ev

def test_sampled_exact_model_degenerates():
    state = closed_form_state(3, MarkedSet((6,), 8), 1)
    model = EnsembleModel(shots=0, seed=9, gaussian_noise_sigma=0.0)
    for k in range(1, 4):
        assert sampled_ev(state, k, model) == exact_ev(state, k)


def test_sampled_basis_state_is_deterministic():
    state = StateVector(3, basis_state_vector(3, 5))
    for shots in (1, 7, 100):
        model = EnsembleModel(shots=shots, seed=shots)
        for k in range(1, 4):
            assert sampled_ev(state, k, model) == (-1) ** bit_of(5, k)


def test_sampled_uniform_five_sigma_bound():
    # Empirical mean of +-1 over 10^4 draws: 5 standard errors is 0.05.
    state = new_uniform(4)
    shots = 10_000
    bound = 5.0 / np.sqrt(shots)
    for seed in range(300):
        value = sampled_ev(state, 2, EnsembleModel(shots=shots, seed=seed))
        assert abs(value) <= bound


def test_sampled_is_unbiased():
    # Grand mean over many seeded trials converges to the exact EV within
    # five grand-standard-errors, bounded by 5/sqrt(trials * shots).
    state = closed_form_state(4, MarkedSet((5,), 16), 1)
    shots, trials = 100, 1000
    exact = exact_ev(state, 1)
    values = [
        sampled_ev(state, 1, EnsembleModel(shots=shots, seed=seed))
        for seed in range(trials)
    ]
    assert np.mean(values) == pytest.approx(exact, abs=5.0 / np.sqrt(trials * shots))


def test_sampled_deterministic_given_seed():
    state = new_uniform(5)
    model = EnsembleModel(shots=500, seed=123, gaussian_noise_sigma=0.05)
    assert sampled_ev(state, 3, model) == sampled_ev(state, 3, model)


def test_sampled_matches_full_readout():
    state = closed_form_state(4, MarkedSet((9,), 16), 2)
    model = EnsembleModel(shots=250, seed=77, gaussian_noise_sigma=0.02)
    evs = measure_all(state, model)
    for k in range(1, 5):
        assert sampled_ev(state, k, model) == evs[k - 1]


def test_noise_stays_within_three_sigma():
    state = StateVector(2, basis_state_vector(2, 3))
    sigma = 0.1
    for seed in range(50):
        model = EnsembleModel(shots=0, seed=seed, gaussian_noise_sigma=sigma)
        value = sampled_ev(state, 1, model)
        assert abs(value - exact_ev(state, 1)) <= 3.0 * sigma + 1e-15


def test_model_validation():
    with pytest.raises(ValueError):
        EnsembleModel(shots=-1)
    # numpy draws a count as a signed 64-bit integer.
    assert EnsembleModel(shots=2**63 - 1).shots == 2**63 - 1
    for shots in (2**63, 10**19):
        with pytest.raises(ValueError, match=rf"^shots must be below 2\*\*63, got {shots}$"):
            EnsembleModel(shots=shots)
    with pytest.raises(ValueError):
        EnsembleModel(seed=-2)
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma must be a finite number"):
            EnsembleModel(gaussian_noise_sigma=sigma)


# ---------------------------------------------------------------- decide_sign

def test_decide_sign_examples():
    assert decide_sign(0.4375, 0.25) == 0
    assert decide_sign(-1.0, 0.999) == 1
    assert decide_sign(0.0, 0.1) is None


def test_decide_sign_antisymmetry():
    rng = np.random.default_rng(13)
    flip = {0: 1, 1: 0, None: None}
    for _ in range(200):
        ev = float(rng.uniform(-1.2, 1.2))
        threshold = float(rng.uniform(0, 0.6))
        assert decide_sign(-ev, threshold) == flip[decide_sign(ev, threshold)]


def test_decide_sign_rejects_negative_threshold():
    with pytest.raises(ValueError):
        decide_sign(0.5, -0.1)
    # A NaN threshold would otherwise leave every EV undecided.
    with pytest.raises(ValueError, match="threshold must be >= 0, got nan"):
        decide_sign(0.5, float("nan"))


# ---------------------------------------------------------------- measure_all

def test_measure_all_basis_state_exact():
    label = 5
    state = StateVector(3, basis_state_vector(3, label))
    assert measure_all(state, EnsembleModel()) == [(-1) ** bit_of(label, k) for k in range(1, 4)]


def test_measure_all_uniform_exact():
    assert all(abs(ev) <= 1e-15 for ev in measure_all(new_uniform(3), EnsembleModel()))


def test_measure_all_deterministic():
    state = closed_form_state(3, MarkedSet((2,), 8), 1)
    model = EnsembleModel(shots=400, seed=5, gaussian_noise_sigma=0.03)
    first = measure_all(state, model)
    assert first == measure_all(state, model)
    assert all(type(ev) is float for ev in first)


def test_ev_bound_widens_with_noise_and_rejects_nan():
    # The whole array is checked, NaN included, and the message names the
    # first EV past the bound, not the whole block.
    _check_ev_bound(np.array([1.2, -1.2]), 0.1)
    with pytest.raises(ValueError, match=r"^EV outside \[-1\.0, 1\.0\]: 1\.2$"):
        _check_ev_bound(np.array([1.2]), 0.0)
    with pytest.raises(ValueError, match=r"^EV outside \[-1\.3\d*, 1\.3\d*\]: nan$"):
        _check_ev_bound(np.array([0.5, float("nan")]), 0.1)
    block = np.full(1024, 0.5)
    block[[700, 900]] = -1.5, 2.0
    with pytest.raises(ValueError, match=r"^EV outside \[-1\.0, 1\.0\]: -1\.5$"):
        _check_ev_bound(block, 0.0)
    for inf in ("inf", "-inf"):
        with pytest.raises(ValueError, match=rf"^EV outside \[-1\.3\d*, 1\.3\d*\]: {inf}$"):
            _check_ev_bound(np.array([0.5, float(inf), 1.2]), 0.1)


# ----------------------------------------------------------- sign error rates

def test_sign_error_rate_exact_readout_is_zero():
    assert sign_error_rate(MarkedSet((5,), 16), 1, 1, EnsembleModel(), trials=3) == 0.0


@pytest.mark.parametrize("model", [EnsembleModel(), EnsembleModel(shots=64, seed=1)],
                         ids=["exact", "sampled"])
@pytest.mark.parametrize("k", [0, 5, 99, -1, 70])
def test_sign_error_rate_rejects_qubits_outside_the_register(model, k):
    # MarkedSet.ones holds the same rule on its own register, so no k past
    # it shifts or overflows.
    with pytest.raises(ValueError, match=rf"^qubit index {k} out of range 1\.\.4$"):
        sign_error_rate(MarkedSet((5,), 16), 1, k, model, trials=3)
    with pytest.raises(ValueError, match=rf"^qubit index {k} out of range 1\.\.4$"):
        MarkedSet((3, 5), 16).ones(k)


@pytest.mark.parametrize("model", [EnsembleModel(), EnsembleModel(shots=64, seed=1)],
                         ids=["exact", "sampled"])
@pytest.mark.parametrize("row", [-1, 2**32])
def test_sign_error_rate_rejects_rows_outside_the_stream_index(model, row):
    # An exact, noiseless rate builds no stream, and still rejects the row
    # with the message a stream gives.
    with pytest.raises(ValueError, match=rf"^a stream index must be in \[0, 2\*\*32\), got {row}$"):
        sign_error_rate(MarkedSet((5,), 16), 1, 1, model, trials=3, row=row)


@pytest.mark.parametrize("model", [EnsembleModel(), EnsembleModel(shots=64, seed=1)],
                         ids=["exact", "sampled"])
@pytest.mark.parametrize("name", ["k", "trials", "row"])
def test_sign_error_rate_rejects_a_float_count(model, name):
    # Each float lies in range, so only its type is wrong: it raises as
    # range(1.0) does rather than being read as an integer.  Qubit 1's
    # marked ones are counted first, so the memo cannot answer for k = 1.0.
    marked = MarkedSet((5,), 16)
    marked.ones(1)
    counts = {"k": 1, "trials": 3, "row": 0}
    counts[name] = float(counts[name])
    with pytest.raises(TypeError):
        sign_error_rate(marked, 1, counts["k"], model, trials=counts["trials"], row=counts["row"])
    if name == "k":
        # MarkedSet.ones rejects it on a fresh set and after ones(1) alike.
        for counted in (MarkedSet((3, 5), 16), marked):
            with pytest.raises(TypeError):
                counted.ones(1.0)


def test_sign_error_rate_counts_wrong_signs():
    # Three-shot readout of a 0.75-signal qubit (per-shot minority
    # probability 0.125, odd count so no ties): majority-wrong probability
    # is 3 * 0.125^2 * 0.875 + 0.125^3 = 0.043.
    rate = sign_error_rate(MarkedSet((5,), 8), 1, 1, EnsembleModel(shots=3, seed=1), trials=2000)
    assert 0.025 <= rate <= 0.065


def test_sign_error_rate_counts_ties_as_errors():
    # Even shot counts can tie at EV exactly 0; an undecided readout of a
    # decidable qubit is an error.  P(tie) + P(wrong sign) = 0.234 here.
    rate = sign_error_rate(MarkedSet((5,), 8), 1, 1, EnsembleModel(shots=2, seed=1), trials=2000)
    assert 0.19 <= rate <= 0.28


def dense_error_probability(state, shots, sigma):
    """The chance one trial misreads qubit 1's sign, from the dense state's
    Born weights and the exact binomial."""
    p = ones_probabilities(state.probabilities(), [1])[0]
    return sign_error_probability(shots, p, exact_ev(state, 1), sigma)


def test_sign_error_rate_agrees_with_per_trial_readouts():
    # The rate reads the two-amplitude state from one generator per row; it
    # and the share of 400 dense sampled_ev readouts at seeds 9 + t that
    # misread the sign must each lie within 5 standard errors (plus three
    # errors) of the exact chance of a wrong sign.  Power: the cases with
    # that chance in [0.05, 0.95] give a rate over 4,000 trials an sd of at
    # most 0.008, and a p_1 off by 1/sqrt(shots) moves the chance by more
    # than 0.1 in each of them (asserted below).
    cases = [
        (MarkedSet((3, 17), 32), 2),
        (MarkedSet((5,), 8), 1),
        (MarkedSet((6, 700, 1001), 1 << 10), 4),
        (MarkedSet((2049,), 1 << 12), 10),
        (MarkedSet((100, 3000), 1 << 12), 25),
    ]
    probabilities = []
    for marked, iterations in cases:
        state = closed_form_state(marked.universe_size.bit_length() - 1, marked, iterations)
        truth = decide_sign(exact_ev(state, 1), 0.0)
        assert truth is not None
        for shots, sigma in ((64, 0.0), (16, 0.05), (0, 0.05)):
            probability = dense_error_probability(state, shots, sigma)
            wrong = sum(
                decide_sign(
                    sampled_ev(state, 1, EnsembleModel(shots=shots, seed=9 + t,
                                                       gaussian_noise_sigma=sigma)),
                    0.0,
                ) != truth
                for t in range(400)
            )
            assert_rate_matches(wrong, 400, probability)
            model = EnsembleModel(shots=shots, seed=9, gaussian_noise_sigma=sigma)
            rate = sign_error_rate(marked, iterations, 1, model, trials=4000)
            assert_rate_matches(round(rate * 4000), 4000, probability)
            if shots and 0.05 <= probability <= 0.95:
                p = ones_probabilities(state.probabilities(), [1])[0]
                for shifted in (p - shots**-0.5, p + shots**-0.5):
                    moved = sign_error_probability(shots, min(max(shifted, 0.0), 1.0),
                                                   exact_ev(state, 1), sigma)
                    assert abs(moved - probability) > 0.1
            probabilities.append(probability)
    assert sum(0.05 <= probability <= 0.95 for probability in probabilities) >= 3


def test_sign_error_rate_trial_seeds_wrap():
    # A row seed at the top of the range, 2**64 - 1, keys the row's
    # generator like any other: the rate is that of the counts the stream
    # (2**64 - 1, ROW, 0) draws as Binomial(shots, p_1), p_1 = (1 - EV) / 2.
    marked = MarkedSet((1,), 16)
    ev = exact_ev(closed_form_state(4, marked, 1), 1)
    ones = stream(2**64 - 1, ROW, 0).binomial(4, (1 - ev) / 2, 3)
    wrong = [decide_sign((4 - 2 * one) / 4, 0.0) != decide_sign(ev, 0.0) for one in ones]
    rate = sign_error_rate(marked, 1, 1, EnsembleModel(shots=4, seed=2**64 - 1), trials=3)
    assert 0 < rate < 1
    assert rate == sum(wrong) / 3


@pytest.mark.parametrize("marked, iterations", [
    (MarkedSet((1, 2), 8), 1),  # the two marked labels split on bit 1
    (MarkedSet((0, 7), 8), 2),  # the same, where a dense sum leaves a residue
    (MarkedSet((5,), 8), 0),    # the uniform state
], ids=["split", "split-residue", "uniform"])
def test_sign_error_rate_zero_ev_reference_is_undecided(marked, iterations):
    # With an exact EV of 0 there is no sign to get right: every trial whose
    # readout decides errs, and every undecided trial (a tie of 32 ones in
    # 64 shots, chance 0.0993) is correct.  Over 4,000 trials the rate, and
    # over 400 seeds the share of dense readouts that decide, lie within 5
    # standard errors of 1 - 0.0993.  Power: scoring a tie as an error, or
    # a decided readout as correct, moves the rate by 21 standard errors or more.
    state = closed_form_state(3, marked, iterations)
    probability = dense_error_probability(state, 64, 0.0)
    assert abs(probability - 0.90072) < 1e-4
    decided = sum(
        decide_sign(sampled_ev(state, 1, EnsembleModel(shots=64, seed=4 + t)), 0.0)
        is not None
        for t in range(400)
    )
    assert_rate_matches(decided, 400, probability)
    rate = sign_error_rate(marked, iterations, 1, EnsembleModel(shots=64, seed=4), trials=4000)
    assert_rate_matches(round(rate * 4000), 4000, probability)
