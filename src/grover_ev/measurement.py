"""Per-qubit sigma_z expectation values, exact and under finite sampling.

An expectation-value machine reads out one number per qubit: the ensemble
average of sigma_z(k) (Gershenfeld & Chuang, Science 275, 350 (1997)).
``shots = 0`` models an infinite ensemble (exact EVs); ``shots = n > 0``
reports the mean over ``n`` ensemble members, fixed by each qubit's count of
ones over the run's one shared set of shots.  A read, a sweep row or a
search draws from one generator, ``default_rng(seed)``: each run's counts (or
dense shot labels), then its noise, truncated at 3 sigma: |ev| <= 1 + 3*sigma.

Every two-amplitude run is read by counts in :func:`_read` (Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. X).  One qubit k is one
``Binomial(shots, p_k)``, ``p_k`` exact from the class weights in O(M).
Several qubits, where a marked label weighs at least as much as an unmarked
one (``on >= off``): the Born distribution is uniform over all N labels (bits
independent fair coins) with weight ``off N / total`` and uniform over the M
marked labels with the rest, so ``K ~ Binomial(shots, (on - off) M / total)``
marked draws split by a ``Multinomial(K, 1/M each)``, and qubit k's ones are
``Binomial(shots - K, 1/2)`` plus the marked draws with bit k set.  Past the
crossing (``on < off``) a sampled read of several qubits raises
``ValueError``; no search reads such a state.  A read of several qubits
costs O(M L), of one O(M), at every shot count.  Qubits read alone get
counts of their own, equal in distribution (not bit for bit) to a full
readout's.  The dense :func:`measure_all` is the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import MarkedSet, StateVector, class_amplitudes, qubit_values


# Most trials a sign-error rate draws at once: memory stays O(_BLOCK_DRAWS).
_BLOCK_DRAWS = 1 << 10

# Most trials one sign-error rate reads: about 0.2 s of noisy trials.
MAX_TRIALS = 1_000_000


@dataclass(frozen=True)
class EnsembleModel:
    """Finite-ensemble readout model: shot count, RNG seed, readout noise."""

    shots: int = 0
    seed: int = 0
    gaussian_noise_sigma: float = 0.0

    def __post_init__(self):
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        sigma = self.gaussian_noise_sigma
        if not (math.isfinite(sigma) and sigma >= 0):
            raise ValueError(f"sigma must be a finite number >= 0, got {sigma}")


def _check_ev_bound(evs: np.ndarray, sigma: float) -> None:
    """Reject an array with an EV past |ev| <= 1 + 3 sigma, or NaN, naming the first."""
    bound = 1.0 + 3.0 * sigma
    inside = np.abs(evs) <= bound + 1e-12
    if not inside.all():
        raise ValueError(f"EV outside [-{bound}, {bound}]: {evs[~inside][0]}")


def exact_ev(state: StateVector, k: int) -> float:
    """Exact ensemble average of sigma_z(k): P(bit k = 0) - P(bit k = 1)."""
    bits = qubit_values(state.qubit_count, k)
    probs = state.probabilities()
    return float(np.sum(probs[bits == 0]) - np.sum(probs[bits == 1]))


def _run_generator(model: EnsembleModel) -> np.random.Generator | None:
    """The one generator a read, a sweep row or a search draws its counts
    and noise from; None for exact, noiseless readout, which draws nothing."""
    if model.shots or model.gaussian_noise_sigma:
        return np.random.default_rng(model.seed)
    return None


def _born_cdf(state: StateVector) -> np.ndarray:
    """Cumulative Born weights over the basis labels, scaled to end at 1."""
    cdf = np.cumsum(state.probabilities())
    cdf /= cdf[-1]
    return cdf


def _shot_labels(state: StateVector, draws: np.ndarray) -> np.ndarray:
    """Basis labels of uniform draws in [0, 1), by inverse-CDF over the Born weights."""
    return np.searchsorted(_born_cdf(state), draws, side="right")


def _bits(labels: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Bit k of each label for each k in ``qubits``: a (labels, qubits) array of 0/1."""
    return (labels[:, None] >> (np.asarray(qubits) - 1)) & 1


def _label_evs(labels: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Empirical sigma_z of each qubit in ``qubits`` over the shot labels,
    counted in one pass.  Each is a mean of +-1 terms whose sum is an exact
    integer, so it equals ``np.mean(1 - 2 bit)`` bit for bit."""
    return (labels.size - 2 * _bits(labels, qubits).sum(axis=0)) / labels.size


def sampled_ev(state: StateVector, k: int, model: EnsembleModel) -> float:
    """Estimate of sigma_z(k) under the given ensemble model: qubit k of
    :func:`measure_all`."""
    if not 1 <= k <= state.qubit_count:
        raise ValueError(f"qubit index {k} out of range 1..{state.qubit_count}")
    return measure_all(state, model)[k - 1]


def decide_sign(ev: float, threshold: float) -> int | None:
    """Map an EV to a bit value: 0 above +threshold, 1 below -threshold.

    Returns None when |ev| falls in the dead zone and the sign cannot be
    trusted.
    """
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if ev > threshold:
        return 0
    if ev < -threshold:
        return 1
    return None


def _noisy(base: np.ndarray, sigma: float, rng: np.random.Generator | None) -> np.ndarray:
    """The EVs in ``base`` plus their readout noise from ``rng``, clipped at
    3 sigma (none when sigma is 0), held to the readout bound."""
    if sigma:
        base = base + np.clip(rng.normal(0.0, sigma, base.size), -3.0 * sigma, 3.0 * sigma)
    _check_ev_bound(base, sigma)
    return base


def measure_all(state: StateVector, model: EnsembleModel) -> list[float]:
    """Read out every qubit of one dense run from a single shared sample set:
    the EV of qubit k is entry k - 1."""
    qubits = range(1, state.qubit_count + 1)
    rng = _run_generator(model)
    if model.shots == 0:
        base = np.array([exact_ev(state, k) for k in qubits])
    else:
        base = _label_evs(_shot_labels(state, rng.random(model.shots)), qubits)
    return _noisy(base, model.gaussian_noise_sigma, rng).tolist()


@dataclass(frozen=True, eq=False)
class ClassState:
    """A two-amplitude state, in the form :func:`measure_classes` reads.

    Each label in ``heavy`` has Born weight ``weights[0]`` (on) and every
    other label of the ``qubit_count``-qubit register ``weights[1]`` (off).
    """

    qubit_count: int
    heavy: np.ndarray
    weights: tuple[float, float]


def class_state(marked: MarkedSet, iterations: int) -> ClassState:
    """The two-amplitude state after ``iterations`` steps on ``marked``.

    ``heavy`` holds the marked labels and ``weights`` the Born weight of one
    marked and of one unmarked label.  The universe must be a power of two
    (checked by ``grover_angle``).
    """
    n = marked.universe_size
    on, off = class_amplitudes(n, marked.count, iterations)
    qubit_count = n.bit_length() - 1
    heavy = np.array(marked.locations, dtype=np.int64)
    return ClassState(qubit_count, heavy, (on * on, off * off))


def _class_evs(
    heavy: np.ndarray, weights: tuple[float, float], qubits: Sequence[int]
) -> np.ndarray:
    """Exact EVs of each qubit in ``qubits`` for a two-amplitude state:
    (on - off) * sum over heavy of (1 - 2 bit_k), since ``off``, spread
    evenly over all labels, cancels."""
    on, off = weights
    ones = _bits(heavy, qubits).sum(axis=0)
    return (on - off) * (heavy.size - 2 * ones)


def _ones_probability(state: ClassState, k: int) -> float:
    """P(bit k = 1) for one shot of a two-amplitude state, in O(M).  Every
    term is >= 0, so the ratio lies in [0, 1] in floats too."""
    on, off = state.weights
    dim, size = 1 << state.qubit_count, state.heavy.size
    ones = int(_bits(state.heavy, [k]).sum())
    total = off * (dim - size) + on * size
    return (off * (dim // 2 - ones) + on * ones) / total


def _class_ones(
    state: ClassState, shots: int, qubits: Sequence[int], rng: np.random.Generator, runs: int
) -> np.ndarray:
    """Ones of each qubit in ``qubits`` over one run of ``shots`` shots, or of
    one qubit over ``runs`` runs, drawn as the module docstring sets out."""
    if len(qubits) == 1:
        return rng.binomial(shots, _ones_probability(state, qubits[0]), runs)
    on, off = state.weights
    if on < off:
        raise ValueError("a marked label weighs less than an unmarked one: read one qubit")
    dim, size = 1 << state.qubit_count, state.heavy.size
    total = off * (dim - size) + on * size
    marked = rng.binomial(shots, (on - off) * size / total)
    ones = rng.binomial(shots - marked, 0.5, len(qubits))
    return ones + rng.multinomial(marked, [1.0 / size] * size) @ _bits(state.heavy, qubits)


def _read(
    state: ClassState, model: EnsembleModel, qubits: Sequence[int],
    rng: np.random.Generator | None, runs: int = 1,
) -> np.ndarray:
    """EVs of the listed qubits of one run, or of one qubit over ``runs``
    runs: exact or counts, then noise, all from ``rng``, held to the readout
    bound.  The caller checks the qubit indices."""
    if model.shots == 0:
        base = _class_evs(state.heavy, state.weights, qubits)
        base = np.repeat(base, runs) if runs > 1 else base
    else:
        ones = _class_ones(state, model.shots, qubits, rng, runs)
        base = (model.shots - 2 * ones) / model.shots
    return _noisy(base, model.gaussian_noise_sigma, rng)


def measure_classes(
    state: ClassState, model: EnsembleModel, qubits: Sequence[int]
) -> list[float]:
    """EVs of the listed qubits of one run on a two-amplitude state, without
    building the dense state: exact in O(M) per qubit (the dense entries, to
    rounding), or sampled by counts from ``default_rng(model.seed)``, O(M L)
    at every shot count (see the module docstring).  Each listed qubit must
    be one of the register's, 1..L.  A sampled read of several qubits past
    the crossing, where a marked label weighs less than an unmarked one,
    raises ``ValueError``; exact and one-qubit reads take every state.
    """
    for k in qubits:
        if not 1 <= k <= state.qubit_count:
            raise ValueError(f"qubit index {k} out of range 1..{state.qubit_count}")
    return _read(state, model, qubits, _run_generator(model)).tolist()


def sign_error_rate(
    marked: MarkedSet,
    iterations: int,
    k: int,
    model: EnsembleModel,
    *,
    trials: int = 200,
) -> float:
    """Fraction of seeded readout trials that misjudge the sign of qubit k
    after ``iterations`` steps on ``marked``.

    The reference is the sign of the exact EV, undecided when it is 0; a
    trial errs when the sign it reads (:func:`decide_sign` at threshold 0)
    differs, so a zero readout of a decidable qubit errs.  All trials draw
    from ``default_rng(model.seed)``, read by :func:`_read` in blocks of at
    most ``_BLOCK_DRAWS`` (a trial is one ``Binomial(shots, p_k)`` plus its
    noise): O(M + trials) time and O(_BLOCK_DRAWS) memory whatever the shot
    count and register size.  Exact, noiseless readout runs one trial.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in 1..{MAX_TRIALS}, got {trials}")
    trials = 1 if model.shots == 0 and model.gaussian_noise_sigma == 0.0 else trials
    state = class_state(marked, iterations)
    # The exact read checks k; its sign is decide_sign at 0 (undecided 0).
    truth = np.sign(measure_classes(state, EnsembleModel(), [k])[0])
    rng = _run_generator(model)
    errors = 0
    for start in range(0, trials, _BLOCK_DRAWS):
        evs = _read(state, model, [k], rng, min(_BLOCK_DRAWS, trials - start))
        errors += int(np.count_nonzero(np.sign(evs) != truth))
    return errors / trials
