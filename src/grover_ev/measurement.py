"""Per-qubit sigma_z expectation values, exact and under finite sampling.

An expectation-value machine reads out one number per qubit: the ensemble
average of sigma_z(k).  ``shots = 0`` models an infinite ensemble (exact
EVs); ``shots = n > 0`` draws ``n`` basis-state samples from the Born
distribution and reports empirical means.  Every shot is one simulated
ensemble member, so a single shared sample set feeds all qubits of a run.

RNG streams are derived from the model seed and nothing else:

* shot labels come from ``numpy.random.default_rng(seed)`` via inverse-CDF
  lookup on the cumulative Born distribution (for a two-amplitude state,
  :func:`measure_classes` and :func:`sign_error_rate` invert that CDF in
  closed form on the same draws);
* the additive readout noise on qubit ``k`` comes from
  ``default_rng((seed, k))``, truncated at three sigma so reported EVs stay
  within the documented bound |ev| <= 1 + 3*sigma.

Identical seeds therefore give identical EVs, and reading any subset of a
run's qubits gives, bit for bit, the EVs a full-register readout gives them.
:func:`sign_error_rate` reads its trials in blocks of at most
``_BLOCK_DRAWS`` draws, one inverse-CDF pass per block, so its memory is
O(max(_BLOCK_DRAWS, shots)) however many trials it runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import MarkedSet, StateVector, check_qubit_count, class_amplitudes, qubit_values


# Most uniform draws one inverse-CDF pass takes when a sign-error rate reads
# its trials in blocks: larger blocks push the pass's temporaries out of L2.
_BLOCK_DRAWS = 1 << 13


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


def _check_ev_bound(evs: list[float], sigma: float) -> None:
    """Reject an EV past the readout bound |ev| <= 1 + 3 sigma, or NaN."""
    bound = 1.0 + 3.0 * sigma
    limit = bound + 1e-12
    for e in evs:
        if not abs(e) <= limit:
            raise ValueError(f"EV outside [-{bound}, {bound}]: {evs}")


def exact_ev(state: StateVector, k: int) -> float:
    """Exact ensemble average of sigma_z(k): P(bit k = 0) - P(bit k = 1)."""
    bits = qubit_values(state.qubit_count, k)
    probs = state.probabilities()
    return float(np.sum(probs[bits == 0]) - np.sum(probs[bits == 1]))


def _uniform_draws(model: EnsembleModel) -> np.ndarray:
    """The ``shots`` uniform draws in [0, 1) behind one readout's shot labels."""
    return np.random.default_rng(model.seed).random(model.shots)


def _born_cdf(state: StateVector) -> np.ndarray:
    """Cumulative Born weights over the basis labels, scaled to end at 1."""
    cdf = np.cumsum(state.probabilities())
    cdf /= cdf[-1]
    return cdf


def _shot_labels(state: StateVector, model: EnsembleModel) -> np.ndarray:
    """Draw ``shots`` basis labels by inverse-CDF over the Born weights."""
    return np.searchsorted(_born_cdf(state), _uniform_draws(model), side="right")


def _class_inverse_cdf(heavy: np.ndarray, dim: int, weights: tuple[float, float]):
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

    def labels_of(draws: np.ndarray) -> np.ndarray:
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


def _label_evs(labels: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Empirical sigma_z of each qubit in ``qubits`` over each row of shot
    labels (the last axis), counted in one pass.  Each is a mean of +-1 terms
    whose sum is an exact integer, so it equals ``np.mean(1 - 2 bit)`` bit for bit."""
    shots = labels.shape[-1]
    ones = ((labels[..., None, :] >> (np.asarray(qubits) - 1)[:, None]) & 1).sum(axis=-1)
    return (shots - 2 * ones) / shots


def _readout_noise(model: EnsembleModel, k: int) -> float:
    """Additive instrument noise for qubit k, truncated at three sigma."""
    sigma = model.gaussian_noise_sigma
    draw = np.random.default_rng((model.seed, k)).normal(0.0, sigma)
    return float(np.clip(draw, -3.0 * sigma, 3.0 * sigma))


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


def _noisy(base: list[float], model: EnsembleModel, qubits: Sequence[int]) -> list[float]:
    """Add each listed qubit's readout noise to its EV in ``base`` (none when
    sigma is 0) and hold the result to the readout bound."""
    sigma = model.gaussian_noise_sigma
    if sigma:
        base = [ev + _readout_noise(model, k) for ev, k in zip(base, qubits)]
    _check_ev_bound(base, sigma)
    return base


def measure_all(state: StateVector, model: EnsembleModel) -> list[float]:
    """Read out every qubit of one dense run from a single shared sample set:
    the EV of qubit k is entry k - 1."""
    qubits = range(1, state.qubit_count + 1)
    if model.shots == 0:
        base = [exact_ev(state, k) for k in qubits]
    else:
        base = _label_evs(_shot_labels(state, model), qubits).tolist()
    return _noisy(base, model, qubits)


@dataclass(frozen=True, eq=False)
class ClassState:
    """A two-amplitude state, in the form :func:`measure_classes` reads.

    Each label in ``heavy`` has Born weight ``weights[0]`` (on) and every
    other label of the ``qubit_count``-qubit register ``weights[1]`` (off).
    """

    qubit_count: int
    heavy: np.ndarray
    weights: tuple[float, float]

    @functools.cached_property
    def labels_of(self):
        """The inverse of this state's Born CDF (:func:`_class_inverse_cdf`),
        built on the first sampled readout and reused by later ones."""
        return _class_inverse_cdf(self.heavy, 1 << self.qubit_count, self.weights)


def class_state(marked: MarkedSet, iterations: int) -> ClassState:
    """The two-amplitude state after ``iterations`` steps on ``marked``.

    ``heavy`` holds the marked labels and ``weights`` the Born weight of one
    marked and of one unmarked label.  The universe must be a power of two
    (checked by ``grover_angle``) of at most ``MAX_QUBITS`` qubits.
    """
    n = marked.universe_size
    on, off = class_amplitudes(n, marked.count, iterations)
    qubit_count = n.bit_length() - 1
    check_qubit_count(qubit_count)
    heavy = np.array(marked.locations, dtype=np.int64)
    return ClassState(qubit_count, heavy, (on * on, off * off))


def _class_evs(
    heavy: np.ndarray, weights: tuple[float, float], qubits: Sequence[int]
) -> np.ndarray:
    """Exact EVs of each qubit in ``qubits`` for a two-amplitude state:
    (on - off) * sum over heavy of (1 - 2 bit_k), since ``off``, spread
    evenly over all labels, cancels."""
    on, off = weights
    ones = ((heavy[:, None] >> (np.asarray(qubits) - 1)) & 1).sum(axis=0)
    return (on - off) * (heavy.size - 2 * ones)


def measure_classes(
    state: ClassState, model: EnsembleModel, qubits: Sequence[int]
) -> list[float]:
    """EVs of the listed qubits of one run on a two-amplitude state: the
    entries :func:`measure_all` gives those qubits for the dense state, without
    building it.

    Exact readout costs O(M) per qubit.  Sampled readout draws the same
    labels as :func:`measure_all` would from the same seed, in O(shots) per
    qubit; each listed qubit gets the same readout noise, whichever other
    qubits are read with it.
    """
    if model.shots == 0:
        base = _class_evs(state.heavy, state.weights, qubits)
    else:
        base = _label_evs(state.labels_of(_uniform_draws(model)), qubits)
    return _noisy(base.tolist(), model, qubits)


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

    The reference answer is the sign of the exact EV, undecided when that EV
    is 0; a trial errs when the sign it reads differs from that reference,
    counting a zero readout of a decidable qubit as an error.  Trial ``t``
    reads ``model`` with seed ``(model.seed + t) mod 2**64`` and decides
    exactly as :func:`measure_classes` with that seed would; exact,
    noiseless readout (shots = sigma = 0) is deterministic, so it runs one
    trial.  Sampled trials are read in blocks of at most ``_BLOCK_DRAWS``
    draws (one trial when ``shots`` exceeds it), with one inverse-CDF pass
    over the two-amplitude state (:func:`class_state`) per block, so the
    rate costs O(trials shots) time and O(max(_BLOCK_DRAWS, shots)) memory
    whatever the register size.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    trials = 1 if model.shots == 0 and model.gaussian_noise_sigma == 0.0 else trials
    state = class_state(marked, iterations)
    if not 1 <= k <= state.qubit_count:
        raise ValueError(f"qubit index {k} out of range 1..{state.qubit_count}")
    exact = measure_classes(state, EnsembleModel(), [k])[0]
    truth = decide_sign(exact, 0.0)
    seeds = [(model.seed + t) % 2**64 for t in range(trials)]
    if model.shots == 0:
        evs = [exact] * trials
    else:
        # Row t of a block holds trial t's draws, the stream _uniform_draws
        # gives its seed; one inverse-CDF pass labels the whole block.
        block = max(1, _BLOCK_DRAWS // model.shots)
        evs = []
        for start in range(0, trials, block):
            chunk = seeds[start:start + block]
            draws = np.empty((len(chunk), model.shots))
            for row, seed in zip(draws, chunk):
                np.random.default_rng(seed).random(out=row)
            evs += _label_evs(state.labels_of(draws), [k])[:, 0].tolist()
    errors = 0
    for seed, ev in zip(seeds, evs):
        trial = replace(model, seed=seed) if model.gaussian_noise_sigma else model
        errors += decide_sign(_noisy([ev], trial, [k])[0], 0.0) != truth
    return errors / trials
