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

Identical seeds therefore give identical records, and the standalone
per-qubit estimator agrees bit-for-bit with a full-register readout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import MAX_QUBITS
from .core import MarkedSet, StateVector, class_amplitudes, qubit_values


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
        if self.gaussian_noise_sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.gaussian_noise_sigma}")

    def default_threshold(self) -> float:
        """Smallest EV magnitude whose sign is trusted under this model.

        Five standard errors of an n-shot mean when sampling, near zero for
        the exact model.
        """
        if self.shots > 0:
            return 5.0 / np.sqrt(self.shots)
        return 1e-9


@dataclass(frozen=True)
class CorrelationInfo:
    """Record of a conditional bit-flip inserted before readout."""

    target_qubit: int
    fixed_bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "fixed_bits", tuple(int(b) for b in self.fixed_bits))
        if any(b not in (0, 1) for b in self.fixed_bits):
            raise ValueError(f"fixed_bits must be 0/1, got {self.fixed_bits}")
        if self.target_qubit != len(self.fixed_bits) + 1:
            raise ValueError(
                f"target qubit {self.target_qubit} does not extend "
                f"{len(self.fixed_bits)} fixed bits"
            )


@dataclass(frozen=True)
class RunRecord:
    """Readout of one algorithm run: per-qubit EVs plus cost metadata."""

    evs: tuple[float, ...]
    iterates_used: int
    oracle_invocations: int
    correlation_applied: CorrelationInfo | None = None
    noise_sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "evs", tuple(float(e) for e in self.evs))
        _check_ev_bound(self.evs, self.noise_sigma)
        if self.oracle_invocations != self.iterates_used:
            raise ValueError(
                f"oracle invocations ({self.oracle_invocations}) must equal "
                f"iterate count ({self.iterates_used}) for a single run"
            )

    def to_json_dict(self) -> dict:
        corr = None
        if self.correlation_applied is not None:
            corr = {
                "target_qubit": self.correlation_applied.target_qubit,
                "fixed_bits": list(self.correlation_applied.fixed_bits),
            }
        return {
            "evs": list(self.evs),
            "m": self.iterates_used,
            "oracle_invocations": self.oracle_invocations,
            "correlation": corr,
        }


def _check_ev_bound(evs: tuple[float, ...], sigma: float) -> None:
    """Reject an EV past the readout bound |ev| <= 1 + 3 sigma."""
    bound = 1.0 + 3.0 * sigma
    if any(abs(e) > bound + 1e-12 for e in evs):
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


def _class_shot_labels(
    heavy: np.ndarray, dim: int, weights: tuple[float, float], model: EnsembleModel
) -> np.ndarray:
    """:func:`_shot_labels` of a two-amplitude state, from its heavy labels."""
    return _class_inverse_cdf(heavy, dim, weights)(_uniform_draws(model))


def _label_evs(labels: np.ndarray, qubits: range | list[int]) -> np.ndarray:
    """Empirical sigma_z of each qubit in ``qubits`` over one set of shot
    labels, counted in one pass.  Each is a mean of +-1 terms whose sum is an
    exact integer, so it equals ``np.mean(1 - 2 bit)`` bit for bit."""
    ones = ((labels >> (np.asarray(qubits) - 1)[:, None]) & 1).sum(axis=1)
    return (labels.size - 2 * ones) / labels.size


def _readout_noise(model: EnsembleModel, k: int) -> float:
    """Additive instrument noise for qubit k, truncated at three sigma."""
    sigma = model.gaussian_noise_sigma
    if sigma == 0.0:
        return 0.0
    draw = np.random.default_rng((model.seed, k)).normal(0.0, sigma)
    return float(np.clip(draw, -3.0 * sigma, 3.0 * sigma))


def sampled_ev(state: StateVector, k: int, model: EnsembleModel) -> float:
    """Estimate of sigma_z(k) under the given ensemble model: qubit k of
    :func:`measure_all`."""
    if not 1 <= k <= state.qubit_count:
        raise ValueError(f"qubit index {k} out of range 1..{state.qubit_count}")
    return measure_all(state, model, iterates_used=0, oracle_invocations=0).evs[k - 1]


def decide_sign(ev: float, threshold: float) -> int | None:
    """Map an EV to a bit value: 0 above +threshold, 1 below -threshold.

    Returns None when |ev| falls in the dead zone and the sign cannot be
    trusted.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if ev > threshold:
        return 0
    if ev < -threshold:
        return 1
    return None


def _run_record(
    base: list[float],
    model: EnsembleModel,
    *,
    iterates_used: int,
    oracle_invocations: int,
    correlation: CorrelationInfo | None,
) -> RunRecord:
    """Add each qubit's readout noise to its EV and wrap the run's record."""
    evs = tuple(ev + _readout_noise(model, k) for k, ev in enumerate(base, start=1))
    return RunRecord(
        evs=evs,
        iterates_used=iterates_used,
        oracle_invocations=oracle_invocations,
        correlation_applied=correlation,
        noise_sigma=model.gaussian_noise_sigma,
    )


def measure_all(
    state: StateVector,
    model: EnsembleModel,
    *,
    iterates_used: int,
    oracle_invocations: int,
    correlation: CorrelationInfo | None = None,
) -> RunRecord:
    """Read out every qubit of one run from a single shared sample set."""
    qubits = range(1, state.qubit_count + 1)
    if model.shots == 0:
        base = [exact_ev(state, k) for k in qubits]
    else:
        base = _label_evs(_shot_labels(state, model), qubits).tolist()
    return _run_record(
        base, model,
        iterates_used=iterates_used,
        oracle_invocations=oracle_invocations,
        correlation=correlation,
    )


def class_state(
    marked: MarkedSet, iterations: int
) -> tuple[int, np.ndarray, tuple[float, float]]:
    """The two-amplitude state after ``iterations`` steps, in the form
    :func:`measure_classes` reads: ``(qubit_count, heavy, weights)``.

    ``heavy`` holds the marked labels and ``weights`` the Born weight of one
    marked and of one unmarked label.  The universe must be a power of two
    of at most :data:`~grover_ev.constants.MAX_QUBITS` qubits.
    """
    n = marked.universe_size
    qubit_count = n.bit_length() - 1
    if 1 << qubit_count != n:
        raise ValueError(f"universe size must be a power of two, got {n}")
    if qubit_count > MAX_QUBITS:
        raise ValueError(
            f"qubit_count must be in 1..{MAX_QUBITS}, got {qubit_count}"
        )
    on, off = class_amplitudes(n, marked.count, iterations)
    heavy = np.array(marked.locations, dtype=np.int64)
    return qubit_count, heavy, (on * on, off * off)


def _class_evs(
    heavy: np.ndarray, weights: tuple[float, float], qubits: range | list[int]
) -> np.ndarray:
    """Exact EVs of each qubit in ``qubits`` for a two-amplitude state:
    (on - off) * sum over heavy of (1 - 2 bit_k), since ``off``, spread
    evenly over all labels, cancels."""
    on, off = weights
    ones = ((heavy[:, None] >> (np.asarray(qubits) - 1)) & 1).sum(axis=0)
    return (on - off) * (heavy.size - 2 * ones)


def _class_base_evs(
    qubit_count: int,
    heavy: np.ndarray,
    weights: tuple[float, float],
    model: EnsembleModel,
    qubits: range | list[int],
) -> np.ndarray:
    """EVs of the given qubits of one two-amplitude run, before readout
    noise: exact, or counted over the run's shot labels."""
    if model.shots == 0:
        return _class_evs(heavy, weights, qubits)
    labels = _class_shot_labels(heavy, 1 << qubit_count, weights, model)
    return _label_evs(labels, qubits)


def measure_classes(
    qubit_count: int,
    heavy: np.ndarray,
    weights: tuple[float, float],
    model: EnsembleModel,
    *,
    iterates_used: int,
    oracle_invocations: int,
    correlation: CorrelationInfo | None = None,
) -> RunRecord:
    """:func:`measure_all` of a two-amplitude state, without building it.

    The state puts Born weight ``weights[0]`` (on) on each label in
    ``heavy`` and ``weights[1]`` (off) on every other label of the
    ``qubit_count``-qubit register.  Exact readout costs O(M L).  Sampled
    readout draws the same labels as :func:`measure_all` would from the same
    seed, in O(shots L); the readout noise is the same.
    """
    heavy = np.asarray(heavy, dtype=np.int64)
    base = _class_base_evs(qubit_count, heavy, weights, model, range(1, qubit_count + 1))
    return _run_record(
        base.tolist(), model,
        iterates_used=iterates_used,
        oracle_invocations=oracle_invocations,
        correlation=correlation,
    )


def measure_class_qubit(
    qubit_count: int,
    heavy: np.ndarray,
    weights: tuple[float, float],
    model: EnsembleModel,
    k: int,
) -> float:
    """EV of qubit ``k`` alone from :func:`measure_classes`' readout of the
    same run: the same draws and the same readout noise, in O(M) exact or
    O(shots) sampled.  The EV is held to the same bound as a record's."""
    base = _class_base_evs(qubit_count, np.asarray(heavy, dtype=np.int64), weights, model, [k])
    ev = float(base[0]) + _readout_noise(model, k)
    _check_ev_bound((ev,), model.gaussian_noise_sigma)
    return ev


def sign_error_rate(
    marked: MarkedSet,
    iterations: int,
    k: int,
    *,
    shots: int,
    sigma: float = 0.0,
    threshold: float = 0.0,
    trials: int = 200,
    seed: int = 0,
) -> float:
    """Fraction of seeded readout trials that misjudge the sign of qubit k
    after ``iterations`` steps on ``marked``.

    The reference answer is the sign of the exact EV, undecided when that EV
    is 0; a trial errs when its decision (at the given threshold) differs
    from that reference, counting an undecided readout of a decidable qubit
    as an error.  Trial ``t`` uses seed ``seed + t``.  Trials draw their
    shots from the two-amplitude state (:func:`class_state`) through tables
    built once, so the rate costs O(trials shots) whatever the register size.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    qubit_count, heavy, weights = class_state(marked, iterations)
    if not 1 <= k <= qubit_count:
        raise ValueError(f"qubit index {k} out of range 1..{qubit_count}")
    exact = float(_class_evs(heavy, weights, [k])[0])
    truth = decide_sign(exact, 0.0)
    labels_of = _class_inverse_cdf(heavy, 1 << qubit_count, weights)
    errors = 0
    for t in range(trials):
        model = EnsembleModel(shots=shots, seed=seed + t, gaussian_noise_sigma=sigma)
        if shots:
            base = _label_evs(labels_of(_uniform_draws(model)), [k])[0]
        else:
            base = exact
        if decide_sign(base + _readout_noise(model, k), threshold) != truth:
            errors += 1
    return errors / trials
