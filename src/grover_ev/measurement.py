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

import json
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
        bound = 1.0 + 3.0 * self.noise_sigma
        if any(abs(e) > bound + 1e-12 for e in self.evs):
            raise ValueError(f"EV outside [-{bound}, {bound}]: {self.evs}")
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


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


def _class_shot_labels(
    heavy: np.ndarray, dim: int, weights: tuple[float, float], model: EnsembleModel
) -> np.ndarray:
    """:func:`_shot_labels` of a two-amplitude state, from its heavy labels.

    Each of the M ``heavy`` labels has Born weight ``weights[0]`` and each of
    the other ``dim - M`` labels ``weights[1]``.  With the heavy labels sorted
    as h_0 < h_1 < ..., the CDF is off * (x + 1) + (on - off) * #{h_j <= x}:
    a step of width ``on`` at each h_j and linear in between.  One
    searchsorted over the M steps finds each draw's segment; a draw that lies
    between two steps is inverted by one division by ``off``.  Only such
    draws divide, so a weight that underflows to zero empties its segments
    instead of dividing by zero.
    """
    on, off = weights
    heavy = np.sort(heavy)
    count = heavy.size
    rise = on - off
    total = off * dim + rise * count
    before = np.arange(count)
    # CDF just below and at each heavy label, scaled to end at 1 as in
    # _born_cdf; a sentinel start past 1 sends draws above the last step
    # into the final unmarked segment.
    starts = np.append((off * heavy + rise * before) / total, np.inf)
    ends = (off * (heavy + 1) + rise * (before + 1)) / total
    draws = _uniform_draws(model)
    segment = np.searchsorted(ends, draws, side="right")
    labels = np.append(heavy, 0)[segment]
    between = draws < starts[segment]
    seg = segment[between]
    lowest = np.append(0, heavy + 1)[seg]
    highest = np.append(heavy - 1, dim - 1)[seg]
    offset = np.floor((draws[between] * total - rise * seg) / off)
    labels[between] = np.clip(offset, lowest, highest).astype(labels.dtype)
    return labels


def _label_ev(labels: np.ndarray, k: int) -> float:
    """Empirical sigma_z(k) over a set of shot labels."""
    return float(np.mean(1.0 - 2.0 * ((labels >> (k - 1)) & 1)))


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
        labels = _shot_labels(state, model)
        base = [_label_ev(labels, k) for k in qubits]
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


def _class_evs(qubit_count: int, heavy: np.ndarray, weights: tuple[float, float]) -> list[float]:
    """Exact EVs of a two-amplitude state: (on - off) * sum over heavy of
    (1 - 2 bit_k), since ``off``, spread evenly over all labels, cancels."""
    on, off = weights
    ones = ((heavy[:, None] >> np.arange(qubit_count)) & 1).sum(axis=0)
    return [(on - off) * float(heavy.size - 2 * c) for c in ones]


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
    if model.shots == 0:
        base = _class_evs(qubit_count, heavy, weights)
    else:
        labels = _class_shot_labels(heavy, 1 << qubit_count, weights, model)
        base = [_label_ev(labels, k) for k in range(1, qubit_count + 1)]
    return _run_record(
        base, model,
        iterates_used=iterates_used,
        oracle_invocations=oracle_invocations,
        correlation=correlation,
    )


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
    shots from the two-amplitude state (:func:`class_state`), so the rate
    costs O(trials shots), whatever the register size.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    qubit_count, heavy, weights = class_state(marked, iterations)
    if not 1 <= k <= qubit_count:
        raise ValueError(f"qubit index {k} out of range 1..{qubit_count}")
    exact = _class_evs(qubit_count, heavy, weights)[k - 1]
    truth = decide_sign(exact, 0.0)
    errors = 0
    for t in range(trials):
        model = EnsembleModel(shots=shots, seed=seed + t, gaussian_noise_sigma=sigma)
        if shots:
            base = _label_ev(_class_shot_labels(heavy, 1 << qubit_count, weights, model), k)
        else:
            base = exact
        if decide_sign(base + _readout_noise(model, k), threshold) != truth:
            errors += 1
    return errors / trials
