"""Per-qubit sigma_z expectation values, exact and under finite sampling.

An expectation-value machine reads out one number per qubit: the ensemble
average of sigma_z(k) (Gershenfeld & Chuang, Science 275, 350 (1997)).
``shots = 0`` models an infinite ensemble (exact EVs); ``shots = n > 0``
reports the mean over ``n`` ensemble members, fixed by each qubit's count of
ones over the run's one shared set of shots.  A read or a search draws from
``core.stream(seed, READ, 0)``, sweep row i from ``stream(seed, ROW, i)``: each
run's counts (or shot labels), then its noise, clipped at 3 sigma: |ev| <= 1 + 3*sigma.

Every two-amplitude read is a whole run or one qubit, read by counts
(Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. X).
:func:`_read` reads every qubit of one run as a list of Python floats (an
exact, noiseless run without building an array), and :func:`_read_one` one
qubit of one run as a Python float (a search's correlated run, a sweep row's
exact reference).  :func:`sign_error_rate` reads its own blocks of
trials, one qubit over many runs; a block of one trial is, draw for draw,
one :func:`_read_one` call.  All read a count by :func:`_count_evs` and hold each EV to
:func:`_check_ev`, but for a noiseless block of sampled trials: its counts
fix their signs, so :func:`_sign_errors` scores them as integers, held to
[0, shots], with no EV built.  Every read starts from the state's EV
attenuation A_m (:class:`ClassState`): qubit k's exact EV is
``EV_k = A_m (M - 2 ones_k) / M``, where ones_k of the M marked labels have
bit k set, and one qubit is one ``Binomial(shots, (1 - EV_k) / 2)``.
A whole run, where ``A_m >= 0`` (a marked label weighs at least as much as
an unmarked one): the Born distribution is uniform over all N labels (bits
independent fair coins) with weight ``1 - A_m`` and uniform over the M
marked labels with weight ``A_m``, so ``K ~ Binomial(shots, A_m)``
marked draws split by a ``Multinomial(K, 1/M each)``, and qubit k's ones are
``Binomial(shots - K, 1/2)`` plus the marked draws with bit k set.  Past the
crossing (``A_m < 0``, which only an explicit m reaches) a sampled whole run
raises ``ValueError``; exact reads and one-qubit reads take every state, and
no search reads such a state.  A whole run costs O(M L), one qubit O(M) or
O(1) given its count, at every shot count, and no read allocates memory that
grows with ``shots``.  The dense :func:`measure_all` is the reference.

A search reads its runs through :func:`_search_runs`, from the marked
labels alone with no statevector: one plain run on every qubit, as
:func:`measure_classes` reads it, then each later stage's correlated run
on its target qubit alone, all in turn from one ``stream(seed, READ, 0)``.
The correlation only permutes labels, so a correlated run is fixed by its
target qubit's count of ones over the moved labels.  The reader sorts the
marked labels once as L-bit keys, bits from qubit 1 down, in
O(M L + M log M); a prefix keeps one contiguous run of keys, so three
bisections give each count in O(log M) and no label is moved.  A search
thus costs O(M L + M log M + runs log M) whatever ``shots`` is.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import READ, ROW, MarkedSet, StateVector, check_stream_index
from .core import check_qubit_index, qubit_values, rekey, stream
from .planner import attenuation


# Most trials a sign-error rate draws at once: memory stays O(_BLOCK_DRAWS).
_BLOCK_DRAWS = 1 << 10

# Most trials one sign-error rate reads: about 0.2 s of noisy trials.
MAX_TRIALS = 1_000_000

# The shift of qubit k + 1, and the weight of bit i of an L-bit key,
# 2**(L - 1 - i), as _KEY_WEIGHTS[-L:][i]: a register has at most 62 qubits.
_SHIFTS = np.arange(62, dtype=np.int64)
_KEY_WEIGHTS = 1 << np.arange(61, -1, -1, dtype=np.int64)


@dataclass(frozen=True)
class EnsembleModel:
    """Finite-ensemble readout model: shot count, RNG seed, readout noise.

    Checked here: ``shots`` in [0, 2**63), as each count is drawn as a signed
    64-bit integer, ``seed`` in [0, 2**64), and a finite sigma >= 0.
    """

    shots: int = 0
    seed: int = 0
    gaussian_noise_sigma: float = 0.0

    def __post_init__(self):
        if operator.index(self.shots) < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")
        if self.shots >= 2**63:
            raise ValueError(f"shots must be below 2**63, got {self.shots}")
        if not 0 <= operator.index(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        sigma = self.gaussian_noise_sigma
        if not (math.isfinite(sigma) and sigma >= 0):
            raise ValueError(f"sigma must be a finite number >= 0, got {sigma}")


_EXACT = EnsembleModel()  # exact, noiseless readout: a sweep row's reference


def _ev_bound(sigma: float) -> float:
    """The readout bound on |ev|: 1, plus noise clipped at 3 sigma."""
    return 1.0 + 3.0 * sigma


def _check_ev(ev: float, sigma: float) -> float:
    """``ev``, held to the readout bound (1e-12 over it for rounding); NaN fails."""
    bound = _ev_bound(sigma)
    if not abs(ev) <= bound + 1e-12:
        raise ValueError(f"EV outside [-{bound}, {bound}]: {ev}")
    return ev


def _check_ev_bound(evs: np.ndarray, sigma: float) -> None:
    """Hold every EV of an array to :func:`_check_ev`, naming the first past
    the bound.  All pass when the largest |ev| does (NaN if any EV is NaN)."""
    if not np.abs(evs).max(initial=0.0) <= _ev_bound(sigma) + 1e-12:
        for ev in evs.tolist():
            _check_ev(ev, sigma)


def exact_ev(state: StateVector, k: int) -> float:
    """Exact ensemble average of sigma_z(k): P(bit k = 0) - P(bit k = 1)."""
    bits = qubit_values(state.qubit_count, k)
    probs = state.probabilities()
    return float(np.sum(probs[bits == 0]) - np.sum(probs[bits == 1]))


def _run_generator(model: EnsembleModel, purpose: int = READ, index: int = 0, rng=None):
    """``stream(model.seed, purpose, index)``, or ``rng`` re-keyed to it: what a
    read or a search draws its counts and noise from; None for exact, noiseless readout."""
    if model.shots or model.gaussian_noise_sigma:
        key = (model.seed, purpose, index)
        return stream(*key) if rng is None else rekey(rng, *key)
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
    check_qubit_index(k, state.qubit_count)
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

    The labels in ``heavy`` share one amplitude and every other label of the
    ``qubit_count``-qubit register another, so the state is its EV
    attenuation A_m, ``attenuation``: qubit k reads A_m (M - 2 ones_k) / M,
    where ones_k of the M labels in ``heavy`` have bit k set.
    """

    qubit_count: int
    heavy: np.ndarray
    attenuation: float


def class_state(marked: MarkedSet, iterations: int) -> ClassState:
    """The two-amplitude state after ``iterations`` steps on ``marked``:
    ``attenuation`` is ``planner.attenuation`` (which checks m, then N and M),
    and ``heavy`` the marked set's own read-only label array.
    """
    a = attenuation(marked.universe_size, marked.count, iterations)
    return ClassState(marked.universe_size.bit_length() - 1, marked.labels, a)


def _count_evs(counts, shots: int):
    """sigma_z of ``counts`` ones over ``shots`` shots, for a Python int or an
    int64 array: ``shots - 2 counts`` rounds to a float first, as numpy
    rounds it (a quotient of two ints rounds otherwise past 2^53)."""
    return (shots - 2 * counts) * 1.0 / shots


def _sign_errors(counts: np.ndarray, shots: int, truth: int) -> int:
    """How many of ``counts`` (int64 counts of ones over ``shots`` shots, no
    noise) read a sign other than ``truth``.  A count c reads the sign of
    ``shots - 2 c``, as :func:`_count_evs` does, found against the
    ``shots // 2`` bounds so that no ``2 c`` overflows past 2^62: a ``+``
    truth errs at ``c >= (shots + 1) // 2``, a ``-`` truth at
    ``c <= shots // 2``, and an undecided one unless ``shots`` is even and
    ``c == shots // 2``.  Raises ``ValueError`` unless every count lies in
    [0, shots]: the readout bound of a noiseless count."""
    # Viewed as unsigned, a negative count lies past every shot count.
    if not counts.view(np.uint64).max() <= shots:
        bad = next(c for c in counts.tolist() if not 0 <= c <= shots)
        raise ValueError(f"count outside [0, {shots}]: {bad}")
    if truth > 0:
        wrong = counts >= (shots + 1) // 2
    elif truth < 0:
        wrong = counts <= shots // 2
    elif shots % 2:
        return counts.size
    else:
        wrong = counts != shots // 2
    return int(np.count_nonzero(wrong))


def _read(
    state: ClassState, model: EnsembleModel, ones: Sequence[int], bits: np.ndarray,
    rng: np.random.Generator | None,
) -> list[float]:
    """EVs of every qubit of one run, qubit k at entry k - 1, as Python
    floats: exact, or counts (see the module docstring), then noise, all from
    ``rng``, held to the readout bound.  ``bits`` and ``ones`` are the marked
    labels' :func:`_bit_table`; an exact, noiseless run builds no array."""
    a, size, shots = state.attenuation, state.heavy.size, model.shots
    sigma = model.gaussian_noise_sigma
    if shots == 0:
        evs = [a * (size - 2 * k) / size for k in ones]
        if sigma:
            return _noisy(np.array(evs), sigma, rng).tolist()
        # Every EV is A_m / M times an integer, so the largest |ev| is within
        # the bound only if every EV is: a NaN or inf factor fails it.
        if not max(map(abs, evs)) <= _ev_bound(0.0) + 1e-12:
            for ev in evs:
                _check_ev(ev, 0.0)
        return evs
    if a < 0:
        raise ValueError("a marked label weighs less than an unmarked one")
    marked = rng.binomial(shots, a)
    counts = rng.binomial(shots - marked, 0.5, state.qubit_count)
    counts += rng.multinomial(marked, [1.0 / size] * size) @ bits
    return _noisy(_count_evs(counts, shots), sigma, rng).tolist()


def _read_one(
    state: ClassState, model: EnsembleModel, ones: int, rng: np.random.Generator | None
) -> float:
    """The EV of one qubit in one run whose marked labels carry ``ones`` ones
    on it, as a Python float with no array built: exact, A_m (M - 2 ones) / M;
    sampled, one ``Binomial(shots, (1 - exact) / 2)`` count of ones; then one
    noise value, all from ``rng``.  O(1)."""
    sigma, size = model.gaussian_noise_sigma, state.heavy.size
    ev = state.attenuation * (size - 2 * ones) / size
    if model.shots:
        ev = _count_evs(rng.binomial(model.shots, (1.0 - ev) / 2.0), model.shots)
    if sigma:
        ev += min(max(rng.normal(0.0, sigma), -3.0 * sigma), 3.0 * sigma)
    return _check_ev(ev, sigma)


def _bit_table(state: ClassState) -> tuple[np.ndarray, list[int]]:
    """The marked labels' bits, qubit k in column k - 1, and each qubit's ones."""
    bits = (state.heavy[:, None] >> _SHIFTS[:state.qubit_count]) & 1
    return bits, bits.sum(axis=0).tolist()


def measure_classes(state: ClassState, model: EnsembleModel) -> list[float]:
    """EVs of every qubit of one run on a two-amplitude state, qubit k at
    entry k - 1, as :func:`measure_all` reads the dense state, without
    building it: exact in O(M L) (the dense entries, to rounding), or
    sampled by counts from ``stream(model.seed, READ, 0)``, O(M L) at every shot
    count (see the module docstring).  A sampled read past the crossing,
    where a marked label weighs less than an unmarked one, raises
    ``ValueError``; an exact read takes every state.
    """
    bits, ones = _bit_table(state)
    return _read(state, model, ones, bits, _run_generator(model))


def _search_runs(
    marked: MarkedSet, iterations: int, model: EnsembleModel
) -> tuple[list[float], Callable[[int, int], float]]:
    """A search's runs after ``iterations`` steps on ``marked`` (see the
    module docstring): the plain run's EVs, qubit k at entry k - 1, and
    ``correlated(stage, key)``, qubit ``stage + 1``'s EV in the run correlated
    on the ``stage`` prefix bits, held from qubit 1 down in the top bits of
    ``key``.  Raises ``ValueError`` before any draw past the crossing."""
    state = class_state(marked, iterations)
    if state.attenuation < 0:
        raise ValueError(f"at m = {iterations} a marked label weighs less than an unmarked one")
    qubit_count, rng = state.qubit_count, _run_generator(model)
    bits, ones = _bit_table(state)
    # Bit i of a label is bit L - 1 - i of its key.
    keys = np.sort(bits @ _KEY_WEIGHTS[-qubit_count:]).tolist()

    def correlated(stage: int, key: int) -> float:
        # The kept labels' keys lie in [key, key + 2 half), the upper half
        # with the target bit set; the others have that bit flipped.
        half = 1 << (qubit_count - 1 - stage)
        low = bisect_left(keys, key)
        mid = bisect_left(keys, key + half, low)
        high = bisect_left(keys, key + 2 * half, mid)
        # The kept labels' ones plus the other labels' zeros.
        flipped = 2 * (high - mid) + len(keys) - (high - low) - ones[stage]
        return _read_one(state, model, flipped, rng)

    return _read(state, model, ones, bits, rng), correlated


def sign_error_rate(
    marked: MarkedSet,
    iterations: int,
    k: int,
    model: EnsembleModel,
    *,
    trials: int = 200,
    row: int = 0,
    rng: np.random.Generator | None = None,
) -> float:
    """Fraction of seeded readout trials that misjudge the sign of qubit k
    after ``iterations`` steps on ``marked``.

    The reference is the sign of the exact EV, undecided when it is 0 (two
    marked labels split on qubit k, m = 0, or a state back at equal
    weights); a trial errs when the sign it reads (:func:`decide_sign` at
    threshold 0) differs, so a zero readout of a decidable qubit errs, and
    so does every decided readout of an undecided one.  Qubit k's marked
    ones are counted once per marked set (:meth:`MarkedSet.ones`); the exact
    EV is read from that count by :func:`_read_one`, and all trials draw
    from ``stream(model.seed, ROW, row)``, or ``rng`` re-keyed to it (one
    generator serves a sweep; the same rate to the bit), in blocks of at most ``_BLOCK_DRAWS``:
    one vector of ``Binomial(shots, (1 - exact) / 2)`` counts (the exact EV
    when ``shots`` is 0), then one of noise, so a block of one trial is one
    :func:`_read_one` call, draw for draw.  A noiseless block of counts is
    scored on the counts themselves by :func:`_sign_errors`: the sign of
    ``shots - 2 c`` is that of the EV ``_count_evs`` reads, so the rate is
    the same to the bit.  O(M + trials) time for a set's first row (O(trials)
    after) and O(_BLOCK_DRAWS) memory, whatever the shot count and register
    size.  Exact, noiseless readout runs one trial, since every trial would
    read the same EV.  Whatever the readout, a ``row`` outside [0, 2**32)
    raises ``ValueError`` (:func:`~grover_ev.core.check_stream_index`), and a
    ``k``, ``trials`` or ``row`` that is not an integer raises ``TypeError``.
    """
    if not 1 <= operator.index(trials) <= MAX_TRIALS:
        raise ValueError(f"trials must be in 1..{MAX_TRIALS}, got {trials}")
    check_stream_index(row)
    shots, sigma = model.shots, model.gaussian_noise_sigma
    trials = 1 if shots == 0 and sigma == 0.0 else trials
    state = class_state(marked, iterations)
    ones = marked.ones(k)
    exact = _read_one(state, _EXACT, ones, None)
    # The exact sign is decide_sign at 0 (undecided 0).
    truth = (exact > 0) - (exact < 0)
    p = (1.0 - exact) / 2.0
    rng = _run_generator(model, ROW, row, rng)
    errors = 0
    for start in range(0, trials, _BLOCK_DRAWS):
        runs = min(_BLOCK_DRAWS, trials - start)
        if shots and not sigma:
            errors += _sign_errors(rng.binomial(shots, p, runs), shots, truth)
            continue
        if shots:
            evs = _count_evs(rng.binomial(shots, p, runs), shots)
        else:
            evs = np.full(runs, exact)
        errors += int(np.count_nonzero(np.sign(_noisy(evs, sigma, rng)) != truth))
    return errors / trials
