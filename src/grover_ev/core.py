"""Marked sets, the rotation angles, and the dense statevector reference.

:class:`MarkedSet` (at most :data:`MAX_MARKED` locations) and its draw,
:func:`draw_marked_set`; :func:`stream`, which names every random stream, and
:func:`rekey`, which moves a built one to another name; :func:`grover_angle`,
the one check of (N, M); and the dense reference: :class:`StateVector`, the
oracle, diffusion and iterate, and :func:`closed_form_state` with its two
amplitudes, :func:`class_amplitudes`.  Bit ``k`` of a label ``x`` (1-indexed,
``k = 1`` least significant) is qubit ``k``'s value.  No operation mutates a state.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

# Largest register the dense simulator accepts (2**24 complex amplitudes,
# roughly 256 MiB per state).
MAX_QUBITS = 24

# |norm^2 - 1| allowed on any StateVector after an arbitrary operation sequence.
NORM_ATOL = 1e-9

# Most locations a marked set holds.  A draw permutes all N labels only when
# N < 50 M, so this also bounds that permutation to 2**22 labels (32 MiB).
MAX_MARKED = 1 << 16

# A stream's purpose: a marked-set draw; a search's runs, or one
# measure_classes or measure_all read; a sweep row's trials.
DRAW, READ, ROW = 0, 1, 2


@dataclass(frozen=True)
class StateVector:
    """Pure state of an ``qubit_count``-qubit register.

    ``amplitudes[x]`` is the coefficient of basis state ``x``; the vector
    must be normalized to within :data:`NORM_ATOL`.
    """

    qubit_count: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if self.qubit_count < 1:
            raise ValueError(f"qubit_count must be >= 1, got {self.qubit_count}")
        if amps.ndim != 1 or amps.shape[0] != 1 << self.qubit_count:
            raise ValueError(
                f"expected {1 << self.qubit_count} amplitudes for "
                f"{self.qubit_count} qubits, got shape {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")

    @property
    def dim(self) -> int:
        return 1 << self.qubit_count

    def probabilities(self) -> np.ndarray:
        """Born probabilities |amplitude|^2 for each basis label."""
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class MarkedSet:
    """The set of marked database locations defining the search oracle.

    ``locations`` is stored as a strictly increasing tuple of ints, each
    read by ``operator.index``: Python ints, bools and numpy integers are
    taken, and a float or a string (``3.7``, ``"3"``) raises ``ValueError``
    rather than being truncated.  Membership is the oracle predicate (1 for
    marked, 0 otherwise).  The set builds no array: each read builds the
    one it reads.  The memo of :meth:`ones` is no field, so equality,
    hashing and repr read the two fields alone.
    """

    locations: tuple[int, ...]
    universe_size: int

    def __post_init__(self):
        _check_marked_count(len(self.locations))
        try:
            locs = tuple(sorted(map(operator.index, self.locations)))
        except TypeError as exc:
            raise ValueError(f"marked locations must be integers: {self.locations!r}") from exc
        object.__setattr__(self, "locations", locs)
        if not locs:
            raise ValueError("marked set must be nonempty")
        if len(set(locs)) != len(locs):
            raise ValueError(f"marked locations must be distinct: {locs}")
        if locs[0] < 0 or locs[-1] >= self.universe_size:
            raise ValueError(
                f"marked locations must lie in [0, {self.universe_size}): {locs}"
            )
        object.__setattr__(self, "_ones", {})

    @property
    def count(self) -> int:
        return len(self.locations)

    def ones(self, k: int) -> int:
        """How many locations have bit ``k`` set (``k = 1`` least
        significant), counted once per set and ``k``; ``k`` is checked by
        :func:`check_qubit_index` on the register of ``universe_size`` labels."""
        check_qubit_index(k, (self.universe_size - 1).bit_length())
        if k not in self._ones:
            labels = np.array(self.locations, dtype=np.int64)
            self._ones[k] = int(np.count_nonzero(labels & 1 << k - 1))
        return self._ones[k]

    def __contains__(self, x: int) -> bool:
        i = bisect_left(self.locations, x)
        return i < len(self.locations) and self.locations[i] == x


def _check_marked_count(count: int) -> None:
    """Reject a marked set of more than ``MAX_MARKED`` locations."""
    if count > MAX_MARKED:
        raise ValueError(f"a marked set holds at most {MAX_MARKED} locations, got {count}")


@functools.cache
def _key_type() -> type:
    """A tuple that hands Philox its two key words as they are, as numpy's
    ISeedSequence; built on first use, so importing grover_ev loads no numpy.random."""
    return type("Key", (tuple, np.random.bit_generator.ISeedSequence), {
        "generate_state": lambda self, n_words, dtype=None: np.array(self, dtype=np.uint64)})


def check_stream_index(index: int) -> None:
    """Reject a stream index outside [0, 2**32), the low half of a key word."""
    if not 0 <= operator.index(index) < 1 << 32:
        raise ValueError(f"a stream index must be in [0, 2**32), got {index}")


def _key(seed: int, purpose: int, index: int) -> tuple[int, int]:
    """The Philox key of stream (seed, purpose, index): word 0 the seed, word 1
    the purpose in its high half and the checked index in its low half."""
    check_stream_index(index)
    return seed, purpose << 32 | index


def stream(seed: int, purpose: int, index: int) -> np.random.Generator:
    """The stream (seed, purpose, index), built fresh: numpy's counter-based
    ``Philox`` (Salmon et al., SC '11) keyed by :func:`_key`, unhashed."""
    return np.random.Generator(np.random.Philox(_key_type()(_key(seed, purpose, index))))


def rekey(rng: np.random.Generator, seed: int, purpose: int, index: int) -> np.random.Generator:
    """``rng``, built by :func:`stream`, moved to stream (seed, purpose, index):
    the state ``stream`` builds (key, counter 0, an empty buffer), in a fifth of its time."""
    rng.bit_generator.state = {"bit_generator": "Philox", "state": {
        "counter": (0, 0, 0, 0), "key": _key(seed, purpose, index)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def draw_marked_set(universe_size: int, count: int, seed: int) -> MarkedSet:
    """``count`` distinct locations drawn from [0, N) by ``stream(seed, DRAW,
    0)``, one set per (N, count, seed), checked against ``MAX_MARKED`` first."""
    _check_marked_count(count)
    locations = stream(seed, DRAW, 0).choice(universe_size, size=count, replace=False)
    return MarkedSet(np.sort(locations).tolist(), universe_size)


def check_qubit_index(k: int, qubit_count: int) -> None:
    """Reject a qubit index outside the register's qubits, 1..qubit_count."""
    if not 1 <= operator.index(k) <= qubit_count:
        raise ValueError(f"qubit index {k} out of range 1..{qubit_count}")


def qubit_values(qubit_count: int, k: int) -> np.ndarray:
    """Value of qubit ``k`` (bit ``k`` of the label) for every basis label."""
    check_qubit_index(k, qubit_count)
    labels = np.arange(1 << qubit_count)
    return (labels >> (k - 1)) & 1


def check_qubit_count(qubit_count: int) -> None:
    """Reject a register outside 1..MAX_QUBITS qubits."""
    if not 1 <= qubit_count <= MAX_QUBITS:
        raise ValueError(f"qubit_count must be in 1..{MAX_QUBITS}, got {qubit_count}")


def new_uniform(qubit_count: int) -> StateVector:
    """Uniform superposition over all 2**L basis states."""
    check_qubit_count(qubit_count)
    n = 1 << qubit_count
    amps = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    return StateVector(qubit_count, amps)


def apply_oracle(state: StateVector, marked: MarkedSet) -> StateVector:
    """Flip the sign of every marked amplitude; one unit of query cost."""
    if marked.universe_size != state.dim:
        raise ValueError(
            f"marked set universe {marked.universe_size} does not match "
            f"state dimension {state.dim}"
        )
    amps = state.amplitudes.copy()
    amps[list(marked.locations)] *= -1.0
    return StateVector(state.qubit_count, amps)


def apply_diffusion(state: StateVector) -> StateVector:
    """Inversion about the mean: each amplitude c -> -c + 2<c>."""
    mean = state.amplitudes.mean()
    return StateVector(state.qubit_count, 2.0 * mean - state.amplitudes)


def apply_grover(state: StateVector, marked: MarkedSet) -> StateVector:
    """One amplification step: oracle followed by diffusion."""
    return apply_diffusion(apply_oracle(state, marked))


def grover_angle(universe_size: int, marked_count: int) -> float:
    """Rotation angle per amplification step, sin(theta/2) = sqrt(M/N).

    For a single marked item this satisfies cos(theta) = 1 - 2/N.  The one
    check of (N, M), integers: N a power of two of at most 2**62, and 1 <= M < N.
    """
    if operator.index(universe_size) > 1 << 62:
        # Planning is checked up to here; far past it M/N underflows to theta = 0.
        raise ValueError(f"universe_size must be at most 2**62, got N={universe_size}")
    if universe_size < 2 or universe_size & (universe_size - 1):
        raise ValueError(f"universe_size must be a power of two >= 2, got N={universe_size}")
    if operator.index(marked_count) < 1 or marked_count >= universe_size:
        raise ValueError(
            f"marked_count must satisfy 1 <= M < N, got M={marked_count}, N={universe_size}"
        )
    return 2.0 * math.asin(math.sqrt(marked_count / universe_size))


def half_angle(universe_size: int, marked_count: int, iterations: int) -> float:
    """(2m+1) theta / 2 after ``iterations`` = m >= 0 steps, for :func:`class_amplitudes`."""
    if operator.index(iterations) < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    return (2 * iterations + 1) * grover_angle(universe_size, marked_count) / 2.0


def class_amplitudes(universe_size: int, marked_count: int, iterations: int) -> tuple[float, float]:
    """The dense reference's two amplitudes after ``iterations`` amplification steps.

    Every marked label carries sin[(2m+1)theta/2]/sqrt(M) and every unmarked
    one cos[(2m+1)theta/2]/sqrt(N-M); ``iterations = 0`` gives the uniform
    state.  Returns ``(marked, unmarked)``; where every label weighs the
    same (:func:`returns_to_uniform`), ``|on| = |off|`` exactly, so the EVs
    are exactly 0, not rounding residue.
    """
    angle = half_angle(universe_size, marked_count, iterations)
    on = math.sin(angle) / math.sqrt(marked_count)
    off = math.cos(angle) / math.sqrt(universe_size - marked_count)
    if returns_to_uniform(universe_size, marked_count, iterations):
        # Exactly |on| = |off|, so the EVs are exactly 0, not rounding residue.
        on, off = (math.copysign(1.0 / math.sqrt(universe_size), x) for x in (on, off))
    return on, off


def returns_to_uniform(universe_size: int, marked_count: int, iterations: int) -> bool:
    """Whether every label has the same Born weight after ``iterations`` steps.

    That needs sin^2((2m+1) theta/2) = M/N, i.e. m theta or (m+1) theta a
    multiple of pi: true at m = 0.  For m > 0, cos(theta) = 1 - 2M/N is
    rational, so by Niven's theorem theta is a rational multiple of pi only
    at M/N = 1/2 (every m) and M/N = 1/4 or 3/4 (every m but m = 1 mod 3).
    """
    quarters, rest = divmod(4 * marked_count, universe_size)
    return iterations == 0 or rest == 0 and (quarters == 2 or iterations % 3 != 1)


def closed_form_state(qubit_count: int, marked: MarkedSet, iterations: int) -> StateVector:
    """Analytic register state after ``iterations`` amplification steps,
    built from :func:`class_amplitudes`."""
    check_qubit_count(qubit_count)
    n = 1 << qubit_count
    if marked.universe_size != n:
        raise ValueError(
            f"marked set universe {marked.universe_size} does not match 2**{qubit_count}"
        )
    on_marked, off_marked = class_amplitudes(n, marked.count, iterations)
    amps = np.full(n, off_marked, dtype=np.complex128)
    amps[list(marked.locations)] = on_marked
    return StateVector(qubit_count, amps)
