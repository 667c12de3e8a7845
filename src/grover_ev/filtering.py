"""Multi-item search by iterative bit extraction with filtered EVs.

With several marked items, raw per-qubit EVs can cancel.  The filtered
scheme pins down one marked location bit by bit: bit 1 comes from the sign
of the plain run's first EV; each later bit k+1 averages the plain run
with a second run that flips qubit k+1 on every branch whose low bits
disagree with the bits already determined.  The average restricts the
effective EV to marked items consistent with the determined prefix.

Undecided EVs (magnitude inside the threshold dead zone) are resolved by
branching: bit 0 is tried first, the final candidate is confirmed with a
single oracle query, and failed candidates backtrack to the most recent
unexplored branch.

Runs are read out from the two-amplitude state: after m steps every marked
label carries one amplitude and every other label another, and the
correlation only moves labels, so a run needs the marked labels alone and
no statevector is built.  The dense operations of :mod:`grover_ev.core` and
:func:`apply_correlation` stay the reference this path is tested against.

Bit sequences throughout are ordered least-significant first: element ``i``
of a prefix is the value of qubit ``i + 1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import MarkedSet, StateVector
from .core import apply_grover  # noqa: F401  unused; perfbench/tracer.py wraps it here
from .measurement import (
    CorrelationInfo,
    EnsembleModel,
    RunRecord,
    class_state,
    decide_sign,
    measure_classes,
)
from .measurement import measure_all  # noqa: F401  unused; perfbench/tracer.py wraps it here


class SearchFailure(Exception):
    """Every branch candidate failed oracle verification.

    Raised when the decision threshold is too high for the available signal
    or the marked count is past the point where 1/M-scaled EVs are usable.
    """

    def __init__(self, message: str, *, total_runs: int, branch_events: int):
        super().__init__(message)
        self.total_runs = total_runs
        self.branch_events = branch_events


@dataclass(frozen=True)
class FilterState:
    """Bits of the marked location determined so far, low bits first."""

    determined_bits: tuple[int, ...] = ()

    def __post_init__(self):
        bits = tuple(int(b) for b in self.determined_bits)
        object.__setattr__(self, "determined_bits", bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0/1, got {bits}")

    @property
    def stage(self) -> int:
        return len(self.determined_bits)

    def extended(self, bit: int) -> "FilterState":
        return FilterState(self.determined_bits + (bit,))


@dataclass(frozen=True)
class SearchResult:
    """Verified marked location plus the full cost accounting."""

    location: int
    verified: bool
    total_runs: int
    total_oracle_invocations: int
    branch_events: int
    bits: tuple[int, ...]
    verification_queries: int = 0

    def to_json_dict(self) -> dict:
        return {
            "location": self.location,
            "verified": self.verified,
            "total_runs": self.total_runs,
            "oracle_invocations": self.total_oracle_invocations,
            "branch_events": self.branch_events,
            "bits": list(self.bits),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def eval_g(x_bits: Sequence[int], s_bits: Sequence[int]) -> int:
    """Boolean filter: 0 when x_bits equals s_bits elementwise, else 1.

    Computed as the product of per-position XNOR factors, complemented;
    3k primitive XOR/multiply operations for a k-bit prefix.
    """
    if len(x_bits) != len(s_bits) or len(x_bits) == 0:
        raise ValueError(
            f"bit sequences must have equal nonzero length, "
            f"got {len(x_bits)} and {len(s_bits)}"
        )
    product = 1
    for x, s in zip(x_bits, s_bits):
        product *= x ^ s ^ 1
    return product ^ 1


def apply_correlation(state: StateVector, target: int, s_bits: Sequence[int]) -> StateVector:
    """Flip qubit ``target`` on every basis label whose low bits miss s_bits.

    This is the conditional bit-flip inserted between the last
    amplification step and readout; it is unitary (a permutation of basis
    labels) and its own inverse.
    """
    s_bits = tuple(int(b) for b in s_bits)
    prefix_len = len(s_bits)
    if prefix_len < 1:
        raise ValueError("s_bits must contain at least one determined bit")
    if target != prefix_len + 1:
        raise ValueError(
            f"target qubit {target} must extend the {prefix_len}-bit prefix"
        )
    if target > state.qubit_count:
        raise ValueError(
            f"target qubit {target} out of range 1..{state.qubit_count}"
        )
    if any(b not in (0, 1) for b in s_bits):
        raise ValueError(f"s_bits must be 0/1, got {s_bits}")

    # The map is its own inverse, so it also names each label's source.
    sources = _correlated_labels(np.arange(state.dim), target, s_bits)
    return StateVector(state.qubit_count, state.amplitudes[sources])


def _correlated_labels(labels: np.ndarray, target: int, s_bits: Sequence[int]) -> np.ndarray:
    """Where the correlation sends each label: qubit ``target`` flips on
    every label whose low bits miss ``s_bits``.

    Flipping the target bit never changes the low prefix bits, so a label
    and its image agree on the filter value: a clean permutation that is its
    own inverse.
    """
    low_mask = (1 << len(s_bits)) - 1
    keep = (labels & low_mask) == _bits_to_location(s_bits)
    return np.where(keep, labels, labels ^ (1 << (target - 1)))


def averaged_ev(plain: RunRecord, correlated: RunRecord, target: int) -> float:
    """Mean of the target qubit's EV across the plain and correlated runs."""
    if not 1 <= target <= len(plain.evs):
        raise ValueError(f"target qubit {target} out of range 1..{len(plain.evs)}")
    if plain.correlation_applied is not None:
        raise ValueError("first record must come from an unmodified run")
    info = correlated.correlation_applied
    if info is None or info.target_qubit != target:
        raise ValueError(
            f"second record must carry a correlation on qubit {target}, got {info}"
        )
    if plain.iterates_used != correlated.iterates_used:
        raise ValueError(
            f"records measured at different iterate counts: "
            f"{plain.iterates_used} vs {correlated.iterates_used}"
        )
    if len(plain.evs) != len(correlated.evs):
        raise ValueError("records cover different register sizes")
    return (plain.evs[target - 1] + correlated.evs[target - 1]) / 2.0


def g_schedule_cost(qubit_count: int) -> int:
    """Primitive-operation count for evaluating the filter at every stage.

    One evaluation per stage k = 1..L-1; a k-bit evaluation costs 3k ops
    (two XORs per factor, k-1 products, one final XOR), so the total is
    3 L (L - 1) / 2 -- quadratic in the register size.
    """
    if qubit_count < 1:
        raise ValueError(f"qubit_count must be >= 1, got {qubit_count}")
    return 3 * qubit_count * (qubit_count - 1) // 2


def _bits_to_location(bits: Sequence[int]) -> int:
    return sum(b << i for i, b in enumerate(bits))


def _run_model(model: EnsembleModel, run_index: int) -> EnsembleModel:
    """Per-run ensemble model; run ``i`` draws from seed ``seed XOR i``."""
    return EnsembleModel(
        shots=model.shots,
        seed=model.seed ^ run_index,
        gaussian_noise_sigma=model.gaussian_noise_sigma,
    )


def extract_location(
    marked: MarkedSet,
    iterations: int,
    model: EnsembleModel,
    a_th: float,
) -> SearchResult:
    """Run the full bit-extraction protocol and return a verified location.

    One plain run (``iterations`` amplification steps, all qubits read out)
    is reused at every stage; each stage past the first adds one correlated
    run.  Each run is read out by :func:`measure_classes` from the marked
    labels (moved by the correlation) and the two class weights, so a run
    costs O(M L) exact or O(shots L) sampled, whatever the register size.
    Stage decisions go through :func:`decide_sign` at threshold ``a_th``;
    undecided stages branch (bit 0 first) and the final candidate is
    checked with a single oracle query, backtracking on failure.

    Raises :class:`SearchFailure` once every live branch is exhausted.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    qubit_count, locations, weights = class_state(marked, iterations)

    def run(index: int, heavy: np.ndarray, correlation=None) -> RunRecord:
        return measure_classes(
            qubit_count, heavy, weights,
            _run_model(model, index),
            iterates_used=iterations,
            oracle_invocations=iterations,
            correlation=correlation,
        )

    plain = run(0, locations)

    total_runs = 1
    branch_events = 0
    verifications = 0
    pending: list[FilterState] = []
    prefix = FilterState()

    while True:
        while prefix.stage < qubit_count:
            target = prefix.stage + 1
            if prefix.stage == 0:
                ev = plain.evs[0]
            else:
                record = run(
                    total_runs,
                    _correlated_labels(locations, target, prefix.determined_bits),
                    CorrelationInfo(target, prefix.determined_bits),
                )
                total_runs += 1
                ev = averaged_ev(plain, record, target)
            bit = decide_sign(ev, a_th)
            if bit is None:
                branch_events += 1
                pending.append(prefix.extended(1))
                bit = 0
            prefix = prefix.extended(bit)

        candidate = _bits_to_location(prefix.determined_bits)
        verifications += 1
        if candidate in marked:
            return SearchResult(
                location=candidate,
                verified=True,
                total_runs=total_runs,
                total_oracle_invocations=iterations * total_runs + verifications,
                branch_events=branch_events,
                bits=prefix.determined_bits,
                verification_queries=verifications,
            )
        if not pending:
            raise SearchFailure(
                "all branch candidates failed verification; the threshold is "
                "too high for the available EV signal at this marked count",
                total_runs=total_runs,
                branch_events=branch_events,
            )
        prefix = pending.pop()
