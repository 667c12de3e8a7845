"""Multi-item search by iterative bit extraction with filtered EVs.

With several marked items, raw per-qubit EVs can cancel.  The filtered
scheme pins down one marked location bit by bit: bit 1 comes from the sign
of the plain run's first EV; each later bit k+1 averages the plain run
with a second run that flips qubit k+1 on every branch whose low bits
disagree with the bits already determined.  The average restricts the
effective EV to marked items consistent with the determined prefix.

A stage's averaged EV is ``A_m / M`` times the signed count of the
consistent items.  :func:`extract_location` reads only states with
``A_m >= 0``, where a marked label weighs at least as much as an unmarked
one, so under exact readout a nonzero EV is at least ``A_m / M`` in
magnitude and its sign names a bit that some consistent item carries, while
a tie at exactly 0 means the consistent items split evenly.
A stage, :func:`_stage`, decides its bit by :func:`decide_sign` at the
caller's threshold; the command line passes 0, so each bit is read by its
sign.  An undecided EV (a tie, or any magnitude up to a positive threshold)
is resolved by branching: bit 0 is tried first, the final candidate is
confirmed with a single oracle query, and failed candidates backtrack to the
most recent unexplored branch.  A search gives up after ``4 L`` runs
(``RUN_BUDGET_PER_QUBIT``), so no input takes more than O(L) runs.

:func:`extract_location` is the search loop over expectation values alone:
:func:`~grover_ev.measurement._search_runs` gives the plain run's EVs and
reads each correlated run on request.
The dense operations of :mod:`grover_ev.core` and :func:`apply_correlation`
stay the reference this path is tested against.

Bit sequences (``s_bits``, the JSON ``bits``) are ordered least-significant
first: element ``i`` is the value of qubit ``i + 1``.  The search keeps its
determined prefix as the integer those bits spell.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import MarkedSet, StateVector
from .core import apply_grover  # noqa: F401  unused; perfbench/tracer.py wraps it here
from .measurement import EnsembleModel, _search_runs, decide_sign
from .measurement import measure_all  # noqa: F401  unused; perfbench/tracer.py wraps it here


# A search makes at most this many runs per qubit before it gives up.
RUN_BUDGET_PER_QUBIT = 4


class SearchFailure(Exception):
    """The search ended without a verified location.

    ``reason`` is ``"exhausted"`` when every branch candidate failed oracle
    verification, or ``"budget"`` when the search reached its run budget.
    """

    def __init__(self, message: str, *, reason: str, total_runs: int, branch_events: int):
        super().__init__(message)
        self.reason = reason
        self.total_runs = total_runs
        self.branch_events = branch_events


@dataclass(frozen=True)
class SearchResult:
    """Verified marked location plus the full cost accounting."""

    location: int
    total_runs: int
    total_oracle_invocations: int
    branch_events: int
    verification_queries: int

    def to_json_dict(self, qubit_count: int) -> dict:
        """JSON record of the verified location; ``bits`` are its low ``qubit_count`` bits."""
        return {
            "location": self.location,
            "verified": True,
            "total_runs": self.total_runs,
            "oracle_invocations": self.total_oracle_invocations,
            "branch_events": self.branch_events,
            "bits": [self.location >> i & 1 for i in range(qubit_count)],
        }


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

    prefix = sum(b << i for i, b in enumerate(s_bits))
    # The map is its own inverse, so it also names each label's source.
    sources = _correlated_labels(np.arange(state.dim), target, prefix)
    return StateVector(state.qubit_count, state.amplitudes[sources])


def _correlated_labels(labels: np.ndarray, target: int, prefix: int) -> np.ndarray:
    """Where the correlation sends each label: qubit ``target`` flips on
    every label whose low ``target - 1`` bits are not the integer ``prefix``.

    Flipping the target bit never changes the low prefix bits, so a label
    and its image agree on the filter value: a clean permutation that is its
    own inverse.
    """
    flip = 1 << (target - 1)
    keep = (labels & (flip - 1)) == prefix
    return np.where(keep, labels, labels ^ flip)


def _stage(
    plain: Sequence[float], correlated: Callable[[int, int], float], key: int, stage: int,
    a_th: float,
) -> tuple[float, int | None]:
    """The EV of qubit ``stage + 1`` given the ``stage`` prefix bits, held from
    qubit 1 down in the top bits of ``key``, and its bit by :func:`decide_sign`
    at ``a_th`` (None: undecided): the plain run's at stage 0, later its
    average with the run ``correlated(stage, key)`` reads."""
    ev = plain[0] if stage == 0 else (plain[stage] + correlated(stage, key)) / 2.0
    return ev, decide_sign(ev, a_th)


def extract_location(
    marked: MarkedSet,
    iterations: int,
    model: EnsembleModel,
    a_th: float,
) -> SearchResult:
    """Run the full bit-extraction protocol and return a verified location.

    The reader's one plain run serves every stage, and :func:`_stage` decides
    each bit.  The loop keeps the run budget, the branch stack (an undecided
    stage tries bit 0 first), one oracle query per candidate with a backtrack
    when it fails, and the counts.

    Raises ``ValueError`` before any run when a marked label weighs less
    than an unmarked one (``A_m < 0``, past the crossing), where no EV sign
    names a marked bit.  Raises :class:`SearchFailure` with reason
    ``"exhausted"`` once every live branch fails verification, or
    ``"budget"`` when a stage needs a run past ``RUN_BUDGET_PER_QUBIT * L``.
    """
    if operator.index(iterations) < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    plain, correlated = _search_runs(marked, iterations, model)
    qubit_count = len(plain)
    budget = RUN_BUDGET_PER_QUBIT * qubit_count

    total_runs = 1
    branch_events = 0
    verifications = 0
    # The (prefix, key, stage) of each unexplored branch, the root first:
    # prefix holds the ``stage`` bits determined so far (bit i is qubit
    # i + 1), and key the same bits from its top bit down.
    pending = [(0, 0, 0)]
    while pending:
        prefix, key, stage = pending.pop()
        for stage in range(stage, qubit_count):
            if stage:
                if total_runs == budget:
                    raise SearchFailure(
                        f"no verified candidate within the budget of {budget} runs",
                        reason="budget",
                        total_runs=total_runs,
                        branch_events=branch_events,
                    )
                total_runs += 1
            _, bit = _stage(plain, correlated, key, stage, a_th)
            if bit is None:
                branch_events += 1
                pending.append((prefix | 1 << stage, key | 1 << qubit_count - 1 - stage, stage + 1))
                bit = 0
            prefix |= bit << stage
            key |= bit << qubit_count - 1 - stage
        verifications += 1
        if prefix in marked:
            return SearchResult(
                location=prefix,
                total_runs=total_runs,
                total_oracle_invocations=iterations * total_runs + verifications,
                branch_events=branch_events,
                verification_queries=verifications,
            )
    raise SearchFailure(
        "every branch candidate failed verification",
        reason="exhausted",
        total_runs=total_runs,
        branch_events=branch_events,
    )
