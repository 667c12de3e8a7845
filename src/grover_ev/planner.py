"""Closed-form iteration counts and the EV attenuation curve.

Everything here is pure arithmetic on (N, M, m): the attenuation factor by
which per-qubit EV magnitudes fall short of full strength after m steps,
the standard stopping point, and the smallest truncated stopping point
whose attenuation clears a threshold, found by an arcsine inversion of the
curve and an integer correction: O(1) work for any N <= 2**62.
:func:`make_plan` checks the one rule on the threshold, 0 <= a_th <= 1/M.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .core import grover_angle, returns_to_uniform


@dataclass(frozen=True)
class TruncationPlan:
    """Stopping points for one (M, a_th) on the register ``N`` a search reads:
    the database size, or twice it where 2M >= N, so M/N < 1/2 always.

    ``m_stand`` is the standard step count floor(pi / (2 theta)), at least 1,
    and ``m_trunc`` the first m whose attenuation exceeds ``a_th``.
    ``m_trunc_estimate`` is the closed form
    m_stand * (2/pi) * arcsin(sqrt(r + (1 - r) M/N)) with r = a_th/a_stand =
    M a_th (a_stand = 1/M), so for M >= 2 it tracks the search's step count
    (:func:`search_iterations`), not ``m_trunc``.  ``saturated`` flags a
    threshold no attenuation reaches by ``m_stand``; ``m_trunc`` is then that.
    """

    N: int
    M: int
    theta: float
    a_th: float
    a_stand: float
    m_stand: int
    m_trunc: int
    m_trunc_estimate: float
    ratio: float
    saturated: bool

    def to_json_dict(self) -> dict:
        """The fields in declaration order: each a number, so no deep copy."""
        return dict(vars(self))


def attenuation(universe_size: int, marked_count: int, iterations: int) -> float:
    """EV attenuation after ``iterations`` steps: (sin^2 * N - M) / (N - M).

    Zero before any amplification, close to one at the standard stopping
    point for N >> M.  Checks (N, M) and m, then reads :func:`_attenuation`.
    """
    if operator.index(iterations) < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    theta = grover_angle(universe_size, marked_count)
    return _attenuation(universe_size, marked_count, theta, iterations)


def _attenuation(n: int, m_count: int, theta: float, iterations: int) -> float:
    """:func:`attenuation` at m = ``iterations`` >= 0 from ``theta`` =
    ``grover_angle(n, m_count)``, checked by the caller."""
    if returns_to_uniform(n, m_count, iterations):
        # sin^2 = M/N exactly; return 0, not rounding residue (the truncation
        # point compares this against thresholds as small as 0).
        return 0.0
    sin_sq = math.sin((2 * iterations + 1) * theta / 2.0) ** 2
    return (sin_sq * n - m_count) / (n - m_count)


def _standard_count(theta: float) -> int:
    # Guard the floor against 1-ulp shortfall when pi/(2 theta) is an exact
    # integer (happens at the degenerate point M = N/2 where theta = pi/2).
    return int(math.floor(math.pi / (2.0 * theta) + 1e-12))


def _truncation_point(
    n: int, m_count: int, a_th: float, theta: float, m_stand: int
) -> tuple[int, bool]:
    """Smallest m with attenuation above a_th, capped at the standard count,
    on one register: ``theta`` and ``m_stand`` are those of (n, m_count).

    Inverts A_m = a_th in closed form, then steps that guess against
    :func:`_attenuation` at ``theta`` until A(m - 1) <= a_th < A(m).  Returns
    (m, saturated); saturated means A(m_stand) does not clear the threshold,
    as for any a_th >= 1.
    """
    if attenuation(n, m_count, m_stand) <= a_th:
        return m_stand, True
    crossing = 2.0 * math.asin(math.sqrt(a_th + (1.0 - a_th) * m_count / n)) / theta
    m = min(max(math.floor((crossing - 1.0) / 2.0) + 1, 0), m_stand)
    while m > 0 and _attenuation(n, m_count, theta, m - 1) > a_th:
        m -= 1
    while _attenuation(n, m_count, theta, m) <= a_th:
        m += 1
    return m, False


def make_plan(universe_size: int, marked_count: int, a_th: float) -> TruncationPlan:
    """One plan on the register a search reads: N labels, or 2N where 2M >= N.
    Raises ValueError unless 0 <= a_th <= 1/M (NaN fails), or if 2N > 2**62."""
    theta = grover_angle(universe_size, marked_count)
    if 2 * marked_count >= universe_size:
        # One extra qubit, 0 on every marked label, halves M/N so that a marked
        # label outweighs an unmarked one (Nielsen & Chuang 2000, sec. 6.1.4).
        if universe_size == 1 << 62:
            raise ValueError("2M >= N is read on 2N labels, and 2N = 2**63 is past 2**62")
        universe_size *= 2
        theta = grover_angle(universe_size, marked_count)
    a_stand = 1.0 / marked_count
    if not 0 <= a_th <= a_stand:
        raise ValueError(f"a_th must satisfy 0 <= a_th <= 1/M = {a_stand}, got {a_th}")
    m_stand = _standard_count(theta)
    m_trunc, saturated = _truncation_point(universe_size, marked_count, a_th, theta, m_stand)
    rel = a_th / a_stand
    inner = rel + (1.0 - rel) * marked_count / universe_size
    estimate = m_stand * (2.0 / math.pi) * math.asin(math.sqrt(inner))
    return TruncationPlan(
        N=universe_size,
        M=marked_count,
        theta=theta,
        a_th=a_th,
        a_stand=a_stand,
        m_stand=m_stand,
        m_trunc=m_trunc,
        m_trunc_estimate=estimate,
        ratio=m_trunc / m_stand,
        saturated=saturated,
    )


def search_iterations(plan: TruncationPlan) -> int:
    """The step count a filtered search runs at: the first m whose one-item
    filtered EV ``A_m / M`` exceeds the plan's ``a_th``, or ``m_stand`` when
    ``M a_th >= A(m_stand)``.  (The plan's ``m_trunc`` is the first m with
    ``A_m > a_th``; the two agree at M = 1.)
    """
    return _truncation_point(plan.N, plan.M, plan.M * plan.a_th, plan.theta, plan.m_stand)[0]
