"""Closed-form iteration counts and the EV attenuation curve.

Everything here is pure arithmetic on (N, M, m): the attenuation factor by
which per-qubit EV magnitudes fall short of full strength after m steps,
the standard stopping point, and the smallest truncated stopping point
whose attenuation clears a threshold, found by an arcsine inversion of the
curve and an integer correction: O(1) work for any N <= 2**62.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .core import grover_angle, returns_to_uniform


@dataclass(frozen=True)
class TruncationPlan:
    """Stopping-point summary for one (N, M, a_th) configuration.

    ``saturated`` flags thresholds no attenuation value reaches before the
    standard stopping point; the truncated count is then capped at
    ``m_stand``.
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
    saturated: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)


def attenuation(universe_size: int, marked_count: int, iterations: int) -> float:
    """EV attenuation after ``iterations`` steps: (sin^2 * N - M) / (N - M).

    Zero before any amplification, close to one at the standard stopping
    point for N >> M.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    angle = grover_angle(universe_size, marked_count)
    if returns_to_uniform(universe_size, marked_count, iterations):
        # sin^2 = M/N exactly; return 0, not rounding residue (the truncation
        # point compares this against thresholds as small as 0).
        return 0.0
    sin_sq = math.sin((2 * iterations + 1) * angle / 2.0) ** 2
    return (sin_sq * universe_size - marked_count) / (universe_size - marked_count)


def m_standard(universe_size: int, marked_count: int) -> int:
    """Step count of the standard version, floor(pi / (2 theta))."""
    return _standard_count(grover_angle(universe_size, marked_count))


def _standard_count(theta: float) -> int:
    # Guard the floor against 1-ulp shortfall when pi/(2 theta) is an exact
    # integer (happens at the degenerate point M = N/2 where theta = pi/2).
    return int(math.floor(math.pi / (2.0 * theta) + 1e-12))


def _truncation_point(
    n: int, m_count: int, a_th: float, theta: float, m_stand: int
) -> tuple[int, bool]:
    """Smallest m with attenuation above a_th, capped at the standard count.

    Inverts A_m = a_th in closed form, then steps that guess against
    :func:`attenuation` itself until A(m - 1) <= a_th < A(m).  Returns
    (m, saturated); saturated means A(m_stand) does not clear the threshold.
    """
    if not 0 <= a_th < 1:
        raise ValueError(f"a_th must satisfy 0 <= a_th < 1, got {a_th}")
    if attenuation(n, m_count, m_stand) <= a_th:
        return m_stand, True
    crossing = 2.0 * math.asin(math.sqrt(a_th + (1.0 - a_th) * m_count / n)) / theta
    m = min(max(math.floor((crossing - 1.0) / 2.0) + 1, 0), m_stand)
    while m > 0 and attenuation(n, m_count, m - 1) > a_th:
        m -= 1
    while attenuation(n, m_count, m) <= a_th:
        m += 1
    return m, False


def m_truncated(universe_size: int, marked_count: int, a_th: float) -> int:
    """Truncated stopping point: first m whose attenuation exceeds a_th."""
    return make_plan(universe_size, marked_count, a_th).m_trunc


def m_truncated_estimate(universe_size: int, marked_count: int, a_th: float) -> float:
    """Closed-form estimate of the truncated stopping point.

    m_stand * (2/pi) * arcsin(sqrt(r + (1 - r) M/N)) with r = a_th/a_stand
    and a_stand = 1/M.  Only defined up to the standard version's tolerance
    a_stand; the exact inversion in :func:`m_truncated` is authoritative.
    """
    return make_plan(universe_size, marked_count, a_th).m_trunc_estimate


def make_plan(universe_size: int, marked_count: int, a_th: float) -> TruncationPlan:
    """Aggregate angle, stopping points, and estimate into one plan."""
    theta = grover_angle(universe_size, marked_count)
    m_stand = _standard_count(theta)
    m_trunc, saturated = _truncation_point(universe_size, marked_count, a_th, theta, m_stand)
    a_stand = 1.0 / marked_count
    if a_th > a_stand:
        raise ValueError(f"a_th={a_th} exceeds the standard version's tolerance {a_stand}")
    rel = a_th / a_stand
    inner = rel + (1.0 - rel) * marked_count / universe_size
    estimate = m_stand * (2.0 / math.pi) * math.asin(math.sqrt(inner))
    # A zero standard count (M >= N/2, outside the useful regime) makes the
    # ratio degenerate; report 1 since truncation cannot shorten anything.
    ratio = m_trunc / m_stand if m_stand > 0 else 1.0
    return TruncationPlan(
        N=universe_size,
        M=marked_count,
        theta=theta,
        a_th=a_th,
        a_stand=a_stand,
        m_stand=m_stand,
        m_trunc=m_trunc,
        m_trunc_estimate=estimate,
        ratio=ratio,
        saturated=saturated,
    )
