"""Attenuation curve, stopping points, and the closed-form estimate."""

import math

import numpy as np
import pytest
from conftest import bit_of, reference_truncation_scan
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grover_ev import (
    MarkedSet,
    OracleLedger,
    apply_grover,
    attenuation,
    exact_ev,
    grover_angle,
    m_standard,
    m_truncated,
    m_truncated_estimate,
    make_plan,
    new_uniform,
    planner,
)

POWERS_OF_TWO = [2**e for e in range(2, 13)]


# ---------------------------------------------------------------- attenuation

def test_attenuation_zero_before_any_iteration():
    for n in (4, 16, 1024):
        for m_count in (1, 2, 3):
            assert attenuation(n, m_count, 0) == 0.0


def test_attenuation_peak_four_items():
    assert attenuation(4, 1, 1) == pytest.approx(1.0, abs=1e-12)


def test_attenuation_sixteen_items_one_step():
    # sin(3a) = 3 sin a - 4 sin^3 a with sin a = 1/4 gives 11/16;
    # (16 * (11/16)^2 - 1) / 15 = 7/16.
    assert attenuation(16, 1, 1) == pytest.approx(7 / 16, abs=1e-12)


def test_attenuation_rejects_bad_arguments():
    with pytest.raises(ValueError):
        attenuation(4, 1, -1)
    with pytest.raises(ValueError):
        attenuation(4, 4, 1)


def test_attenuation_strictly_increasing_to_standard_point():
    # Exhaustive over the grid; the half-marked case M = N/2 is excluded,
    # there the rotation angle is pi/2 and the attenuation is identically
    # zero (no usable signal at any step).
    for n in POWERS_OF_TWO:
        for m_count in (1, 2, 3, 4):
            if m_count >= n or 2 * m_count == n:
                continue
            values = [attenuation(n, m_count, m) for m in range(m_standard(n, m_count) + 1)]
            for previous, current in zip(values, values[1:]):
                assert current > previous, (n, m_count, values)


def test_attenuation_endpoint_near_one():
    for n in POWERS_OF_TWO:
        for m_count in (1, 2, 3, 4):
            if m_count >= n:
                continue
            floor = 1.0 - 2.0 * m_count / (n - m_count)
            assert attenuation(n, m_count, m_standard(n, m_count)) >= floor


def test_attenuation_matches_simulated_evs():
    # The curve must agree with expectation values read off the actual
    # iterated statevector, qubit by qubit.
    for n, location in [(16, 5), (64, 37), (256, 200)]:
        qubits = n.bit_length() - 1
        marked = MarkedSet((location,), n)
        state = new_uniform(qubits)
        ledger = OracleLedger()
        for m in range(1, m_standard(n, 1) + 1):
            state = apply_grover(state, marked, ledger)
            expected = attenuation(n, 1, m)
            for k in range(1, qubits + 1):
                sign = (-1) ** bit_of(location, k)
                assert exact_ev(state, k) * sign == pytest.approx(expected, abs=1e-10)


# ------------------------------------------------------------- stopping points

def test_m_standard_examples():
    assert m_standard(4, 1) == 1
    assert m_standard(16, 1) == 3
    assert m_standard(1024, 1) == 25


def test_m_standard_degenerate_half_marked():
    # theta = pi/2 exactly, so pi/(2 theta) = 1; the floor guard keeps the
    # 1-ulp rounding of theta from dropping this to 0.
    assert m_standard(4, 2) == 1
    assert m_standard(8, 4) == 1


def test_m_truncated_ideal_case_is_one_step():
    for n in (4, 16, 256, 4096):
        for m_count in (1, 2, 3):
            if 2 * m_count >= n:
                continue  # no amplification possible at half-or-more marked
            assert m_truncated(n, m_count, 0.0) == 1


def test_m_truncated_examples():
    assert m_truncated(16, 1, 0.25) == 1
    assert m_truncated(1024, 1, 0.25) == 8


def test_m_truncated_scan_cross_check():
    # Independent linear scan over the curve for the documented example.
    values = [attenuation(1024, 1, m) for m in range(26)]
    first_above = next(m for m, a in enumerate(values) if a > 0.25)
    assert first_above == 8 == m_truncated(1024, 1, 0.25)


def test_m_truncated_validates_threshold():
    with pytest.raises(ValueError):
        m_truncated(16, 1, 1.0)
    with pytest.raises(ValueError):
        m_truncated(16, 1, -0.05)
    with pytest.raises(ValueError, match="exceeds the standard version's tolerance"):
        m_truncated(64, 2, 0.6)


def test_truncation_plan_invariants():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.choice(POWERS_OF_TWO))
        m_count = int(rng.integers(1, min(5, n)))
        # plans are defined up to the standard version's tolerance 1/M
        a_th = float(rng.uniform(0, 1.0 / m_count))
        plan = make_plan(n, m_count, a_th)
        assert 0 <= plan.m_trunc <= plan.m_stand
        assert plan.a_stand == 1.0 / m_count
        if not plan.saturated:
            assert attenuation(n, m_count, plan.m_trunc) > a_th
            assert plan.m_trunc == 0 or attenuation(n, m_count, plan.m_trunc - 1) <= a_th


def test_make_plan_rejects_threshold_past_tolerance():
    with pytest.raises(ValueError):
        make_plan(64, 2, 0.75)


def test_saturation_flag():
    plan = make_plan(16, 1, 0.99)
    assert plan.saturated and plan.m_trunc == plan.m_stand == 3


# ------------------------------------------------- inversion vs. linear scan

def truncation_point(n, m_count, a_th):
    """(m_trunc, saturated) from the planner's closed-form inversion."""
    theta = grover_angle(n, m_count)
    return planner._truncation_point(n, m_count, a_th, theta, m_standard(n, m_count))


def curve_thresholds(n, m_count):
    """Every attenuation value up to the standard count, its float
    neighbours, and both ends of the threshold range."""
    thresholds = {0.0, 1.0 - 1e-12}
    for m in range(m_standard(n, m_count) + 1):
        value = attenuation(n, m_count, m)
        thresholds.update((value, math.nextafter(value, -1.0), math.nextafter(value, 2.0)))
    return sorted(t for t in thresholds if 0 <= t < 1)


def test_inversion_matches_scan_exhaustively():
    cases = 0
    for qubits in range(1, 15):
        n = 1 << qubits
        for m_count in range(1, min(8, n - 1) + 1):
            for a_th in curve_thresholds(n, m_count):
                expected = reference_truncation_scan(n, m_count, a_th)
                assert truncation_point(n, m_count, a_th) == expected, (n, m_count, a_th)
                cases += 1
    assert cases > 4000  # every (N, M) pair contributed its thresholds


@settings(max_examples=150, deadline=None)
@given(
    qubits=st.integers(1, 30),
    m_count=st.integers(1, 16),
    position=st.floats(0.0, 1.0),
    offset=st.sampled_from([-1, 0, 1]),
    free=st.none() | st.floats(0.0, 1.0, exclude_max=True),
)
def test_inversion_matches_scan_property(qubits, m_count, position, offset, free):
    n = 1 << qubits
    m_count = min(m_count, n - 1)
    if free is None:
        # A threshold on the curve itself or one ulp to either side.
        value = attenuation(n, m_count, round(position * m_standard(n, m_count)))
        a_th = min(max(value if offset == 0 else math.nextafter(value, offset * 2.0), 0.0),
                   1.0 - 1e-12)
    else:
        a_th = free
    assert truncation_point(n, m_count, a_th) == reference_truncation_scan(n, m_count, a_th)


@settings(max_examples=400, deadline=None)
@given(
    qubits=st.integers(28, 62),
    m_count=st.integers(1, 64),
    a_th=st.floats(0.0, 1.0, exclude_max=True),
)
@example(qubits=62, m_count=1, a_th=1.0 - 1e-15)
@example(qubits=62, m_count=1, a_th=0.0)
@example(qubits=28, m_count=64, a_th=1.0 - 1e-15)
def test_inversion_meets_first_crossing_contract(qubits, m_count, a_th):
    # Too large for the scan: check the first-crossing contract directly.
    n = 1 << qubits
    m_stand = m_standard(n, m_count)
    m, saturated = truncation_point(n, m_count, a_th)
    if saturated:
        assert m == m_stand and attenuation(n, m_count, m_stand) <= a_th
    else:
        assert 1 <= m <= m_stand
        assert attenuation(n, m_count, m - 1) <= a_th < attenuation(n, m_count, m)


@pytest.mark.parametrize("m_count", [1, 2, 4])
def test_plan_at_largest_n_takes_constant_work(m_count, monkeypatch):
    calls = []

    def counting_attenuation(*args):
        calls.append(args)
        return attenuation(*args)

    monkeypatch.setattr(planner, "attenuation", counting_attenuation)
    for a_th in (0.0, 1e-9, 0.1, 0.25):
        calls.clear()
        plan = make_plan(2**62, m_count, a_th)
        assert len(calls) <= 5, (a_th, calls)
        assert not plan.saturated and 1 <= plan.m_trunc <= plan.m_stand


# ------------------------------------------------------------------- estimate

def test_estimate_large_n_limit():
    # With a quarter threshold the arcsin tends to pi/6: one third of the
    # standard count.
    estimate = m_truncated_estimate(2**22, 1, 0.25)
    m_stand = m_standard(2**22, 1)
    assert estimate / m_stand == pytest.approx(1 / 3, abs=1e-4)


def test_estimate_documented_value():
    estimate = m_truncated_estimate(1024, 1, 0.25)
    assert estimate == pytest.approx(8.34678695190636, abs=1e-9)
    assert abs(estimate - m_truncated(1024, 1, 0.25)) <= 1.0


def test_estimate_at_standard_tolerance():
    for n in (64, 1024):
        assert m_truncated_estimate(n, 1, 1.0 - 1e-12) == pytest.approx(
            m_standard(n, 1), abs=1e-4
        )
    assert m_truncated_estimate(64, 2, 0.5) == m_standard(64, 2)


def test_estimate_rejects_threshold_past_standard_tolerance():
    with pytest.raises(ValueError):
        m_truncated_estimate(64, 2, 0.6)


def test_estimate_tracks_exact_single_item():
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        for a_th in (0.05, 0.1, 0.25, 0.5):
            assert abs(m_truncated_estimate(n, 1, a_th) - m_truncated(n, 1, a_th)) <= 1.0


def test_estimate_tracks_ev_scale_scan_multi_item():
    # The closed form inverts the attenuation curve at a_th/a_stand, i.e.
    # it predicts where the per-item EV magnitude A_m/M clears a_th.  The
    # matching integer scan therefore applies the threshold a_th * M.
    def ev_scale_scan(n, m_count, a_th):
        cap = m_standard(n, m_count)
        for m in range(cap + 1):
            if attenuation(n, m_count, m) > a_th * m_count:
                return m
        return cap

    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        for m_count in (2, 4):
            for a_th in (0.05, 0.1, 0.25, 0.5 / m_count):
                if a_th > 1.0 / m_count:
                    continue
                estimate = m_truncated_estimate(n, m_count, a_th)
                assert abs(estimate - ev_scale_scan(n, m_count, a_th)) <= 1.0, (
                    n, m_count, a_th,
                )


# ----------------------------------------------------------------- make_plan

def test_plan_documented_numbers():
    plan = make_plan(1024, 1, 0.25)
    assert plan.m_stand == 25
    assert plan.m_trunc == 8
    assert plan.ratio == pytest.approx(0.32)
    assert plan.theta == pytest.approx(grover_angle(1024, 1))


def test_plan_smallest_case():
    plan = make_plan(4, 1, 0.0)
    assert plan.m_stand == 1 and plan.m_trunc == 1 and not plan.saturated


def test_plan_two_marked():
    plan = make_plan(16, 2, 0.25)
    assert plan.a_stand == 0.5
    scan = [attenuation(16, 2, m) for m in range(plan.m_stand + 1)]
    assert scan[plan.m_trunc] > 0.25
    assert all(a <= 0.25 for a in scan[: plan.m_trunc])


def test_plan_json_fields():
    payload = make_plan(1024, 1, 0.25).to_json_dict()
    assert payload["m_stand"] == 25 and payload["m_trunc"] == 8
    assert set(payload) == {
        "N", "M", "theta", "a_th", "a_stand",
        "m_stand", "m_trunc", "m_trunc_estimate", "ratio", "saturated",
    }


def test_plan_large_n_planner_only():
    # No statevector anywhere near this size; pure arithmetic.
    plan = make_plan(2**20, 1, 0.25)
    assert abs(plan.ratio - 1 / 3) <= 0.02
    assert math.isclose(plan.m_trunc_estimate / plan.m_stand, 1 / 3, rel_tol=0.01)
