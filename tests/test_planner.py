"""Attenuation curve, stopping points, and the closed-form estimate."""

import math

import numpy as np
import pytest
from conftest import bit_of, reference_truncation_scan
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grover_ev import (
    MarkedSet,
    attenuation,
    grover_angle,
    make_plan,
    planner,
)
from grover_ev.core import apply_grover, half_angle, new_uniform, returns_to_uniform
from grover_ev.measurement import exact_ev

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
    # Exhaustive over the grid, on the register each plan reads: where
    # 2M >= N that is 2N labels, so no plan has the half-marked register
    # whose attenuation is identically zero.
    for n in POWERS_OF_TWO:
        for m_count in (1, 2, 3, 4):
            if m_count >= n:
                continue
            plan = make_plan(n, m_count, 0.0)
            values = [attenuation(plan.N, m_count, m) for m in range(plan.m_stand + 1)]
            for previous, current in zip(values, values[1:]):
                assert current > previous, (n, m_count, values)


def test_attenuation_endpoint_near_one():
    for n in POWERS_OF_TWO:
        for m_count in (1, 2, 3, 4):
            if m_count >= n:
                continue
            floor = 1.0 - 2.0 * m_count / (n - m_count)
            assert attenuation(n, m_count, make_plan(n, m_count, 0.0).m_stand) >= floor


def test_attenuation_matches_simulated_evs():
    # The curve must agree with expectation values read off the actual
    # iterated statevector, qubit by qubit.
    for n, location in [(16, 5), (64, 37), (256, 200)]:
        qubits = n.bit_length() - 1
        marked = MarkedSet((location,), n)
        state = new_uniform(qubits)
        for m in range(1, make_plan(n, 1, 0.0).m_stand + 1):
            state = apply_grover(state, marked)
            expected = attenuation(n, 1, m)
            for k in range(1, qubits + 1):
                sign = (-1) ** bit_of(location, k)
                assert exact_ev(state, k) * sign == pytest.approx(expected, abs=1e-10)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), qubits=st.integers(1, 62))
@example(data=None, qubits=1)  # M/N = 1/2: theta = pi/2
@example(data=None, qubits=62)
def test_angle_stepped_attenuation_is_the_public_curve(data, qubits):
    # The truncation point steps with the theta make_plan checked; every
    # step must equal attenuation(N, M, m), bit for bit, up to m_stand + 1,
    # and both the curve as first written: sin^2 of core's half angle.
    # An example (no data) takes M = 1 and m = m_stand + 1.
    n = 1 << qubits
    m_count = 1 if data is None else data.draw(st.integers(1, n - 1), label="M")
    theta = grover_angle(n, m_count)
    top = planner._standard_count(theta) + 1
    m = top if data is None else data.draw(st.integers(0, top), label="m")
    stepped = planner._attenuation(n, m_count, theta, m)
    written = (0.0 if returns_to_uniform(n, m_count, m) else
               (math.sin(half_angle(n, m_count, m)) ** 2 * n - m_count) / (n - m_count))
    assert stepped.hex() == attenuation(n, m_count, m).hex() == written.hex(), (n, m_count, m)


# ------------------------------------------------------------- stopping points

def test_plan_m_stand_examples():
    assert make_plan(4, 1, 0.0).m_stand == 1
    assert make_plan(16, 1, 0.0).m_stand == 3
    assert make_plan(1024, 1, 0.0).m_stand == 25


def test_plan_m_stand_degenerate_half_marked():
    # theta = pi/2 exactly, so pi/(2 theta) = 1; the floor guard keeps the
    # 1-ulp rounding of theta from dropping this to 0.  No plan reads a
    # half-marked register (2M >= N is planned on 2N labels), so the guard
    # is checked on the angle itself.
    assert planner._standard_count(grover_angle(4, 2)) == 1
    assert planner._standard_count(grover_angle(8, 4)) == 1


def test_plan_m_trunc_ideal_case_is_one_step():
    # Half-or-more marked (N = 4, M = 2 or 3) is planned on 2N labels, where
    # one step amplifies too.
    for n in (4, 16, 256, 4096):
        for m_count in (1, 2, 3):
            assert make_plan(n, m_count, 0.0).m_trunc == 1


def test_plan_m_trunc_examples():
    assert make_plan(16, 1, 0.25).m_trunc == 1
    assert make_plan(1024, 1, 0.25).m_trunc == 8


def test_plan_m_trunc_scan_cross_check():
    # Independent linear scan over the curve for the documented example.
    values = [attenuation(1024, 1, m) for m in range(26)]
    first_above = next(m for m, a in enumerate(values) if a > 0.25)
    assert first_above == 8 == make_plan(1024, 1, 0.25).m_trunc


def test_plan_m_trunc_validates_threshold():
    for n, m_count, a_th in ((16, 1, -0.05), (16, 1, 1.5), (64, 2, 0.6),
                             (64, 2, math.nan), (64, 2, math.inf), (64, 2, -math.inf)):
        with pytest.raises(ValueError) as excinfo:
            make_plan(n, m_count, a_th)
        assert str(excinfo.value) == (
            f"a_th must satisfy 0 <= a_th <= 1/M = {1.0 / m_count}, got {a_th}"
        )


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
            # The attenuation of the register the plan reads: 2N where 2M >= N.
            assert attenuation(plan.N, m_count, plan.m_trunc) > a_th
            assert plan.m_trunc == 0 or attenuation(plan.N, m_count, plan.m_trunc - 1) <= a_th


def test_make_plan_rejects_threshold_past_tolerance():
    with pytest.raises(ValueError):
        make_plan(64, 2, 0.75)


def test_saturation_flag():
    # a_th = 1 is the tolerance 1/M at M = 1: no attenuation exceeds it.
    for a_th in (0.99, 1.0):
        plan = make_plan(16, 1, a_th)
        assert plan.saturated and plan.m_trunc == plan.m_stand == 3


# ------------------------------------------------- inversion vs. linear scan

def register(n, m_count):
    """The N a plan for (n, m_count) reads: n, or 2n where 2M >= n."""
    return make_plan(n, m_count, 0.0).N


def truncation_point(n, m_count, a_th):
    """(m_trunc, saturated) from the planner's closed-form inversion, given
    the N, theta and m_stand of one register: ``n`` must be a plan's N."""
    plan = make_plan(n, m_count, 0.0)
    assert plan.N == n, (n, m_count)
    return planner._truncation_point(n, m_count, a_th, plan.theta, plan.m_stand)


def curve_thresholds(n, m_count):
    """Every attenuation value up to the standard count, its float
    neighbours, and both ends of the threshold range."""
    thresholds = {0.0, 1.0 - 1e-12}
    for m in range(make_plan(n, m_count, 0.0).m_stand + 1):
        value = attenuation(n, m_count, m)
        thresholds.update((value, math.nextafter(value, -1.0), math.nextafter(value, 2.0)))
    return sorted(t for t in thresholds if 0 <= t < 1)


def test_inversion_matches_scan_exhaustively():
    cases = 0
    for qubits in range(1, 15):
        for m_count in range(1, min(8, (1 << qubits) - 1) + 1):
            # Every (N, M) cell, read on the register its plan names.
            n = register(1 << qubits, m_count)
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
    m_count = min(m_count, (1 << qubits) - 1)
    n = register(1 << qubits, m_count)
    if free is None:
        # A threshold on the curve itself or one ulp to either side.
        value = attenuation(n, m_count, round(position * make_plan(n, m_count, 0.0).m_stand))
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
    m_stand = make_plan(n, m_count, 0.0).m_stand
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


@settings(max_examples=400, deadline=None)
@given(data=st.data(), qubits=st.integers(1, 62), fraction=st.floats(0.0, 1.0))
@example(data=None, qubits=1, fraction=1.0)
@example(data=None, qubits=62, fraction=0.0)
@example(data=None, qubits=61, fraction=1.0)
def test_every_plan_reads_a_register_below_half_marked(data, qubits, fraction):
    # make_plan reads 2N labels where 2M >= N, so M/N < 1/2 and the standard
    # count is at least 1 for every (N, M) a plan takes; at N = 2**62 there
    # is no 2N, and the plan says so.
    n = 1 << qubits
    m_count = n - 1 if data is None else data.draw(st.integers(1, n - 1), label="M")
    a_th = fraction / m_count
    if n == 2**62 and 2 * m_count >= n:
        with pytest.raises(ValueError, match=r"2M >= N is read on 2N labels"):
            make_plan(n, m_count, a_th)
        return
    plan = make_plan(n, m_count, a_th)
    assert plan.N == (2 * n if 2 * m_count >= n else n)
    assert 2 * m_count < plan.N and plan.m_stand >= 1
    assert 0 <= plan.m_trunc <= plan.m_stand and plan.ratio == plan.m_trunc / plan.m_stand


# ------------------------------------------------------------------- estimate

def test_estimate_large_n_limit():
    # With a quarter threshold the arcsin tends to pi/6: one third of the
    # standard count.
    estimate = make_plan(2**22, 1, 0.25).m_trunc_estimate
    m_stand = make_plan(2**22, 1, 0.0).m_stand
    assert estimate / m_stand == pytest.approx(1 / 3, abs=1e-4)


def test_estimate_documented_value():
    plan = make_plan(1024, 1, 0.25)
    assert plan.m_trunc_estimate == pytest.approx(8.34678695190636, abs=1e-9)
    assert abs(plan.m_trunc_estimate - plan.m_trunc) <= 1.0


def test_estimate_at_standard_tolerance():
    for n in (64, 1024):
        assert make_plan(n, 1, 1.0 - 1e-12).m_trunc_estimate == pytest.approx(
            make_plan(n, 1, 0.0).m_stand, abs=1e-4
        )
    assert make_plan(64, 2, 0.5).m_trunc_estimate == make_plan(64, 2, 0.0).m_stand


def test_estimate_tracks_exact_single_item():
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        for a_th in (0.05, 0.1, 0.25, 0.5):
            plan = make_plan(n, 1, a_th)
            assert abs(plan.m_trunc_estimate - plan.m_trunc) <= 1.0


def test_estimate_tracks_ev_scale_scan_multi_item():
    # The closed form inverts the attenuation curve at a_th/a_stand, i.e.
    # it predicts where the per-item EV magnitude A_m/M clears a_th.  The
    # matching integer scan therefore applies the threshold a_th * M.
    def ev_scale_scan(n, m_count, a_th):
        cap = make_plan(n, m_count, 0.0).m_stand
        for m in range(cap + 1):
            if attenuation(n, m_count, m) > a_th * m_count:
                return m
        return cap

    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        for m_count in (2, 4):
            for a_th in (0.05, 0.1, 0.25, 0.5 / m_count):
                if a_th > 1.0 / m_count:
                    continue
                estimate = make_plan(n, m_count, a_th).m_trunc_estimate
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


# ---------------------------------------------------------- search_iterations

def test_search_iterations_equal_m_trunc_for_one_item():
    for n in (4, 64, 1024, 2**20, 2**62):
        for a_th in (0.0, 0.1, 0.25, 0.5, 0.99):
            plan = make_plan(n, 1, a_th)
            assert planner.search_iterations(plan) == plan.m_trunc, (n, a_th)


def test_search_iterations_clear_the_one_item_ev():
    # The first m with A_m / M > a_th: the scan at threshold M a_th.
    for qubits in range(3, 13):
        n = 1 << qubits
        for m_count in range(2, min(4, n // 2 - 1) + 1):
            for a_th in (1e-9, 0.01, 0.05, 0.1, 0.2, 0.99 / m_count):
                plan = make_plan(n, m_count, a_th)
                expected, _ = reference_truncation_scan(n, m_count, m_count * a_th)
                assert planner.search_iterations(plan) == expected, (n, m_count, a_th)


def test_search_iterations_at_the_tolerance_are_the_standard_count():
    # a_th = 1/M gives M a_th = 1, which no attenuation exceeds.
    for n, m_count in ((16, 1), (8, 2), (64, 3), (1024, 4), (2**40, 4)):
        plan = make_plan(n, m_count, 1.0 / m_count)
        assert planner.search_iterations(plan) == plan.m_stand, (n, m_count)


def test_plan_large_n_planner_only():
    # No statevector anywhere near this size; pure arithmetic.
    plan = make_plan(2**20, 1, 0.25)
    assert abs(plan.ratio - 1 / 3) <= 0.02
    assert math.isclose(plan.m_trunc_estimate / plan.m_stand, 1 / 3, rel_tol=0.01)


@pytest.mark.parametrize("m_count", [1, 2, 4])
def test_ratio_at_largest_n_is_the_arcsine_asymptote(m_count):
    # At N = 2**62 the truncated fraction of m_stand is (2/pi) arcsin(sqrt(r)),
    # to within a step of m_stand (about 1e-9): r = a_th for the plan's
    # attenuation scale, and r = M a_th for the count a search runs at.
    for a_th in (0.01, 0.1, 0.25 / m_count, 0.9 / m_count):
        plan = make_plan(2**62, m_count, a_th)
        expected = 2 / math.pi * math.asin(math.sqrt(a_th))
        assert plan.ratio == pytest.approx(expected, abs=1e-8), a_th
        search_ratio = planner.search_iterations(plan) / plan.m_stand
        expected = 2 / math.pi * math.asin(math.sqrt(m_count * a_th))
        assert search_ratio == pytest.approx(expected, abs=1e-8), a_th
