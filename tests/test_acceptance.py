"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL report.
"""

import itertools
import math
import time

import numpy as np
from conftest import bit_of, random_marked_locations

from grover_ev import (
    EnsembleModel,
    MarkedSet,
    OracleLedger,
    StateVector,
    apply_correlation,
    apply_diffusion,
    apply_grover,
    attenuation,
    closed_form_state,
    exact_ev,
    extract_location,
    m_standard,
    m_truncated,
    make_plan,
    measure_all,
    new_uniform,
    sampled_ev,
    decide_sign,
)

EXACT = EnsembleModel()


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {number}] {status} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_closed_form_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for qubits in range(2, 11):
        n = 1 << qubits
        for m_count in (1, 2, 3):
            for _ in range(50):
                marked = MarkedSet(random_marked_locations(rng, n, m_count), n)
                state = new_uniform(qubits)
                ledger = OracleLedger()
                for m in range(1, m_standard(n, m_count) + 1):
                    state = apply_grover(state, marked, ledger)
                    analytic = closed_form_state(qubits, marked, m)
                    worst = max(
                        worst, float(np.max(np.abs(state.amplitudes - analytic.amplitudes)))
                    )
    elapsed = time.perf_counter() - started
    report(
        1, "closed-form equivalence",
        worst <= 1e-10 and elapsed < 30.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_ev_matches_attenuation():
    rng = np.random.default_rng(102)
    worst = 0.0
    for qubits in range(2, 11):
        n = 1 << qubits
        location = int(rng.integers(0, n))
        marked = MarkedSet((location,), n)
        state = new_uniform(qubits)
        ledger = OracleLedger()
        for m in range(1, m_standard(n, 1) + 1):
            state = apply_grover(state, marked, ledger)
            expected = attenuation(n, 1, m)
            for k in range(1, qubits + 1):
                sign = (-1) ** bit_of(location, k)
                worst = max(worst, abs(exact_ev(state, k) - sign * expected))
    report(2, "EV equals signed attenuation", worst <= 1e-10, f"max deviation {worst:.2e}")


def test_criterion_3_four_item_milestone():
    ok = True
    detail = ""
    for location in range(4):
        marked = MarkedSet((location,), 4)
        state = apply_grover(new_uniform(2), marked, OracleLedger())
        for k in (1, 2):
            expected = (-1) ** bit_of(location, k)
            if abs(exact_ev(state, k) - expected) > 1e-12:
                ok = False
                detail = f"EV off at location {location}, qubit {k}"
    if attenuation(4, 1, 1) != 1.0:
        ok = False
        detail = "A_1 != 1"
    report(3, "N=4 single step reads the location exactly", ok, detail)


def test_criterion_4_truncation_numbers():
    plan = make_plan(1024, 1, 0.25)
    estimate = plan.m_trunc_estimate
    ok = (
        plan.m_stand == 25
        and plan.m_trunc == 8
        and plan.ratio == 8 / 25
        and 8.3 <= estimate <= 8.4
        and abs(estimate - plan.m_trunc) <= 1.0
    )
    large = make_plan(2**20, 1, 0.25)
    ok = ok and abs(large.ratio - 1 / 3) <= 0.02
    report(
        4, "truncation numbers at N=1024 and N=2^20",
        ok,
        f"m_stand={plan.m_stand} m_trunc={plan.m_trunc} estimate={estimate:.4f} "
        f"large-N ratio={large.ratio:.4f}",
    )


def test_criterion_5_filtered_search_completeness():
    started = time.perf_counter()
    searches = failures = run_count_violations = 0
    for n in (8, 16):
        qubits = n.bit_length() - 1
        for m_count in (1, 2, 3):
            m = m_truncated(n, m_count, 0.25)
            for locations in itertools.combinations(range(n), m_count):
                result = extract_location(MarkedSet(locations, n), m, EXACT, 0.25)
                searches += 1
                if not (result.verified and result.location in locations):
                    failures += 1
                if result.branch_events == 0 and result.total_runs != qubits:
                    run_count_violations += 1
    elapsed = time.perf_counter() - started
    report(
        5, "filtered search complete on all small marked sets",
        failures == 0 and run_count_violations == 0 and elapsed < 60.0,
        f"{searches} searches, {elapsed:.1f}s",
    )


def test_criterion_6_cancellation_handled_by_branching():
    marked = MarkedSet((3, 5), 8)
    m = m_truncated(8, 2, 0.25)
    state = new_uniform(3)
    ledger = OracleLedger()
    for _ in range(m):
        state = apply_grover(state, marked, ledger)
    # stage 2: bit 1 already determined as 1 (both items are odd)
    plain = measure_all(state, EXACT)
    correlated = measure_all(apply_correlation(state, 2, (1,)), EXACT)
    stage2 = (plain[1] + correlated[1]) / 2.0
    result = extract_location(marked, m, EXACT, 0.25)
    ok = stage2 == 0.0 and result.verified and result.location in (3, 5)
    report(
        6, "devastating cancellation survives via branching",
        ok,
        f"stage-2 EV {stage2!r}, found {result.location}, "
        f"branch_events {result.branch_events}",
    )


def test_criterion_7_sampling_statistics():
    shots, trials = 10_000, 1000
    ok = True
    details = []
    for n, location, m in ((16, 5, 1), (1024, 37, 8)):
        qubits = n.bit_length() - 1
        magnitude = attenuation(n, 1, m)
        assert magnitude >= 0.25
        state = closed_form_state(qubits, MarkedSet((location,), n), m)
        truth = decide_sign(exact_ev(state, 1), 0.0)
        errors = sum(
            decide_sign(sampled_ev(state, 1, EnsembleModel(shots=shots, seed=seed)), 0.0)
            != truth
            for seed in range(trials)
        )
        rate = errors / trials
        # Hoeffding tail for an n-shot mean of +-1 values straying past the
        # signal magnitude: far below one in a thousand.
        bound = math.exp(-shots * magnitude**2 / 2.0)
        ok = ok and rate < 0.01 and bound < 1e-3
        details.append(f"N={n}: rate {rate:.4f}, tail bound {bound:.1e}")
    report(7, "sign decisions reliable at 10^4 shots", ok, "; ".join(details))


def test_criterion_8_monotonicity_and_involutions():
    ok = True
    detail = ""
    for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096):
        for m_count in (1, 2, 3, 4):
            if m_count >= n or 2 * m_count == n:
                continue  # half-marked: identically zero attenuation
            values = [attenuation(n, m_count, m) for m in range(m_standard(n, m_count) + 1)]
            if any(b <= a for a, b in zip(values, values[1:])):
                ok = False
                detail = f"not strictly increasing at N={n}, M={m_count}"

    rng = np.random.default_rng(108)
    for _ in range(25):
        qubits = int(rng.integers(2, 7))
        amps = rng.normal(size=1 << qubits) + 1j * rng.normal(size=1 << qubits)
        amps /= np.linalg.norm(amps)
        state = StateVector(qubits, amps)
        twice = apply_diffusion(apply_diffusion(state))
        if np.max(np.abs(twice.amplitudes - state.amplitudes)) > 1e-12:
            ok = False
            detail = "diffusion not involutive"
        prefix_len = int(rng.integers(1, qubits))
        s_bits = tuple(int(b) for b in rng.integers(0, 2, size=prefix_len))
        target = prefix_len + 1
        corr_twice = apply_correlation(
            apply_correlation(state, target, s_bits), target, s_bits
        )
        if np.max(np.abs(corr_twice.amplitudes - state.amplitudes)) > 1e-12:
            ok = False
            detail = "correlation not involutive"
    report(8, "attenuation monotone, operators involutive", ok, detail)
