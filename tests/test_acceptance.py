"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL report.
"""

import contextlib
import io
import itertools
import json
import math
import time

import numpy as np
import pytest
from conftest import bit_of, random_marked_locations
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_ev import (
    EnsembleModel,
    MarkedSet,
    attenuation,
    decide_sign,
    extract_location,
    make_plan,
)
from grover_ev.cli import main
from grover_ev.core import (
    StateVector,
    apply_diffusion,
    apply_grover,
    closed_form_state,
    new_uniform,
)
from grover_ev.filtering import apply_correlation
from grover_ev.measurement import exact_ev, measure_all, sampled_ev

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
                for m in range(1, make_plan(n, m_count, 0.0).m_stand + 1):
                    state = apply_grover(state, marked)
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
        for m in range(1, make_plan(n, 1, 0.0).m_stand + 1):
            state = apply_grover(state, marked)
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
        state = apply_grover(new_uniform(2), marked)
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
            m = make_plan(n, m_count, 0.25).m_trunc
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
    m = make_plan(8, 2, 0.25).m_trunc
    state = new_uniform(3)
    for _ in range(m):
        state = apply_grover(state, marked)
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
            m_stand = make_plan(n, m_count, 0.0).m_stand
            values = [attenuation(n, m_count, m) for m in range(m_stand + 1)]
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


def cli_search(*argv):
    """Run ``grover-ev search`` in-process; return its config and result."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["search", *argv])
    assert code == 0, out.getvalue()
    payload = json.loads(out.getvalue())
    return payload["config"], payload["result"]


def random_marked(data, min_qubits, max_qubits):
    """L, then M (any 1 <= M < N at L <= 4, else 1 <= M <= 4 < N/2), then M
    distinct locations."""
    qubits = data.draw(st.integers(min_qubits, max_qubits), label="L")
    n = 1 << qubits
    count = data.draw(st.integers(1, n - 1 if qubits <= 4 else 4), label="M")
    locations = data.draw(
        st.lists(st.integers(0, n - 1), min_size=count, max_size=count, unique=True),
        label="marked",
    )
    return qubits, locations


def assert_log_n_cost(qubits, locations, config, result):
    """The paper's cost: L runs, m per run, and one verification query, with
    one run more where 2M >= N, which searches one extra qubit; L bits."""
    runs = qubits + (2 * len(locations) >= 1 << qubits)
    assert result["verified"] and result["location"] in locations
    assert len(result["bits"]) == qubits
    assert result["total_runs"] == runs, (config, result)
    assert result["oracle_invocations"] == config["m"] * runs + 1, (config, result)


def test_criterion_9_log_n_runs_on_random_sets():
    searches = {"exact": 0, "sampled": 0}

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.data())
    def exact(data):
        # a_th anywhere in (0, 1/M], the range make_plan accepts; at 1/M
        # the search runs at the standard count.
        qubits, locations = random_marked(data, 1, 62)
        tolerance = 1.0 / len(locations)
        thresholds = st.just(tolerance) | st.floats(0.0, tolerance, exclude_min=True)
        a_th = data.draw(thresholds, label="a_th")
        config, result = cli_search(
            "--n", str(1 << qubits), "--marked", ",".join(map(str, locations)),
            "--a-th", repr(a_th),
        )
        assert_log_n_cost(qubits, locations, config, result)
        searches["exact"] += 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def sampled(data):
        # The default threshold, 5/sqrt(shots).
        qubits, locations = random_marked(data, 8, 62)
        shots = data.draw(st.sampled_from((1024, 4096)), label="shots")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        config, result = cli_search(
            "--n", str(1 << qubits), "--marked", ",".join(map(str, locations)),
            "--shots", str(shots), "--seed", str(seed),
        )
        assert_log_n_cost(qubits, locations, config, result)
        searches["sampled"] += 1

    exact()
    sampled()
    report(
        9, "random marked sets: L runs and one verification query",
        True,
        f"{searches['exact']} exact and {searches['sampled']} sampled searches",
    )


def test_half_or_more_marked_runs_on_one_extra_qubit():
    # Every marked set with 2M >= N at N = 2, 4, 8 and 16 (39,376 sets): the
    # search runs on 2N labels, where a marked label outweighs an unmarked
    # one, so an exact search takes L + 1 runs at m = 1 and reports L bits.
    searches = 0
    for qubits in range(1, 5):
        n = 1 << qubits
        for count in range((n + 1) // 2, n):
            for locations in itertools.combinations(range(n), count):
                config, result = cli_search(
                    "--n", str(n), "--marked", ",".join(map(str, locations)))
                assert config["m"] == 1 and config["n"] == n
                assert_log_n_cost(qubits, locations, config, result)
                searches += 1
    report(9, "2M >= N: L + 1 runs on one extra qubit", searches == 39_376,
           f"{searches} exact searches")


@pytest.mark.parametrize("qubits", [25, 40, 53, 54, 62])
def test_log_n_cost_past_the_dense_register_cap(qubits):
    # The two-amplitude path has no register cap of its own: up to
    # grover_angle's N <= 2**62 a search, exact or at 4,096 shots with the
    # default threshold, takes L runs and one verification query.
    rng = np.random.default_rng(qubits)
    for m_count in (1, 2, 4):
        locations = random_marked_locations(rng, 1 << qubits, m_count)
        for shots in (0, 4096):
            config, result = cli_search(
                "--n", str(1 << qubits), "--marked", ",".join(map(str, locations)),
                "--shots", str(shots), "--seed", str(qubits),
            )
            assert_log_n_cost(qubits, locations, config, result)


def test_search_time_at_62_qubits():
    # Best of five in-process CLI searches (M = 4): exact under 10 ms and
    # 4,096 shots under 0.2 s; both take about 3 ms on a 2-core VM.
    argv = ["--n", str(2**62), "--m-count", "4", "--seed", "1"]
    for shots, limit in ((0, 0.01), (4096, 0.2)):
        times = []
        for _ in range(5):
            started = time.perf_counter()
            cli_search(*argv, "--shots", str(shots))
            times.append(time.perf_counter() - started)
        assert min(times) < limit, (shots, times)
