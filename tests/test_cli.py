"""Command-line harness: plan/search/sweep, exit codes, reproducibility."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grover_ev
from grover_ev import cli
from grover_ev.cli import CSV_COLUMNS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def child_env():
    """Environment for a child interpreter that imports this same grover_ev.

    A child may run in another directory, where a relative PYTHONPATH entry
    such as `src` finds nothing, so the directory that holds the package
    this interpreter imported goes in front.  PYTHONHASHSEED is left alone.
    """
    env = dict(os.environ)
    package_dir = str(Path(grover_ev.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        entry for entry in (package_dir, env.get("PYTHONPATH")) if entry
    )
    return env


# ----------------------------------------------------------------------- plan

def test_plan_documented_numbers(capsys):
    code, out, _ = run_cli(
        capsys, "plan", "--n", "1024", "--m-count", "1", "--a-th", "0.25"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["plan"]["m_stand"] == 25
    assert payload["plan"]["m_trunc"] == 8
    assert payload["config"]["seed"] == 0
    assert '"m_stand": 25' in out and '"m_trunc": 8' in out


def test_plan_ideal_threshold(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "4", "--m-count", "1", "--a-th", "0")
    assert code == 0
    assert json.loads(out)["plan"]["m_trunc"] == 1


def test_plan_rejects_non_power_of_two(capsys):
    code, _, err = run_cli(capsys, "plan", "--n", "5", "--m-count", "1", "--a-th", "0.25")
    assert code == 2
    assert "power of two" in err


def test_plan_csv_form(capsys):
    code, out, _ = run_cli(
        capsys, "plan", "--n", "1024", "--a-th", "0.25", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    row = parse_csv(out)[0]
    assert row["m_stand"] == "25" and row["m_trunc"] == "8"
    assert row["ev_sign_error_rate"] == ""  # plans do not simulate readout


def test_plan_marked_count_consistency(capsys):
    code, _, err = run_cli(
        capsys, "plan", "--n", "16", "--m-count", "2", "--marked", "3", "--a-th", "0.1"
    )
    assert code == 2
    assert "disagrees" in err


def test_plan_at_largest_universe(capsys):
    n = 2**62
    code, out, _ = run_cli(capsys, "plan", "--n", str(n), "--m-count", "2", "--a-th", "0.1")
    assert code == 0
    plan = json.loads(out)["plan"]
    m_trunc = plan["m_trunc"]
    assert not plan["saturated"]
    assert grover_ev.attenuation(n, 2, m_trunc - 1) <= 0.1 < grover_ev.attenuation(n, 2, m_trunc)


@pytest.mark.parametrize("n", [2**63, 2**1100])
def test_plan_rejects_universe_past_float_range(capsys, n):
    code, out, err = run_cli(capsys, "plan", "--n", str(n), "--a-th", "0.1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# --------------------------------------------------------------------- search

def test_search_finds_explicit_marked_item(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--n", "64", "--marked", "37",
        "--a-th", "0.25", "--shots", "0", "--seed", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["location"] == 37
    assert payload["result"]["verified"] is True
    assert payload["config"]["marked"] == [37]
    assert payload["config"]["m"] >= 1


def test_search_handles_cancellation(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--n", "8", "--marked", "3,5", "--a-th", "0.2", "--shots", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["location"] in (3, 5)
    assert payload["result"]["branch_events"] >= 1


def test_search_failure_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--n", "8", "--marked", "5",
        "--a-th", "0", "--shots", "2", "--seed", "113", "--m", "1",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "search-failure"
    assert payload["total_runs"] >= 3


def test_search_rejects_register_past_cap(capsys):
    n = 1 << (grover_ev.MAX_QUBITS + 1)
    code, out, err = run_cli(
        capsys, "search", "--n", str(n), "--marked", "5", "--a-th", "0.25", "--m", "1"
    )
    assert code == 2
    assert out == ""
    assert "qubit_count" in err


def test_search_random_marked_set_is_seeded(capsys):
    code1, out1, _ = run_cli(
        capsys, "search", "--n", "32", "--m-count", "2", "--a-th", "0.2", "--seed", "9"
    )
    code2, out2, _ = run_cli(
        capsys, "search", "--n", "32", "--m-count", "2", "--a-th", "0.2", "--seed", "9"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["result"]["location"] in payload["config"]["marked"]


def test_search_byte_identical_across_processes(tmp_path):
    argv = [
        sys.executable, "-m", "grover_ev", "search",
        "--n", "16", "--marked", "11", "--a-th", "0.1",
        "--shots", "4096", "--seed", "7",
    ]
    # The two children may hash differently and must still agree.
    env = child_env()
    first = subprocess.run(argv, capture_output=True, cwd=tmp_path, env=env, timeout=120)
    second = subprocess.run(argv, capture_output=True, cwd=tmp_path, env=env, timeout=120)
    assert first.returncode == second.returncode == 0, (first.stderr, second.stderr)
    assert first.stdout == second.stdout


# ---------------------------------------------------------------------- sweep

def test_sweep_iterates_attenuation_monotone(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--n", "1024", "--m-count", "1", "--a-th", "0.25",
        "--sweep", "m", "--values", "0..25",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 26
    attenuations = [float(row["A_m"]) for row in rows]
    assert attenuations[0] == 0.0
    assert all(b > a for a, b in zip(attenuations, attenuations[1:]))
    audit = json.loads(err)
    assert audit["sweep"]["variable"] == "m"


def test_sweep_row_seeds_derive_from_master(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "64", "--a-th", "0.25",
        "--sweep", "m", "--values", "0..3", "--seed", "12",
    )
    assert code == 0
    seeds = [int(row["seed"]) for row in parse_csv(out)]
    assert seeds == [12 ^ 0, 12 ^ 1, 12 ^ 2, 12 ^ 3]


def test_sweep_threshold_tracks_estimate(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "4096", "--m-count", "1",
        "--sweep", "a_th", "--values", "0.1,0.25,0.5",
    )
    assert code == 0
    for row in parse_csv(out):
        m_stand = int(row["m_stand"])
        gap = abs(int(row["m_trunc"]) - float(row["m_trunc_estimate"]))
        assert gap <= 1.0
        assert abs(int(row["m_trunc"]) / m_stand - float(row["m_trunc_estimate"]) / m_stand) \
            <= 1.0 / m_stand + 1e-12


def test_sweep_shots_error_rate_falls(capsys):
    # Fixed iterate count with attenuation just above a quarter; more shots
    # can only sharpen the sign decision.
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "1024", "--marked", "37", "--a-th", "0.25",
        "--m", "8", "--sweep", "shots", "--values", "100,1000,10000",
        "--trials", "200", "--seed", "3",
    )
    assert code == 0
    rates = [float(row["ev_sign_error_rate"]) for row in parse_csv(out)]
    assert rates[0] >= rates[1] >= rates[2]
    assert rates[2] < 0.01


def test_sweep_rejects_bad_n_value(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--n", "16", "--a-th", "0.1",
        "--sweep", "N", "--values", "16,17",
    )
    assert code == 2
    assert "power of two" in err


def test_sweep_rejects_bad_a_th_value(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--n", "1024", "--sweep", "a_th", "--values", "0.1,1.5",
    )
    assert code == 2
    assert out == ""
    assert err == "error: a_th must satisfy 0 <= a_th < 1, got 1.5\n"


def test_sweep_builds_no_statevector(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("the sweep built a StateVector")

    monkeypatch.setattr(grover_ev.StateVector, "__post_init__", refuse)
    code, out, err = run_cli(
        capsys, "sweep", "--n", str(1 << 20), "--marked", "654321", "--a-th", "0.25",
        "--shots", "1024", "--sweep", "m", "--values", "0..3", "--trials", "20",
    )
    assert code == 0, err
    assert [int(row["m"]) for row in parse_csv(out)] == [0, 1, 2, 3]


def test_sweep_rejects_register_past_cap(capsys):
    n = 1 << (grover_ev.MAX_QUBITS + 1)
    code, out, err = run_cli(
        capsys, "sweep", "--n", str(n), "--marked", "5", "--a-th", "0.25",
        "--sweep", "m", "--values", "1..1",
    )
    assert code == 2
    assert out == ""
    assert "qubit_count" in err


@pytest.mark.parametrize("argv, message", [
    (["search", "--marked", "3,16"], "must lie in [0, 16)"),
    (["search", "--marked", "-1"], "must lie in [0, 16)"),
    (["search", "--marked", "3,3"], "must be distinct"),
    (["sweep", "--marked", "3,3", "--sweep", "m", "--values", "1..1"], "must be distinct"),
    (["plan", "--a-th", "1.5"], "0 <= a_th < 1"),
    (["search", "--a-th", "-0.1"], "0 <= a_th < 1"),
    (["sweep", "--a-th", "1.0", "--sweep", "m", "--values", "1..1"], "0 <= a_th < 1"),
    (["search", "--sigma", "nan"], "sigma must be a finite number >= 0"),
    (["search", "--sigma", "inf"], "sigma must be a finite number >= 0"),
    (["sweep", "--sigma", "nan", "--sweep", "m", "--values", "1..1"], "sigma must be a finite"),
    (["sweep", "--sigma", "inf", "--sweep", "m", "--values", "1..1"], "sigma must be a finite"),
    (["plan", "--sigma", "-0.1"], "sigma must be a finite number >= 0"),
])
def test_invalid_input_exits_two_with_empty_stdout(capsys, argv, message):
    code, out, err = run_cli(capsys, argv[0], "--n", "16", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_sweep_float_formatting_is_twelve_digits(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "1024", "--a-th", "0.25",
        "--sweep", "m", "--values", "8..8",
    )
    assert code == 0
    row = parse_csv(out)[0]
    # direct evaluation of the attenuation at N=1024, M=1, m=8
    theta = 2 * math.asin(1 / 32)
    expected = (math.sin(17 * theta / 2) ** 2 * 1024 - 1) / 1023
    assert row["A_m"] == f"{expected:.12g}"
    assert len(row["A_m"].replace("0.", "")) <= 12


def test_sweep_at_half_marked_scores_against_undecided_reference(capsys):
    # At M = N/2 every label keeps the same weight, so A_m and the exact EVs
    # are exactly 0 and no trial has a sign to get right: a row's rate is
    # the share of trials whose readout decides.
    locations = (1, 3, 5, 7, 9, 11, 13, 15)
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "16", "--marked", ",".join(map(str, locations)),
        "--a-th", "0.05", "--shots", "64", "--sweep", "m", "--values", "1..4",
    )
    assert code == 0
    rows = parse_csv(out)
    assert [row["A_m"] for row in rows] == ["0"] * 4
    marked = grover_ev.MarkedSet(locations, 16)
    for row in rows:
        state = grover_ev.closed_form_state(4, marked, int(row["m"]))
        decided = sum(
            grover_ev.decide_sign(grover_ev.sampled_ev(
                state, 1, grover_ev.EnsembleModel(shots=64, seed=int(row["seed"]) + t)), 0.0)
            is not None
            for t in range(200)
        )
        assert float(row["ev_sign_error_rate"]) == decided / 200


# ------------------------------------------------------------- output routing

def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "plan.json"
    code, out, _ = run_cli(
        capsys, "plan", "--n", "16", "--a-th", "0.25", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["plan"]["m_trunc"] == 1


def test_unwritable_out_path(capsys):
    code, _, err = run_cli(
        capsys, "plan", "--n", "16", "--a-th", "0.25",
        "--out", "/nonexistent-dir/plan.json",
    )
    assert code == 2
    assert "cannot write" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["plan"])  # --n is required
    assert excinfo.value.code == 2


# ------------------------------------------------------- repeated main calls

PLAN_ARGV = ["plan", "--n", "1024", "--m-count", "2", "--a-th", "0.2", "--format", "csv"]
SEARCH_ARGV = ["search", "--n", "64", "--marked", "5,37", "--shots", "1024", "--seed", "3"]
SWEEP_ARGV = ["sweep", "--n", "256", "--marked", "9", "--a-th", "0.25", "--shots", "64",
              "--sweep", "m", "--values", "0..3", "--trials", "20", "--seed", "5"]


def test_main_builds_parser_once(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for i in range(100):
            assert main(["plan", "--n", str(1 << (4 + i % 30)), "--a-th", "0.25"]) == 0
        with pytest.raises(SystemExit):
            main(["plan", "--n", "x"])
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1
    # The public builder still gives a fresh parser on every call.
    assert cli.build_parser() is not cli.build_parser()


def test_import_builds_no_parser():
    code = ("import grover_ev.cli as cli; "
            "print(cli._parser.cache_info().currsize)")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=child_env(), timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "0\n"


@pytest.mark.parametrize("argv", [PLAN_ARGV, SEARCH_ARGV, SWEEP_ARGV])
def test_earlier_calls_leave_no_state(capsys, argv):
    # A usage error, then calls of every command with other options, then
    # the call under test: its output must be what a fresh process prints.
    with pytest.raises(SystemExit) as excinfo:
        main(["plan", "--n", "x"])
    assert excinfo.value.code == 2
    for other in (["plan", "--n", "16", "--a-th", "0.1", "--m", "3", "--format", "csv"],
                  ["search", "--n", "16", "--marked", "3", "--m", "2", "--sigma", "0.01"],
                  ["sweep", "--n", "16", "--m-count", "2", "--sweep", "shots",
                   "--values", "8", "--trials", "3", "--m", "1"]):
        assert main(other) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, *argv)
    fresh = subprocess.run([sys.executable, "-m", "grover_ev", *argv], capture_output=True,
                           text=True, env=child_env(), timeout=120)
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 0 and out
