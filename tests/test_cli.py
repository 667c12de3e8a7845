"""Command-line harness: plan/search/sweep, exit codes, reproducibility."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import grover_ev
from grover_ev import cli, core, filtering
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
        "--a-th", "0", "--shots", "2", "--seed", "4", "--m", "1",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "search-failure"
    assert payload["reason"] == "exhausted"
    assert payload["total_runs"] >= 3


def test_search_budget_failure_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--n", "256", "--marked", "77",
        "--a-th", "0.1", "--shots", "2", "--seed", "2",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "search-failure"
    assert payload["reason"] == "budget"
    assert payload["total_runs"] == 4 * 8
    assert "threshold" not in payload["detail"]


def test_search_at_the_tolerance_runs_the_standard_count(capsys):
    # a_th = 1/M puts the one-item EV target M a_th at 1, which no A_m
    # exceeds, so the search runs at m_stand and reads every bit by sign.
    code, out, _ = run_cli(
        capsys, "search", "--n", "1024", "--marked", "1,2,3,4", "--a-th", "0.25",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["m"] == grover_ev.make_plan(1024, 4, 0.25).m_stand == 12
    assert payload["result"]["location"] in (1, 2, 3, 4)
    assert payload["result"]["total_runs"] == 10
    assert payload["result"]["oracle_invocations"] == 12 * 10 + 1


def test_search_runs_where_one_item_ev_clears_threshold(capsys):
    # M = 2 at a_th = 0.2: the plan's m_trunc (3) has A_m > 0.2, but the
    # search needs A_m / 2 > 0.2, first met at m = 4; it then takes L runs.
    code, out, _ = run_cli(
        capsys, "search", "--n", "256", "--m-count", "2", "--a-th", "0.2", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert grover_ev.make_plan(256, 2, 0.2).m_trunc == 3
    m = payload["config"]["m"]
    assert m == 4
    assert grover_ev.attenuation(256, 2, m - 1) <= 0.4 < grover_ev.attenuation(256, 2, m)
    assert payload["result"]["total_runs"] == 8


# ------------------------------------------------------------ omitted --a-th

def test_default_threshold_policy(capsys):
    # Five standard errors of a shots-shot mean, 1e-9 when exact.
    for shots, expected in ((0, 1e-9), (10_000, 5 / math.sqrt(10_000))):
        code, out, _ = run_cli(capsys, "plan", "--n", "1024", "--shots", str(shots))
        assert code == 0
        assert json.loads(out)["config"]["a_th"] == expected


@pytest.mark.parametrize("argv, a_th", [
    (["search", "--n", "1024", "--marked", "5", "--shots", "16"], 1.0),
    (["search", "--n", "1024", "--m-count", "7", "--shots", "1024"], 1 / 7),
    (["plan", "--n", str(2**40), "--m-count", "2000000000"], 5e-10),
], ids=["few-shots", "many-items-sampled", "many-items-exact"])
def test_omitted_threshold_is_capped_at_one_over_m(capsys, argv, a_th):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert json.loads(out)["config"]["a_th"] == a_th


def test_few_shot_search_runs_at_the_standard_count(capsys):
    # 5/sqrt(16) = 1.25 is capped at 1/M = 1, which no attenuation exceeds.
    code, out, _ = run_cli(capsys, "search", "--n", "1024", "--marked", "5", "--shots", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["m"] == grover_ev.make_plan(1024, 1, 1.0).m_stand == 25
    assert payload["result"]["location"] == 5
    assert payload["result"]["total_runs"] == 10


def test_sweep_audit_echoes_the_capped_threshold(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--n", "64", "--m-count", "4", "--shots", "16",
        "--sweep", "a_th", "--values", "0.1", "--trials", "2",
    )
    assert code == 0
    assert json.loads(err)["config"]["a_th"] == 0.25
    assert parse_csv(out)[0]["a_th"] == "0.1"


def test_search_rejects_register_past_cap(capsys):
    # grover_angle's N <= 2**62 is the one register rule of a search.
    code, out, err = run_cli(
        capsys, "search", "--n", str(2**63), "--marked", "5", "--a-th", "0.25"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: universe_size must be at most 2**62, got N={2**63}\n"


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


def run_capped(tmp_path, *argv):
    """Run ``grover-ev argv`` in a child interpreter whose address space is
    capped at 1.5 GB by ``setrlimit``, a limit on that child alone."""
    resource = pytest.importorskip("resource")
    cap = 1_500_000_000

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    # One BLAS thread keeps the child's reserved (not used) memory small.
    env = {**child_env(), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "grover_ev", *argv], capture_output=True,
                          text=True, cwd=tmp_path, env=env, preexec_fn=limit, timeout=120)


def test_search_at_huge_shot_counts_allocates_no_shot_sized_memory(tmp_path):
    # 10**12 shots read by labels would need 8 TB; read by counts the
    # search runs as any other and takes its L runs and one query.
    child = run_capped(tmp_path, "search", "--n", "1024", "--marked", "5",
                       "--shots", str(10**12))
    assert child.returncode == 0, child.stderr
    payload = json.loads(child.stdout)
    result, config = payload["result"], payload["config"]
    assert result["verified"] is True and result["location"] == 5
    assert result["bits"] == [5 >> i & 1 for i in range(10)]
    assert config["marked"] == [5] and config["shots"] == 10**12
    assert result["total_runs"] == 10
    assert result["oracle_invocations"] == config["m"] * 10 + 1



def test_search_past_the_crossing_exits_two_before_any_run(tmp_path, capsys, monkeypatch):
    # At m = 3 > m_stand = 1 a marked label weighs about 1.5e-5 and an
    # unmarked one 0.077, so no EV sign names a marked bit.  The search is
    # rejected before its first run, exact or at any shot count, in bounded
    # time and memory.
    argv = ["search", "--n", "16", "--marked", "3,9,12", "--m", "3"]
    message = "error: at m = 3 a marked label weighs less than an unmarked one\n"
    start = time.perf_counter()
    for shots in (0, 4096, 10**12):
        child = run_capped(tmp_path, *argv, "--shots", str(shots))
        assert (child.returncode, child.stdout, child.stderr) == (2, "", message)
    assert time.perf_counter() - start < 10

    def refuse(*args):
        raise AssertionError("the search read a run")

    monkeypatch.setattr(filtering, "_read", refuse)
    assert run_cli(capsys, *argv, "--shots", "4096") == (2, "", message)


def test_marked_count_past_the_limit_exits_two(tmp_path, capsys):
    # M = 2**35 drawn at N = 2**40 would permute 8 TiB of labels; the one
    # MAX_MARKED check rejects it before any draw, in a child capped at
    # 1.5 GB, for search and sweep alike.  plan enumerates no label and takes it.
    flags = ["--n", str(2**40), "--m-count", str(2**35)]
    message = f"error: a marked set holds at most {core.MAX_MARKED} locations, got {2**35}\n"
    for argv in (["search", *flags], ["sweep", *flags, "--sweep", "m", "--values", "1..2"]):
        child = run_capped(tmp_path, *argv)
        assert (child.returncode, child.stdout, child.stderr) == (2, "", message)
    child = run_capped(tmp_path, "plan", *flags)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["plan"]["M"] == 2**35
    # An explicit list is held to the same limit.
    marked = ",".join(map(str, range(core.MAX_MARKED + 1)))
    message = (f"error: a marked set holds at most {core.MAX_MARKED} locations, "
               f"got {core.MAX_MARKED + 1}\n")
    assert run_cli(capsys, "search", "--n", str(2**20), "--marked", marked) == (2, "", message)


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


def test_n_sweep_needs_no_n(capsys):
    argv = ["sweep", "--m-count", "1", "--a-th", "0.25", "--shots", "64",
            "--sweep", "N", "--values", "16,64", "--trials", "4"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    with_n = run_cli(capsys, *argv, "--n", "16")
    assert with_n[:2] == (0, out)
    assert json.loads(err)["config"]["n"] is None
    assert err == with_n[2].replace('"n": 16', '"n": null')


@pytest.mark.parametrize("argv", [
    ["sweep", "--sweep", "m", "--values", "1..2"],
    ["sweep", "--sweep", "a_th", "--values", "0.25"],
    ["sweep", "--sweep", "shots", "--values", "64"],
])
def test_other_sweeps_still_need_n(capsys, argv):
    assert run_cli(capsys, *argv) == (2, "", "error: --n is required unless --sweep N\n")


def test_sweep_trial_seeds_wrap_at_the_top_of_the_seed_range(capsys):
    # Rows at the top of the seed range run: each row seed, 2**64 - 2 and
    # 2**64 - 1, seeds that row's one generator, so nothing wraps.
    code, out, err = run_cli(
        capsys, "sweep", "--n", "16", "--marked", "3", "--a-th", "0.25", "--shots", "16",
        "--seed", str(2**64 - 2), "--sweep", "m", "--values", "1..2", "--trials", "5",
    )
    assert code == 0, err
    assert [row["seed"] for row in parse_csv(out)] == [str(2**64 - 2), str(2**64 - 1)]


def test_sweep_at_huge_shot_counts_allocates_no_shot_sized_memory(tmp_path):
    # A row's trials are binomial counts, so 10**12 shots a trial need no
    # memory that grows with the shot count.
    child = run_capped(tmp_path, "sweep", "--n", "1024", "--marked", "5",
                       "--sweep", "shots", "--values", str(10**12), "--trials", "2")
    assert child.returncode == 0, child.stderr
    rows = list(csv.reader(io.StringIO(child.stdout)))
    assert rows[0] == CSV_COLUMNS and len(rows) == 2
    row = dict(zip(CSV_COLUMNS, rows[1]))
    assert (row["N"], row["M"], row["seed"]) == ("1024", "1", "0")
    assert int(row["m"]) == int(row["m_trunc"]) <= int(row["m_stand"])
    assert row["A_m"] == f"{grover_ev.attenuation(1024, 1, int(row['m'])):.12g}"
    assert float(row["ev_sign_error_rate"]) == 0.0
    assert json.loads(child.stderr)["config"]["shots"] == 0


def test_sweep_past_the_standard_count_reads_any_shot_count(capsys):
    # A sweep trial reads one qubit by one binomial count, so past m_stand
    # (1 here) a row takes 10**12 shots, as a search's whole-register read
    # at the same m does.
    code, out, err = run_cli(
        capsys, "sweep", "--n", "16", "--marked", "3,9,12", "--shots", str(10**12),
        "--sweep", "m", "--values", "3..4", "--trials", "3",
    )
    assert code == 0, err
    rows = parse_csv(out)
    assert [row["m"] for row in rows] == ["3", "4"] and rows[0]["m_stand"] == "1"


def test_sweep_range_past_the_value_limit_exits_two(tmp_path):
    # 0..10**10 names 10**10 + 1 values.  They are counted before the range
    # is expanded, so the sweep fails in bounded memory with one error line.
    child = run_capped(tmp_path, "sweep", "--n", "1024", "--sweep", "m",
                       "--values", f"0..{10**10}")
    assert child.returncode == 2, child.stderr
    assert child.stdout == ""
    assert child.stderr == f"error: a sweep takes at most 100000 values, got {10**10 + 1}\n"


def test_sweep_value_limit_holds_for_ranges_and_lists(capsys):
    limit = cli.MAX_SWEEP_VALUES
    assert cli._parse_sweep_values("m", f"1..{limit}") == list(range(1, limit + 1))
    assert cli._parse_sweep_values("a_th", ",".join(["0.1"] * limit)) == [0.1] * limit
    message = f"error: a sweep takes at most {limit} values, got {limit + 1}\n"
    for values in (f"1..{limit + 1}", ",".join(["1"] * (limit + 1))):
        argv = ["sweep", "--n", "16", "--sweep", "m", "--values", values]
        assert run_cli(capsys, *argv) == (2, "", message)


def test_sweep_rejects_bad_a_th_value(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--n", "1024", "--sweep", "a_th", "--values", "0.1,1.5",
    )
    assert code == 2
    assert out == ""
    assert err == "error: a_th must satisfy 0 <= a_th <= 1/M = 1.0, got 1.5\n"


def test_sweep_builds_no_statevector(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("the sweep built a StateVector")

    monkeypatch.setattr(core.StateVector, "__post_init__", refuse)
    code, out, err = run_cli(
        capsys, "sweep", "--n", str(1 << 20), "--marked", "654321", "--a-th", "0.25",
        "--shots", "1024", "--sweep", "m", "--values", "0..3", "--trials", "20",
    )
    assert code == 0, err
    assert [int(row["m"]) for row in parse_csv(out)] == [0, 1, 2, 3]


def test_sweep_rejects_register_past_cap(capsys):
    # An N sweep runs every size up to 2**62 and stops at the first past it.
    code, out, err = run_cli(
        capsys, "sweep", "--m-count", "1", "--shots", "64", "--sweep", "N",
        "--values", f"16,{2**25},{2**62},{2**63}", "--trials", "4",
    )
    assert code == 2
    assert out == ""
    assert err == f"error: universe_size must be at most 2**62, got N={2**63}\n"
    code, out, err = run_cli(
        capsys, "sweep", "--m-count", "1", "--shots", "64", "--sweep", "N",
        "--values", f"16,{2**25},{2**62}", "--trials", "4",
    )
    assert code == 0, err
    assert [row["N"] for row in parse_csv(out)] == ["16", str(2**25), str(2**62)]


# Keyed by test id, so that editing or inserting a row renames no other.  A
# new row's id is its argv joined by spaces; the rows below keep the ids
# they were first collected under.
INVALID_INPUTS = {
    "argv0-must lie in [0, 16)": (["search", "--marked", "3,16"], "must lie in [0, 16)"),
    "argv1-must lie in [0, 16)": (["search", "--marked", "-1"], "must lie in [0, 16)"),
    "argv2-must be distinct": (["search", "--marked", "3,3"], "must be distinct"),
    "argv3-must be distinct": (
        ["sweep", "--marked", "3,3", "--sweep", "m", "--values", "1..1"],
        "must be distinct"),
    "argv4-a_th must satisfy 0 <= a_th <= 1/M = 1.0, got 1.5": (
        ["plan", "--a-th", "1.5"],
        "a_th must satisfy 0 <= a_th <= 1/M = 1.0, got 1.5"),
    "argv5-a_th must satisfy 0 <= a_th <= 1/M = 1.0, got -0.1": (
        ["search", "--a-th", "-0.1"],
        "a_th must satisfy 0 <= a_th <= 1/M = 1.0, got -0.1"),
    "argv6-a_th must satisfy 0 <= a_th <= 1/M = 0.5, got 0.75": (
        ["sweep", "--m-count", "2", "--a-th", "0.75", "--sweep", "m", "--values", "1..1"],
        "a_th must satisfy 0 <= a_th <= 1/M = 0.5, got 0.75"),
    "argv7-sigma must be a finite number >= 0": (
        ["search", "--sigma", "nan"],
        "sigma must be a finite number >= 0"),
    "argv8-sigma must be a finite number >= 0": (
        ["search", "--sigma", "inf"],
        "sigma must be a finite number >= 0"),
    "argv9-sigma must be a finite": (
        ["sweep", "--sigma", "nan", "--sweep", "m", "--values", "1..1"],
        "sigma must be a finite"),
    "argv10-sigma must be a finite": (
        ["sweep", "--sigma", "inf", "--sweep", "m", "--values", "1..1"],
        "sigma must be a finite"),
    "argv11-sigma must be a finite number >= 0": (
        ["plan", "--sigma", "-0.1"],
        "sigma must be a finite number >= 0"),
    # The rules below are checked by the library alone; a second --n
    # overrides the default 16.
    "argv12-power of two >= 2, got N=1": (["plan", "--n", "1"], "power of two >= 2, got N=1"),
    "argv13-power of two >= 2, got N=17": (["plan", "--n", "17"], "power of two >= 2, got N=17"),
    "argv14-power of two >= 2, got N=1": (["search", "--n", "1"], "power of two >= 2, got N=1"),
    "argv15-power of two >= 2, got N=17": (["search", "--n", "17"], "power of two >= 2, got N=17"),
    "argv16-power of two >= 2, got N=1": (
        ["sweep", "--n", "1", "--sweep", "m", "--values", "1..1"],
        "power of two >= 2, got N=1"),
    "argv17-power of two >= 2, got N=17": (
        ["sweep", "--n", "17", "--sweep", "m", "--values", "1..1"],
        "power of two >= 2, got N=17"),
    "argv18-power of two >= 2, got N=17": (
        ["sweep", "--sweep", "N", "--values", "17"],
        "power of two >= 2, got N=17"),
    "argv19-1 <= M < N, got M=0, N=16": (["plan", "--m-count", "0"], "1 <= M < N, got M=0, N=16"),
    "argv20-1 <= M < N, got M=16, N=16": (
        ["search", "--m-count", "16"],
        "1 <= M < N, got M=16, N=16"),
    "argv21-1 <= M < N, got M=16": (
        ["sweep", "--m-count", "16", "--sweep", "m", "--values", "1..1"],
        "1 <= M < N, got M=16"),
    "argv22-shots must be >= 0, got -1": (
        ["search", "--shots", "-1"],
        "shots must be >= 0, got -1"),
    "argv23-shots must be >= 0, got -1": (
        ["sweep", "--sweep", "shots", "--values=-1"],
        "shots must be >= 0, got -1"),
    "argv24-seed must be a 64-bit unsigned integer, got -1": (
        ["search", "--seed", "-1"],
        "seed must be a 64-bit unsigned integer, got -1"),
    "argv25-seed must be a 64-bit unsigned integer, got 18446744073709551616": (
        ["plan", "--seed", str(2**64)],
        f"seed must be a 64-bit unsigned integer, got {2**64}"),
    "argv26-trials must be >= 1": (
        ["sweep", "--trials", "0", "--sweep", "m", "--values", "1..1"],
        "trials must be in 1..1000000, got 0"),
    "argv27-trials must be >= 1": (
        ["sweep", "--shots", "64", "--trials", "0", "--sweep", "m", "--values", "1..1"],
        "trials must be in 1..1000000, got 0"),
    "argv28-iterations must be >= 0, got -1": (
        ["sweep", "--sweep", "m", "--values=-1..0"],
        "iterations must be >= 0, got -1"),
    "argv29-1 <= M < N, got M=20, N=16": (
        ["sweep", "--n", "64", "--m-count", "20", "--sweep", "N", "--values=16,32"],
        "1 <= M < N, got M=20, N=16"),
    "argv30-a_th must satisfy 0 <= a_th <= 1/M = 1.0, got nan": (
        ["plan", "--a-th", "nan"],
        "a_th must satisfy 0 <= a_th <= 1/M = 1.0, got nan"),
    "argv31-a_th must satisfy 0 <= a_th <= 1/M = 1.0, got nan": (
        ["search", "--a-th", "nan"],
        "a_th must satisfy 0 <= a_th <= 1/M = 1.0, got nan"),
    "argv32-a_th must satisfy 0 <= a_th <= 1/M = 1.0, got inf": (
        ["plan", "--a-th", "inf"],
        "a_th must satisfy 0 <= a_th <= 1/M = 1.0, got inf"),
    "argv33-a_th must satisfy 0 <= a_th <= 1/M = 1.0, got inf": (
        ["sweep", "--a-th", "inf", "--sweep", "m", "--values", "1..1"],
        "a_th must satisfy 0 <= a_th <= 1/M = 1.0, got inf"),
    "argv34-trials must be in 1..1000000, got 1000001": (
        ["sweep", "--shots", "64", "--trials", "1000001", "--sweep", "m", "--values", "1..1"],
        "trials must be in 1..1000000, got 1000001"),
    # N = 2**62 cannot double, and 2M >= N needs M >= 2**61: past MAX_MARKED.
    f"search --n {2**62} --m-count {2**61}": (
        ["search", "--n", str(2**62), "--m-count", str(2**61)],
        f"a marked set holds at most 65536 locations, got {2**61}"),
}


@pytest.mark.parametrize("argv, message", list(INVALID_INPUTS.values()),
                         ids=list(INVALID_INPUTS))
def test_invalid_input_exits_two_with_empty_stdout(capsys, argv, message):
    code, out, err = run_cli(capsys, argv[0], "--n", "16", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


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
    # the share of trials whose readout decides.  Each row's 64 ones are
    # then Binomial(64, 1/2), undecided only at a tie (chance 0.0993), so
    # over 4,000 trials every rate lies within 5 standard errors (plus
    # three errors) of 0.9007.  Power: scoring ties as errors moves a rate
    # by 21 standard errors.
    locations = (1, 3, 5, 7, 9, 11, 13, 15)
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "16", "--marked", ",".join(map(str, locations)),
        "--a-th", "0.05", "--shots", "64", "--sweep", "m", "--values", "1..4",
        "--trials", "4000",
    )
    assert code == 0
    rows = parse_csv(out)
    assert [row["A_m"] for row in rows] == ["0"] * 4
    tie = math.comb(64, 32) / 2**64
    spread = math.sqrt(4000 * tie * (1 - tie))
    for row in rows:
        errors = round(float(row["ev_sign_error_rate"]) * 4000)
        assert abs(errors - 4000 * (1 - tie)) <= 5 * spread + 3


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
    for command in ("plan", "search"):
        with pytest.raises(SystemExit) as excinfo:
            main([command])  # --n is required
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
