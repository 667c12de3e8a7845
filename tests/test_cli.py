"""Command-line harness: plan/search/sweep, exit codes, reproducibility."""

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from conftest import record_generators

import grover_ev
from grover_ev import cli, core, measurement
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
        "--a-th", "0", "--shots", "2", "--seed", "20", "--m", "1",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "search-failure"
    assert payload["reason"] == "exhausted"
    assert payload["total_runs"] >= 3


def test_search_budget_failure_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--n", "256", "--marked", "77",
        "--a-th", "0.1", "--shots", "2", "--seed", "15",
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

    def refuse(*args, **kwargs):
        raise AssertionError("the search read a run")

    for name in ("stream", "_read", "_read_one"):
        monkeypatch.setattr(measurement, name, refuse)
    assert run_cli(capsys, *argv, "--shots", "4096") == (2, "", message)


@pytest.mark.parametrize("argv", [
    ["search", "--n", "1024", "--marked", "5", "--shots"],
    ["sweep", "--n", "1024", "--marked", "5", "--sweep", "shots", "--values"],
], ids=["search", "sweep-row"])
@pytest.mark.parametrize("shots", [2**63, 10**19])
def test_shots_past_a_64_bit_count_exit_two(capsys, argv, shots):
    # numpy draws each count as a signed 64-bit integer, so 2^63 shots or
    # more are rejected as input, in a search or in a sweep row, before any
    # draw.
    message = f"error: shots must be below 2**63, got {shots}\n"
    assert run_cli(capsys, *argv, str(shots)) == (2, "", message)


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
    # 2M >= N is planned on 2N labels, and N = 2**62 cannot double: make_plan
    # says so before a search draws its marked set.
    f"search --n {2**62} --m-count {2**61}": (
        ["search", "--n", str(2**62), "--m-count", str(2**61)],
        "2M >= N is read on 2N labels, and 2N = 2**63 is past 2**62"),
    f"plan --n {2**62} --m-count {2**61}": (
        ["plan", "--n", str(2**62), "--m-count", str(2**61)],
        "2M >= N is read on 2N labels, and 2N = 2**63 is past 2**62"),
    # Locations are checked on the database, [0, N), before the set is placed
    # on the 2N labels that 2M >= N reads: the register widens no range.
    "search --n 8 --marked 1,2,3,4,9": (
        ["search", "--n", "8", "--marked", "1,2,3,4,9"],
        "marked locations must lie in [0, 8): (1, 2, 3, 4, 9)"),
    "sweep --n 8 --marked 1,2,3,4,9": (
        ["sweep", "--n", "8", "--marked", "1,2,3,4,9", "--sweep", "m", "--values", "1"],
        "marked locations must lie in [0, 8): (1, 2, 3, 4, 9)"),
    # plan draws no location, but an explicit list is checked as search
    # checks it.
    "plan --marked 1,1": (["plan", "--marked", "1,1"], "must be distinct: (1, 1)"),
    "plan --marked 99": (["plan", "--marked", "99"], "must lie in [0, 16): (99,)"),
    # The plan CSV reads A_m at --m through the checking attenuation.
    "plan --format csv --m -1": (
        ["plan", "--format", "csv", "--m", "-1"],
        "iterations must be >= 0, got -1"),
}


@pytest.mark.parametrize("argv, message", list(INVALID_INPUTS.values()),
                         ids=list(INVALID_INPUTS))
def test_invalid_input_exits_two_with_empty_stdout(capsys, argv, message):
    code, out, err = run_cli(capsys, argv[0], "--n", "16", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


# Every (N, M) with 2M >= N at N <= 16: the register doubles to 2N.
HALF_OR_MORE = [(n, m_count) for n in (2, 4, 8, 16) for m_count in range(n // 2, n)]


@pytest.mark.parametrize("n, m_count", HALF_OR_MORE)
def test_half_or_more_marked_commands_read_one_register(capsys, n, m_count):
    # plan, search and sweep read the register make_plan names, at every
    # threshold from exact to the tolerance 1/M: the first m a search runs
    # at lies in 1..m_stand, and each sweep row up to m_stand reads that
    # register's positive attenuation.
    for a_th in (0.0, 1e-9, 1.0 / (2 * m_count), 1.0 / m_count):
        plan = grover_ev.make_plan(n, m_count, a_th)
        assert plan.N == 2 * n and plan.m_stand >= 1, (a_th, plan)
        iterations = grover_ev.planner.search_iterations(plan)
        assert 1 <= iterations <= plan.m_stand, (a_th, plan)
        flags = ["--n", str(n), "--m-count", str(m_count), "--a-th", repr(a_th)]
        code, out, _ = run_cli(capsys, "plan", *flags)
        assert code == 0 and json.loads(out)["plan"] == plan.to_json_dict()
        code, out, _ = run_cli(capsys, "search", *flags)
        assert code == 0 and json.loads(out)["config"]["m"] == iterations, (a_th, out)
        code, out, _ = run_cli(
            capsys, "sweep", *flags, "--sweep", "m", "--values", f"1..{plan.m_stand}",
            "--trials", "1",
        )
        assert code == 0
        for m, row in enumerate(parse_csv(out), start=1):
            a_m = grover_ev.attenuation(plan.N, m_count, m)
            assert row["N"] == str(2 * n) and row["m_stand"] == str(plan.m_stand)
            assert row["A_m"] == f"{a_m:.12g}" and a_m > 0, (a_th, row)


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
    # At M/N = 1/4 every label weighs the same at m = 0, 2, 3 and 5 (m not
    # 1 mod 3), so A_m and the exact EVs are exactly 0 and no trial has a
    # sign to get right: a row's rate is the share of trials whose readout
    # decides.  Each row's 64 ones are then Binomial(64, 1/2), undecided
    # only at a tie (chance 0.0993), so over 4,000 trials every rate lies
    # within 5 standard errors (plus three errors) of 0.9007.  Power:
    # scoring ties as errors moves a rate by 21 standard errors.
    locations = (2, 7, 8, 13)
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "16", "--marked", ",".join(map(str, locations)),
        "--a-th", "0.05", "--shots", "64", "--sweep", "m", "--values", "0,2,3,5",
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


def test_sweep_rows_echo_the_sign_of_a_zero_threshold(capsys):
    # 0.0 == -0.0, so a plan shared by both would print one sign twice.
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "1024", "--marked", "5", "--shots", "64",
        "--sweep", "a_th", "--values", "0.0,-0.0,0.1", "--trials", "3",
    )
    assert code == 0
    rows = parse_csv(out)
    assert [row["a_th"] for row in rows] == ["0", "-0", "0.1"]
    assert [row["m_trunc"] for row in rows] == ["1", "1", "5"]


@pytest.mark.parametrize("var, values, calls", [
    ("m", "0..8", 1),
    ("shots", "64,256,1024,4096", 1),
    ("N", "1024,4096,1024,65536", 3),
    ("a_th", "0.1,0.25,0.1,0.0,-0.0,0.0", 4),
])
def test_sweep_plans_once_per_register_and_threshold(capsys, monkeypatch, var, values, calls):
    # Each sweep plans once per distinct (register, signed a_th) and keeps no
    # plan past its call: the same sweep run twice plans twice as often.
    argv = ["sweep", "--n", "1024", "--marked", "5", "--a-th", "0.25", "--shots", "64",
            "--sweep", var, "--values", values, "--trials", "3"]
    code, expected, _ = run_cli(capsys, *argv)
    planned = []
    make_plan = cli.make_plan

    def counting_make_plan(*args):
        planned.append(args)
        return make_plan(*args)

    monkeypatch.setattr(cli, "make_plan", counting_make_plan)
    for run in (1, 2):
        assert run_cli(capsys, *argv)[:2] == (code, expected)
        assert len(planned) == run * calls, planned


@pytest.mark.parametrize("marked, var, values, builds", [
    (["--marked", "5"], "m", "0..8", 1),
    (["--marked", "5"], "shots", "64,256,1024,4096", 1),
    (["--marked", "5"], "a_th", "0.1,0.25,0.1,0.0,-0.0,0.0", 1),
    (["--marked", "5"], "N", "1024,4096,1024,65536", 3),
    # Where 2M >= N a set is checked on the database, then placed on 2N labels.
    (["--n", "8", "--marked", "1,2,3,4,5"], "m", "0..3", 2),
    # A drawn set is drawn once per n, from (seed, DRAW, 0), as a search draws it.
    (["--m-count", "2"], "m", "0..8", 1),
    (["--m-count", "2"], "N", "1024,4096,1024,65536", 3),
])
def test_sweep_builds_an_explicit_marked_set_once_per_register(
    capsys, monkeypatch, marked, var, values, builds
):
    argv = ["sweep", "--n", "1024", *marked, "--a-th", "0.1", "--shots", "64",
            "--sweep", var, "--values", values, "--trials", "3"]
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    built = []
    check = core.MarkedSet.__post_init__

    def counting_post_init(self):
        built.append(self.universe_size)
        check(self)

    monkeypatch.setattr(core.MarkedSet, "__post_init__", counting_post_init)
    for run in (1, 2):
        assert run_cli(capsys, *argv)[:2] == (code, expected)
        assert len(built) == run * builds, built


@pytest.mark.parametrize("seed", ["0", "3", "17", "41"])
@pytest.mark.parametrize("flags", [
    ["--n", "256", "--m-count", "2", "--shots", "128", "--sweep", "a_th",
     "--values", "0.05,0.1,0.25", "--trials", "10"],
    ["--n", "1024", "--m-count", "3", "--sweep", "shots", "--values", "1,3,64,5000",
     "--trials", "37"],
    ["--n", "4096", "--m-count", "4", "--shots", "256", "--sigma", "0.01", "--sweep", "m",
     "--values", "0..5", "--trials", "20"],
    # Where 2M >= N the set is drawn on the database and read on 2N labels.
    ["--n", "8", "--m-count", "5", "--shots", "64", "--sweep", "m", "--values", "0..2",
     "--trials", "9"],
])
def test_a_drawn_sweep_reads_the_set_a_search_prints(capsys, flags, seed):
    # One database per sweep: every row of an m, shots or a_th sweep given
    # --m-count reads the set `search` prints for that --n, --m-count and
    # --seed, so its CSV is the CSV of the same sweep given that set.
    code, drawn, _ = run_cli(capsys, "sweep", *flags, "--seed", seed)
    assert code == 0
    code, out, _ = run_cli(capsys, "search", "--n", flags[1], "--m-count", flags[3],
                           "--seed", seed)
    assert code in (0, 1)
    marked = ",".join(map(str, json.loads(out)["config"]["marked"]))
    code, explicit, _ = run_cli(capsys, "sweep", *flags, "--seed", seed, "--marked", marked)
    assert code == 0
    assert drawn == explicit


@pytest.mark.parametrize("seed", [0, 9, 41])
def test_an_n_sweep_row_reads_the_draw_at_its_size(capsys, monkeypatch, seed):
    # Each row reads draw_marked_set(n, M, seed) at its own size n, placed on
    # the plan's register (8 labels at n = 4, where 2M >= N); a size that
    # comes back reads the same set.
    read = []
    rate = cli.sign_error_rate

    def recording_rate(marked, *args, **kwargs):
        read.append(marked)
        return rate(marked, *args, **kwargs)

    monkeypatch.setattr(cli, "sign_error_rate", recording_rate)
    values = [4, 64, 1024, 4, 64, 2**40]
    code, _, _ = run_cli(capsys, "sweep", "--m-count", "2", "--shots", "64", "--sweep", "N",
                         "--values", ",".join(map(str, values)), "--trials", "3",
                         "--seed", str(seed))
    assert code == 0
    assert len(read) == len(values)
    for n, marked in zip(values, read):
        assert marked.locations == core.draw_marked_set(n, 2, seed).locations
        assert marked.universe_size == grover_ev.make_plan(n, 2, 0.0).N


@pytest.mark.parametrize("flags, features", [
    (["--n", "64", "--marked", "5,9,40", "--shots", "64", "--sweep", "m", "--values", "0..12"],
     {"past"}),
    # 2M >= N: the set is read on 2N labels, and m = 2 is past the crossing there.
    (["--n", "4", "--marked", "0,1,2", "--shots", "64", "--sweep", "m", "--values", "0..4"],
     {"doubled", "past"}),
    (["--marked", "1,2", "--m", "2", "--shots", "64", "--sweep", "N",
      "--values", f"4,8,1024,{2**40}"], {"doubled"}),
    (["--n", "256", "--marked", "3,77", "--shots", "64", "--sweep", "a_th",
      "--values", "0,0.01,0.1,0.5"], set()),
    (["--n", "1024", "--marked", "5", "--m", "50", "--sweep", "shots", "--values", "0,64,4096"],
     {"past"}),
], ids=["m", "m-2N", "N", "a_th", "shots"])
def test_a_sweep_row_prints_the_attenuation_its_trials_read(capsys, monkeypatch, flags, features):
    # Each row's trials read one two-amplitude state, class_state of the
    # row's set on the plan's register at the row's m, and the row's A_m
    # column is that state's attenuation as the CSV writes a float.
    read = []
    build = measurement.class_state

    def recording_state(marked, iterations):
        state = build(marked, iterations)
        read.append((marked, iterations, state))
        return state

    monkeypatch.setattr(measurement, "class_state", recording_state)
    code, out, _ = run_cli(capsys, "sweep", *flags, "--trials", "5", "--seed", "3")
    assert code == 0
    rows = parse_csv(out)
    assert len(read) == len(rows)
    marked = [int(x) for x in flags[flags.index("--marked") + 1].split(",")]
    values = flags[flags.index("--values") + 1].split(",")
    seen = set()
    for i, (row, (row_set, m, state)) in enumerate(zip(rows, read)):
        n = int(values[i]) if "N" in flags else int(flags[flags.index("--n") + 1])
        register = 2 * n if 2 * len(marked) >= n else n
        assert (row_set.universe_size, len(marked), m) == (register, int(row["M"]), int(row["m"]))
        assert int(row["N"]) == register and row_set.locations == tuple(marked)
        assert row["A_m"] == f"{state.attenuation:.12g}"
        on_register = build(grover_ev.MarkedSet(marked, register), m)
        assert row["A_m"] == f"{on_register.attenuation:.12g}"
        seen |= {"past"} if state.attenuation < 0 else set()
        seen |= {"doubled"} if register > n else set()
    assert seen == features


@pytest.mark.parametrize("var, values, message", [
    ("a_th", "0.1,2.0", "error: a_th must satisfy 0 <= a_th <= 1/M = 1.0, got 2.0\n"),
    ("a_th", "0.1,nan", "error: a_th must satisfy 0 <= a_th <= 1/M = 1.0, got nan\n"),
    ("N", "1024,1000", "error: universe_size must be a power of two >= 2, got N=1000\n"),
])
def test_sweep_row_whose_plan_fails_exits_two(capsys, var, values, message):
    code, out, err = run_cli(
        capsys, "sweep", "--n", "1024", "--marked", "5", "--a-th", "0.25",
        "--sweep", var, "--values", values, "--trials", "3",
    )
    assert (code, out, err) == (2, "", message)


def test_sweep_row_whose_model_fails_exits_two_before_any_output(capsys, monkeypatch):
    # Row 0 reads its rate; row 1's model then fails its shot check, and the
    # whole sweep exits 2 with no CSV line and no audit line.
    rated = []
    rate = cli.sign_error_rate

    def counting_rate(*args, **kwargs):
        rated.append(args[3].shots)
        return rate(*args, **kwargs)

    monkeypatch.setattr(cli, "sign_error_rate", counting_rate)
    code, out, err = run_cli(capsys, "sweep", "--n", "1024", "--marked", "5",
                             "--sweep", "shots", "--values", "64,-1")
    assert (code, out, err) == (2, "", "error: shots must be >= 0, got -1\n")
    assert rated == [64]


def _field(value) -> str:
    """A CSV field as the CSV form writes it: None empty, a float by
    ``:.12g``, an int by ``str``."""
    if value is None:
        return ""
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _row_fields(plan, m, rate, seed) -> tuple:
    """A CSV row's fields in ``CSV_COLUMNS`` order, from the library alone."""
    return (plan.N, plan.M, m, plan.a_th, grover_ev.attenuation(plan.N, plan.M, m),
            plan.m_stand, plan.m_trunc, plan.m_trunc_estimate, rate, seed)


@pytest.mark.parametrize("argv", [
    ["--n", "1024", "--marked", "5,77", "--shots", "256", "--sweep", "m", "--values", "0..4"],
    ["--n", "1024", "--marked", "37", "--a-th", "0.25", "--sweep", "shots",
     "--values", "0,1,64,4096"],
    # At 2 or 4 shots many counts tie, and the noise alone decides those reads.
    ["--n", "256", "--m-count", "3", "--shots", "2", "--sigma", "0.01",
     "--sweep", "m", "--values", "0..3"],
    ["--n", "256", "--marked", "9", "--shots", "4", "--sigma", "0.01", "--m", "3",
     "--sweep", "a_th", "--values", "0.1,0.0,-0.0,0.5"],
    # 2M >= N at N = 4: that row is read on 8 labels.
    ["--marked", "1,2,3", "--shots", "64", "--sweep", "N", "--values", "4,8,16,4"],
    ["--m-count", "2", "--shots", "64", "--sigma", "0.01", "--sweep", "N",
     "--values", "4,8,64"],
    # A range gives integer thresholds, 0 and 1, each written by str.
    ["--n", "16", "--marked", "3", "--shots", "64", "--sweep", "a_th", "--values", "0..1"],
])
def test_each_sweep_row_is_the_public_calls_on_its_seed(capsys, argv):
    # Every CSV row is rebuilt from the library: the plan on (n, M, a_th),
    # the set (drawn from stream (seed, DRAW, 0)) placed on the plan's
    # register, the rate of a model with the row's shots and seed XOR i read
    # from its row's stream, row=i, and A_m at 12 significant digits.
    argv = [*argv, "--trials", "7", "--seed", "41"]
    code, out, _ = run_cli(capsys, "sweep", *argv)
    assert code == 0
    args = cli._parse(["sweep", *argv])
    config, model = cli._resolve_config(args)
    values = cli._parse_sweep_values(args.sweep_var, args.values)
    rows = parse_csv(out)
    assert len(rows) == len(values)
    var = args.sweep_var
    for i, (value, row) in enumerate(zip(values, rows)):
        seed = 41 ^ i
        n = value if var == "N" else config["n"]
        a_th = value if var == "a_th" else config["a_th"]
        plan = grover_ev.make_plan(n, config["m_count"], a_th)
        chosen = (grover_ev.MarkedSet(config["marked"], n) if config["marked"] is not None
                  else core.draw_marked_set(n, config["m_count"], 41))
        marked = grover_ev.MarkedSet(chosen.locations, plan.N)
        m = value if var == "m" else config["m"] if config["m"] is not None else plan.m_trunc
        shots = value if var == "shots" else model.shots
        readout = grover_ev.EnsembleModel(shots, seed, model.gaussian_noise_sigma)
        rate = grover_ev.sign_error_rate(marked, m, 1, readout, trials=7, row=i)
        expected = _row_fields(plan, m, rate, seed)
        assert [row[c] for c in CSV_COLUMNS] == [_field(f) for f in expected], (i, row)


def test_rows_that_share_a_csv_seed_draw_apart(capsys):
    # Row 1 at --seed 0 and row 0 at --seed 1 both print seed 1 (seed XOR i),
    # but they read the streams (1, ROW, 1) and (1, ROW, 0), so their rates
    # differ.  When each row drew from default_rng(seed XOR i) they were one
    # stream and printed one rate.
    argv = ["sweep", "--n", "1024", "--marked", "5", "--shots", "64", "--sweep", "m",
            "--values", "0,0", "--trials", "1000"]
    _, first, _ = run_cli(capsys, *argv, "--seed", "0")
    _, second, _ = run_cli(capsys, *argv, "--seed", "1")
    row_one, row_zero = parse_csv(first)[1], parse_csv(second)[0]
    assert row_one["seed"] == row_zero["seed"] == "1"
    assert row_one["ev_sign_error_rate"] != row_zero["ev_sign_error_rate"]


@pytest.mark.parametrize("argv, rows", [
    (["--shots", "256", "--sweep", "m", "--values", "0..8"], range(9)),
    (["--sigma", "0.01", "--sweep", "m", "--values", "0..8"], range(9)),
    (["--sweep", "m", "--values", "0..8"], []),
    # Only the sampled rows of a shots sweep re-key; all-exact ones build none.
    (["--sweep", "shots", "--values", "0,64,0,256"], [1, 3]),
    (["--sweep", "shots", "--values", "0,0"], []),
])
def test_a_sweep_builds_one_generator_and_rekeys_it_per_row(monkeypatch, capsys, argv, rows):
    # A sampled sweep builds one generator and moves it to row i's stream
    # (seed XOR i, ROW, i) before that row draws; each rate of an m sweep is
    # the one sign_error_rate reads from a stream of its own.  Exact,
    # noiseless rows read no stream, so a sweep of them builds none.
    argv = ["sweep", "--n", "1024", "--marked", "5,77", *argv, "--trials", "20", "--seed", "41"]
    _, expected, _ = run_cli(capsys, *argv)
    built = record_generators(monkeypatch)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == expected
    if not rows:
        assert built == []
        return
    (rng,) = built
    assert rng.key == (41, core.ROW, 0)
    assert rng.rekeys == [(41 ^ i, core.ROW, i) for i in rows]
    args = cli._parse(argv)
    config, model = cli._resolve_config(args)
    if args.sweep_var == "m":
        marked = cli._marked_set(1024, 1024, config)
        for i, row in enumerate(parse_csv(out)):
            readout = grover_ev.EnsembleModel(model.shots, 41 ^ i, model.gaussian_noise_sigma)
            rate = measurement.sign_error_rate(marked, i, 1, readout, trials=20, row=i)
            assert float(row["ev_sign_error_rate"]) == rate


# ------------------------------------------------------- whole command lines

def _result(out):
    return json.loads(out)["result"]


def _plan(out):
    return json.loads(out)["plan"]


def _rates(out):
    return [float(row["ev_sign_error_rate"]) for row in parse_csv(out)]


def _shell_lines(out):
    """The count that ``printf '%s\\n' "$(command)" | wc -l`` gives."""
    return len(out.rstrip("\n").split("\n"))


# Each command line, keyed by the line itself, with its exit code, a reader
# of its stdout and a condition on what the reader returns (None: the exit
# code alone).
COMMAND_LINES = {
    "search --n 256 --marked 3,77,200 --shots 1024 --seed 1": (
        0, _result, lambda r: r["total_runs"] == 8),
    # The two-amplitude path runs at every N a plan takes, up to 2^62.
    f"search --n {2**62} --m-count 4": (0, _result, lambda r: r["total_runs"] == 62),
    f"search --n {2**62} --m-count 4 --shots 4096 --seed 1": (
        0, _result, lambda r: r["total_runs"] == 62),
    # 2^16 marked labels at L = 62: the keys are sorted once and each stage
    # reads its correlated run off three bisections of them.
    f"search --n {2**62} --m-count 65536": (
        0, _result,
        lambda r: r["total_runs"] == 62 and len(r["bits"]) == 62 and r["verified"] is True),
    # A noisy sampled search draws every run from one generator and still
    # takes L runs.
    "search --n 16777216 --m-count 4 --shots 4096 --sigma 0.01 --seed 3": (
        0, _result, lambda r: r["total_runs"] == 24),
    # A sampled search that backtracks through failed candidates, then
    # verifies a location.
    "search --n 16 --marked 9 --a-th 0 --shots 2 --seed 9 --m 1": (
        0, _result,
        lambda r: (r["total_runs"], r["branch_events"], r["oracle_invocations"]) == (8, 5, 13)),
    f"sweep --m-count 1 --shots 64 --sweep N --values 16,{2**62} --trials 4": (0, None, None),
    # A sweep plans once per register and signed a_th: each threshold keeps
    # its own m_trunc, and a -0.0 row still prints -0.
    "sweep --n 1024 --marked 5 --shots 64 --sweep a_th --values 0.1,0.5 --trials 3": (
        0, parse_csv, lambda rows: len(rows) == 2 and rows[0]["m_trunc"] != rows[1]["m_trunc"]),
    "sweep --n 1024 --marked 5 --shots 64 --sweep a_th --values 0.0,-0.0 --trials 3": (
        0, parse_csv, lambda rows: [r["a_th"] for r in rows] == ["0", "-0"]),
    # A row's trials are binomial counts, whatever the shot count.
    "sweep --n 1024 --m-count 3 --shots 10000 --sweep m --values 0..2 --trials 3": (
        0, _shell_lines, lambda lines: lines == 4),
    "sweep --n 64 --marked 37 --shots 64 --sweep m --values 0..3": (
        0, _shell_lines, lambda lines: lines == 5),
    # A noiseless trial is read off its count.  Qubit 1 of {1, 2} has exact
    # EV 0: at 63 shots no count ties, so every trial errs, and at 64 the
    # ties read 0 and are right.  At 2^63 - 1 shots every count passes 2^62,
    # where 2 c would overflow int64, and each still reads the right sign.
    "sweep --n 1024 --marked 1,2 --sweep shots --values 63,64 --trials 50 --seed 3": (
        0, _rates, lambda r: r[0] == 1 and r[1] < 1),
    f"sweep --n 16 --marked 3 --a-th 0.25 --sweep shots --values {2**63 - 1} --trials 20"
    " --seed 1": (0, _rates, lambda r: r == [0.0]),
    "sweep --m-count 1 --a-th 0.25 --shots 64 --sweep m --values 0..3 --trials 4": (
        2, None, None),
    "sweep --n 1024 --sweep m --values 0..1 --trials 1000001": (2, None, None),
    # Where 2M >= N the search runs on one extra qubit: L + 1 runs, and the
    # result still renders the database's L bits.  plan and sweep read the
    # same 2N labels: N 16, m_stand 1.
    "search --n 8 --m-count 5": (
        0, _result,
        lambda r: r["total_runs"] == 4 and len(r["bits"]) == 3 and r["verified"] is True),
    "plan --n 8 --m-count 5": (0, _plan, lambda p: p["N"] == 16 and p["m_stand"] >= 1),
    "sweep --n 8 --m-count 5 --sweep m --values 1 --shots 64 --trials 3": (
        0, parse_csv,
        lambda rows: len(rows) == 1 and rows[0]["N"] == "16" and float(rows[0]["A_m"]) > 0),
    # An explicit-set N sweep across 2M >= N: at N = 4 the set {1, 2, 3} is
    # read on 8 labels, the register N = 8 reads too.
    "sweep --marked 1,2,3 --shots 64 --sweep N --values 4,8,16 --trials 4 --seed 5": (
        0, parse_csv,
        lambda rows: [(r["N"], r["A_m"]) for r in rows]
        == [("8", "0.75"), ("8", "0.75"), ("16", "0.9375")]),
}

# Wall-clock bounds, in seconds, that a command line must also keep.
COMMAND_LINE_SECONDS = {f"search --n {2**62} --m-count 65536": 30}


@pytest.mark.parametrize("line", list(COMMAND_LINES))
def test_command_line(capsys, line):
    code, read, check = COMMAND_LINES[line]
    started = time.perf_counter()
    result = run_cli(capsys, *line.split())
    elapsed = time.perf_counter() - started
    assert elapsed < COMMAND_LINE_SECONDS.get(line, math.inf), elapsed
    assert result[0] == code, result
    assert check is None or check(read(result[1])), result


# ------------------------------------------------------------- output routing

def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "plan.json"
    code, out, _ = run_cli(
        capsys, "plan", "--n", "16", "--a-th", "0.25", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["plan"]["m_trunc"] == 1


@pytest.mark.parametrize("argv", [
    ["plan", "--n", "1024", "--m-count", "2", "--a-th", "0.25"],
    ["plan", "--n", "1024", "--m-count", "2", "--a-th", "0.25", "--format", "csv"],
    ["search", "--n", "256", "--marked", "3,77,200", "--shots", "1024", "--seed", "1"],
    ["sweep", "--n", "64", "--marked", "37", "--shots", "64", "--sweep", "m",
     "--values", "0..3", "--trials", "5"],
], ids=["plan-json", "plan-csv", "search", "sweep"])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    # The file ends in the same one newline as stdout; only the echoed
    # "out" setting differs.
    target = tmp_path / "out.txt"
    code, printed, _ = run_cli(capsys, *argv)
    assert code == 0 and printed.endswith("\n") and not printed.endswith("\n\n")
    code, out, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and out == ""
    echoed = f'"out": {json.dumps(str(target))}'
    assert target.read_text() == printed.replace('"out": null', echoed)


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


DISPATCH_ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["PLAN"], ["--", "plan", "--n", "16"],
    ["plan", "-h"], ["search", "--n", "16", "-h", "--zz"],
    ["plan", "--n", "16", "--fo", "csv"], ["plan", "--n", "16", "--he"], ["plan", "--n=16"],
    ["plan", "--n", "16", "--bogus"], ["search", "--n", "16", "stray"],
    ["plan", "--n", "16", "-x"], ["plan", "--n", "16", "--", "--m", "3"],
    ["plan", "--n", "x"], ["plan", "--n", "16", "--format", "xml"],
    ["plan"], ["sweep", "--n", "16"], ["plan", "--n", "16", "--seed", "-3"],
    ["plan", "--n", "16", "plan"], ["search"],
    ["sweep", "--n", "16", "--sweep", "m", "--values", "0..2", "--bogus", "1"],
    ["frobnicate"], ["plan", "--help"], ["sweep", "--n", "16", "--sweep", "m"],
    PLAN_ARGV, SEARCH_ARGV, SWEEP_ARGV,
]

# What some of these argvs must give: the exit code, stdout (None: not
# checked) and a pattern that stderr's last line must match in full (None:
# not checked).  argparse words the choices in --format xml's error
# differently across Python versions, so only the start of that line is fixed.
CONSOLE_USAGE = {
    "--help": (0, None, None),
    "plan --help": (0, None, None),
    "frobnicate": (2, "", None),
    "plan --n 16 --bogus": (2, "", "grover-ev: error: unrecognized arguments: --bogus"),
    "plan --n 16 --format xml": (
        2, "", "grover-ev plan: error: argument --format: invalid choice: 'xml'.*"),
    "sweep --n 16 --sweep m": (
        2, "", "grover-ev sweep: error: the following arguments are required: --values"),
}


def _parsed(capsys, parse, argv):
    """(exit code, stdout, stderr, namespace dict) of one parse."""
    try:
        result = (0, vars(parse(list(argv))))
    except SystemExit as exc:
        result = (exc.code, None)
    captured = capsys.readouterr()
    return result[0], captured.out, captured.err, result[1]


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=lambda argv: " ".join(argv) or "empty")
def test_command_dispatch_parses_as_the_full_parser(capsys, argv):
    # main reads an argv of a command word and exact --flag value pairs off
    # that command's pair table, and gives every other argv to the top-level
    # parser: help, usage and error text, exit code and the namespace must be
    # what the top-level parse_args gives on this Python.
    dispatched = _parsed(capsys, cli._parse, argv)
    full = _parsed(capsys, cli.build_parser().parse_args, argv)
    assert dispatched == full
    assert dispatched[0] in (0, 2)
    checked = CONSOLE_USAGE.get(" ".join(argv))
    if checked:
        code, out, last_line = checked
        assert dispatched[0] == code
        assert out is None or dispatched[1] == out
        assert last_line is None or re.fullmatch(last_line, dispatched[2].splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [argv for argv in DISPATCH_ARGVS if argv[:1] in (["plan"], ["search"], ["sweep"])
     and argv not in (PLAN_ARGV, SEARCH_ARGV, SWEEP_ARGV)],
    ids=" ".join,
)
def test_other_command_argvs_go_to_the_top_level_parser(capsys, monkeypatch, argv):
    # An argv that starts with a command word but is not exact pairs is
    # parsed by the top-level parser, not by the command's parser alone.
    progs = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        progs.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    _parsed(capsys, cli._parse, argv)
    assert progs[:1] == ["grover-ev"]


_ODD_VALUES = ["16", " 16 ", "-1", "-0.0", "", "x", "1e-9", "nan", "résultats/α☃.csv",
               "-h", "--", "--n"]
_GOOD_VALUES = {int: ["16", " 16 ", "1024", "0"], float: ["0.25", "1e-9", "nan", " 16 "],
                str: ["5,37", "0..3", "", "résultats/α☃.csv"]}


@st.composite
def _command_argvs(draw):
    """A command word, then flag and value words: mostly exact ``--flag value``
    pairs of that command, its required flags first, some with values of the
    wrong kind, and some abbreviations, ``--flag=value`` forms, ``-h``, ``--``
    and lone words."""
    word = draw(st.sampled_from(sorted(cli._parser()[1])))
    table = cli._parser()[1][word][0]
    flags = sorted(flag for flag, action in table.items() if action.nargs is None)
    required = [flag for flag in flags if table[flag].required and draw(st.integers(0, 9))]
    extra = draw(st.lists(st.sampled_from(flags + ["--he", "--fo", "--m-c", "--bogus"]),
                          max_size=6))
    argv = [word]
    for flag in required + extra:
        action = table.get(flag)
        good = (list(action.choices) * 2 + ["xml"] if action and action.choices
                else _GOOD_VALUES[action.type if action else str])
        value = draw(st.sampled_from(good * 8 + _ODD_VALUES))
        kind = draw(st.sampled_from(["pair"] * 12 + ["joined", "odd"]))
        if kind == "pair":
            argv += [flag, value]
        elif kind == "joined":
            argv.append(f"{flag}={value}")
        else:
            argv.append(draw(st.sampled_from([flag, value, "-h", "--", "--help"])))
    return argv


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_command_argvs())
@example(["plan", "--n", "16", "--n", "1024"])  # the last duplicate wins
@example(["plan", "--n", "16", "--format", "json", "--format", "xml"])
@example(["sweep", "--n", "16", "--sweep", "m"])
@example(["sweep", "--n", "16", "--sweep", "x", "--values", "1"])
@example(["plan", "--n", "16", "--out", "résultats/α☃.json"])
@example(["plan", "--n", "16", "--seed"])
@example(["plan", "--n", "16", "--marked", "-h"])
@example(["plan", "--n", "16", "--a-th", "nan"])
def test_command_argvs_parse_as_the_full_parser(capsys, argv):
    # An argv of exact --flag value pairs is read off the command's action
    # table, any other goes to argparse: either way the exit code, output and
    # namespace are what the top-level parse_args gives.  The namespaces are
    # compared by repr, so that NaN matches NaN and -0.0 does not match 0.0.
    results = []
    for parse in (cli._parse, cli.build_parser().parse_args):
        *code_out_err, namespace = _parsed(capsys, parse, argv)
        results.append((*code_out_err, repr(sorted((namespace or {}).items()))))
    assert results[0] == results[1]


@pytest.mark.parametrize("argv", [["plan", "--n", 16], ["plan", 16, "16"], ["plan", "--n", None]])
def test_non_string_words_raise_as_the_full_parser(capsys, argv):
    # A word that is not a str goes to argparse, which raises as it would.
    raised = []
    for parse in (cli.build_parser().parse_args, cli._parse):
        with pytest.raises(BaseException) as caught:
            parse(list(argv))
        raised.append((type(caught.value), str(caught.value), capsys.readouterr()))
    assert raised[0] == raised[1]


PAIR_ARGVS = [
    ["plan", "--n", "1073741824", "--m-count", "2", "--a-th", "0.25", "--seed", "11"],
    ["search", "--n", "8192", "--marked", "4242", "--a-th", "0.1", "--shots", "0", "--seed", "7"],
    ["search", "--n", "512", "--marked", "3,77,200", "--shots", "1024", "--seed", "5"],
    ["sweep", "--n", "4096", "--marked", "5,99", "--a-th", "0.25", "--shots", "1024",
     "--sweep", "m", "--values", "0..8", "--trials", "20", "--seed", "3"],
    PLAN_ARGV, SEARCH_ARGV, SWEEP_ARGV,
    pytest.param(["plan", "--n", "1024", "--a-th", "0.25"], id="plan --n 1024 --a-th 0.25"),
]


@pytest.mark.parametrize("argv", PAIR_ARGVS, ids=lambda argv: " ".join(argv[:3]))
def test_exact_pairs_need_no_argparse_parse(capsys, monkeypatch, argv):
    # Every benchmark op is a command word and exact --flag value pairs: main
    # runs it, with the same bytes, when argparse's parse methods cannot run.
    # With its first pair written as one --flag=value word, the argv goes to
    # argparse and still prints those bytes.
    expected = run_cli(capsys, *argv)
    assert run_cli(capsys, argv[0], f"{argv[1]}={argv[2]}", *argv[3:]) == expected

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parse called")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert run_cli(capsys, *argv) == expected


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-2**80, 2**80) | st.floats()
    | st.sampled_from([1e-09, 0.1, -0.0, math.nan, math.inf, -math.inf])
    | st.text() | st.just("r\u00e9sultats/\u03b1\u2603\U0001f600.json")
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_gives_the_indented_dumps_bytes(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("bad", [{1, 2}, np.int64(1), object()])
def test_json_writer_rejects_what_json_rejects(bad):
    for value in (bad, [bad], {"config": {"n": 16, "seed": bad}}, {"a": [1, {"b": bad}]}):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as raised:
            cli._json_text(value)
        assert str(raised.value) == str(expected.value)


def _csv_module_text(rows):
    """The CSV bytes ``csv.writer`` gives for the header and ``rows``, each a
    tuple of fields in ``CSV_COLUMNS`` order written by :func:`_field`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        assert len(row) == len(CSV_COLUMNS)
        writer.writerow([_field(field) for field in row])
    return buffer.getvalue()


@st.composite
def _csv_rows(draw):
    """The arguments of one CSV row as the program writes it: a plan on
    N = 2**L, L in 1..62, with 2M >= N as often as not below L = 62 (where 2N
    would pass 2**62), an a_th in [0, 1/M] (the integers of a range
    included), an m from 0 to past m_stand, a rate or None, and a 64-bit seed."""
    qubits = draw(st.integers(1, 62))
    n = 1 << qubits
    if draw(st.booleans()) and qubits < 62:
        m_count = draw(st.integers(n // 2, n - 1))
    else:
        m_count = draw(st.integers(1, max(1, n // 2 - 1)))
    a_th = draw(st.sampled_from([-0.0, 0.0, 1e-09, 1 / m_count, 0, 1])
                | st.floats(0.0, 1 / m_count))
    assume(a_th <= 1 / m_count)
    plan = grover_ev.make_plan(n, m_count, a_th)
    m = draw(st.integers(0, 2 * plan.m_stand + 2))
    rate = draw(st.none() | st.floats(0.0, 1.0))
    return plan, m, rate, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=400, deadline=None)
@given(st.lists(_csv_rows(), max_size=6))
@example([])  # the header alone
def test_csv_writer_gives_the_csv_module_bytes(rows):
    lines = [cli._csv_row(*row) for row in rows]
    assert cli._csv_text(lines) == _csv_module_text([_row_fields(*row) for row in rows])


@pytest.mark.parametrize("argv", [
    ["--n", "1024", "--a-th", "0.25"],
    ["--n", "1024", "--m-count", "2", "--a-th", "0.25"],
    ["--n", "256", "--marked", "3,77", "--a-th", "0.1", "--m", "5", "--seed", "9"],
    ["--n", str(2**62), "--m-count", "2", "--a-th", "1e-09"],
])
def test_plan_csv_is_the_csv_module_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, "plan", *argv, "--format", "csv")
    assert code == 0
    args = cli._parse(["plan", *argv])
    config, model = cli._resolve_config(args)
    plan = grover_ev.make_plan(config["n"], config["m_count"], config["a_th"])
    m = config["m"] if config["m"] is not None else plan.m_trunc
    assert out == _csv_module_text([_row_fields(plan, m, None, model.seed)])


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
