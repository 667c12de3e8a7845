"""Tests of the benchmark itself: seeded inputs, the checker, exact counts.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import ast
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from grover_ev import cli, core, filtering, measurement, planner  # noqa: E402

MODULES = dict(cli=cli, core=core, measurement=measurement, planner=planner, filtering=filtering)


def _smallest(workload, count, seed=3):
    """The ``count`` cheapest ops of a workload's pass (smallest --n first)."""
    ops = workloads.generate(workload, seed)
    return sorted(ops, key=lambda argv: int(argv[argv.index("--n") + 1]))[:count]


def _output(argv):
    rc, stdout, error = run.run_op(cli.main, argv)
    assert error is None and rc == 0
    return stdout


def test_same_seed_same_ops_and_digest():
    for workload in workloads.WORKLOADS:
        ops = workloads.generate(workload, 11)
        assert ops == workloads.generate(workload, 11)
        assert workloads.digest(ops) == workloads.digest(workloads.generate(workload, 11))
        assert workloads.digest(ops) != workloads.digest(workloads.generate(workload, 12))
        # p90 needs ten samples beyond it, so a pass holds at least 100 ops.
        assert len(ops) >= 100


def test_digest_is_stable_across_processes():
    code = ("import sys, workloads; "
            "print(workloads.digest(workloads.generate('search-multi', 4)))")
    env = dict(os.environ, PYTHONHASHSEED="123")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == workloads.digest(workloads.generate("search-multi", 4))


def test_marked_sets_are_distinct_and_in_range():
    for workload in ("search-single", "search-multi", "sweep"):
        for argv in workloads.generate(workload, 2):
            n = int(argv[argv.index("--n") + 1])
            marked = [int(x) for x in argv[argv.index("--marked") + 1].split(",")]
            assert len(set(marked)) == len(marked)
            assert all(0 <= x < n for x in marked)


def test_checker_uses_no_grover_ev_code():
    with open(os.path.join(HERE, "checker.py")) as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.startswith("grover_ev") for name in imported)


def test_checker_accepts_search_and_rejects_corruption():
    argv = _smallest("search-multi", 1)[0]
    stdout = _output(argv)
    reason, (runs, queries) = checker.check(argv, 0, stdout)
    assert reason is None and runs >= 8 and queries > runs

    assert checker.check(argv, 1, stdout)[0] == "exit code 1"
    payload = json.loads(stdout)
    marked = payload["config"]["marked"]
    wrong = next(x for x in range(256) if x not in marked)
    for field, value in (("location", wrong), ("verified", False),
                         ("bits", payload["result"]["bits"][::-1] + [0])):
        bad = json.loads(stdout)
        bad["result"][field] = value
        assert checker.check(argv, 0, json.dumps(bad))[0] is not None, field


def test_checker_accepts_plan_and_rejects_off_by_one():
    argv = _smallest("plan", 1)[0]
    stdout = _output(argv)
    assert checker.check(argv, 0, stdout)[0] is None
    for delta in (-1, 1):
        bad = json.loads(stdout)
        bad["plan"]["m_trunc"] += delta
        assert checker.check(argv, 0, json.dumps(bad))[0] is not None


def test_checker_accepts_sweep_and_rejects_corruption():
    for argv in _smallest("sweep", 18):
        stdout = _output(argv)
        assert checker.check(argv, 0, stdout)[0] is None, argv
    lines = stdout.splitlines()
    fields = lines[1].split(",")
    a_m = checker.CSV_COLUMNS.index("A_m")
    rate = checker.CSV_COLUMNS.index("ev_sign_error_rate")
    corruptions = [
        [lines[0].replace("A_m", "A"), *lines[1:]],
        lines[:-1],
        [lines[0], ",".join(fields[:a_m] + [repr(float(fields[a_m]) + 1e-9)] + fields[a_m + 1:]),
         *lines[2:]],
        [lines[0], ",".join(fields[:rate] + ["1.5"] + fields[rate + 1:]), *lines[2:]],
        [lines[0], *lines[2:], lines[1]],
    ]
    for bad in corruptions:
        assert checker.check(argv, 0, "\n".join(bad) + "\n")[0] is not None, bad


def test_exact_counts_repeat_bit_for_bit():
    ops = _smallest("search-multi", 6) + _smallest("plan", 3) + _smallest("sweep", 3)
    results = []
    for _ in range(2):
        trace = tracer.Tracer()
        trace.install(**MODULES)
        try:
            outcomes = [trace.run_op(i, run.run_op, cli.main, argv) for i, argv in enumerate(ops)]
        finally:
            trace.uninstall()
        failures, costs = run.check_all(ops, outcomes)
        assert failures == []
        counts = {k: v for k, v in trace.layer_metrics().items() if _is_count(k)}
        results.append((costs, counts))
    assert results[0] == results[1]
    assert results[0][1]["filtering.runs"] > 0 and results[0][1]["planner.attenuation.calls"] > 0
    assert cli.extract_location is filtering.extract_location  # wrappers removed


def _is_count(name):
    return not (name.endswith(".s") or name.endswith(".self_s"))


def test_self_time_subtracts_union_of_children():
    trace = tracer.Tracer()
    trace.spans = [
        (1, 0, "cli.main", 0.0, 10.0, 0),
        (2, 1, "measurement.sign_error_rate", 1.0, 5.0, 0),  # two worker threads
        (3, 1, "measurement.sign_error_rate", 2.0, 6.0, 0),  # overlap in time
        (4, 2, "measurement.exact_ev", 1.0, 2.0, 0),
    ]
    own = trace.self_times()
    assert own == {1: 5.0, 2: 3.0, 3: 4.0, 4: 1.0}
    assert trace.layer_metrics()["cli.main.self_s"] == 5.0


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "plan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
