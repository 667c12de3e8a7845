"""Sampled benchmark outputs checked right, not only unchanged.

``test_benchmark_bytes.py`` shows that no benchmark op prints other bytes
than recorded.  After a change that re-records those bytes on purpose it
cannot tell right bytes from wrong ones, so here the same sampled ops are
held to what they must be in distribution:

* Every ``sweep`` row is read at sigma = 0, so its error count is
  Binomial(trials, q), q the chance that one read of qubit 1 at the row's
  shots takes another sign than the exact EV.  q is rebuilt from the row's
  register N, M, m, the marked set and the shots alone, through sin/cos and
  ``conftest.sign_error_probability``, never from the program's amplitudes.
  At m = 0 both classes weigh exactly 1/N: without that rule, rounding in
  sin/cos gives every m = 0 row a sign, and a correct program's m-sweep rows
  read z = +9.6.
  Each row is held to ``conftest.assert_rate_matches``, and each group of
  rows, by swept variable and by whether the exact EV is 0, to
  |z| <= ``Z_BOUND`` over its summed errors.
* Every sampled ``search-multi`` op that exits 0 returns a marked location.

The ops are all those of the byte gate (seeds 1-3, passes 0-2): 972 sweeps
over shots, m and N at M = 1 and 2, whose m = 0 rows and M = 2 sets split on
qubit 1 read an exact EV of 0, and 972 sampled searches.  q is computed
once per distinct (N, M, marked ones, m, shots) cell.
"""

import contextlib
import csv
import functools
import io
import json
import math

from conftest import assert_rate_matches, sign_error_probability
from test_benchmark_bytes import PASSES, SEEDS, load_workloads

from grover_ev.cli import main

Z_BOUND = 5.0


def benchmark_ops(workload):
    """Every op of ``workload`` the byte gate runs, with its flags by name."""
    workloads = load_workloads()
    for seed in SEEDS:
        for pass_index in PASSES:
            for argv in workloads.generate(workload, seed, pass_index):
                yield argv, dict(zip(argv[1::2], argv[2::2]))


def run(argv):
    """Exit code and stdout of one op, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@functools.cache
def row_error_chance(n, count, ones, m, shots):
    """q of one noiseless read of qubit 1 after m steps on an N-label register
    with ``count`` marked labels, ``ones`` of them with bit 1 set, and
    whether the exact EV is 0.  Both classes weigh 1/N at m = 0."""
    if m == 0:
        on = off = 1.0 / n
    else:
        angle = (2 * m + 1) * math.asin(math.sqrt(count / n))
        on, off = math.sin(angle) ** 2 / count, math.cos(angle) ** 2 / (n - count)
    p = (on * ones + off * (n // 2 - ones)) / (on * count + off * (n - count))
    exact = (on - off) * (count - 2 * ones)
    return sign_error_probability(shots, p, exact, 0.0), exact == 0


def group_z(errors, expected, variance):
    """How far a group's summed errors lie from their expectation, in
    standard errors; a group with no variance scores 0 if exact, else inf."""
    if variance > 0:
        return (errors - expected) / math.sqrt(variance)
    return 0.0 if errors == expected else math.inf


def swept_values(text):
    """The values of ``--values``: an inclusive ``lo..hi`` range or a comma list."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def test_sweep_rows_count_their_exact_error_chance():
    groups, counts = {}, set()
    for argv, flags in benchmark_ops("sweep"):
        code, out = run(argv)
        assert code == 0, argv
        var, trials = flags["--sweep"], int(flags["--trials"])
        assert float(flags.get("--sigma", "0")) == 0.0
        ones = sum(int(x) & 1 for x in flags["--marked"].split(","))
        rows = list(csv.DictReader(io.StringIO(out)))
        values = swept_values(flags["--values"])
        assert len(rows) == len(values)
        for value, row in zip(values, rows):
            shots = value if var == "shots" else int(flags["--shots"])
            q, zero = row_error_chance(int(row["N"]), int(row["M"]), ones, int(row["m"]), shots)
            errors = round(float(row["ev_sign_error_rate"]) * trials)
            assert_rate_matches(errors, trials, q)
            group = groups.setdefault((var, zero), [0, 0.0, 0.0])
            group[0] += errors
            group[1] += trials * q
            group[2] += trials * q * (1.0 - q)
            counts.add(int(row["M"]))
    # Each swept variable has rows of both kinds: m = 0 rows, and M = 2 sets
    # split on qubit 1, read an exact EV of 0.
    assert counts == {1, 2}
    assert sorted(groups) == [(var, zero) for var in ("N", "m", "shots")
                              for zero in (False, True)]
    scores = {key: group_z(*group) for key, group in groups.items()}
    assert all(abs(z) <= Z_BOUND for z in scores.values()), scores


def test_sampled_searches_that_succeed_return_a_marked_location():
    succeeded = 0
    for argv, flags in benchmark_ops("search-multi"):
        if flags["--shots"] == "0":
            continue
        code, out = run(argv)
        assert code in (0, 1), argv
        if code == 0:
            marked = {int(x) for x in flags["--marked"].split(",")}
            assert json.loads(out)["result"]["location"] in marked, argv
            succeeded += 1
    assert succeeded
