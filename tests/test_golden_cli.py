"""Golden outputs: exit code, stdout and stderr of a fixed set of commands.

``golden_cli.json`` holds, for each command, the argv and the exact bytes the
CLI printed for it: plans as JSON and CSV (up to N = 2**62), exact, branching,
sampled, noisy, random-set and failing searches (two at N = 2**62), a sampled
search that backtracks through failed candidates to a verified location, an
exact and a sampled search where 2M >= N (run on one extra qubit) and the plan
of such a set on those 2N labels, a sweep over each variable (an N sweep up to 2**62), a noisy
sweep whose 2,500 trials cross the 1,024-trial block edge, exact and
sampled, a threshold sweep whose rows at 0.0 and -0.0 print 0 and -0, and
two rejected inputs.
Every output is a pure function of its argv, so a refactor that keeps
behaviour keeps every byte.

A change that means to alter outputs re-records the file explicitly, from
the argvs it holds, and is told the argv of every entry whose bytes moved:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from grover_ev.cli import main

RECORD = Path(__file__).with_name("golden_cli.json")
CASES = json.loads(RECORD.read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_is_byte_identical(case, capsys):
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


def record(argv: list[str]) -> dict:
    """The entry of one argv: its exit code and the bytes it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    cases = [record(case["argv"]) for case in CASES]
    moved = [" ".join(new["argv"]) for new, old in zip(cases, CASES) if new != old]
    print("\n".join([f"{len(moved)} of {len(cases)} entries moved:", *moved]))
    RECORD.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {RECORD}")
