"""Seeded operation lists for the four benchmark workloads.

One operation ("op") is one ``grover-ev`` command line: a ``search``, a
``plan`` or a ``sweep``.  Every pass of a workload is a fixed grid of cells,
each repeated the same number of times and shuffled, so the mix of sizes is
the same for every seed and pass and only the drawn inputs (marked
locations and program seeds) and the order change.  Marked sets are drawn
uniformly; no draw is rejected for being slow or for failing.

Why each workload exists, and which module it puts in charge:

* ``search-single`` -- one marked item, exact readout, L = 13..15.  Every
  search takes exactly L runs, so the time goes to ``core`` (the dense
  Grover loop and the StateVector norm check) and ``measurement.exact_ev``.
* ``search-multi`` -- two to four marked items, L = 8..9, exact or sampled
  readout.  EV cancellation sends ``filtering`` into branch-and-verify, so
  the time goes to the search tree, ``apply_correlation`` and sampling.
  The tree size depends on the marked set, so this workload's figures vary
  with the seed; small registers let one pass hold 216 searches, and a run
  draws fresh ones for each pass.  With L = 8..11 a pass of the same length
  held 50 and the spread of ``runs_per_search`` across ten seeds was 12%.
* ``plan`` -- ``plan`` only, L = 28..40.  No statevector is built; the
  planner's truncation scan takes the time.
* ``sweep`` -- one-qubit sign-error sweeps over shots, m or N at N <= 2^16.
  No Grover loop and no ``filtering``; ``sign_error_rate`` and
  ``closed_form_state`` take the time.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("search-single", "search-multi", "plan", "sweep")

# Each cell appears this many times in one pass; sized so that a pass holds
# at least 100 ops and takes about 7 s on a 2-core 2 GHz Xeon (Sapphire
# Rapids), so a 25 s run makes three passes.
_REPEATS = {"search-single": 18, "search-multi": 9, "plan": 2, "sweep": 6}

SWEEP_TRIALS = 20


def _search_single_cells():
    return [(L, a_th) for L in (13, 14, 15) for a_th in ("0.1", "0.25")]


def _search_multi_cells():
    readouts = (("exact", "0.1"), ("exact", "0.25"), ("shots", "1024"), ("shots", "4096"))
    return [(L, M, r) for L in (8, 9) for M in (2, 3, 4) for r in readouts]


def _plan_cells():
    return [(L, M, a_th) for L in range(28, 41) for M in (1, 2, 4) for a_th in ("0.1", "0.25")]


def _sweep_cells():
    return [(var, L, M) for var in ("shots", "m", "N") for L in (12, 14, 16) for M in (1, 2)]


def _marked(rng: random.Random, n: int, count: int) -> str:
    return ",".join(str(x) for x in rng.sample(range(n), count))


def _search_single_op(rng, cell):
    L, a_th = cell
    n = 1 << L
    return ["search", "--n", str(n), "--marked", _marked(rng, n, 1), "--a-th", a_th,
            "--shots", "0", "--seed", str(rng.randrange(1 << 31))]


def _search_multi_op(rng, cell):
    L, M, (readout, value) = cell
    n = 1 << L
    argv = ["search", "--n", str(n), "--marked", _marked(rng, n, M)]
    if readout == "exact":
        argv += ["--a-th", value, "--shots", "0"]
    else:
        # Sampled readout at the program's default threshold, 5/sqrt(shots).
        argv += ["--shots", value]
    return argv + ["--seed", str(rng.randrange(1 << 31))]


def _plan_op(rng, cell):
    L, M, a_th = cell
    return ["plan", "--n", str(1 << L), "--m-count", str(M), "--a-th", a_th,
            "--seed", str(rng.randrange(1 << 31))]


def _sweep_op(rng, cell):
    var, L, M = cell
    top = 1 << L
    if var == "N":
        # Grid N/16, N/4, N; the marked set must fit the smallest size.
        n = top >> 4
        values = f"{n},{top >> 2},{top}"
        extra = ["--shots", "1024"]
    elif var == "shots":
        n = top
        values = "64,256,1024,4096"
        extra = []
    else:
        n = top
        values = "0..8"
        extra = ["--shots", "1024"]
    return ["sweep", "--n", str(n), "--marked", _marked(rng, n, M), "--a-th", "0.25",
            *extra, "--sweep", var, "--values", values, "--trials", str(SWEEP_TRIALS),
            "--seed", str(rng.randrange(1 << 31))]


_SHAPES = {
    "search-single": (_search_single_cells, _search_single_op),
    "search-multi": (_search_multi_cells, _search_multi_op),
    "plan": (_plan_cells, _plan_op),
    "sweep": (_sweep_cells, _sweep_op),
}


def generate(workload: str, seed: int, pass_index: int = 0) -> list[list[str]]:
    """The op list of pass ``pass_index`` of ``workload`` for ``seed``: a list
    of argv lists.  Every pass has the same cells and fresh draws."""
    if workload not in _SHAPES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    cells_of, build = _SHAPES[workload]
    # String seeds hash through SHA-512, so the stream is the same in every
    # process regardless of PYTHONHASHSEED.
    rng = random.Random(f"grover-ev-bench:{workload}:{seed}:{pass_index}")
    cells = cells_of() * _REPEATS[workload]
    rng.shuffle(cells)
    return [build(rng, cell) for cell in cells]


def digest(ops: list[list[str]]) -> str:
    """SHA-256 of the op list, recorded with every result."""
    return hashlib.sha256(json.dumps(ops).encode()).hexdigest()
