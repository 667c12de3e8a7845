"""Independent checks of ``grover-ev`` outputs.

This module recomputes what it needs from the paper's formulas and the
command line alone; it imports nothing from ``grover_ev``, so a defect in
the program cannot hide behind the same defect in the checker.

``check(argv, rc, stdout)`` returns ``(reason, cost)``: ``reason`` is None
for an accepted output, else a one-line rejection; ``cost`` is the
``(runs, oracle_queries)`` pair the op's output reports or implies.  A
search reports its own counts.  A plan or sweep row runs no search; its
cost is the one the paper's model gives the search it describes: L runs
and m*L + 1 oracle queries (m per run, one verification).
"""

from __future__ import annotations

import csv
import io
import json
import math

CSV_COLUMNS = [
    "N", "M", "m", "a_th", "A_m",
    "m_stand", "m_trunc", "m_trunc_estimate",
    "ev_sign_error_rate", "seed",
]

A_M_ATOL = 1e-12


class Rejected(Exception):
    """The output does not satisfy the command's contract."""


def _flags(argv: list[str]) -> dict[str, str]:
    """``--name value`` pairs of an argv list (every benchmark flag takes a value)."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _qubits(n: int) -> int:
    return n.bit_length() - 1


def _theta(n: int, m_count: int) -> float:
    return 2.0 * math.asin(math.sqrt(m_count / n))


def attenuation(n: int, m_count: int, m: int) -> float:
    """A_m = (N sin^2((2m+1) theta / 2) - M) / (N - M), with A_0 = 0 exactly."""
    if m == 0:
        return 0.0
    s = math.sin((2 * m + 1) * _theta(n, m_count) / 2.0)
    return (s * s * n - m_count) / (n - m_count)


def m_standard(n: int, m_count: int) -> int:
    return int(math.floor(math.pi / (2.0 * _theta(n, m_count)) + 1e-12))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Rejected(message)


def _check_search(flags, payload):
    marked = sorted(int(x) for x in flags["marked"].split(","))
    n = int(flags["n"])
    result = payload["result"]
    config = payload["config"]
    _require(result["verified"] is True, "search result is not verified")
    _require(result["location"] in marked, f"location {result['location']} not in --marked")
    bits = result["bits"]
    _require(len(bits) == _qubits(n), f"{len(bits)} bits for L={_qubits(n)}")
    _require(all(b in (0, 1) for b in bits), f"bits not 0/1: {bits}")
    _require(sum(b << i for i, b in enumerate(bits)) == result["location"],
             "bits do not reassemble location")
    _require(config["marked"] == marked, "echoed marked set differs from --marked")
    runs, queries, m = result["total_runs"], result["oracle_invocations"], config["m"]
    _require(runs >= _qubits(n), f"{runs} runs, fewer than L={_qubits(n)}")
    _require(queries - m * runs >= 1, "oracle count misses the verification query")
    return runs, queries


def _check_plan(flags, payload):
    n, m_count, a_th = int(flags["n"]), int(flags["m-count"]), float(flags["a-th"])
    plan = payload["plan"]
    _require((plan["N"], plan["M"], plan["a_th"]) == (n, m_count, a_th),
             "plan echoes a different N, M or a_th")
    m_stand, m_trunc = plan["m_stand"], plan["m_trunc"]
    _require(m_stand == m_standard(n, m_count), f"m_stand {m_stand} != floor(pi/(2 theta))")
    _require(0 <= m_trunc <= m_stand, f"m_trunc {m_trunc} outside [0, m_stand]")
    a_trunc = attenuation(n, m_count, m_trunc)
    if plan["saturated"]:
        _require(m_trunc == m_stand and a_trunc <= a_th, "saturated plan clears a_th")
    else:
        _require(a_trunc > a_th, f"A_m_trunc={a_trunc!r} does not exceed a_th={a_th}")
        _require(m_trunc == 0 or attenuation(n, m_count, m_trunc - 1) <= a_th,
                 "m_trunc is not the first m clearing a_th")
    L = _qubits(n)
    return L, m_trunc * L + 1


def _sweep_values(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def _first_clearing(n: int, m_count: int, a_th: float) -> int:
    m_stand = m_standard(n, m_count)
    return next((m for m in range(m_stand + 1) if attenuation(n, m_count, m) > a_th), m_stand)


def _check_sweep(flags, stdout):
    var, seed = flags["sweep"], int(flags["seed"])
    values = _sweep_values(flags["values"])
    m_count = len(flags["marked"].split(","))
    a_th = float(flags["a-th"])
    rows = list(csv.reader(io.StringIO(stdout)))
    _require(rows and rows[0] == CSV_COLUMNS, "CSV header differs from the schema")
    _require(len(rows) == len(values) + 1, f"{len(rows) - 1} rows for {len(values)} values")
    runs = queries = 0.0
    for i, (value, row) in enumerate(zip(values, rows[1:])):
        rec = dict(zip(CSV_COLUMNS, row))
        n = value if var == "N" else int(flags["n"])
        m = int(rec["m"])
        _require(int(rec["N"]) == n and int(rec["M"]) == m_count, f"row {i}: wrong N or M")
        _require(int(rec["seed"]) == seed ^ i, f"row {i}: seed is not seed XOR {i}")
        _require(abs(float(rec["a_th"]) - a_th) <= A_M_ATOL, f"row {i}: wrong a_th")
        if var == "m":
            _require(m == value, f"row {i}: m {m} != swept value {value}")
        else:
            _require(m == _first_clearing(n, m_count, a_th), f"row {i}: m is not m_trunc")
        _require(int(rec["m_stand"]) == m_standard(n, m_count), f"row {i}: wrong m_stand")
        _require(int(rec["m_trunc"]) <= int(rec["m_stand"]), f"row {i}: m_trunc > m_stand")
        _require(abs(float(rec["A_m"]) - attenuation(n, m_count, m)) <= A_M_ATOL,
                 f"row {i}: A_m {rec['A_m']} off the formula")
        rate = float(rec["ev_sign_error_rate"])
        _require(0.0 <= rate <= 1.0, f"row {i}: rate {rate} outside [0, 1]")
        runs += _qubits(n)
        queries += m * _qubits(n) + 1
    return runs / len(values), queries / len(values)


def check(argv: list[str], rc: int | None, stdout: str):
    """Validate one op's exit code and output; see the module docstring."""
    try:
        _require(rc == 0, f"exit code {rc}")
        flags = _flags(argv)
        if argv[0] == "sweep":
            return None, _check_sweep(flags, stdout)
        payload = json.loads(stdout)
        if argv[0] == "search":
            return None, _check_search(flags, payload)
        return None, _check_plan(flags, payload)
    except Rejected as exc:
        return str(exc), None
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}", None
