"""Command-line harness: stopping-point plans, searches, and sweeps.

Subcommands::

    plan    print the truncation plan for (N, M, a_th) as JSON (or one CSV row)
    search  run the filtered bit-extraction search end to end, print JSON
    sweep   evaluate a grid over m / a_th / N / shots, write CSV

Every output embeds the resolved settings as a plain dict, and the readout
settings are one :class:`~grover_ev.measurement.EnsembleModel`.  All
randomness derives from ``--seed``: sweep row ``i`` draws all its error
trials, counts and noise, from one generator seeded ``seed XOR i``; a search
draws all its runs in turn from one seeded ``seed``.  Sweep rows read their
sign errors from the two-amplitude state, so no command builds a statevector.
This module only parses (lists, ranges, ``--m-count`` against ``--marked``,
``--n`` against ``--sweep``) and fills in an omitted ``--a-th`` as
min(5/sqrt(shots), 1/M), or min(1e-9, 1/M) when exact; the library checks
every other rule once, ``make_plan`` the one on ``a_th``: 0 <= a_th <= 1/M.
Either raises ``ValueError``, printed as ``error: <rule>``.  Exit codes: 0
success, 1 search failure (its JSON names the reason), 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import replace

from .core import MarkedSet, draw_marked_set
from .core import closed_form_state  # noqa: F401  unused; perfbench/tracer.py wraps it here
from .filtering import SearchFailure, extract_location
from .measurement import EnsembleModel, sign_error_rate
from .planner import attenuation, make_plan, search_iterations

CSV_COLUMNS = [
    "N", "M", "m", "a_th", "A_m",
    "m_stand", "m_trunc", "m_trunc_estimate",
    "ev_sign_error_rate", "seed",
]

SWEEP_VARIABLES = ("m", "a_th", "N", "shots")

# Most grid points one sweep takes: its values and rows are held in memory.
MAX_SWEEP_VALUES = 100_000


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from exc


def _check_value_count(count: int) -> None:
    """Reject a sweep of more than ``MAX_SWEEP_VALUES`` values."""
    if count > MAX_SWEEP_VALUES:
        raise ValueError(f"a sweep takes at most {MAX_SWEEP_VALUES} values, got {count}")


def _parse_sweep_values(var: str, text: str) -> list:
    """Comma lists (``0.1,0.25,0.5``) or inclusive integer ranges (``0..25``),
    counted against ``MAX_SWEEP_VALUES`` before either is expanded."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError as exc:
            raise ValueError(f"bad range {text!r}: endpoints must be integers") from exc
        if hi < lo:
            raise ValueError(f"bad range {text!r}: end below start")
        _check_value_count(hi - lo + 1)
        values = list(range(lo, hi + 1))
    else:
        _check_value_count(text.count(",") + 1)
        cast = float if var == "a_th" else int
        try:
            values = [cast(part) for part in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad value list {text!r} for variable {var!r}") from exc
    return values


def _resolve_config(args: argparse.Namespace) -> tuple[dict, EnsembleModel]:
    """The resolved settings every output embeds, and the readout model."""
    marked: list[int] | None = None
    if args.marked is not None:
        marked = _parse_int_list(args.marked)
        if args.m_count is not None and args.m_count != len(marked):
            raise ValueError(
                f"--m-count {args.m_count} disagrees with --marked "
                f"({len(marked)} locations)"
            )
        m_count = len(marked)
    else:
        m_count = args.m_count if args.m_count is not None else 1
    model = EnsembleModel(shots=args.shots, seed=args.seed, gaussian_noise_sigma=args.sigma)
    # An omitted --a-th: five standard errors of a shots-shot mean (1e-9 when
    # exact), capped at 1/M.  An M below 1 goes on to make_plan, which rejects it.
    a_th = args.a_th
    if a_th is None:
        noise = 5.0 / math.sqrt(model.shots) if model.shots else 1e-9
        a_th = min(noise, 1.0 / max(m_count, 1))

    config = {
        "command": args.command,
        "n": args.n,
        "m_count": m_count,
        "marked": marked,
        "a_th": a_th,
        "shots": model.shots,
        "sigma": model.gaussian_noise_sigma,
        "seed": model.seed,
        "m": args.m,
        "format": getattr(args, "format", "json"),
        "out": args.out,
    }
    return config, model


def _marked_set(n: int, m_count: int, marked: list[int] | None, seed: int) -> MarkedSet:
    """Explicit locations when given, otherwise a seeded random draw."""
    return MarkedSet(marked, n) if marked is not None else draw_marked_set(n, m_count, seed)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w") as handle:
            handle.write(text)


def _fmt_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _csv_text(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt_field(row[col]) for col in CSV_COLUMNS])
    return buffer.getvalue()


def _csv_row(plan, m: int, error_rate: float | None, seed: int) -> dict:
    """One CSV row: the plan's (N, M, a_th) and counts, the attenuation at
    iterate count ``m``, and the sign-error rate (None in a plan row)."""
    return {
        "N": plan.N,
        "M": plan.M,
        "m": m,
        "a_th": plan.a_th,
        "A_m": attenuation(plan.N, plan.M, m),
        "m_stand": plan.m_stand,
        "m_trunc": plan.m_trunc,
        "m_trunc_estimate": plan.m_trunc_estimate,
        "ev_sign_error_rate": error_rate,
        "seed": seed,
    }


def _iterations(config: dict, plan) -> int:
    """The iterate count of a plan CSV row or a non-m sweep row: ``--m``,
    else the truncated plan's."""
    return config["m"] if config["m"] is not None else plan.m_trunc


def cmd_plan(config: dict, model: EnsembleModel) -> int:
    plan = make_plan(config["n"], config["m_count"], config["a_th"])
    if config["format"] == "csv":
        row = _csv_row(plan, _iterations(config, plan), None, model.seed)
        _emit(_csv_text([row]), config["out"])
    else:
        payload = {"config": config, "plan": plan.to_json_dict()}
        _emit(json.dumps(payload, indent=2), config["out"])
    return 0


def cmd_search(config: dict, model: EnsembleModel) -> int:
    plan = make_plan(config["n"], config["m_count"], config["a_th"])
    marked = _marked_set(config["n"], config["m_count"], config["marked"], model.seed)
    if 2 * plan.M >= plan.N:
        # One extra qubit, 0 on every marked label, halves M/N so that a marked
        # label outweighs an unmarked one (Nielsen & Chuang 2000, sec. 6.1.4).
        plan = make_plan(2 * plan.N, plan.M, plan.a_th)
        marked = MarkedSet(marked.locations, plan.N)
    iterations = config["m"] if config["m"] is not None else search_iterations(plan)
    resolved = {**config, "marked": list(marked.locations), "m": iterations}
    try:
        # a_th chose the step count; each bit is then read by its EV's sign.
        result = extract_location(marked, iterations, model, 0.0)
    except SearchFailure as exc:
        payload = {
            "config": resolved,
            "error": "search-failure",
            "reason": exc.reason,
            "detail": str(exc),
            "total_runs": exc.total_runs,
            "branch_events": exc.branch_events,
        }
        _emit(json.dumps(payload, indent=2), config["out"])
        return 1
    result = replace(result, bits=result.bits[: config["n"].bit_length() - 1])
    payload = {"config": resolved, "result": result.to_json_dict()}
    _emit(json.dumps(payload, indent=2), config["out"])
    return 0


def _sweep_row(
    config: dict, model: EnsembleModel, var: str, value, index: int, trials: int
) -> dict:
    row_seed = model.seed ^ index
    n = value if var == "N" else config["n"]
    a_th = value if var == "a_th" else config["a_th"]

    plan = make_plan(n, config["m_count"], a_th)
    marked = _marked_set(n, config["m_count"], config["marked"], row_seed)
    m = value if var == "m" else _iterations(config, plan)
    shots = value if var == "shots" else model.shots
    row_model = replace(model, shots=shots, seed=row_seed)
    error_rate = sign_error_rate(marked, m, 1, row_model, trials=trials)
    return _csv_row(plan, m, error_rate, row_seed)


def cmd_sweep(config: dict, model: EnsembleModel, var: str, values: list, trials: int) -> int:
    rows = [_sweep_row(config, model, var, value, i, trials) for i, value in enumerate(values)]
    _emit(_csv_text(rows), config["out"])
    audit = {
        "config": config,
        "sweep": {"variable": var, "values": values, "trials": trials},
    }
    print(json.dumps(audit), file=sys.stderr)
    return 0


def _add_common_flags(sub: argparse.ArgumentParser, n_required: bool = True) -> None:
    sub.add_argument("--n", type=int, required=n_required,
                     help="database size, a power of two, at most 2^62"
                          + ("" if n_required else " (required unless --sweep N)"))
    sub.add_argument("--m-count", type=int, default=None, dest="m_count",
                     help="number of marked items (default 1; drawn from --seed "
                          "unless --marked is given)")
    sub.add_argument("--marked", type=str, default=None,
                     help="explicit marked locations, comma-separated")
    sub.add_argument("--a-th", type=float, default=None, dest="a_th",
                     help="EV threshold, 0 <= a_th <= 1/M: plan and sweep step counts "
                          "clear it with A_m, a search's with the one-item EV A_m/M, and "
                          "a search reads each bit by its EV's sign (default: "
                          "min(5/sqrt(shots), 1/M), or min(1e-9, 1/M) when exact)")
    sub.add_argument("--shots", type=int, default=0,
                     help="ensemble samples per run; 0 = exact EVs")
    sub.add_argument("--sigma", type=float, default=0.0,
                     help="additive Gaussian readout noise width")
    sub.add_argument("--seed", type=int, default=0, help="master RNG seed")
    sub.add_argument("--out", type=str, default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grover-ev",
        description="Plan and simulate truncated/filtered Grover searches "
                    "for expectation-value quantum computers.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan = commands.add_parser("plan", help="print the truncation plan")
    _add_common_flags(plan)
    plan.add_argument("--m", type=int, default=None,
                      help="iterate count used for the reported attenuation (CSV form)")
    plan.add_argument("--format", choices=("json", "csv"), default="json")

    search = commands.add_parser("search", help="run the filtered search")
    _add_common_flags(search)
    search.add_argument("--m", type=int, default=None,
                        help="override the iterate count (default: the first m whose "
                             "one-item EV A_m/M exceeds --a-th, on 2N labels where "
                             "2M >= N); an m where a marked label weighs less than "
                             "an unmarked one exits 2")

    sweep = commands.add_parser("sweep", help="evaluate a parameter grid, emit CSV")
    _add_common_flags(sweep, n_required=False)
    sweep.add_argument("--m", type=int, default=None,
                       help="fixed iterate count for non-m sweeps (default: truncated plan)")
    sweep.add_argument("--sweep", choices=SWEEP_VARIABLES, required=True, dest="sweep_var",
                       help="variable to sweep")
    sweep.add_argument("--values", type=str, required=True,
                       help="comma list (0.1,0.25) or inclusive int range (0..25)")
    sweep.add_argument("--trials", type=int, default=200,
                       help="seeded trials behind each ev_sign_error_rate entry (1..1000000)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built on the first :func:`main` call and reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config, model = _resolve_config(args)
        if args.command == "plan":
            return cmd_plan(config, model)
        if args.command == "search":
            return cmd_search(config, model)
        if args.n is None and args.sweep_var != "N":
            raise ValueError("--n is required unless --sweep N")
        values = _parse_sweep_values(args.sweep_var, args.values)
        return cmd_sweep(config, model, args.sweep_var, values, args.trials)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
