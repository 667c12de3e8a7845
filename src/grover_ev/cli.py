"""Command-line harness: stopping-point plans, searches, and sweeps.

Subcommands::

    plan    print the truncation plan for (N, M, a_th) as JSON (or one CSV row)
    search  run the filtered bit-extraction search end to end, print JSON
    sweep   evaluate a grid over m / a_th / N / shots, write CSV

Every output embeds the fully resolved configuration, and all randomness
derives from ``--seed``: sweep row ``i`` uses ``seed XOR i``, per-row error
trials use consecutive seeds mod 2**64, and search runs derive their per-run
streams the same way.  Sweep rows read their sign errors from the
two-amplitude state, so no command builds a statevector.  This module only
parses (lists, ranges, ``--m-count`` against ``--marked``); the library checks
every other rule once, and its message is printed as ``error: <rule>``.  Exit
codes: 0 success, 1 search failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from .core import MarkedSet
from .core import closed_form_state  # noqa: F401  unused; perfbench/tracer.py wraps it here
from .filtering import SearchFailure, extract_location
from .measurement import EnsembleModel, sign_error_rate
from .planner import attenuation, make_plan

CSV_COLUMNS = [
    "N", "M", "m", "a_th", "A_m",
    "m_stand", "m_trunc", "m_trunc_estimate",
    "ev_sign_error_rate", "seed",
]

SWEEP_VARIABLES = ("m", "a_th", "N", "shots")


class ConfigError(Exception):
    """Invalid or inconsistent command configuration (exit code 2)."""


@dataclass
class ExperimentConfig:
    """Fully resolved settings for one command invocation."""

    command: str
    n: int
    m_count: int
    marked: tuple[int, ...] | None
    a_th: float
    model: EnsembleModel
    m_override: int | None
    fmt: str
    out: str | None

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "n": self.n,
            "m_count": self.m_count,
            "marked": list(self.marked) if self.marked is not None else None,
            "a_th": self.a_th,
            "shots": self.model.shots,
            "sigma": self.model.gaussian_noise_sigma,
            "seed": self.model.seed,
            "m": self.m_override,
            "format": self.fmt,
            "out": self.out,
        }


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from exc


def _parse_sweep_values(var: str, text: str) -> list:
    """Comma lists (``0.1,0.25,0.5``) or inclusive integer ranges (``0..25``)."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError as exc:
            raise ConfigError(f"bad range {text!r}: endpoints must be integers") from exc
        if hi < lo:
            raise ConfigError(f"bad range {text!r}: end below start")
        values = list(range(lo, hi + 1))
    else:
        cast = float if var == "a_th" else int
        try:
            values = [cast(part) for part in text.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad value list {text!r} for variable {var!r}") from exc
    return values


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    marked: tuple[int, ...] | None = None
    if args.marked is not None:
        marked = _parse_int_list(args.marked)
        if args.m_count is not None and args.m_count != len(marked):
            raise ConfigError(
                f"--m-count {args.m_count} disagrees with --marked "
                f"({len(marked)} locations)"
            )
        m_count = len(marked)
    else:
        m_count = args.m_count if args.m_count is not None else 1
    model = EnsembleModel(shots=args.shots, seed=args.seed, gaussian_noise_sigma=args.sigma)

    if args.a_th is not None:
        a_th = args.a_th
    else:
        a_th = model.default_threshold()

    return ExperimentConfig(
        command=args.command,
        n=args.n,
        m_count=m_count,
        marked=marked,
        a_th=a_th,
        model=model,
        m_override=getattr(args, "m", None),
        fmt=getattr(args, "format", "json"),
        out=args.out,
    )


def _marked_set(n: int, m_count: int, marked: tuple[int, ...] | None, seed: int) -> MarkedSet:
    """Explicit locations when given, otherwise a seeded random draw."""
    if marked is not None:
        return MarkedSet(marked, n)
    rng = np.random.default_rng(seed)
    locations = rng.choice(n, size=m_count, replace=False)
    return MarkedSet(tuple(int(x) for x in locations), n)


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


def cmd_plan(config: ExperimentConfig) -> int:
    plan = make_plan(config.n, config.m_count, config.a_th)
    if config.fmt == "csv":
        m = config.m_override if config.m_override is not None else plan.m_trunc
        _emit(_csv_text([_csv_row(plan, m, None, config.model.seed)]), config.out)
    else:
        payload = {"config": config.to_json_dict(), "plan": plan.to_json_dict()}
        _emit(json.dumps(payload, indent=2), config.out)
    return 0


def cmd_search(config: ExperimentConfig) -> int:
    plan = make_plan(config.n, config.m_count, config.a_th)
    marked = _marked_set(config.n, config.m_count, config.marked, config.model.seed)
    iterations = config.m_override if config.m_override is not None else max(1, plan.m_trunc)
    resolved = config.to_json_dict()
    resolved["marked"] = list(marked.locations)
    resolved["m"] = iterations
    try:
        result = extract_location(marked, iterations, config.model, config.a_th)
    except SearchFailure as exc:
        payload = {
            "config": resolved,
            "error": "search-failure",
            "detail": str(exc),
            "total_runs": exc.total_runs,
            "branch_events": exc.branch_events,
        }
        _emit(json.dumps(payload, indent=2), config.out)
        return 1
    payload = {"config": resolved, "result": result.to_json_dict()}
    _emit(json.dumps(payload, indent=2), config.out)
    return 0


def _sweep_row(config: ExperimentConfig, var: str, value, index: int, trials: int) -> dict:
    row_seed = config.model.seed ^ index
    n = value if var == "N" else config.n
    shots = value if var == "shots" else config.model.shots
    a_th = value if var == "a_th" else config.a_th

    plan = make_plan(n, config.m_count, a_th)
    marked = _marked_set(n, config.m_count, config.marked, row_seed)
    if var == "m":
        m = value
    elif config.m_override is not None:
        m = config.m_override
    else:
        m = plan.m_trunc

    error_rate = sign_error_rate(
        marked, m, 1,
        shots=shots, sigma=config.model.gaussian_noise_sigma,
        threshold=0.0, trials=trials, seed=row_seed,
    )
    return _csv_row(plan, m, error_rate, row_seed)


def cmd_sweep(config: ExperimentConfig, var: str, values: list, trials: int) -> int:
    rows = [_sweep_row(config, var, value, index, trials) for index, value in enumerate(values)]
    _emit(_csv_text(rows), config.out)
    audit = {
        "config": config.to_json_dict(),
        "sweep": {"variable": var, "values": values, "trials": trials},
    }
    print(json.dumps(audit), file=sys.stderr)
    return 0


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="database size, a power of two")
    sub.add_argument("--m-count", type=int, default=None, dest="m_count",
                     help="number of marked items (default 1; drawn from --seed "
                          "unless --marked is given)")
    sub.add_argument("--marked", type=str, default=None,
                     help="explicit marked locations, comma-separated")
    sub.add_argument("--a-th", type=float, default=None, dest="a_th",
                     help="EV decision threshold (default: 5/sqrt(shots), or 1e-9 when exact)")
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
                        help="override the iterate count (default: truncated plan)")

    sweep = commands.add_parser("sweep", help="evaluate a parameter grid, emit CSV")
    _add_common_flags(sweep)
    sweep.add_argument("--m", type=int, default=None,
                       help="fixed iterate count for non-m sweeps (default: truncated plan)")
    sweep.add_argument("--sweep", choices=SWEEP_VARIABLES, required=True, dest="sweep_var",
                       help="variable to sweep")
    sweep.add_argument("--values", type=str, required=True,
                       help="comma list (0.1,0.25) or inclusive int range (0..25)")
    sweep.add_argument("--trials", type=int, default=200,
                       help="seeded trials behind each ev_sign_error_rate entry")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built on the first :func:`main` call and reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        if args.command == "plan":
            return cmd_plan(config)
        if args.command == "search":
            return cmd_search(config)
        values = _parse_sweep_values(args.sweep_var, args.values)
        return cmd_sweep(config, args.sweep_var, values, args.trials)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
