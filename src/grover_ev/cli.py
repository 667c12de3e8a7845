"""Command-line harness: stopping-point plans, searches, and sweeps.

Subcommands::

    plan    print the truncation plan for (N, M, a_th) as JSON (or one CSV row)
    search  run the filtered bit-extraction search end to end, print JSON
    sweep   evaluate a grid over m / a_th / N / shots, write CSV

Every output embeds the resolved settings as a plain dict, and the readout
settings are one :class:`~grover_ev.measurement.EnsembleModel`.  All
randomness derives from ``--seed`` by ``core.stream``.  A ``--m-count`` set
is drawn from ``(seed, DRAW, 0)`` (:func:`_marked_set`), so every sweep row
at one size reads the set a search of that size prints.  A search reads its
runs from ``(seed, READ, 0)``, sweep row ``i`` (CSV seed ``seed XOR i``) from
``(seed XOR i, ROW, i)``: row 1 of ``--seed 0`` and row 0 of ``--seed 1``
both print seed 1 and read two streams.  Every command works on the
register ``make_plan`` names, 2N labels where 2M >= N; a search or sweep
row reads its two-amplitude state, so none builds a statevector.
This module only parses (lists, ranges, ``--m-count`` against ``--marked``,
``--n`` against ``--sweep``) and fills in an omitted ``--a-th`` as
min(5/sqrt(shots), 1/M), or min(1e-9, 1/M) when exact; the library checks
every other rule once, ``make_plan`` the one on ``a_th``: 0 <= a_th <= 1/M.
Either raises ``ValueError``, printed as ``error: <rule>``.  Exit codes: 0
success, 1 search failure (its JSON names the reason), 2 usage or
configuration error.

:func:`main` builds the parser and each command's table of defaults and
required flags once.  An argv of a command word and exact ``--flag value``
pairs is read off that command parser's own action table; any other argv
goes to the top-level parser, so help, usage and errors are argparse's own.
Either way the namespace is the one argparse gives, and a call leaves
nothing behind that changes the next call's output.  A JSON payload is
written by :func:`_json_text`, which gives the bytes of
``json.dumps(payload, indent=2)`` without ``json``'s pure-Python indent path.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

from .core import ROW, MarkedSet, draw_marked_set, stream
from .core import closed_form_state  # noqa: F401  unused; perfbench/tracer.py wraps it here
from .filtering import SearchFailure, extract_location
from .measurement import EnsembleModel, sign_error_rate
from .planner import _attenuation, attenuation, make_plan, search_iterations

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


def _marked_set(n: int, register: int, config: dict) -> MarkedSet:
    """``config``'s explicit locations, or its ``m_count`` drawn by its seed,
    on [0, n), placed on ``register``: the one place a command builds its set."""
    marked = config["marked"]
    chosen = (MarkedSet(marked, n) if marked is not None
              else draw_marked_set(n, config["m_count"], config["seed"]))
    return chosen if register == n else MarkedSet(chosen.locations, register)


def _float_text(value: float) -> str:
    """A float as ``json`` writes it: its repr, or NaN and Infinity by ``json``."""
    return float.__repr__(value) if -math.inf < value < math.inf else json.dumps(value)


# The text of a scalar, by its exact type: a subclass is left to ``json``.
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


@functools.lru_cache(maxsize=256)
def _key_text(key: str) -> str:
    """A dict key as ``json`` writes it, with its separator; payloads reuse
    a few dozen keys, so each is encoded once."""
    return encode_basestring_ascii(key) + ": "


def _json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for a payload of dicts
    with str keys, lists and scalars; ``pad`` is the newline and indent
    before ``value``'s closing bracket.  ``json`` writes any other value (a
    subclass, a tuple) and raises its ``TypeError`` on what it cannot write."""
    kind = type(value)
    scalar = _JSON_SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    if (kind is list or kind is dict) and value:
        # An item's scalar text is read off the table here; only a nested
        # container or an odd type takes another call.
        inner, get = pad + "  ", _JSON_SCALARS.get
        if kind is list:
            items = [w(v) if (w := get(type(v))) else _json_text(v, inner) for v in value]
            return "[" + inner + ("," + inner).join(items) + pad + "]"
        items = [_key_text(k) + (w(v) if (w := get(type(v))) else _json_text(v, inner))
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(value, indent=2).replace("\n", pad)


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as handle:
            handle.write(text)


def _csv_text(lines: list[str]) -> str:
    """The header and ``lines``, as ``csv.writer`` writes them: no field needs quoting."""
    return "\n".join([",".join(CSV_COLUMNS), *lines]) + "\n"


def _csv_row(plan, m: int, error_rate: float | None, seed: int, a_m: float | None = None) -> str:
    """One CSV line, its fields in ``CSV_COLUMNS`` order: the plan's (N, M,
    a_th) and counts, ``a_m`` (the attenuation at iterate count ``m``; by the
    checking ``attenuation`` when None), and the sign-error rate (empty in a
    plan row).  Integers by ``str``, floats by ``:.12g``; an integer ``a_th``
    is 0 or 1, the same either way."""
    rate = "" if error_rate is None else f"{error_rate:.12g}"
    a_m = attenuation(plan.N, plan.M, m) if a_m is None else a_m
    return (f"{plan.N},{plan.M},{m},{plan.a_th:.12g},{a_m:.12g},"
            f"{plan.m_stand},{plan.m_trunc},{plan.m_trunc_estimate:.12g},{rate},{seed}")


def _iterations(config: dict, plan) -> int:
    """The iterate count of a plan CSV row or a non-m sweep row: ``--m``,
    else the truncated plan's."""
    return config["m"] if config["m"] is not None else plan.m_trunc


def cmd_plan(config: dict, model: EnsembleModel) -> int:
    plan = make_plan(config["n"], config["m_count"], config["a_th"])
    if config["marked"] is not None:
        # An explicit list is checked as a search's is; a count draws nothing.
        _marked_set(config["n"], plan.N, config)
    if config["format"] == "csv":
        row = _csv_row(plan, _iterations(config, plan), None, model.seed)
        _emit(_csv_text([row]), config["out"])
    else:
        payload = {"config": config, "plan": plan.to_json_dict()}
        _emit(_json_text(payload), config["out"])
    return 0


def cmd_search(config: dict, model: EnsembleModel) -> int:
    plan = make_plan(config["n"], config["m_count"], config["a_th"])
    marked = _marked_set(config["n"], plan.N, config)
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
        _emit(_json_text(payload), config["out"])
        return 1
    payload = {"config": resolved, "result": result.to_json_dict(config["n"].bit_length() - 1)}
    _emit(_json_text(payload), config["out"])
    return 0


def cmd_sweep(config: dict, model: EnsembleModel, var: str, values: list, trials: int) -> int:
    # One plan per (register, a_th), the sign keying -0.0 apart from 0.0 as each
    # row prints its a_th, and one marked set per n (plan.N follows from n), so
    # its ones are counted once (MarkedSet.ones): plain dicts of this call, so
    # none outlives it.  A sampled sweep builds one generator that each row
    # re-keys to its own stream (core.rekey); a row reads A_m off its plan's
    # checked theta once sign_error_rate has checked m.
    plans: dict = {}
    marked_sets: dict = {}
    sampled = model.gaussian_noise_sigma or (any(values) if var == "shots" else model.shots)
    rng = stream(model.seed, ROW, 0) if sampled else None

    def row(index: int, value) -> str:
        row_seed = model.seed ^ index
        n = value if var == "N" else config["n"]
        a_th = value if var == "a_th" else config["a_th"]
        key = (n, a_th, math.copysign(1.0, a_th))
        if (plan := plans.get(key)) is None:
            plan = plans[key] = make_plan(n, config["m_count"], a_th)
        if (marked := marked_sets.get(n)) is None:
            marked = marked_sets[n] = _marked_set(n, plan.N, config)
        m = value if var == "m" else _iterations(config, plan)
        shots = value if var == "shots" else model.shots
        row_model = EnsembleModel(shots, row_seed, model.gaussian_noise_sigma)
        error_rate = sign_error_rate(marked, m, 1, row_model, trials=trials, row=index, rng=rng)
        return _csv_row(plan, m, error_rate, row_seed, _attenuation(plan.N, plan.M, plan.theta, m))

    _emit(_csv_text([row(i, v) for i, v in enumerate(values)]), config["out"])
    audit = {
        "config": config,
        "sweep": {"variable": var, "values": values, "trials": trials},
    }
    sys.stderr.write(json.dumps(audit) + "\n")
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
                     help="ensemble samples per run, below 2^63; 0 = exact EVs")
    sub.add_argument("--sigma", type=float, default=0.0,
                     help="additive Gaussian readout noise width")
    sub.add_argument("--seed", type=int, default=0, help="master RNG seed")
    sub.add_argument("--out", type=str, default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser on each call; :func:`main` builds one and reuses it."""
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
                             "one-item EV A_m/M exceeds --a-th); an m where a marked "
                             "label weighs less than an unmarked one exits 2")

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
def _parser() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """:func:`build_parser` and each command's :func:`_pair_table` by command
    word, built on the first :func:`main` call and reused."""
    parser = build_parser()
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    return parser, {name: _pair_table(name, command) for name, command in commands.items()}


def _pair_table(name: str, command: argparse.ArgumentParser) -> tuple[dict, dict, set]:
    """What :func:`_read_pairs` reads off command ``name``'s parser: its
    option strings' actions, the command word and the default of every action
    that has one, and the required actions."""
    actions = command._actions
    defaults = {"command": name,
                **{a.dest: a.default for a in actions if a.default is not argparse.SUPPRESS}}
    return command._option_string_actions, defaults, {a for a in actions if a.required}


def _read_pairs(table: tuple[dict, dict, set], words: list) -> argparse.Namespace | None:
    """The namespace the top-level ``parse_args`` gives a command word and
    ``words``, read off that command's :func:`_pair_table`, when ``words``
    are exact ``--flag value`` pairs of one-value actions, no value starting
    with ``-``: each value takes its flag's type and choices, and the last of
    a repeated flag wins, as argparse does.  None on anything argparse must
    judge: an abbreviation, ``--flag=value``, ``-h``, ``--``, an odd word
    count, a value that fails its type or choices, or a missing required
    flag."""
    if len(words) % 2:
        return None
    options, defaults, required = table
    values = defaults.copy()
    seen = set()
    for flag, text in zip(words[::2], words[1::2]):
        action = options.get(flag) if type(flag) is str else None
        if action is None or action.nargs is not None or type(text) is not str or text[:1] == "-":
            return None
        try:
            value = action.type(text) if action.type else text
        except ValueError:
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        seen.add(action)
    if not required <= seen:
        return None
    return argparse.Namespace(**values)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``parse_args`` of the top-level parser, with an argv of a command word
    and exact pairs read by :func:`_read_pairs` instead."""
    parser, tables = _parser()
    argv = sys.argv[1:] if argv is None else argv
    table = tables.get(argv[0]) if argv else None
    args = _read_pairs(table, argv[1:]) if table else None
    return parser.parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` when None) and return its exit
    code; callable any number of times in one process.  A usage error raises
    ``SystemExit(2)``, as argparse does."""
    args = _parse(argv)
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
