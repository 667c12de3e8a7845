"""Byte identity of every benchmark op, against checked-in digests.

Every op of ``perfbench/workloads.py`` for seeds 1-3 and passes 0-2 (5,292
ops) runs through ``cli.main`` in process, with argparse's parse methods
refused: every op is read off the command pair tables.  Each op is hashed
as SHA-256 over ``json.dumps([argv, code, stdout, stderr])``;
``benchmark_bytes.json`` holds one short digest per op, one SHA-256 per
workload over its ops in seed, pass and op order, the SHA-256 over all ops,
workloads in ``WORKLOADS`` order, and the numpy version that drew them.
Sampled ops read numpy's ``Generator`` streams, so a mismatch names both
numpy versions beside the first ops whose digest moved.

A change that means to alter outputs re-records the file explicitly:

    PYTHONPATH=src python tests/test_benchmark_bytes.py

Both a failure and a re-record report the moved ops per workload, exact ops
(a ``plan``, or ``--shots 0`` at sigma 0, which draw nothing) apart from
sampled ones: a change to the random streams moves sampled ops alone.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_name("benchmark_bytes.json")
SEEDS = (1, 2, 3)
PASSES = (0, 1, 2)
DIGEST_CHARS = 12  # of each op's SHA-256, in the record
SHOWN = 5  # moved ops a failure names


def load_workloads():
    """``perfbench/workloads.py``, loaded by path: ``perfbench`` is no package."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_ops():
    """(workload, argv, bytes hashed) of every op, in record order."""
    from grover_ev.cli import main

    workloads = load_workloads()
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for pass_index in PASSES:
                for argv in workloads.generate(name, seed, pass_index):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(list(argv))
                    yield name, argv, json.dumps([argv, code, out.getvalue(),
                                                  err.getvalue()]).encode()


def measure():
    """The record of this checkout, and every op's (workload, argv) in record order."""
    overall, per_workload, digests, argvs = hashlib.sha256(), {}, [], []
    for name, argv, text in run_ops():
        overall.update(text)
        per_workload.setdefault(name, hashlib.sha256()).update(text)
        digests.append(hashlib.sha256(text).hexdigest()[:DIGEST_CHARS])
        argvs.append((name, argv))
    record = {
        "numpy": np.__version__,
        "overall": overall.hexdigest(),
        "workloads": {name: h.hexdigest() for name, h in per_workload.items()},
        "ops": digests,
    }
    return record, argvs


def draws(argv):
    """Whether an op samples: a search or sweep with shots or noise, or a
    sweep over shots (every benchmark one reads 64 shots or more)."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    return argv[0] != "plan" and (int(flags.get("--shots", "0")) != 0
                                  or float(flags.get("--sigma", "0")) != 0.0
                                  or flags.get("--sweep") == "shots")


def moved_ops(now, then):
    """The indices of the ops whose digests differ between two op lists."""
    return [i for i, (a, b) in enumerate(zip(now, then)) if a != b]


def moved_lines(moved, argvs):
    """One line per workload: how many of its exact and of its sampled ops
    are among the op indices ``moved``."""
    tally = {}
    for i, (name, argv) in enumerate(argvs):
        kinds = tally.setdefault(name, {"exact": [0, 0], "sampled": [0, 0]})
        count = kinds["sampled" if draws(argv) else "exact"]
        count[0] += i in moved
        count[1] += 1
    return [f"  {name}: " + ", ".join(f"{m} of {total} {kind} ops moved"
                                     for kind, (m, total) in kinds.items() if total)
            for name, kinds in tally.items()]


def refuse(*args, **kwargs):
    raise AssertionError("a benchmark op reached argparse")


def test_benchmark_ops_print_the_recorded_bytes(monkeypatch):
    recorded = json.loads(RECORD.read_text())
    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        patch.setattr(argparse.ArgumentParser, "parse_args", refuse)
        current, argvs = measure()
    assert len(argvs) == len(recorded["ops"]) == 5292
    if all(current[key] == recorded[key] for key in ("overall", "workloads", "ops")):
        return
    moved = moved_ops(current["ops"], recorded["ops"])
    lines = [f"{len(moved)} of {len(argvs)} benchmark ops print other bytes than recorded "
             f"(numpy {current['numpy']} now, {recorded['numpy']} in the record):"]
    lines += moved_lines(set(moved), argvs) + ["the first:"]
    lines += [f"  op {i} ({argvs[i][0]}): {' '.join(argvs[i][1])}" for i in moved[:SHOWN]]
    raise AssertionError("\n".join(lines))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    record, argvs = measure()
    if RECORD.exists():
        moved = set(moved_ops(record["ops"], json.loads(RECORD.read_text())["ops"]))
        print("\n".join([f"{len(moved)} of {len(argvs)} ops moved:", *moved_lines(moved, argvs)]))
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {RECORD}")
