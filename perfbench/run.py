"""Benchmark of the grover-ev command line; see perfbench/README.md.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload search-single --seed 1 --seconds 25 --trace 0

The program is imported from ``./src`` and driven in-process through
``grover_ev.cli.main(argv)`` with its output captured, one op at a time (a
closed loop with one client).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run makes one pass over the ops, each once untraced and once traced, and
reports the per-layer metrics and the tracing overhead.  Details (sample
counts, op list digest, machine facts, layer shares) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import checker
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_LAUNCHES_PER_PASS = 3
MIN_PASSES = 3
SETUP_TIMEOUT_S = 60
# Sweep rows run on the cli thread pool.  Its rows hold the GIL almost all
# the time: on the 2-core reference machine a sweep pass took 7.0 s on one
# thread and 7.2 s on two, and with two threads whole runs differed by up to
# 45% in ops/s, as the host slowed the two cores independently.  One thread
# keeps the figures steady at no cost in speed.
SWEEP_THREADS = 1
WARMUP_OPS = 2

UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "runs_per_search": "count",
    "oracle_queries_per_search": "count",
    "ok_frac": "ratio",
    "peak_rss_mb": "MiB",
}


def _layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- program under test -------------------------------------------------------

def load_program(src: str):
    """Import grover_ev from ``src`` and refuse any other copy."""
    if not os.path.isfile(os.path.join(src, "grover_ev", "cli.py")):
        raise SystemExit(f"error: no grover_ev sources under {src}")
    sys.path.insert(0, src)
    modules = {name: importlib.import_module(f"grover_ev.{name}")
               for name in ("cli", "core", "measurement", "planner", "filtering")}
    package = sys.modules["grover_ev"]
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(src, "grover_ev"):
        raise SystemExit(f"error: imported grover_ev from {package.__file__}, not {src}")
    return package, modules


def run_op(main, argv):
    """One op: ``main(argv)`` with stdout and stderr captured; returns (rc, stdout, error)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv), out.getvalue(), None
        except Exception as exc:  # an op that crashes counts as failed, the run goes on
            return None, out.getvalue(), f"{type(exc).__name__}: {exc}"


def measure_setup(src: str, launches: int) -> list[tuple[float, float]]:
    """(wall, scaled) seconds from launching a fresh interpreter until
    ``import grover_ev.cli`` returns, for each of ``launches`` launches."""
    env = dict(os.environ, PYTHONPATH=src)
    code = "import grover_ev.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    samples = []
    for _ in range(launches):
        before = reference_time()
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                proc.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready\n" or proc.returncode != 0:
            raise SystemExit("error: a fresh interpreter could not import grover_ev.cli")
        wall = ready - start
        samples.append((wall, wall * REF_NOMINAL_S / ((before + reference_time()) / 2)))
    return samples


# -- timing at a fixed speed ----------------------------------------------------
#
# On the reference machine, a 2-core Xeon VM, the host changes the clock: a
# fixed pure-Python loop timed in 1 s buckets over 60 s ranged from 26 to
# 47 ms per chunk, and whole 25 s runs of one op list differed by up to 50%
# in ops/s.  Every end-to-end timing is
# therefore rescaled to a fixed speed: wall time x REF_NOMINAL_S / (the time
# a fixed reference kernel of Python and numpy work took right around it).
# The result reads as seconds at the speed where the kernel takes exactly
# REF_NOMINAL_S.  Raw wall times go to the details file.

REF_NOMINAL_S = 1e-3  # the kernel at the reference machine's base clock
_REF_ARRAY = np.linspace(0.0, 1.0, 1 << 12)


def reference_kernel() -> float:
    """Wall seconds one fixed unit of Python and numpy work takes right now:
    float math and calls, small numpy calls, and allocation with hashing,
    the mix the workloads spend their time in."""
    start = time.perf_counter()
    for m in range(1, 600):
        checker.attenuation(1 << 30, 2, m)
    for _ in range(6):
        np.cumsum(_REF_ARRAY).searchsorted(0.5)
    table = {}
    for j in range(1500):
        table[str(j)] = j
    return time.perf_counter() - start


def reference_time() -> float:
    """Median of three kernel timings, so one interrupted timing is ignored."""
    return statistics.median(reference_kernel() for _ in range(3))


# -- machine facts --------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return None


def machine_facts(package, threads: int) -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(f"{base}/{index}/level")
        kind = _read(f"{base}/{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/{index}/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "grover_ev": getattr(package, "__version__", None),
        "GROVER_EV_THREADS": threads,
        "note": "States are at most 2^16 amplitudes = 1 MiB, inside L2.  Arrays of 4x the "
                "last-level cache, which a bandwidth figure needs, lie past MAX_QUBITS, so "
                "no bandwidth is claimed; core.apply_grover.bytes_computed is computed "
                "from array sizes, not measured.",
    }


# -- measurement ----------------------------------------------------------------

def timed_pass(main, ops):
    """One pass over ``ops``; returns (wall s, outcomes, per-op wall s, per-op scaled s)."""
    start = time.perf_counter()
    refs, walls, outcomes = [reference_kernel()], [], []
    for argv in ops:
        op_start = time.perf_counter()
        outcomes.append(run_op(main, argv))
        walls.append(time.perf_counter() - op_start)
        refs.append(reference_kernel())
    # Op i ran between refs[i] and refs[i + 1]; scale by the median of the
    # (up to) four kernel timings around it.
    scaled = [wall * REF_NOMINAL_S / statistics.median(refs[max(0, i - 1):i + 3])
              for i, wall in enumerate(walls)]
    return time.perf_counter() - start, outcomes, walls, scaled


def closed_loop(main, workload, seed, seconds, src):
    """Whole passes, one op at a time, until ``seconds`` have passed (a pass
    starts only if it should end in time) and at least MIN_PASSES ran.  Pass
    k runs ``workloads.generate(workload, seed, k)``.  SETUP_LAUNCHES_PER_PASS
    set-up launches precede each pass, so the set-up samples spread over the
    run like the op samples."""
    passes, setup = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - start + passes[-1][1] <= seconds):
        ops = workloads.generate(workload, seed, len(passes))
        setup += measure_setup(src, SETUP_LAUNCHES_PER_PASS)
        passes.append((ops, *timed_pass(main, ops)))
    return passes, setup


def check_all(ops, outcomes):
    """Check every outcome of ``ops``; returns (failure reasons, costs)."""
    failures, costs = [], []
    for i, (argv, (rc, stdout, error)) in enumerate(zip(ops, outcomes)):
        reason, cost = checker.check(argv, rc, stdout)
        if error is not None:
            reason = f"raised {error}"
        if reason is not None:
            failures.append({"op": i, "argv": argv, "reason": reason})
        else:
            costs.append(cost)
    return failures, costs


def _timings(setup, latencies, pass_totals, ops_per_pass):
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": deciles[8],
        "ops_per_s": statistics.median(ops_per_pass / total for total in pass_totals),
    }


def end_to_end(main, workload, seed, seconds, src):
    """The end-to-end metrics.  Timings are at the fixed speed (see above):
    p50 and p90 over every op of the run, ops/s the median of the passes'
    rates.  The exact counts cover the first MIN_PASSES passes, which every
    run makes, so they depend on the seed alone."""
    passes, setup = closed_loop(main, workload, seed, seconds, src)
    ops = [argv for p in passes for argv in p[0]]
    failures, _ = check_all(ops, [o for p in passes for o in p[2]])
    counted = [argv for p in passes[:MIN_PASSES] for argv in p[0]]
    _, costs = check_all(counted, [o for p in passes[:MIN_PASSES] for o in p[2]])
    costs = costs or [(0, 0)]
    latencies = [x for p in passes for x in p[4]]
    per_pass = len(passes[0][0])
    metrics = _timings([s for _, s in setup], latencies, [sum(p[4]) for p in passes], per_pass)
    metrics.update({
        "runs_per_search": statistics.fmean(c[0] for c in costs),
        "oracle_queries_per_search": statistics.fmean(c[1] for c in costs),
        "ok_frac": 1.0 - len(failures) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    p90 = metrics["op_p90_s"]
    samples = {
        "setup_s": len(setup),
        "passes": len(passes),
        "pass_wall_s": [p[1] for p in passes],
        "op_latency": len(latencies),
        "op_latency_beyond_p90": sum(1 for x in latencies if x > p90),
        "count_metrics_ops": len(counted),
        "counted_ops_digest": workloads.digest(counted),
        "unscaled": _timings([w for w, _ in setup], [x for p in passes for x in p[3]],
                             [sum(p[3]) for p in passes], per_pass),
    }
    return len(ops), failures, metrics, samples


def traced(main, ops, modules):
    """Each op once untraced and once traced, alternating which goes first, so
    drift over the run does not land on one side of the overhead ratio."""
    untraced_outcomes, traced_outcomes = [], []
    untraced_s = traced_s = 0.0
    trace = tracer.Tracer()
    for i, argv in enumerate(ops):
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            start = time.perf_counter()
            if traced_turn:
                trace.install(**modules)
                try:
                    traced_outcomes.append(trace.run_op(i, run_op, main, argv))
                finally:
                    trace.uninstall()
                traced_s += time.perf_counter() - start
            else:
                untraced_outcomes.append(run_op(main, argv))
                untraced_s += time.perf_counter() - start
    failures, _ = check_all(ops, untraced_outcomes)
    traced_failures, _ = check_all(ops, traced_outcomes)
    metrics = trace.layer_metrics()
    # 1 - traced ops/s over untraced ops/s, both over the same op list.
    metrics["trace.overhead_frac"] = 1.0 - untraced_s / traced_s
    samples = {"untraced_s": untraced_s, "traced_s": traced_s, "spans": len(trace.spans),
               "layer_shares": trace.layer_shares()}
    return 2 * len(ops), failures + traced_failures, metrics, samples, trace


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    package, modules = load_program(src)
    threads = SWEEP_THREADS
    os.environ["GROVER_EV_THREADS"] = str(threads)
    ops = workloads.generate(args.workload, args.seed)
    cli_main = modules["cli"].main

    measure_setup(src, 1)  # fills the bytecode cache; not counted
    for argv_ in ops[:WARMUP_OPS]:
        run_op(cli_main, argv_)

    trace = None
    if args.trace:
        attempted, failures, metrics, samples, trace = traced(cli_main, ops, modules)
        units = {name: _layer_unit(name) for name in metrics}
    else:
        attempted, failures, metrics, samples = end_to_end(
            cli_main, args.workload, args.seed, args.seconds, src)
        units = UNITS

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if trace is not None:
        trace.write_spans(stem + ".spans.csv.gz")
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops_per_pass": len(ops), "ops_digest": workloads.digest(ops),
        "attempted": attempted, "failures": failures[:20], "failed": len(failures),
        "metrics": metrics, "samples": samples,
        "machine": machine_facts(package, threads),
    }
    with open(stem + ".json", "w") as handle:
        json.dump(details, handle, indent=2)

    shares = samples.pop("layer_shares", {})
    print(f"# {args.workload} seed={args.seed} ops/pass={len(ops)} "
          f"digest={details['ops_digest'][:16]} samples={json.dumps(samples)}")
    for name, share in list(shares.items())[:8]:
        print(f"# self-time share {share:6.1%}  {name}")
    for failure in failures[:5]:
        print(f"# failed op {failure['op']}: {failure['reason']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
