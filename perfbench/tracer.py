"""Spans and counters at the grover_ev layer boundaries, recorded from outside.

The tracer wraps public functions at the name each caller looks up: the
importing module's attribute (``filtering.apply_grover``,
``cli.extract_location``) or the defining module's global when the caller
lives there (``measurement.exact_ev``, ``planner.attenuation``).  Nothing in
the program changes; ``uninstall`` puts every original back.

A span is ``(id, parent, name, start, end, op)``.  Spans stay in memory
until the benchmark writes them at the end.  Worker threads of the sweep
pool have no open span of their own, so their spans hang off the op's root
span.  A span's self time is its duration minus the union of its
children's intervals, so two overlapping worker threads are not
subtracted twice.
"""

from __future__ import annotations

import gzip
import itertools
import threading
import time
from collections import Counter, defaultdict

# Span name -> per-layer metric holding the sum of its self times.
TIME_METRICS = {
    "cli.main": "cli.main.self_s",
    "planner.make_plan": "planner.make_plan.s",
    "core.apply_grover": "core.apply_grover.s",
    "core.StateVector": "core.StateVector.s",
    "core.closed_form_state": "core.closed_form_state.s",
    "measurement.measure_all.exact": "measurement.measure_all.exact.s",
    "measurement.measure_all.sampled": "measurement.measure_all.sampled.s",
    "measurement.exact_ev": "measurement.exact_ev.s",
    "measurement.sign_error_rate": "measurement.sign_error_rate.s",
    "filtering.extract_location": "filtering.extract_location.self_s",
    "filtering.apply_correlation": "filtering.apply_correlation.s",
}

# Span name -> per-layer metric holding its number of spans.
CALL_METRICS = {
    "cli.main": "cli.main.calls",
    "planner.make_plan": "planner.make_plan.calls",
    "core.apply_grover": "core.apply_grover.calls",
    "core.StateVector": "core.StateVector.validations",
    "measurement.exact_ev": "measurement.exact_ev.calls",
    "filtering.apply_correlation": "filtering.apply_correlation.calls",
}

# Counters kept by the wrappers themselves.
COUNTERS = (
    "planner.attenuation.calls",
    "core.apply_grover.bytes_computed",
    "measurement.shots_drawn",
    "measurement.sampled_ev.calls",
    "filtering.runs",
    "filtering.branch_events",
    "filtering.verify_queries",
    "filtering.failures",
    "filtering.useful_runs",
)

AMPLITUDE_BYTES = 16  # one complex128 amplitude


class Tracer:
    """Installs the wrappers, collects spans and counts, derives self times."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._tallies: dict[str, itertools.count] = {}
        self._root = 0
        self._op = -1

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, self._op))

    def run_op(self, op_index: int, fn, *args):
        """Call ``fn(*args)`` as op ``op_index`` under a root ``cli.main`` span."""
        self._op = op_index
        span_id = next(self._ids)
        self._root = span_id
        self._stack().append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self._root = 0
            self.spans.append((span_id, 0, "cli.main", start, end, op_index))

    def add(self, name: str, amount=1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrap(self, owner, attr, name, observe=None, name_of=None):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            span_name = name_of(args, kwargs) if name_of is not None else name
            return self._timed(span_name, original, args, kwargs)

        self._patch(owner, attr, wrapper)

    def _count_wrap(self, owner, attr, counter, observe=None):
        original = getattr(owner, attr)
        # itertools.count steps atomically under the GIL and costs far less
        # than a lock; planner.attenuation runs up to 10^5 times per plan.
        tally = itertools.count()
        self._tallies[counter] = tally
        bump = tally.__next__

        def wrapper(*args, **kwargs):
            bump()
            if observe is not None:
                observe(args, kwargs)
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self, cli, core, measurement, planner, filtering) -> None:
        """Wrap every boundary the per-layer metrics need."""

        def grover_bytes(args, kwargs):
            self.add("core.apply_grover.bytes_computed", args[0].dim * AMPLITUDE_BYTES)

        def model_shots(model):
            if model.shots > 0:
                self.add("measurement.shots_drawn", model.shots)

        def readout_name(args, kwargs):
            model = args[1]
            model_shots(model)
            return "measurement.measure_all.sampled" if model.shots else "measurement.measure_all.exact"

        self._span_wrap(cli, "make_plan", "planner.make_plan")
        self._count_wrap(planner, "attenuation", "planner.attenuation.calls")
        self._span_wrap(filtering, "apply_grover", "core.apply_grover", observe=grover_bytes)
        self._span_wrap(core.StateVector, "__post_init__", "core.StateVector")
        self._span_wrap(cli, "closed_form_state", "core.closed_form_state")
        self._span_wrap(filtering, "measure_all", None, name_of=readout_name)
        self._span_wrap(measurement, "exact_ev", "measurement.exact_ev")
        self._count_wrap(measurement, "sampled_ev", "measurement.sampled_ev.calls",
                         observe=lambda args, kwargs: model_shots(args[2]))
        self._span_wrap(cli, "sign_error_rate", "measurement.sign_error_rate")
        self._span_wrap(filtering, "apply_correlation", "filtering.apply_correlation")

        extract = filtering.extract_location
        failure = filtering.SearchFailure

        def extract_location(marked, iterations, model, a_th):
            qubits = marked.universe_size.bit_length() - 1
            try:
                result = self._timed("filtering.extract_location", extract,
                                     (marked, iterations, model, a_th), {})
            except failure as exc:
                self.add("filtering.failures")
                self.add("filtering.runs", exc.total_runs)
                self.add("filtering.branch_events", exc.branch_events)
                raise
            self.add("filtering.runs", result.total_runs)
            self.add("filtering.branch_events", result.branch_events)
            self.add("filtering.verify_queries", result.verification_queries)
            self.add("filtering.useful_runs", qubits)
            return result

        self._patch(cli, "extract_location", extract_location)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for counter, tally in self._tallies.items():
            self.counts[counter] += next(tally)  # next() returns the calls so far
        self._tallies.clear()

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for span_id, parent, _name, start, end, _op in self.spans:
            children[parent].append((start, end))
        result = {}
        for span_id, _parent, _name, start, end, _op in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            result[span_id] = (end - start) - covered
        return result

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric: summed self times, span counts and counters."""
        own = self.self_times()
        metrics = {name: 0.0 for name in TIME_METRICS.values()}
        metrics.update({name: 0 for name in CALL_METRICS.values()})
        metrics.update({name: self.counts.get(name, 0) for name in COUNTERS})
        for span_id, _parent, name, _start, _end, _op in self.spans:
            if name in TIME_METRICS:
                metrics[TIME_METRICS[name]] += own[span_id]
            if name in CALL_METRICS:
                metrics[CALL_METRICS[name]] += 1
        useful = metrics.pop("filtering.useful_runs")
        runs = metrics["filtering.runs"]
        metrics["filtering.useful_run_frac"] = useful / runs if runs else 0.0
        return metrics

    def layer_shares(self) -> dict[str, float]:
        """Each span name's share of all self time.  Sweep rows on the thread
        pool overlap, so self times can add up to more than wall time."""
        own = self.self_times()
        total = sum(own.values())
        shares = Counter()
        for span_id, _parent, name, _start, _end, _op in self.spans:
            shares[name] += own[span_id] / total
        return dict(shares.most_common())

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as handle:
            handle.write("id,parent,name,start_s,end_s,op\n")
            for span_id, parent, name, start, end, op in self.spans:
                handle.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f},{op}\n")
