"""Benchmark-side tracing of nulgi's layers.

The tracer replaces, in the namespaces of the modules that call them, each
layer's public functions with timing wrappers: what pipeline, selection and
montecarlo call is what gets measured, and nothing in src/ changes. Every
wrapped call is a span (name, start, end, parent, analysis id). A span's self
time is its duration minus the time covered by its child spans, so the self
times of all spans add up to the root span, the whole `nulgi analyze` call.

Per-tuple calls (K values, survival probabilities, evaluate_tuple) run tens
of thousands of times per analysis; they are aggregated into per-name self
time and call counts instead of being stored one by one.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np


def _on_select(tracer, bound, result):
    points, n = len(bound.arguments["dataset"]), bound.arguments["n"]
    # Candidate component multisets: the search space selection must cover.
    tracer.counts["selection.combos_scanned"] += math.comb(points + n - 2, n - 1)
    tracer.counts["selection.tuples_kept"] += len(result)


def _on_null(tracer, bound, result):
    points = len(bound.arguments["dataset"])
    tuples = bound.arguments["tuples"]
    replicas = bound.arguments["config"].replicas
    n_tuples = len(tuples)
    n = tuples[0].n
    tracer.counts["montecarlo.replica_tuple_evals"] += replicas * n_tuples
    # Computed from array sizes, not measured: float64 draws (replicas x
    # points), one gathered component array per component and the sum and
    # product accumulators (replicas x tuples each).
    tracer.counts["montecarlo.null_bytes_computed"] += 8 * replicas * (
        points + (n + 1) * n_tuples
    )
    tracer.counts["montecarlo.null_mean_count"] += float(np.mean(result))
    tracer.counts["montecarlo.null_tuples"] += n_tuples


def _on_normal(tracer, bound, result):
    tracer.counts["sampling.draws"] += int(np.size(result))


# (module, attribute, span name, store each span, counter hook, measure allocations)
WRAP_POINTS = (
    ("nulgi.cli", "run_analysis", "pipeline", True, None, False),
    ("nulgi.pipeline", "parse_dataset", "dataio.parse", True, None, False),
    ("nulgi.pipeline", "attach_phases", "selection.attach", True, None, False),
    ("nulgi.pipeline", "select_ntuples", "selection.select", True, _on_select, False),
    ("nulgi.pipeline", "evaluate_tuple", "selection.evaluate", False, None, False),
    ("nulgi.pipeline", "classical_null_distribution", "montecarlo.null", True, _on_null, True),
    ("nulgi.montecarlo", "normal", "sampling.normal", True, _on_normal, False),
    ("nulgi.pipeline", "fit_beta_binomial", "montecarlo.fit", True, None, False),
    ("nulgi.pipeline", "chi_square_quantum", "montecarlo.chi2", True, None, False),
    ("nulgi.pipeline", "emit_report", "dataio.emit_report", True, None, False),
    ("nulgi.pipeline", "write_table_csv", "dataio.write_table", True, None, False),
    ("nulgi.pipeline", "k_n_quantum_from_survival", "leggett_garg.kvalue", False, None, False),
    ("nulgi.pipeline", "k_n_classical", "leggett_garg.kvalue", False, None, False),
    ("nulgi.selection", "k_n_quantum_from_survival", "leggett_garg.kvalue", False, None, False),
    ("nulgi.montecarlo", "k_n_quantum_from_survival", "leggett_garg.kvalue", False, None, False),
    ("nulgi.pipeline", "survival_probability", "oscillation.survival", False, None, False),
    ("nulgi.montecarlo", "survival_probability", "oscillation.survival", False, None, False),
)


class Tracer:
    """Spans and counts kept in memory, per analysis, until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, analysis)
        self.analysis = None
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._reset()

    def _reset(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def begin(self, analysis) -> None:
        """Start collecting the self times and counts of one analysis."""
        self.analysis = analysis
        self._reset()

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def wrap(self, name, fn, keep=True, hook=None, measure_alloc=False):
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            if measure_alloc:
                started_here = not tracemalloc.is_tracing()
                if started_here:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if parent is not None:
                    parent[1] += duration
                if keep:
                    self.spans.append((
                        frame[0], name, start, end,
                        None if parent is None else parent[0], self.analysis,
                    ))
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.counts[name + "_peak_bytes"] = max(
                        self.counts[name + "_peak_bytes"], peak
                    )
                    if started_here:
                        tracemalloc.stop()
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs), result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn as a root span."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> tuple[list[str], callable]:
        """Wrap every WRAP_POINTS attribute that exists.

        Returns the wrap points that were not found and a function that
        restores the original attributes.
        """
        originals, missing = [], []
        for module_name, attr, name, keep, hook, alloc in WRAP_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            originals.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, keep, hook, alloc))

        def restore():
            for module, attr, fn in originals:
                setattr(module, attr, fn)

        return missing, restore
