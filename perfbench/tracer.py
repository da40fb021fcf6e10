"""Spans and counters for the benchmark's traced run.

Wrappers are installed at the module attributes through which reviewaudit's
own callers look functions up (``reviewaudit.cli.ingest_csv``,
``reviewaudit.agreement.rating_matrix`` ...), so no source file changes and a
function is traced exactly where the pipeline calls it. The untraced run
installs nothing: neither wrappers nor the GC callback.

A span is [name, start, end, parent, op]. Spans stay in memory and are
written out when the run ends. A layer's self time is the part of its spans'
intervals that no other span covers; it is computed from the intervals, which
nest (a GC pass never straddles a wrapper's clock read), so per op the self
times add up to the op's wall time.
"""

from __future__ import annotations

import functools
import gc
import gzip
import json
import math
import time
from collections import Counter, defaultdict

from reviewaudit import agreement, cli, did, estimation, hypotheses, report, simulate, special


def _rows(counts, args, result):
    counts["report.ingest_csv.rows"] += len(result)


def _validated(counts, args, result):
    counts["model.validate_dataset.rows_in"] += result.summary.n_input_records
    counts["model.validate_dataset.rows_kept"] += result.summary.n_records


def _sections(counts, args, result):
    counts["report.sections_error"] += sum(s == "error" for s in result.statuses().values())


def _emitted(counts, args, result):
    counts["report.emit_report.bytes"] += len(result.encode("utf-8"))


def _fit(counts, args, result):
    counts["estimation.logistic_fit.iterations"] += result.iterations
    counts["estimation.logistic_fit.converged"] += result.converged


def _written(counts, args, result):
    counts["report.write_panel_csv.rows"] += sum(len(records) for _, records in args[1])


# (module, attribute, layer, counter called with the result on success)
WRAPS = (
    (cli, "main", "cli.main", None),
    (cli, "ingest_csv", "report.ingest_csv", _rows),
    (cli, "read_ground_truth_csv", "report.read_ground_truth_csv", None),
    (cli, "validate_dataset", "model.validate_dataset", _validated),
    (simulate, "validate_dataset", "model.validate_dataset", _validated),
    (cli, "run_audit", "report.run_audit", _sections),
    (cli, "emit_report", "report.emit_report", _emitted),
    (report, "analyze_agreement", "agreement.analyze_agreement", None),
    (agreement, "rating_matrix", "model.rating_matrix", None),
    (agreement, "pooled_rating_matrix", "agreement.pooled_rating_matrix", None),
    (agreement, "fleiss_kappa", "agreement.fleiss_kappa", None),
    (report, "contingency_from", "model.contingency_from", None),
    (report, "chi_square_independence", "hypotheses.chi_square_independence", None),
    (report, "two_sample_t", "hypotheses.two_sample_t", None),
    (report, "one_way_anova", "hypotheses.one_way_anova", None),
    (report, "binomial_ci", "estimation.binomial_ci", None),
    (report, "bias_factor_report", "estimation.bias_factor_report", None),
    (estimation, "ols_fit", "estimation.ols_fit", None),
    (estimation, "logistic_fit", "estimation.logistic_fit", _fit),
    # Clopper-Pearson bisection calls the kernel through estimation; the t
    # and F tails call it through special's own globals.
    (estimation, "regularized_incomplete_beta", "special.regularized_incomplete_beta", None),
    (special, "regularized_incomplete_beta", "special.regularized_incomplete_beta", None),
    (hypotheses, "chi_square_upper_tail", "special.upper_tail", None),
    (hypotheses, "student_t_upper_tail", "special.upper_tail", None),
    (hypotheses, "f_upper_tail", "special.upper_tail", None),
    (hypotheses, "normal_upper_tail", "special.upper_tail", None),
    (simulate, "inject_review_change", "simulate.inject_review_change", None),
    (did, "did_with_error_rates", "did.did_with_error_rates", None),
    (did, "reviewer_classifications", "did.reviewer_classifications", None),
    (report, "write_panel_csv", "report.write_panel_csv", _written),
)
# Called tens of thousands of times per simulated panel: counted, no span.
COUNTED = ((simulate, "derive_stream", "rng.derive_stream"),)

# Per-layer metrics: times are seconds per op, counts are per op.
# A ".s" metric is the inclusive time of the layer named before it, ".self_s"
# its self time and ".calls" its span count; other names are counters.
PER_LAYER = (
    ("report.ingest_csv.s", "s"),
    ("report.ingest_csv.rows", "count"),
    ("model.validate_dataset.s", "s"),
    ("model.validate_dataset.rows_in", "count"),
    ("model.validate_dataset.kept_ratio", "ratio"),
    ("model.rating_matrix.s", "s"),
    ("agreement.pooled_rating_matrix.s", "s"),
    ("agreement.fleiss_kappa.s", "s"),
    ("agreement.analyze_agreement.self_s", "s"),
    ("model.contingency_from.s", "s"),
    ("hypotheses.chi_square_independence.s", "s"),
    ("hypotheses.chi_square_independence.calls", "count"),
    ("hypotheses.two_sample_t.s", "s"),
    ("hypotheses.one_way_anova.s", "s"),
    ("special.regularized_incomplete_beta.calls", "count"),
    ("special.regularized_incomplete_beta.s", "s"),
    ("special.upper_tail.calls", "count"),
    ("special.upper_tail.s", "s"),
    ("estimation.binomial_ci.s", "s"),
    ("estimation.binomial_ci.calls", "count"),
    ("estimation.bias_factor_report.self_s", "s"),
    ("estimation.ols_fit.s", "s"),
    ("estimation.logistic_fit.s", "s"),
    ("estimation.logistic_fit.iterations", "count"),
    ("estimation.logistic_fit.converged_ratio", "ratio"),
    ("report.run_audit.self_s", "s"),
    ("report.sections_error", "count"),
    ("report.emit_report.s", "s"),
    ("report.emit_report.bytes", "bytes"),
    ("report.read_ground_truth_csv.s", "s"),
    ("cli.main.self_s", "s"),
    ("simulate.inject_review_change.self_s", "s"),
    ("rng.derive_stream.calls", "count"),
    ("did.did_with_error_rates.s", "s"),
    ("did.reviewer_classifications.s", "s"),
    ("report.write_panel_csv.s", "s"),
    ("report.write_panel_csv.rows", "count"),
    ("gc.s", "s"),
    ("gc.gen2_collections", "count"),
)


class Tracer:
    """Records spans and counters while installed; one op at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.ops = 0
        self._stack: list[int] = []
        self._op = None
        self._patches = [(module, attr, getattr(module, attr),
                          self._wrap(getattr(module, attr), layer, counter))
                         for module, attr, layer, counter in WRAPS]
        self._patches += [(module, attr, getattr(module, attr),
                           self._count(getattr(module, attr), f"{layer}.calls"))
                          for module, attr, layer in COUNTED]

    def _begin(self, name: str) -> None:
        # Only the list display allocates a GC-tracked object, so a GC pass
        # (which opens its own span) cannot fall between the bookkeeping lines.
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()

    def _end(self) -> None:
        end = time.perf_counter()
        self.spans[self._stack.pop()][2] = end

    def _wrap(self, func, layer, counter):
        begin, end, counts = self._begin, self._end, self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            begin(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                end()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def _count(self, func, name):
        counts = self.counts

        @functools.wraps(func)
        def counted(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return counted

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._begin("gc")
        else:
            self._end()
            if info["generation"] == 2:
                self.counts["gc.gen2_collections"] += 1

    def begin_op(self, op: int) -> None:
        """Open the op's root span, then install the wrappers and GC callback."""
        self._op = op
        self._begin("op")
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def end_op(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        self._end()
        self._op = None
        self.ops += 1

    def _times(self):
        """Inclusive and self seconds by layer, and per op (wall, sum of selfs)."""
        inclusive: defaultdict[str, float] = defaultdict(float)
        self_time: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        by_op: defaultdict[object, list] = defaultdict(list)
        walls = {}
        for index, (name, start, end, _, op) in enumerate(self.spans):
            inclusive[name] += end - start
            calls[name] += 1
            if name == "op":
                walls[op] = end - start
            # ends sort before starts at one instant; children end first, parents start first
            by_op[op] += [(start, 1, index), (end, 0, -index)]
        balances = []  # per op: (wall, sum of self times)
        for op, events in by_op.items():
            events.sort()
            open_spans: list[int] = []
            op_self: defaultdict[str, float] = defaultdict(float)
            previous = events[0][0]
            for instant, is_start, key in events:
                if open_spans:
                    op_self[self.spans[open_spans[-1]][0]] += instant - previous
                previous = instant
                if is_start:
                    open_spans.append(key)
                else:
                    open_spans.remove(-key)
            for name, seconds in op_self.items():
                self_time[name] += seconds
            balances.append((walls[op], math.fsum(op_self.values())))
        return inclusive, self_time, calls, balances

    def report(self) -> tuple[dict, list[str], list[str]]:
        """Per-layer metrics, layers never called, and self-time problems."""
        inclusive, self_time, calls, balances = self._times()
        counts, ops = self.counts, max(self.ops, 1)
        values = {}
        for metric, unit in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            if stat == "s":
                value = inclusive[layer] / ops
            elif stat == "self_s":
                value = self_time[layer] / ops
            elif metric == "model.validate_dataset.kept_ratio":
                rows_in = counts["model.validate_dataset.rows_in"]
                value = counts["model.validate_dataset.rows_kept"] / rows_in if rows_in else 0.0
            elif metric == "estimation.logistic_fit.converged_ratio":
                fits = calls["estimation.logistic_fit"]
                value = counts["estimation.logistic_fit.converged"] / fits if fits else 0.0
            elif stat == "calls" and metric not in counts:
                value = calls[layer] / ops
            else:
                value = counts[metric] / ops
            values[metric] = {"value": value, "unit": unit}
        layers = sorted({layer for _, _, layer, _ in WRAPS} | {layer for *_, layer in COUNTED})
        uncalled = [layer for layer in layers
                    if not calls[layer] and not counts[f"{layer}.calls"]]
        problems = [f"op self times sum to {total:.9f} s, wall {wall:.9f} s"
                    for wall, total in balances
                    if abs(total - wall) > 1e-9 + 1e-9 * wall]
        return values, uncalled, problems

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as stream:
            for name, start, end, parent, op in self.spans:
                stream.write(json.dumps({"op": op, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
