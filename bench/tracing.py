"""Spans around the benchmark's calls into lcsg, and the per-layer metrics.

A span records one call into a layer: its name (``<layer>.<call>``), start
and end, the span that was open when it began, the operation it belongs
to, and one work count (tokens, productions, bytes, steps, or context
length, depending on the call).  Spans are kept in memory and written out
when the run ends.  With tracing off, ``span`` hands back one shared no-op
object, so untimed runs pay an attribute lookup per call and nothing else.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path


class _Span:
    __slots__ = ("tracer", "name", "work", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer, self.name, self.work = tracer, name, 0

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.id = tr.next_id
        tr.next_id += 1
        self.parent = tr.stack[-1] if tr.stack else None
        tr.stack.append(self.id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter_ns()
        tr = self.tracer
        tr.stack.pop()
        tr.spans.append((self.id, self.name, self.start, end, self.parent, tr.op, self.work))
        return False


class _NullSpan:
    work = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL = _NullSpan()


class Tracer:
    """Collects spans when enabled; ``op`` labels the spans that follow."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.op: str = "setup"

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for sid, name, start, end, parent, op, work in self.spans:
                f.write(json.dumps({
                    "id": sid, "name": name, "start_us": start / 1e3, "end_us": end / 1e3,
                    "parent": parent, "op": op, "work": work,
                }) + "\n")


class TimedPredictor:
    """Stands in for a predictor and records a span around each call."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.family = inner.family
        self.vocabulary = inner.vocabulary
        self.initial_state = inner.initial_state
        self.finite_state = inner.finite_state
        self._name = f"predictors.{inner.family}.call"

    def next_distribution(self, state, context):
        with self.tracer.span(self._name) as s:
            s.work = len(context)
            return self.inner.next_distribution(state, context)


# ---------------------------------------------------------------------------
# Per-layer metrics

# (metric, unit, span name, statistic, filter on work)
# Statistics: "median" of durations, "count" of round-0 spans, "work" = mean work,
# "self_per_work" = summed duration minus child spans, per unit of work.
LAYER_METRICS: tuple[tuple[str, str, str, str, int | None], ...] = (
    ("setup.import_s", "s", "setup.import", "median", None),
    ("grammar_io.parse_us", "us", "grammar_io.parse_grammar", "median", None),
    ("grammar.hash_us", "us", "grammar.hash", "median", None),
    ("derivation.search_ms", "ms", "derivation.search", "median", None),
    ("derivation.query_us", "us", "derivation.query", "median", None),
    ("derivation.successors_us", "us", "derivation.successors", "median", None),
    ("derivation.successors_calls", "count", "derivation.successors", "count", None),
    ("stochastic.exact_ms", "ms", "stochastic.exact_distribution", "median", None),
    ("stochastic.string_probability_ms", "ms", "stochastic.string_probability", "median", None),
    ("stochastic.sample_us", "us", "stochastic.sample_derivation", "median", None),
    ("stochastic.sample_steps", "count", "stochastic.sample_derivation", "work", None),
    ("predictors.toy_attention.call_us_L8", "us", "predictors.toy_attention.call", "median", 8),
    ("predictors.toy_attention.call_us_L32", "us", "predictors.toy_attention.call", "median", 32),
    ("predictors.toy_attention.call_us_L63", "us", "predictors.toy_attention.call", "median", 63),
    ("predictors.grammar.call_us", "us", "predictors.grammar.call", "median", None),
    ("predictors.ngram.call_us", "us", "predictors.ngram.call", "median", None),
    ("predictors.calls", "count", "predictors.", "count", None),
    ("autoregressive.loop_us_per_token", "us", "autoregressive.generate", "self_per_work", None),
    ("autoregressive.tokens_per_run", "count", "autoregressive.generate", "work", None),
    ("bridge.report_us", "us", "bridge.build_trace_report", "median", None),
    ("bridge.induce_ms", "ms", "bridge.induce_grammar", "median", None),
    ("bridge.induced_productions", "count", "bridge.induce_grammar", "work", None),
    ("bridge.equivalence_ms", "ms", "bridge.check_weak_equivalence", "median", None),
    ("traces.serialize_ms", "ms", "traces.serialize_trace", "median", None),
    ("traces.parse_ms", "ms", "traces.parse_trace", "median", None),
    ("traces.report_kb", "KB", "traces.serialize_trace", "work", None),
)

_NS_PER = {"s": 1e9, "ms": 1e6, "us": 1e3}


def _matching(spans: list[tuple], name: str, work: int | None) -> list[tuple]:
    if name.endswith("."):
        hit = [s for s in spans if s[1].startswith(name)]
    else:
        hit = [s for s in spans if s[1] == name]
    return [s for s in hit if work is None or s[6] == work]


def _workload_of(span: tuple) -> str:
    """Operation ids read ``<workload>/<round>.<index>``."""
    return span[5].split("/", 1)[0]


def unreached(spans: list[tuple]) -> list[str]:
    """The per-layer metrics that no span yet provides."""
    return [metric for metric, _, name, _, work in LAYER_METRICS if not _matching(spans, name, work)]


def layer_metrics(spans: list[tuple], order: list[str]) -> tuple[dict[str, dict], dict[str, str]]:
    """Every per-layer metric, and the workload whose spans gave it.

    A metric comes from the first workload in ``order`` that reaches its
    layer.  Counts are taken over round 0 alone, so that they do not grow
    with the number of rounds a run fits into its time.
    """
    children: dict[int, int] = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0) + (end - start)
    by_workload: dict[str, list[tuple]] = {}
    for s in spans:
        by_workload.setdefault(_workload_of(s), []).append(s)
    out, source = {}, {}
    for metric, unit, name, stat, work in LAYER_METRICS:
        wl, hit = next(((wl, h) for wl in order if (h := _matching(by_workload.get(wl, []), name, work))),
                       (None, []))
        if not hit:
            raise RuntimeError(f"no spans for per-layer metric {metric}")
        if stat == "median":
            value = statistics.median(e - s for _, _, s, e, _, _, _ in hit) / _NS_PER[unit]
        elif stat == "count":
            value = sum(1 for s in hit if s[5].startswith(f"{wl}/0."))
        elif stat == "work":
            value = statistics.fmean(s[6] for s in hit) / (1024 if unit == "KB" else 1)
        else:  # self_per_work
            self_ns = sum(e - s - children.get(sid, 0) for sid, _, s, e, _, _, _ in hit)
            value = self_ns / max(1, sum(s[6] for s in hit)) / _NS_PER[unit]
        out[metric] = {"value": value, "unit": unit}
        source[metric] = wl
    return out, source
