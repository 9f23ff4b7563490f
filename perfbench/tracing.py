"""Traced passes: spans and counts per layer, recorded from outside the program.

Nothing under ``src/`` changes. The tracer wraps the public functions a
pass calls, and, for the duration of a traced pass, replaces the public
functions that each library module resolves from its own globals at
call time (``assignment.canonical_form``, ``uncomplexity.laplacian_spectrum``
and so on). Spans stay in memory as ``(name, start, end, parent, pair)``
tuples; the layer is the part of the name before the first dot.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import numpy
import swapbound.assignment
import swapbound.uncomplexity

LAYERS = ("circuits", "assignment", "uncomplexity", "spectral", "oracle")

# Span names for the entry points a pass calls (see pipeline.plain_api).
CALL_SITE_SPANS = {
    "parse_circuit_json": "circuits.parse_circuit",
    "parse_circuit_qasm_subset": "circuits.parse_circuit",
    "parse_device": "circuits.parse_device",
    "interaction_graph": "circuits.interaction_graph",
    "assign_qubits": "assignment.assign_qubits",
    "max_swap_bound": "assignment.max_swap_bound",
    "beta_sweep": "uncomplexity.sweep",
    "brute_force_min_swaps": "oracle.brute_force_min_swaps",
}


def _count_vf2(counts, args, result):
    counts["assignment.vf2_hits"] += result is not None


def _count_run(counts, args, result):
    trace = result[1]
    counts["uncomplexity.iterations"] += trace.iterations
    counts["uncomplexity.stalled_runs"] += trace.stalled
    counts["uncomplexity.forced_swaps"] += sum(
        1 for step in trace.steps if getattr(step, "forced", False)
    )


def _count_sweep(counts, args, result):
    # Betas up to and including the first that reaches m_star.
    first = next(
        i for i, (_, m, stalled) in enumerate(result.per_beta)
        if m == result.m_star and not stalled
    )
    counts["uncomplexity.useful_runs"] += first + 1
    counts["uncomplexity.swept_runs"] += len(result.per_beta)


def _count_eigvalsh(counts, args, result):
    matrices = 1
    for size in args[0].shape[:-2]:
        matrices *= size
    counts["spectral.eigvalsh_matrices"] += matrices


OBSERVERS = {
    "assignment.vf2": _count_vf2,
    "uncomplexity.run": _count_run,
    "uncomplexity.sweep": _count_sweep,
    "spectral.eigvalsh": _count_eigvalsh,
}

# (module, attribute, span name) replaced inside a traced pass.
MODULE_PATCHES = (
    (swapbound.assignment, "vf2_embed", "assignment.vf2"),
    (swapbound.assignment, "canonical_form", "assignment.canonical"),
    (swapbound.assignment, "graph_edit_distance", "assignment.ged"),
    (swapbound.assignment, "most_connected_subgraph", "assignment.dense"),
    (swapbound.uncomplexity, "swap_uncomplexity", "uncomplexity.run"),
    (swapbound.uncomplexity, "laplacian_spectrum", "spectral.laplacian_spectrum"),
    (numpy.linalg, "eigvalsh", "spectral.eigvalsh"),
)


class Tracer:
    """Spans and counts of the current traced pass; ``clear()`` starts the next."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._pair_id = ""

    def clear(self):
        self.spans.clear()  # the wrappers hold these very objects
        self.counts.clear()

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self._pair_id)
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """One span from the first item to exhaustion or close; no children."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            start = time.perf_counter()
            produced = 0
            try:
                for item in fn(*args, **kwargs):
                    produced += 1
                    yield item
            finally:
                spans.append((name, start, time.perf_counter(), parent, self._pair_id))
                counts[name] += produced

        return traced

    def wrap_api(self, api):
        return type(api)(**{
            attr: self.wrap(CALL_SITE_SPANS[attr], fn) for attr, fn in vars(api).items()
        })

    def pair_call(self, pair_id: str, fn):
        """``fn`` wrapped in the root span of one pair."""
        self._pair_id = pair_id
        return self.wrap("bench.pair", fn)

    @contextlib.contextmanager
    def patched(self):
        """Route the library's internal calls through spans for one traced pass."""
        saved = []
        try:
            for module, attr, name in MODULE_PATCHES:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            module = swapbound.assignment
            saved.append((module, "connected_subsets", module.connected_subsets))
            module.connected_subsets = self.wrap_generator(
                "assignment.subsets", module.connected_subsets
            )
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)



def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list, counts: Counter, cache_hits: int, cache_misses: int) -> dict:
    """Per-layer metrics of one traced pass from its spans and counts.

    A layer's self time is its spans' time minus the time of their child
    spans, so no millisecond of the pass is counted in two layers.
    """
    ms = defaultdict(float)  # inclusive time per span name
    calls = Counter()
    child_ms = defaultdict(float)
    for name, start, end, parent, _ in spans:
        ms[name] += (end - start) * 1000.0
        calls[name] += 1
        if parent >= 0:
            child_ms[parent] += (end - start) * 1000.0
    self_ms = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_ms[name.split(".")[0]] += (end - start) * 1000.0 - child_ms[i]
    iterations = counts["uncomplexity.iterations"]
    metrics = {
        "circuits.parse_ms": sum(v for k, v in ms.items() if k.startswith("circuits.")),
        "assignment.ms": ms["assignment.assign_qubits"],
        "assignment.vf2_ms": ms["assignment.vf2"],
        "assignment.vf2_hit_ratio": _ratio(counts["assignment.vf2_hits"], calls["assignment.vf2"]),
        "assignment.subsets": counts["assignment.subsets"],
        "assignment.subsets_ms": ms["assignment.subsets"],
        "assignment.canonical_calls": calls["assignment.canonical"],
        "assignment.canonical_ms": ms["assignment.canonical"],
        "assignment.ged_calls": calls["assignment.ged"],
        "assignment.ged_ms": ms["assignment.ged"],
        "assignment.dense_ms": ms["assignment.dense"],
        "uncomplexity.sweep_ms": ms["uncomplexity.sweep"],
        "uncomplexity.runs": calls["uncomplexity.run"],
        "uncomplexity.iterations": iterations,
        "uncomplexity.us_per_iteration": _ratio(ms["uncomplexity.sweep"] * 1000.0, iterations),
        "uncomplexity.forced_swaps": counts["uncomplexity.forced_swaps"],
        "uncomplexity.stalled_runs": counts["uncomplexity.stalled_runs"],
        "uncomplexity.useful_runs_ratio": _ratio(
            counts["uncomplexity.useful_runs"], counts["uncomplexity.swept_runs"]
        ),
        "spectral.laplacian_calls": calls["spectral.laplacian_spectrum"],
        "spectral.cache_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "spectral.eigvalsh_calls": calls["spectral.eigvalsh"],
        "spectral.eigvalsh_matrices": counts["spectral.eigvalsh_matrices"],
        "spectral.eigvalsh_ms": ms["spectral.eigvalsh"],
        "oracle.ms": ms["oracle.brute_force_min_swaps"],
        "oracle.calls": calls["oracle.brute_force_min_swaps"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = self_ms[layer]
    return metrics
