"""Spans recorded from outside paircert, and the per-layer metrics built on them.

`TracedFunction` wraps a function object the benchmark passes into the
public API and records one span per evaluation. `Tracer.span` records
the benchmark's own spans around each certificate and oracle call.
Nothing inside paircert is patched. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np

import paircert


class TracedFunction(paircert.BernoulliFunction):
    """Delegates to `inner` and records (name, method, start, end, thread, eps)."""

    def __init__(self, inner: paircert.BernoulliFunction, name: str, calls: list):
        super().__init__(inner.n)
        self.inner = inner
        self.name = name
        self._calls = calls

    def evaluate(self, eps):
        start = time.perf_counter()
        value = self.inner.evaluate(eps)
        self._calls.append((self.name, "evaluate", start, time.perf_counter(), threading.get_ident(), eps))
        return value

    def evaluate_with_g(self, eps):
        start = time.perf_counter()
        value = self.inner.evaluate_with_g(eps)
        self._calls.append((self.name, "evaluate_with_g", start, time.perf_counter(), threading.get_ident(), eps))
        return value

    @property
    def bounded_difference_constant(self):
        return self.inner.bounded_difference_constant

    @property
    def factorization_count(self) -> int:
        return self.inner.factorization_count


class Tracer:
    """Spans of one traced certificate."""

    def __init__(self):
        self.calls = []  # evaluation spans, appended from any worker thread
        self.blocks = []  # (name, start, end) of benchmark-level spans
        self.inner = {}  # name -> unwrapped function

    def wrap(self, name: str, fn: paircert.BernoulliFunction) -> TracedFunction:
        self.inner[name] = fn
        return TracedFunction(fn, name, self.calls)

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.blocks.append((name, start, time.perf_counter()))

    def block(self, name: str) -> tuple[float, float]:
        return next((start, end) for block, start, end in self.blocks if block == name)

    def durations(self, names=None, within=None) -> list[float]:
        """Evaluation span lengths, optionally filtered by function name
        and by the benchmark span that contains them."""
        lo, hi = within if within else (-np.inf, np.inf)
        return [end - start for name, _, start, end, _, _ in self.calls if (names is None or name in names) and lo <= start and end <= hi]

    def covered(self) -> float:
        """Length of the union of all evaluation spans."""
        total, reach = 0.0, -np.inf
        for start, end in sorted((start, end) for _, _, start, end, _, _ in self.calls):
            if end > reach:
                total += end - max(start, reach)
                reach = end
        return total

    def replay(self, limit: int = 2000) -> list[float]:
        """Re-run up to `limit` recorded calls, evenly spread, serially on the
        unwrapped functions, and return their durations."""
        step = max(1, len(self.calls) // limit)
        durations = []
        for name, method, _, _, _, eps in self.calls[::step]:
            call = getattr(self.inner[name], method)
            start = time.perf_counter()
            call(eps)
            durations.append(time.perf_counter() - start)
        return durations

    def records(self) -> dict:
        """All spans as rows of (name, start, end, thread, parent), times in
        seconds from the first benchmark span; an evaluation's parent is the
        innermost benchmark span that contains it."""
        origin = min(start for _, start, _ in self.blocks)
        rows = [[name, start - origin, end - origin, None, None] for name, start, end in self.blocks]
        for name, method, start, end, thread, _ in self.calls:
            parents = [b for b in self.blocks if b[1] <= start and end <= b[2]]
            parent = min(parents, key=lambda b: b[2] - b[1])[0] if parents else None
            rows.append([f"functions.{name}.{method}", start - origin, end - origin, thread, parent])
        return {"columns": ["name", "start_s", "end_s", "thread", "parent"], "spans": rows}


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def certificate_metrics(tracer: Tracer, prepared, factorizations: int) -> dict:
    """Per-layer metrics of one traced certificate: {metric: (value, samples)}.

    Metrics of a layer the workload does not run read 0 with 0 samples.
    """
    cert_start, cert_end = tracer.block("certificate")
    span = cert_end - cert_start
    evals = tracer.durations()
    busy = sum(evals)
    n = prepared.workload.n
    resolvent = tracer.durations(prepared.resolvent_names)
    calls = len(evals)
    m = {
        "functions.calls": (calls, 1),
        "functions.factorizations": (factorizations, 1),
        "functions.eval_us.p50": (_p(evals, 50) * 1e6, calls),
        "functions.eval_us.p95": (_p(evals, 95) * 1e6, calls),
        "functions.eval_busy_s": (busy, calls),
        # computed, not counted: n^3 flops per dpotrf + dpotri
        "functions.gflop_s": (n**3 * len(resolvent) / sum(resolvent) / 1e9, len(resolvent)),
    }
    for name in ("f1", "g2"):
        own = tracer.durations({name})
        m[f"functions.{name}_eval_us.p50"] = (_p(own, 50) * 1e6, len(own))
    if prepared.workload.kind == "oracle":
        zero = (0.0, 0)
        m.update({key: zero for key in ("estimator.self_s", "estimator.self_us_per_eval", "estimator.overlap")})
        exact, spectrum, check = (tracer.block(f"oracle.{part}") for part in ("exact", "spectrum", "check"))
        inside = tracer.durations(within=(exact[0], spectrum[1]))
        m.update({
            "oracle.calls": (len(inside), 1),
            "oracle.exact_s": (exact[1] - exact[0], 1),
            "oracle.spectrum_s": (spectrum[1] - spectrum[0], 1),
            "oracle.check_ms": ((check[1] - check[0]) * 1e3, 1),
            "oracle.eval_us.p50": (_p(inside, 50) * 1e6, len(inside)),
        })
    else:
        self_s = span - tracer.covered()
        m.update({
            "estimator.self_s": (self_s, 1),
            "estimator.self_us_per_eval": (self_s / calls * 1e6, calls),
            "estimator.overlap": (busy / span, calls),
        })
        m.update({key: (0.0, 0) for key in ("oracle.calls", "oracle.exact_s", "oracle.spectrum_s", "oracle.check_ms", "oracle.eval_us.p50")})
    return m
