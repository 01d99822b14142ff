"""Workload definitions for the paircert benchmark.

Every workload runs one public paircert entry point on inputs made from
the benchmark seed, and checks each result against a ground truth that
does not depend on the seed and is computed without paircert.

Each definition carries its one-line reason (`why`, mirrored in
BENCHMARK.json) and its layer predictions: for each per-layer metric,
the end-to-end metric it should move on that workload, or "~0" where it
should not move. Later performance changes cite these by workload and
metric name.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import paircert

GAMMA = 1.0
CERTIFY_LAMBDA = 1.0
# Tolerance of `paircert oracle` for the nonnegativity verdict.
ORACLE_TOL = 1e-10
# Relative agreement required between the oracle's coefficient 0, its exact
# expectation, and the benchmark's own enumeration.
ORACLE_RTOL = 1e-12
# Every workload graph is the 4-regular torus.
TORUS_DEGREE = 4
# Certificates run with one pair thread, not the CLI default of nproc: with
# two on a 2-core machine shared with other load, torus:15 run medians ranged
# from 1.2 s to 2.5 s. CHECK_THREADS is used once per run, outside the timed
# region, to check that the bytes do not depend on the thread count.
THREADS = 1
CHECK_THREADS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: entry point, sizes, rationale, predictions."""

    name: str
    why: str
    kind: str  # "certify", "dominated" or "oracle"
    side: int  # torus side m, n = m * m
    p: int | None  # sample count; None for the oracle
    h: str | None  # analytic function spec for the dominated mode
    tiny: dict  # overrides for the smoke-test size
    predictions: dict

    @property
    def n(self) -> int:
        return self.side * self.side


_COUNTS = "exact count; explains cert_s"

# The paper's torus:15, p=30 run (`paircert reproduce`, dense LAPACK at about
# 2.5 ms per evaluation) is not a workload: on a 2-core machine shared with
# other load, the spread of its run medians over ten seeds reached a quarter
# of their median even with one thread. The tier-1 acceptance test still
# runs it against its reference bracket.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small-many",
            why="19,901 evaluations at n=9: per-call numpy and Python overhead in functions plus pair dispatch in estimator dominate, so batching pays off here.",
            kind="certify",
            side=3,
            p=200,
            h=None,
            tiny={"p": 20},
            predictions={
                "sampling.sample_ms": "cert_s, under 1% (predicted no change)",
                "sampling.pair_product_us.p50": "cert_s",
                "graph.build_ms": "setup_s",
                "functions.calls": _COUNTS + " (19,901)",
                "functions.factorizations": _COUNTS + " (19,901)",
                "functions.eval_us.p50": "cert_s (call overhead)",
                "functions.eval_us.p95": "cert_s (call overhead)",
                "functions.eval_busy_s": "cert_s",
                "functions.gflop_s": "~0",
                "estimator.self_s": "cert_s",
                "estimator.self_us_per_eval": "cert_s",
                "estimator.overlap": "~0 (threads=1)",
                "estimator.contention": "~0 (threads=1)",
                "cli.overhead_ms": "nothing today; guards the CLI refactor",
            },
        ),
        Workload(
            name="spectral",
            why="certify_dominated: two evaluate-only passes over 1,771 pairs, eigvalsh for f1 against the resolvent g2, plus kappa quadrature in set-up.",
            kind="dominated",
            side=6,
            p=60,
            h="poly:0,0,1",
            tiny={"side": 3, "p": 8},
            predictions={
                "sampling.sample_ms": "cert_s, under 1% (predicted no change)",
                "graph.build_ms": "setup_s",
                "functions.calls": _COUNTS + " (2 x 1,771)",
                "functions.factorizations": _COUNTS + " (2 x 1,771)",
                "functions.f1_eval_us.p50": "cert_s",
                "functions.g2_eval_us.p50": "cert_s",
                "functions.kappa_ms": "setup_s",
                "estimator.self_s": "~0 next to the kernels; a fused single sweep shows here",
                "estimator.overlap": "~0 (threads=1)",
                "estimator.contention": "~0 (threads=1)",
                "cli.overhead_ms": "nothing today; guards the CLI refactor",
            },
        ),
        Workload(
            name="oracle",
            why="exact_expectation, walsh_spectrum and check_nonnegative at n=16 as in `paircert oracle`: the only workload that runs the oracle layer.",
            kind="oracle",
            side=4,
            p=None,
            h=None,
            tiny={"side": 3},
            predictions={
                "graph.build_ms": "setup_s",
                "functions.calls": _COUNTS + " (2 x 2^16)",
                "functions.factorizations": _COUNTS + " (2 x 2^16)",
                "functions.eval_us.p50": "cert_s",
                "oracle.calls": "cert_s; halves if the spectrum is computed once",
                "oracle.exact_s": "cert_s",
                "oracle.spectrum_s": "cert_s",
                "oracle.check_ms": "cert_s, under 1%",
                "oracle.eval_us.p50": "cert_s",
                "cli.overhead_ms": "nothing today; guards the CLI refactor",
            },
        ),
    )
}


def get(name: str, tiny: bool = False) -> Workload:
    """The named workload, shrunk to its smoke-test size when tiny."""
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, **workload.tiny) if tiny else workload


def _resolvent_reference(lam: float, side: int) -> float:
    """E[f] for the resolvent trace by enumerating all 2^n sign vectors,
    with numpy's general inverse on a torus Laplacian built here."""
    n = side * side
    lap = np.zeros((n, n))
    for a in range(side):
        for b in range(side):
            i = a * side + b
            for j in (((a + 1) % side) * side + b, ((a - 1) % side) * side + b, a * side + (b + 1) % side, a * side + (b - 1) % side):
                lap[i, j] = 1.0
    lap -= np.diag(lap.sum(axis=1))
    base = (lam + GAMMA) * np.eye(n) - lap
    traces = []
    block = 4096
    for start in range(0, 1 << n, block):
        masks = np.arange(start, min(start + block, 1 << n))
        signs = 1.0 - 2.0 * ((masks[:, None] >> np.arange(n)) & 1)
        matrices = np.broadcast_to(base, (len(masks), n, n)).copy()
        matrices[:, np.arange(n), np.arange(n)] -= lam * signs
        traces.extend(np.trace(np.linalg.inv(matrices), axis1=1, axis2=2).tolist())
    return math.fsum(traces) / (n * len(traces))


class Prepared:
    """A workload's graph and function objects, built once per process.

    Construction is the set-up that `setup_s` times: import, graph and
    Laplacian, function objects, kappa for the dominated mode, and one
    warm-up evaluation at all-ones.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        # The oracle enumerates every sign vector, so its seed picks the disorder.
        self.lam = random.Random(seed).uniform(0.5, 2.0) if workload.kind == "oracle" else CERTIFY_LAMBDA
        self.graph = paircert.build_torus_cayley(workload.side)
        self.params = paircert.ResolventParams(self.lam, GAMMA, paircert.laplacian(self.graph))
        ones = paircert.all_ones(workload.n)
        if workload.kind == "certify":
            self.functions = {"f": paircert.ResolventTraceFunction(self.params)}
            self.g_at_ones = self.functions["f"].evaluate_with_g(ones)[1]
        elif workload.kind == "dominated":
            h = paircert.AnalyticFunction.from_spec(workload.h)
            f1, f2 = paircert.dominating_resolvent_scale(h, self.params, self.graph)
            self.functions = {"f1": f1, "g2": paircert.GFunction(f2)}
            f1.evaluate(ones)
            self.g_at_ones = self.functions["g2"].evaluate(ones)
        else:
            # two objects, as `paircert oracle` builds them
            self.functions = {"f": paircert.ResolventTraceFunction(self.params), "f_spectrum": paircert.ResolventTraceFunction(self.params)}
            self.g_at_ones = None
            self.functions["f"].evaluate(ones)
        self.reference = None

    @property
    def resolvent_names(self) -> set[str]:
        """Names of the functions whose evaluations are one dpotrf + dpotri."""
        return {"g2"} if self.workload.kind == "dominated" else set(self.functions)

    def factorizations(self) -> int:
        return sum(fn.factorization_count for fn in self.functions.values())

    def compute_reference(self):
        """Ground truth for the checks; not part of set-up."""
        w = self.workload
        if w.kind == "dominated":
            # E[tr(H^2)]/n for H = -lam*D - Lap on a d-regular graph: the cross
            # term has mean zero, and ||Lap||_F^2 / n = d^2 + d.
            self.reference = self.lam**2 + TORUS_DEGREE**2 + TORUS_DEGREE
        else:
            exact = _resolvent_reference(self.lam, w.side)
            self.reference = (exact, exact)

    def run(self, threads: int = THREADS, wrap=None, span=None) -> dict:
        """One certificate (or oracle triple) through the public API.

        wrap(name, fn) may substitute each function object; span(name) is a
        context manager placed around each oracle call. Returns the result
        as a JSON-ready dict whose bytes must not vary between runs.
        """
        w = self.workload
        fns = {name: wrap(name, fn) if wrap else fn for name, fn in self.functions.items()}
        span = span or (lambda name: nullcontext())
        if w.kind == "certify":
            return paircert.certify(fns["f"], w.p, self.seed, threads=threads).to_json_dict()
        if w.kind == "dominated":
            return paircert.certify_dominated(fns["f1"], fns["g2"], w.p, self.seed, threads=threads).to_json_dict()
        with span("oracle.exact"):
            exact = paircert.exact_expectation(fns["f"])
        with span("oracle.spectrum"):
            spectrum = paircert.walsh_spectrum(fns["f_spectrum"])
        with span("oracle.check"):
            verdict = paircert.check_nonnegative(spectrum, ORACLE_TOL)
        return {
            "exact_expectation": exact,
            "min_coefficient": verdict.value,
            "min_coefficient_mask": verdict.mask,
            "nonnegative": verdict.ok,
            "coefficient_0": float(spectrum.coefficients[0]),
        }

    def check(self, doc: dict) -> list[str]:
        """Problems with one result; empty when it matches the ground truth."""
        kind, ref = self.workload.kind, self.reference
        if kind == "certify":
            lower, upper = ref
            if doc["lower"] <= upper and doc["upper"] >= lower:
                return []
            return [f"interval [{doc['lower']!r}, {doc['upper']!r}] misses the reference [{lower!r}, {upper!r}]"]
        if kind == "dominated":
            distance = abs(complex(doc["center_re"], doc["center_im"]) - ref)
            return [] if distance <= doc["radius"] else [f"center is {distance!r} from {ref!r}, radius {doc['radius']!r}"]
        problems = []
        exact = doc["exact_expectation"]
        if not doc["nonnegative"]:
            problems.append(f"verdict not nonnegative (min coefficient {doc['min_coefficient']!r})")
        if abs(doc["coefficient_0"] - exact) > ORACLE_RTOL * abs(exact):
            problems.append(f"coefficient 0 {doc['coefficient_0']!r} differs from E[f] {exact!r}")
        if abs(exact - ref[0]) > ORACLE_RTOL * abs(ref[0]):
            problems.append(f"E[f] {exact!r} differs from the enumerated reference {ref[0]!r}")
        return problems

    def width_rel(self, doc: dict) -> float | None:
        """Realized width over its expectation g(1,...,1)/p; None for the oracle."""
        if self.workload.kind == "certify":
            return (doc["upper"] - doc["lower"]) / doc["expected_width"]
        if self.workload.kind == "dominated":
            return doc["radius"] / (self.g_at_ones / self.workload.p)
        return None

    def cli_argv(self, out_path: str) -> list[str]:
        """The `paircert` command line that produces this workload's result."""
        w = self.workload
        argv = ["--graph", f"torus:{w.side}", "--lambda", repr(self.lam), "--gamma", repr(GAMMA), "--out", out_path]
        if w.kind == "oracle":
            return ["oracle", *argv]
        argv = ["certify", *argv, "--p", str(w.p), "--seed", str(self.seed), "--threads", str(THREADS)]
        if w.h is not None:
            argv += ["--h", w.h]
        return argv

    def cli_matches(self, cli_doc: dict, doc: dict) -> bool:
        """Whether the CLI document carries the same result as `doc`."""
        if self.workload.kind == "oracle":
            return all(cli_doc[key] == doc[key] for key in ("exact_expectation", "min_coefficient", "min_coefficient_mask", "nonnegative"))
        body = {key: value for key, value in doc.items() if key not in ("schema_version", "p", "seed")}
        return {key: value for key, value in cli_doc.items() if key not in ("schema_version", "config")} == body

    def standalone_probes(self) -> dict:
        """Per-layer timings of single public calls outside any certificate:
        {metric: (value, samples)}. Layers the workload does not use read 0."""
        w = self.workload
        zero = (0.0, 0)
        probes = {
            "graph.build_ms": _median_ms(lambda: paircert.ResolventParams(self.lam, GAMMA, paircert.laplacian(paircert.build_torus_cayley(w.side)))),
            "functions.kappa_ms": zero,
            "sampling.sample_ms": zero,
            "sampling.pair_product_us.p50": zero,
        }
        if w.kind == "dominated":
            h = paircert.AnalyticFunction.from_spec(w.h)
            probes["functions.kappa_ms"] = _median_ms(lambda: paircert.contour_norm_integral(h, self.graph.max_degree, self.lam, GAMMA))
        if w.kind != "oracle":
            probes["sampling.sample_ms"] = _median_ms(lambda: paircert.sample(w.p, w.n, self.seed), reps=21)
            samples = paircert.sample(w.p, w.n, self.seed)
            durations = []
            for i in range(w.p):
                for j in range(i + 1, w.p):
                    start = time.perf_counter()
                    paircert.pair_product(samples, i, j)
                    durations.append(time.perf_counter() - start)
            probes["sampling.pair_product_us.p50"] = (float(np.median(durations)) * 1e6, len(durations))
        return probes


def _median_ms(call, reps: int = 7) -> tuple[float, int]:
    durations = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        durations.append(time.perf_counter() - start)
    return float(np.median(durations)) * 1e3, reps
