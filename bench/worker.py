"""One workload process: set up, then time or trace certificates.

run.py starts this script with the checkout's `src` on PYTHONPATH and the
BLAS pinned to one thread. It prints "ready" once set-up is done,
then, unless --setup-only, one JSON line of raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed
import workloads
from tracing import Tracer, certificate_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


class Ledger:
    """Counts attempted and failed certificates.

    A certificate fails when it raises, misses its ground truth, or its
    JSON bytes differ from the first good result of the run (which also
    covers the run at another thread count).
    """

    def __init__(self, prepared: workloads.Prepared):
        self.prepared = prepared
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None
        self.first_bytes = None

    def record(self, label: str, doc: dict | None, error: str | None):
        problems = [error] if error else self.prepared.check(doc)
        if doc is not None:
            data = json.dumps(doc, sort_keys=True)
            if self.first is None:
                self.first = doc
                self.first_bytes = data
            elif data != self.first_bytes:
                problems.append("JSON bytes differ from the first result")
        self.count(label, problems)

    def count(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


def attempt(call, *args, **kwargs):
    """(result, None) or (None, traceback text); a raised exception is a failed certificate."""
    try:
        return call(*args, **kwargs), None
    except Exception:
        return None, traceback.format_exc()


def timed(call, *args, **kwargs):
    start = time.perf_counter()
    doc, error = attempt(call, *args, **kwargs)
    return time.perf_counter() - start, doc, error


def timed_run(prepared: workloads.Prepared, seconds: float, wrap=None) -> dict:
    """Closed loop of untraced certificates for `seconds`, checked afterwards.

    The certificate reference of speed.py runs before the first
    certificate and after each one, so that each certificate time can be
    scaled to the reference speed. `wrap` is passed through to
    `Prepared.run`; tests use it to inject faults.
    """
    results = []
    reference = speed.CertificateReference()
    references = [reference.seconds()]
    deadline = time.perf_counter() + seconds
    while True:
        results.append(timed(prepared.run, wrap=wrap))
        references.append(reference.seconds())
        if time.perf_counter() >= deadline:
            break
    # read before the checks, whose reference and extra run are not the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    prepared.compute_reference()
    ledger = Ledger(prepared)
    for rep, (_, doc, error) in enumerate(results):
        ledger.record(f"rep {rep}", doc, error)
    if prepared.workload.kind != "oracle":
        _, doc, error = timed(prepared.run, threads=workloads.CHECK_THREADS, wrap=wrap)
        ledger.record(f"threads={workloads.CHECK_THREADS}", doc, error)
    width = prepared.width_rel(ledger.first) if ledger.first else None
    return {
        "cert_wall_s": [elapsed for elapsed, _, _ in results],
        "cert_s": [speed.reference_seconds(elapsed, references[rep], references[rep + 1], speed.CERTIFICATE_NOMINAL_S) for rep, (elapsed, _, _) in enumerate(results)],
        "reference_s": references,
        "width_rel": width,
        "peak_rss_mb": peak_rss_mb,
        "ledger": ledger,
    }


def run_cli(prepared: workloads.Prepared) -> tuple[float, dict | None, str | None]:
    """One in-process `paircert.cli.main` with stdout and stderr captured."""
    from paircert import cli

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        out_path = str(Path(tmp) / "cli.json")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            elapsed, code, error = timed(cli.main, prepared.cli_argv(out_path))
        if error:
            return elapsed, None, error
        if code != 0:
            return elapsed, None, f"exit code {code}: {stderr.getvalue().strip()}"
        if Path(out_path).read_text(encoding="utf-8") != stdout.getvalue():
            return elapsed, None, "--out bytes differ from stdout"
        return elapsed, json.loads(stdout.getvalue()), None


def traced_run(prepared: workloads.Prepared, seconds: float, spans_path: Path) -> dict:
    """Untraced and traced certificates in alternation, then standalone probes."""
    ledger = Ledger(prepared)
    untraced, traced, per_rep = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        elapsed, doc, error = timed(prepared.run)
        untraced.append(elapsed)
        ledger.record(f"untraced rep {len(untraced) - 1}", doc, error)

        tracer = Tracer()
        before = prepared.factorizations()
        with tracer.span("certificate"):
            doc, error = attempt(prepared.run, wrap=tracer.wrap, span=tracer.span)
        ledger.record(f"traced rep {len(traced)}", doc, error)
        start, end = tracer.block("certificate")
        traced.append(end - start)
        if doc is not None:
            per_rep.append(certificate_metrics(tracer, prepared, prepared.factorizations() - before))
            last_rep, last = len(traced) - 1, tracer
        if time.perf_counter() >= deadline:
            break

    metrics = {}
    if per_rep:
        for name in per_rep[0]:
            metrics[name] = (statistics.median(rep[name][0] for rep in per_rep), sum(rep[name][1] for rep in per_rep))
        solo = last.replay()
        solo_p50 = statistics.median(solo) * 1e6
        metrics["functions.solo_eval_us.p50"] = (solo_p50, len(solo))
        if prepared.workload.kind == "oracle":
            metrics["estimator.contention"] = (0.0, 0)
        else:
            metrics["estimator.contention"] = (metrics["functions.eval_us.p50"][0] / solo_p50, len(solo))
        OUT_DIR.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps({"traced_rep": last_rep, **last.records()}), encoding="utf-8")
    metrics.update(prepared.standalone_probes())

    cli_s, cli_doc, error = run_cli(prepared)
    if error is None and ledger.first is not None and not prepared.cli_matches(cli_doc, ledger.first):
        error = "CLI document differs from the API result"
    ledger.count("cli", [error] if error else [])
    base = statistics.median(untraced)
    width = prepared.width_rel(ledger.first) if ledger.first else None
    metrics["cli.main_s"] = (cli_s, 1)
    metrics["cli.overhead_ms"] = ((cli_s - base) * 1e3, 1)
    metrics["trace.overhead"] = (statistics.median(traced) / base - 1.0, len(traced))
    metrics["estimator.width_rel"] = (width or 0.0, 1 if width else 0)
    return {"per_layer": metrics, "ledger": ledger}


def library_environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {key: info.get(key) for key in ("name", "version", "openblas configuration")}

    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    source = Path(workloads.paircert.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"error: paircert was imported from {source}, not from this checkout's src/", file=sys.stderr)
        return 2
    prepared = workloads.Prepared(workloads.get(args.workload, tiny=args.tiny), args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        prepared.compute_reference()
        result = traced_run(prepared, args.seconds, OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        result = timed_run(prepared, args.seconds)
    ledger = result.pop("ledger")
    for problem in ledger.problems[:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    result.update({"attempted": ledger.attempted, "failed": ledger.failed, "environment": library_environment()})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
