"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Smoke runs use each workload at its tiny size; the fault-injection test
runs the real `small-many` workload once.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import paircert  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180)


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workload_reasons_match_the_definitions():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for workload in workloads.WORKLOADS.values():
        assert set(workload.predictions) <= per_layer, workload.name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(name, trace):
    seeds = (1, 2) if trace == 0 else (1,)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    for seed in seeds:
        proc = run_bench("--workload", name, "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
        table = "\n".join(lines[:-1])
        for metric in wanted:
            assert re.search(rf"^{re.escape(metric['name'])} +\S+ +{re.escape(metric['unit'])} +samples=\d+$", table, re.M), metric["name"]
        if trace == 0:
            assert re.search(r"^fail_ratio +0 +ratio +samples=0/\d+$", table, re.M)
            assert re.search(r"^width_rel ", table, re.M)
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_cost_model_counts_are_exact():
    prepared = workloads.Prepared(workloads.get("small-many"), 1)
    tracer = worker.Tracer()
    before = prepared.factorizations()
    with tracer.span("certificate"):
        prepared.run(wrap=tracer.wrap, span=tracer.span)
    metrics = worker.certificate_metrics(tracer, prepared, prepared.factorizations() - before)
    assert metrics["functions.calls"][0] == metrics["functions.factorizations"][0] == 200 * 199 // 2 + 1


class Shifted(paircert.BernoulliFunction):
    """f + 1e-3: a wrong function that keeps g and the cost counters."""

    def __init__(self, inner):
        super().__init__(inner.n)
        self.inner = inner

    def evaluate(self, eps):
        return self.inner.evaluate(eps) + 1e-3

    def evaluate_with_g(self, eps):
        f, g = self.inner.evaluate_with_g(eps)
        return f + 1e-3, g

    @property
    def bounded_difference_constant(self):
        return self.inner.bounded_difference_constant

    @property
    def factorization_count(self):
        return self.inner.factorization_count


def test_shifted_function_counts_as_failed():
    prepared = workloads.Prepared(workloads.get("small-many"), 1)
    result = worker.timed_run(prepared, 0.0, wrap=lambda name, fn: Shifted(fn))
    ledger = result["ledger"]
    assert ledger.attempted == 2  # one timed certificate and one at another thread count
    assert ledger.failed == ledger.attempted
    assert all("misses the reference" in problem for problem in ledger.problems)


def test_unshifted_function_passes():
    prepared = workloads.Prepared(workloads.get("small-many", tiny=True), 1)
    ledger = worker.timed_run(prepared, 0.0)["ledger"]
    assert (ledger.attempted, ledger.failed) == (2, 0)


def test_reference_seconds_scale_with_the_reference():
    assert speed.python_loop_s() > 0 and speed.CertificateReference().seconds() > 0
    nominal = speed.CERTIFICATE_NOMINAL_S
    assert speed.reference_seconds(0.5, nominal, nominal, nominal) == pytest.approx(0.5)
    # a host at half speed: the reference and the call both take twice as long
    assert speed.reference_seconds(1.0, 2 * nominal, 2 * nominal, nominal) == pytest.approx(0.5)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "small-many", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
