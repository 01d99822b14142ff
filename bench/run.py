"""Benchmark of paircert: time to a checked certificate, end to end and per layer.

Run from the root of a checkout, which must hold `src/paircert`:

    python3 bench/run.py --workload small-many --seed 1 --seconds 24 --trace 0

The workloads, why each was chosen and which metrics each layer should
move are in workloads.py; the metric names, units and bounds are in
BENCHMARK.json at the root of the checkout.

--trace 0 reports the end-to-end metrics: the median certificate time of
closed loops run for --seconds in all, split evenly over TIMED_PROCESSES
workload processes one after another, the median set-up time of
SETUP_PROCESSES more fresh processes, and the largest peak resident
memory of the workload processes. Both times are in reference seconds,
because the speed of a shared host drifts by a fifth within minutes: each
certificate is scaled by fixed reference work timed right before and
after it (speed.py), and each set-up by a fresh interpreter that imports
numpy, timed right before and after it. The wall-clock medians are
printed beside them.
--trace 1 reports the per-layer metrics of a separate run whose function
objects are wrapped to record spans.

Workload processes start with every `*_NUM_THREADS` variable of the
caller removed and BLAS pinned to one thread (WORKER_THREAD_ENV), so the
caller's shell cannot change BLAS threading. Every result is checked
against ground truth outside the timed region. Standard output ends with
a line naming the workload, the environment record, a table of every
metric with its unit and sample count, and then one JSON line:
{"correct", "attempted", "failed", "metrics"}.

Exits with code 2, printing no result, when the checkout has no
`src/paircert`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# fresh processes timed for set-up
SETUP_PROCESSES = 7
# Set-up is mostly module import. A fresh interpreter importing numpy, the
# set-up reference, tracked it within a run as closely as its own
# process-to-process spread, where the pure-Python loop of speed.py tripled
# that spread. Set-up times are expressed at the speed at which the
# reference takes IMPORT_NOMINAL_S, a round figure within the 0.2 to 0.3 s
# it takes on a 2-core Xeon VM.
IMPORT_NOMINAL_S = 0.25
# Workload processes that share a timed run. Certificate times of the same
# code and seed, scaled by the pure-Python loop, spread by a tenth of their
# median over six processes of small-many (interquartile range), so a run
# pools several.
TIMED_PROCESSES = 2
# every worker is killed this long after the run started
RUN_LIMIT_S = 170.0
# Multi-threaded OpenBLAS at n=225 made torus:15 certificate times vary
# between 1.2 s and 2.1 s from one process to the next on a 2-core machine
# shared with other load; single-threaded BLAS kept them within a few percent.
WORKER_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """A workload process failed or returned no measurements."""


def worker_env() -> tuple[dict, dict]:
    """Environment for workload processes, and the caller's thread variables
    it replaces: BLAS runs single-threaded whatever the caller's shell says."""
    removed = {key: value for key, value in os.environ.items() if key.endswith("_NUM_THREADS")}
    env = {key: value for key, value in os.environ.items() if key not in removed}
    env.update(WORKER_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return env, removed


def cgroup_cpu_quota() -> str | None:
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            text = Path(path).read_text().strip()
        except OSError:
            continue
        if path.endswith("cfs_quota_us"):
            try:
                text += " " + Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text().strip()
            except OSError:
                pass
        return text
    return None


def run_worker(argv: list[str], env: dict, deadline: float) -> tuple[float, dict | None]:
    """Start worker.py, time it until it prints "ready", and return that time
    with its JSON result (None for --setup-only). Kills it at `deadline`."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"workload process {' '.join(argv)} exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def import_reference_s(env: dict) -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    start = time.perf_counter()
    try:
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=env, check=True, timeout=60)
    except (OSError, subprocess.SubprocessError) as exc:
        raise BenchError(f"the set-up reference failed: {exc}") from exc
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time; default run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload to a smoke-test size")
    args = parser.parse_args()

    if not (ROOT / "src" / "paircert" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'paircert'} not found; run from the root of a paircert checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env, removed = worker_env()
    processes = 1 if args.trace else TIMED_PROCESSES
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds / processes), "--trace", str(args.trace)]
    argv += ["--tiny"] if args.tiny else []
    setups, setup_walls, setup_references = [], [], []
    try:
        if not args.trace:
            setup_references.append(import_reference_s(env))
            for _ in range(SETUP_PROCESSES):
                ready = run_worker(argv + ["--setup-only"], env, deadline)[0]
                setup_references.append(import_reference_s(env))
                setups.append(speed.reference_seconds(ready, setup_references[-2], setup_references[-1], IMPORT_NOMINAL_S))
                setup_walls.append(ready)
        raws = [run_worker(argv, env, deadline)[1] for _ in range(processes)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    raw = raws[0]
    attempted, failed = sum(r["attempted"] for r in raws), sum(r["failed"] for r in raws)
    if args.trace:
        measured = raw["per_layer"]
        extra = {}
    else:
        pooled = {key: [value for r in raws for value in r[key]] for key in ("cert_s", "cert_wall_s", "reference_s")}
        measured = {
            "cert_s": (statistics.median(pooled["cert_s"]), len(pooled["cert_s"])),
            "setup_s": (statistics.median(setups), len(setups)),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in raws), len(raws)),
        }
        # reported, not bounded: the wall-clock times follow the host's
        # speed, fail_ratio is 0 on a correct program and width_rel is
        # fixed by the seed
        extra = {
            "cert_wall_s": (statistics.median(pooled["cert_wall_s"]), len(pooled["cert_wall_s"]), "s"),
            "setup_wall_s": (statistics.median(setup_walls), len(setup_walls), "s"),
            "setup_reference_s": (statistics.median(setup_references), len(setup_references), "s"),
            "cert_reference_s": (statistics.median(pooled["reference_s"]), len(pooled["reference_s"]), "s"),
            "fail_ratio": (failed / attempted, f"{failed}/{attempted}", "ratio"),
            "width_rel": (raw["width_rel"], 1 if raw["width_rel"] is not None else 0, "ratio"),
        }

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: the workload process did not measure {', '.join(missing)}", file=sys.stderr)
        return 1

    environment = {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": cgroup_cpu_quota(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "caller_num_threads_env": removed,
        "caller_num_threads_env_removed": True,
        "worker_num_threads_env": WORKER_THREAD_ENV,
        **raw["environment"],
    }
    print(f"# paircert benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}{' tiny' if args.tiny else ''}")
    print(json.dumps({"environment": environment}))
    rows = [(m["name"], *measured[m["name"]], m["unit"]) for m in wanted]
    rows += [(name, value, samples, unit) for name, (value, samples, unit) in extra.items()]
    for name, value, samples, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:32s} {shown:>12s} {unit:8s} samples={samples}")
    print(f"{'certificates':32s} attempted={attempted} failed={failed}")
    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
