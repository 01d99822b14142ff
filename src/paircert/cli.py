"""Command-line driver.

Subcommands: `certify` (enclosure for one graph and disorder), `reproduce`
(the fixed flagship run with its reference bracket), `oracle` (exhaustive
small-n checks), `bench` (cost counters).

Each subcommand returns (document, report lines, ok). `main` is the one
writer and the one exit-code map: it prints one JSON document on stdout,
the same bytes in --out, then the report, with wall time, on stderr.
Only the --delta cost preview, which must precede the run, comes
earlier. `main` pins numpy's bundled OpenBLAS to one thread, so JSON
content is independent of --threads and OPENBLAS_NUM_THREADS; its last
bits come from LAPACK and can differ by BLAS build and CPU.

Exit codes: 0 success, 1 numerical failure, unwritable --out or failed
verdict, 2 usage or configuration error (including budget refusals and a
gamma too small against lam for rounding to keep M(eps) positive definite,
which ResolventParams refuses before any subcommand runs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import timeit

import numpy as np

from . import functions
from .estimator import (
    SCHEMA_VERSION,
    EvalCounters,
    _takes_cube,
    certify,
    certify_dominated,
    choose_p,
)
from .functions import (
    AnalyticFunction,
    FactorizationError,
    GFunction,
    QuadratureError,
    ResolventParams,
    ResolventTraceFunction,
    dominating_resolvent_scale,
)
from .graph import Graph, build_torus_cayley, from_edge_list, laplacian
from .oracle import check_domination, check_nonnegative, walsh_spectrum
from .sampling import MAX_SIGNS, unpack_keys

REPRODUCE_GRAPH = "torus:15"
REPRODUCE_P = 30
REPRODUCE_SEED = 1
REPRODUCE_BRACKET = (0.2006, 0.2030)

ORACLE_TOL = 1e-10

# --delta needs --yes once the p it picks implies more pair evaluations than this
PAIR_BUDGET_WARN = 10**6

# the most --threads accepts: the sweep starts one OS thread per block past the first, up to the count
MAX_THREADS = 256


def _parse_seed(text: str) -> int:
    try:
        value = int(text, 16) if text.lower().startswith("0x") else int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed {text!r} is not a decimal or 0x-prefixed hex integer")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed {text!r} is outside [0, 2^64)")
    return value


def _load_graph(spec: str) -> Graph:
    kind, _, rest = spec.partition(":")
    if kind == "torus" and rest:
        try:
            m = int(rest)
        except ValueError:
            raise ValueError(f"torus side {rest!r} is not an integer") from None
        return build_torus_cayley(m)
    if kind == "edges" and rest:
        try:
            with open(rest, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read edge list {rest!r}: {exc}") from None
        return from_edge_list(text)
    raise ValueError(f"unknown graph spec {spec!r}; expected torus:M or edges:PATH")


def _config_json(args: argparse.Namespace, graph: Graph, p: int | None) -> dict:
    doc = {
        "graph": args.graph,
        "n": graph.n,
        "lambda": args.lam,
        "gamma": args.gamma,
        "mode": "resolvent" if args.h is None else f"spectral:{args.h}",
    }
    if p is not None:
        doc["p"] = p
        doc["seed"] = args.seed
    if args.delta is not None:
        doc["delta"] = args.delta
    return doc


def _timed(run, *args, **kwargs):
    """run(*args, **kwargs) and its wall time in ms, which the certificate does not carry."""
    start = timeit.default_timer()
    return run(*args, **kwargs), (timeit.default_timer() - start) * 1e3


def _certify_resolvent(args: argparse.Namespace, params: ResolventParams):
    """(certificate, wall ms of certify) for the resolvent trace, p from
    --p, or from --delta with a cost preview and the --yes gate."""
    fn = ResolventTraceFunction(params)
    p = args.p
    if p is None:
        p = choose_p(args.lam, args.gamma, args.delta)
        if p * fn.n > MAX_SIGNS:  # before the preview, whose figures would run to hundreds of digits
            raise ValueError(f"--delta {args.delta} picks p={float(p):.3g}, whose p*n signs exceed the {MAX_SIGNS} size budget")
        evaluations = p * (p - 1) // 2 + 1
        # the sweep factors each distinct key once: all-ones and the distinct pair products, at most 2^n in all.
        # Where that many keys would take the cube, it factors the 2^n masks for f alone instead, so the
        # preview prices the path the sweep takes on its most keys: 2^n rows at the f-only rate, or each
        # key at the (f, g) rate. A sweep whose keys fall short of the cube takes the tree near the
        # crossover, where the two cost about the same.
        keys = min(evaluations, 2**fn.n)
        factored, evaluate = (2**fn.n, fn.evaluate_block) if _takes_cube(fn.n, keys) else (keys, fn.evaluate_block_with_g)
        # fastest of three calls on a block as the sweep forms them: a cold call or a lone row overstates the
        # run, and equal rows understate it, since the elimination tree folds them into one leaf
        table = unpack_keys(np.arange(min(fn.block_size, factored), dtype="<u8"), fn.n)
        per_eval = min(timeit.repeat(lambda: evaluate(table), number=1, repeat=3)) / len(table)
        estimate = per_eval * factored
        print(f"target width {args.delta}: p={p}, {evaluations} combined evaluations, of which at most {factored} rows are factored: estimated {estimate:.3f}s", file=sys.stderr)
        if p * p > PAIR_BUDGET_WARN and not args.yes:
            raise ValueError(f"--delta {args.delta} picks p={p}, which implies {p * p} pair evaluations (> {PAIR_BUDGET_WARN}); pass --yes to proceed")
    return _timed(certify, fn, p, args.seed, threads=args.threads)


def _certificate_doc(args: argparse.Namespace, graph: Graph, cert) -> dict:
    """The config block followed by the certificate minus what the config
    block already carries."""
    body = cert.to_json_dict()
    for key in ("schema_version", "p", "seed"):
        body.pop(key)
    return {"schema_version": SCHEMA_VERSION, "config": _config_json(args, graph, cert.p), **body}


def _counters_line(counters: EvalCounters, wall_ms: float) -> str:
    return f"evaluations {counters.evaluations}, factorizations {counters.factorizations}, wall {wall_ms:.1f} ms"


def cmd_certify(args: argparse.Namespace, graph: Graph, params: ResolventParams) -> tuple[dict, list[str], bool]:
    if args.h is None:
        cert, wall_ms = _certify_resolvent(args, params)
        lines = [
            f"{args.graph}: n={graph.n}, max degree {graph.max_degree}",
            f"lambda={args.lam:g} gamma={args.gamma:g} p={cert.p} seed={args.seed} threads={args.threads}",
            f"E[f] in [{cert.lower!r}, {cert.upper!r}]  (width {cert.width:.4e})",
            f"expected width {cert.expected_width:.4e}, markov 90% width {cert.markov_90_width:.4e},"
            f" realized within markov: {'yes' if cert.realized_within_markov else 'NO'}",
            f"a-priori width from c={cert.c_bound:g}: {cert.c_markov_width:.4e}",
            _counters_line(cert.counters, wall_ms),
        ]
        if cert.width >= abs(cert.f_bar):
            lines.append(f"warning: vacuous enclosure: width {cert.width:.4e} is at least |f_bar| = {abs(cert.f_bar):.4e}")
        return _certificate_doc(args, graph, cert), lines, True

    if args.delta is not None:
        # choose_p prices the resolvent width 10*lam/(gamma^2*delta), which ignores h and its dominating function
        raise ValueError("--delta picks p for the resolvent trace only; with --h, give --p")
    h = AnalyticFunction.from_spec(args.h)
    f1, f2 = dominating_resolvent_scale(h, params, graph)
    cert, wall_ms = _timed(certify_dominated, f1, GFunction(f2), args.p, args.seed, threads=args.threads)
    lines = [
        f"{args.graph}: n={graph.n}, max degree {graph.max_degree}, h={h.name}",
        f"lambda={args.lam:g} gamma={args.gamma:g} p={args.p} seed={args.seed} threads={args.threads}",
        f"E[f1] within {cert.radius!r} of ({cert.center.real!r}, {cert.center.imag!r}i)",
        _counters_line(cert.counters, wall_ms),
    ]
    if cert.radius >= abs(cert.center):
        lines.append(f"warning: vacuous disc: radius {cert.radius:.4e} is at least |center| = {abs(cert.center):.4e}")
    return _certificate_doc(args, graph, cert), lines, True


def cmd_reproduce(args: argparse.Namespace, graph: Graph, params: ResolventParams) -> tuple[dict, list[str], bool]:
    doc, lines, _ = cmd_certify(args, graph, params)
    ref_lower, ref_upper = REPRODUCE_BRACKET
    intersects = doc["lower"] <= ref_upper and doc["upper"] >= ref_lower
    doc["reference"] = {"lower": ref_lower, "upper": ref_upper, "intersects": intersects}
    lines.append(f"flagship reference bracket [{ref_lower}, {ref_upper}]: intersection {'nonempty' if intersects else 'EMPTY'}")
    if not intersects:
        lines.append("error: certified interval misses the reference bracket; both provably contain E[f], so this is a bug")
    return doc, lines, intersects


def cmd_oracle(args: argparse.Namespace, graph: Graph, params: ResolventParams) -> tuple[dict, list[str], bool]:
    doc = {"schema_version": SCHEMA_VERSION, "config": _config_json(args, graph, None), "tol": ORACLE_TOL}

    if args.h is None:
        spectrum = walsh_spectrum(ResolventTraceFunction(params))
        exact = float(spectrum.coefficients[0])
        verdict = check_nonnegative(spectrum, ORACLE_TOL)
        doc.update({
            "exact_expectation": exact,
            "min_coefficient": verdict.value,
            "min_coefficient_mask": verdict.mask,
            "nonnegative": verdict.ok,
        })
        return doc, [
            f"{args.graph}: n={graph.n}, 2^n = {1 << graph.n} evaluations per pass",
            f"exact E[f] = {exact!r}",
            f"min Walsh coefficient {verdict.value!r} at mask {verdict.mask} (subset {verdict.subset()})",
            f"nonnegative at tol {ORACLE_TOL:g}: {'yes' if verdict.ok else 'NO'}",
        ], verdict.ok

    h = AnalyticFunction.from_spec(args.h)
    f1, f2 = dominating_resolvent_scale(h, params, graph)
    spectrum1 = walsh_spectrum(f1)
    exact1 = complex(spectrum1.coefficients[0])
    verdict = check_domination(spectrum1, walsh_spectrum(f2), ORACLE_TOL)
    doc.update({
        "exact_expectation_re": exact1.real,
        "exact_expectation_im": exact1.imag,
        "max_domination_excess": verdict.value,
        "max_domination_excess_mask": verdict.mask,
        "dominated": verdict.ok,
    })
    return doc, [
        f"{args.graph}: n={graph.n}, h={h.name}",
        f"exact E[f1] = {exact1.real!r} + {exact1.imag!r}i",
        f"worst |a_S| - b_S = {verdict.value!r} at mask {verdict.mask} (subset {verdict.subset()})",
        f"dominated at tol {ORACLE_TOL:g}: {'yes' if verdict.ok else 'NO'}",
    ], verdict.ok


def cmd_bench(args: argparse.Namespace, graph: Graph, params: ResolventParams) -> tuple[dict, list[str], bool]:
    cert, wall_ms = _certify_resolvent(args, params)
    naive_equivalent = (graph.n + 1) * cert.p * cert.p
    speedup = naive_equivalent / cert.counters.factorizations
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": _config_json(args, graph, cert.p),
        "counters": cert.counters.to_json_dict(),
        "naive_equivalent_evaluations": naive_equivalent,
        "speedup_ratio": speedup,
    }
    return doc, [
        f"{args.graph}: n={graph.n}, p={cert.p}",
        _counters_line(cert.counters, wall_ms),
        f"naive-equivalent f evaluations: (n+1)p^2 = {naive_equivalent}",
        f"speedup from pair symmetry, repeated pair products factored once and the rank-one flip sweep: {speedup:.1f}x",
    ], True


def _out_path(text: str) -> str:
    """Refuse, before the run, an --out path that is empty, is a directory or lies in a missing one."""
    if not text:
        raise argparse.ArgumentTypeError("the path is empty")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(f"the directory of {text!r} does not exist")
    return text


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"thread count {text!r} is not an integer") from None
    if not 1 <= value <= MAX_THREADS:
        raise argparse.ArgumentTypeError(f"thread count must be at least 1 and at most {MAX_THREADS}, got {value}")
    return value


def _add_run_flags(sub: argparse.ArgumentParser, with_samples: bool):
    sub.add_argument("--graph", required=True, help="torus:M (M >= 3) or edges:PATH")
    sub.add_argument("--lambda", dest="lam", type=float, required=True, help="disorder strength, positive")
    sub.add_argument("--gamma", type=float, required=True, help="spectral gap, positive")
    sub.add_argument("--out", type=_out_path, help="also write the JSON document to this path")
    if with_samples:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--p", type=int, help="sample count")
        group.add_argument("--delta", type=float, help="picks the least p whose a-priori 90%% Markov width 10c/(2p), c = 2*lambda/gamma^2, is below DELTA")
        sub.add_argument("--seed", type=_parse_seed, required=True, help="decimal or 0x-hex, in [0, 2^64)")
        sub.add_argument("--threads", type=_thread_count, default=min(os.cpu_count() or 1, MAX_THREADS), help="threads for the pair sweep, the calling thread included")
        sub.add_argument("--yes", action="store_true", help="accept large delta-implied budgets")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paircert",
        description="Certified two-sided enclosures of E[f] for resolvent traces and analytic functional calculus on graphs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # No abbreviations: a flag a subcommand lacks, such as --h on reproduce
    # or bench, exits 2 instead of being read as --help or another flag.
    cert = commands.add_parser("certify", help="sample and certify an enclosure", allow_abbrev=False)
    _add_run_flags(cert, with_samples=True)
    cert.set_defaults(func=cmd_certify)

    repro = commands.add_parser("reproduce", help="fixed flagship run against the reference bracket", allow_abbrev=False)
    repro.add_argument("--out", type=_out_path, help="also write the JSON document to this path")
    repro.add_argument("--threads", type=_thread_count, default=min(os.cpu_count() or 1, MAX_THREADS))
    repro.set_defaults(
        func=cmd_reproduce,
        graph=REPRODUCE_GRAPH,
        lam=1.0,
        gamma=1.0,
        h=None,
        p=REPRODUCE_P,
        delta=None,
        seed=REPRODUCE_SEED,
    )

    orac = commands.add_parser("oracle", help="exhaustive small-n expectation and spectrum checks", allow_abbrev=False)
    _add_run_flags(orac, with_samples=False)
    orac.set_defaults(func=cmd_oracle, delta=None)

    for sub in (cert, orac):
        sub.add_argument("--h", help="analytic function poly:c0,c1,... or exp:s (switches to the dominated spectral mode)")

    bench = commands.add_parser("bench", help="cost counters against the naive-equivalent figure", allow_abbrev=False)
    _add_run_flags(bench, with_samples=True)
    bench.set_defaults(func=cmd_bench, h=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    binding = functions.pin_one_blas_thread()  # --threads parallelizes the sweep, and one BLAS thread keeps LAPACK's bits fixed
    try:
        graph = _load_graph(args.graph)
        params = ResolventParams(args.lam, args.gamma, laplacian(graph))
        doc, lines, ok = args.func(args, graph, params)
        text = json.dumps(doc, indent=2) + "\n"
        sys.stdout.write(text)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (FactorizationError, QuadratureError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, MemoryError) as exc:
        # usage and configuration problems, including oracle budget refusals and a graph
        # whose dense n x n arrays do not fit in memory (the signs and each block are capped)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not binding:
        lines.append(f"note: this numpy does not export the ILP64 dpotrf, dpotri and thread setter, so above n = {functions.ELIMINATION_LIMIT}, where the elimination tree stops, every n takes the stacked numpy kernel (2.5x slower at n = 36, 3.7x at n = 225)")
    print("\n".join(lines), file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
