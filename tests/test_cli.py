from __future__ import annotations

import ctypes
import json
import re
import subprocess
import sys
import types
import warnings

import jsonschema
import numpy as np
import pytest

from paircert import cli, functions
from paircert.cli import main
from paircert.estimator import NUMERICAL_SLACK
from paircert.oracle import CheckResult

NUMBER = {"type": "number"}

CERTIFICATE_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version",
        "config",
        "f_bar",
        "g_bar",
        "lower",
        "upper",
        "g_at_ones",
        "expected_width",
        "markov_90_width",
        "realized_within_markov",
        "counters",
    ],
    "properties": {
        "schema_version": {"const": 1},
        "config": {
            "type": "object",
            "required": ["graph", "lambda", "gamma", "mode", "p", "seed"],
            "properties": {
                "graph": {"type": "string"},
                "lambda": NUMBER,
                "gamma": NUMBER,
                "mode": {"type": "string"},
                "p": {"type": "integer"},
                "seed": {"type": "integer"},
            },
        },
        "f_bar": NUMBER,
        "g_bar": NUMBER,
        "lower": NUMBER,
        "upper": NUMBER,
        "g_at_ones": NUMBER,
        "expected_width": NUMBER,
        "markov_90_width": NUMBER,
        "realized_within_markov": {"type": "boolean"},
        "counters": {
            "type": "object",
            "required": ["evaluations", "factorizations", "wall_ms"],
            "properties": {
                "evaluations": {"type": "integer"},
                "factorizations": {"type": "integer"},
                "wall_ms": {"type": ["number", "null"]},
            },
        },
    },
}

DOMINATED_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "config", "center_re", "center_im", "radius", "counters"],
    "properties": {
        "schema_version": {"const": 1},
        "center_re": NUMBER,
        "center_im": NUMBER,
        "radius": NUMBER,
    },
}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_schema_and_invariants(capsys):
    code, out, err = run_cli(capsys, ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "5", "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, CERTIFICATE_SCHEMA)
    assert doc["lower"] <= doc["upper"]
    assert doc["counters"]["evaluations"] == 11
    assert doc["counters"]["wall_ms"] is None
    assert doc["config"]["mode"] == "resolvent"
    assert "wall" in err  # measured time lives on stderr only


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys,
        ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "3", "--seed", "2", "--out", str(target)],
    )
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize(
    "command, out",
    [
        (["certify", "--p", "3", "--seed", "2"], "missing/x.json"),
        (["oracle"], "."),
        (["certify", "--p", "3", "--seed", "2"], ""),
    ],
)
def test_unwritable_out_exit2_before_run(tmp_path, capsys, command, out):
    # a missing parent directory, a directory itself, or an empty path is refused at the flag
    path = str(tmp_path / out) if out else ""
    argv = [*command, "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--out", path]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert "--out" in captured.err


def test_single_vertex_interval(tmp_path, capsys):
    edges = tmp_path / "single_vertex.txt"
    edges.write_text("1\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        ["certify", "--graph", f"edges:{edges}", "--lambda", "1", "--gamma", "1", "--p", "1", "--seed", "0"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == pytest.approx(2 / 3 - NUMERICAL_SLACK, abs=1e-14)
    assert doc["upper"] == pytest.approx(1.0 + NUMERICAL_SLACK, abs=1e-14)


def test_hex_and_decimal_seed_agree(capsys):
    base = ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "4"]
    code_a, out_a, _ = run_cli(capsys, base + ["--seed", "31"])
    code_b, out_b, _ = run_cli(capsys, base + ["--seed", "0x1F"])
    assert code_a == code_b == 0
    assert out_a == out_b


def test_missing_required_flags_exit2():
    with pytest.raises(SystemExit) as excinfo:
        main(["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "3"])
    assert excinfo.value.code == 2


def test_p_and_delta_are_exclusive():
    with pytest.raises(SystemExit) as excinfo:
        main(["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "3", "--delta", "0.5", "--seed", "1"])
    assert excinfo.value.code == 2


def test_seed_out_of_range_exit2(capsys):
    for seed, fragment in ((str(2**64), "outside [0, 2^64)"), ("1.5", "not a decimal or 0x-prefixed hex integer")):
        with pytest.raises(SystemExit) as excinfo:
            main(["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "3", "--seed", seed])
        assert excinfo.value.code == 2
        assert fragment in capsys.readouterr().err


# torus:12000 asks for 147 PiB, beyond any 57-bit address space, so the allocation fails at once
@pytest.mark.parametrize(
    "spec, fragment",
    [("ring:9", "graph spec"), ("torus:12000", "allocate"), ("torus:3.5", "not an integer")],
    ids=["unknown-kind", "too-large", "non-integer-side"],
)
def test_bad_graph_spec_exit2(capsys, spec, fragment):
    code, out, err = run_cli(capsys, ["certify", "--graph", spec, "--lambda", "1", "--gamma", "1", "--p", "3", "--seed", "1"])
    assert code == 2
    assert out == ""
    assert fragment in err


def test_unreadable_edge_file_exit2(capsys):
    code, _, err = run_cli(capsys, ["certify", "--graph", "edges:/no/such/file", "--lambda", "1", "--gamma", "1", "--p", "3", "--seed", "1"])
    assert code == 2
    assert "edge list" in err


def test_nonpositive_gamma_exit2(capsys):
    code, _, err = run_cli(capsys, ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "-1", "--p", "3", "--seed", "1"])
    assert code == 2
    assert "gamma" in err


@pytest.mark.parametrize(
    "lam, gamma, fragment",
    [
        ("nan", "1", "lam"),
        ("inf", "1", "lam"),
        ("1", "inf", "gamma"),
        ("1", "nan", "gamma"),
        ("1", "1e-160", "gamma"),
        ("1", "1e-200", "gamma"),
        ("1", "1e200", "gamma"),
    ],
)
def test_nonfinite_disorder_exit2(capsys, lam, gamma, fragment):
    code, out, err = run_cli(capsys, ["certify", "--graph", "torus:3", "--lambda", lam, "--gamma", gamma, "--p", "3", "--seed", "1"])
    assert code == 2
    assert out == ""
    assert fragment in err and "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1e-120", "--p", "2", "--seed", "1"],
        ["oracle", "--graph", "torus:3", "--lambda", "1", "--gamma", "1e-120"],
        ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1e-120", "--p", "2", "--seed", "1", "--h", "poly:0,0,1"],
        ["certify", "--graph", "torus:3", "--lambda", "1e17", "--gamma", "1", "--p", "2", "--seed", "1"],
        ["bench", "--graph", "torus:3", "--lambda", "1e17", "--gamma", "1", "--p", "2", "--seed", "1"],
        # just outside the bound for n = 9, d = 4, lam = 1, which lies between gamma = 6e-14 and 7e-14
        ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "6e-14", "--p", "2", "--seed", "1"],
    ],
    ids=["certify", "oracle", "disc", "lambda-1e17", "bench-lambda-1e17", "just-outside"],
)
def test_unfactorable_disorder_exit2_before_run(capsys, monkeypatch, argv):
    # gamma lost to rounding on M's diagonal: at gamma = 1e-120 certify used to exit 0 with
    # upper = 5.6e14 while E[f] is 2.2e116, and lambda = 1e17 exited 1 at dpotrf
    for name in ("cmd_certify", "cmd_oracle", "cmd_bench"):
        monkeypatch.setattr(cli, name, lambda *_: pytest.fail("the refusal must come before the run"))
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "positive definite" in err


def test_just_inside_the_factorization_bound_runs(capsys):
    argv = ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "7e-14", "--p", "2", "--seed", "1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["config"]["gamma"] == 7e-14


@pytest.mark.parametrize("value", ["nan", "inf", "1e-310", "1e-300"])
def test_bad_delta_exit2(capsys, value):
    for yes in ([], ["--yes"]):
        code, out, err = run_cli(capsys, ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--delta", value, "--seed", "1", *yes])
        assert code == 2
        assert out == ""
        assert "delta" in err
        # a p too large for the sign budget is refused before the cost preview, in one short line
        assert "target width" not in err
        assert all(len(line) <= 200 for line in err.splitlines())


def test_bench_rejects_h_exit2(capsys):
    # neither subcommand has --h, and it must not be read as --help
    for argv in (
        ["bench", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "5", "--seed", "1", "--h", "poly:0,0,1"],
        ["reproduce", "--h", "poly:0,0,1"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--h" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["certify", "--graph", "torus:3", "--lam", "1", "--gamma", "1", "--p", "5", "--seed", "1"], "--lambda"),
        (["oracle", "--graph", "torus:3", "--lam", "1", "--gamma", "1"], "--lambda"),
        (["reproduce", "--thread", "1"], "--thread"),
    ],
    ids=["certify", "oracle", "reproduce"],
)
def test_abbreviated_flag_exit2(capsys, argv, named):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert named in err


def test_delta_with_h_exit2_before_quadrature(capsys, monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("the kappa quadrature ran")

    monkeypatch.setattr(cli, "dominating_resolvent_scale", no_quadrature)
    code, out, err = run_cli(
        capsys, ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--delta", "0.5", "--seed", "4", "--h", "poly:0,0,1"]
    )
    assert code == 2
    assert out == ""
    assert "--delta" in err and "--h" in err


@pytest.mark.parametrize(
    "command", [["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "3", "--seed", "1"], ["reproduce"]]
)
@pytest.mark.parametrize(
    "threads, fragment", [("0", "at least 1"), ("-2", "at least 1"), ("1.5", "not an integer"), ("100000", "at most")], ids=["0", "-2", "1.5", "100000"]
)
def test_bad_thread_count_exit2(capsys, command, threads, fragment):
    with pytest.raises(SystemExit) as excinfo:
        main(command + ["--threads", threads])
    assert excinfo.value.code == 2
    assert fragment in capsys.readouterr().err


def test_oracle_budget_exit2(capsys):
    code, _, err = run_cli(capsys, ["oracle", "--graph", "torus:5", "--lambda", "1", "--gamma", "1"])
    assert code == 2
    assert "33554432" in err


def test_quadrature_failure_exit1(capsys):
    code, _, err = run_cli(
        capsys,
        ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "2", "--seed", "1", "--h", "exp:1000"],
    )
    assert code == 1
    assert "contour" in err


def test_contour_sum_overflow_is_one_error_line():
    # |h| is finite at every contour node but its sum overflows: exit 1 at once, no numpy warning
    argv = ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "5", "--seed", "1", "--h", "poly:0,0,1e306"]
    run = _run_subprocess(argv)
    assert run.returncode == 1
    assert run.stdout == b""
    assert run.stderr.decode() == "error: poly:0,0,1e+306: the contour integral of |h| is not finite\n"


def test_weighted_sum_overflow_is_one_error_line():
    # every pair value is finite, but their count-weighted sum leaves the float range: exit 1, no
    # traceback, and the one line names the sum and p
    argv = ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "300", "--seed", "1", "--h", "poly:0,0,1e303"]
    run = _run_subprocess(argv)
    assert run.returncode == 1
    assert run.stdout == b""
    assert run.stderr.decode() == "error: the pair sum of f1 over p=300 samples leaves the float range\n"


def test_bad_h_spec_exit2(capsys):
    code, _, err = run_cli(
        capsys,
        ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "2", "--seed", "1", "--h", "tan:1"],
    )
    assert code == 2
    assert "analytic" in err


@pytest.mark.parametrize("spec", ["exp:nan", "exp:inf", "poly:inf", "poly:nan,1"])
@pytest.mark.parametrize("command", ["certify", "oracle"])
def test_non_finite_h_parameter_exit2(capsys, command, spec):
    # bad input, not a numerical breakdown: exp:1000 is finite and still exits 1 at the contour
    argv = [command, "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--h", spec]
    if command == "certify":
        argv += ["--p", "4", "--seed", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert spec in err


def test_delta_gate_requires_yes(capsys):
    # the preview and the refusal on stderr are the only budget report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(
            capsys,
            ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--delta", "0.01", "--seed", "1"],
        )
    assert code == 2
    assert "p=1001" in err
    assert "at most 512 rows are factored" in err  # all-ones is one of the 2^9 keys
    assert "--yes" in err


def test_delta_small_runs_without_yes(capsys):
    code, out, err = run_cli(
        capsys,
        ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--delta", "1", "--seed", "4"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["p"] == 11
    assert doc["config"]["delta"] == 1.0
    assert "p=11" in err
    assert "estimated" in err


@pytest.mark.parametrize("side", [3, 4, 5])
def test_delta_preview_times_distinct_rows(capsys, monkeypatch, side):
    # the elimination tree folds equal rows into one leaf, so a block of equal rows timed it about
    # 10x low at n = 16; the preview times distinct rows at the function's own block size, and
    # that block is the first evaluated. At p = 201 torus:3 and torus:4 take the cube, whose 2^n
    # rows the preview times f-only, and torus:5 (n = 25) takes (f, g) on its keys
    tables = []

    class Recording(functions.ResolventTraceFunction):
        def evaluate_block(self, table):
            tables.append(("f", np.array(table)))
            return super().evaluate_block(table)

        def evaluate_block_with_g(self, table):
            tables.append(("f, g", np.array(table)))
            return super().evaluate_block_with_g(table)

    monkeypatch.setattr(cli, "ResolventTraceFunction", Recording)
    argv = ["certify", "--graph", f"torus:{side}", "--lambda", "1", "--gamma", "1", "--delta", "0.05", "--seed", "1", "--yes"]
    code, _, err = run_cli(capsys, argv)
    assert code == 0
    factored = int(re.search(r"at most (\d+) rows are factored", err).group(1))
    n = side * side
    assert factored == (2**n if n <= 16 else 201 * 200 // 2 + 1)
    size = functions.ResolventTraceFunction(functions.ResolventParams(1.0, 1.0, np.zeros((n, n)))).block_size
    path, timed = tables[0]
    assert path == ("f" if n <= 16 else "f, g")
    assert len(timed) == min(size, factored) and len(np.unique(timed, axis=0)) == len(timed)
    assert all(table == path and np.array_equal(rows, timed) for table, rows in tables[:3])
    # and the sweep takes the path the preview timed
    assert {table for table, _ in tables[3:]} == {path}


def _preview_and_wall_s(side: int, delta: str) -> tuple[float, float]:
    argv = ["certify", "--graph", f"torus:{side}", "--lambda", "1", "--gamma", "1", "--delta", delta, "--seed", "4", "--threads", "1"]
    run = _run_subprocess(argv)
    assert run.returncode == 0
    err = run.stderr.decode()
    estimated = float(re.search(r"estimated ([0-9.]+)s", err).group(1))
    return estimated, float(re.search(r"wall ([0-9.]+) ms", err).group(1)) / 1e3


def test_delta_preview_close_to_wall():
    # the preview times the fastest of three calls; one cold call overstated the run several times
    estimated, wall_s = _preview_and_wall_s(3, "0.05")
    assert estimated <= 3 * wall_s


@pytest.mark.parametrize("delta", ["0.05", "0.12"], ids=["cube", "tree"])
def test_delta_preview_close_to_wall_on_each_side_of_the_cube(delta):
    # at n = 16, p = 201 takes the cube, whose preview prices 2^16 rows at the f-only rate, and p = 84
    # (3,487 pairs) the tree, whose preview prices each key at the (f, g) rate; priced at the (f, g)
    # rate, the cube's 20,101 pairs read 0.1 s against a run of about 40 ms
    estimated, wall_s = _preview_and_wall_s(4, delta)
    assert estimated <= 3 * wall_s


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "20", "--seed", "1"],
        ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "20", "--seed", "1", "--h", "poly:0,0,1"],
        ["bench", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "20", "--seed", "1"],
    ],
    ids=["interval", "disc", "bench"],
)
def test_counters_line_reports_wall_time(capsys, argv):
    # the certificate carries no wall time; the CLI times the run and prints it on stderr alone
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["counters"]["wall_ms"] is None
    (line,) = [line for line in err.splitlines() if line.startswith("evaluations ")]
    assert float(re.fullmatch(r"evaluations 191, factorizations \d+, wall ([0-9.]+) ms", line).group(1)) > 0


def test_reproduce_fields(capsys):
    code, out, err = run_cli(capsys, ["reproduce"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, CERTIFICATE_SCHEMA)
    assert doc["config"] == {
        "graph": "torus:15",
        "n": 225,
        "lambda": 1.0,
        "gamma": 1.0,
        "mode": "resolvent",
        "p": 30,
        "seed": 1,
    }
    assert doc["counters"]["evaluations"] == 436
    assert doc["reference"]["lower"] == 0.2006
    assert doc["reference"]["upper"] == 0.2030
    assert doc["reference"]["intersects"] is True
    assert "flagship" in err


def test_reproduce_miss_exit1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "REPRODUCE_BRACKET", (0.3, 0.4))
    code, out, err = run_cli(capsys, ["reproduce"])
    assert code == 1
    doc = json.loads(out)
    assert doc["reference"]["intersects"] is False
    assert "misses the reference bracket" in err.splitlines()[-1]


def test_oracle_failed_check_exit1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_nonnegative", lambda spectrum, tol: CheckResult(ok=False, mask=1, value=-1.0))
    code, out, err = run_cli(capsys, ["oracle", "--graph", "torus:3", "--lambda", "1", "--gamma", "1"])
    assert code == 1
    assert json.loads(out)["nonnegative"] is False
    assert "NO" in err


@pytest.mark.parametrize(
    "argv, warns",
    [
        (["--graph", "torus:3", "--lambda", "4", "--gamma", "0.5", "--p", "1"], True),
        (["--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "30", "--h", "exp:3"], True),
        (["--graph", "torus:15", "--lambda", "1", "--gamma", "1", "--p", "30"], False),
    ],
    ids=["interval", "disc", "flagship"],
)
def test_vacuity_warning(tmp_path, capsys, argv, warns):
    # width >= |f_bar| or radius >= |center| adds a last stderr line;
    # stdout, --out and the exit code stay as they were
    target = tmp_path / "cert.json"
    code, out, err = run_cli(capsys, ["certify", *argv, "--seed", "1", "--out", str(target)])
    assert code == 0
    assert target.read_text(encoding="utf-8") == out
    assert "warning" not in out
    assert err.splitlines()[-1].startswith("warning: vacuous") == warns
    assert ("warning" in err) == warns


def test_bench_fields(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "5", "--seed", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["naive_equivalent_evaluations"] == 10 * 25
    assert doc["counters"]["evaluations"] == 11
    assert doc["speedup_ratio"] == pytest.approx(250 / doc["counters"]["factorizations"])


def test_oracle_resolvent(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--graph", "torus:3", "--lambda", "1", "--gamma", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["nonnegative"] is True
    assert doc["min_coefficient"] >= -1e-10
    assert 0.0 < doc["exact_expectation"] <= 1.0
    assert doc["config"]["mode"] == "resolvent"


def test_oracle_single_vertex_exact(tmp_path, capsys):
    edges = tmp_path / "one.txt"
    edges.write_text("1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["oracle", "--graph", f"edges:{edges}", "--lambda", "1", "--gamma", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_expectation"] == pytest.approx(2 / 3, abs=1e-14)
    assert doc["nonnegative"] is True


def test_oracle_torus4_within_budget(capsys):
    # 2^16 enumeration fits the oracle budget and should finish quickly
    code, out, _ = run_cli(capsys, ["oracle", "--graph", "torus:4", "--lambda", "1", "--gamma", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["nonnegative"] is True
    assert 0.0 < doc["exact_expectation"] <= 1.0


def test_oracle_enumerates_once_per_function(capsys, monkeypatch):
    # one walsh_spectrum pass per function: 2^n factorizations for the
    # resolvent, 2 * 2^n with --h (spectral f1 plus its resolvent bound f2)
    built = []
    real_scale = cli.dominating_resolvent_scale

    class CountingResolvent(cli.ResolventTraceFunction):
        def __init__(self, params):
            super().__init__(params)
            built.append(self)

    def counting_scale(*args):
        pair = real_scale(*args)
        built.extend(pair)
        return pair

    monkeypatch.setattr(cli, "ResolventTraceFunction", CountingResolvent)
    monkeypatch.setattr(cli, "dominating_resolvent_scale", counting_scale)
    argv = ["oracle", "--graph", "torus:3", "--lambda", "1", "--gamma", "1"]
    assert run_cli(capsys, argv)[0] == 0
    assert sum(fn.factorization_count for fn in built) == 2**9
    built.clear()
    assert run_cli(capsys, argv + ["--h", "exp:0.1"])[0] == 0
    assert sum(fn.factorization_count for fn in built) == 2 * 2**9


def test_bench_p1_single_factorization(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "1", "--seed", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["counters"]["evaluations"] == 1
    assert doc["counters"]["factorizations"] == 1
    assert doc["naive_equivalent_evaluations"] == 10


def test_bench_counts_one_factorization_per_evaluation(capsys):
    # blocks of sign vectors count one factorization per row, as single calls did
    code, out, _ = run_cli(capsys, ["bench", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "6", "--seed", "3"])
    assert code == 0
    assert json.loads(out)["counters"] == {"evaluations": 16, "factorizations": 16, "wall_ms": None}


def test_numerical_breakdown_exit1(capsys, monkeypatch):
    # a negative flip half-sum empties the interval: a numerical failure, not bad input
    class BrokenResolvent(cli.ResolventTraceFunction):
        def evaluate_block_with_g(self, table):
            f, g = super().evaluate_block_with_g(table)
            return f, np.full_like(g, -1.0)

    monkeypatch.setattr(cli, "ResolventTraceFunction", BrokenResolvent)
    code, out, err = run_cli(capsys, ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "5", "--seed", "7"])
    assert code == 1
    assert out == ""
    assert "numerical breakdown" in err


@pytest.mark.parametrize("fault, message", [("info", "dpotri info=1"), ("diagonal", "denominator is not positive")], ids=["dpotri-info", "negative-diagonal"])
def test_inverse_breakdown_exit1(capsys, monkeypatch, fault, message):
    # dpotri reports a failure, or returns an inverse whose diagonal makes a flip denominator
    # negative: a numerical breakdown exits 1 with nothing on stdout, never 2. torus:5 (n = 25),
    # since n <= 16 takes the elimination tree and no binding
    real = functions._openblas
    if real is None:
        pytest.skip("this numpy does not export the bundled dpotrf and dpotri")

    def dpotri(uplo, order, address, lda, info, length):
        if fault == "info":
            info.value = 1
            return
        real.scipy_dpotri_64_(uplo, order, address, lda, info, length)
        n = order.value
        inverse = (ctypes.c_double * (n * n)).from_address(address)
        for i in range(n):
            inverse[i * (n + 1)] = -10.0

    binding = types.SimpleNamespace(
        scipy_dpotrf_64_=real.scipy_dpotrf_64_,
        scipy_dpotri_64_=dpotri,
        scipy_openblas_set_num_threads64_=real.scipy_openblas_set_num_threads64_,
    )
    monkeypatch.setattr(functions, "_openblas", binding)
    code, out, err = run_cli(capsys, ["certify", "--graph", "torus:5", "--lambda", "1", "--gamma", "1", "--p", "5", "--seed", "7"])
    assert code == 1
    assert out == ""
    assert message in err.splitlines()[-1]


def test_elimination_pivot_breakdown_exit1(capsys, monkeypatch):
    # at n <= 16 the elimination tree checks its pivots: one that is not positive exits 1 with one
    # error line and nothing on stdout
    class IndefiniteResolvent(cli.ResolventTraceFunction):
        def __init__(self, params, scale=1.0):
            super().__init__(params, scale)
            self._base = self._base - 10.0 * np.eye(self.n)

    monkeypatch.setattr(cli, "ResolventTraceFunction", IndefiniteResolvent)
    code, out, err = run_cli(capsys, ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "5", "--seed", "7"])
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "pivot" in errors[0]


def test_oracle_spectral(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--h", "poly:0,0,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dominated"] is True
    assert doc["exact_expectation_re"] == pytest.approx(21.0, abs=1e-9)
    assert doc["exact_expectation_im"] == pytest.approx(0.0, abs=1e-12)


def test_spectral_certify(capsys):
    code, out, _ = run_cli(
        capsys,
        ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "20", "--seed", "6", "--h", "poly:0,0,1"],
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, DOMINATED_SCHEMA)
    assert abs(doc["center_re"] - 21.0) <= doc["radius"]
    assert doc["counters"]["evaluations"] == 191


def _run_subprocess(argv):
    return subprocess.run([sys.executable, "-m", "paircert", *argv], capture_output=True, check=False)


def test_threads_do_not_change_bytes():
    base = ["certify", "--graph", "torus:4", "--lambda", "1.5", "--gamma", "0.75", "--p", "6", "--seed", "0xabc"]
    runs = [_run_subprocess(base + ["--threads", str(t)]) for t in (1, 3)]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout


def test_threads_do_not_change_bytes_spectral():
    base = ["certify", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--p", "7", "--seed", "9", "--h", "exp:0.25"]
    runs = [_run_subprocess(base + ["--threads", str(t)]) for t in (1, 4)]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout


def test_fallback_kernel_reported_once(capsys, monkeypatch):
    # without the bundled OpenBLAS symbols, every n (here 25) takes the stacked kernel and the report says so
    argv = ["certify", "--graph", "torus:5", "--lambda", "1", "--gamma", "1", "--p", "6", "--seed", "2", "--threads", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and "note:" not in err
    monkeypatch.setattr(functions, "_openblas", None)
    code, fallback_out, err = run_cli(capsys, argv)
    assert code == 0
    notes = [line for line in err.splitlines() if line.startswith("note:")]
    assert len(notes) == 1 and "every n takes the stacked" in notes[0]
    doc, fallback = json.loads(out), json.loads(fallback_out)
    for key in ("f_bar", "g_bar", "g_at_ones"):
        assert fallback[key] == pytest.approx(doc[key], rel=1e-13, abs=0)
