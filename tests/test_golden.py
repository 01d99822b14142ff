"""Pinned certificate values of the CLI.

The values are compared at a relative tolerance, not as bytes: the last
bits of a certificate depend on the BLAS build, the CPU and the BLAS
thread count. The flagship g_bar, for one, prints as 0.001935947484972146
with OPENBLAS_NUM_THREADS=1 and as 0.0019359474849721455 with 2 on the
same host.
"""

from __future__ import annotations

import json

import pytest

from paircert.cli import main

GOLDEN_REL = 1e-12


def run_json(capsys, argv) -> dict:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_reproduce_golden(capsys):
    doc = run_json(capsys, ["reproduce", "--threads", "1"])
    assert doc["f_bar"] == pytest.approx(0.20269476619474172, rel=GOLDEN_REL)
    assert doc["g_bar"] == pytest.approx(0.001935947484972146, rel=GOLDEN_REL)


def test_spectral_certify_golden(capsys):
    doc = run_json(
        capsys,
        ["certify", "--graph", "torus:4", "--lambda", "1", "--gamma", "1", "--p", "30", "--seed", "5", "--h", "poly:0,0,1", "--threads", "1"],
    )
    assert doc["center_re"] == pytest.approx(20.78, rel=GOLDEN_REL)
    assert doc["center_im"] == 0.0
    assert doc["radius"] == pytest.approx(0.22000001, rel=GOLDEN_REL)


def test_oracle_golden(capsys):
    doc = run_json(capsys, ["oracle", "--graph", "torus:3", "--lambda", "1", "--gamma", "1"])
    assert doc["exact_expectation"] == pytest.approx(0.21149571414961693, rel=GOLDEN_REL)


def test_oracle_spectral_golden(capsys):
    doc = run_json(capsys, ["oracle", "--graph", "torus:3", "--lambda", "1", "--gamma", "1", "--h", "exp:0.1"])
    assert doc["exact_expectation_re"] == pytest.approx(1.5284418450527053, rel=GOLDEN_REL)
