"""Certificates against exact rational references on graphs of n = 6.

Every float input is a dyadic rational, so E[f] is an exact Fraction: enumerate the 64 sign
vectors, build M(eps) = (lam+gamma)I - lam*D_eps - Lap from Fraction(lam) + Fraction(gamma), the
paper's matrix rather than its rounded diagonal, scale it to integers, and take Tr M^-1 by
fraction-free Gauss-Jordan, which needs no pivoting for a symmetric positive definite M. For a
polynomial h, Tr h(H_eps) comes from exact integer powers of the scaled H_eps. A run may refuse its
input (ValueError, FactorizationError); an interval or disc it returns must hold the exact value,
compared in Fractions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest

from paircert.estimator import certify, certify_dominated
from paircert.functions import (
    AnalyticFunction,
    FactorizationError,
    GFunction,
    ResolventParams,
    ResolventTraceFunction,
    dominating_resolvent_scale,
)
from paircert.graph import from_edge_list, laplacian

GRAPHS = {
    "path": from_edge_list("6\n0 1\n1 2\n2 3\n3 4\n4 5"),
    "star": from_edge_list("6\n0 1\n0 2\n0 3\n0 4\n0 5"),
}
LAMBDAS = (1e-8, 1.0, 1e8, 1e17)
GAMMAS = (1e-120, 1e-13, 1e-6, 1.0, 1e6)


def _scaled_operators(name: str, shift: Fraction, lam: Fraction) -> tuple[int, list[list[list[int]]]]:
    """(s, [s * (shift*I - lam*D_eps - Lap) for every sign vector eps]), s the least integer that
    makes every entry an integer; each matrix is a list of int rows."""
    adjacency = GRAPHS[name].adjacency.tolist()
    n, s = len(adjacency), math.lcm(shift.denominator, lam.denominator)
    return s, [
        [[int(s * (shift - lam * eps[i] + sum(row))) if i == j else -s * row[j] for j in range(n)] for i, row in enumerate(adjacency)]
        for eps in itertools.product((1, -1), repeat=n)
    ]


def _trace_of_inverse(m: list[list[int]]) -> Fraction:
    """Tr m^-1 for a symmetric positive definite integer m, by fraction-free (Bareiss) Gauss-Jordan on
    [m | I], which ends at [det*I | adj m] with every division exact and no pivoting."""
    n = len(m)
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    previous = 1
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        for i, row in enumerate(rows):
            if i != k:
                rows[i] = [(pivot * x - row[k] * y) // previous for x, y in zip(row, pivot_row)]
        previous = pivot
    return Fraction(sum(rows[i][n + i] for i in range(n)), previous)


@lru_cache(maxsize=None)
def exact_resolvent_mean(name: str, lam: float, gamma: float) -> Fraction:
    """E[Tr M(eps)^-1 / n]."""
    s, operators = _scaled_operators(name, Fraction(lam) + Fraction(gamma), Fraction(lam))
    return s * sum(_trace_of_inverse(m) for m in operators) / (len(operators) * GRAPHS[name].n)


def exact_spectral_mean(name: str, lam: float, coefficients: tuple[float, ...]) -> Fraction:
    """E[Tr h(H_eps) / n], H_eps = -lam*D_eps - Lap, for h = sum_k c_k z^k."""
    s, operators = _scaled_operators(name, Fraction(0), Fraction(lam))
    n, total = GRAPHS[name].n, Fraction(0)
    for h in operators:
        power = [[int(i == j) for j in range(n)] for i in range(n)]  # (s*H)^k
        for k, c in enumerate(coefficients):
            total += Fraction(c) * Fraction(sum(power[i][i] for i in range(n)), s**k)
            power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*h)] for row in power]
    return total / (len(operators) * n)


@pytest.mark.parametrize("p, seed", [(2, 1), (20, 3)])
@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_interval_holds_the_exact_mean(name, lam, gamma, p, seed):
    try:
        cert = certify(ResolventTraceFunction(ResolventParams(lam, gamma, laplacian(GRAPHS[name]))), p, seed)
    except (ValueError, FactorizationError):
        assert (lam, gamma) != (1.0, 1.0)  # the paper's case must certify, or the grid tests refusals only
        return
    assert Fraction(cert.lower) <= exact_resolvent_mean(name, lam, gamma) <= Fraction(cert.upper)


@pytest.mark.parametrize("coefficients", [(0, 0, 1), (1, -2, 0.5), (0, 0, 0, 1)], ids=lambda c: ",".join(map(str, c)))
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_disc_holds_the_exact_mean(name, coefficients):
    graph, lam = GRAPHS[name], 0.7
    h = AnalyticFunction.polynomial(coefficients)
    f1, f2 = dominating_resolvent_scale(h, ResolventParams(lam, 1.3, laplacian(graph)), graph)
    cert = certify_dominated(f1, GFunction(f2), 20, 3)
    exact = exact_spectral_mean(name, lam, coefficients)
    re, im = Fraction(cert.center.real) - exact, Fraction(cert.center.imag)
    assert re * re + im * im <= Fraction(cert.radius) ** 2
