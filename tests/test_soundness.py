"""Certificates against exact rational references on graphs of n = 6 and on torus:3 (n = 9).

Every float input is a dyadic rational, so E[f] is an exact Fraction: enumerate the sign vectors
(64, or 512 on torus:3), build M(eps) = (lam+gamma)I - lam*D_eps - Lap from Fraction(lam) +
Fraction(gamma), the paper's matrix rather than its rounded diagonal, scale it to integers, and
take Tr M^-1 by fraction-free Gauss-Jordan, which needs no pivoting for a symmetric positive
definite M. For a polynomial h, Tr h(H_eps) comes from exact integer powers of the scaled H_eps;
h = exp(s*z) takes a 50-digit mpmath reference instead. A run may refuse its input (ValueError,
FactorizationError); an interval or disc it returns must hold the exact value, compared in
Fractions. Sign vectors are listed in the oracle's order (eps_{k+1} = -1 exactly when bit k of the
index is set), so a transform over the exact values gives the exact Walsh coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest

from paircert.estimator import certify, certify_dominated
from paircert.functions import (
    AnalyticFunction,
    FactorizationError,
    GFunction,
    ResolventParams,
    ResolventTraceFunction,
    SpectralTraceFunction,
    dominating_resolvent_scale,
)
from paircert.graph import build_torus_cayley, from_edge_list, laplacian
from paircert.oracle import check_nonnegative, walsh_spectrum

GRAPHS = {
    "path": from_edge_list("6\n0 1\n1 2\n2 3\n3 4\n4 5"),
    "star": from_edge_list("6\n0 1\n0 2\n0 3\n0 4\n0 5"),
    "torus:3": build_torus_cayley(3),
}
SMALL = ("path", "star")  # the wide grid's graphs, 64 sign vectors each
LAMBDAS = (1e-8, 1.0, 1e8, 1e17)
GAMMAS = (1e-120, 1e-13, 1e-6, 1.0, 1e6)
TORUS_POINTS = ((1.0, 1.0), (0.7, 1.3), (1e12, 1.0), (1.0, 1e-9))


def _signs(n: int) -> list[list[int]]:
    """Every sign vector of length n in the oracle's enumeration order."""
    return [[1 - 2 * (mask >> k & 1) for k in range(n)] for mask in range(1 << n)]


def _scaled_operators(name: str, shift: Fraction, lam: Fraction) -> tuple[int, list[list[list[int]]]]:
    """(s, [s * (shift*I - lam*D_eps - Lap) for every sign vector eps]), s the least integer that
    makes every entry an integer; each matrix is a list of int rows."""
    adjacency = GRAPHS[name].adjacency.tolist()
    n, s = len(adjacency), math.lcm(shift.denominator, lam.denominator)
    return s, [
        [[int(s * (shift - lam * eps[i] + sum(row))) if i == j else -s * row[j] for j in range(n)] for i, row in enumerate(adjacency)]
        for eps in _signs(n)
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
def exact_resolvent_values(name: str, lam: float, gamma: float) -> tuple[Fraction, ...]:
    """Tr M(eps)^-1 / n at every sign vector."""
    s, operators = _scaled_operators(name, Fraction(lam) + Fraction(gamma), Fraction(lam))
    return tuple(s * _trace_of_inverse(m) / GRAPHS[name].n for m in operators)


def exact_spectral_values(name: str, lam: float, coefficients: tuple[float, ...]) -> tuple[Fraction, ...]:
    """Tr h(H_eps) / n at every sign vector, H_eps = -lam*D_eps - Lap, for h = sum_k c_k z^k."""
    s, operators = _scaled_operators(name, Fraction(0), Fraction(lam))
    n, values = GRAPHS[name].n, []
    for h in operators:
        power, total = [[int(i == j) for j in range(n)] for i in range(n)], Fraction(0)  # (s*H)^k
        for k, c in enumerate(coefficients):
            total += Fraction(c) * Fraction(sum(power[i][i] for i in range(n)), s**k)
            power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*h)] for row in power]
        values.append(total / n)
    return tuple(values)


def _mean(values) -> Fraction:
    return sum(values) / len(values)


def _walsh_coefficients(values) -> list[Fraction]:
    """Exact Walsh coefficients of the values in enumeration order: the unnormalized transform over
    Fractions, divided by 2^n."""
    out, half = list(values), 1
    while half < len(out):
        for start in range(0, len(out), 2 * half):
            for i in range(start, start + half):
                out[i], out[i + half] = out[i] + out[i + half], out[i] - out[i + half]
        half *= 2
    return [c / len(out) for c in out]


def _interval_holds(name: str, lam: float, gamma: float, p: int, seed: int):
    try:
        cert = certify(ResolventTraceFunction(ResolventParams(lam, gamma, laplacian(GRAPHS[name]))), p, seed)
    except (ValueError, FactorizationError):
        assert (lam, gamma) != (1.0, 1.0)  # the paper's case must certify, or the points test refusals only
        return
    assert Fraction(cert.lower) <= _mean(exact_resolvent_values(name, lam, gamma)) <= Fraction(cert.upper)


@pytest.mark.parametrize("p, seed", [(2, 1), (20, 3)])
@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("name", SMALL)
def test_interval_holds_the_exact_mean(name, lam, gamma, p, seed):
    _interval_holds(name, lam, gamma, p, seed)


# p = 5 holds at most 11 keys, which take Takahashi's recurrence; p = 20 and 30 pass 2^9 / 16 = 32
# keys and take the cube, where g is read off f at every mask
@pytest.mark.parametrize("p", [5, 20, 30])
@pytest.mark.parametrize("lam, gamma", TORUS_POINTS)
def test_torus_interval_holds_the_exact_mean(lam, gamma, p):
    _interval_holds("torus:3", lam, gamma, p, 1)


def _disc_holds(cert, exact: Fraction) -> bool:
    re, im = Fraction(cert.center.real) - exact, Fraction(cert.center.imag)
    return re * re + im * im <= Fraction(cert.radius) ** 2


@pytest.mark.parametrize("coefficients", [(0, 0, 1), (1, -2, 0.5), (0, 0, 0, 1), (0.3, -1, 0.2, 0.05, -0.01)], ids=lambda c: ",".join(map(str, c)))
@pytest.mark.parametrize("name", SMALL + ("torus:3",))
def test_disc_holds_the_exact_mean(name, coefficients):
    graph, lam = GRAPHS[name], 0.7
    h = AnalyticFunction.polynomial(coefficients)
    f1, f2 = dominating_resolvent_scale(h, ResolventParams(lam, 1.3, laplacian(graph)), graph)
    cert = certify_dominated(f1, GFunction(f2), 20, 3)
    assert _disc_holds(cert, _mean(exact_spectral_values(name, lam, coefficients)))


@pytest.mark.parametrize("lam", [1e4, 1e8])
def test_square_disc_holds_at_large_lam(lam):
    # h = z^2 on torus:3: E[Tr H^2 / n] = lam^2 + d^2 + d = lam^2 + 20 exactly. The walk majorant is
    # tight here (b_S = |a_S|), so at these lam rounding alone moves the center past its radius unless
    # dominating_resolvent_scale sends h to kappa times the resolvent
    graph = GRAPHS["torus:3"]
    f1, f2 = dominating_resolvent_scale(AnalyticFunction.polynomial((0, 0, 1)), ResolventParams(lam, 1.0, laplacian(graph)), graph)
    exact = Fraction(lam) ** 2 + 20
    for seed in range(20):
        assert _disc_holds(certify_dominated(f1, GFunction(f2), 20, seed), exact), seed


def test_exp_disc_holds_the_50_digit_mean():
    # E[Tr exp(s*H_eps) / n] on the path from each H_eps's eigenvalues at 50 digits; the reference is
    # within 1e-40 of the exact mean, so the disc must hold it with that much to spare
    graph, lam, s = GRAPHS["path"], 0.7, 0.3
    params = ResolventParams(lam, 1.3, laplacian(graph))
    f1, f2 = dominating_resolvent_scale(AnalyticFunction.exp_scaled(s), params, graph)
    cert = certify_dominated(f1, GFunction(f2), 20, 3)
    n, lap = graph.n, params.laplacian.astype(int).tolist()
    with mpmath.workdps(50):
        traces = []
        for eps in _signs(n):
            m = mpmath.matrix([[-lap[i][j] - (mpmath.mpf(lam) * eps[i] if i == j else 0) for j in range(n)] for i in range(n)])
            traces.append(mpmath.fsum(mpmath.exp(mpmath.mpf(s) * e) for e in mpmath.eigsy(m, eigvals_only=True)))
        reference = mpmath.fsum(traces) / (len(traces) * n)
        assert abs(mpmath.mpc(cert.center) - reference) + mpmath.mpf("1e-40") <= cert.radius


@pytest.mark.parametrize("kind", ["resolvent", "cube"])
def test_walsh_verdict_matches_the_exact_spectrum(kind):
    # torus:3 at lam = gamma = 1: the resolvent trace has nonnegative coefficients, Tr H^3 / n has
    # negative singleton ones; the float verdict at the oracle's tolerance must agree with the sign of
    # the exact minimum, taken with no tolerance, and every float coefficient lies near its exact value
    params = ResolventParams(1.0, 1.0, laplacian(GRAPHS["torus:3"]))
    if kind == "resolvent":
        fn, values = ResolventTraceFunction(params), exact_resolvent_values("torus:3", 1.0, 1.0)
    else:
        fn, values = SpectralTraceFunction(AnalyticFunction.polynomial((0, 0, 0, 1)), params), exact_spectral_values("torus:3", 1.0, (0, 0, 0, 1))
    exact, spectrum = _walsh_coefficients(values), walsh_spectrum(fn)
    assert check_nonnegative(spectrum, 1e-10).ok == (min(exact) >= 0) == (kind == "resolvent")
    assert max(abs(Fraction(c) - e) for c, e in zip(spectrum.coefficients.tolist(), exact)) <= 1e-14 * max(map(abs, exact))
