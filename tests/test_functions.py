from __future__ import annotations

import ctypes
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.special import i0

from paircert import estimator, functions
from paircert.estimator import certify_dominated
from paircert.functions import (
    AnalyticFunction,
    BernoulliFunction,
    FactorizationError,
    GFunction,
    QuadratureError,
    ResolventParams,
    ResolventTraceFunction,
    SpectralTraceFunction,
    WalkMajorantFunction,
    block_rows,
    contour_norm_integral,
    dominating_resolvent_scale,
    naive_g,
)
from paircert.graph import build_torus_cayley, from_edge_list, laplacian
from paircert.oracle import ENUMERATION_LIMIT, check_domination, exact_expectation, walsh_spectrum
from paircert.sampling import all_ones, flip, sample, unpack_keys

from conftest import (
    Blocked,
    ConstantFunction,
    LambdaFunction,
    assert_same_bits_for_any_split,
    pair_averages,
    random_connected_graph,
    random_signs,
    single_vertex_graph,
    single_vertex_resolvent,
)


def test_single_vertex_closed_forms():
    fn = single_vertex_resolvent(lam=1.0, gamma=1.0)
    plus = np.array([1], dtype=np.int8)
    minus = np.array([-1], dtype=np.int8)
    assert fn.evaluate(plus) == pytest.approx(1.0, abs=1e-15)
    assert fn.evaluate(minus) == pytest.approx(1 / 3, abs=1e-15)
    f_plus, g_plus = fn.evaluate_with_g(plus)
    f_minus, g_minus = fn.evaluate_with_g(minus)
    assert (f_plus, f_minus) == pytest.approx((1.0, 1 / 3), abs=1e-15)
    assert g_plus == pytest.approx(1 / 3, abs=1e-14)
    assert g_minus == pytest.approx(-1 / 3, abs=1e-14)
    assert naive_g(fn, plus) == pytest.approx(1 / 3, abs=1e-14)


def test_torus3_all_ones(torus3_params):
    # M = I - Lap has eigenvalues {1 x1, 4 x4, 7 x4}: f = (1 + 4/4 + 4/7)/9
    fn = ResolventTraceFunction(torus3_params)
    assert fn.evaluate(all_ones(9)) == pytest.approx(2 / 7, abs=1e-13)


def test_module_level_ops(torus3_params):
    # fresh objects, as one-shot use builds them
    eps = all_ones(9)
    assert ResolventTraceFunction(torus3_params).evaluate(eps) == pytest.approx(2 / 7, abs=1e-13)
    f, g = ResolventTraceFunction(torus3_params).evaluate_with_g(eps)
    assert f == pytest.approx(2 / 7, abs=1e-13)
    assert g == pytest.approx(naive_g(ResolventTraceFunction(torus3_params), eps), abs=1e-13)


def test_value_range():
    rng = np.random.default_rng(3)
    for _ in range(20):
        graph = random_connected_graph(rng, int(rng.integers(2, 20)))
        lam = float(rng.uniform(0.1, 3.0))
        gamma = float(rng.uniform(0.2, 2.0))
        fn = ResolventTraceFunction(ResolventParams(lam, gamma, laplacian(graph)))
        value = fn.evaluate(random_signs(rng, graph.n))
        assert 0.0 < value <= 1.0 / gamma + 1e-12


def test_fast_g_matches_naive(torus3_params):
    rng = np.random.default_rng(17)
    fn = ResolventTraceFunction(torus3_params)
    for _ in range(50):
        eps = random_signs(rng, 9)
        f_fast, g_fast = fn.evaluate_with_g(eps)
        assert fn.evaluate(eps) == f_fast
        g_ref = naive_g(fn, eps)
        assert g_fast == pytest.approx(g_ref, rel=1e-9, abs=0)


def test_naive_g_on_monomials():
    # closed forms: constants vanish, a degree-k monomial is multiplied by k
    rng = np.random.default_rng(11)
    constant = ConstantFunction(3, 2.5)
    linear = LambdaFunction(3, lambda eps: float(eps[0]))
    quadratic = LambdaFunction(3, lambda eps: float(eps[0] * eps[1]))
    for _ in range(8):
        eps = random_signs(rng, 3)
        assert naive_g(constant, eps) == 0.0
        assert naive_g(linear, eps) == pytest.approx(float(eps[0]), abs=1e-15)
        assert naive_g(quadratic, eps) == pytest.approx(2.0 * eps[0] * eps[1], abs=1e-15)


def test_tiny_lambda_bound(torus3):
    lam = 1e-6
    fn = ResolventTraceFunction(ResolventParams(lam, 1.0, laplacian(torus3)))
    rng = np.random.default_rng(5)
    for _ in range(10):
        _, g = fn.evaluate_with_g(random_signs(rng, 9))
        assert abs(g) <= lam


def test_dimension_mismatch(torus3_params):
    fn = ResolventTraceFunction(torus3_params)
    with pytest.raises(ValueError, match="length"):
        fn.evaluate(all_ones(8))
    with pytest.raises(ValueError, match="length"):
        fn.evaluate_with_g(all_ones(10))
    # the spectral trace shares the resolvent's assembly and its check
    spectral = SpectralTraceFunction(AnalyticFunction.polynomial([0, 1]), torus3_params)
    with pytest.raises(ValueError, match="length"):
        spectral.evaluate(all_ones(8))
    with pytest.raises(ValueError, match="length"):
        spectral.evaluate_block(np.ones((3, 10), dtype=np.int8))


def test_factorization_counter(torus3_params):
    fn = ResolventTraceFunction(torus3_params)
    assert fn.factorization_count == 0
    fn.evaluate(all_ones(9))
    assert fn.factorization_count == 1
    fn.evaluate_with_g(all_ones(9))
    assert fn.factorization_count == 2
    naive_g(fn, all_ones(9))
    assert fn.factorization_count == 2 + 10


def test_factorization_failure():
    # a matrix that is not a Laplacian can push M below positive definite
    fake = np.eye(3) * 10.0
    fn = ResolventTraceFunction(ResolventParams(1.0, 1.0, fake))
    with pytest.raises(FactorizationError):
        fn.evaluate(all_ones(3))


def test_resolvent_params_validation(torus3):
    lap = laplacian(torus3)
    with pytest.raises(ValueError):
        ResolventParams(0.0, 1.0, lap)
    with pytest.raises(ValueError):
        ResolventParams(1.0, -2.0, lap)
    with pytest.raises(ValueError):
        ResolventParams(1.0, 1.0, np.zeros((2, 3)))
    for dtype in (complex, object):
        with pytest.raises(ValueError, match="real"):
            ResolventParams(1.0, 1.0, lap.astype(dtype))
    listed = ResolventParams(1.0, 1.0, lap.tolist()).laplacian
    assert listed.dtype == np.float64 and np.array_equal(listed, lap)


@pytest.mark.parametrize(
    "lam, gamma, ok",
    [(1.0, 1e-120, False), (1.0, 6e-14, False), (1.0, 7e-14, True), (1e17, 1.0, False)],
    ids=["gamma-1e-120", "gamma-6e-14", "gamma-7e-14", "lambda-1e17"],
)
def test_resolvent_params_refuses_unfactorable(torus3, lam, gamma, ok):
    # rounding M(eps)'s diagonal could take gamma away: at gamma = 1e-120 certify returned
    # [-1.97e15, 5.6e14] while E[f] is 2.17e116; on torus:3 at lam = 1 the bound lies in (6e-14, 7e-14)
    if ok:
        assert ResolventParams(lam, gamma, laplacian(torus3)).max_degree == 4
    else:
        with pytest.raises(ValueError, match="positive definite"):
            ResolventParams(lam, gamma, laplacian(torus3))


def test_factorization_bound_reads_the_maximum_degree():
    # a 6-vertex star has degrees 5 and 1. With c = 2*lam + gamma + d, Demmel's condition
    # (gamma - 4uc)(1 - g) > n*g*(c + 4uc) is linear in gamma: solve it at lam = 1, d = 5
    star = from_edge_list("6\n0 1\n0 2\n0 3\n0 4\n0 5")
    n, u = star.n, Fraction(1, 2**53)
    g = (n + 1) * u / (1 - (n + 1) * u)
    slope, offset = (1 - 4 * u) * (1 - g) - n * g * (1 + 4 * u), 4 * u * (1 - g) + n * g * (1 + 4 * u)
    bound = float((2 + star.max_degree) * offset / slope)
    with pytest.raises(ValueError, match="positive definite"):
        ResolventParams(1.0, 0.99 * bound, laplacian(star))
    assert ResolventParams(1.0, 1.01 * bound, laplacian(star)).max_degree == 5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_resolvent_params_rejects_non_finite_laplacian(torus3, bad):
    lap = laplacian(torus3).copy()
    lap[0, 1] = lap[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        ResolventParams(1.0, 1.0, lap)


def test_resolvent_params_rejects_non_symmetric_laplacian(torus3):
    # the binding's dpotrf reads one triangle of a C-ordered matrix, cholesky and eigvalsh the other
    lap = laplacian(torus3).copy()
    lap[0, 1] += 0.5
    with pytest.raises(ValueError, match="symmetric"):
        ResolventParams(1.0, 1.0, lap)


@pytest.mark.parametrize("dtype", [np.int8, np.int64, bool])
def test_integer_laplacian_matches_float_copy(torus3, dtype):
    # stored as float64, so the kernels see the same matrix; bool is real too, though no Laplacian
    lap = laplacian(torus3).astype(dtype)
    params, reference = ResolventParams(1.0, 1.0, lap), ResolventParams(1.0, 1.0, lap.astype(np.float64))
    assert params.laplacian.dtype == np.float64 and not params.laplacian.flags.writeable
    table = sample(12, 9, 4)
    h = AnalyticFunction.polynomial([0.5, -1.0, 0.25])
    spectral = SpectralTraceFunction(h, params).evaluate_block(table)
    assert spectral.tolist() == SpectralTraceFunction(h, reference).evaluate_block(table).tolist()
    if dtype is bool:  # (lam+gamma)I minus a 0/1 matrix need not be positive definite
        return
    f, g = ResolventTraceFunction(params).evaluate_block_with_g(table)
    f_ref, g_ref = ResolventTraceFunction(reference).evaluate_block_with_g(table)
    assert f.tolist() == f_ref.tolist() and g.tolist() == g_ref.tolist()
    assert ResolventTraceFunction(params).evaluate_block(table).tolist() == f_ref.tolist()


def test_analytic_from_spec():
    h = AnalyticFunction.from_spec("poly:1,0,2")
    z = np.array([0.0, 1.0, 2.0j])
    np.testing.assert_allclose(h(z), 1 + 2 * z**2)
    e = AnalyticFunction.from_spec("exp:0.5")
    np.testing.assert_allclose(e(z), np.exp(0.5 * z))


@pytest.mark.parametrize(
    "text", ["poly:", "exp:", "exp:a", "sin:1", "poly:1;2", "", "poly", "exp:nan", "exp:inf", "poly:inf", "poly:nan,1"]
)
def test_analytic_from_spec_rejects(text):
    with pytest.raises(ValueError):
        AnalyticFunction.from_spec(text)


def test_subclass_without_evaluation_method_is_refused():
    # evaluate and evaluate_block default to each other; with neither they would recurse
    class Empty(BernoulliFunction):
        pass

    with pytest.raises(TypeError, match="evaluate or evaluate_block"):
        Empty(3)
    with pytest.raises(ValueError, match="dimension must be positive"):
        ConstantFunction(0, 1.0)


def test_contour_constant_closed_forms():
    one = AnalyticFunction.polynomial([1.0])
    # |h| = 1 on the contour, so kappa is exactly the radius d + lam + gamma
    assert abs(contour_norm_integral(one, 4, 1.0, 1.0) - 6.0) <= 1e-12
    assert abs(contour_norm_integral(one, 0, 1.0, 1.0) - 2.0) <= 1e-12

    square = AnalyticFunction.polynomial([0.0, 0.0, 1.0])
    # |z^2| = r^2 on |z| = r: kappa = r^3 / r = r * r^2 with r = 2
    assert abs(contour_norm_integral(square, 0, 1.0, 1.0) - 8.0) <= 1e-10

    linear = AnalyticFunction.polynomial([0.0, 1.0])
    assert abs(contour_norm_integral(linear, 0, 1.0, 1.0) - 4.0) <= 1e-10


def test_contour_constant_exponential_bessel():
    # (r/2pi) * integral of exp(s*r*cos t) dt = r * I0(s*r) for center 0
    s = 0.5
    value = contour_norm_integral(AnalyticFunction.exp_scaled(s), 0, 1.0, 1.0)
    assert value == pytest.approx(2.0 * i0(s * 2.0), rel=1e-10)


def test_contour_doubling_stabilizes_builtins():
    specs = ["poly:1", "poly:0,1", "poly:0,0,1", "poly:3,-2,1,0.5", "exp:1", "exp:0.25", "exp:-0.5"]
    for text in specs:
        for d in (0, 4):
            value = contour_norm_integral(AnalyticFunction.from_spec(text), d, 1.0, 1.0)
            assert np.isfinite(value) and value >= 0.0


def test_quadrature_overflow_detected():
    blowup = AnalyticFunction.exp_scaled(1000.0)
    with pytest.raises(QuadratureError):
        contour_norm_integral(blowup, 4, 1.0, 1.0)


def test_quadrature_rough_integrand_hits_cap():
    # |h| jumps on the contour, so trapezoid levels keep drifting by O(1/N)
    step = AnalyticFunction(name="step", evaluator=lambda z: np.where(z.real > 0.5, 1.0, 2.0))
    with pytest.raises(QuadratureError, match="stabilize"):
        contour_norm_integral(step, 0, 1.0, 1.0)


def test_spectral_trace_constant(torus3_params):
    one = AnalyticFunction.polynomial([1.0])
    fn = SpectralTraceFunction(one, torus3_params)
    assert fn.evaluate(all_ones(9)) == pytest.approx(1.0, abs=1e-13)


def test_spectral_trace_linear(torus3_params):
    # mean eigenvalue of -lam*D - Lap is -lam*mean(eps) + 4 on a 4-regular graph
    linear = AnalyticFunction.polynomial([0.0, 1.0])
    fn = SpectralTraceFunction(linear, torus3_params)
    rng = np.random.default_rng(23)
    for _ in range(5):
        eps = random_signs(rng, 9)
        expected = -float(eps.mean()) + 4.0
        assert fn.evaluate(eps) == pytest.approx(expected, abs=1e-11)


def test_spectral_trace_single_vertex_square():
    res = single_vertex_resolvent(lam=1.0, gamma=1.0)
    square = AnalyticFunction.polynomial([0.0, 0.0, 1.0])
    fn = SpectralTraceFunction(square, res.params)
    # operator is the 1x1 matrix (-lam*eps): h gives eps^2 = 1 either way
    assert fn.evaluate(np.array([1], dtype=np.int8)) == pytest.approx(1.0, abs=1e-14)
    assert fn.evaluate(np.array([-1], dtype=np.int8)) == pytest.approx(1.0, abs=1e-14)
    assert SpectralTraceFunction(square, res.params).evaluate(np.array([-1], dtype=np.int8)) == pytest.approx(1.0, abs=1e-14)


def test_scaled_function(torus3_params):
    inner = ResolventTraceFunction(torus3_params)
    scaled = ResolventTraceFunction(torus3_params, scale=2.5)
    eps = all_ones(9)
    f_in, g_in = inner.evaluate_with_g(eps)
    f_out, g_out = scaled.evaluate_with_g(eps)
    assert f_out == pytest.approx(2.5 * f_in, rel=1e-15)
    assert g_out == pytest.approx(2.5 * g_in, rel=1e-15)
    assert scaled.evaluate(eps) == pytest.approx(2.5 * f_in, rel=1e-15)
    assert scaled.bounded_difference_constant == pytest.approx(2.5 * inner.bounded_difference_constant)
    # each counts its own factorizations: two calls on the scaled one, one on the plain one
    assert (scaled.factorization_count, inner.factorization_count) == (2, 1)


@pytest.mark.parametrize("side", [3, 6])
def test_scale_multiplies_finished_values(side):
    # kappa multiplies the finished f and g, never lam/n, so the bits are kappa times the plain ones
    graph = build_torus_cayley(side)
    params = ResolventParams(0.7, 1.3, laplacian(graph))
    kappa = contour_norm_integral(AnalyticFunction.exp_scaled(0.3), graph.max_degree, 0.7, 1.3)
    plain, scaled = ResolventTraceFunction(params), ResolventTraceFunction(params, scale=kappa)
    table = sample(12, graph.n, 5)
    np.testing.assert_array_equal(scaled.evaluate_block(table), kappa * plain.evaluate_block(table))
    f, g = plain.evaluate_block_with_g(table)
    f_scaled, g_scaled = scaled.evaluate_block_with_g(table)
    np.testing.assert_array_equal(f_scaled, kappa * f)
    np.testing.assert_array_equal(g_scaled, kappa * g)


def test_g_function_paths(torus3_params):
    fn = ResolventTraceFunction(torus3_params)
    g = GFunction(fn)
    rng = np.random.default_rng(31)
    for _ in range(5):
        eps = random_signs(rng, 9)
        assert g.evaluate(eps) == pytest.approx(naive_g(fn, eps), rel=1e-9, abs=1e-14)
    # g's factorizations are the wrapped function's: one per row of its combined path
    fresh = GFunction(ResolventTraceFunction(torus3_params))
    fresh.evaluate_block(all_ones(9)[None].repeat(4, axis=0))
    assert fresh.factorization_count == fresh.fn.factorization_count == 4


def test_dominating_pair_h_one(torus3, torus3_params):
    # an h known by its evaluator alone keeps kappa times the resolvent
    one = AnalyticFunction("one", np.ones_like)
    f1, f2 = dominating_resolvent_scale(one, torus3_params, torus3)
    eps = all_ones(9)
    # kappa = d + lam + gamma = 6, so f2 = 6 * resolvent trace
    resolvent = ResolventTraceFunction(torus3_params)
    assert f2.evaluate(eps) == pytest.approx(6.0 * resolvent.evaluate(eps), rel=1e-12)
    assert f1.evaluate(eps) == pytest.approx(1.0, abs=1e-13)
    assert f2.bounded_difference_constant == pytest.approx(12.0, rel=1e-12)


def test_dominating_pair_single_vertex_square():
    # isolated vertex, h(z) = z^2 known by its evaluator: the spectral side is
    # identically 1 and the companion is 8 times the resolvent trace (kappa = 8 at d = 0)
    graph = single_vertex_graph()
    params = ResolventParams(1.0, 1.0, laplacian(graph))
    square = AnalyticFunction("square", lambda z: z * z)
    f1, f2 = dominating_resolvent_scale(square, params, graph)
    resolvent = ResolventTraceFunction(params)
    assert f2.scale == pytest.approx(8.0, rel=1e-12)
    for value in (1, -1):
        eps = np.array([value], dtype=np.int8)
        assert f1.evaluate(eps) == pytest.approx(1.0, abs=1e-13)
        assert f2.evaluate(eps) == pytest.approx(8.0 * resolvent.evaluate(eps), rel=1e-12)


def test_dominating_pair_dimension_check(torus3_params):
    one = AnalyticFunction.polynomial([1.0])
    # a wrong n; and torus:4's Laplacian with the 16-cycle, whose max degree 2 would draw the contour too small
    cycle = from_edge_list("16\n" + "\n".join(f"{i} {(i + 1) % 16}" for i in range(16)))
    torus4_params = ResolventParams(1.0, 1.0, laplacian(build_torus_cayley(4)))
    for params, graph in [(torus3_params, build_torus_cayley(4)), (torus4_params, cycle)]:
        with pytest.raises(ValueError, match="match"):
            dominating_resolvent_scale(one, params, graph)


MAJORANT_POLYS = ["poly:0,0,1", "poly:0,0,0,1", "poly:1,-2,0.5", "poly:0.3,-1,0.2,0.05,-0.01"]


@pytest.mark.parametrize("complex_coefficients", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("degree", range(7))
def test_walk_majorant_g_matches_naive(degree, complex_coefficients):
    # the flip recursion D_k = k u_k + sum_{i<k} u_i D_{k-i} against n + 1 evaluations, on torus:3 and
    # on a graph whose degrees differ, where |Lap| has unequal diagonal entries
    rng = np.random.default_rng(degree)
    coeffs = rng.uniform(-1.0, 1.0, degree + 1) + (1j * rng.uniform(-1.0, 1.0, degree + 1) if complex_coefficients else 0.0)
    h = AnalyticFunction.polynomial(coeffs.tolist())
    for graph in (build_torus_cayley(3), random_connected_graph(rng, 7)):
        fn = WalkMajorantFunction(h, ResolventParams(0.7, 1.3, laplacian(graph)))
        for _ in range(4):
            eps = random_signs(rng, graph.n)
            f, g = fn.evaluate_with_g(eps)
            assert f == fn.evaluate(eps)
            assert g == pytest.approx(naive_g(fn, eps), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("side", [3, 4, 6])
def test_walk_majorant_same_bits_for_any_split(side):
    # blocks of 1 (as a traced run makes them), 3 and all rows give the same bits, and so does the disc
    # at threads 1 and 3
    graph = build_torus_cayley(side)
    params = ResolventParams(1.5, 0.75, laplacian(graph))
    table = _pair_table(12, params.n, 5)
    for spec in MAJORANT_POLYS:
        h = AnalyticFunction.from_spec(spec)
        assert_same_bits_for_any_split(WalkMajorantFunction(h, params), table, (1, 3), with_g=True)
        documents = set()
        for size in (1, 3, block_rows(params.n)):
            for threads in (1, 3):
                f1, f2 = dominating_resolvent_scale(h, params, graph)
                assert isinstance(f2, WalkMajorantFunction)
                documents.add(json.dumps(certify_dominated(f1, Blocked(GFunction(f2), size), 12, 5, threads=threads).to_json_dict()))
        assert len(documents) == 1


@pytest.mark.parametrize("side", [3, 4])
def test_walk_majorant_dominates_at_the_oracle(side):
    # every |a_S| of the h-trace is at most b_S of the majorant at the oracle's tolerance; with Lap in
    # place of |Lap| the signed walk weights no longer dominate, and the same check fails
    graph = build_torus_cayley(side)
    params = ResolventParams(1.0, 1.0, laplacian(graph))
    for spec in MAJORANT_POLYS:
        f1, f2 = dominating_resolvent_scale(AnalyticFunction.from_spec(spec), params, graph)
        assert isinstance(f2, WalkMajorantFunction)
        spectrum1 = walsh_spectrum(f1)
        assert check_domination(spectrum1, walsh_spectrum(f2), 1e-10).ok, spec
        f2._abs_lap = params.laplacian
        assert not check_domination(spectrum1, walsh_spectrum(f2), 1e-10).ok, spec


def test_only_kappa_reaches_the_contour(monkeypatch, torus3):
    # a polynomial h on the majorant path never draws the contour; exp:s, a degree past the power-sum
    # budget and a lam whose rounding bound exceeds the slack still take kappa times the resolvent
    def refuse(*_):
        raise AssertionError("contour_norm_integral reached")

    monkeypatch.setattr(functions, "contour_norm_integral", refuse)
    params = ResolventParams(1.0, 1.0, laplacian(torus3))
    for spec in MAJORANT_POLYS + ["poly:2.5", "poly:0,1"]:
        assert isinstance(dominating_resolvent_scale(AnalyticFunction.from_spec(spec), params, torus3)[1], WalkMajorantFunction)
    torus6 = build_torus_cayley(6)
    for spec, graph, lam in [("exp:0.3", torus3, 1.0), ("poly:0,0,1", torus3, 1e8), ("poly:" + "0," * 19 + "1", torus6, 1.0)]:
        with pytest.raises(AssertionError, match="contour"):
            dominating_resolvent_scale(AnalyticFunction.from_spec(spec), ResolventParams(lam, 1.0, laplacian(graph)), graph)


def test_eq4_per_coordinate_bound(torus3):
    # each flip moves f by at most 2*lam/(n*gamma^2)
    rng = np.random.default_rng(41)
    for lam, gamma in [(1.0, 1.0), (2.0, 0.5)]:
        fn = ResolventTraceFunction(ResolventParams(lam, gamma, laplacian(torus3)))
        bound = 2.0 * lam / (9 * gamma**2)
        for _ in range(10):
            eps = random_signs(rng, 9)
            base = fn.evaluate(eps)
            for r in range(9):
                assert abs(base - fn.evaluate(flip(eps, r))) <= bound + 1e-10


def _pair_table(p: int, n: int, seed: int) -> np.ndarray:
    signs = sample(p, n, seed)
    return np.concatenate([signs[i] * signs[i + 1:] for i in range(p - 1)])


@pytest.mark.parametrize("method", ["evaluate_block", "evaluate_block_with_g"])
@pytest.mark.parametrize("side", [3, 4, 5])
@pytest.mark.parametrize("kind", ["resolvent", "spectral", "majorant"])
def test_empty_table_gives_empty_arrays(kind, side, method):
    # no rows, on the elimination tree's side of ELIMINATION_LIMIT (n = 9, 16) and the binding's (n = 25)
    params = ResolventParams(1.0, 1.0, laplacian(build_torus_cayley(side)))
    h = AnalyticFunction.polynomial([0.0, 0.0, 1.0])
    fn = {"resolvent": ResolventTraceFunction(params), "spectral": SpectralTraceFunction(h, params), "majorant": WalkMajorantFunction(h, params)}[kind]
    out = getattr(fn, method)(np.zeros((0, params.n), dtype=np.int8))
    for part in (out,) if method == "evaluate_block" else out:
        assert part.shape == (0,) and part.dtype == np.float64


@pytest.mark.parametrize("side", [3, 4, 5, 6])
def test_block_matches_single_vectors_for_any_split(side):
    # the elimination tree up to n = ELIMINATION_LIMIT and one dpotrf/dpotri per row above it; one row
    # at a time is the k = 1 case
    graph = build_torus_cayley(side)
    params = ResolventParams(1.5, 0.75, laplacian(graph))
    n = side * side
    fn = ResolventTraceFunction(params)
    f_single, g_single = assert_same_bits_for_any_split(fn, _pair_table(12, n, 5), (1, 3), with_g=True)
    if side == 4:
        # a full block of the oracle's size, the elimination tree's at n = 16, and a remainder
        wide = _pair_table(92, n, 6)
        assert len(wide) > fn.block_size == 4096
        assert_same_bits_for_any_split(fn, wide, (fn.block_size,), with_g=True)

    ones = fn.evaluate_with_g(all_ones(n))
    expected = tuple((12 * one + 2.0 * math.fsum(v)) / 144.0 for one, v in zip(ones, (f_single, g_single)))
    signs = sample(12, n, 5)
    h = AnalyticFunction.polynomial([0.0, 0.0, 1.0])
    documents, dominated = set(), set()
    for size in dict.fromkeys((1, 3, block_rows(n), fn.block_size)):
        for threads in (1, 3):
            assert pair_averages(fn.evaluate_block_with_g, signs, threads, size) == (expected, ones)
            cert = estimator.certify(Blocked(ResolventTraceFunction(params), size), 12, 5, threads=threads)
            documents.add(json.dumps(cert.to_json_dict()))
            f1, f2 = dominating_resolvent_scale(h, params, graph)
            cert = estimator.certify_dominated(f1, Blocked(GFunction(f2), size), 12, 5, threads=threads)
            dominated.add(json.dumps(cert.to_json_dict()))
    assert len(documents) == len(dominated) == 1


def _scipy_lower(m: np.ndarray) -> np.ndarray:
    """Lower triangle of M^-1 from scipy's own LAPACK, the independent reference."""
    factor, info = lapack.dpotrf(m, lower=1)
    assert info == 0
    lower, info = lapack.dpotri(factor, lower=1)
    assert info == 0
    return lower


def _binding_lower(m: np.ndarray) -> np.ndarray:
    """Lower triangle of M^-1 from the kernel's own ctypes dpotrf and dpotri, on a fresh Fortran copy."""
    a = np.asfortranarray(m)
    assert not np.shares_memory(a, m)
    order, info = ctypes.c_int64(len(m)), ctypes.c_int64()
    for routine in (functions._openblas.scipy_dpotrf_64_, functions._openblas.scipy_dpotri_64_):
        routine(b"L", order, a.ctypes.data, order, info, 1)
        assert info.value == 0
    return np.tril(a)


def _lapack_reference(params: ResolventParams, eps: np.ndarray, inverse_lower=_scipy_lower) -> tuple[float, float]:
    """(f, g) from one dpotrf + dpotri and the rank-one flip sweep, per matrix, in the
    kernel's arithmetic: squared column norms of M^-1 from its upper triangle T = lower^T."""
    n, lam = params.n, params.lam
    m = (lam + params.gamma) * np.eye(n) - params.laplacian
    m[np.diag_indices(n)] -= lam * eps
    lower = inverse_lower(m)
    t_sq = np.square(np.ascontiguousarray(np.tril(lower).T))
    col_sq = t_sq.sum(axis=0) + t_sq.sum(axis=1) - np.diagonal(t_sq)
    g = (lam / n) * float(np.sum(eps * col_sq / (1.0 + 2.0 * lam * eps * np.diagonal(lower))))
    return float(np.trace(lower)) / n, g


@pytest.mark.parametrize("side", [3, 4, 5, 6])
def test_block_kernel_accuracy_against_lapack(side):
    # within set tolerances of scipy's LAPACK at every n, and above ELIMINATION_LIMIT, where the
    # binding runs, the same bits as the binding on one matrix (scipy bundles another OpenBLAS
    # build, which may move last bits)
    n = side * side
    for lam, gamma in ((1.0, 1.0), (1.5, 0.75), (4.0, 0.5)):
        params = ResolventParams(lam, gamma, laplacian(build_torus_cayley(side)))
        table = _pair_table(10, n, 17)
        f, g = ResolventTraceFunction(params).evaluate_block_with_g(table)
        reference = np.array([_lapack_reference(params, eps) for eps in table])
        if n > functions.ELIMINATION_LIMIT:
            same_binding = np.array([_lapack_reference(params, eps, _binding_lower) for eps in table])
            assert f.tolist() == same_binding[:, 0].tolist() and g.tolist() == same_binding[:, 1].tolist()
        np.testing.assert_allclose(f, reference[:, 0], rtol=1e-14, atol=0)
        np.testing.assert_allclose(g, reference[:, 1], rtol=1e-12, atol=0)


def _resolvent_mp(params: ResolventParams, eps: np.ndarray) -> tuple:
    """(f, g) at the working precision of mpmath, from an explicit inverse of M(eps)."""
    n, lam = params.n, mpmath.mpf(params.lam)
    m = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            m[i, j] = -mpmath.mpf(params.laplacian[i, j])
        m[i, i] += lam + mpmath.mpf(params.gamma) - lam * int(eps[i])
    inverse = m**-1
    f = mpmath.fsum(inverse[r, r] for r in range(n)) / n
    flips = (int(eps[r]) * mpmath.fsum(inverse[i, r] ** 2 for i in range(n)) / (1 + 2 * lam * int(eps[r]) * inverse[r, r]) for r in range(n))
    return f, lam * mpmath.fsum(flips) / n


@pytest.mark.parametrize("side", [3, 4])
def test_elimination_tree_matches_40_digit_reference(side):
    # at the tolerances the binding meets against scipy's LAPACK
    for lam, gamma in ((1.0, 1.0), (1.3, 1.0), (4.0, 0.5)):
        params = ResolventParams(lam, gamma, laplacian(build_torus_cayley(side)))
        table = sample(4, params.n, 3)
        f, g = ResolventTraceFunction(params).evaluate_block_with_g(table)
        with mpmath.workdps(40):
            reference = np.array([[float(v) for v in _resolvent_mp(params, eps)] for eps in table])
        np.testing.assert_allclose(f, reference[:, 0], rtol=1e-14, atol=0)
        np.testing.assert_allclose(g, reference[:, 1], rtol=1e-12, atol=0)


def test_cube_flip_half_sums_match_40_digit_reference():
    # g at a key from f at every mask: n = 9 differences of values near f, so its error is judged
    # against f, not g, which crosses zero; measured within 4e-15 of f at these points
    keys = np.array([0, 1, 77, 300, 0b101010101, 511], dtype="<u8")
    for lam, gamma in ((1.0, 1.0), (1.3, 1.0), (4.0, 0.5)):
        params = ResolventParams(lam, gamma, laplacian(build_torus_cayley(3)))
        fn = ResolventTraceFunction(params)
        g = estimator._flip_half_sums(estimator._every_mask(fn, 1), keys, 9)
        with mpmath.workdps(40):
            reference = [_resolvent_mp(params, eps) for eps in unpack_keys(keys, 9)]
            assert all(abs(mpmath.mpf(float(value)) - g_ref) <= 2e-14 * f_ref for value, (f_ref, g_ref) in zip(g, reference))


def test_elimination_tree_bits_for_any_rows():
    # all 2^9 rows in one block, a run of masks, and in blocks of 3, each against its single-row
    # values; then shuffled, with duplicates, and two near-runs that take the sorted path: masks 511
    # down to 0, and an aligned run of 256 whose first row is repeated in place of its last
    fn = ResolventTraceFunction(ResolventParams(1.5, 0.75, laplacian(build_torus_cayley(3))))
    assert fn.block_size >= 512
    every = 1 - 2 * ((np.arange(512)[:, None] >> np.arange(9)) & 1).astype(np.int8)
    single = np.array(assert_same_bits_for_any_split(fn, every, (3,), with_g=True)).T
    rows = np.random.default_rng(4).permutation(512)
    repeated = np.arange(256, 512)
    repeated[-1] = repeated[0]
    for index in (rows, np.concatenate([rows[:40], rows[:40], rows[7:9], [5, 5, 5]]), np.arange(511, -1, -1), repeated):
        f, g = fn.evaluate_block_with_g(every[index])
        assert f.tolist() == single[index, 0].tolist() and g.tolist() == single[index, 1].tolist()
        assert fn.evaluate_block(every[index]).tolist() == single[index, 0].tolist()


def test_elimination_tree_bits_in_its_own_block():
    # one block of the tree's size at n = 16 against one row per call (at n = 9 all 2^9 rows are one
    # block of it in the test above): a complete block of 4,096 consecutive masks, whose every level
    # past their shared top 4 bits branches both ways, and 4,096 random rows, whose leaves take
    # Takahashi's recurrence in several chunks of block_rows(16), the last one partial
    fn = ResolventTraceFunction(ResolventParams(1.3, 1.0, laplacian(build_torus_cayley(4))))
    random_rows = np.random.default_rng(30).choice(np.array([-1, 1], dtype=np.int8), size=(4096, 16))
    leaves, chunk = len(np.unique(random_rows, axis=0)), block_rows(16)
    assert leaves > 2 * chunk and leaves % chunk
    for table in (unpack_keys(np.arange(5 * 4096, 6 * 4096, dtype="<u8"), 16), random_rows):
        assert len(table) == fn.block_size
        assert_same_bits_for_any_split(fn, table, (), with_g=True)


def test_elimination_tree_near_runs_take_the_sorted_path():
    # consecutive masks that are not a run at n = 12: masks 0-2,999, whose length is not a power of
    # two, and 512 masks from 100, not a multiple of 512; a run's shape would misplace their rows
    fn = ResolventTraceFunction(_large_params(12))
    table = unpack_keys(np.arange(3000, dtype="<u8"), 12)
    f, g = assert_same_bits_for_any_split(fn, table, (), with_g=True)
    assert fn.evaluate_block(table[100:612]).tolist() == f[100:612].tolist()
    assert [part.tolist() for part in fn.evaluate_block_with_g(table[100:612])] == [f[100:612].tolist(), g[100:612].tolist()]


def _int64(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def test_evaluate_masks_has_the_bits_of_one_row_calls():
    # the mask entry point at n = 9: every run length 2^0..2^9 at every aligned start, against one
    # row per call; at n = 12 and 16 runs of several lengths, each a slice of the whole cube's one
    # run, and the cube at sampled masks against one row per call
    fn = ResolventTraceFunction(ResolventParams(1.5, 0.75, laplacian(build_torus_cayley(3))))
    single = _int64([fn.evaluate(eps) for eps in unpack_keys(np.arange(512, dtype="<u8"), 9)])
    for j in range(10):
        for first in range(0, 512, 1 << j):
            assert _int64(fn.evaluate_masks(first, 1 << j)) == single[first:first + (1 << j)], (first, j)
    rng = np.random.default_rng(12)
    for n in (12, 16):
        fn = ResolventTraceFunction(_large_params(n))
        cube = _int64(fn.evaluate_masks(0, 1 << n))
        for first, count in ((0, 1 << (n - 1)), (3 << (n - 4), 1 << (n - 4)), ((1 << n) - 256, 256), (1 << (n - 1) | 5, 1)):
            assert _int64(fn.evaluate_masks(first, count)) == cube[first:first + count], (n, first, count)
        masks = rng.choice(1 << n, 200, replace=False)
        assert [cube[mask] for mask in masks] == _int64([fn.evaluate(eps) for eps in unpack_keys(masks.astype("<u8"), n)])


def test_evaluate_masks_refuses_a_run_that_is_not_aligned():
    for fn in (ResolventTraceFunction(ResolventParams(1.0, 1.0, laplacian(build_torus_cayley(3)))), LambdaFunction(9, lambda eps: 1.0)):
        for first, count in ((1, 2), (256, 512), (3, 3), (0, 384), (0, 0), (512, 1), (0, 1024), (-2, 2)):
            with pytest.raises(ValueError, match="aligned run"):
                fn.evaluate_masks(first, count)
        assert fn.factorization_count == 0
        # numpy integers are integers
        assert _int64(fn.evaluate_masks(np.int64(256), np.uint64(128))) == _int64(fn.evaluate_masks(256, 128))


@pytest.mark.parametrize("n", [9, 17])
def test_evaluate_masks_counts_its_rows(n):
    # the tree at n = 9, and the default blocks of the binding at n = 17
    fn = ResolventTraceFunction(_large_params(n))
    for first, count, total in ((0, 1, 1), (64, 64, 65), (128, 128, 193)):
        fn.evaluate_masks(first, count)
        assert fn.factorization_count == total


def test_evaluate_masks_default_takes_evaluate_block():
    # a function without its own mask entry point: the default unpacks the run block_size masks at a
    # time, so it has evaluate_block's values, blocks of one row included
    fn = LambdaFunction(9, lambda eps: float(np.dot(np.arange(1.0, 10.0), eps)) ** 3)
    table = unpack_keys(np.arange(128, 384, dtype="<u8"), 9)
    assert _int64(fn.evaluate_masks(128, 128)) == _int64(fn.evaluate_block(table[:128]))
    assert _int64(fn.evaluate_masks(256, 128)) == _int64(Blocked(fn, 1).evaluate_masks(256, 128)) == _int64(fn.evaluate_block(table[128:]))


def test_elimination_tree_refuses_non_signs():
    # rows share a node by their signs, so any other entry would take another row's shift
    fn = ResolventTraceFunction(ResolventParams(1.0, 1.0, laplacian(build_torus_cayley(3))))
    table = np.ones((3, 9))
    table[1, 4] = 0.5
    for rows in (table, table[1:2]):
        with pytest.raises(ValueError, match="entries"):
            fn.evaluate_block(rows)


@pytest.mark.parametrize("entry", [-3.0, np.nan], ids=["negative", "nan"])
def test_elimination_pivot_failure_raises(entry):
    # a pivot that is not positive, or nan, in one row of a block is a FactorizationError; so on the
    # mask entry point, whose stages check their own pivots: at n = 16 coordinate 14 is eliminated at
    # depth 1, a single-node level of a run of 4,096 and a breadth-first one of the whole cube, and
    # coordinate 2 at depth 13, in the cube's chunks of deep levels
    def broken(side, coordinate):
        fn = ResolventTraceFunction(ResolventParams(1.0, 1.0, laplacian(build_torus_cayley(side))))
        base = fn._base.copy()
        base[coordinate, coordinate] = entry
        fn._base = base
        return fn

    fn = broken(3, 4)
    table = _pair_table(6, 9, 2)
    for method in (fn.evaluate_block, fn.evaluate_block_with_g):
        with pytest.raises(FactorizationError, match="pivot"):
            method(table)
        with pytest.raises(FactorizationError, match="pivot"):
            method(table[:1])
    runs = [(fn, first, count) for first, count in ((0, 512), (256, 256), (7, 1))]
    runs += [(broken(4, coordinate), first, count) for coordinate in (14, 2) for first, count in ((0, 1 << 16), (4096, 4096))]
    for function, first, count in runs:
        with pytest.raises(FactorizationError, match="pivot"):
            function.evaluate_masks(first, count)


def test_elimination_limit_covers_the_oracle():
    assert functions.ELIMINATION_LIMIT >= ENUMERATION_LIMIT


@pytest.mark.parametrize("n", [54, 64])
def test_elimination_tree_domain_reaches_one_word(n):
    # the tree's keys are one uint64 word up to n = 64: at n = 54 the adjacent keys 2^53 - 1 and 2^53,
    # whose XOR a float64 exponent would round up a split depth for, and at n = 64 all-ones and all
    # minus, keys 0 and 2^64 - 1, among random rows; the tree agrees with the binding on both
    fn = ResolventTraceFunction(_large_params(n))
    table = np.random.default_rng(n).choice(np.array([-1, 1], dtype=np.int8), size=(64, n))
    coordinate = np.arange(n)
    table[:2] = [np.where(coordinate < 53, -1, 1), np.where(coordinate == 53, -1, 1)] if n == 54 else [all_ones(n), -all_ones(n)]
    f, g = fn.evaluate_block_with_g(table)
    lam = fn.params.lam
    trace, diagonal, col_sq = functions._eliminate(fn._base, lam, table, with_g=True)
    np.testing.assert_allclose(trace / n, f, rtol=1e-14, atol=0)
    np.testing.assert_allclose((lam / n) * (table * col_sq / (1.0 + 2.0 * lam * table * diagonal)).sum(axis=1), g, rtol=1e-12, atol=0)


def _large_params(n: int) -> ResolventParams:
    """A torus when n is a square, else a random connected graph; lam = 1.5, gamma = 0.75."""
    side = math.isqrt(n)
    graph = build_torus_cayley(side) if side * side == n else random_connected_graph(np.random.default_rng(n), n)
    return ResolventParams(1.5, 0.75, laplacian(graph))


@pytest.mark.parametrize("n", [17, 25, 36, 225])
def test_binding_matches_fresh_fortran_reference(n):
    # an int-width or stride mistake in the ctypes call corrupts memory silently: bit-equality is the
    # gate. The binding runs above ELIMINATION_LIMIT only, so 17 is the smallest n that reaches it
    params = _large_params(n)
    table = _pair_table(6 if n < 225 else 3, n, n)
    f, g = ResolventTraceFunction(params).evaluate_block_with_g(table)
    reference = np.array([_lapack_reference(params, eps, _binding_lower) for eps in table])
    assert f.tolist() == reference[:, 0].tolist()
    assert g.tolist() == reference[:, 1].tolist()


def test_binding_reports_positive_info():
    # diagonal M with one negative entry, at index 7: dpotrf stops at the 8th leading minor
    n = 20
    fn = ResolventTraceFunction(ResolventParams(1.0, 1.0, 2.5 * np.eye(n)))
    table = -np.ones((2, n), dtype=np.int8)
    table[1, 7] = 1
    for method in (fn.evaluate_block, fn.evaluate_block_with_g):
        with pytest.raises(FactorizationError, match=r"dpotrf info=8\)"):
            method(table)


@pytest.mark.parametrize("n", [16, 17, 25, 36, 225])
def test_forced_fallback_matches_binding(monkeypatch, n):
    # a numpy without the bundled symbols takes the stacked kernel above ELIMINATION_LIMIT, so 17 is
    # the smallest n it serves; at n = 16 both sides take the elimination tree, which must not read the binding
    params = _large_params(n)
    table = _pair_table(5, n, 4)
    f, g = ResolventTraceFunction(params).evaluate_block_with_g(table)
    monkeypatch.setattr(functions, "_openblas", None)
    fn = ResolventTraceFunction(params)
    f_stacked, g_stacked = fn.evaluate_block_with_g(table)
    np.testing.assert_allclose(f_stacked, f, rtol=1e-13, atol=0)
    np.testing.assert_allclose(g_stacked, g, rtol=1e-13, atol=0)
    np.testing.assert_allclose(fn.evaluate_block(table), f, rtol=1e-13, atol=0)
    assert fn.factorization_count == 2 * len(table)


@pytest.mark.parametrize(
    "n, fallback",
    [(16, False), (25, False), (225, False), (17, True), (25, True), (225, True)],
    ids=["16", "25", "225", "fallback-17", "fallback-25", "fallback-225"],
)
def test_f_only_equals_f_of_pair_path(monkeypatch, n, fallback):
    # f alone skips the flip sweep's tail and reads the diagonal that the (f, g) path reads;
    # the fallback leaves M^-1 in the same stack, so the same holds there
    if fallback:
        monkeypatch.setattr(functions, "_openblas", None)
    assert_same_bits_for_any_split(ResolventTraceFunction(_large_params(n)), _pair_table(5, n, 8), (), with_g=True)


def test_binding_absent_when_library_will_not_load(monkeypatch):
    # a numpy whose _umath_linalg ctypes cannot open takes the stacked numpy kernel above ELIMINATION_LIMIT
    def refuse(*args, **kwargs):
        raise OSError("cannot open shared object file")

    monkeypatch.setattr(functions.ctypes, "CDLL", refuse)
    assert functions._load_openblas() is None


def test_import_loads_no_scipy():
    code = "import sys, paircert; assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, check=False)
    assert run.returncode == 0, run.stderr.decode()


def test_cli_runs_without_scipy_and_pins_one_blas_thread():
    # scipy made unimportable; certify at n = 36 takes the binding, and main leaves one BLAS thread
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from paircert import cli, functions\n"
        "assert cli.main(['certify', '--graph', 'torus:6', '--lambda', '1', '--gamma', '1', '--p', '4', '--seed', '1']) == 0\n"
        "assert functions._openblas.scipy_openblas_get_num_threads64_() == 1\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, check=False, env=env)
    assert run.returncode == 0, run.stderr.decode()
    assert json.loads(run.stdout)["config"]["n"] == 36
    assert "note:" not in run.stderr.decode()


@pytest.mark.parametrize("side", [3, 6])
def test_stacked_eigvalsh_matches_per_row(side):
    params = ResolventParams(1.0, 1.0, laplacian(build_torus_cayley(side)))
    n = side * side
    table = _pair_table(8, n, 3)
    for h in (AnalyticFunction.polynomial([0.0, 0.0, 1.0]), AnalyticFunction.exp_scaled(0.25), AnalyticFunction.polynomial([0.0, 1j])):
        fn = SpectralTraceFunction(h, params)
        block = fn.evaluate_block(table)
        per_row = []
        for eps in table:
            op = -params.laplacian - params.lam * np.diag(eps.astype(float))
            per_row.append(np.mean(h(np.linalg.eigvalsh(op))).item())
        if h.coefficients is None:  # exp takes eigvalsh itself
            assert block.tolist() == per_row
            assert [fn.evaluate(eps) for eps in table] == per_row
        else:  # a polynomial takes its power sums, which agree with eigvalsh to rounding
            assert block.tolist() == [fn.evaluate(eps) for eps in table]
            np.testing.assert_allclose(block, per_row, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n, fallback", [(4, False), (20, False), (20, True)], ids=["4", "20", "fallback-20"])
def test_block_with_one_indefinite_matrix_fails(monkeypatch, n, fallback):
    # M = (lam + gamma - 2.5 - lam*eps_i) on the diagonal: positive only where eps_i = -1
    if fallback:
        monkeypatch.setattr(functions, "_openblas", None)
    fn = ResolventTraceFunction(ResolventParams(1.0, 1.0, 2.5 * np.eye(n)))
    table = -np.ones((3, n), dtype=np.int8)
    table[1, 0] = 1
    assert fn.evaluate_block(table[[0, 2]]) == pytest.approx([2.0, 2.0], rel=1e-15)
    for method in (fn.evaluate_block, fn.evaluate_block_with_g):
        with pytest.raises(FactorizationError):
            method(table)


@pytest.mark.parametrize("side", [3, 5])
def test_factorization_count_grows_by_block_rows(side):
    params = ResolventParams(1.0, 1.0, laplacian(build_torus_cayley(side)))
    table = _pair_table(6, side * side, 2)
    for fn in (ResolventTraceFunction(params), SpectralTraceFunction(AnalyticFunction.polynomial([0.0, 0.0, 1.0]), params)):
        fn.evaluate_block(table)
        assert fn.factorization_count == len(table)
        fn.evaluate_block(table[:4])
        assert fn.factorization_count == len(table) + 4
    fn = ResolventTraceFunction(params)
    fn.evaluate_block_with_g(table[:5])
    assert fn.factorization_count == 5


def _power_sums_mp(params: ResolventParams, eps: np.ndarray, degree: int) -> list:
    """Tr H^k for k = 0..degree at 50 digits, H = -lam*D_eps - Lap."""
    n = params.n
    h = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            h[i, j] = -mpmath.mpf(params.laplacian[i, j]) - (mpmath.mpf(params.lam) * int(eps[i]) if i == j else 0)
    sums, power = [mpmath.mpf(n)], mpmath.eye(n)
    for _ in range(degree):
        power = power * h
        sums.append(sum(power[i, i] for i in range(n)))
    return sums


@pytest.mark.parametrize("side", [3, 5])
def test_power_sums_match_50_digit_reference(side):
    # degrees 0, 1, 2, 3 and 5 and one complex coefficient, each value to rel 1e-14 of 50-digit power sums
    params = ResolventParams(0.7, 1.3, laplacian(build_torus_cayley(side)))
    polys = [[2.5], [0.5, -1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -0.5], [1.0, -1.0, 0.5, -0.25, 0.125, -0.0625], [0.0, 1.0 - 2j, 0.5j]]
    table = sample(4, params.n, 8)
    with mpmath.workdps(50):
        sums = [_power_sums_mp(params, eps, 5) for eps in table]
        for coeffs in polys:
            values = SpectralTraceFunction(AnalyticFunction.polynomial(coeffs), params).evaluate_block(table)
            for value, row in zip(values, sums):
                reference = complex(mpmath.fsum(mpmath.mpmathify(c) * t for c, t in zip(coeffs, row)) / params.n)
                assert abs(value - reference) <= 1e-14 * abs(reference), (coeffs, value, reference)


@pytest.mark.parametrize("side", [3, 6, 10])
def test_power_sums_same_bits_for_any_split(side):
    # at side 10, n*n = 10000 entries a row outrun numpy's 8192-element iterator buffer, and a block holds 3 rows
    params = ResolventParams(1.5, 0.75, laplacian(build_torus_cayley(side)))
    table = _pair_table(8, params.n, 4)
    for coeffs in ([0.0, 0.0, 1.0], [1.0, -2.0, 0.5], [0.5, 1.0, -1.0, 0.25, 0.0, 0.125], [0.0, 1j, 2.0, -1j]):
        assert_same_bits_for_any_split(SpectralTraceFunction(AnalyticFunction.polynomial(coeffs), params), table, (1, 7), with_g=False)


def test_trailing_zero_coefficients_are_dropped(torus3_params):
    padded, square = AnalyticFunction.from_spec("poly:0,0,1,0,0"), AnalyticFunction.from_spec("poly:0,0,1")
    assert padded.coefficients == square.coefficients == (0.0, 0.0, 1.0)
    assert padded.name == "poly:0,0,1,0,0"
    assert AnalyticFunction.from_spec("poly:0,0").coefficients == (0.0,)
    assert AnalyticFunction.exp_scaled(0.3).coefficients is None
    table = _pair_table(6, 9, 2)
    block = SpectralTraceFunction(padded, torus3_params).evaluate_block(table)
    assert block.tolist() == SpectralTraceFunction(square, torus3_params).evaluate_block(table).tolist()


def test_coefficients_build_the_evaluator():
    # f1 reads the coefficients and kappa the evaluator, so a polynomial h takes no evaluator of its own
    user = AnalyticFunction(name="user", evaluator=None, coefficients=(1, 0.5j, -2.0, 0.0))
    assert user.coefficients == (1.0, 0.5j, -2.0)
    z = np.array([0.3, -2.0 + 1.5j, 7.0j])
    assert user(z).tolist() == (1.0 + 0.5j * z - 2.0 * z * z).tolist()
    for evaluator, coefficients in ((np.exp, (1.0, 1.0)), (None, None)):
        with pytest.raises(ValueError, match="evaluator or coefficients"):
            AnalyticFunction(name="user", evaluator=evaluator, coefficients=coefficients)
    for coefficients, message in (((), "at least one"), ((1.0, math.inf), "finite")):
        with pytest.raises(ValueError, match=message):
            AnalyticFunction(name="user", evaluator=None, coefficients=coefficients)


def test_numpy_complex_coefficients_keep_their_imaginary_parts():
    # np.complex64 is not a Python complex, and float() of it drops the imaginary part with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = AnalyticFunction("user", coefficients=(np.complex64(1 + 2j), np.complex64(0.5j)))
        assert h.coefficients == (1 + 2j, 0.5j)
        assert h(np.array([2.0])).tolist() == [1 + 3j]


@pytest.mark.parametrize(
    "h, expected",
    [(AnalyticFunction("cosh", np.cosh), 112.240), (AnalyticFunction("sq", coefficients=(0, 0, 1)), 20.49)],
    ids=["cosh", "sq"],
)
def test_user_h_without_a_flag_gets_a_sound_disc(h, expected):
    # analyticity is the caller's promise: an entire h from an evaluator or from coefficients is
    # taken as it is, and the disc must hold the enumerated E[f1]
    graph = build_torus_cayley(3)
    f1, f2 = dominating_resolvent_scale(h, ResolventParams(0.7, 1.3, laplacian(graph)), graph)
    exact = exact_expectation(f1)
    assert exact == pytest.approx(expected, rel=1e-5)  # E[Tr H^2 / n] = lam^2 + d^2 + d for sq
    for seed in range(5):
        cert = certify_dominated(f1, GFunction(f2), 20, seed)
        assert abs(cert.center - exact) <= cert.radius


@pytest.mark.parametrize("side, degree", [(6, 18), (15, 8)])
def test_power_sum_budget_picks_the_kernel(monkeypatch, side, degree):
    # ceil(deg/2) - 1 matmuls a row: power sums while matmuls^2 * n <= POWER_SUM_BUDGET, one degree
    # more takes the stacked eigvalsh of an h without coefficients
    params = ResolventParams(1.0, 1.0, laplacian(build_torus_cayley(side)))
    n = params.n
    matmuls = [(d + 1) // 2 - 1 for d in (degree, degree + 1)]
    assert matmuls[0] ** 2 * n <= functions.POWER_SUM_BUDGET < matmuls[1] ** 2 * n
    table = _pair_table(3, n, 5)
    below = SpectralTraceFunction(AnalyticFunction.polynomial([0.0] * degree + [1.0]), params)
    above = SpectralTraceFunction(AnalyticFunction.polynomial([0.0] * (degree + 1) + [1.0]), params)
    stack = -params.laplacian - params.lam * table[:, :, None] * np.eye(n)
    assert above.evaluate_block(table).tolist() == np.mean(above.h(np.linalg.eigvalsh(stack)), axis=1).tolist()
    expected = np.mean(below.h(np.linalg.eigvalsh(stack)), axis=1)

    def refuse(_):
        raise AssertionError("eigvalsh below the power-sum budget")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    np.testing.assert_allclose(below.evaluate_block(table), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("side", [3, 6])
def test_exp_keeps_stacked_eigvalsh(side):
    # an h without coefficients is read off the eigenvalues, by the same formula as before power sums
    params = ResolventParams(0.7, 1.3, laplacian(build_torus_cayley(side)))
    h = AnalyticFunction.exp_scaled(0.3)
    table = _pair_table(6, params.n, 9)
    stack = -params.laplacian - params.lam * table[:, :, None] * np.eye(params.n)
    expected = np.mean(h(np.linalg.eigvalsh(stack)), axis=1)
    assert SpectralTraceFunction(h, params).evaluate_block(table).tolist() == expected.tolist()


def test_quadrature_sum_overflow_is_not_finite():
    # |h| is finite at every node, about 1e308, but its sum over the nodes overflows
    huge = AnalyticFunction.polynomial([0.0, 0.0, 1e306])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=r"integral of \|h\| is not finite"):
            contour_norm_integral(huge, 4, 1.0, 1.0)
