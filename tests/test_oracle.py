from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircert.functions import (
    AnalyticFunction,
    ResolventParams,
    ResolventTraceFunction,
    dominating_resolvent_scale,
    naive_g,
)
from paircert.graph import build_torus_cayley, from_edge_list, laplacian
from paircert.oracle import (
    BudgetError,
    WalshSpectrum,
    _enumerate_values,
    _fwht,
    check_domination,
    check_nonnegative,
    exact_expectation,
    walsh_spectrum,
)
from paircert.sampling import pack_keys, unpack_keys

from conftest import Blocked, ConstantFunction, LambdaFunction, random_connected_graph, single_vertex_resolvent


def _fwht_slow(values: np.ndarray) -> np.ndarray:
    """Quadratic-time transform straight from the +-1 character table."""
    size = values.shape[0]
    masks = np.arange(size)
    parity = (np.bitwise_count(masks[:, None] & masks[None, :]) % 2).astype(np.int64)
    return (1 - 2 * parity).astype(values.dtype) @ values


def test_exact_expectation_trivials():
    assert exact_expectation(LambdaFunction(3, lambda e: float(e[0]))) == 0.0
    assert exact_expectation(ConstantFunction(4, 2.5)) == 2.5


def test_exact_expectation_single_vertex_resolvent():
    assert exact_expectation(single_vertex_resolvent(1.0, 1.0)) == pytest.approx(2 / 3, abs=1e-15)


def test_spectrum_of_monomial():
    spec = walsh_spectrum(LambdaFunction(2, lambda e: float(e[0] * e[1])))
    np.testing.assert_allclose(spec.coefficients, [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_spectrum_of_constant():
    spec = walsh_spectrum(ConstantFunction(3, 3.0))
    expected = np.zeros(8)
    expected[0] = 3.0
    np.testing.assert_allclose(spec.coefficients, expected, atol=1e-14)


def test_mask_convention():
    # bit k of the mask corresponds to coordinate k+1; eps_1 lives at mask 0b001
    spec = walsh_spectrum(LambdaFunction(3, lambda e: float(e[0])))
    assert spec.coefficients[0b001] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(np.delete(spec.coefficients, 1)).max() <= 1e-14
    spec3 = walsh_spectrum(LambdaFunction(3, lambda e: float(e[2])))
    assert spec3.coefficients[0b100] == pytest.approx(1.0, abs=1e-14)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_fwht_matches_slow_transform(seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=64)
    np.testing.assert_allclose(_fwht(values), _fwht_slow(values), rtol=1e-12, atol=1e-12)


def test_round_trip_resolvent(torus3_params):
    spec = walsh_spectrum(ResolventTraceFunction(torus3_params))
    values = _fwht(spec.coefficients)
    np.testing.assert_allclose(values, _enumerate_values(ResolventTraceFunction(torus3_params)), atol=1e-10)


def test_a0_equals_exact_expectation(torus3_params):
    spec = walsh_spectrum(ResolventTraceFunction(torus3_params))
    exact = exact_expectation(ResolventTraceFunction(torus3_params))
    assert float(spec.coefficients[0]).hex() == exact.hex()


def test_g_spectrum_is_size_weighted(torus3_params):
    rng = np.random.default_rng(13)
    graph = random_connected_graph(rng, 6)
    for lam, gamma in [(1.0, 1.0), (2.0, 0.5)]:
        params = ResolventParams(lam, gamma, laplacian(graph))
        fn = ResolventTraceFunction(params)
        f_spec = walsh_spectrum(fn)
        g_spec = walsh_spectrum(LambdaFunction(fn.n, lambda eps: naive_g(fn, eps)))
        sizes = np.bitwise_count(np.arange(64))
        np.testing.assert_allclose(g_spec.coefficients, sizes * f_spec.coefficients, atol=1e-10)


def test_resolvent_spectrum_nonnegative(torus3_params):
    spec = walsh_spectrum(ResolventTraceFunction(torus3_params))
    result = check_nonnegative(spec, 1e-10)
    assert result.ok
    assert result.value >= -1e-10


def test_check_nonnegative_offender():
    good = walsh_spectrum(LambdaFunction(2, lambda e: float(e[0])))
    assert check_nonnegative(good, 1e-12).ok
    bad = walsh_spectrum(LambdaFunction(2, lambda e: -float(e[0])))
    result = check_nonnegative(bad, 1e-12)
    assert not result.ok
    assert result.mask == 0b01
    assert result.value == pytest.approx(-1.0, abs=1e-14)
    assert result.subset() == (1,)


def test_domination_equal_and_double():
    base = walsh_spectrum(LambdaFunction(2, lambda e: 0.25 + 0.5 * float(e[0])))
    assert check_domination(base, base, 1e-12).ok
    doubled = WalshSpectrum(n=2, coefficients=2.0 * np.asarray(base.coefficients))
    assert check_domination(doubled, base, 1e-12).ok is False
    worst = check_domination(doubled, base, 1e-12)
    assert worst.value == pytest.approx(0.5, abs=1e-14)


def test_domination_dimension_mismatch():
    a = walsh_spectrum(ConstantFunction(2, 1.0))
    b = walsh_spectrum(ConstantFunction(3, 1.0))
    with pytest.raises(ValueError, match="dimension"):
        check_domination(a, b, 1e-12)
    with pytest.raises(ValueError, match="need 4 coefficients for n=2"):
        WalshSpectrum(n=2, coefficients=np.zeros(8))


def test_example_pair_dominates(torus3, torus3_params):
    square = AnalyticFunction.polynomial([0.0, 0.0, 1.0])
    f1, f2 = dominating_resolvent_scale(square, torus3_params, torus3)
    result = check_domination(walsh_spectrum(f1), walsh_spectrum(f2), 1e-10)
    assert result.ok


@pytest.mark.parametrize(
    "spec_text",
    ["poly:1", "poly:0,1", "poly:0,0,1", "poly:0,0,0,1", "exp:0.1"],
)
def test_domination_family(spec_text, torus3, torus3_params):
    # every low-degree polynomial and the scaled exponential must be dominated
    # coefficient by coefficient on small graphs
    h = AnalyticFunction.from_spec(spec_text)
    rng = np.random.default_rng(83)
    other = random_connected_graph(rng, 11)
    cases = [
        (torus3, torus3_params),
        (other, ResolventParams(1.0, 1.0, laplacian(other))),
    ]
    for graph, params in cases:
        f1, f2 = dominating_resolvent_scale(h, params, graph)
        result = check_domination(walsh_spectrum(f1), walsh_spectrum(f2), 1e-10)
        assert result.ok, (spec_text, graph.n, result.subset(), result.value)


def test_budget_errors():
    with pytest.raises(BudgetError, match="33554432"):
        exact_expectation(ConstantFunction(25, 1.0))
    with pytest.raises(BudgetError, match="131072"):
        walsh_spectrum(ConstantFunction(17, 1.0))
    with pytest.raises(BudgetError, match="131072"):
        exact_expectation(ConstantFunction(17, 1.0))


def test_complex_valued_function():
    fn = LambdaFunction(2, lambda e: complex(0.0, float(e[0])))
    exact = exact_expectation(fn)
    assert exact == 0j
    spec = walsh_spectrum(fn)
    assert np.iscomplexobj(spec.coefficients)
    assert spec.coefficients[0b01] == pytest.approx(1j, abs=1e-14)
    with pytest.raises(ValueError, match="real"):
        check_nonnegative(spec, 1e-12)
    bound = walsh_spectrum(ConstantFunction(2, 2.0))
    with pytest.raises(ValueError, match="real"):
        check_domination(bound, spec, 1e-12)
    dominated = check_domination(spec, walsh_spectrum(LambdaFunction(2, lambda e: 1.0 + 0.5 * float(e[0]))), 1e-12)
    assert not dominated.ok  # |i| = 1 > 0.5 at mask 0b01


def _cancelling(e):
    # 1e16 swamps the other terms, so a running float sum loses them where an exact one does not
    return 1e16 * e[0] + 3.0 * (e[1] > 0) + 0.1 * e[0] * e[-1]


@pytest.mark.parametrize("n", [3, 6, 9])
@pytest.mark.parametrize("func", [_cancelling, lambda e: complex(0.5 * e[-1], _cancelling(e))], ids=["real", "complex"])
def test_mean_is_the_exact_mean_rounded_once(n, func):
    fn = LambdaFunction(n, func)
    values = _enumerate_values(fn).tolist()
    parts = [[v.real for v in values], [v.imag for v in values]] if isinstance(values[0], complex) else [values]
    exact = [float(sum(map(Fraction, part)) / len(part)).hex() for part in parts]
    for mean in (exact_expectation(fn), walsh_spectrum(fn).coefficients[0].item()):
        assert ([mean.real.hex(), mean.imag.hex()] if isinstance(mean, complex) else [mean.hex()]) == exact


def test_spectrum_immutable(torus3_params):
    spec = walsh_spectrum(ResolventTraceFunction(torus3_params))
    with pytest.raises(ValueError):
        spec.coefficients[0] = 1.0


def test_oracle_takes_the_elimination_trees_block():
    # the oracle makes 2^n / 4,096 kernel calls, one per block of the tree's size, and each block is a
    # run: 4,096 consecutive masks from a multiple of 4,096. At n = 13, on the circulant C13(1, 2), the
    # two blocks' values are those of the same masks shuffled in one call, which takes the sorted path
    blocks = []

    class Recording(ResolventTraceFunction):
        def evaluate_block(self, table):
            blocks.append(pack_keys(table))
            return super().evaluate_block(table)

    circulant = from_edge_list("13\n" + "\n".join(f"{i} {(i + o) % 13}" for i in range(13) for o in (1, 2)))
    for graph in (build_torus_cayley(4), circulant):
        n = graph.n
        blocks.clear()
        fn = Recording(ResolventParams(1.0, 1.0, laplacian(graph)))
        values = _enumerate_values(fn)
        assert fn.block_size == 4096 and len(blocks) == (1 << n) // fn.block_size
        assert all(keys.tolist() == list(range(int(keys[0]), int(keys[0]) + 4096)) and keys[0] % 4096 == 0 for keys in blocks)
    shuffled = np.random.default_rng(13).permutation(1 << 13)
    alone = ResolventTraceFunction(fn.params).evaluate_block(unpack_keys(shuffled.astype("<u8"), 13))
    assert values[shuffled].view(np.int64).tolist() == alone.view(np.int64).tolist()


def test_oracle_bits_do_not_depend_on_the_split():
    # at n = 16 the oracle's blocks of 4,096 rows and one row per call must agree bit for bit at every
    # mask; its mean and spectrum are functions of these values alone
    fn = ResolventTraceFunction(ResolventParams(1.0, 1.0, laplacian(build_torus_cayley(4))))
    values = _enumerate_values(fn)
    assert len(values) == 1 << 16
    assert values.view(np.int64).tolist() == _enumerate_values(Blocked(fn, 1)).view(np.int64).tolist()
