from __future__ import annotations

import collections
import dataclasses
import json
import math
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paircert import estimator
from paircert.estimator import (
    NUMERICAL_SLACK,
    SCHEMA_VERSION,
    Certificate,
    DominatedCertificate,
    EvalCounters,
    certify,
    certify_dominated,
    choose_p,
    markov_apriori,
)
from paircert.functions import (
    AnalyticFunction,
    FactorizationError,
    GFunction,
    ResolventParams,
    ResolventTraceFunction,
    SpectralTraceFunction,
    block_rows,
    dominating_resolvent_scale,
    naive_g,
)
from paircert.graph import build_torus_cayley, laplacian
from paircert.oracle import exact_expectation
from paircert.sampling import all_ones, pack_keys, pair_product, sample, unpack_keys

from conftest import Blocked, ConstantFunction, LambdaFunction, single_vertex_resolvent


def test_p1_diagonal_only(torus3_params):
    fn = ResolventTraceFunction(torus3_params)
    f_one, g_one = fn.evaluate_with_g(all_ones(9))
    cert = certify(ResolventTraceFunction(torus3_params), 1, 12345)
    assert cert.f_bar == f_one
    assert cert.g_bar == g_one
    assert cert.lower == f_one - g_one - NUMERICAL_SLACK
    assert cert.upper == f_one + NUMERICAL_SLACK
    assert cert.counters.evaluations == 1


def test_single_vertex_interval_brackets_exact():
    fn = single_vertex_resolvent(1.0, 1.0)
    cert = certify(fn, 1, 0)
    # degree-1 function: E[f] = 2/3 sits exactly at the certified floor
    assert cert.lower == pytest.approx(2 / 3 - NUMERICAL_SLACK, abs=1e-14)
    assert cert.upper == pytest.approx(1.0 + NUMERICAL_SLACK, abs=1e-14)
    assert cert.lower <= 2 / 3 <= cert.upper


def test_constant_function_zero_width():
    cert = certify(ConstantFunction(6, 1.25), 4, 9)
    assert cert.f_bar == 1.25
    assert cert.g_bar == 0.0
    assert cert.upper - cert.lower == pytest.approx(2 * NUMERICAL_SLACK, abs=1e-15)


def test_pair_estimate_matches_full_double_sum(torus3_params):
    fn = ResolventTraceFunction(torus3_params)
    s = sample(6, 9, 77)
    cert = certify(fn, 6, 77)
    f_bar, g_bar = cert.f_bar, cert.g_bar
    f_terms = []
    g_terms = []
    for i in range(6):
        for j in range(6):
            f, g = fn.evaluate_with_g(pair_product(s, i, j))
            f_terms.append(f)
            g_terms.append(g)
    assert f_bar == pytest.approx(math.fsum(f_terms) / 36, rel=1e-14)
    assert g_bar == pytest.approx(math.fsum(g_terms) / 36, rel=1e-13)


def test_order_invariance_exact(torus3_params):
    fn = ResolventTraceFunction(torus3_params)
    s = sample(7, 9, 3)
    base = estimator._pair_sweep(fn.evaluate_block_with_g, s, 1, 1, fn.block_size)
    rng = np.random.default_rng(0)
    for _ in range(3):
        perm = rng.permutation(7)
        shuffled = s[perm]
        assert estimator._pair_sweep(fn.evaluate_block_with_g, shuffled, 1, 1, fn.block_size) == base


def test_pair_sweep_matches_pair_product_loop(torus3_params):
    # reference: one checked pair_product per pair, reduced with math.fsum
    fn = ResolventTraceFunction(torus3_params)
    s = sample(8, 9, 21)
    p = len(s)
    ones = fn.evaluate_with_g(all_ones(9))
    pairs = [fn.evaluate_with_g(pair_product(s, i, j)) for i in range(p) for j in range(i + 1, p)]
    expected = tuple((p * one + 2.0 * math.fsum(v[k] for v in pairs)) / (p * p) for k, one in enumerate(ones))
    for threads in (1, 3):
        assert estimator._pair_sweep(fn.evaluate_block_with_g, s, 1, threads, fn.block_size)[:2] == (expected, ones)


def _distinct_pair_products(s):
    return {(s[i] * s[j]).tobytes() for i in range(len(s)) for j in range(i + 1, len(s))}


def _swept_functions(dominated, torus3, torus3_params):
    """(evaluate_block, evaluate) for the interval's resolvent or the disc's f1 and g2."""
    if not dominated:
        fn = ResolventTraceFunction(torus3_params)
        return fn.evaluate_block_with_g, fn.evaluate_with_g
    f1, f2 = dominating_resolvent_scale(AnalyticFunction.polynomial([0.0, 0.0, 1.0]), torus3_params, torus3)
    g2 = GFunction(f2)
    return (lambda table: (f1.evaluate_block(table), g2.evaluate_block(table))), (lambda eps: (f1.evaluate(eps), g2.evaluate(eps)))


@pytest.mark.parametrize("dominated", [False, True], ids=["interval", "disc"])
def test_pair_sweep_matches_pair_product_loop_where_products_repeat(dominated, torus3, torus3_params):
    # 19,900 pairs at n = 9 hold 512 distinct products: each pair counts as often as it occurs
    evaluate_block, evaluate = _swept_functions(dominated, torus3, torus3_params)
    s = sample(200, 9, 4)
    p = len(s)
    products = [pair_product(s, i, j) for i in range(p) for j in range(i + 1, p)]
    # each distinct product evaluated once, looked up by its bytes
    distinct = {eps.tobytes(): eps for eps in products}
    assert len(distinct) == 512
    memo = {key: evaluate(eps) for key, eps in distinct.items()}
    ones = evaluate(all_ones(9))
    pairs = [memo[eps.tobytes()] for eps in products]
    expected = tuple((p * one + 2.0 * math.fsum(v[k] for v in pairs)) / (p * p) for k, one in enumerate(ones))
    # block_rows(9) = 1,618 takes the 512 keys in one chunk; at 404 rows, threads=3 deals two chunks to two threads
    for size in (block_rows(9), 404):
        for threads in (1, 3):
            assert estimator._pair_sweep(evaluate_block, s, 2 if dominated else 1, threads, size)[:2] == (expected, ones)


@pytest.mark.parametrize("threads", [1, 3])
def test_pair_sweep_evaluates_each_distinct_pair_product_once(torus3_params, threads):
    # 404 rows a chunk splits the 512 keys in two, which go to two threads at threads=3
    seen = []
    fn = ResolventTraceFunction(torus3_params)

    def recording(table):
        seen.append((threading.get_ident(), [row.tobytes() for row in table]))
        return fn.evaluate_block_with_g(table)

    s = sample(200, 9, 4)
    _, _, counters = estimator._pair_sweep(recording, s, 1, threads, 404)
    # all-ones first in the calling thread's first block, and every row of {all-ones} and the
    # products once: all-ones is also a product here
    assert [rows for thread, rows in seen if thread == threading.get_ident()][0][0] == all_ones(9).tobytes()
    rows = [row for _, block in seen for row in block]
    assert sorted(rows) == sorted(_distinct_pair_products(s) | {all_ones(9).tobytes()})
    assert len(rows) == 512
    assert counters.factorizations == len(rows)


@pytest.mark.parametrize("buffer", [1, 7, estimator.KEY_BUFFER])
def test_pair_multiset_counts_every_pair(monkeypatch, buffer):
    # however often pending keys merge into the distinct ones, no pair is lost or counted twice;
    # n = 70 takes two words a key, and the repeated rows make its products repeat. The pairs of
    # p = 200 and 33 at n = 9 and of p = 12 at n = 4 outnumber the masks, which then tally them;
    # at p = 33 (528 pairs) 167 masks occur once and 198 never
    monkeypatch.setattr(estimator, "KEY_BUFFER", buffer)
    tables = [sample(200, 9, 4), sample(33, 9, 1), sample(12, 4, 2), sample(40, 16, 1), np.concatenate([sample(6, 70, 3)] * 3), sample(2, 1, 0), sample(1, 5, 0)]
    # the key-width boundary: n = 64 fills one word, n = 65 puts one bit in a second (a key is two words' bytes)
    tables += [np.concatenate([sample(6, n, 3)] * 3) for n in (64, 65)]
    assert all(len(set(s[:, -1])) == 2 for s in tables[-2:])  # the last bit differs between pairs
    for s in tables:
        p, n = s.shape
        keys, counts = estimator._pair_multiset(s)
        rows = 1 - 2 * np.unpackbits(keys.view(np.uint8).reshape(len(keys), -1), axis=1, count=n, bitorder="little").view(np.int8)
        # all-ones is key 0, first, counting the pairs with X_i = X_j (0 where there are none)
        ones = all_ones(n).tobytes()
        expected = {ones: 0, **collections.Counter((s[i] * s[j]).tobytes() for i in range(p) for j in range(i + 1, p))}
        assert not keys[:1].view(np.uint8).any() and rows[0].tobytes() == ones
        assert len(keys) == len(expected)
        assert {row.tobytes(): int(count) for row, count in zip(rows, counts)} == expected
        # strictly increasing in the items' own order, key 0 first
        assert keys.ndim == 1 and np.array_equal(np.unique(keys), keys)


def test_pair_multiset_key_is_the_oracle_mask():
    # one key format: bit k of a key is coordinate k, so the product of all-ones and the
    # oracle's sign vector number `mask` has key `mask`, after key 0 for all-ones itself
    for mask in range(1 << 9):
        v = (1 - 2 * ((mask >> np.arange(9)) & 1)).astype(np.int8)
        keys, counts = estimator._pair_multiset(np.stack([all_ones(9), v]))
        expected = ([0], [1]) if mask == 0 else ([0, mask], [0, 1])
        assert (keys.tolist(), counts.tolist()) == expected
    # two words: coordinate 64 is bit 0 of the second
    v = all_ones(70)
    v[64] = -1
    keys, counts = estimator._pair_multiset(np.stack([all_ones(70), v]))
    assert (keys.view("<u8").reshape(-1, 2).tolist(), counts.tolist()) == ([[0, 0], [0, 1]], [0, 1])


def _fsum(values):
    """math.fsum of an array, each part of a complex one apart."""
    if np.iscomplexobj(values):
        return complex(math.fsum(values.real), math.fsum(values.imag))
    return math.fsum(values)


def _sum_of_copies(values, counts):
    """_fsum(np.repeat(values, counts)), without the copies once they are many: fsum
    then returns the exact weighted sum rounded once, and an exact zero is +0.0 unless every
    value is a zero, whose signs alone then decide it."""
    if counts.sum() <= 1 << 12:
        return _fsum(np.repeat(values, counts))
    if np.iscomplexobj(values):
        return complex(_sum_of_copies(values.real, counts), _sum_of_copies(values.imag, counts))
    exact = sum(Fraction(v) * c for v, c in zip(values.tolist(), counts.tolist()))
    return float(exact) if exact or values.any() else math.fsum(values)


def _bits(x):
    return (x.real.hex(), x.imag.hex()) if isinstance(x, complex) else x.hex()


# mixed signs with exponents up to +300, and down to -300 with subnormals and signed zeros
_PART = st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300), st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))


@given(
    parts=st.lists(st.tuples(_PART, _PART, st.one_of(st.just(1), st.integers(1, 1 << 40))), min_size=1, max_size=12),
    is_complex=st.booleans(),
    all_ones=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_weighted_sum_matches_exact_sum_of_repeated_values(parts, is_complex, all_ones):
    real, imag, counts = (np.array(column) for column in zip(*parts))
    counts = np.ones_like(counts) if all_ones else counts
    values = real
    if is_complex:  # set the parts apart: a complex product could flip a zero's sign
        values = np.empty(len(real), dtype=complex)
        values.real, values.imag = real, imag
    # no running sum of either part can overflow, in any order
    for part in (values.real, values.imag):
        assume(sum(abs(Fraction(v)) * c for v, c in zip(part.tolist(), counts.tolist())) < Fraction(sys.float_info.max))
    assert _bits(estimator._weighted_sum(values, counts)) == _bits(_sum_of_copies(values, counts))


@pytest.mark.parametrize("values, counts", [([1e308], [2]), ([-9e307], [1 << 20]), ([1e308, 1e308], [1, 1]), ([-1.5e308, -1e308], [1, 3])])
def test_weighted_sum_overflows_where_the_sum_of_copies_does(values, counts):
    # values of one sign: a running sum overflows, in any order, exactly when the weighted sum does
    values, counts = np.array(values), np.array(counts)
    with pytest.raises(OverflowError):
        _fsum(np.repeat(values, counts))
    with pytest.raises(OverflowError):
        estimator._weighted_sum(values, counts)


def test_overflowing_pair_sum_names_its_sum_and_p():
    # every value is finite, and the count-weighted sum of the one named leaves the float range
    huge = ConstantFunction(3, 1e308)
    with pytest.raises(OverflowError, match=r"^the pair sum of f over p=40 samples leaves the float range$"):
        certify(huge, 40, 1)
    with pytest.raises(OverflowError, match=r"^the pair sum of g2 over p=40 samples"):
        certify_dominated(ConstantFunction(3, 1.0), huge, 40, 1)


def test_factorizations_count_distinct_pair_products(torus3, torus3_params):
    # evaluations count every pair; factorizations count the distinct keys, per function swept:
    # all-ones and each distinct product, all-ones once where it is also a product (p = 200). An
    # interval whose keys reach 2^9 / 16 = 32 takes the cube and factors its 512 masks
    f1, f2 = dominating_resolvent_scale(AnalyticFunction.polynomial([0.0, 0.0, 1.0]), torus3_params, torus3)
    for p, seed, keys in ((200, 4, 512), (12, 3, 61), (2, 0, 2), (1, 0, 1)):
        assert len(_distinct_pair_products(sample(p, 9, seed)) | {all_ones(9).tobytes()}) == keys
        evaluations = p * (p - 1) // 2 + 1
        cert = certify(ResolventTraceFunction(torus3_params), p, seed, threads=2)
        assert cert.counters == EvalCounters(evaluations=evaluations, factorizations=512 if keys >= 32 else keys)
        disc = certify_dominated(f1, GFunction(f2), p, seed, threads=2)
        assert disc.counters == EvalCounters(evaluations=evaluations, factorizations=2 * keys)


def _int64(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def test_cube_share_is_a_rule_on_n_and_keys():
    # 2^n / 16 keys take the cube up to n = 16, where one tree block of 4,096 rows holds any fewer
    assert estimator.CUBE_SHARE == 1 / 16 and estimator.ELIMINATION_LIMIT == 16
    for n, keys, cube in ((9, 31, False), (9, 32, True), (16, 4095, False), (16, 4096, True), (17, 2**17, False), (3, 1, True)):
        assert estimator._takes_cube(n, keys) == cube, (n, keys)


def _recording_resolvent(params: ResolventParams) -> tuple[ResolventTraceFunction, dict]:
    """A resolvent that adds the rows handed to each block evaluator to a tally."""
    rows = {"f": 0, "f, g": 0}

    class Recording(ResolventTraceFunction):
        def evaluate_block(self, table):
            rows["f"] += len(table)
            return super().evaluate_block(table)

        def evaluate_block_with_g(self, table):
            rows["f, g"] += len(table)
            return super().evaluate_block_with_g(table)

    return Recording(params), rows


@pytest.mark.parametrize(
    "side, p, keys, cube",
    [(3, 8, 29, False), (3, 9, 37, True), (4, 90, 3889, False), (4, 100, 4782, True)],
    ids=["tree-9", "cube-9", "tree-16", "cube-16"],
)
def test_certify_takes_the_cube_past_its_share(side, p, keys, cube):
    # on each side of 2^n / 16 keys: Takahashi's (f, g) on the keys, or f alone at every mask
    params = ResolventParams(1.0, 1.0, laplacian(build_torus_cayley(side)))
    n = params.n
    assert len(estimator._pair_multiset(sample(p, n, 1))[0]) == keys
    fn, rows = _recording_resolvent(params)
    cert = certify(fn, p, 1, threads=2)
    factored = 2**n if cube else keys
    assert rows == ({"f": 2**n, "f, g": 0} if cube else {"f": 0, "f, g": keys})
    assert cert.counters == EvalCounters(evaluations=p * (p - 1) // 2 + 1, factorizations=factored)
    assert fn.factorization_count == factored


def test_cube_g_is_naive_g_bit_for_bit_at_every_torus3_key():
    # the cube reads g at each key off f at every mask in naive_g's own order, and the tree's f has
    # each row's own bits, so g is the reference definition's bit for bit: at all 512 keys, and in
    # the certificate, whose 512 keys at p = 200 are the whole cube
    params = ResolventParams(1.3, 1.0, laplacian(build_torus_cayley(3)))
    fn = ResolventTraceFunction(params)
    keys = np.arange(512, dtype="<u8")
    f = estimator._every_mask(fn.evaluate_block, 9, 1, fn.block_size)
    g = estimator._flip_half_sums(f, keys, 9)
    table = unpack_keys(keys, 9)
    naive = np.array([naive_g(fn, eps) for eps in table])
    assert _int64(g) == _int64(naive)
    assert _int64(f) == _int64([fn.evaluate(eps) for eps in table])
    s = sample(200, 9, 1)
    multiset, counts = estimator._pair_multiset(s)
    assert multiset.tolist() == keys.tolist()
    cert = certify(fn, 200, 1)
    assert _bits(cert.g_at_ones) == _bits(naive[0].item())
    assert _bits(cert.g_bar) == _bits((200 * naive[0].item() + 2.0 * estimator._weighted_sum(naive, counts)) / (200.0 * 200.0))


def test_cube_g_is_naive_g_for_any_function():
    # a table of random values, whose flip sums round differently in another order: the cube's g,
    # and the one (f, g) path of a plain BernoulliFunction, naive_g on each key, agree bit for bit
    values = np.random.default_rng(3).standard_normal(512)
    fn = LambdaFunction(9, lambda eps: float(values[pack_keys(eps[None])[0]]))
    keys = np.arange(512, dtype="<u8")
    g = estimator._flip_half_sums(estimator._every_mask(fn.evaluate_block, 9, 1, fn.block_size), keys, 9)
    assert _int64(g) == _int64([naive_g(fn, eps) for eps in unpack_keys(keys, 9)])
    s = sample(200, 9, 1)
    cube = estimator._pair_sweep(fn.evaluate_block_with_g, s, 1, 1, fn.block_size, f_only=fn.evaluate_block)
    keyed = estimator._pair_sweep(fn.evaluate_block_with_g, s, 1, 1, fn.block_size)
    assert cube[2].factorizations == 512 and _int64(cube[0] + cube[1]) == _int64(keyed[0] + keyed[1])


def test_cube_g_is_naive_g_bit_for_bit_on_a_torus4_sample():
    params = ResolventParams(1.0, 1.0, laplacian(build_torus_cayley(4)))
    fn = ResolventTraceFunction(params)
    keys = np.unique(np.r_[0, 2**16 - 1, np.random.default_rng(5).integers(0, 2**16, 30)].astype("<u8"))
    f = estimator._every_mask(fn.evaluate_block, 16, 3, fn.block_size)
    assert _int64(estimator._flip_half_sums(f, keys, 16)) == _int64([naive_g(fn, eps) for eps in unpack_keys(keys, 16)])


@pytest.mark.parametrize("side, p, sizes", [(3, 200, (1, 100, 512)), (4, 100, (1000, 65536))])
def test_cube_certificates_equal_across_threads_and_blocks(side, p, sizes):
    # f has each row's bits in any block on any thread, and g is read off f alone
    fn = ResolventTraceFunction(ResolventParams(1.0, 1.0, laplacian(build_torus_cayley(side))))
    base = certify(fn, p, 1)
    assert base.counters.factorizations == 2 ** (side * side)
    for threads in (1, 3):
        assert certify(fn, p, 1, threads=threads) == base
        for size in sizes:
            assert certify(Blocked(fn, size), p, 1, threads=threads) == base, (threads, size)


def test_thread_count_invariance(torus3, torus3_params):
    fn = ResolventTraceFunction(torus3_params)
    certs = [certify(fn, 9, 8, threads=t) for t in (1, 2, 5, 16)]
    assert len({json.dumps(cert.to_json_dict()) for cert in certs}) == 1
    # a certificate is a value: equal inputs give equal objects, counters included
    assert all(cert == certs[0] for cert in certs)
    f1, f2 = dominating_resolvent_scale(AnalyticFunction.polynomial([0.0, 0.0, 1.0]), torus3_params, torus3)
    discs = [certify_dominated(f1, GFunction(f2), 9, 8, threads=t) for t in (1, 2, 5)]
    assert all(disc == discs[0] for disc in discs)


def test_pair_sweep_submits_one_task_per_extra_block(monkeypatch, torus3_params):
    submitted, callers = [], []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(args)
            return super().submit(*args, **kwargs)

    class RecordingResolvent(ResolventTraceFunction):
        def evaluate_block_with_g(self, table):
            callers.append((threading.get_ident(), len(table)))
            return super().evaluate_block_with_g(table)

    monkeypatch.setattr("paircert.estimator.ThreadPoolExecutor", CountingPool)
    s = sample(9, 9, 8)
    for threads in (2, 5, 16):
        submitted.clear()
        fn = ResolventTraceFunction(torus3_params)
        estimator._pair_sweep(fn.evaluate_block_with_g, s, 1, threads, fn.block_size)
        assert len(submitted) <= min(threads, len(s) - 1) - 1

    submitted.clear()
    fn = RecordingResolvent(torus3_params)
    estimator._pair_sweep(fn.evaluate_block_with_g, s, 1, 1, fn.block_size)
    assert submitted == []
    # the 29 distinct of the 36 pair products, all-ones among them, in one chunk: the tree's 7,281 rows at n = 9 hold them all
    distinct = {(s[i] * s[j]).tobytes() for i in range(9) for j in range(i + 1, 9)}
    assert len(distinct) == 29 and all_ones(9).tobytes() in distinct
    assert callers == [(threading.get_ident(), 29)]


@pytest.mark.parametrize("threads", [1, 2])
def test_key_sweep_takes_one_kernel_call_per_block(threads):
    # the bench's spectral design: 60 samples at n = 36 give 1,770 distinct pair products and all-ones,
    # 1,771 keys that go out in ceil(1,771 / 101) = 18 blocks, seventeen full and one of 54 rows
    keys, _ = estimator._pair_multiset(sample(60, 36, 1))
    assert len(keys) == 1771 and block_rows(36) == 101
    sizes = []

    def kernel(table):
        sizes.append(len(table))
        return (table.sum(axis=1, dtype=np.float64),)

    (values,) = estimator._evaluate_keys(kernel, keys, 36, threads, block_rows(36))
    assert len(sizes) == -(-len(keys) // block_rows(36)) == 18
    assert sorted(sizes) == [54] + [101] * 17
    # in key order across threads: a row sums to n minus twice its -1 entries
    assert values.tolist() == (36 - 2 * np.unpackbits(keys.view(np.uint8).reshape(len(keys), -1), axis=1).sum(axis=1, dtype=np.int64)).tolist()
    # every stacked (k, n, n) float64 block stays within 1 MiB, or is the one row an n past 362 needs,
    # and one row more would pass 1 MiB
    for n in range(1, 401):
        rows = block_rows(n)
        assert rows * n * n * 8 <= 1 << 20 or rows == 1, n
        assert (rows + 1) * n * n * 8 > 1 << 20, n


def test_sandwich_small_sweep(torus3_params, torus3_exact):
    for p in (1, 2, 3, 5):
        for seed in range(10):
            cert = certify(ResolventTraceFunction(torus3_params), p, seed)
            assert cert.lower - 1e-12 <= torus3_exact <= cert.upper + 1e-12
            assert cert.f_bar - torus3_exact >= -1e-8
            assert cert.g_bar >= -NUMERICAL_SLACK


def test_gbar_mean_matches_g_at_ones_over_p(torus3_params):
    p = 5
    g_one = ResolventTraceFunction(torus3_params).evaluate_with_g(all_ones(9))[1]
    g_bars = [certify(ResolventTraceFunction(torus3_params), p, seed).g_bar for seed in range(60)]
    mean = np.mean(g_bars)
    stderr = np.std(g_bars, ddof=1) / np.sqrt(len(g_bars))
    assert abs(mean - g_one / p) <= 4 * stderr


def test_markov_apriori_values():
    assert markov_apriori(2.0, 30) == 1 / 3
    assert markov_apriori(0.0, 17) == 0.0
    assert markov_apriori(2.0, 1001) == 10.0 / 1001.0
    assert markov_apriori(2.0, 1001) == pytest.approx(0.00999, abs=1e-5)
    with pytest.raises(ValueError):
        markov_apriori(-1.0, 5)
    with pytest.raises(ValueError):
        markov_apriori(1.0, 0)


def test_choose_p_frozen_values():
    assert choose_p(1.0, 1.0, 0.01) == 1001
    assert choose_p(1.0, 1.0, 1 / 3) == 31
    assert choose_p(2.0, 1.0, 1.0) == 21
    # the rule: the least p whose a-priori 90% Markov width 10c/(2p), c = 2*lam/gamma^2, is below delta
    for lam, gamma, delta in ((1.0, 1.0, 0.01), (1.0, 1.0, 1 / 3), (2.0, 1.0, 1.0)):
        c, p = 2.0 * lam / gamma**2, choose_p(lam, gamma, delta)
        assert markov_apriori(c, p) < delta <= markov_apriori(c, p - 1)
    # gamma^2 overflows, gamma^2 * delta does not: 10*lam/(gamma^2*delta) = 2.5
    assert choose_p(1.0, 2e154, 1e-308) == 3


def test_choose_p_minimality():
    rng = np.random.default_rng(2)
    for _ in range(50):
        lam = float(rng.uniform(0.1, 3))
        gamma = float(rng.uniform(0.1, 2))
        delta = float(rng.uniform(0.05, 2))
        target = 10.0 * lam / (gamma * gamma * delta)
        if target * target > 10**6:
            continue
        p = choose_p(lam, gamma, delta)
        assert p > target
        assert p - 1 <= target


def test_choose_p_warns_on_large_budget():
    # the budget (p^2 = 1002001 here) is the CLI's to report; choose_p stays silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert choose_p(1.0, 1.0, 0.01) == 1001
    with pytest.raises(ValueError):
        choose_p(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        choose_p(1.0, 1.0, -0.5)


@pytest.mark.parametrize(
    "lam, gamma, delta",
    [
        (math.nan, 1.0, 0.5),
        (math.inf, 1.0, 0.5),
        (1.0, math.inf, 0.5),
        (1.0, math.nan, 0.5),
        (1.0, 0.0, 0.5),
        (1.0, 1.0, math.nan),
        (1.0, 1.0, math.inf),
    ],
)
def test_choose_p_rejects_nonfinite(lam, gamma, delta):
    with pytest.raises(ValueError, match="positive and finite"):
        choose_p(lam, gamma, delta)


def test_certificate_width_invariants(torus3_params):
    cert = certify(ResolventTraceFunction(torus3_params), 5, 99)
    assert cert.lower <= cert.upper
    assert cert.expected_width <= cert.markov_90_width / 10.0
    assert cert.markov_90_width == 10.0 * (cert.g_at_ones / cert.p)
    assert cert.realized_within_markov == (cert.g_bar <= cert.markov_90_width)
    assert cert.c_bound == pytest.approx(2.0)
    assert cert.c_markov_width == pytest.approx(markov_apriori(2.0, 5))


def test_counters(torus3_params):
    fn = ResolventTraceFunction(torus3_params)
    cert = certify(fn, 5, 1)
    assert cert.counters.evaluations == 5 * 4 // 2 + 1
    assert cert.counters.factorizations == cert.counters.evaluations
    again = certify(fn, 5, 2)
    # counter deltas are per run even when the function object is reused
    assert again.counters.factorizations == again.counters.evaluations


@pytest.mark.parametrize("dominated", [False, True], ids=["interval", "disc"])
def test_concurrent_certificates_may_share_functions(dominated):
    # two runs at once on the same function objects: each certificate, counters included, is a lone run's
    graph = build_torus_cayley(4)
    params = ResolventParams(1.0, 1.0, laplacian(graph))
    if dominated:
        f1, f2 = dominating_resolvent_scale(AnalyticFunction.polynomial([0.0, 0.0, 1.0]), params, graph)
        g2 = GFunction(f2)

        def run(seed):
            return certify_dominated(f1, g2, 60, seed)
    else:
        fn = ResolventTraceFunction(params)

        def run(seed):
            return certify(fn, 60, seed)

    seeds = (1, 2)
    lone = [run(seed) for seed in seeds]
    barrier = threading.Barrier(len(seeds))

    def together(seed):
        barrier.wait()
        return run(seed)

    with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
        assert list(pool.map(together, seeds)) == lone  # as objects, which fixes their JSON too


def test_certificate_serialization(torus3_params):
    cert = certify(ResolventTraceFunction(torus3_params), 3, 4)
    doc = cert.to_json_dict()
    assert doc["schema_version"] == SCHEMA_VERSION
    assert set(doc) == {
        "schema_version",
        "f_bar",
        "g_bar",
        "lower",
        "upper",
        "p",
        "seed",
        "g_at_ones",
        "expected_width",
        "markov_90_width",
        "realized_within_markov",
        "c_bound",
        "c_markov_width",
        "counters",
    }
    assert doc["counters"]["wall_ms"] is None
    round_trip = json.loads(json.dumps(doc))
    assert round_trip["f_bar"] == cert.f_bar
    assert round_trip["lower"] == cert.lower


def test_certificate_rejects_empty_interval():
    # an empty interval is certify's FactorizationError (test_numerical_breakdown_exit1); the record checks p alone
    counters = EvalCounters(1, 1)
    with pytest.raises(ValueError, match="p must be positive"):
        Certificate(f_bar=0.0, g_bar=0.0, p=0, seed=0, g_at_ones=0.0, c_bound=None, counters=counters)
    for radius, p, fragment in ((-1e-300, 1, "radius must be nonnegative"), (0.0, 0, "p must be positive")):
        with pytest.raises(ValueError, match=fragment):
            DominatedCertificate(center=0j, radius=radius, p=p, seed=0, counters=counters)


def test_certificate_derives_bounds_and_widths():
    # the record stores the sweep's measurements; every bound and width is a property of them
    assert [field.name for field in dataclasses.fields(Certificate)] == ["f_bar", "g_bar", "p", "seed", "g_at_ones", "c_bound", "counters"]
    cert = Certificate(f_bar=0.5, g_bar=0.25, p=4, seed=0, g_at_ones=0.5, c_bound=2.0, counters=EvalCounters(7, 7))
    assert (cert.lower, cert.upper) == (0.5 - 0.25 - NUMERICAL_SLACK, 0.5 + NUMERICAL_SLACK)
    assert cert.width == cert.upper - cert.lower
    assert (cert.markov_90_width, cert.expected_width) == (1.25, 0.125)
    assert cert.realized_within_markov is True
    assert cert.c_markov_width == markov_apriori(2.0, 4)
    wide = dataclasses.replace(cert, g_bar=2.0, c_bound=None)
    assert wide.realized_within_markov is False
    assert wide.c_markov_width is None


def test_dominated_certificate(torus3, torus3_params):
    square = AnalyticFunction.polynomial([0.0, 0.0, 1.0])
    exact = exact_expectation(dominating_resolvent_scale(square, torus3_params, torus3)[0])
    for seed in range(5):
        f1, f2 = dominating_resolvent_scale(square, torus3_params, torus3)
        cert = certify_dominated(f1, GFunction(f2), 20, seed)
        assert abs(cert.center - exact) <= cert.radius
        assert cert.radius >= 0
        assert cert.counters.evaluations == 20 * 19 // 2 + 1
        doc = cert.to_json_dict()
        assert set(doc) == {"schema_version", "center_re", "center_im", "radius", "p", "seed", "counters"}


def test_negative_radius_is_a_numerical_failure(torus3, torus3_params):
    f1 = dominating_resolvent_scale(AnalyticFunction.polynomial([0.0, 0.0, 1.0]), torus3_params, torus3)[0]
    with pytest.raises(FactorizationError, match="radius"):
        certify_dominated(f1, ConstantFunction(9, -1.0), 3, 0)


def test_dimension_mismatch(torus3_params):
    f1 = ResolventTraceFunction(torus3_params)
    g2 = ConstantFunction(8, 1.0)
    with pytest.raises(ValueError, match="dimension"):
        certify_dominated(f1, g2, 3, 0)


def test_dominated_single_vertex_constant():
    # n=1, no edges, h = z^2: f1 is identically 1, so center = 1 exactly
    res = single_vertex_resolvent(1.0, 1.0)
    square = AnalyticFunction.polynomial([0.0, 0.0, 1.0])
    f1 = SpectralTraceFunction(square, res.params)
    f2 = GFunction(res)
    cert = certify_dominated(f1, f2, 4, 11)
    assert cert.center == pytest.approx(1.0, abs=1e-13)
    assert cert.radius >= 0.0
    assert abs(cert.center - 1.0) <= cert.radius


def test_dominated_complex_center(torus3, torus3_params):
    # h(z) = i*z has exact mean i * 4 on the 3x3 torus (mean degree 4)
    h = AnalyticFunction.polynomial([0.0, 1j])
    f1, f2 = dominating_resolvent_scale(h, torus3_params, torus3)
    cert = certify_dominated(f1, GFunction(f2), 8, 5)
    assert isinstance(cert.center, complex)
    assert abs(cert.center - 4j) <= cert.radius
    doc = cert.to_json_dict()
    assert doc["center_re"] == pytest.approx(cert.center.real)
    assert doc["center_im"] == pytest.approx(cert.center.imag)


def test_dominated_is_one_sweep(monkeypatch, torus3, torus3_params):
    # f1 and g2 share one sample, one pool and one sweep: every block goes to f1 and then to g2
    # in the thread that formed it, and all-ones is the first row of the calling thread's first block
    pools, calls = [], []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    class Recording:
        def __init__(self, name, fn):
            self.name, self.fn, self.n = name, fn, fn.n

        def evaluate_block(self, table):
            calls.append((self.name, threading.get_ident(), table.tobytes()))
            return self.fn.evaluate_block(table)

        @property
        def block_size(self):
            return 7

        @property
        def factorization_count(self):
            return self.fn.factorization_count

    monkeypatch.setattr(estimator, "ThreadPoolExecutor", CountingPool)
    ones = all_ones(9).tobytes()
    f1, f2 = dominating_resolvent_scale(AnalyticFunction.polynomial([0.0, 0.0, 1.0]), torus3_params, torus3)
    reference = certify_dominated(f1, GFunction(f2), 12, 3, threads=1)
    for threads in (1, 3):
        pools.clear()
        calls.clear()
        cert = certify_dominated(Recording("f1", f1), Recording("g2", GFunction(f2)), 12, 3, threads=threads)
        assert pools == [threads]
        assert [(name, t) for name, t, table in calls if table[:9] == ones] == [("f1", threading.get_ident()), ("g2", threading.get_ident())]
        for thread in {thread for _, thread, _ in calls}:
            mine = [(name, table) for name, t, table in calls if t == thread]
            assert [name for name, _ in mine] == ["f1", "g2"] * (len(mine) // 2)
            assert [table for name, table in mine if name == "f1"] == [table for name, table in mine if name == "g2"]
        if threads == 1:  # all-ones and the 60 distinct of the 66 pair products: eight blocks of 7 and one of 5
            assert len(calls) == 2 * 9
        assert cert.to_json_dict() == reference.to_json_dict()


def test_wall_time_quadratic_in_p():
    # doubling p roughly quadruples the pair count, so wall time should too
    params = ResolventParams(1.0, 1.0, laplacian(build_torus_cayley(10)))

    def best_of_three(p: int) -> float:
        times = []
        for _ in range(3):
            fn = ResolventTraceFunction(params)
            start = time.perf_counter()
            certify(fn, p, 1)
            times.append(time.perf_counter() - start)
        return min(times)

    ratio = best_of_three(32) / best_of_three(16)
    assert 3.0 <= ratio <= 5.0
