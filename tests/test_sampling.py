from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from paircert.sampling import MAX_SIGNS, all_ones, flip, pack_keys, pair_product, sample, splitmix64, unpack_keys

_MASK = (1 << 64) - 1


def splitmix64_reference(seed: int, count: int) -> list[int]:
    """Scalar SplitMix64, straight from the published recipe."""
    out = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_published_vector():
    # first outputs for seed 0 of the reference implementation
    expected = [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]
    assert list(splitmix64(0, 5)) == expected
    assert splitmix64_reference(0, 5) == expected


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=30, deadline=None)
def test_vectorized_matches_scalar_reference(seed):
    assert list(splitmix64(seed, 40)) == splitmix64_reference(seed, 40)


def test_state_wraparound():
    # adding the increment to a state near 2^64 must wrap silently
    seed = 2**64 - 1
    assert list(splitmix64(seed, 8)) == splitmix64_reference(seed, 8)


def test_splitmix64_rejects_bad_seed():
    with pytest.raises(ValueError):
        splitmix64(-1, 4)
    with pytest.raises(ValueError):
        splitmix64(2**64, 4)


def test_sample_determinism_and_dtype():
    a = sample(7, 13, 42)
    b = sample(7, 13, 42)
    assert a.dtype == np.int8
    assert a.shape == (7, 13)
    assert np.array_equal(a, b)
    assert np.all((a == 1) | (a == -1))


def test_sign_rule_top_bit():
    outputs = splitmix64_reference(0, 8)
    expected = [1 if u >> 63 == 0 else -1 for u in outputs]
    assert list(sample(1, 8, 0)[0]) == expected
    assert sample(1, 1, 0)[0, 0] == -1  # 0xE220... has its top bit set


def test_row_major_consumption():
    flat = sample(1, 15, 99)[0]
    grid = sample(3, 5, 99)
    assert np.array_equal(grid.ravel(), flat)


def test_mean_bound_million_signs():
    signs = sample(1, 10**6, 0)[0]
    assert abs(signs.astype(np.float64).mean()) <= 4 / np.sqrt(10**6)


def test_pair_products_uniform_chi_square():
    # products of disjoint sample pairs should be uniform over {-1,+1}^4
    draws = 120_000
    s = sample(2 * draws, 4, 2024)
    products = s[0::2] * s[1::2]
    bits = (products == -1).astype(np.int64)
    masks = bits @ (1 << np.arange(4))
    counts = np.bincount(masks, minlength=16)
    assert counts.sum() == draws
    expected = draws / 16.0
    statistic = float(((counts - expected) ** 2 / expected).sum())
    # seeded, hence deterministic; fails only if the generator is broken
    assert stats.chi2.sf(statistic, df=15) > 1e-9


def test_sample_size_budget():
    with pytest.raises(ValueError, match="sign"):
        sample(2**16, 2**16, 0)
    with pytest.raises(ValueError):
        sample(0, 4, 0)
    with pytest.raises(ValueError):
        sample(4, 0, 0)


def test_pair_product_identities():
    s = sample(6, 10, 5)
    for i in range(6):
        assert np.array_equal(pair_product(s, i, i), all_ones(10))
    assert np.array_equal(pair_product(s, 1, 4), pair_product(s, 4, 1))
    with pytest.raises(IndexError):
        pair_product(s, 0, 6)


def test_pair_product_direct_example():
    signs = np.array([[1, -1], [-1, -1]], dtype=np.int8)
    assert list(pair_product(signs, 0, 1)) == [-1, 1]


@given(data=st.data(), n=st.integers(min_value=1, max_value=24))
@settings(max_examples=40, deadline=None)
def test_flip_properties(data, n):
    r = data.draw(st.integers(min_value=0, max_value=n - 1))
    seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
    v = sample(1, n, seed)[0]
    flipped = flip(v, r)
    assert flipped[r] == -v[r]
    assert np.array_equal(np.delete(flipped, r), np.delete(v, r))
    assert np.array_equal(flip(flipped, r), v)


def test_flip_out_of_range():
    v = all_ones(4)
    with pytest.raises(IndexError):
        flip(v, 4)


def test_sampleset_immutable():
    s = sample(3, 3, 1)
    with pytest.raises(ValueError):
        s[0, 0] = 1


@pytest.mark.parametrize("n", [1, 9, 64, 65, 130])
def test_keys_pack_minus_signs_one_item_a_row(n):
    # bit k of a key is coordinate k's -1, in little-endian uint64 words: one uint64 item a row up to
    # n = 64, the bytes of its words past it; unpack_keys inverts it
    table = np.concatenate([all_ones(n)[None], sample(40, n, 3)])
    keys = pack_keys(table)
    assert keys.shape == (41,) and keys.dtype == (np.dtype("<u8") if n <= 64 else np.dtype(f"V{8 * -(-n // 64)}"))
    assert [int.from_bytes(key.tobytes(), "little") for key in keys] == [sum(1 << int(k) for k in np.flatnonzero(row < 0)) for row in table]
    assert unpack_keys(keys, n).tolist() == table.tolist()
