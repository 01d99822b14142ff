"""Deterministic generation of ±1 samples and their pairwise products.

The generator is SplitMix64 with top-bit sign extraction, fixed so that
any implementation on any platform reproduces the same sample arrays
bit for bit from (seed, p, n):

    state += 0x9E3779B97F4A7C15          (per output, mod 2^64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)
    sign = +1 if the top bit of output is 0, else -1

Entries signs[i][k] consume the stream row-major: i (sample index) outer,
k (coordinate) inner. A sign table is a read-only (rows, n) int8 array, and
all products are computed in integer arithmetic, never floating point.

A row's key packs its -1 entries to bits, bit k for coordinate k, in
little-endian uint64 words: one item per row, the word itself when n <= 64
(then the oracle's mask, and all-ones is key 0), else the bytes of its words.
The key of a product of two rows is the XOR of their words.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Dense int8 sample arrays; p*n beyond this is rejected up front.
MAX_SIGNS = 2**31


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First `count` raw SplitMix64 outputs for the given seed, as uint64."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    # Output k depends only on seed + (k+1)*gamma, so the stream vectorizes.
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed) + idx * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def sample(p: int, n: int, seed: int) -> np.ndarray:
    """The read-only (p, n) int8 sign array for (seed, p, n).

    Deterministic and platform independent; calling twice with the same
    arguments yields bit-identical arrays.
    """
    if p < 1 or n < 1:
        raise ValueError(f"p and n must be positive, got p={p}, n={n}")
    if p * n > MAX_SIGNS:
        raise ValueError(f"sample set of p*n = {p * n} signs exceeds the {MAX_SIGNS} size budget")
    raw = splitmix64(seed, p * n)
    top = (raw >> np.uint64(63)).astype(np.int8)
    signs = (1 - 2 * top).reshape(p, n)
    signs.setflags(write=False)
    return signs


def pair_product(signs: np.ndarray, i: int, j: int) -> np.ndarray:
    """Componentwise product of rows i and j of a sign table (int8; exact). Outside the tests only `bench/` calls it."""
    p = signs.shape[0]
    if not (0 <= i < p and 0 <= j < p):
        raise IndexError(f"row indices ({i}, {j}) out of range for p={p}")
    return signs[i] * signs[j]


def flip(v: np.ndarray, r: int) -> np.ndarray:
    """Copy of the sign vector with coordinate r negated."""
    if not 0 <= r < v.shape[0]:
        raise IndexError(f"coordinate {r} out of range for n={v.shape[0]}")
    out = v.copy()
    out[r] = -out[r]
    return out


def all_ones(n: int) -> np.ndarray:
    """The all-ones sign vector (the pair product of any row with itself)."""
    return np.ones(n, dtype=np.int8)


def pack_keys(table: np.ndarray) -> np.ndarray:
    """The 1-D keys of the rows of a (k, n) sign table: uint64 words when n <= 64, else V(8*words) items."""
    k, n = table.shape
    words = -(-n // 64)
    negative = np.zeros((k, 64 * words), dtype=bool)
    negative[:, :n] = table < 0
    return np.packbits(negative, axis=1, bitorder="little").view("<u8" if words == 1 else f"V{8 * words}")[:, 0]


def unpack_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """The (k, n) int8 sign table of contiguous 1-D keys packed as by pack_keys."""
    return 1 - 2 * np.unpackbits(keys.view(np.uint8).reshape(-1, keys.itemsize), axis=1, count=n, bitorder="little").view(np.int8)
