from __future__ import annotations

import numpy as np
import pytest

from paircert.functions import BernoulliFunction, ResolventParams, ResolventTraceFunction
from paircert.graph import Graph, build_torus_cayley, laplacian


class LambdaFunction(BernoulliFunction):
    """Adapter turning a plain callable into a BernoulliFunction."""

    def __init__(self, n, func):
        super().__init__(n)
        self._func = func

    def evaluate(self, eps):
        return self._func(np.asarray(eps))


class ConstantFunction(BernoulliFunction):
    def __init__(self, n, value):
        super().__init__(n)
        self.value = value

    def evaluate(self, eps):
        return self.value


class Blocked(BernoulliFunction):
    """Forwards the block evaluators of `inner` and states `size` as its block size: a test sets the
    chunking of a sweep through the function swept, as the library does."""

    def __init__(self, inner: BernoulliFunction, size: int):
        super().__init__(inner.n)
        self.inner, self.size = inner, size

    def evaluate_block(self, table):
        return self.inner.evaluate_block(table)

    def evaluate_block_with_g(self, table):
        return self.inner.evaluate_block_with_g(table)

    @property
    def block_size(self) -> int:
        return self.size

    @property
    def bounded_difference_constant(self):
        return self.inner.bounded_difference_constant

    @property
    def factorization_count(self) -> int:
        return self.inner.factorization_count


def _bits(arrays) -> list:
    return [np.ascontiguousarray(a).view(np.int64).tolist() for a in arrays]


def assert_same_bits_for_any_split(fn: BernoulliFunction, table: np.ndarray, sizes, with_g: bool):
    """`fn.evaluate_block`, over the whole table and in blocks of each size, gives the bits of one row
    per call through `fn.evaluate`; with `with_g` so do `fn.evaluate_block_with_g` and
    `fn.evaluate_with_g` for f and g. Returns the whole table's (f,) or (f, g) arrays."""
    paths = [(lambda rows: (fn.evaluate_block(rows),), lambda eps: (fn.evaluate(eps),))]
    if with_g:
        paths.append((fn.evaluate_block_with_g, fn.evaluate_with_g))
    whole = paths[-1][0](table)
    for block, one_row in paths:
        single = list(zip(*map(one_row, table)))
        assert _bits(single) == _bits(whole[:len(single)])
        for size in (*sizes, len(table)):
            split = list(zip(*(block(table[at:at + size]) for at in range(0, len(table), size))))
            assert _bits(map(np.concatenate, split)) == _bits(whole[:len(split)])
    return whole


def random_connected_graph(rng: np.random.Generator, n: int, extra_edge_prob: float = 0.3) -> Graph:
    """Uniform random attachment tree plus independent extra edges."""
    adjacency = np.zeros((n, n), dtype=np.int64)
    for v in range(1, n):
        u = int(rng.integers(0, v))
        adjacency[u, v] = adjacency[v, u] = 1
    extras = rng.random((n, n)) < extra_edge_prob
    for u in range(n):
        for v in range(u + 1, n):
            if extras[u, v] and adjacency[u, v] == 0:
                adjacency[u, v] = adjacency[v, u] = 1
    return Graph(adjacency)


def random_signs(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=n)


def single_vertex_graph() -> Graph:
    return Graph(np.zeros((1, 1), dtype=np.int64))


def single_vertex_resolvent(lam: float = 1.0, gamma: float = 1.0) -> ResolventTraceFunction:
    return ResolventTraceFunction(ResolventParams(lam, gamma, laplacian(single_vertex_graph())))


@pytest.fixture(scope="session")
def torus3() -> Graph:
    return build_torus_cayley(3)


@pytest.fixture(scope="session")
def torus3_params(torus3) -> ResolventParams:
    return ResolventParams(1.0, 1.0, laplacian(torus3))


@pytest.fixture(scope="session")
def torus3_exact(torus3_params) -> float:
    from paircert.oracle import exact_expectation

    return exact_expectation(ResolventTraceFunction(torus3_params))
