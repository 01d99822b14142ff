"""Finite graphs stored dense, and their Laplacians.

A graph is its symmetric 0/1 adjacency matrix (zero diagonal) alone; the
vertex count and the integer degree sequence are read from it. The
Laplacian A - D_G is assembled in integer arithmetic and cast to float
once, so its row sums are exactly zero. Everything here is sized for dense
factorization downstream; sparse storage is deliberately out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EdgeListError(ValueError):
    """Raised when an edge-list document cannot be parsed."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Instances are immutable (the adjacency is marked read-only) and safe to
    share across threads. They compare by identity; compare `adjacency`
    to compare structure.
    """

    adjacency: np.ndarray  # (n, n) integer, symmetric, 0/1, zero diagonal

    def __post_init__(self):
        a = self.adjacency
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"adjacency must be a square matrix with at least one vertex, got shape {a.shape}")
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError("adjacency must be an integer array")
        if np.any((a != 0) & (a != 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        if np.any(np.diagonal(a) != 0):
            raise ValueError("adjacency must have zero diagonal")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        """(n,) row sums of the adjacency."""
        return self.adjacency.sum(axis=1)

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max())


def build_torus_cayley(m: int) -> Graph:
    """4-regular discrete torus on m*m vertices.

    Vertex (a, b) gets index a*m + b and is adjacent to (a±1 mod m, b) and
    (a, b±1 mod m). Requires m >= 3: below that the four generators collide
    and would produce parallel edges or loops.
    """
    if m < 3:
        raise ValueError(f"torus size must be >= 3, got {m}")
    n = m * m
    adjacency = np.zeros((n, n), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            i = a * m + b
            for da, db in ((1, 0), (m - 1, 0), (0, 1), (0, m - 1)):
                j = ((a + da) % m) * m + (b + db) % m
                adjacency[i, j] = 1
    return Graph(adjacency)


def from_edge_list(text: str) -> Graph:
    """Parse an edge-list document into a Graph.

    Format: first line is the vertex count n; every following line is an
    edge "u v" with 0 <= u, v < n and u != v. Whitespace-separated ASCII
    decimal; LF or CRLF both fine; blank lines are skipped; duplicate
    edges are ignored. Errors name the offending 1-based line number.
    """
    numbered = [(lineno, raw) for lineno, raw in enumerate(text.splitlines(), start=1) if raw.strip() != ""]
    if not numbered:
        raise EdgeListError("empty document: missing vertex count line")
    (lineno, raw), edges = numbered[0], numbered[1:]
    tokens = raw.split()
    if len(tokens) != 1:
        raise EdgeListError(f"line {lineno}: expected a single vertex count, got {raw!r}")
    try:
        n = int(tokens[0])
    except ValueError:
        raise EdgeListError(f"line {lineno}: vertex count {tokens[0]!r} is not an integer") from None
    if n < 1:
        raise EdgeListError(f"line {lineno}: vertex count must be positive, got {n}")

    adjacency = np.zeros((n, n), dtype=np.int64)
    for lineno, raw in edges:
        tokens = raw.split()
        if len(tokens) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: vertices must be integers, got {raw!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"line {lineno}: vertex out of range 0..{n - 1} in {raw!r}")
        if u == v:
            raise EdgeListError(f"line {lineno}: loop edge {u}-{v} not allowed")
        adjacency[u, v] = 1
        adjacency[v, u] = 1
    return Graph(adjacency)


def laplacian(graph: Graph) -> np.ndarray:
    """Dense Laplacian A - D_G as float64.

    The subtraction happens on the integer arrays, so every row sums to
    exactly zero after the cast.
    """
    lap_int = graph.adjacency - np.diag(graph.degrees)
    return lap_int.astype(np.float64)
