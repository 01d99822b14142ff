from __future__ import annotations

import numpy as np
import pytest

from paircert.graph import EdgeListError, Graph, build_torus_cayley, from_edge_list, laplacian

from conftest import random_connected_graph


def test_torus3_shape():
    g = build_torus_cayley(3)
    assert g.n == 9
    assert np.all(g.degrees == 4)
    assert int(g.adjacency.sum()) == 2 * 18
    assert g.max_degree == 4


def test_torus15_regular():
    g = build_torus_cayley(15)
    assert g.n == 225
    assert np.all(g.degrees == 4)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_torus_rejects_small_m(m):
    with pytest.raises(ValueError):
        build_torus_cayley(m)


def test_torus3_laplacian_spectrum():
    # eigenvalues 2cos(2*pi*a/3) + 2cos(2*pi*b/3) - 4 give {0 x1, -3 x4, -6 x4}
    eig = np.sort(np.linalg.eigvalsh(laplacian(build_torus_cayley(3))))
    expected = np.sort([-6.0] * 4 + [-3.0] * 4 + [0.0])
    np.testing.assert_allclose(eig, expected, atol=1e-9)


def test_torus_spectrum_formula():
    m = 6
    eig = np.sort(np.linalg.eigvalsh(laplacian(build_torus_cayley(m))))
    grid = 2 * np.pi * np.arange(m) / m
    expected = np.sort((2 * np.cos(grid)[:, None] + 2 * np.cos(grid)[None, :] - 4).ravel())
    np.testing.assert_allclose(eig, expected, atol=1e-9)


def test_laplacian_row_sums_exactly_zero():
    rng = np.random.default_rng(11)
    graphs = [build_torus_cayley(4)] + [random_connected_graph(rng, int(rng.integers(2, 30))) for _ in range(5)]
    for g in graphs:
        lap = laplacian(g)
        assert lap.dtype == np.float64
        assert np.all(lap.sum(axis=1) == 0.0)
        assert np.array_equal(lap, lap.T)


def test_neg_laplacian_psd():
    rng = np.random.default_rng(7)
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(2, 64)))
        assert np.linalg.eigvalsh(-laplacian(g)).min() >= -1e-9


def test_two_path_laplacian():
    g = from_edge_list("2\n0 1")
    assert list(g.degrees) == [1, 1]
    np.testing.assert_array_equal(laplacian(g), [[-1.0, 1.0], [1.0, -1.0]])


def test_single_vertex():
    g = from_edge_list("1")
    assert g.n == 1
    assert list(g.degrees) == [0]
    np.testing.assert_array_equal(laplacian(g), [[0.0]])


def test_edge_list_matches_torus():
    torus = build_torus_cayley(3)
    lines = ["9"]
    for u in range(9):
        for v in range(u + 1, 9):
            if torus.adjacency[u, v]:
                lines.append(f"{u} {v}")
    assert len(lines) == 19
    assert np.array_equal(from_edge_list("\n".join(lines)).adjacency, torus.adjacency)


def test_edge_list_duplicates_blanks_crlf():
    g = from_edge_list("3\r\n\r\n0 1\r\n0 1\r\n1 2\r\n")
    assert int(g.adjacency.sum()) == 2 * 2
    assert list(g.degrees) == [1, 2, 1]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("2\n0 x", "line 2"),
        ("2\n0 5", "line 2"),
        ("3\n\n1 1", "line 3"),
        ("2\n0", "line 2"),
        ("x", "line 1"),
        ("0", "line 1"),
        ("", "vertex count"),
        ("2 1\n0 1", "single vertex count"),
    ],
)
def test_edge_list_errors(text, fragment):
    with pytest.raises(EdgeListError, match=fragment):
        from_edge_list(text)


def test_graph_arrays_read_only():
    g = build_torus_cayley(3)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 0


def test_graph_validation():
    bad = np.zeros((2, 2), dtype=np.int64)
    bad[0, 1] = 1  # asymmetric
    with pytest.raises(ValueError, match="symmetric"):
        Graph(bad)
    loop = np.eye(2, dtype=np.int64)
    with pytest.raises(ValueError, match="diagonal"):
        Graph(loop)
    for shape in ((2, 3), (0, 0)):
        with pytest.raises(ValueError, match="square"):
            Graph(np.zeros(shape, dtype=np.int64))
    with pytest.raises(ValueError, match="integer array"):
        Graph(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="0 or 1"):
        Graph(np.array([[0, 2], [2, 0]]))
