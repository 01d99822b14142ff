"""Concrete functions of sign vectors and their flip half-sums.

The workhorse is the normalized resolvent trace on a graph,

    f(eps) = (1/n) * Tr[ ((lam+gamma)I - lam*D_eps - Lap)^-1 ],

where D_eps is the diagonal of the sign vector. The matrix is positive
definite with smallest eigenvalue >= gamma for every eps, so a Cholesky
factorization must succeed once ResolventParams has shown that rounding
cannot take that away; a failure signals corrupted input, not an edge
case, and is raised as FactorizationError.

The flip half-sum

    g(eps) = 1/2 * sum_r [ f(eps) - f(eps with coordinate r negated) ]

is computed from a single explicit inverse: negating coordinate r adds
2*lam*eps_r to entry (r, r), so by the rank-one inverse-update identity
the flipped trace is

    Tr(M^-1) - 2*lam*eps_r * (M^-2)_rr / (1 + 2*lam*eps_r * (M^-1)_rr),

and (M^-2)_rr is the squared norm of column r of M^-1 by symmetry. One
O(n^3) inverse then covers all n flips in O(n^2) total, instead of n+1
separate factorizations. `naive_g` keeps the n+1-evaluation definition
as the reference implementation for any function.

Functions also take a (k, n) sign table at once. `_operators` assembles
the stack of base - lam*D_eps, one matrix per row. With base -Lap it is
H_eps for the spectral trace: a polynomial h = sum_k c_k z^k takes
(1/n) * sum_k c_k Tr H^k, each power sum one dot product of the entries
of two stacked matmul powers, while those matmuls cost less than one
eigvalsh (POWER_SUM_BUDGET); any other h takes eigvalsh. With base |Lap|
and -lam it is B_eps = lam*D_eps + |Lap|, whose power sums with weights
|c_k| make the walk majorant that dominates such an h-trace; the same
power chain gives the diagonals its flip half-sum needs, so it factors
nothing.

The resolvent up to n = ELIMINATION_LIMIT, the oracle's whole domain,
factors a block by one elimination tree (`_eliminate`): rows that share
their trailing signs share those eliminations, f is the trace gathered
on the way down, and g reads M^-1 from Takahashi's recurrence over each
row's pivots. Above it, with base (lam+gamma)I - Lap the resolvent
leaves M^-1 in the stack: dpotrf and dpotri from numpy's bundled
OpenBLAS, called through ctypes with the GIL released, invert each
matrix in place; LAPACK reads a C-ordered matrix as its transpose, so
its lower triangle is the row's upper one, T. A numpy build without
them writes M^-1 = X^T X over the stack, X = L^-1 for M = L L^T. Then
f = Tr M^-1 / n, and the tail reads the diagonal, zeroes the other
triangle, squares T in place and takes the column norms as
colsum(T^2) + rowsum(T^2) - diag(T^2). Either kernel's g then takes the
rank-one denominators. One vector is the k = 1 case of either kernel,
so no value depends on the split.
"""

from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import flip, pack_keys

# Quadrature starts at this many nodes and stops once doubling the nodes
# moves the value by less than QUADRATURE_RTOL relative.
QUADRATURE_START_NODES = 64
QUADRATURE_RTOL = 1e-10
QUADRATURE_NODE_CAP = 1 << 20

BLOCK_ENTRIES = 1 << 17

# A polynomial h of degree deg takes m = ceil(deg/2) - 1 matmuls a row for its power sums,
# and takes them while m*m*n <= POWER_SUM_BUDGET, else eigvalsh. At one BLAS thread the power
# sums measured faster up to m = 9 at n = 36, 5 or 6 at n = 100, 3 at n = 225 and 2 at n = 400.
POWER_SUM_BUDGET = 2500

# The resolvent takes the elimination tree (_eliminate) up to this n, oracle.ENUMERATION_LIMIT, and the
# binding above it. Per row, one BLAS thread, in blocks of block_rows(n): the tree's f took 1.5 us
# against the binding's 4.4 us on the sorted keys of a pair sweep at n = 16 (p = 200), and 0.9 us on
# the oracle's masks; its (f, g) took 5.0 against 5.6 us there. The tree's cost grows with the rows'
# distinct prefixes: on random rows at n = 16 its f took 5.2 us against 4.4 us, and at n = 25 3.1x
# the binding's, while at n = 20 its (f, g) lost on the pair sweep's keys too (8.8 against 7.3 us).
# The tree itself takes n <= 64, where a key is one uint64 word (see _eliminate), whatever this limit becomes.
ELIMINATION_LIMIT = 16


def _load_openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (ILP64, `scipy_` prefix, `64_` suffix) with dpotrf,
    dpotri and its thread setter typed, or None when this numpy build lacks one."""
    try:
        from numpy.linalg import _umath_linalg  # links the bundled OpenBLAS

        lib = ctypes.CDLL(_umath_linalg.__file__)
        routines, pin = (lib.scipy_dpotrf_64_, lib.scipy_dpotri_64_), lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    int64_p = ctypes.POINTER(ctypes.c_int64)
    for routine in routines:  # (uplo, n, a, lda, info, hidden length of uplo)
        routine.argtypes, routine.restype = [ctypes.c_char_p, int64_p, ctypes.c_void_p, int64_p, int64_p, ctypes.c_size_t], None
    pin.argtypes, pin.restype = [ctypes.c_int], None
    return lib


# None: every n above ELIMINATION_LIMIT takes the stacked numpy kernel
_openblas = _load_openblas()


def pin_one_blas_thread() -> bool:
    """Pin the bundled OpenBLAS to one thread; False when no binding is in use and the stacked numpy kernel
    runs above ELIMINATION_LIMIT."""
    if _openblas is not None:
        _openblas.scipy_openblas_set_num_threads64_(1)
    return _openblas is not None


def block_rows(n: int) -> int:
    """Sign vectors per block of a stacked kernel: a (k, n, n) float64 array holds at most BLOCK_ENTRIES,
    1 MiB. It is every function's `block_size` but the elimination tree's, which keeps no such stack
    on its f path and chunks Takahashi's stack by it."""
    return max(1, BLOCK_ENTRIES // (n * n))


class FactorizationError(RuntimeError):
    """SPD factorization failed or an internal identity broke."""


class QuadratureError(RuntimeError):
    """Contour quadrature did not stabilize under node doubling."""


@dataclass(frozen=True)
class ResolventParams:
    """Disorder strength lam, spectral gap gamma, and the graph Laplacian.

    Construction refuses, with ValueError, a (lam, gamma) for which the computed
    M(eps) = (lam+gamma)I - lam*D_eps - Lap cannot be shown positive definite for every eps, so
    Cholesky could fail or, worse, succeed on a matrix that has lost gamma. When -Lap is positive
    semidefinite, as a graph Laplacian A - D_G is, M(eps) >= gamma*I, and its diagonal entries are
    at most c = 2*lam + gamma + d, d = max |Lap_ii| (`max_degree`). Off the diagonal, -Lap_ij is
    exact, and so is lam*eps_i, so only the diagonal is rounded, as fl(fl(fl(lam+gamma) - Lap_ii) -
    lam*eps_i): three roundings of numbers of modulus at most c*(1+u)^2, u = 2^-53. The computed matrix is thus M(eps)
    plus a diagonal of modulus at most delta = 3u*c*(1+u)^2 < 4u*c. By Weyl its smallest eigenvalue
    is at least gamma - delta, and its largest diagonal entry is at most c + delta, so scaled to unit
    diagonal its smallest eigenvalue is at least (gamma - delta)/(c + delta). By Demmel's theorem
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., section 10.1.1), Cholesky then
    runs to completion in floating point, in any order of its inner products, when that exceeds
    n*g/(1 - g) with g = (n+1)u/(1 - (n+1)u). The test runs in exact rationals. When -Lap is not
    positive semidefinite it proves nothing, and dpotrf may still raise FactorizationError.

    Up to n = ELIMINATION_LIMIT the elimination tree factors M(eps) = L D L^T in outer-product form
    instead, and the same test covers it. Its assembled B = (lam+gamma)I - Lap has the diagonal
    fl(fl(lam+gamma) - Lap_ii), two roundings, within delta. The shift -lam*eps_j is exact and
    enters pivot j's running sum as one more summand, after the products l_jk*u_kj of the earlier
    columns, u_kj the Schur complement's entry and l_jk = fl(u_kj/d_k); each product carries that
    division's rounding too. By Higham's Lemma 8.4, pivot j, with j-1 earlier columns, has j
    summands beside B_jj, so its perturbation is within gamma_j, and gamma_(j+1) with the division;
    an entry below the diagonal is within gamma_n likewise. So B - lam*D_eps + dA = L D L^T with
    |dA| <= gamma_(n+1) |L| D |L^T|: the shift and the division add two roundings to a pivot as the
    square root adds two to Cholesky's diagonal, the constant is Cholesky's, and Demmel's argument
    holds with R = D^(1/2) L^T. The refusal needs no gamma_(n+2), and none of its boundaries moves.
    """

    lam: float
    gamma: float
    laplacian: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not math.isfinite(self.gamma * self.gamma):
            raise ValueError(f"gamma={self.gamma} is too large: gamma^2 must be finite")
        if not (self.gamma**2 > 0 and math.isfinite(2.0 * self.lam / self.gamma**2)):
            raise ValueError(f"gamma={self.gamma} is too small for lam={self.lam}: 2*lam/gamma^2 must be finite")
        lap = np.asarray(self.laplacian)
        if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
            raise ValueError(f"laplacian must be square, got shape {lap.shape}")
        if lap.dtype.kind not in "biuf":
            raise ValueError(f"laplacian must be real, got dtype {lap.dtype}")
        lap = np.asarray(lap, dtype=np.float64)  # so M(eps) is float64, the buffer LAPACK is handed
        if not np.all(np.isfinite(lap)):
            raise ValueError("laplacian entries must be finite")
        # every kernel reads one triangle, and not the same one
        if not np.array_equal(lap, lap.T):
            raise ValueError("laplacian must be symmetric")
        object.__setattr__(self, "laplacian", lap)  # frozen dataclass
        lap.setflags(write=False)
        from fractions import Fraction  # imported here, so that `import paircert` does not load it
        n, u, gamma, d = self.n, Fraction(1, 2**53), Fraction(self.gamma), self.max_degree
        c = 2 * Fraction(self.lam) + gamma + Fraction(d)
        delta, g = 4 * u * c, (n + 1) * u / (1 - (n + 1) * u)
        if not (gamma - delta) * (1 - g) > n * g * (c + delta):
            msg = f"gamma={self.gamma:g} is too small for lam={self.lam:g}, max degree {d:g} and n={n}"
            raise ValueError(f"{msg}: positive definiteness of the computed M(eps) cannot be shown (Demmel's condition for Cholesky)")

    @property
    def n(self) -> int:
        return self.laplacian.shape[0]

    @property
    def max_degree(self) -> float:
        """d = max |Lap_ii|, the maximum degree when Lap is a graph Laplacian."""
        return float(np.abs(np.diagonal(self.laplacian)).max(initial=0.0))


class _Counter:
    """Thread-safe event counter (evaluations may run in parallel)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def add(self, k: int = 1):
        with self._lock:
            self._value += k

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class BernoulliFunction:
    """Deterministic real- or complex-valued function on {-1,+1}^n.

    Subclasses implement `evaluate` or `evaluate_block`, which a (k, n) sign
    table takes to an array; each defaults to the other, so a subclass with
    neither cannot be instantiated. `evaluate_with_g`
    defaults to the naive n+1-evaluation flip half-sum and should be
    overridden when a cheaper combined path exists; `evaluate_block_with_g`
    loops over it. Evaluations are pure and may run concurrently.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        cls = type(self)
        if cls.evaluate is BernoulliFunction.evaluate and cls.evaluate_block is BernoulliFunction.evaluate_block:
            raise TypeError(f"{cls.__name__} must implement evaluate or evaluate_block")
        self.n = n
        self._factorizations = _Counter()

    def evaluate(self, eps: np.ndarray):
        """Value at one sign vector: the k = 1 case of `evaluate_block`."""
        return self.evaluate_block(np.asarray(eps)[None])[0].item()

    def evaluate_with_g(self, eps: np.ndarray):
        """(f(eps), g(eps)) pair; default recomputes f at every flip."""
        return self.evaluate(eps), naive_g(self, eps)

    def evaluate_block(self, table: np.ndarray) -> np.ndarray:
        return np.array([self.evaluate(eps) for eps in table])

    def evaluate_block_with_g(self, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pairs = [self.evaluate_with_g(eps) for eps in table]
        return np.array([f for f, _ in pairs]), np.array([g for _, g in pairs])

    @property
    def block_size(self) -> int:
        """Sign vectors per call that a sweep passes to the block evaluators."""
        return block_rows(self.n)

    @property
    def bounded_difference_constant(self) -> float | None:
        """c with |f(eps) - f(flip(eps, r))| <= c/n, when known a priori."""
        return None

    @property
    def factorization_count(self) -> int:
        """Rows evaluated so far, one factorization each. Outside the tests only `bench/` reads it."""
        return self._factorizations.value


class _BlockKernel(BernoulliFunction):
    """A function whose kernel `_block(table, with_g)` returns (f, g or None) over a sign table."""

    def evaluate_with_g(self, eps: np.ndarray) -> tuple[float, float]:
        f, g = self.evaluate_block_with_g(np.asarray(eps)[None])
        return float(f[0]), float(g[0])

    def evaluate_block(self, table: np.ndarray) -> np.ndarray:
        return self._block(table, with_g=False)[0]

    def evaluate_block_with_g(self, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._block(table, with_g=True)


def _check_length(table: np.ndarray, n: int):
    if table.shape[-1] != n:
        raise ValueError(f"sign vector has length {table.shape[-1]}, function dimension is {n}")


def _operators(base: np.ndarray, lam: float, table: np.ndarray) -> np.ndarray:
    """C-contiguous float64 (k, n, n) stack of base - lam*diag(eps), one matrix per row of the sign table."""
    k, n = len(table), len(base)
    _check_length(table, n)
    m = np.broadcast_to(base, (k, n, n)).copy()  # not astype: the ctypes loop needs each matrix contiguous
    m.reshape(k, n * n)[:, :: n + 1] -= lam * table
    return m


def _eliminate(base: np.ndarray, lam: float, table: np.ndarray, with_g: bool):
    """(Tr M^-1, then the diagonal and the squared column norms of M^-1, or None for both without g)
    over the rows of a sign table, M = base - lam*diag(eps), by one elimination tree.

    The tree eliminates coordinate n-1 first, so rows that share their trailing signs share those
    eliminations: one sort of the rows by their keys (sampling.pack_keys), whose leading bit is
    coordinate n-1, maps each row to its node at every depth, and equal rows share a leaf. A node
    holds the Schur complement S of the eliminated coordinates with the shifts of the pending ones
    left out, beside the pending rows of L^-1 for M = L D L^T, and the trace c so far. Its child for
    sign e of the next coordinate takes the pivot a = S_00 - lam*e, q = S[1:, 0]/a and
    S <- S[1:, 1:] - S[1:, 0] q^T; row 0 of L^-1 is then final, x, so c <- c + |x|^2/a, and each
    pending row i takes -q_i x. The Gram matrix of the pending rows is the trace weight W that makes
    c + Tr(W S^-1) = Tr M^-1 at every depth. A level at which every node has both children, as each
    level past the shared top bits of a run of consecutive masks does, builds them by broadcasting the
    node over its two signs, sign +1 first as the sort leaves them; a level at which some node has
    one child gathers each child's parent. The flip half-sum needs all of M^-1: from the last pivot
    back, Takahashi's recurrence takes Z_j = [[1/a + q^T v, -v^T], [-v, Z_j+1]], v = Z_j+1 q, and
    Z_0 = M^-1, over at most block_rows(n) leaves at a time, so its (leaves, n, n) stack stays
    within BLOCK_ENTRIES in any block. Every value comes from its own row's operations in a fixed
    order, so it has the same bits in any block.

    Domain: n <= 64, where a key is one uint64 word. A row opens a node at depth d where its key
    and the previous row's differ in their top d bits, an exact integer test.
    """
    k, n = len(table), len(base)
    _check_length(table, n)
    if not (np.abs(table) == 1).all():  # rows share a node by their signs alone
        raise ValueError("sign vector entries must be -1 or +1")
    if k > 1:
        key = pack_keys(table)  # coordinate n-1 the leading bit
        order = np.argsort(key, kind="stable")
        key = key[order]
        # fresh[d, i]: sorted row i opens a node of depth d, as its top d bits differ from row i-1's
        fresh = np.ones((n + 1, k), dtype=bool)
        fresh[:, 1:] = (key[1:] ^ key[:-1]) >> np.arange(n, -1, -1, dtype=np.uint64)[:, None] != 0
        node = np.cumsum(fresh, axis=1, dtype=np.int32)
        node -= 1  # node[d, i]: the node of depth d that sorted row i is in
        table = table[order]
    # one node: S^T beside the pending rows of L^-1, coordinate n-1 first; S^T, so that S's
    # column 0, which q is made of, is the row that the update subtracts
    a = np.concatenate([base[::-1, ::-1], np.eye(n)], axis=1)[None]
    trace, starts, steps = np.zeros(1), np.zeros(1, dtype=np.intp), []
    # a pivot that is not positive raises below, after the sweep; errstate quiets the infs and nans it leaves
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for d in range(n):
            children = 1
            if k > 1 and node[d + 1, -1] > node[d, -1]:  # a node branches
                starts = np.flatnonzero(fresh[d + 1])
                if len(starts) == 2 * len(a):  # every node has both: node i's are 2i and 2i+1, sign -1 first
                    children = 2
                else:
                    parent = node[d, starts]
                    a, trace = a[parent], trace[parent]
            # (node, child) axes; the shift of coordinate n-1-d read at each child's first row
            row = a[:, 0, 1:]
            pivot = a[:, 0, 0, None] - (lam * table[starts, n - 1 - d]).reshape(-1, children)
            q = row[:, None, : n - d - 1] / pivot[:, :, None]
            trace = (trace[:, None] + np.square(row[:, n - d - 1:]).sum(axis=1)[:, None] / pivot).reshape(-1)
            update = np.multiply(q[:, :, :, None], row[:, None, None, :])
            a = np.subtract(a[:, None, 1:, 1:], update, out=update).reshape(len(starts), *update.shape[2:])
            pivot, q = pivot.reshape(-1), q.reshape(len(starts), n - d - 1)
            steps.append((pivot, q))
    pivots = np.concatenate([pivot for pivot, _ in steps])
    if not (pivots > 0.0).all():
        bad = pivots[~(pivots > 0.0)][0]
        raise FactorizationError(f"elimination pivot {bad!r} is not positive; matrix is not positive definite")
    leaf = np.zeros(1, dtype=np.intp)
    if k > 1:
        leaf = np.empty(k, dtype=np.intp)
        leaf[order] = node[n]
    if not with_g:
        return trace[leaf], None, None
    leaves, size = len(starts), block_rows(n)
    diagonal, col_sq = np.empty((leaves, n)), np.empty((leaves, n))
    for first in range(0, leaves, size):
        chunk = slice(first, first + size)
        z = np.empty((len(starts[chunk]), n, n))
        for d in range(n - 1, -1, -1):
            pivot, q = steps[d]
            if len(pivot) < leaves:
                ancestor = node[d + 1, starts[chunk]]
                pivot, q = pivot[ancestor], q[ancestor]
            else:
                pivot, q = pivot[chunk], q[chunk]
            v = np.matmul(z[:, d + 1:, d + 1:], q[:, :, None])[:, :, 0]
            z[:, d, d] = 1.0 / pivot + (q * v).sum(axis=1)
            np.negative(v, out=z[:, d + 1:, d])
            z[:, d, d + 1:] = z[:, d + 1:, d]
        # back to coordinate order; z is symmetric, so its row sums are the column sums
        diagonal[chunk] = np.diagonal(z, axis1=1, axis2=2)[:, ::-1]
        col_sq[chunk] = np.square(z, out=z).sum(axis=2)[:, ::-1]
    return trace[leaf], diagonal[leaf], col_sq[leaf]


def naive_g(fn: BernoulliFunction, eps: np.ndarray):
    """Reference flip half-sum: evaluates fn exactly n+1 times."""
    eps = np.asarray(eps)
    base = fn.evaluate(eps)
    acc = 0.0
    for r in range(fn.n):
        acc += base - fn.evaluate(flip(eps, r))
    return 0.5 * acc


class ResolventTraceFunction(_BlockKernel):
    """Normalized resolvent trace of the sign-diagonal operator on a graph, times `scale`."""

    def __init__(self, params: ResolventParams, scale: float = 1.0):
        super().__init__(params.n)
        self.params = params
        self.scale = scale
        self._base = (params.lam + params.gamma) * np.eye(self.n) - params.laplacian
        self._upper = np.triu(np.ones((self.n, self.n), dtype=bool))

    def _block(self, table: np.ndarray, with_g: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """(f, g or None) over the rows of a sign table. No pivoted fallback: a
        failed factorization means the positivity guarantee was violated upstream."""
        table = np.asarray(table)
        lam, n = self.params.lam, self.n
        kernel = _eliminate if n <= ELIMINATION_LIMIT else self._invert
        trace, diagonal, col_sq = kernel(self._base, lam, table, with_g)
        self._factorizations.add(len(table))
        f = trace / n
        if not with_g:  # scale comes last, on f and on the finished g, so scale=1.0 moves no bit
            return self.scale * f, None
        denom = 1.0 + 2.0 * lam * table * diagonal
        if np.any(denom <= 0.0):
            # impossible for a valid SPD pair; flags a corrupted inverse
            raise FactorizationError("rank-one update denominator is not positive")
        return self.scale * f, self.scale * ((lam / n) * (table * col_sq / denom).sum(axis=1))

    def _invert(self, base: np.ndarray, lam: float, table: np.ndarray, with_g: bool):
        """_eliminate's three arrays from one dpotrf and dpotri per matrix, or from the stacked numpy
        kernel without the binding."""
        n, k = self.n, len(table)
        m = _operators(base, lam, table)
        if _openblas is None:
            try:
                x = np.linalg.inv(np.linalg.cholesky(m))  # X = L^-1 for M = L L^T
            except np.linalg.LinAlgError:
                raise FactorizationError("stacked Cholesky factorization failed; a matrix is not positive definite") from None
            np.matmul(x.transpose(0, 2, 1), x, out=m)  # M^-1 = X^T X
        else:
            order, info = ctypes.c_int64(n), ctypes.c_int64()
            for address in range(m.ctypes.data, m.ctypes.data + k * m.strides[0], m.strides[0]):
                # one matrix at a time, in place; LAPACK's lower triangle is the row's upper one
                _openblas.scipy_dpotrf_64_(b"L", order, address, order, info, 1)
                if info.value != 0:
                    raise FactorizationError(f"Cholesky factorization failed (dpotrf info={info.value}); matrix is not positive definite")
                _openblas.scipy_dpotri_64_(b"L", order, address, order, info, 1)
                if info.value != 0:
                    raise FactorizationError(f"inverse from Cholesky factor failed (dpotri info={info.value})")
        trace = np.trace(m, axis1=1, axis2=2)
        if not with_g:
            return trace, None, None
        diagonal = np.diagonal(m, axis1=1, axis2=2).copy()
        # in place, once the diagonal is read: row r of M^-1 is row r of T from the diagonal
        # on and column r of T above it, so (M^-2)_rr = colsum + rowsum - diag of T^2
        np.multiply(m, self._upper, out=m)
        np.square(m, out=m)
        return trace, diagonal, m.sum(axis=1) + m.sum(axis=2) - np.diagonal(m, axis1=1, axis2=2)

    @property
    def block_size(self) -> int:
        """block_rows(n) for the binding; for the elimination tree BLOCK_ENTRIES // (2n) rows, 4,096
        at n = 16, 8x a stacked block there. The tree keeps no (k, n, n) stack on its f path, and its
        cost is mostly fixed work per block, a sort and n levels of numpy calls: one pass over the
        oracle's 2^16 masks took a median 59 ms in blocks of 512 and 23 ms in blocks of 4,096 (one
        BLAS thread, 2-vCPU host). Larger blocks gained little, and one block of all 2^16 masks
        doubled the pass's peak memory."""
        return BLOCK_ENTRIES // (2 * self.n) if self.n <= ELIMINATION_LIMIT else block_rows(self.n)

    @property
    def bounded_difference_constant(self) -> float:
        # one flip moves the unscaled trace by at most 2*lam/(n*gamma^2)
        return abs(self.scale) * (2.0 * self.params.lam / self.params.gamma**2)


@dataclass(frozen=True)
class AnalyticFunction:
    """Complex function h, analytic on the disk the contour constant needs.

    A disc certificate that takes kappa times the resolvent holds only if h
    is analytic on a neighborhood of the closed disk |z - d| <= d + lam +
    gamma, since kappa comes from Cauchy's formula on its boundary. No code
    can check that, so it is the caller's promise: the built-in
    constructors give entire functions, and at small n the oracle's
    `check_domination` tests the domination it implies. Evaluators must
    accept numpy arrays of any shape and act elementwise. A polynomial h
    gives its `coefficients` c_0, ..., c_deg, low to high, in place of an
    evaluator: trailing zeros are dropped and the evaluator is built from
    them, so the spectral trace, the walk majorant and the contour constant
    read one h, and `dominating_resolvent_scale` can dominate it by its walk
    majorant, which needs no contour. None, as for `exp_scaled`, means h is
    known by its evaluator alone, and always takes kappa.
    """

    name: str
    evaluator: Callable | None = None
    coefficients: tuple | None = None

    def __post_init__(self):
        if (self.evaluator is None) == (self.coefficients is None):
            raise ValueError(f"{self.name}: give an evaluator or coefficients, not both or neither")
        if self.coefficients is None:
            return
        coeffs = [complex(c) if isinstance(c, (complex, np.complexfloating)) else float(c) for c in self.coefficients]
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError(f"polynomial coefficients must be finite, got {coeffs}")
        coeffs = tuple(coeffs[: max([k for k, c in enumerate(coeffs) if c != 0], default=0) + 1])
        object.__setattr__(self, "coefficients", coeffs)  # frozen dataclass
        object.__setattr__(self, "evaluator", lambda z: np.polynomial.polynomial.polyval(z, coeffs))

    def __call__(self, z):
        return self.evaluator(z)

    @staticmethod
    def polynomial(coefficients) -> "AnalyticFunction":
        """h(z) = sum_k c_k z^k, coefficients low-to-high."""
        coeffs = tuple(coefficients)
        name = "poly:" + ",".join(format(c, "g") for c in coeffs)
        return AnalyticFunction(name, coefficients=coeffs)

    @staticmethod
    def exp_scaled(s: float) -> "AnalyticFunction":
        """h(z) = exp(s*z)."""
        s = float(s)
        if not math.isfinite(s):
            raise ValueError(f"exponential scale must be finite, got {s}")
        return AnalyticFunction(f"exp:{s:g}", lambda z: np.exp(s * z))

    @staticmethod
    def from_spec(text: str) -> "AnalyticFunction":
        """Parse 'poly:c0,c1,...,ck' or 'exp:s'."""
        kind, _, rest = text.partition(":")
        if kind == "poly" and rest:
            try:
                return AnalyticFunction.polynomial([float(tok) for tok in rest.split(",")])
            except ValueError as exc:
                raise ValueError(f"bad polynomial coefficients in {text!r}: {exc}") from None
        if kind == "exp" and rest:
            try:
                return AnalyticFunction.exp_scaled(float(rest))
            except ValueError as exc:
                raise ValueError(f"bad exponential scale in {text!r}: {exc}") from None
        raise ValueError(f"unknown analytic function spec {text!r}; expected poly:c0,c1,... or exp:s")


class SpectralTraceFunction(BernoulliFunction):
    """Normalized trace of h(H_eps), H_eps = -lam*D_eps - Lap.

    A polynomial h, one with `coefficients`, takes it from the power sums
    Tr H^k while their matmuls fit POWER_SUM_BUDGET at this n; a higher
    degree and any other h take the eigenvalues of each H_eps.
    """

    def __init__(self, h: AnalyticFunction, params: ResolventParams):
        super().__init__(params.n)
        self.h = h
        self.params = params
        self._neg_lap = -params.laplacian
        matmuls = max(0, len(h.coefficients or ()) // 2 - 1)
        self._coefficients = h.coefficients if matmuls * matmuls * self.n <= POWER_SUM_BUDGET else None

    def evaluate_block(self, table: np.ndarray) -> np.ndarray:
        table = np.asarray(table)
        m = _operators(self._neg_lap, self.params.lam, table)
        self._factorizations.add(len(table))
        coeffs = self._coefficients
        if coeffs is None:
            return np.mean(self.h(np.linalg.eigvalsh(m)), axis=1)
        k, n = len(table), self.n
        rows = [power.reshape(k, n * n) for power in _power_chain(m, len(coeffs) // 2)]
        # Tr H^(a+b) = sum_ij (H^a)_ij (H^b)_ij, since H^a is symmetric; a = floor(j/2) and b = j - a
        moments = [np.full(k, float(n)), np.trace(m, axis1=1, axis2=2)]
        moments += [np.einsum("ij,ij->i", rows[j // 2 - 1], rows[j - j // 2 - 1]) for j in range(2, len(coeffs))]
        return sum(c * t for c, t in zip(coeffs, moments)) / n


def _power_chain(m: np.ndarray, top: int) -> list[np.ndarray]:
    """[m, m^2, ..., m^top] over a stack, one stacked matmul for each power past m; [m] when top < 2."""
    powers = [m]
    while len(powers) < top:
        powers.append(np.matmul(powers[-1], m))
    return powers


def _walk_sums(b: np.ndarray, weights: tuple, delta: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """(1/n) * sum_k w_k Tr b^k for each symmetric matrix b of a (k, n, n) stack and, given the (k, n)
    diagonal shifts delta, the flip half-sum -(1/2n) * sum_r sum_k w_k D_k(r), else None.

    D_k(r) = Tr(b + delta_r E_rr)^k - Tr b^k. Since -log det(I - tX) = sum_k t^k Tr X^k / k and the shift
    is rank one, sum_k t^k D_k / k = -log(1 - sum_a t^a u_a) with u_a = delta_r (b^(a-1))_rr; taking
    t d/dt gives D_k = k u_k + sum_{i<k} u_i D_{k-i}. Every diagonal (b^a)_rr, a <= deg, is a row dot
    of two powers of the chain that the spectral trace takes, so no matrix is factored.
    """
    k, n = b.shape[:2]
    degree = len(weights) - 1
    rows = [power.reshape(k * n, n) for power in _power_chain(b, len(weights) // 2)]
    # (b^a)_rr = sum_j (b^floor(a/2))_rj (b^ceil(a/2))_rj, since b^floor(a/2) is symmetric
    diagonals = [np.ones((k, n)), np.diagonal(b, axis1=1, axis2=2)]
    diagonals += [np.einsum("ij,ij->i", rows[a // 2 - 1], rows[a - a // 2 - 1]).reshape(k, n) for a in range(2, degree + 1)]
    f = sum(w * d.sum(axis=1) for w, d in zip(weights, diagonals)) / n
    if delta is None:
        return f, None
    u = [delta * d for d in diagonals[:degree]]  # u[a - 1] = u_a
    flips = []  # flips[j - 1] = D_j
    for j in range(1, degree + 1):
        flips.append(j * u[j - 1] + sum(u[i - 1] * flips[j - i - 1] for i in range(1, j)))
    g = sum((w * d for w, d in zip(weights[1:], flips)), np.zeros((k, n)))
    return f, -g.sum(axis=1) / (2 * n)


class WalkMajorantFunction(_BlockKernel):
    """Walk majorant of a polynomial h's spectral trace: (1/n) * sum_k |c_k| Tr B_eps^k, B_eps = lam*D_eps + |Lap|.

    Expanding Tr H_eps^k, H_eps = -lam*D_eps - Lap, over closed walks makes each term a weight times a
    monomial chi_S; taking every entry of H_eps by modulus (|Lap| entrywise, lam for -lam) takes each
    weight to its modulus and keeps its monomial. So every Walsh coefficient of this function is
    nonnegative and at least the modulus of the spectral trace's, exactly: it dominates
    SpectralTraceFunction(h) coefficientwise with no contour constant. Its flip half-sum comes from the
    same power chain (_walk_sums).
    """

    def __init__(self, h: AnalyticFunction, params: ResolventParams):
        super().__init__(params.n)
        self.params = params
        self._abs_lap = np.abs(params.laplacian)
        self._weights = tuple(abs(c) for c in h.coefficients)

    def _block(self, table: np.ndarray, with_g: bool) -> tuple[np.ndarray, np.ndarray | None]:
        table = np.asarray(table)
        lam = self.params.lam
        b = _operators(self._abs_lap, -lam, table)
        self._factorizations.add(len(table))
        return _walk_sums(b, self._weights, -2.0 * lam * table if with_g else None)

    @property
    def rounding_bound(self) -> float:
        """A-priori bound rho on the rounding error of one evaluation of the spectral trace f1 of h plus
        one of g2, this function's flip half-sum, at any eps, both as their kernels compute them.

        Bhat = lam*I + |Lap| bounds |H_eps| and |B_eps| entrywise at every eps, hence every power of
        either by Bhat^a, and every flipped B_eps + delta_r E_rr, |delta_r| = 2*lam, by Bhat + 2*lam E_rr.
        With gamma_N = N*u/(1 - N*u), u = 2^-53, an inner product of length m computed in any order errs
        by at most gamma_m times the one of the moduli, and gamma_a + gamma_b + gamma_a*gamma_b <=
        gamma_(a+b) (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1). So:
        assembling an operator rounds each diagonal entry once, and power a of the chain, one inner
        product of length n per entry and step, is within gamma_(1 + (a-1)(n+1)) Bhat^a. A moment
        Tr H^k, the inner product of length n*n of two chain powers, or a diagonal (B^a)_rr, one of
        length n, is then within gamma_(n*n + deg*(n+1)) of its Bhat bound, for k, a <= deg. The
        coefficients, the flip recursion (at most j roundings on a path through level j), the sums
        over k and r, the division, and the pair combiner's fsum and three roundings add at most
        (deg+1)*(deg+3) + n + 8. So N = n*n + deg*(n+1) + (deg+1)*(deg+3) + n + 8 bounds every
        path, and one f1 is within gamma_N * That, That = (1/n) * sum_k |c_k| Tr Bhat^k, one g2
        within gamma_N * Ghat, Ghat = (1/2n) * sum_r sum_k |c_k| (Tr(Bhat + 2 lam E_rr)^k - Tr Bhat^k),
        both computed by _walk_sums. rho = 2 * gamma_N * (That + Ghat): the factor 2 covers sqrt(2) for
        complex coefficients, the roundings of That and Ghat, and the radius's own final sum.
        """
        n, lam, degree = self.n, self.params.lam, len(self._weights) - 1
        count = n * n + degree * (n + 1) + (degree + 1) * (degree + 3) + n + 8
        gamma = count * 2.0**-53 / (1.0 - count * 2.0**-53)
        b_hat = _operators(self._abs_lap, -lam, np.ones((1, n)))
        with np.errstate(over="ignore", invalid="ignore"):
            f_hat, g_hat = _walk_sums(b_hat, self._weights, np.full((1, n), 2.0 * lam))
            return float(2.0 * gamma * (f_hat[0] - g_hat[0]))


def contour_norm_integral(h: AnalyticFunction, d: float, lam: float, gamma: float) -> float:
    """Scaling constant kappa = (r/2pi) * integral of |h| over |z - d| = r.

    Here r = d + lam + gamma and d is the maximum degree. Trapezoidal
    quadrature on the periodic contour, which converges spectrally for
    analytic integrands; the node count doubles until two consecutive
    levels agree to QUADRATURE_RTOL relative, else QuadratureError.
    """
    radius = d + lam + gamma

    def level(count: int) -> float:
        t = np.arange(count) * (2.0 * np.pi / count)
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.abs(h(d + radius * np.exp(1j * t)))
            integral = radius * (float(np.sum(values)) / count)
        if not np.all(np.isfinite(values)):
            raise QuadratureError(f"{h.name}: |h| is not finite on the contour: a singularity there, or overflow")
        if not math.isfinite(integral):  # |h| finite at every node, its sum not
            raise QuadratureError(f"{h.name}: the contour integral of |h| is not finite")
        return integral

    count = QUADRATURE_START_NODES
    previous = level(count)
    while count < QUADRATURE_NODE_CAP:
        count *= 2
        current = level(count)
        if abs(current - previous) <= QUADRATURE_RTOL * abs(current):
            return current
        previous = current
    raise QuadratureError(f"{h.name}: contour quadrature did not stabilize within {QUADRATURE_NODE_CAP} nodes")


class GFunction(BernoulliFunction):
    """eps -> g(eps) of a wrapped function, from its combined path. The CLI and `bench/` wrap f2 in it."""

    def __init__(self, fn: BernoulliFunction):
        super().__init__(fn.n)
        self.fn = fn

    def evaluate_block(self, table: np.ndarray) -> np.ndarray:
        return self.fn.evaluate_block_with_g(table)[1]

    @property
    def block_size(self) -> int:
        return self.fn.block_size

    @property
    def factorization_count(self) -> int:
        return self.fn.factorization_count


def dominating_resolvent_scale(h: AnalyticFunction, params: ResolventParams, graph):
    """Spectral trace of h plus a function that dominates it.

    Returns (f1, f2): f1 is the spectral trace of h, and every Walsh
    coefficient of f1 is bounded in modulus by the corresponding
    (nonnegative) coefficient of f2, which is what the dominated certificate
    requires. f2 is the WalkMajorantFunction of h when h has coefficients,
    f1 takes them as power sums (within POWER_SUM_BUDGET), and its
    `rounding_bound` for one f1 plus one g2 evaluation is at most
    NUMERICAL_SLACK, the slack the disc's radius carries: the majorant is
    tight (for h = z^2 each b_S equals |a_S|), so rounding alone could move
    the center past a radius with no such margin. Otherwise (exp:s, a degree
    past the budget, a large lam) f2 is the resolvent trace with
    scale=kappa, kappa from `contour_norm_integral` at the d of the operator,
    `params.max_degree`. A graph whose n or maximum degree is not the
    Laplacian's raises ValueError.
    """
    if (params.n, params.max_degree) != (graph.n, graph.max_degree):
        raise ValueError(f"laplacian (n={params.n}, max degree {params.max_degree:g}) does not match graph (n={graph.n}, max degree {graph.max_degree})")
    from .estimator import NUMERICAL_SLACK  # estimator imports this module

    f1 = SpectralTraceFunction(h, params)
    if f1._coefficients is not None:
        f2 = WalkMajorantFunction(h, params)
        if f2.rounding_bound <= NUMERICAL_SLACK:
            return f1, f2
    kappa = contour_norm_integral(h, params.max_degree, params.lam, params.gamma)
    return f1, ResolventTraceFunction(params, scale=kappa)
