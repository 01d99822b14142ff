"""Host speed, measured next to each timing so that the end-to-end times
can be reported at a fixed reference speed.

On a few cores of a shared host the speed of the whole machine drifts:
one spectral certificate took 0.57 s, then 0.38 s two minutes later, and
small-many's median certificate time moved by a fifth from one run to the
next. Fixed reference work slows down and speeds up with the host, so
every certificate time that `cert_s` reports is scaled to the speed at
which the reference work takes its nominal time:

    reference seconds = wall seconds * nominal / reference seconds measured

where the reference is timed right before and right after the
certificate. The reference work calls nothing in paircert, so no change
to the program moves it; a slower program still reads slower by the same
share. (run.py scales `setup_s` the same way, by a fresh interpreter that
imports numpy.)

A certificate spends its time in the interpreter,
in numpy calls on small arrays and in small dense LAPACK calls, and a
shared host slows each of these by a different share. In a period when
the wall times of six processes of small-many spread by 0.35 of their
median (interquartile range), the same certificate times spread by 0.17
scaled by the loop alone, by 0.11 scaled by the loop plus inverses and
eigensolves of one small matrix, and by 0.07 scaled by
CertificateReference, which works through pools of distinct matrices.
"""

from __future__ import annotations

import math
import time

# Iterations of the pure-Python loop: 8 to 12 ms on a 2-core Xeon VM.
LOOP_ITERATIONS = 100_000
LOOP_SUM = 199_999  # sum of i * i % 7 over the loop
# Nominal time at which reference seconds are expressed: a round figure
# within the range the reference takes on that VM, so that reference
# seconds are of the order of its wall seconds.
CERTIFICATE_NOMINAL_S = 0.045
# The certificate reference's pools: distinct SPD matrices to invert and
# symmetric matrices to solve for eigenvalues, about 2 MB together, which
# the workload process's peak_rss_mb includes. With the loop, one pass
# takes 20 to 45 ms on that VM.
INVERSE_SIZE = 16
INVERSES = 500
EIGEN_SIZE = 36
EIGENSOLVES = 100


def python_loop_s() -> float:
    """Wall time of one pass of the fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    elapsed = time.perf_counter() - start
    if total != LOOP_SUM:
        raise RuntimeError("reference loop computed a wrong sum")
    return elapsed


class CertificateReference:
    """Fixed work of the kinds a certificate does, on inputs drawn once from
    a fixed seed: the pure-Python loop, Cholesky inverses of distinct small
    SPD matrices after a sign-diagonal shift, and eigenvalues of distinct
    small symmetric matrices."""

    def __init__(self):
        import numpy as np
        from scipy.linalg import lapack

        self._np, self._lapack = np, lapack
        rng = np.random.default_rng(0)
        a = rng.standard_normal((INVERSES, INVERSE_SIZE, INVERSE_SIZE))
        self._spd = a @ a.transpose(0, 2, 1) + INVERSE_SIZE * np.eye(INVERSE_SIZE)
        self._signs = rng.choice([-1.0, 1.0], (INVERSES, INVERSE_SIZE))
        self._diag = np.diag_indices(INVERSE_SIZE)
        b = rng.standard_normal((EIGENSOLVES, EIGEN_SIZE, EIGEN_SIZE))
        self._symmetric = b + b.transpose(0, 2, 1)

    def seconds(self) -> float:
        """Wall time of one pass of the reference work."""
        np, lapack = self._np, self._lapack
        start = time.perf_counter()
        python_loop_s()
        total = 0.0
        for matrix, signs in zip(self._spd, self._signs):
            m = matrix.copy()
            m[self._diag] -= 0.5 * signs
            factor, _ = lapack.dpotrf(m, lower=1)
            inverse, _ = lapack.dpotri(factor, lower=1)
            total += float(np.trace(inverse))
        for matrix in self._symmetric:
            total += float(np.linalg.eigvalsh(matrix)[0])
        elapsed = time.perf_counter() - start
        if not math.isfinite(total):
            raise RuntimeError("reference work computed a non-finite sum")
        return elapsed


def reference_seconds(wall_s: float, before_s: float, after_s: float, nominal_s: float) -> float:
    """`wall_s` at the reference speed, from the reference times around it."""
    return wall_s * nominal_s / (0.5 * (before_s + after_s))
