"""Exhaustive ground truth for small dimension: exact expectations and
Walsh spectra by full enumeration over {-1,+1}^n.

Conventions, fixed so every transform is reproducible:
  * subset <-> bitmask: bit k of mask S set  <=>  coordinate k+1 in S;
  * enumeration order: sign vector number `mask` has eps_{k+1} = -1
    exactly when bit k of `mask` is set (so vector 0 is all ones). A mask
    is the pair sweep's one-word key, and estimator._every_mask evaluates
    every mask, for the oracle as for a certificate that takes the cube.

With values listed in that order, one unnormalized Walsh-Hadamard
transform maps coefficients to values, and the same transform divided
by 2^n maps values to coefficients. Coefficient 0, the mean, is instead
the pair sweep's exact estimator._weighted_sum with unit counts, by 2^-n.

`paircert oracle` and the tests use it up to n = ENUMERATION_LIMIT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import _every_mask, _weighted_sum
from .functions import BernoulliFunction

# the largest n enumerated: 2^16 evaluations, as `paircert oracle` on torus:4
ENUMERATION_LIMIT = 16


class BudgetError(ValueError):
    """Requested exhaustive computation exceeds the hard budget cap."""


@dataclass(frozen=True)
class CheckResult:
    """Verdict plus the worst offender of a coefficient check."""

    ok: bool
    mask: int
    value: float

    def subset(self) -> tuple[int, ...]:
        """Worst-offender mask decoded as 1-based coordinates."""
        return tuple(k + 1 for k in range(self.mask.bit_length()) if (self.mask >> k) & 1)


@dataclass(frozen=True)
class WalshSpectrum:
    """All 2^n Walsh coefficients of a function; index = subset bitmask.

    Coefficients are real for real-valued functions and complex
    otherwise. coefficients[0] is the expectation, exactly rounded.
    """

    n: int
    coefficients: np.ndarray

    def __post_init__(self):
        if self.coefficients.shape != (1 << self.n,):
            raise ValueError(f"need {1 << self.n} coefficients for n={self.n}, got shape {self.coefficients.shape}")
        self.coefficients.setflags(write=False)


def _fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform (involution up to 2^n)."""
    out = np.array(values)
    size = out.shape[0]
    if size & (size - 1) or size == 0:
        raise ValueError(f"transform length must be a power of two, got {size}")
    half = 1
    while half < size:
        out = out.reshape(-1, 2 * half)
        low = out[:, :half].copy()
        high = out[:, half:]
        out[:, :half] = low + high
        out[:, half:] = low - high
        out = out.reshape(-1)
        half *= 2
    return out


def _enumerate_values(fn: BernoulliFunction) -> np.ndarray:
    """fn at every sign vector, in enumeration order, within the budget."""
    n = fn.n
    total = 1 << n
    if n > ENUMERATION_LIMIT:
        raise BudgetError(f"enumeration at n={n} needs 2^{n} = {total} evaluations; the budget stops at n={ENUMERATION_LIMIT}")
    return _every_mask(fn.evaluate_block, n, threads=1, size=fn.block_size)


def _exact_mean(values: np.ndarray) -> float | complex:
    total = _weighted_sum(values, np.ones(values.shape[0], dtype=np.int64))
    shift = 1 - values.shape[0].bit_length()  # -n, as there are 2^n values
    # real and imaginary parts scaled apart: complex * float would also
    # multiply by an imaginary zero, which can flip the sign of a zero part
    if isinstance(total, complex):
        return complex(math.ldexp(total.real, shift), math.ldexp(total.imag, shift))
    return math.ldexp(total, shift)


def exact_expectation(fn: BernoulliFunction) -> float | complex:
    """E[fn] as the exactly enumerated 2^-n-weighted sum. Outside the tests only `bench/` calls it."""
    return _exact_mean(_enumerate_values(fn))


def walsh_spectrum(fn: BernoulliFunction) -> WalshSpectrum:
    """All Walsh coefficients of fn. Coefficient 0 is E[fn], exactly
    rounded as in `exact_expectation`, from the same single enumeration."""
    values = _enumerate_values(fn)
    coefficients = _fwht(values) / float(values.shape[0])
    coefficients[0] = _exact_mean(values)
    return WalshSpectrum(n=fn.n, coefficients=coefficients)


def check_nonnegative(spectrum: WalshSpectrum, tol: float) -> CheckResult:
    """True iff every coefficient is >= -tol; reports the most negative one."""
    coeffs = spectrum.coefficients
    if np.iscomplexobj(coeffs):
        raise ValueError("nonnegativity applies to real spectra only")
    worst = int(np.argmin(coeffs))
    value = float(coeffs[worst])
    return CheckResult(ok=bool(value >= -tol), mask=worst, value=value)


def check_domination(a: WalshSpectrum, b: WalshSpectrum, tol: float) -> CheckResult:
    """True iff |a_S| <= b_S + tol for every S; reports the worst excess
    |a_S| - b_S and its mask."""
    if a.n != b.n:
        raise ValueError(f"spectra have different dimensions: {a.n} vs {b.n}")
    if np.iscomplexobj(b.coefficients):
        raise ValueError("the dominating spectrum must be real")
    excess = np.abs(a.coefficients) - b.coefficients
    worst = int(np.argmax(excess))
    value = float(excess[worst])
    return CheckResult(ok=bool(value <= tol), mask=worst, value=value)
