"""Pair-product averages and deterministic enclosure certificates.

For p sample vectors X^(1)..X^(p) the pair-product average of f is

    F = (1/p^2) * sum_{i,j} f(X^(i) o X^(j))      (o = entrywise product)

with the diagonal contributing p copies of f(1,...,1). When every Walsh
coefficient of f is nonnegative, F overestimates E[f] and the same
average G of the flip half-sum g bounds the excess:

    0 <= F - E[f] <= G        (holds for every realization, not just on average)

so [F - G, F] encloses E[f] deterministically. E[G] = g(1,...,1)/p, which
prices the expected interval width before sampling, and Markov gives
width <= 10*g(1,...,1)/p with probability >= 0.9.

When f itself may have signed or complex coefficients but a second
function g2 with nonnegative coefficients dominates it coefficientwise,
|F_1 - E[f_1]| <= G_2 realizationwise: a disk certificate. F_1 and G_2
average over the same pairs, so one sweep evaluates f1 and g2 on each block.

F and G depend on the pair products only as a multiset, and when
p(p-1)/2 exceeds 2^n it repeats rows. Each row is keyed by its -1
entries (sampling.pack_keys), so all-ones is key 0; it and each distinct
pair product are evaluated once, in chunks of the swept functions' block
size, by the evaluator that also enumerates the oracle's 2^n keys, and
each value is weighted by its count. That size
is `BernoulliFunction.block_size`: block_rows(n) for a stacked (k, n, n)
kernel, and more rows for the resolvent's elimination tree, whose cost is
mostly fixed work per block; a disc takes the smaller of its two.

At n <= ELIMINATION_LIMIT an interval whose distinct keys reach
CUBE_SHARE * 2^n takes the cube instead: f alone at all 2^n masks, the
oracle's own pass, and each key's g read off those values as the flip
half-sum, summed in naive_g's order. Every flipped neighbour is a mask,
and an f-only row costs a fraction of an (f, g) row, whose g takes
Takahashi's recurrence over the row's pivots. Since f has each row's own
bits, g is then naive_g's bit for bit, and the rule depends on (n, keys)
alone, so the path does not depend on the thread count. The sweep counts
the rows it evaluates, the distinct keys or the 2^n masks: that is its
factorization counter.

A value's bits do not depend on its chunk. Each count is split
into its binary digits, and math.fsum sums the terms v * 2^k, one per set
digit k: scaling by a power of two is exact, so these terms have the exact
sum of every pair's value, and fsum returns that sum exactly rounded. The weighted sums
are therefore those over every pair bit for bit, and certificates are
byte-stable under any evaluation order, thread count, or chunking. The
oracle's mean is this one exact reduction, _weighted_sum, with unit counts.

A small additive slack (NUMERICAL_SLACK) widens every reported interval
to absorb floating-point error in the evaluations themselves; the
algebraic inequalities above are exact only in real arithmetic.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .functions import ELIMINATION_LIMIT, BernoulliFunction, FactorizationError
from .sampling import pack_keys, sample, unpack_keys

SCHEMA_VERSION = 1
NUMERICAL_SLACK = 1e-8


@dataclass(frozen=True)
class EvalCounters:
    """Cost accounting: evaluations, the p(p-1)/2 + 1 rows the certificate
    averages (the pairs and all-ones), and factorizations, one per function
    swept for each row the pair sweep evaluates: each distinct key, that is
    all-ones and the distinct pair products, all-ones once even where it is
    also a pair product, or each of the 2^n masks where an interval takes the
    cube. Both follow from the inputs, so equal runs give equal counters. Wall time
    is the caller's to take; the JSON keeps `wall_ms` as null, as schema 1
    requires."""

    evaluations: int
    factorizations: int

    def to_json_dict(self) -> dict:
        return {"evaluations": self.evaluations, "factorizations": self.factorizations, "wall_ms": None}


@dataclass(frozen=True)
class Certificate:
    """Two-sided enclosure E[f] in [lower, upper] for a coefficientwise nonnegative f.
    It stores what its sweep measured; the bounds and widths are properties of that."""

    f_bar: float
    g_bar: float
    p: int
    seed: int
    g_at_ones: float
    c_bound: float | None
    counters: EvalCounters

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be positive, got {self.p}")

    @property
    def lower(self) -> float:
        return self.f_bar - self.g_bar - NUMERICAL_SLACK

    @property
    def upper(self) -> float:
        return self.f_bar + NUMERICAL_SLACK

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def markov_90_width(self) -> float:
        return 10.0 * (self.g_at_ones / self.p)

    @property
    def expected_width(self) -> float:
        # derived from markov_90_width by division so the 10x relation holds
        # exactly in floating point, not only symbolically.
        return self.markov_90_width / 10.0

    @property
    def realized_within_markov(self) -> bool:
        return bool(self.g_bar <= self.markov_90_width)

    @property
    def c_markov_width(self) -> float | None:
        return None if self.c_bound is None else markov_apriori(self.c_bound, self.p)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "f_bar": self.f_bar,
            "g_bar": self.g_bar,
            "lower": self.lower,
            "upper": self.upper,
            "p": self.p,
            "seed": self.seed,
            "g_at_ones": self.g_at_ones,
            "expected_width": self.expected_width,
            "markov_90_width": self.markov_90_width,
            "realized_within_markov": self.realized_within_markov,
            "c_bound": self.c_bound,
            "c_markov_width": self.c_markov_width,
            "counters": self.counters.to_json_dict(),
        }


@dataclass(frozen=True)
class DominatedCertificate:
    """Disk enclosure |E[f1] - center| <= radius for a dominated f1."""

    center: complex
    radius: float
    p: int
    seed: int
    counters: EvalCounters

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError(f"radius must be nonnegative, got {self.radius}")
        if self.p < 1:
            raise ValueError(f"p must be positive, got {self.p}")

    def to_json_dict(self) -> dict:
        center = complex(self.center)
        return {
            "schema_version": SCHEMA_VERSION,
            "center_re": center.real,
            "center_im": center.imag,
            "radius": self.radius,
            "p": self.p,
            "seed": self.seed,
            "counters": self.counters.to_json_dict(),
        }


def _weighted_sum(values: np.ndarray, counts: np.ndarray):
    """Exactly rounded sum of counts[i] copies of values[i]: math.fsum of one
    term values[i] * 2^k for each binary digit k set in counts[i], O(len(values)
    * log(max count)) terms whose exact sum is that of the copies. A complex
    value's parts are scaled apart, since a complex-by-real product can flip
    the sign of a zero part. A term that overflows raises OverflowError, as
    fsum does when a running sum overflows; with values of one sign both raise
    exactly when the weighted sum leaves the float range."""
    if np.iscomplexobj(values):
        return complex(_weighted_sum(values.real, counts), _weighted_sum(values.imag, counts))
    index, digit = np.nonzero(counts[:, None] >> np.arange(int(counts.max(initial=0)).bit_length()) & 1)
    with np.errstate(over="ignore"):
        terms = np.ldexp(values[index], digit)
    if (np.isinf(terms) > np.isinf(values[index])).any():
        raise OverflowError("intermediate overflow in fsum")
    # the same floats in the same order: fsum reads them faster as Python floats, and a memoryview makes
    # each one as it is read, where terms.tolist() would hold all of them at once
    return math.fsum(memoryview(terms))


# pair-product keys held between merges into the distinct set: the key memory stays within
# the distinct pair products, +1 for key 0, plus this buffer at any p
KEY_BUFFER = 1 << 16


def _pair_multiset(signs: np.ndarray):
    """The multiset of pair products X_i o X_j, i < j, of a (p, n) sign table:
    its distinct rows as 1-D keys (sampling.pack_keys), and how often each
    occurs. All-ones is key 0, which the distinct set starts with at count 0.
    The keys are formed row by row of the pair triangle, as XORs of the rows'
    words, and once KEY_BUFFER of them are pending they are counted. Where
    the pairs are at least the 2^n masks, at n <= ELIMINATION_LIMIT (a
    tally of at most 512 KiB), np.bincount adds them to a tally of the
    masks, with no sort. Else np.unique reduces them to distinct keys with
    counts, and a stable sort merges those into the distinct set. The keys
    come out distinct and strictly increasing in their items' order (uint64
    words when n <= 64, else bytes), key 0 first.
    """
    p, n = signs.shape
    rows = pack_keys(signs)
    words = rows.view("<u8").reshape(p, -1)
    tally = np.zeros(2**n, dtype=np.int64) if n <= ELIMINATION_LIMIT and p * (p - 1) // 2 >= 2**n else None
    keys, counts = np.zeros(1, dtype=rows.dtype), np.zeros(1, dtype=np.int64)
    pending, held = [], 0
    for i in range(p - 1):
        pending.append(words[i] ^ words[i + 1:])
        held += p - 1 - i
        if held >= KEY_BUFFER or i == p - 2:
            fresh = np.concatenate(pending).view(rows.dtype)[:, 0]
            pending, held = [], 0
            if tally is not None:
                tally += np.bincount(fresh.view(np.int64), minlength=len(tally))
                continue
            fresh, fresh_counts = np.unique(fresh, return_counts=True)
            keys, counts = np.concatenate([keys, fresh]), np.concatenate([counts, fresh_counts])
            order = np.argsort(keys, kind="stable")  # equal keys become adjacent
            keys, counts = keys[order], counts[order]
            starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
            keys, counts = keys[starts], np.add.reduceat(counts, starts)
    if tally is not None:
        keys = np.flatnonzero(np.r_[True, tally[1:] > 0]).astype(rows.dtype)
        counts = tally[keys]
    return keys, counts


def _evaluate_keys(evaluate_block, keys: np.ndarray, n: int, threads: int, size: int):
    """Per-component arrays, in key order, of evaluate_block(table) -> tuple of
    arrays over the sign vectors of 1-D keys packed as by sampling.pack_keys.
    Chunk k of `size` keys, the swept functions' block size, unpacked to int8
    signs, goes to thread k mod threads: the calling thread sweeps its own
    share and the pool the others, so a call submits at most threads - 1
    tasks, and none at threads=1.
    """
    chunks = -(-len(keys) // size)

    def sweep(first):
        return [evaluate_block(unpack_keys(keys[k * size:(k + 1) * size], n)) for k in range(first, chunks, threads)]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        others = [pool.submit(sweep, t) for t in range(1, min(threads, chunks))]
        swept = [sweep(0)] + [job.result() for job in others]
    return tuple(np.concatenate(parts) for parts in zip(*(swept[k % threads][k // threads] for k in range(chunks))))


# A certificate at n <= ELIMINATION_LIMIT takes f at every mask of the cube, and each key's g from it,
# once its distinct keys reach CUBE_SHARE * 2^n (_takes_cube). At one BLAS thread the cube measured
# faster from 16 keys at n = 9, about 271 at n = 12 and between 3,889 and 4,314 at n = 16 (4,096 here,
# one tree block, so a sweep short of the cube at n = 16 never reaches a second thread).
CUBE_SHARE = 1 / 16


def _takes_cube(n: int, keys: int) -> bool:
    """Whether a certificate sweep over `keys` distinct keys at dimension n takes the cube: a rule on
    (n, keys) alone, so the path, and with it every bit, is the same at any thread count."""
    return n <= ELIMINATION_LIMIT and keys >= CUBE_SHARE * 2**n


def _every_mask(evaluate_block, n: int, threads: int, size: int) -> np.ndarray:
    """evaluate_block(table) -> array at every sign vector of dimension n, in mask order (the one-word
    keys of sampling.pack_keys), in chunks of `size` dealt to `threads` by _evaluate_keys."""
    return _evaluate_keys(lambda table: (evaluate_block(table),), np.arange(2**n, dtype="<u8"), n, threads, size)[0]


def _flip_half_sums(f: np.ndarray, keys: np.ndarray, n: int) -> np.ndarray:
    """g(key) = 1/2 * sum_r (f(key) - f(key ^ 2^r)) at each one-word key, from f at every mask. The
    terms are summed r = 0..n-1 as naive_g sums them, so where f holds the bits of one-row calls, as a
    split-invariant evaluator's do, each g is naive_g's bit for bit."""
    at = f[keys]
    acc = np.zeros(len(keys), dtype=np.result_type(at, 0.0))
    for r in range(n):
        acc += at - f[keys ^ np.uint64(1 << r)]
    return 0.5 * acc


def _pair_sweep(evaluate_block, signs: np.ndarray, swept: int, threads: int, size: int, names=("f", "g"), f_only=None):
    """Per-component pair-product averages of evaluate_block(table) -> tuple
    of arrays over the rows of a (p, n) sign table, the values at all-ones,
    and the counters of a sweep that takes `swept` functions on each row.

    Each key of _pair_multiset, all-ones first, is evaluated once, in
    blocks of `size` (_evaluate_keys), and weighted by its count
    (_weighted_sum), so each average is bit for bit the one over every
    pair. Given `f_only`, an f-only block evaluator whose flip half-sum is
    the second component, a key set that takes the cube (_takes_cube)
    instead evaluates f_only at all 2^n masks (_every_mask) and reads
    each key's (f, g) off them (_flip_half_sums). The sweep counts the
    p(p-1)/2 + 1 evaluations the certificate averages and one
    factorization per function swept for each row it evaluates: each
    distinct key, or each mask of the cube. A weighted sum that leaves
    the float range raises OverflowError naming its component, from
    `names`, and p.
    """
    p, n = signs.shape
    keys, counts = _pair_multiset(signs)
    if f_only is not None and _takes_cube(n, len(keys)):
        f = _every_mask(f_only, n, threads, size)
        values, rows = (f[keys], _flip_half_sums(f, keys, n)), len(f)
    else:
        values, rows = _evaluate_keys(evaluate_block, keys, n, threads, size), len(keys)
    ones = tuple(v[0].item() for v in values)
    square = float(p) * float(p)

    def average(v, one, name):
        try:
            return (p * one + 2.0 * _weighted_sum(v, counts)) / square
        except OverflowError:
            raise OverflowError(f"the pair sum of {name} over p={p} samples leaves the float range") from None

    averages = tuple(average(v, one, name) for v, one, name in zip(values, ones, names, strict=True))
    return averages, ones, EvalCounters(evaluations=p * (p - 1) // 2 + 1, factorizations=rows * swept)


def markov_apriori(c: float, p: int) -> float:
    """Width bound 10c/(2p) that holds with probability >= 0.9 before sampling."""
    if c < 0:
        raise ValueError(f"bounded-difference constant must be nonnegative, got {c}")
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    return (10.0 * c) / (2.0 * p)


def choose_p(lam: float, gamma: float, delta: float) -> int:
    """Smallest p whose a-priori 90% Markov width 10c/(2p), c = 2*lam/gamma^2
    (markov_apriori; a resolvent certificate's c_markov_width), is below delta: the
    least integer above 10*lam/(gamma^2*delta). That bounds the expected width by
    about delta/10 a priori. The cost of that p is the caller's to weigh.
    """
    for name, value in (("lam", lam), ("gamma", gamma), ("delta", delta)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    denominator = gamma * gamma * delta
    if 0.0 < denominator < math.inf:
        quotient = 10.0 * lam / denominator
    else:  # gamma^2 left the float range on the way; this order keeps p where the form above is finite
        scale = gamma * delta
        quotient = 10.0 * lam / gamma / scale if scale > 0.0 else math.inf
    if not math.isfinite(quotient):
        raise ValueError(f"delta={delta} is too small for lam={lam}, gamma={gamma}: 10*lam/(gamma^2*delta) must be finite")
    return math.floor(quotient) + 1


def certify(fn: BernoulliFunction, p: int, seed: int, threads: int = 1) -> Certificate:
    """Sample p sign vectors from seed and certify E[fn] in [lower, upper].

    The certificate keeps the sweep's sums and fn's bounded-difference constant.
    Raises FactorizationError when the computed interval is empty.

    Requires every Walsh coefficient of fn to be nonnegative; this is not
    checked here (it is a structural property of the function; see the
    oracle module for small-n verification).
    """
    (f_bar, g_bar), (_, g_one), counters = _pair_sweep(fn.evaluate_block_with_g, sample(p, fn.n, seed), 1, threads, fn.block_size, f_only=fn.evaluate_block)
    cert = Certificate(f_bar=f_bar, g_bar=g_bar, p=p, seed=seed, g_at_ones=g_one, c_bound=fn.bounded_difference_constant, counters=counters)
    if not cert.lower <= cert.upper:
        raise FactorizationError(f"numerical breakdown: g_bar={g_bar!r} leaves the empty interval [{cert.lower!r}, {cert.upper!r}]")
    return cert


def certify_dominated(f1: BernoulliFunction, g2: BernoulliFunction, p: int, seed: int, threads: int = 1) -> DominatedCertificate:
    """Disk certificate for E[f1] using a coefficientwise dominating g2.

    g2 must be the flip half-sum of a nonnegative-coefficient function
    whose Walsh coefficients dominate |a_S(f1)| entrywise. One sweep takes
    f1 and g2 on each block of pair products, so both averages come from the
    same sample set and one seed fixes the whole certificate.
    """
    if g2.n != f1.n:
        raise ValueError(f"g2 dimension {g2.n} does not match f1 dimension {f1.n}")
    (center, radius), _, counters = _pair_sweep(lambda table: (f1.evaluate_block(table), g2.evaluate_block(table)), sample(p, f1.n, seed), 2, threads, min(f1.block_size, g2.block_size), ("f1", "g2"))
    radius = float(radius) + NUMERICAL_SLACK
    if not radius >= 0.0:
        raise FactorizationError(f"numerical breakdown: the computed radius {radius!r} is negative")
    return DominatedCertificate(center=center, radius=radius, p=p, seed=seed, counters=counters)
