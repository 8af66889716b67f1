"""Closed-form probability and density calculators, Monte-Carlo oracles for
them, and the Wieferich prime scanner.

Everything here is a calculator for an expected value, not a theorem: the
injectivity product for random maps between F_p vector spaces, the sum of
reciprocal primes against log log X, the level-raising class densities, and
the geometric multiplicity distribution.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._parallel import run_chunked
from .order_arith import Lanes
from .primes import PrimeRange, divides, prime_divisors, primes_in, require_prime  # the benchmark traces primes_in
from .report import _RECIP_BITS, CLEAR_CODE, CODES, HIT_CODE, Block, ScanReport, assemble_report

__all__ = [
    "HeuristicValue",
    "MonteCarloResult",
    "injective_probability",
    "monte_carlo_injective",
    "expected_exceptional_count",
    "scan_wieferich",
    "level_raising_densities",
    "multiplicity_distribution",
]

# Trials are consumed in fixed-size blocks, each with its own counter-based
# generator keyed by (seed, block index): results do not depend on how blocks
# are distributed across workers.
_MC_BLOCK = 1 << 14
# Trials per draw and per _rank_mod_p call in monte_carlo_injective: bounds
# the draw buffer and the elimination's working copies.
_RANK_SLICE = 1 << 12


@dataclass(frozen=True)
class HeuristicValue:
    """Exact rational with its float approximation."""

    numerator: int
    denominator: int
    approx: float = field(init=False)

    def __post_init__(self):
        if self.denominator <= 0:
            raise ValueError("denominator must be positive")
        object.__setattr__(self, "approx", self.numerator / self.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


@dataclass(frozen=True)
class MonteCarloResult:
    """successes of trials at the given seed, with the frequency and its binomial standard error."""

    trials: int
    successes: int
    seed: int
    frequency: float = field(init=False)
    std_error: float = field(init=False)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials={self.trials} must be at least 1")
        if not 0 <= self.successes <= self.trials:
            raise ValueError(f"successes={self.successes} must lie in [0, trials={self.trials}]")
        freq = self.successes / self.trials
        object.__setattr__(self, "frequency", freq)
        object.__setattr__(self, "std_error", math.sqrt(freq * (1 - freq) / self.trials))


def injective_probability(p: int, n: int, m: int) -> HeuristicValue:
    """Probability that a uniform random linear map F_p^n -> F_p^m is
    injective: the product over i < n of (1 - p^(i-m))."""
    require_prime(p)
    if n < 1 or m < n:
        raise ValueError("need 1 <= n <= m")
    prob = Fraction(1)
    for i in range(n):
        prob *= 1 - Fraction(1, p ** (m - i))
    return HeuristicValue(prob.numerator, prob.denominator)


def _block_generator(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.Philox(ss))


def _count_injective(mats: np.ndarray, p: int) -> int:
    """Number of matrices (trials, m, n) whose columns are independent mod p."""
    return int((_rank_mod_p(mats, p) == mats.shape[2]).sum())


def _rank_mod_p(mats: np.ndarray, p: int) -> np.ndarray:
    """Rank over F_p of each (m, n) matrix, m >= n as in every injectivity
    trial, of a (trials, m, n) block with entries in [0, p): fraction-free
    Gaussian elimination on all trials at once in lanes-last (m, n, lanes)
    layout.

    Column c pivots on its first nonzero row, picked by a bottom-up select:
    start from the last row and let each row above replace it, as
    prow + (row - prow) * mask, where its entry in column c is nonzero.  A
    lane has a pivot when the picked entry is nonzero, and pv = max(pivot, 1)
    is 1 in lanes with none, since entries lie in [0, p).  Every row becomes
    row*pv - row[c]*pivot_row mod p.  That zeroes the pivot row too, so it
    never pivots again.

    Products of entries stay within (p - 1)^2 and x // p * p within p(p - 1)
    in magnitude, so the lanes are the narrowest dtype holding p(p - 1): int8
    for p <= 11, int16 for p <= 181, int32 for p <= 46337, int64 for
    p <= 3037000493.  There the reduction is x - x // p * p: the same floor
    remainder as x % p, but numpy divides by a scalar with a multiply and
    shift, which it does not do for %.  Larger p use Python ints in object
    arrays, where one % is cheaper.
    """
    m, n = mats.shape[1:]
    fits = (t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= p * (p - 1))
    dtype = next(fits, object)
    a = mats.transpose(1, 2, 0).astype(dtype, order="C")
    ranks = np.zeros(len(mats), dtype=np.int64)
    for c in range(n):
        prow = a[-1, c:]
        for r in range(m - 2, -1, -1):
            prow = prow + (a[r, c:] - prow) * (a[r, c] != 0)
        ranks += prow[0] != 0
        if c == n - 1:
            break
        rest = a[:, c + 1:]
        rest *= np.maximum(prow[0], 1)
        rest -= a[:, c:c + 1] * prow[1:]
        if dtype is object:
            rest %= p
        else:
            rest -= rest // p * p
    return ranks


def monte_carlo_injective(p: int, n: int, m: int, trials: int, seed: int) -> MonteCarloResult:
    """Empirical injectivity frequency over seeded uniform matrices.

    Deterministic: the same seed gives a bit-identical result on any
    platform and partitioning.  Each block is drawn and ranked _RANK_SLICE
    trials at a time; the slices equal one draw of the whole block, since
    the block's Philox generator is one counter stream and numpy's bounded
    integers (Lemire's method) take it one value at a time.
    """
    require_prime(p)
    if p >= 1 << 63:
        raise ValueError(f"p={p} must be below 2^63 to be sampled as int64")
    if seed < 0:
        raise ValueError(f"seed={seed} must be non-negative")
    if n < 1 or m < n:
        raise ValueError("need 1 <= n <= m")
    successes = 0
    done = 0
    block = 0
    while done < trials:
        count = min(_MC_BLOCK, trials - done)
        g = _block_generator(seed, block)
        for s in range(0, count, _RANK_SLICE):
            size = (min(_RANK_SLICE, count - s), m, n)
            successes += _count_injective(g.integers(0, p, size=size, dtype=np.int64), p)
        done += count
        block += 1
    return MonteCarloResult(trials, successes, seed)


def expected_exceptional_count(x: int, power: int = 1) -> float:
    """Sum of 1/p^power over p <= x (power 1: the log log X count of
    expected exceptional primes; power >= 2: a convergent tail).

    The fixed point of a scan's expected_hits: the terms 2^60 // p^power
    summed as ints and divided once, so the error is at most pi(x) * 2^-60
    (below 5e-11 to RANGE_LIMIT).
    """
    if x < 2:
        raise ValueError("x must be at least 2")
    if power < 1:
        raise ValueError("power must be at least 1")
    return sum((1 << _RECIP_BITS) // p**power for p in primes_in(PrimeRange(2, x))) / (1 << _RECIP_BITS)


def _wieferich_lanes(base: int, p: np.ndarray) -> np.ndarray:
    """base^(p-1) mod p^2, one lane per prime of the int64 array p."""
    return Lanes(p * p).pow((base,), p - 1)[0]


def _wieferich_chunk(base: int, primes: np.ndarray) -> Block:
    """The hits among the primes of the int64 array; those dividing base are excluded."""
    tested = np.flatnonzero(~divides(base, primes))
    code = np.full(len(primes), CODES.index("divides_base"), dtype=np.int8)
    code[tested] = np.where(_wieferich_lanes(base, primes[tested]) == 1, HIT_CODE, CLEAR_CODE)
    return Block.of(primes, code, hits_only=True)


def scan_wieferich(base: int, rng: PrimeRange, workers: int = 1) -> ScanReport:
    if base < 2:
        raise ValueError("base must be at least 2")
    t0 = time.perf_counter()
    verdicts = run_chunked(_wieferich_chunk, base, rng.lo, rng.hi, workers)
    return assemble_report(
        field_id=f"wieferich(base={base})",
        mode="wieferich",
        lo=rng.lo,
        hi=rng.hi,
        verdicts=verdicts,
        wall_time=time.perf_counter() - t0,
        workers=workers,
    )


def level_raising_densities(p: int) -> dict[str, HeuristicValue]:
    """Chebotarev densities of the four level-raising prime classes for a
    residual representation with full image mod p."""
    require_prime(p)
    if p == 2:
        raise ValueError("p=2 is not odd")
    dens = {
        "i": Fraction(2 * (p - 3), (p - 1) ** 2),
        "ii": Fraction(1, (p - 1) ** 2),
        "iii": Fraction(2, p * p + p),
        "iv": Fraction(2, (p * p - 1) * (p * p - p)),
    }
    return {k: HeuristicValue(v.numerator, v.denominator) for k, v in dens.items()}


def multiplicity_distribution(k0_size: int, i: int) -> HeuristicValue:
    """Density of multiplicity exactly i: (#k0)^(1-i) * (1 - 1/#k0).

    Geometric over i >= 1, so the partial sums telescope to 1.
    """
    if not (k0_size >= 2 and len(prime_divisors(k0_size)) == 1):
        raise ValueError("k0_size must be a prime power >= 2")
    if i < 1:
        raise ValueError("i must be at least 1")
    val = Fraction(1, k0_size) ** (i - 1) * (1 - Fraction(1, k0_size))
    return HeuristicValue(val.numerator, val.denominator)
