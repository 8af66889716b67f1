"""Prime generation and primality testing for scan ranges up to 1e9."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt
from typing import Iterator

import numpy as np

RANGE_LIMIT = 10**9

# Strong-pseudoprime witnesses covering every n < 2^64 (Sinclair / Sorenson-Webster set).
# They double as the trial divisors, so is_prime settles small n exactly.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_YIELD_SLICE = 1 << 15


def is_prime(n: int) -> bool:
    """Deterministic primality test, correct for all n < 2^64."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """The per-prime API's argument check: ValueError naming p unless it is prime."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")


def prime_divisors(n: int) -> frozenset[int]:
    """The primes dividing n, by trial division: for small |n| such as
    field discriminants and coefficient-field sizes."""
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.add(n)
    return frozenset(out)


@dataclass(frozen=True)
class PrimeRange:
    """Inclusive scan bounds [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 2:
            raise ValueError(f"range must start at 2 or above, got {self.lo}")
        if self.hi < self.lo:
            raise ValueError(f"empty range: lo={self.lo} > hi={self.hi}")
        if self.hi > RANGE_LIMIT:
            raise ValueError(f"hi={self.hi} exceeds the {RANGE_LIMIT} scan budget")


def sieve_upto(n: int) -> list[int]:
    """All primes <= n by a plain sieve; intended for small n (base primes)."""
    if n < 2:
        return []
    mark = bytearray([1]) * (n + 1)
    mark[0] = mark[1] = 0
    for i in range(2, isqrt(n) + 1):
        if mark[i]:
            mark[i * i :: i] = bytearray((n - i * i) // i + 1)
    return [i for i in range(2, n + 1) if mark[i]]


@cache
def _odd_base_primes() -> tuple[int, ...]:
    """The odd primes up to isqrt(RANGE_LIMIT), enough to sieve any scan
    range; computed once per process, on first use."""
    return tuple(sieve_upto(isqrt(RANGE_LIMIT))[1:])


def primes_in(rng: PrimeRange, segment_size: int = 1 << 20) -> Iterator[int]:
    """Yield the primes in [rng.lo, rng.hi] in ascending order.

    Segmented odd-only sieve on a numpy mask of segment_size bytes, so memory
    use is bounded regardless of the range and ranges up to the budget stream.
    """
    if segment_size < 8:
        raise ValueError("segment_size too small")
    lo, hi = rng.lo, rng.hi
    if lo <= 2 <= hi:
        yield 2
    start = max(lo, 3) | 1
    last = hi if hi % 2 else hi - 1  # the largest odd number in range
    span = 2 * segment_size  # integers covered per segment
    for seg_lo in range(start, last + 1, span):
        seg_hi = min(seg_lo + span - 2, last)
        n_odds = (seg_hi - seg_lo) // 2 + 1
        mark = np.ones(n_odds, dtype=bool)
        for q in _odd_base_primes():  # the q * q > seg_hi break ends the walk
            q2 = q * q
            if q2 > seg_hi:
                break
            first = max(q2, ((seg_lo + q - 1) // q) * q)
            if first % 2 == 0:
                first += q
            mark[(first - seg_lo) // 2 :: q] = False
        # Python ints (callers square p), converted a bounded slice at a time
        for i in range(0, n_odds, _YIELD_SLICE):
            yield from (2 * np.flatnonzero(mark[i : i + _YIELD_SLICE]) + (seg_lo + 2 * i)).tolist()


def count_primes(rng: PrimeRange, segment_size: int = 1 << 20) -> int:
    return sum(1 for _ in primes_in(rng, segment_size))
