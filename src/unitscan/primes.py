"""Prime generation and primality testing for scan ranges up to 1e9."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt
from typing import Iterator

import numpy as np

from .order_arith import residues

RANGE_LIMIT = 10**9
SEGMENT_SIZE = 1 << 20  # odd numbers, one sieve byte each, per segment of primes_in and count_primes

# Strong-pseudoprime witnesses covering every n < 2^64 (Sinclair / Sorenson-Webster set).
# They double as the trial divisors, so is_prime settles small n exactly.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def divides(c: int, primes: np.ndarray) -> np.ndarray:
    """The lanes of the ascending int64 primes dividing the int c: only p <= |c| divides c != 0, so % runs on those."""
    n = np.searchsorted(primes, min(abs(c), 1 << 62) or 1 << 62, side="right")
    return np.concatenate((residues(c, primes[:n]) == 0, np.zeros(len(primes) - n, dtype=bool)))


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
def _odd_base_primes() -> np.ndarray:
    """The odd primes up to isqrt(RANGE_LIMIT), enough to sieve any scan
    range, as int64; computed once per process, on first use."""
    return np.array(sieve_upto(isqrt(RANGE_LIMIT))[1:], dtype=np.int64)


def prime_array(lo: int, hi: int) -> np.ndarray:
    """The primes in [lo, hi] as an ascending int64 array, by one odd-only sieve
    of about (hi - lo) / 2 bytes; the first odd multiple at or above max(q^2, lo)
    of every base prime q <= isqrt(hi) is one array expression."""
    PrimeRange(lo, hi)  # the bounds check: the base primes cover RANGE_LIMIT
    start = max(lo, 3) | 1
    mark = np.ones((hi - start) // 2 + 1, dtype=bool)  # the odd numbers start, start + 2, ..., <= hi
    q = _odd_base_primes()
    q = q[: np.searchsorted(q, isqrt(hi), side="right")]
    first = np.maximum(q * q, -(-start // q) * q)
    first += q * (first % 2 == 0)
    for step, i in zip(q.tolist(), ((first - start) // 2).tolist()):
        mark[i::step] = False
    primes = 2 * np.flatnonzero(mark) + start
    return np.concatenate(([2], primes)) if lo == 2 else primes


def _segments(rng: PrimeRange) -> Iterator[np.ndarray]:
    """prime_array over rng, 2 * SEGMENT_SIZE integers at a time, so memory
    use is bounded regardless of the range."""
    span = 2 * SEGMENT_SIZE
    return (prime_array(a, min(a + span - 1, rng.hi)) for a in range(rng.lo, rng.hi + 1, span))


def primes_in(rng: PrimeRange) -> Iterator[int]:
    """Yield the primes in [rng.lo, rng.hi] in ascending order, as Python ints."""
    for primes in _segments(rng):
        yield from primes.tolist()


def count_primes(rng: PrimeRange) -> int:
    return sum(len(primes) for primes in _segments(rng))
