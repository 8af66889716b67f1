import numpy as np
import pytest

from unitscan import primes as primes_mod
from unitscan.cubic import z_value
from unitscan.heuristics import injective_probability, level_raising_densities, monte_carlo_injective
from unitscan.primes import (PrimeRange, count_primes, divides, is_prime, prime_array, primes_in, require_prime,
                             sieve_upto)
from unitscan.quadratic import quad_unit_test

from _oracles import trial_division_primes


def test_small_ranges():
    assert list(primes_in(PrimeRange(2, 20))) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert list(primes_in(PrimeRange(9, 10))) == []
    assert list(primes_in(PrimeRange(2, 2))) == [2]
    assert list(primes_in(PrimeRange(3, 3))) == [3]


def test_sieve_matches_trial_division(monkeypatch):
    monkeypatch.setattr(primes_mod, "SEGMENT_SIZE", 1 << 12)
    assert list(primes_in(PrimeRange(2, 100_000))) == trial_division_primes(2, 100_000)


def test_sieve_interior_range():
    got = list(primes_in(PrimeRange(10_000, 10_200)))
    assert got == trial_division_primes(10_000, 10_200)


def test_segment_size_independence(monkeypatch):
    for rng in (PrimeRange(2, 300_000), PrimeRange(1001, 150_000)):
        monkeypatch.setattr(primes_mod, "SEGMENT_SIZE", 1 << 10)
        a = list(primes_in(rng))
        for segment_size in (8, 9, 1000, 1 << 18):
            monkeypatch.setattr(primes_mod, "SEGMENT_SIZE", segment_size)
            assert list(primes_in(rng)) == a, (rng, segment_size)
            assert count_primes(rng) == len(a), (rng, segment_size)


Q = 31_607  # the largest base prime: Q * Q <= RANGE_LIMIT
PRIME_ARRAY_WINDOWS = [
    (2, 3000), (3, 3000), (4, 3000), (2, 2), (3, 3), (2, 3),
    (9, 10), (4, 4),  # empty
    (2, 9), (2, 8), (9, 9), (Q * Q - 3000, Q * Q), (Q * Q - 3000, Q * Q - 1), (Q * Q, Q * Q + 3000),
    (2**18 - 3000, 2**18 + 3000), (2**25 - 3000, 2**25 + 3000),
    (10**9 - 20_000, 10**9),
]


@pytest.mark.parametrize("lo, hi", PRIME_ARRAY_WINDOWS)
def test_prime_array_matches_is_prime(lo, hi):
    # hi = q^2 and q^2 - 1 take the isqrt(hi) cut-off of the base primes both ways
    got = prime_array(lo, hi)
    assert got.dtype == np.int64
    assert got.tolist() == [n for n in range(lo, hi + 1) if is_prime(n)]


@pytest.mark.parametrize("segment_size", [8, 64, 1 << 20])
def test_sieve_matches_sieve_upto_across_segments(monkeypatch, segment_size):
    # each range covers two segment boundaries, from an even and an odd start
    monkeypatch.setattr(primes_mod, "SEGMENT_SIZE", segment_size)
    span = 2 * segment_size
    for lo in (2, span - 5, span - 4):
        hi = lo + 2 * span + 11
        got = list(primes_in(PrimeRange(lo, hi)))
        assert got == [q for q in sieve_upto(hi) if q >= lo], (lo, hi)
        assert all(type(q) is int for q in got)


def test_sieve_edge_ranges():
    assert list(primes_in(PrimeRange(2, 2))) == sieve_upto(2)
    assert list(primes_in(PrimeRange(4, 4))) == []
    lo, hi = 10**9 - 10**5, 10**9
    got = list(primes_in(PrimeRange(lo, hi)))
    assert got == [n for n in range(lo, hi + 1) if is_prime(n)]
    assert all(type(q) is int for q in got)


@pytest.mark.parametrize("c", [0, 1, -1, 6, -35, 997, 1000, 3 * 7919, (1 << 63) - 1, (1 << 63) + 1, 3 << 70])
def test_divides_matches_python_modulo(c):
    # the % runs only on the primes up to |c|; 0 is divisible by all, and |c| past 2^63 takes Python ints
    for primes in (prime_array(2, 10_000), prime_array(9_000, 9_100), prime_array(2, 2)[:0]):
        assert divides(c, primes).tolist() == [c % p == 0 for p in primes.tolist()], c


def test_prime_counting():
    assert count_primes(PrimeRange(2, 10**6)) == 78498


def test_is_prime_examples():
    assert is_prime(1093)
    assert is_prime(3511)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2)


@pytest.mark.parametrize("p", [1, 4, 9, 15, 25])
def test_per_prime_api_names_a_p_that_is_not_prime(p, quad_records, cubic_records):
    # one check, one message, at every entry point that takes a prime
    calls = [require_prime, lambda p: quad_unit_test(quad_records[2], p),
             lambda p: z_value(cubic_records[-23], p), lambda p: injective_probability(p, 1, 1),
             lambda p: monte_carlo_injective(p, 1, 1, 10, 0), level_raising_densities]
    for call in calls:
        with pytest.raises(ValueError, match=f"^p={p} is not prime$"):
            call(p)
    assert require_prime(1093) is None


def test_is_prime_vs_trial_division():
    small = set(trial_division_primes(2, 5000))
    for n in range(5001):
        assert is_prime(n) == (n in small)


def test_is_prime_large_and_pseudoprimes():
    # strong pseudoprimes to small bases must still be rejected
    assert not is_prime(3215031751)  # spsp to 2, 3, 5, 7
    assert not is_prime(3825123056546413051)  # spsp to 2..23
    assert is_prime(2**61 - 1)
    assert is_prime(18446744073709551557)  # largest prime below 2^64
    assert not is_prime(2**61 + 1)


def test_range_validation():
    with pytest.raises(ValueError):
        PrimeRange(1, 10)
    with pytest.raises(ValueError):
        PrimeRange(10, 9)
    with pytest.raises(ValueError):
        PrimeRange(2, 10**9 + 1)


def test_sieve_upto():
    assert sieve_upto(1) == []
    assert sieve_upto(2) == [2]
    assert sieve_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_base_primes_sieved_once_per_process(monkeypatch, quad_records):
    # many chunks, small and near the range limit, share one base-prime sieve
    from unitscan.quadratic import scan_quadratic

    calls = []

    def counted(n):
        calls.append(n)
        return sieve_upto(n)

    monkeypatch.setattr(primes_mod, "sieve_upto", counted)
    monkeypatch.setattr(primes_mod, "SEGMENT_SIZE", 1 << 10)
    primes_mod._odd_base_primes.cache_clear()
    try:
        rep = scan_quadratic(quad_records[2], PrimeRange(3, 500_000))  # 2 chunks
        lo = 10**9 - 2**16 + 1
        top = list(primes_in(PrimeRange(lo, 10**9)))  # 32 segments
    finally:
        primes_mod._odd_base_primes.cache_clear()
    assert calls == [31_622]
    assert [v.p for v in rep.hits] == [13, 31]
    assert top == [n for n in range(lo, 10**9 + 1) if is_prime(n)]
