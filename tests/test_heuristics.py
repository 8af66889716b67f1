import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from unitscan import heuristics
from unitscan.heuristics import (
    HeuristicValue,
    MonteCarloResult,
    expected_exceptional_count,
    injective_probability,
    level_raising_densities,
    monte_carlo_injective,
    multiplicity_distribution,
    scan_wieferich,
)
from unitscan.order_arith import MULMOD_PMAX
from unitscan.primes import PrimeRange, primes_in
from unitscan.report import CLEAR, EXCLUDED, HIT, Verdict

from _blocks import (NEAR_LIMIT, STRADDLE, Family, check_scans, check_straddle, check_tiny_chunks,
                     check_workers, lane_calls)
from _oracles import exhaustive_injective_fraction, rank_mod_p

ENUMERATION_GRID = [(2, 1, 1), (2, 1, 2), (2, 2, 2), (2, 2, 3), (3, 1, 1), (3, 1, 2), (3, 2, 2)]


def test_injective_probability_examples():
    assert injective_probability(2, 1, 1).as_fraction() == Fraction(1, 2)
    assert injective_probability(3, 2, 2).as_fraction() == Fraction(16, 27)
    assert injective_probability(5, 1, 2).as_fraction() == Fraction(24, 25)


@pytest.mark.parametrize("p,n,m", ENUMERATION_GRID)
def test_injective_probability_vs_enumeration(p, n, m):
    assert injective_probability(p, n, m).as_fraction() == exhaustive_injective_fraction(p, n, m)


def test_injective_probability_validation():
    with pytest.raises(ValueError):
        injective_probability(2, 2, 1)  # n > m
    with pytest.raises(ValueError):
        injective_probability(4, 1, 1)  # not prime
    with pytest.raises(ValueError):
        injective_probability(2, 0, 1)


def test_heuristic_value_invariant():
    hv = injective_probability(3, 2, 2)
    assert hv.approx == hv.numerator / hv.denominator
    assert HeuristicValue(1, 2).approx == 0.5
    with pytest.raises(ValueError):
        HeuristicValue(1, 0)


def test_monte_carlo_determinism():
    a = monte_carlo_injective(3, 2, 2, trials=50_000, seed=42)
    b = monte_carlo_injective(3, 2, 2, trials=50_000, seed=42)
    assert a == b
    c = monte_carlo_injective(3, 2, 2, trials=50_000, seed=43)
    assert c != a


def test_monte_carlo_single_trial():
    r = monte_carlo_injective(2, 1, 1, trials=1, seed=0)
    assert r.frequency in (0.0, 1.0)
    assert r.std_error == 0.0


def test_monte_carlo_converges_smoke():
    exact = injective_probability(3, 2, 2).approx
    r = monte_carlo_injective(3, 2, 2, trials=100_000, seed=42)
    band = 4 * math.sqrt(exact * (1 - exact) / r.trials)
    assert abs(r.frequency - exact) < band
    assert r.std_error == math.sqrt(r.frequency * (1 - r.frequency) / r.trials)


def test_monte_carlo_gauss_fallback_path():
    # n = 4: the batched elimination runs all four columns, three of them
    # with a pivot-row update
    r = monte_carlo_injective(2, 4, 4, trials=2000, seed=7)
    exact = injective_probability(2, 4, 4).approx  # ~0.307
    assert abs(r.frequency - exact) < 5 * math.sqrt(exact * (1 - exact) / 2000)


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        monte_carlo_injective(3, 2, 2, trials=0, seed=1)
    with pytest.raises(ValueError):
        monte_carlo_injective(3, 3, 2, trials=10, seed=1)


@pytest.mark.parametrize("trials, successes, bad", [
    (0, 0, "trials=0"), (-3, 0, "trials=-3"), (10, 11, "successes=11"), (10, -1, "successes=-1")])
def test_monte_carlo_result_rejects_impossible_counts(trials, successes, bad):
    with pytest.raises(ValueError, match=bad):
        MonteCarloResult(trials, successes, 1)
    assert MonteCarloResult(10, 10, 1).std_error == MonteCarloResult(10, 0, 1).std_error == 0.0


def test_monte_carlo_rejects_unsampleable_p_and_negative_seed():
    # 2^63 + 29 is prime but has no int64 draw, 2^63 - 25 is the largest
    # prime that has; a negative seed has no SeedSequence
    with pytest.raises(ValueError, match="p=9223372036854775837"):
        monte_carlo_injective(9223372036854775837, 1, 1, trials=10, seed=1)
    with pytest.raises(ValueError, match="seed=-1"):
        monte_carlo_injective(3, 2, 2, trials=10, seed=-1)
    assert monte_carlo_injective(9223372036854775783, 1, 1, trials=10, seed=0).trials == 10


def test_monte_carlo_pinned_counts():
    # successes recorded from the earlier determinant branches and scalar
    # elimination; the batched kernel must reproduce them exactly
    bench = [((3, 4, 4), 10**5, 3), ((3, 2, 2), 10**6, 4), ((5, 3, 3), 10**6, 5)]
    got = [monte_carlo_injective(p, n, m, t, seed).successes for (p, n, m), t, seed in bench]
    assert got == [56435, 591943, 762153]
    cases = [(2, 4, 4), (3, 4, 4), (7, 3, 5), (2147483659, 2, 3)]
    got = [monte_carlo_injective(p, n, m, 50_000, 42).successes for p, n, m in cases]
    assert got == [15517, 28313, 49837, 50000]


# (6, 2) and (8, 3) give the pivot select a long run of rows to pass over
RANK_SHAPES = [(1, 1), (3, 1), (2, 2), (3, 2), (5, 2), (3, 3), (5, 3), (4, 4), (5, 5), (6, 2), (8, 3)]


def _structured_block(p: int, m: int, n: int, rng) -> np.ndarray:
    """Random matrices plus zero, identity, all-(p-1), repeated-column,
    proportional-column, low-rank, last-row-pivot and {0, 1, p-1} ones,
    entries in [0, p)."""
    mats = [np.zeros((m, n), dtype=object), np.eye(m, n, dtype=np.int64).astype(object)]
    mats.append(np.full((m, n), p - 1, dtype=object))
    last = rng.integers(0, p, size=(m, n), dtype=np.int64).astype(object)
    last[:-1, 0] = 0
    last[-1, 0] = int(rng.integers(1, p))
    mats.append(last)
    for _ in range(6):
        a = rng.integers(0, p, size=(m, n), dtype=np.int64).astype(object)
        mats.append(a.copy())
        a[:, -1] = a[:, 0]
        mats.append(a.copy())
        a[:, -1] = a[:, 0] * int(rng.integers(1, p)) % p
        mats.append(a.copy())
        r = int(rng.integers(0, n))
        b = rng.integers(0, p, size=(m, r), dtype=np.int64).astype(object)
        c = rng.integers(0, p, size=(r, n), dtype=np.int64).astype(object)
        mats.append(b.dot(c) % p if r else np.zeros((m, n), dtype=object))
    for _ in range(6):
        # entries 0 and +-1: row*pv - row[c]*pivot_row reaches (p - 1)^2 in magnitude before
        # the reduction, which a lane one size too narrow wraps; all-(p - 1) rows cancel to 0
        a = np.array([0, 1, p - 1], dtype=object)[rng.integers(0, 3, size=(m, n))]
        mats.append(a.copy())
        a[:, -1] = -a[:, 0] % p  # swaps 1 and p - 1: one column overflows, the other not
        mats.append(a)
    mats += list(rng.integers(0, p, size=(40, m, n), dtype=np.int64).astype(object))
    return np.array(mats, dtype=object).astype(np.int64)


@pytest.mark.parametrize(
    "p", [2, 3, 5, 11, 13, 181, 191, 46337, 46349, 1_000_003, 2**31 - 1, 2147483659, 2**32 - 5,
          3037000493, 3037000507, 2**61 - 1])
def test_rank_kernel_matches_oracle(p):
    # each pair 11, 13 / 181, 191 / 46337, 46349 / 3037000493, 3037000507
    # straddles the int8, int16, int32 and int64 lane bounds on p(p - 1),
    # which the {0, 1, p - 1} matrices reach; 3037000507 and 2^61 - 1 take
    # the object-array side
    rng = np.random.default_rng(p % 1000)
    for m, n in RANK_SHAPES:
        mats = _structured_block(p, m, n, rng)
        got = heuristics._rank_mod_p(mats, p)
        assert got.tolist() == [rank_mod_p(a.tolist(), p) for a in mats], (p, m, n)
        assert heuristics._rank_mod_p(mats[:1], p).tolist() == got[:1].tolist()


# 3 and 2^31 - 1 draw on numpy's 32-bit bounded path, 4294967311 (the first
# prime above 2^32) and 2^61 - 1 on its 64-bit path
DRAW_PRIMES = [3, 2**31 - 1, 4294967311, 2**61 - 1]


@pytest.mark.parametrize("p", DRAW_PRIMES)
def test_sliced_draws_equal_the_block_draw(p):
    sizes = [1, 2, heuristics._RANK_SLICE, 1237]
    whole = heuristics._block_generator(5, 3).integers(0, p, size=(sum(sizes), 3, 2), dtype=np.int64)
    g = heuristics._block_generator(5, 3)
    sliced = [g.integers(0, p, size=(k, 3, 2), dtype=np.int64) for k in sizes]
    assert np.array_equal(np.concatenate(sliced), whole)


@pytest.mark.parametrize(
    "p, m, n", [(3, 4, 4), (2, 5, 3), (2**31 - 1, 3, 3), (4294967311, 2, 2), (2**61 - 1, 2, 2)])
def test_rank_kernel_across_slices(p, m, n):
    # monte_carlo_injective draws and ranks a full block and a tail of two
    # full slices and a partial one, slice by slice; the oracle ranks each
    # block drawn whole
    tail = 2 * heuristics._RANK_SLICE + 37
    want = 0
    for block, count in enumerate((heuristics._MC_BLOCK, tail)):
        g = heuristics._block_generator(n, block)
        want += sum(rank_mod_p(a.tolist(), p) == n for a in g.integers(0, p, size=(count, m, n), dtype=np.int64))
    assert monte_carlo_injective(p, n, m, heuristics._MC_BLOCK + tail, n).successes == want


def test_monte_carlo_draw_memory_is_one_slice():
    # a whole 2^14-trial block of 12 x 12 int64 draws is 18.9 MB; one slice is 4.7 MB
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        monte_carlo_injective(3, 12, 12, 2**14, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 12e6, peak


@pytest.mark.parametrize("p, m, n", [(2, 3, 3), (3, 2, 2), (3, 3, 2), (2, 4, 2)])
def test_rank_kernel_exhaustive(p, m, n):
    # every matrix of the shape over F_p
    mats = np.array(list(itertools.product(range(p), repeat=m * n)), dtype=np.int64).reshape(-1, m, n)
    got = heuristics._rank_mod_p(mats, p)
    assert got.tolist() == [rank_mod_p(a.tolist(), p) for a in mats]
    assert int((got == n).sum()) == exhaustive_injective_fraction(p, n, m) * p ** (m * n)


def test_mertens_examples():
    assert expected_exceptional_count(2) == 0.5
    assert abs(expected_exceptional_count(10) - (1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)) < 1e-12
    total, loglog = expected_exceptional_count(10**6), math.log(math.log(10**6))
    assert abs(total - loglog) < 0.3  # offset is the Mertens constant ~0.2615
    assert abs(total - loglog - 0.2615) < 0.01


def test_expected_exceptional_count():
    assert expected_exceptional_count(2, 1) == 0.5
    assert expected_exceptional_count(2, 2) == 0.25
    s1 = 1 / 2 + 1 / 3 + 1 / 5 + 1 / 7
    assert abs(expected_exceptional_count(10, 1) - s1) < 1e-12
    s2 = expected_exceptional_count(10**6, 2)
    assert 0.4522 < s2 < 0.4523  # the prime zeta value at 2 to 4 digits
    with pytest.raises(ValueError):
        expected_exceptional_count(1, 1)
    with pytest.raises(ValueError):
        expected_exceptional_count(10, 0)


@pytest.mark.parametrize("x", [10**5, 10**6])
def test_expected_count_is_the_scans_fixed_point(x):
    # the same sum of 2^60 // p as a scan's expected_hits, to the last bit; 1/2 is p = 2
    assert expected_exceptional_count(x) - 0.5 == scan_wieferich(2, PrimeRange(3, x)).expected_hits


def wieferich_hits(base, rng):
    return [v.p for v in scan_wieferich(base, rng).hits]


def test_wieferich_small_ranges():
    assert wieferich_hits(2, PrimeRange(3, 1000)) == []
    assert wieferich_hits(2, PrimeRange(1000, 1200)) == [1093]
    assert wieferich_hits(2, PrimeRange(3500, 3600)) == [3511]
    # base 5 skips p = 5 without error
    assert 5 not in wieferich_hits(5, PrimeRange(3, 100))
    with pytest.raises(ValueError):
        wieferich_hits(1, PrimeRange(3, 100))


def test_wieferich_mod_p2_dependence():
    # the hit status at p depends on the base only through base mod p^2
    for p in primes_in(PrimeRange(3, 10_000)):
        for base in (2, 3, 10):
            if base % p == 0:
                continue
            direct = pow(base, p - 1, p * p) == 1
            shifted = pow(base + p * p, p - 1, p * p) == 1
            assert direct == shifted


def test_wieferich_report():
    rep = scan_wieferich(2, PrimeRange(3, 300_000))
    assert [v.p for v in rep.hits] == [1093, 3511]
    assert rep.field_id == "wieferich(base=2)"
    # 2 and 5 divide the base: excluded, not tested, out of the 168 primes to 1000
    rep = scan_wieferich(10, PrimeRange(2, 1000))
    assert rep.excluded_counts == {"divides_base": 2} and rep.tested == 166


def _wieferich_verdict(base, p):
    if base % p == 0:
        return Verdict(p, EXCLUDED, reason="divides_base")
    return Verdict(p, HIT if pow(base, p - 1, p * p) == 1 else CLEAR)


# no scan calls the builtin pow; the lane kernel sees the primes not dividing the base
# and takes one lane power per chunk, base^(p-1) mod p^2
WIEFERICH = Family(heuristics, "pow", scan_wieferich, _wieferich_verdict, 1, full_verdicts=False,
                   kernel="_wieferich_lanes")


# 1093^2 is divisible by a prime in range; 2^63 - 1 is the largest base that
# enters the lanes by one int64 %, and 2^63 + 1 (divisible by 3, 19, 43 and
# 5419) and 10^30 + 7 fit no int64: one Python % per lane
LANE_BASES = (2, 3, 5, 10, 1093**2, (1 << 63) - 1)
BIG_BASE = (1 << 63) + 1
HUGE_BASE = 10**30 + 7


def test_wieferich_lanes_match_builtin_pow():
    rng = PrimeRange(2, 200_000)
    primes = list(primes_in(rng))
    for base in LANE_BASES + (BIG_BASE,):
        want = [pow(base, p - 1, p * p) for p in primes]
        assert heuristics._wieferich_lanes(base, np.array(primes)).tolist() == want
    # one chunk, on the float-quotient path for every base
    check_scans(WIEFERICH, LANE_BASES + (BIG_BASE,), rng, ("float",))


def test_wieferich_bound_straddles_2_25():
    primes = list(primes_in(STRADDLE))
    below = [p for p in primes if p < MULMOD_PMAX]
    q = primes[-1]  # q^2 + 1 = 1 mod q^2 makes q a hit
    bases = (2, 3, 1093**2, q * q + 1)
    for base in bases:
        want = [pow(base, p - 1, p * p) for p in below]
        assert heuristics._wieferich_lanes(base, np.array(below)).tolist() == want
    assert q in [v.p for v in check_straddle(WIEFERICH, bases)[-1].hits]


def test_wieferich_near_range_limit():
    q = list(primes_in(NEAR_LIMIT))[100]
    _, _, rep, _, _ = check_scans(WIEFERICH, (2, 3, q * q + 1, BIG_BASE, HUGE_BASE), NEAR_LIMIT, ("digits",))
    assert q in [v.p for v in rep.hits]


def test_wieferich_published_hit_above_2_25():
    # 53,471,161 is a base-5 Wieferich prime: P. L. Montgomery, "New solutions
    # of a^(p-1) = 1 (mod p^2)", Math. Comp. 61 (1993)
    q = 53_471_161
    with lane_calls(WIEFERICH) as calls:
        assert wieferich_hits(5, PrimeRange(q - 5000, q + 5000)) == [q]
    assert calls["paths"] == ["digits"]  # one chunk, on base-p digits


@pytest.mark.parametrize("base, hits", [(3, [11, 1_006_003]), (7, [5, 491_531]), (13, [2, 863, 1_747_591])])
def test_wieferich_published_primes_to_2e6(base, hits):
    # the base-3, 7 and 13 Wieferich primes to 2e6 (Montgomery, Math. Comp. 61, 1993): the
    # leading table of each base's power ends at a different exact power (3^39, 7^22, 13^17);
    # alone, the hits below 2^12.5 (11 to base 3, 5 to base 7, 2 and 863 to base 13) have
    # their p^2 below 2^25, where dot takes plain int64 products and pow takes the same mulmod
    assert wieferich_hits(base, PrimeRange(2, 2_000_000)) == hits
    small = np.array([p for p in hits if p * p < MULMOD_PMAX])
    assert heuristics._wieferich_lanes(base, small).tolist() == [1] * len(small)


@pytest.mark.parametrize("span", [1, 2, 7])
def test_wieferich_tiny_chunks(span):
    # base 5 is a hit at p = 2 (5 = 1 mod 4), base 3 at p = 11
    check_tiny_chunks(WIEFERICH, (2,), PrimeRange(1000, 1200), (span,))
    check_tiny_chunks(WIEFERICH, (5, 3), PrimeRange(2, 300), (span,))


def test_wieferich_parallel_determinism(chunk_counts):
    # 1 + (q r)^2 hits at q and r either side of the 2^18 cut: the chunks' hits keep their order
    q, r = 262_139, 262_147
    check_workers(WIEFERICH, 2, chunk_counts)
    assert {q, r} <= {v.p for v in check_workers(WIEFERICH, 1 + (q * r) ** 2, chunk_counts).hits}


def test_densities_examples():
    d3 = level_raising_densities(3)
    assert d3["i"].as_fraction() == 0  # empty class at p = 3
    d5 = level_raising_densities(5)
    assert d5["i"].as_fraction() == Fraction(1, 4)
    d11 = level_raising_densities(11)
    assert d11["iii"].as_fraction() == Fraction(1, 66)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_densities_bounds(p):
    dens = level_raising_densities(p)
    total = sum(v.as_fraction() for v in dens.values())
    assert total <= 1
    for v in dens.values():
        assert 0 <= v.as_fraction() < 1


def test_densities_validation():
    with pytest.raises(ValueError):
        level_raising_densities(2)
    with pytest.raises(ValueError):
        level_raising_densities(9)


def test_multiplicity_examples():
    assert multiplicity_distribution(3, 1).as_fraction() == Fraction(2, 3)
    assert multiplicity_distribution(3, 3).as_fraction() == Fraction(2, 27)
    assert multiplicity_distribution(11, 1).as_fraction() == Fraction(10, 11)
    assert 1 - multiplicity_distribution(11, 1).as_fraction() == Fraction(1, 11)


def test_multiplicity_telescopes():
    for k0 in (2, 3, 9, 11):
        partial = Fraction(0)
        prev = Fraction(0)
        for i in range(1, 51):
            partial += multiplicity_distribution(k0, i).as_fraction()
            assert partial > prev
            prev = partial
        assert partial <= 1
        assert abs(float(partial) - 1.0) < 1e-12


def test_multiplicity_validation():
    with pytest.raises(ValueError):
        multiplicity_distribution(6, 1)  # 6 is not a prime power
    with pytest.raises(ValueError):
        multiplicity_distribution(1, 1)
    with pytest.raises(ValueError):
        multiplicity_distribution(3, 0)
    assert multiplicity_distribution(4, 2).as_fraction() == Fraction(3, 16)
    assert multiplicity_distribution(9, 1).as_fraction() == Fraction(8, 9)
