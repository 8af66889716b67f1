import concurrent.futures
import inspect
import multiprocessing
import os
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np
import pytest

from unitscan import _parallel, quadratic
from unitscan._data import DataFileError
from unitscan._parallel import run_chunked
from unitscan.cubic import MODE_ORDINARY, scan_cubic
from unitscan.heuristics import scan_wieferich
from unitscan.primes import PrimeRange, primes_in
from unitscan.quadratic import (
    QuadFieldRecord,
    QuadUnit,
    classify_quad_prime,
    fundamental_unit_quadratic,
    is_squarefree,
    load_quad_fields,
    order_spec_for,
    quad_unit_test,
    scan_quadratic,
    unit_norm,
    _quad_chunk,
)
from unitscan.order_arith import MULMOD_PMAX, frobenius_quotient, mul2, poly_discriminant, poly_pow
from unitscan.report import EXCLUDED, HIT, HIT_CODE, Block, Verdict

from _blocks import (NEAR_LIMIT, Family, assert_same_report, check_scans, check_straddle, check_tiny_chunks,
                     check_workers)
from _oracles import narrow_class_number_bqf, quad_frobenius_naive, quad_hit_naive, quad_unit_exhaustive

SQUAREFREE_TO_30 = [d for d in range(2, 31) if is_squarefree(d)]

# one lane power per chunk: eps^p mod p^2
QUAD = Family(quadratic, "classify_quad_prime", partial(scan_quadratic, full_verdicts=True), classify_quad_prime, 1)


def test_unit_examples():
    for d, a, b, sign in ((2, 1, 1, -1), (5, 0, 1, -1), (29, 2, 1, -1), (3, 2, 1, 1)):
        assert fundamental_unit_quadratic(d) == QuadUnit(a, b)
        assert unit_norm(d, a, b) == sign


def test_unit_validation_errors():
    with pytest.raises(ValueError):
        fundamental_unit_quadratic(1)
    with pytest.raises(ValueError):
        fundamental_unit_quadratic(12)  # not squarefree


@pytest.mark.parametrize("d", SQUAREFREE_TO_30)
def test_units_match_exhaustive_search(d):
    u = fundamental_unit_quadratic(d)
    a, b, sign = quad_unit_exhaustive(d)
    assert (u.a, u.b, unit_norm(d, u.a, u.b)) == (a, b, sign)
    assert (u.a, u.b) != (1, 0) and (u.a, u.b) != (-1, 0)


def test_units_beyond_the_table():
    # the continued fraction must hold up for larger D as well
    for d in (31, 43, 46, 94, 141):
        u = fundamental_unit_quadratic(d)
        a, b, sign = quad_unit_exhaustive(d, bmax=300_000)
        assert (u.a, u.b, unit_norm(d, u.a, u.b)) == (a, b, sign)


@pytest.mark.parametrize("d", SQUAREFREE_TO_30)
def test_class_numbers_against_form_cycles(d, quad_records):
    rec = quad_records[d]
    h_narrow = narrow_class_number_bqf(rec.field_disc)
    h = h_narrow if unit_norm(d, rec.unit.a, rec.unit.b) == -1 else h_narrow // 2
    assert rec.class_number == h


def test_unit_test_examples(quad_records):
    assert quad_unit_test(quad_records[3], 103) is True
    assert quad_unit_test(quad_records[6], 7) is True
    assert quad_unit_test(quad_records[2], 11) is False
    assert quad_unit_test(quad_records[2], 13) is True


def test_d5_clear_below_1e4(quad_records):
    rep = scan_quadratic(quad_records[5], PrimeRange(3, 9999))
    assert [v.p for v in rep.hits] == []


def test_fermat_sanity(quad_records):
    # one power of p always divides eps^(p^2-1) - 1; the test is about the lift
    for d in (2, 5, 14, 21, 29):
        rec = quad_records[d]
        f = order_spec_for(d).reduction
        for p in (3, 5, 7, 11, 13, 101, 997):
            if rec.field_disc % p == 0:
                continue
            assert poly_pow((rec.unit.a, rec.unit.b), p * p - 1, f, p) == (1, 0)


def test_lanes_match_classify_to_2e5(quad_records):
    # the lane kernel against the scalar classifier on every prime to 2e5:
    # full verdicts and checksums, one chunk on the float-quotient path, no per-prime call
    check_scans(QUAD, quad_records.values(), PrimeRange(2, 200_000), ("float",))


def test_lanes_and_classify_match_naive_power(quad_records):
    # both paths against the literal eps^(p^2-1) of the oracle, p <= 3e4, and so the
    # lane kernel's criterion eps^p = sigma(eps) mod p^2 in the oracles' own coordinates
    rng = PrimeRange(2, 30_000)
    for d, rec in quad_records.items():
        rep = scan_quadratic(rec, rng, full_verdicts=True)
        hits = {v.p for v in rep.hits}
        tested = sorted(hits.union(rep.clears))
        assert hits.isdisjoint(rep.clears)
        want = {p for p in tested if quad_hit_naive(d, rec.unit.a, rec.unit.b, p)}
        assert hits == want, d
        assert {p for p in tested if quad_frobenius_naive(d, rec.unit.a, rec.unit.b, p)} == want, d
        assert {p for p in tested if classify_quad_prime(rec, p).status == HIT} == want, d
        assert tested == [p for p in primes_in(rng) if p > 2 and rec.field_disc % p
                          and rec.class_number % p]
        # the counters: every prime tested or excluded once, and sum 1/p
        assert rep.tested == len(tested)
        assert rep.tested + sum(rep.excluded_counts.values()) == len(list(primes_in(rng)))
        assert rep.expected_hits == pytest.approx(sum(1 / p for p in tested), rel=1e-12)


def test_frobenius_quotient_zero_exactly_at_naive_hits(quad_records):
    # the shared step on each record, with sigma(omega) = omega at a split p
    # and its conjugate -f1 - omega at an inert one: unit_inverse is eps^-1,
    # and t = (0, 0) exactly where the literal eps^(p^2-1) is 1 mod p^2
    hits = 0
    for d, rec in quad_records.items():
        u, f = rec.unit, rec.reduction
        assert mul2((u.a, u.b), rec.unit_inverse, f, 1 << 80) == (1, 0)
        for p in primes_in(PrimeRange(3, 2000)):
            if rec.field_disc % p == 0:
                continue
            m = p * p
            inert = pow(rec.field_disc, (p - 1) // 2, p) == p - 1
            image = (-f[1] % m, m - 1) if inert else (0, 1)
            t = frobenius_quotient(poly_pow((u.a, u.b), p, f, m), rec.unit_inverse, (image,), f, p)
            assert all(0 <= c < p for c in t)
            naive = quad_hit_naive(d, u.a, u.b, p)
            assert (t == (0, 0)) == naive, (d, p)
            hits += naive
    assert hits == 18


def test_batch_bound_straddles_2_25(quad_records):
    check_straddle(QUAD, quad_records.values())


def test_scan_near_range_limit_matches_classify(quad_records):
    check_scans(QUAD, quad_records.values(), NEAR_LIMIT, ("digits",))


def test_batch_tiny_chunks(quad_records):
    check_tiny_chunks(QUAD, [quad_records[d] for d in (2, 10, 29)], PrimeRange(2, 400))


def test_large_unit_takes_int64_lanes(quad_records):
    # eps^51 of Q(sqrt 2): coefficients beyond 2^63.  (1 + p*y)^51 = 1 + 51*p*y,
    # so the hits of eps^51 are those of eps together with 3 and 17.
    a, b = 1, 1
    for _ in range(50):
        a, b = a + 2 * b, a + b
    assert max(a, b) >= 1 << 63
    rec = QuadFieldRecord(2, 1, QuadUnit(a, b))
    # Q(sqrt 4098), h = 6: a small unit, but x^2 - 4098 folds by a row of 4098 >= 2^12
    wide = QuadFieldRecord(4098, 6)
    assert wide.unit == QuadUnit(4097, 64) and wide.reduction == (-4098, 0)
    # golden ratio^92 of Q(sqrt 5): F_91 + F_92 omega fits int64, but its inverse
    # F_93 - F_92 omega does not (F_93 > 2^63 > F_92)
    fib = [0, 1]
    while len(fib) < 94:
        fib.append(fib[-1] + fib[-2])
    golden = QuadFieldRecord(5, 1, QuadUnit(fib[91], fib[92]))
    assert max(fib[91], fib[92]) < 1 << 63 <= max(map(abs, golden.unit_inverse))
    assert golden.unit_inverse == (fib[93], -fib[92])
    # each constant enters as per-lane residues, and x^2 - 4098 folds through dot pairs
    rep, _, _ = check_scans(QUAD, (rec, wide, golden), PrimeRange(2, 3000), ("exact",))
    assert [v.p for v in rep.hits] == [3, 13, 17, 31]
    check_scans(QUAD, (rec, wide, golden), NEAR_LIMIT, ("digits",))
    assert [p for p in rep.clears if quad_hit_naive(2, a, b, p)] == []
    assert list(_quad_chunk(rec, np.array([], dtype=np.int64))) == []


def test_exclusion_verdicts(quad_records):
    assert classify_quad_prime(quad_records[14], 2) == Verdict(2, EXCLUDED, reason="below_min_p")
    v = classify_quad_prime(quad_records[6], 3)  # 3 | disc 24
    assert v.status == EXCLUDED and v.reason == "ramified"
    synthetic = QuadFieldRecord(7, 5)  # pretend class number 5
    v = classify_quad_prime(synthetic, 5)
    assert v.status == EXCLUDED and v.reason == "divides_class_number"
    assert list(_quad_chunk(synthetic, np.array([2, 5, 7]))) == [
        classify_quad_prime(synthetic, p) for p in (2, 5, 7)]
    with pytest.raises(ValueError, match=r"p=3 ramifies in Q\(sqrt\(6\)\)"):
        quad_unit_test(quad_records[6], 3)
    with pytest.raises(ValueError, match="p=2 below the minimum scan prime 3"):
        quad_unit_test(quad_records[14], 2)
    with pytest.raises(ValueError, match="p=5 divides the class number"):
        quad_unit_test(synthetic, 5)


def test_scan_full_verdicts(quad_records):
    rep = scan_quadratic(quad_records[29], PrimeRange(2, 50), full_verdicts=True)
    assert [v.p for v in rep.hits] == [3, 11]
    excluded = {v.p: v.reason for v in rep.excluded}
    assert excluded[2] == "below_min_p"
    assert excluded[29] == "ramified"
    assert 5 in rep.clears and 7 in rep.clears


def test_scan_parallel_determinism(quad_records, chunk_counts):
    check_workers(QUAD, quad_records[10], chunk_counts)


def test_hits_only_scan_memory(quad_records):
    # 78,497 primes classified: a Block keeps 9 B per prime, where one
    # Verdict object per prime peaked at 11.6 MB
    tracemalloc.start()
    try:
        rep = scan_quadratic(quad_records[2], PrimeRange(3, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.tested == 78_497
    assert peak < 4 << 20


def test_partition_arguments_checked(quad_records):
    with pytest.raises(ValueError, match="workers=0"):
        scan_quadratic(quad_records[2], PrimeRange(3, 100), workers=0)
    for span in (0, -1):  # either would never advance through the range
        with pytest.raises(ValueError, match="chunk_span"):
            run_chunked(_quad_chunk, quad_records[2], 3, 100, 1, span)


def _span(args, primes):
    # one hit per chunk whose aux records the args passed and the chunk's first
    # number; a spy on the sieve stands in for it and records each chunk's bounds
    return Block.of(primes[:1], np.array([HIT_CODE], dtype=np.int8), ((args, int(primes[0])),))


def test_default_chunk_span_divides_int64_bound():
    # a power of two dividing 2^25 puts a cut at 2^25, so no chunk holds
    # primes on both sides of it: the p^2 lanes of primes below take the float
    # quotient, not the slower base-p digits
    span = inspect.signature(run_chunked).parameters["chunk_span"].default
    assert type(span) is int and span > 1 and span & (span - 1) == 0
    assert MULMOD_PMAX % span == 0


def test_pool_size_capped_at_cores(monkeypatch):
    # a stand-in executor records the pool size asked for and runs the chunks
    # in this process: no worker process is ever started
    sizes = []

    class Executor:
        def __init__(self, size, mp_context):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, *columns):
            return map(worker, *columns)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
    bounds = []

    def sieved(a, b):
        bounds.append((a, b))
        return np.arange(a, b + 1)

    with monkeypatch.context() as m:
        m.setattr(_parallel, "prime_array", sieved)
        serial = run_chunked(_span, "x", 1, 10, 1, 2).aux
        # cuts at the multiples of the span, the first chunk starting at lo
        chunks = [(1, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 10)]
        assert bounds == chunks
        assert serial == tuple(("x", a) for a, _ in chunks)
        for cores, workers, want in ((2, 1000, [2]), (8, 3, [3]), (8, 1000, [6]), (1, 1000, []),
                                     (None, 1000, [])):
            m.setattr(_parallel.os, "cpu_count", lambda: cores)
            sizes.clear()
            bounds.clear()
            assert run_chunked(_span, "x", 1, 10, workers, 2).aux == serial
            assert bounds == chunks, (cores, workers)
            assert sizes == want, (cores, workers)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
    sizes.clear()
    rng = PrimeRange(3, 300_000)
    assert scan_wieferich(2, rng, workers=1000).checksum == scan_wieferich(2, rng).checksum
    assert sizes == [2]


def _exits(args, primes):
    # a pool worker that dies, as on an OOM kill; never in the test process itself
    assert multiprocessing.parent_process() is not None
    os._exit(1)


def test_dead_worker_raises(monkeypatch):
    # the pool raises when a worker dies, instead of waiting for its chunk forever
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
    with pytest.raises(BrokenProcessPool):
        run_chunked(_exits, None, 2, 10, 2, 2)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_reports_do_not_depend_on_start_method(method, monkeypatch, quad_records, cubic_records):
    # each family's 2-worker scan across the 2^18 chunk cut, its pool started by
    # spawn and by forkserver (the Linux default from Python 3.14), against the
    # serial report
    rng = PrimeRange((1 << 18) - 2000, (1 << 18) + 2000)
    scans = (partial(scan_quadratic, quad_records[2], full_verdicts=True),
             partial(scan_cubic, cubic_records[-23], mode=MODE_ORDINARY, full_verdicts=True),
             partial(scan_wieferich, 2))
    serial = [scan(rng) for scan in scans]
    started = []

    def context():
        started.append(method)
        return multiprocessing.get_context(method)

    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_parallel, "get_context", context)
    for scan, one in zip(scans, serial):
        assert_same_report(scan(rng, workers=2), one, (method, one.field_id))
    assert started == [method] * len(scans)


def test_record_validation():
    with pytest.raises(ValueError):
        QuadFieldRecord(12, 1)  # not squarefree
    with pytest.raises(ValueError):
        QuadFieldRecord(5, 1, QuadUnit(1, 0))  # unit is 1
    with pytest.raises(ValueError):
        QuadFieldRecord(5, 1, QuadUnit(2, 1))  # norm 5


def test_loaded_records_cover_table(quad_records):
    assert sorted(quad_records) == SQUAREFREE_TO_30
    for rec in quad_records.values():
        # Z[omega] is the maximal order: its discriminant is the field's
        assert rec.field_disc == poly_discriminant((*rec.reduction, 1)) == (
            rec.d if rec.d % 4 == 1 else 4 * rec.d)


def test_duplicate_d_row_rejected(tmp_path):
    # the second row is the unit eps^3 of Q(sqrt 2), which would make p = 3 a hit
    (tmp_path / "quad_fields.txt").write_text("2 1\n3 1\n2 1 7 5\n")
    with pytest.raises(DataFileError, match="duplicate D=2"):
        load_quad_fields(tmp_path)
