import itertools
import random
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest
import sympy

from unitscan import cubic
from unitscan._data import DataFileError, data_path
from unitscan.cubic import (
    MODE_H2,
    MODE_ORDINARY,
    CubicFieldRecord,
    ZValue,
    classify_cubic_prime,
    element_norm,
    find_fundamental_unit,
    h2_vanishing_test,
    h5_reduced,
    h5_set,
    hyp_filter,
    invert_unit,
    load_cubic_fields,
    ordinary_test,
    real_root,
    scan_cubic,
    z_value,
    _adjugate,
    _embed,
    _z_coeffs,
    _z_cubed_in_fp,
)
from unitscan.order_arith import Lanes, OrderSpec, fold_rows, poly_pow
from unitscan.primes import PrimeRange, prime_divisors, primes_in
from unitscan.report import EXCLUDED, HIT

from _blocks import NEAR_LIMIT, Family, check_scans, check_straddle, check_tiny_chunks, check_workers
from _oracles import (
    cubic_char_poly,
    cubic_is_inert,
    cubic_mul,
    cubic_norm_float,
    cubic_powmod,
    cubic_unit_criterion,
    cubic_z_oracle,
    trial_division_primes,
)

DELTAS = [-23, -31, -44, -59, -76, -83, -87, -104, -107, -108, -116, -135, -139, -140]


# -- data file integrity -------------------------------------------------------

def test_all_fields_loaded(cubic_records):
    assert sorted(cubic_records) == sorted(DELTAS)


def test_duplicate_delta_row_rejected(tmp_path):
    rows = data_path("cubic_fields.txt").read_text()
    first = next(l for l in rows.splitlines() if l.strip() and not l.startswith("#"))
    (tmp_path / "cubic_fields.txt").write_text(rows + first + "\n")
    with pytest.raises(DataFileError, match="duplicate delta=-23"):
        load_cubic_fields(tmp_path)


def test_ramified_set_column_checked(tmp_path):
    # the S column of Delta = -23 claims {2}: the loader alone checks it against Delta
    rows = data_path("cubic_fields.txt").read_text().splitlines()
    i, first = next((i, l) for i, l in enumerate(rows) if l.strip() and not l.startswith("#"))
    cols = first.split()
    assert cols[0] == "-23" and cols[4] == "23"
    rows[i] = " ".join(cols[:4] + ["2"] + cols[5:])
    (tmp_path / "cubic_fields.txt").write_text("\n".join(rows) + "\n")
    with pytest.raises(DataFileError, match="S does not equal"):
        load_cubic_fields(tmp_path)


@pytest.mark.parametrize("delta", DELTAS)
def test_polynomial_discriminants_sympy(delta, cubic_records):
    spec = cubic_records[delta].spec
    x = sympy.Symbol("x")
    poly = sum(c * x**i for i, c in enumerate(spec.defining_poly))
    assert sympy.discriminant(poly, x) == delta


@pytest.mark.parametrize("delta", DELTAS)
def test_polynomials_irreducible(delta, cubic_records):
    poly = cubic_records[delta].spec.defining_poly
    c0 = poly[0]
    assert c0 != 0
    for r in range(-abs(c0), abs(c0) + 1):
        if r != 0 and c0 % r == 0:
            assert sum(c * r**i for i, c in enumerate(poly)) != 0


@pytest.mark.parametrize("delta", DELTAS)
def test_unit_norms_sympy(delta, cubic_records):
    rec = cubic_records[delta]
    x = sympy.Symbol("x")
    f = sum(c * x**i for i, c in enumerate(rec.spec.defining_poly))
    a, b, c = rec.unit
    g = a + b * x + c * x**2
    res = sympy.resultant(f, g, x)
    assert res in (1, -1)
    assert element_norm(rec.spec, rec.unit) == res


# -- H5 sets ---------------------------------------------------------------------

def test_h5_examples():
    assert h5_reduced(frozenset({23})) == {11}
    assert h5_reduced(frozenset({59})) == {5, 29}
    assert h5_reduced(frozenset({2, 3})) == set()
    assert h5_set(frozenset({2, 3})) == {2, 3}


def test_h5_reproduces_reference(cubic_records, ref_tables):
    for delta, expected in ref_tables["h5_table"].items():
        got = sorted(h5_reduced(cubic_records[delta].ramified))
        assert got == expected, delta


def test_h5_contains_2_and_3_for_shipped(cubic_records):
    for rec in cubic_records.values():
        assert {2, 3} <= h5_set(rec.ramified)


def test_h5_monotone():
    small = h5_set(frozenset({23}))
    big = h5_set(frozenset({23, 59}))
    assert small <= big


def test_h5_rejects_empty():
    with pytest.raises(ValueError):
        h5_set(frozenset())


def test_prime_divisors():
    assert prime_divisors(-108) == {2, 3}
    assert prime_divisors(-23) == {23}
    assert prime_divisors(-140) == {2, 5, 7}


# -- hypothesis filter -----------------------------------------------------------

def test_hyp_filter_examples(cubic_records):
    rec23 = cubic_records[-23]
    assert hyp_filter(rec23, 11) == "hyp5_in_H5"
    assert hyp_filter(rec23, 23) == "hyp2_ramified"
    assert hyp_filter(rec23, 13) is None
    assert hyp_filter(rec23, 2) == "hyp1_divides_6"
    assert hyp_filter(rec23, 3) == "hyp1_divides_6"
    # no hyp4_even, which is no report code: p odd, the fourth hypothesis, follows from the first
    reasons = {hyp_filter(rec23, p) for p in range(2, 1000)}
    assert reasons == {None, "hyp1_divides_6", "hyp2_ramified", "hyp5_in_H5"}


def test_hyp_filter_class_number(cubic_records):
    rec = cubic_records[-23]
    with_h = CubicFieldRecord(rec.delta, rec.spec, 7, rec.unit, rec.unit_certificate)
    assert hyp_filter(with_h, 7) == "hyp3_class_number"
    assert hyp_filter(rec, 7) is None  # h_E unknown: exclusion skipped


def test_hyp_filter_139_omission(cubic_records):
    # the reference row for -139 omits 7 because it lies in H5
    assert hyp_filter(cubic_records[-139], 7) == "hyp5_in_H5"
    assert 7 in h5_reduced(cubic_records[-139].ramified)


# -- fundamental units -------------------------------------------------------------

def test_unit_minus23(cubic_records):
    spec = cubic_records[-23].spec
    unit, cert = find_fundamental_unit(spec)
    assert unit == (0, 1, 0)  # theta itself, N(theta) = -f(0) = 1
    assert cert == "exhaustive"
    assert element_norm(spec, unit) == 1


def test_unit_minus31_normalization(cubic_records):
    # the minimal-|log| unit pair is theta (value < 1) and 1/theta; the
    # normalized representative (real embedding > 1) is 1/theta = 1 + theta^2
    spec = cubic_records[-31].spec
    unit, cert = find_fundamental_unit(spec)
    assert unit == (1, 0, 1)
    assert cert == "exhaustive"
    assert invert_unit(spec, unit) == (0, 1, 0)
    root = real_root(spec)
    assert 0 < _embed((0, 1, 0), root) < 1 < _embed(unit, root)


def test_real_root_brackets_a_sign_change(cubic_records):
    # f = x^3 + ... is monic with one real root r: negative just below r, positive just above
    shifted = _shifted_record(cubic_records[-23], 6).spec
    assert shifted.defining_poly == (209, 107, 18, 1)
    for spec in [rec.spec for rec in cubic_records.values()] + [shifted]:
        r = real_root(spec)
        eps = 1e-9 * (1 + abs(r))
        f = [sum(c * Fraction(x) ** i for i, c in enumerate(spec.defining_poly)) for x in (r - eps, r + eps)]
        assert f[0] < 0 < f[1], (spec.defining_poly, r)


@pytest.mark.parametrize("delta", DELTAS)
def test_shipped_units_are_rederived(delta, cubic_records):
    rec = cubic_records[delta]
    unit, cert = find_fundamental_unit(rec.spec)
    assert unit == rec.unit
    assert cert == rec.unit_certificate
    assert unit[1:] != (0, 0)  # never a rational +-1
    root = real_root(rec.spec)
    assert _embed(unit, root) > 1


@pytest.mark.parametrize("delta", DELTAS)
def test_units_minimal_in_box(delta, cubic_records):
    # independent minimality check: float norms via numpy roots, bound 8
    import math

    rec = cubic_records[delta]
    poly = rec.spec.defining_poly
    root = real_root(rec.spec)
    ulog = abs(math.log(_embed(rec.unit, root)))
    for a in range(-8, 9):
        for b in range(-8, 9):
            for c in range(-8, 9):
                if (b, c) == (0, 0):
                    continue
                if cubic_norm_float(poly, (a, b, c)) in (1, -1):
                    lg = abs(math.log(abs(_embed((a, b, c), root))))
                    assert lg > ulog - 1e-9


def test_unit_times_inverse_is_one(cubic_records):
    for rec in cubic_records.values():
        inv = invert_unit(rec.spec, rec.unit)
        assert cubic_mul(rec.unit, inv, rec.spec.defining_poly) == (1, 0, 0)


def test_norm_against_float_oracle(cubic_records):
    rng = random.Random(17)
    for rec in cubic_records.values():
        poly = rec.spec.defining_poly
        for _ in range(25):
            t = tuple(rng.randint(-9, 9) for _ in range(3))
            assert element_norm(rec.spec, t) == cubic_norm_float(poly, t)


def test_unit_search_needs_units_in_box():
    spec = OrderSpec((-1, -1, 0, 1))
    with pytest.raises(ValueError):
        find_fundamental_unit(spec, coeff_bound=0)


def test_unit_search_rejects_positive_disc():
    with pytest.raises(ValueError):
        find_fundamental_unit(OrderSpec((1, -3, 0, 1)))  # disc 81 > 0


# -- the z-invariant ------------------------------------------------------------------

def test_z_value_examples(cubic_records):
    z = z_value(cubic_records[-23], 13)
    assert not z.is_zero
    assert z.p == 13 and all(0 <= c < 13 for c in z.coeffs)
    assert h2_vanishing_test(cubic_records[-23], 13) is True


def test_z_preconditions(cubic_records):
    rec = cubic_records[-23]
    with pytest.raises(ValueError):
        z_value(rec, 7)  # Frobenius order 2
    with pytest.raises(ValueError):
        z_value(rec, 11)  # hyp5
    with pytest.raises(ValueError):
        z_value(rec, 23)  # ramified


def test_z_exponent_split(cubic_records):
    # same power computed as (p-1)(p^2+p+1): identical z
    rec = cubic_records[-23]
    for p in (13, 59, 61):
        if not cubic_is_inert(rec.spec.defining_poly, p):
            continue
        m = p * p
        f = rec.spec.reduction
        fm = tuple(c % m for c in f)
        u = tuple(c % m for c in rec.unit)
        direct = poly_pow(u, p**3 - 1, fm, m)
        step = poly_pow(poly_pow(u, p - 1, fm, m), p * p + p + 1, fm, m)
        assert direct == step


def test_z_representative_independence(cubic_records):
    rng = random.Random(23)
    rec = cubic_records[-23]
    p = 13
    f = rec.spec.reduction
    base = _z_coeffs(rec.unit, f, p)
    for _ in range(5):
        w = tuple(rng.randrange(p) for _ in range(3))
        shifted = tuple(u + p * p * x for u, x in zip(rec.unit, w))
        assert _z_coeffs(shifted, f, p) == base


def _double_root(f, p):
    return next(r for r in range(p) if (r**3 + f[2] * r * r + f[1] * r + f[0]) % p == 0
                and (3 * r * r + 2 * f[2] * r + f[1]) % p == 0)


def test_z_rejects_inconsistent_inputs(cubic_records):
    rec = cubic_records[-23]
    f = rec.spec.reduction
    p = 13
    with pytest.raises(ArithmeticError):
        _z_coeffs((p, 0, p), f, p)  # not a unit mod p
    with pytest.raises(ArithmeticError, match="not a root"):
        _z_coeffs(rec.unit, f, p, (1, 0, 0))  # not a root of f mod p
    with pytest.raises(ArithmeticError, match="not inert"):
        _z_coeffs(rec.unit, f, 7)  # Frobenius order 2
    fp = tuple(c % p for c in f)
    with pytest.raises(ArithmeticError, match="not 1 mod"):
        _z_coeffs(rec.unit, f, p, poly_pow((0, 1, 0), p * p, fp, p))  # theta^(p^2), not theta^p
    with pytest.raises(ArithmeticError, match="not 1 mod"):
        _z_coeffs(rec.unit, f, p, None, (1, 0, 0))  # 1 is not the inverse of eps
    with pytest.raises(ArithmeticError, match="not invertible"):
        _z_coeffs(rec.unit, f, 23, (_double_root(f, 23), 0, 0))  # f'(theta) = 0 mod 23 at a double root


def test_z_and_ordinary_match_naive_oracle(cubic_records):
    # every prime 5 <= p <= 3e4 passing the hypothesis filter with (Delta/p) = 1, all 14 fields.
    # At each, the scan kernel's criterion, in the oracles' arithmetic from eps^p and the
    # characteristic polynomial g of eps alone (the index is 1 or 2): split exactly when
    # eps^p = eps mod p, and at the inert ones z = 0 exactly when g(eps^p) = 0 mod p^2, and
    # z^3 in F_p exactly when u^3 and v^3 have rank at most 1.  At the inert ones, z against
    # eps^(p^3-1) by direct powering, and the ordinary decision of both the readable API and
    # the scan against z^(3(p-1)) = 1
    pairs = 0
    primes = trial_division_primes(5, 30_000)
    for delta, rec in cubic_records.items():
        poly = rec.spec.defining_poly
        f = rec.spec.reduction
        g, index = cubic_char_poly(poly, rec.unit)
        assert index in (1, 2) and rec.unit_poly == (-g[2], g[1], -g[0], index), delta
        want_hits = []
        for p in primes:
            if hyp_filter(rec, p) is not None or pow(delta % p, (p - 1) // 2, p) != 1:
                continue
            split, zero, cubed = cubic_unit_criterion(poly, rec.unit, g, p)
            assert split != cubic_is_inert(poly, p), (delta, p)
            if split:
                continue
            pairs += 1
            z, ordinary = cubic_z_oracle(poly, rec.unit, p)
            assert (zero, cubed) == (z == (0, 0, 0), ordinary or z == (0, 0, 0)), (delta, p)
            assert _z_coeffs(rec.unit, f, p) == z, (delta, p)
            if p % 3 == 1 and z != (0, 0, 0):
                assert ordinary_test(rec, p) == ordinary, (delta, p)
                if ordinary:
                    want_hits.append((p, z))
        rep = scan_cubic(rec, PrimeRange(3, 30_000), mode=MODE_ORDINARY)
        assert [(v.p, v.aux) for v in rep.hits] == want_hits, delta
    assert pairs == 15_184


def test_ordinary_criterion_exhaustive(cubic_records):
    # x^(p-1) = 1 in F_(p^3)* exactly when x lies in F_p*; the cubing map is
    # 3-to-1 for p = 1 mod 3, so 3(p-1) elements pass
    rec = cubic_records[-23]
    p = 13
    assert cubic_is_inert(rec.spec.defining_poly, p)
    fp = tuple(c % p for c in rec.spec.reduction)
    passed = 0
    for z in itertools.product(range(p), repeat=3):
        if z == (0, 0, 0):
            continue
        cubed = _z_cubed_in_fp(z, fp, p)
        assert cubed == (poly_pow(z, 3 * (p - 1), fp, p) == (1, 0, 0)), z
        passed += cubed
    assert passed == 3 * (p - 1)


def test_ordinary_model_exhaustive(cubic_records):
    # the expected-hit weights: N(eps) = +-1 puts z in the trace-zero plane of
    # F_(p^3), where 2(p-1) of the p^2 - 1 nonzero z have z^3 in F_p (the lines
    # of gamma and gamma^2, gamma^3 a non-cube), so an ordinary hit has
    # probability 2/(p+1), and z = 0 has 1/p^2
    rec = cubic_records[-23]
    p = 13
    poly = rec.spec.defining_poly
    fp = tuple(c % p for c in rec.spec.reduction)
    plane = []
    for z in itertools.product(range(p), repeat=3):
        conjugates = [cubic_powmod(list(z), p**k, poly, p) for k in range(3)]
        trace = [sum(c) % p for c in zip(*conjugates)]
        assert trace[1:] == [0, 0]  # the trace lies in F_p
        if trace[0] == 0 and z != (0, 0, 0):
            plane.append(z)
    assert len(plane) == p * p - 1 == 168
    assert sum(_z_cubed_in_fp(z, fp, p) for z in plane) == 2 * (p - 1) == 24


def test_ordinary_examples(cubic_records):
    assert ordinary_test(cubic_records[-23], 13) is True
    assert ordinary_test(cubic_records[-31], 7) is True
    assert ordinary_test(cubic_records[-31], 2467) is True


def test_ordinary_preconditions(cubic_records):
    rec = cubic_records[-23]
    with pytest.raises(ValueError, match="not 1 mod 3"):
        ordinary_test(rec, 5)
    with pytest.raises(ValueError):
        ordinary_test(rec, 7)  # Frobenius order 2 at 7


def test_zero_z_branches(cubic_records, monkeypatch):
    # z = 0 never occurs in the shipped data; patch it in to pin the branch
    monkeypatch.setattr(cubic, "_z_coeffs", lambda *a: (0, 0, 0))
    rec = cubic_records[-23]
    v = classify_cubic_prime(rec, 13, MODE_H2)
    assert v.status == HIT and v.aux == (0, 0, 0)
    v = classify_cubic_prime(rec, 13, MODE_ORDINARY)
    assert v.status == EXCLUDED and v.reason == "z_zero"
    assert h2_vanishing_test(rec, 13) is False
    with pytest.raises(ValueError, match="z = 0"):
        ordinary_test(rec, 13)
    assert ZValue(13, (0, 0, 0)).is_zero


def test_h2_clear_everywhere_small(cubic_records):
    rep = scan_cubic(cubic_records[-140], PrimeRange(3, 1000), mode=MODE_H2, full_verdicts=True)
    assert rep.hits == ()
    assert len(rep.clears) > 20  # plenty of qualifying primes, all nonzero z


# -- scan behaviour ---------------------------------------------------------------------

def _fold_sum(f):
    """The largest sum over the fold rows of |row[k]|."""
    return max(sum(abs(r[k]) for r in fold_rows(f)) for k in range(len(f)))


# a tested prime's hit probability is 1/denominator: 1/p^2 for z = 0 in the
# trace-zero plane, 2/(p+1) for a nonzero z there with z^3 in F_p
_DENOMINATORS = {MODE_H2: lambda p: p * p, MODE_ORDINARY: lambda p: (p + 1) // 2}


def _per_prime_calls(mode):
    """The chunk's per-prime calls in mode: its hits, and each prime that reaches its lane
    power (the filter passed, (Delta/p) = 1) and divides the index of Z[eps], ascending."""
    def calls(rec, verdicts):
        reaches = lambda p: (hyp_filter(rec, p) is None and (mode == MODE_H2 or p % 3 == 1)
                             and pow(rec.delta % p, (p - 1) // 2, p) == 1)
        return [(rec, v.p, mode) for v in verdicts
                if v.status == HIT or rec.unit_poly[3] % v.p == 0 and reaches(v.p)]

    return calls


# one lane power per chunk in either mode, eps^p mod p^2, and z per prime at the hits and the index primes
CUBIC = {mode: Family(cubic, "classify_cubic_prime", partial(scan_cubic, mode=mode, full_verdicts=True),
                      partial(classify_cubic_prime, mode=mode), 1, _DENOMINATORS[mode],
                      per_prime_calls=_per_prime_calls(mode)) for mode in _DENOMINATORS}


@pytest.mark.parametrize("delta", DELTAS)
def test_scan_matches_classify(delta, cubic_records):
    # the batch kernel against the readable classifier on every prime to the
    # scan bounds of the paper's tables: full verdicts and checksums, one
    # chunk on the float-quotient path
    rec = cubic_records[delta]
    for mode, pmax in ((MODE_ORDINARY, 200_000), (MODE_H2, 100_000)):
        rep, = check_scans(CUBIC[mode], [rec], PrimeRange(2, pmax), ("float",))
        tested = sorted({v.p for v in rep.hits}.union(rep.clears))
        want = sum(1 / _DENOMINATORS[mode](p) for p in tested)  # in floats, term by term
        assert rep.expected_hits == pytest.approx(want, rel=1e-12)


def test_batch_tiny_chunks(cubic_records):
    for family in CUBIC.values():
        check_tiny_chunks(family, (cubic_records[-23], cubic_records[-140]), PrimeRange(2, 400))


def test_z_zero_at_a_power_of_the_unit(cubic_records):
    # z(eps^k) = k z(eps) mod p, so eps^13 of Delta = -23 has z = 0 at the
    # inert prime 13: an h2 hit, and a z_zero exclusion in ordinary mode
    rec23 = cubic_records[-23]
    unit = rec23.unit
    for _ in range(12):
        unit = cubic_mul(unit, rec23.unit, rec23.spec.defining_poly)
    rec = CubicFieldRecord(-23, rec23.spec, None, unit, "derived")
    rng = PrimeRange(2, 3000)
    (h2,), (ordinary,) = (check_scans(family, [rec], rng) for family in CUBIC.values())
    assert [v.p for v in h2.hits] == [13] and ordinary.excluded_counts["z_zero"] == 1


def test_each_lane_power_sees_its_lanes(cubic_records):
    # eps^915 of Delta = -23: its index [Z[theta] : Z[eps^915]] has the prime factors 13
    # (inert) and 211 (split), where eps^p cannot decide.  The chunk's one lane power,
    # eps^p mod p^2, takes every prime with (Delta/p) = 1 that passes the filter; the
    # per-prime classifier, the hits and those two alone (check_scans)
    rec23 = cubic_records[-23]
    unit = rec23.unit
    for _ in range(914):
        unit = cubic_mul(unit, rec23.unit, rec23.spec.defining_poly)
    rec = CubicFieldRecord(-23, rec23.spec, None, unit, "derived")
    index = rec.unit_poly[3]
    assert index % (13 * 211) == 0
    rng = PrimeRange(2, 3000)
    power = Lanes.pow
    for mode, family in CUBIC.items():
        seen = []

        def recorded(lanes, a, e):
            seen.append((lanes.m.tolist(), e.tolist()))
            return power(lanes, a, e)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(Lanes, "pow", recorded)
            rep, = check_scans(family, [rec], rng)
        first = [p for p in primes_in(rng) if hyp_filter(rec, p) is None and pow(-23 % p, (p - 1) // 2, p) == 1
                 and (mode == MODE_H2 or p % 3 == 1)]
        second = [p for p in first if index % p == 0 or p in {v.p for v in rep.hits}]
        assert second == [13, 211], mode  # 13 is an ordinary hit, as for eps
        assert seen == [([p * p for p in first], first)], mode


def _shifted_record(rec23, c):
    # theta -> theta - c in x^3 - x - 1 (Delta = -23): same field, large
    # coefficients; the unit theta becomes c + theta
    assert rec23.spec.defining_poly == (-1, -1, 0, 1) and rec23.unit == (0, 1, 0)
    spec = OrderSpec((c**3 - c - 1, 3 * c * c - 1, 3 * c, 1))
    return CubicFieldRecord(-23, spec, None, (c, 1, 0), "derived")


def test_batch_bound_straddles_2_25(cubic_records):
    # -23 as shipped, and shifted by 6: a fold column sum of 3971, near the 2^12 bound
    assert _fold_sum(_shifted_record(cubic_records[-23], 6).spec.reduction) == 3971
    records = (cubic_records[-23], _shifted_record(cubic_records[-23], 6))
    for family in CUBIC.values():
        check_straddle(family, records)


def test_scan_near_range_limit_matches_classify(cubic_records):
    for family in CUBIC.values():
        check_scans(family, (cubic_records[-23], cubic_records[-140]), NEAR_LIMIT, ("digits",))


def test_large_coefficients_take_int64_lanes(cubic_records):
    rec23 = cubic_records[-23]
    big_unit = rec23.unit
    for _ in range(160):  # eps^161: coefficients beyond 2^63
        big_unit = cubic_mul(big_unit, rec23.unit, rec23.spec.defining_poly)
    assert max(map(abs, big_unit)) >= 1 << 63
    big_power = CubicFieldRecord(-23, rec23.spec, None, big_unit, "derived")
    shifted = _shifted_record(rec23, 7)  # f2 * f0 = 7035 > 2^12
    assert _fold_sum(shifted.spec.reduction) >= 1 << 12
    huge_h = CubicFieldRecord(-23, rec23.spec, 1 << 70, rec23.unit, "derived")
    # each constant enters as per-lane residues, and the shifted ring folds through dot pairs
    records = (big_power, shifted, huge_h)
    # The Newton step also reads the adjugate and norm of f'(theta) as residues.
    # No cubic record needs a Python % per lane for those: the norm is -Delta,
    # and the adjugate stays below 2^40.  (The quadratic unit inverse can need
    # one: test_large_unit_takes_int64_lanes.)
    for rec in (*cubic_records.values(), shifted):
        f = rec.spec.reduction
        adj, det = _adjugate((f[1], 2 * f[2], 3), f)
        assert det == -rec.delta and max(map(abs, adj)) < 1 << 40
    rng = PrimeRange(2, 3000)
    check_scans(CUBIC[MODE_H2], records, rng, ("exact",))
    _, rep, _ = check_scans(CUBIC[MODE_ORDINARY], records, rng, ("exact",))
    # the shifted model is the same field: same hits and clears as shipped
    base = scan_cubic(rec23, rng, mode=MODE_ORDINARY, full_verdicts=True)
    assert [v.p for v in rep.hits] == [v.p for v in base.hits] == [13]
    assert rep.clears == base.clears
    for family in CUBIC.values():  # residues, digit products and pair folds at once
        check_scans(family, records, NEAR_LIMIT, ("digits",))


def test_scan_rejects_a_wrong_unit_polynomial(cubic_records):
    # T off by one: g(eps^p) becomes -eps^2p, a unit mod p, so the chunk's guard names
    # its first prime past the filter, the split test and the index (1 for Delta = -23)
    rec23 = cubic_records[-23]
    rec = CubicFieldRecord(-23, rec23.spec, None, rec23.unit, "derived")
    T, S, N, index = rec.unit_poly
    object.__setattr__(rec, "unit_poly", (T + 1, S, N, index))
    rng = PrimeRange(2, 3000)
    for mode in (MODE_H2, MODE_ORDINARY):
        good = scan_cubic(rec23, rng, mode=mode, full_verdicts=True)
        first = min(good.clears + tuple(v.p for v in good.hits))
        with pytest.raises(ArithmeticError, match=rf"^g\(eps\^p\) is not 0 mod {first} for g the polynomial of eps"):
            scan_cubic(rec, rng, mode=mode)


def test_scan_unit_normalization_invariance(cubic_records):
    # replacing eps by 1/eps or -eps must not change any verdict
    for delta in DELTAS:
        rec = cubic_records[delta]
        inv = invert_unit(rec.spec, rec.unit)
        neg = tuple(-c for c in rec.unit)
        base = scan_cubic(rec, PrimeRange(3, 10_000), mode=MODE_ORDINARY, full_verdicts=True)
        for variant in (inv, neg):
            alt_rec = CubicFieldRecord(rec.delta, rec.spec, rec.class_number_e, variant, "derived")
            alt = scan_cubic(alt_rec, PrimeRange(3, 10_000), mode=MODE_ORDINARY, full_verdicts=True)
            assert [v.p for v in alt.hits] == [v.p for v in base.hits], (delta, variant)
            assert alt.clears == base.clears, (delta, variant)


def test_scan_model_choice_invariance(cubic_records):
    # an alternate defining polynomial of the same field gives the same hits
    alt = CubicFieldRecord(-23, OrderSpec((1, 0, -1, 1)))  # x^3 - x^2 + 1, disc -23
    assert alt.spec.defining_poly != cubic_records[-23].spec.defining_poly
    base = scan_cubic(cubic_records[-23], PrimeRange(3, 10_000), mode=MODE_ORDINARY)
    other = scan_cubic(alt, PrimeRange(3, 10_000), mode=MODE_ORDINARY)
    assert [v.p for v in base.hits] == [v.p for v in other.hits] == [13]


def test_scan_warnings_for_unknown_class_number(cubic_records):
    rec = cubic_records[-23]
    rep = scan_cubic(rec, PrimeRange(3, 100), mode=MODE_ORDINARY)
    assert any("h_E unknown" in w for w in rep.warnings)
    with_h = CubicFieldRecord(rec.delta, rec.spec, 1, rec.unit)
    rep2 = scan_cubic(with_h, PrimeRange(3, 100), mode=MODE_ORDINARY)
    assert rep2.warnings == ()


def test_scan_hyp3_exclusion_applies(cubic_records):
    rec = cubic_records[-23]
    with_h = CubicFieldRecord(rec.delta, rec.spec, 13, rec.unit)
    rep = scan_cubic(with_h, PrimeRange(3, 100), mode=MODE_ORDINARY, full_verdicts=True)
    reasons = {v.p: v.reason for v in rep.excluded}
    assert reasons[13] == "hyp3_class_number"
    assert [v.p for v in rep.hits] == []  # 13 was the only hit below 100


def test_scan_parallel_determinism(cubic_records, chunk_counts):
    check_workers(CUBIC[MODE_ORDINARY], cubic_records[-107], chunk_counts)


def test_hits_only_cubic_scan_memory(cubic_records):
    # 26,153 primes tested in 2^18-wide chunks: each chunk's lane kernel (one lane
    # power, the two products of g(eps^p) and their temporaries, the float64 sums of the
    # balanced squares among them) and the hits-only Blocks stay within the bound
    # of the quadratic test (about 3.7 MiB with numpy 2.4)
    tracemalloc.start()
    try:
        rep = scan_cubic(cubic_records[-23], PrimeRange(3, 10**6), mode=MODE_H2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.tested == 26_153
    assert peak < 4 << 20


def test_frobenius_density_at_one_million(cubic_records):
    # the inert fraction tends to 1/3 among unramified primes
    rec = cubic_records[-23]
    f = rec.spec.reduction
    x = (0, 1, 0)
    counts = {1: 0, 2: 0, 3: 0}
    for p in primes_in(PrimeRange(3, 1_000_000)):
        if rec.delta % p == 0:
            continue
        if pow(rec.delta % p, (p - 1) >> 1, p) != 1:
            counts[2] += 1
            continue
        fp = (f[0] % p, f[1] % p, f[2] % p)
        if poly_pow(x, p, fp, p) == x:
            counts[1] += 1
        else:
            counts[3] += 1
    total = sum(counts.values())
    frac = counts[3] / total
    assert abs(frac - 1 / 3) < 0.01
    # and the full split is 1/6, 1/2, 1/3 up to the same slack
    assert abs(counts[1] / total - 1 / 6) < 0.01
    assert abs(counts[2] / total - 1 / 2) < 0.01


def test_record_validation(cubic_records):
    rec = cubic_records[-23]
    with pytest.raises(ValueError):
        CubicFieldRecord(23, rec.spec, None, rec.unit)  # positive delta
    with pytest.raises(ValueError):
        CubicFieldRecord(-23, rec.spec, None, (1, 0, 0))  # unit is 1
    with pytest.raises(ValueError):
        CubicFieldRecord(-23, rec.spec, None, (0, 2, 0))  # norm 8
    with pytest.raises(ValueError):
        scan_cubic(rec, PrimeRange(3, 100), mode="bogus")
    for p in (2, 11, 5):  # hyp1, hyp5 and a split prime would decide before the mode
        with pytest.raises(ValueError, match="unknown mode"):
            classify_cubic_prime(rec, p, "bogus")
