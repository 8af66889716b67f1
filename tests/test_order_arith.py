import bisect
import itertools
import random

import numpy as np
import pytest

from unitscan import order_arith
from unitscan.cubic import _inert_xp
from unitscan.order_arith import (
    MULMOD_PMAX,
    TABLE_MAX,
    Lanes,
    OrderSpec,
    fold_rows,
    frobenius_quotient,
    legendre,
    mul2,
    mul3,
    poly_discriminant,
    poly_pow,
    residues,
    ring_apply,
)
from unitscan.primes import RANGE_LIMIT, PrimeRange, primes_in

from _blocks import lanes_path
from _oracles import count_poly_roots_brute, cubic_is_inert, poly_mulmod, poly_powmod

X2_MINUS_2 = OrderSpec((-2, 0, 1))
X3_CLASSIC = OrderSpec((-1, -1, 0, 1))  # x^3 - x - 1, disc -23


def mul(a, b, spec, m):
    return (mul2 if spec.degree == 2 else mul3)(a, b, spec.reduction, m)


def power(a, e, spec, m):
    return poly_pow(a, e, spec.reduction, m)


def add(a, b, m):
    return tuple((x + y) % m for x, y in zip(a, b))


def test_mul_examples():
    assert mul((1, 1), (1, 1), X2_MINUS_2, 25) == (3, 2)
    theta = (0, 1, 0)
    theta2 = (0, 0, 1)
    assert mul(theta, theta2, X3_CLASSIC, 49) == (1, 1, 0)


def test_mul_identity():
    rng = random.Random(7)
    m = 13 * 13
    one2, one3 = (1, 0), (1, 0, 0)
    for _ in range(50):
        a = tuple(rng.randrange(m) for _ in range(2))
        assert mul(a, one2, X2_MINUS_2, m) == a
        b = tuple(rng.randrange(m) for _ in range(3))
        assert mul(b, one3, X3_CLASSIC, m) == b


def test_pow_examples():
    # 13 is a hit for D=2: eps^(p^2-1) = 1 mod 169; 11 is not
    assert power((1, 1), 168, X2_MINUS_2, 169) == (1, 0)
    assert power((1, 1), 120, X2_MINUS_2, 121) != (1, 0)
    assert power((5, 7), 0, X2_MINUS_2, 121) == (1, 0)
    assert power((5, 7, 9), 0, X3_CLASSIC, 121) == (1, 0, 0)


def test_pow_rejects_negative_exponent():
    # a negative e never reaches 0 under e >>= 1, so the loop would not end
    with pytest.raises(ValueError):
        poly_pow((1, 1), -1, (-2, 0), 25)
    with pytest.raises(ValueError):
        poly_pow((0, 1, 0), -5, X3_CLASSIC.reduction, 49)


def test_pow_huge_exponent_runs():
    p = 99999989  # prime near 1e8
    m = p * p
    e = p**3 - 1  # ~1e24, past 64 bits
    r = power((2, 3, 5), e, X3_CLASSIC, m)
    assert all(0 <= c < m for c in r)


RING_CASES = [
    (X2_MINUS_2, 3),
    (X2_MINUS_2, 4),
    (OrderSpec((-1, -1, 1)), 5),  # x^2 - x - 1
    (X3_CLASSIC, 2),
    (X3_CLASSIC, 3),
    (OrderSpec((-2, 1, 1, 1)), 3),  # x^3 + x^2 + x - 2, f2 != 0
]


@pytest.mark.parametrize("spec,m_val", RING_CASES)
def test_ring_laws_exhaustive(spec, m_val):
    deg = spec.degree
    elems = []
    idx = [0] * deg
    while True:
        elems.append(tuple(idx))
        for i in range(deg):
            idx[i] += 1
            if idx[i] < m_val:
                break
            idx[i] = 0
        else:
            break
    one = tuple([1] + [0] * (deg - 1))
    for a in elems:
        assert mul(a, one, spec, m_val) == a
        for b in elems:
            ab = mul(a, b, spec, m_val)
            assert ab == mul(b, a, spec, m_val)
    rng = random.Random(3)
    sample = [rng.choice(elems) for _ in range(12)]
    for a in sample:
        for b in sample:
            for c in sample:
                left = mul(mul(a, b, spec, m_val), c, spec, m_val)
                right = mul(a, mul(b, c, spec, m_val), spec, m_val)
                assert left == right
                dist1 = mul(a, add(b, c, m_val), spec, m_val)
                dist2 = add(mul(a, b, spec, m_val), mul(a, c, spec, m_val), m_val)
                assert dist1 == dist2


def test_pow_additivity():
    rng = random.Random(11)
    for _ in range(40):
        a = tuple(rng.randrange(49) for _ in range(3))
        e1, e2 = rng.randrange(200), rng.randrange(200)
        lhs = power(a, e1 + e2, X3_CLASSIC, 49)
        rhs = mul(power(a, e1, X3_CLASSIC, 49), power(a, e2, X3_CLASSIC, 49), X3_CLASSIC, 49)
        assert lhs == rhs


def test_fermat_in_inert_cubic():
    # p inert: O/p is the field with p^3 elements, so u^(p^3-1) = 1 for u != 0
    rng = random.Random(5)
    inert = [p for p in (2, 3, 5, 7, 13, 19, 31, 41, 43, 53, 61, 71, 73, 83, 97)
             if 23 % p and cubic_is_inert(X3_CLASSIC.defining_poly, p)]
    assert 13 in inert
    for p in inert:
        for _ in range(10):
            u = tuple(rng.randrange(p) for _ in range(3))
            if u == (0, 0, 0):
                continue
            assert power(u, p**3 - 1, X3_CLASSIC, p) == (1, 0, 0)


def test_root_count_vs_brute_force():
    # the scans call p inert when _inert_xp returns theta^p; for an
    # unramified odd p that must mean f has no root mod p (p = 2 has no
    # Legendre symbol, and the hypothesis filter drops it before _inert_xp)
    from unitscan.primes import sieve_upto

    for spec in (X3_CLASSIC, OrderSpec((-2, 1, 1, 1))):
        for p in sieve_upto(1000)[1:]:
            if spec.discriminant % p == 0:
                continue
            fp = tuple(c % p for c in spec.reduction)
            inert = _inert_xp(spec.discriminant, fp, p) is not None
            assert inert == (count_poly_roots_brute(spec.defining_poly, p) == 0), (
                spec.defining_poly, p)


def test_spec_validation():
    with pytest.raises(ValueError):
        OrderSpec((1, 2, 3))  # not monic
    with pytest.raises(ValueError):
        OrderSpec((1, 0, 0, 0, 1))  # degree 4
    assert poly_discriminant((-1, -1, 0, 1)) == -23
    assert poly_discriminant((-2, 0, 1)) == 8
    assert (X3_CLASSIC.degree, X3_CLASSIC.discriminant, X3_CLASSIC.reduction) == (3, -23, (-1, -1, 0))
    assert (X2_MINUS_2.degree, X2_MINUS_2.discriminant) == (2, 8)


# -- lane arithmetic -------------------------------------------------------------

# the 40 largest primes below 2^25: the largest moduli of the exact int64
# path, and their squares, the largest of the float-quotient path; the digit
# path takes the squares of the 40 largest primes to 1e9, (2^25)^2 = 2^50 and
# (2^30 - 1)^2, the largest square below 2^60; every kind also takes small
# moduli (and the float path 2^31 - 1), down to 3 or its square
TOP_PRIMES = list(primes_in(PrimeRange(MULMOD_PMAX - 2000, MULMOD_PMAX)))[-40:]
LIMIT_PRIMES = list(primes_in(PrimeRange(RANGE_LIMIT - 2000, RANGE_LIMIT)))[-40:]
SMALL_PRIMES = [3, 5, 7, 1009, 65521, 65537]
KINDS = ["exact", "float", "digits"]


def moduli(kind):
    if kind == "exact":
        return TOP_PRIMES + SMALL_PRIMES
    squares = [p * p for p in (LIMIT_PRIMES if kind == "digits" else TOP_PRIMES) + SMALL_PRIMES]
    return squares + ([1 << 50, ((1 << 30) - 1) ** 2] if kind == "digits" else [(1 << 31) - 1])


def lanes_of(values):
    return np.array(values, dtype=np.int64)


@pytest.mark.parametrize("kind", KINDS)
def test_float_quotient_mulmod_exact(kind):
    # dot on each path: operands 0, m - 1 and random, one to three pairs, and
    # the extra term at 0, +-(2^62 - 1), random and absent
    rng = random.Random(29)
    ms = moduli(kind)
    lanes = Lanes(lanes_of(ms))
    assert lanes_path(lanes) == kind
    operands = [[0] * len(ms), [m - 1 for m in ms]]
    operands += [[rng.randrange(m) for m in ms] for _ in range(3)]
    top = (1 << 62) - 1
    extras = [[e] * len(ms) for e in (0, top, -top)]
    extras += [[rng.randint(-top, top) for _ in ms], None]

    def check(pairs, extra):
        lane_pairs = [(lanes_of(a), lanes_of(b)) for a, b in pairs]
        got = lanes.dot(lane_pairs, None if extra is None else lanes_of(extra))
        extra = extra or [0] * len(ms)
        want = [(sum(a[j] * b[j] for a, b in pairs) + extra[j]) % m for j, m in enumerate(ms)]
        assert got.tolist() == want

    for a, b in itertools.product(operands, repeat=2):
        for extra in extras:
            check([(a, b)], extra)
    for _ in range(100):
        n = rng.randint(2, 3)
        check([(rng.choice(operands), rng.choice(operands)) for _ in range(n)], rng.choice(extras))
    if kind == "digits":
        return
    # mulmod, the one pair of the balanced Z/m powers below 2^50: x and y
    # in (-m, m) give |r| < 0.875 m; x times an entry y of the table of a base at
    # each width boundary of the largest modulus (near 2^25 or 2^50), negative ones
    # too, gives |r| < (0.5 + 2^-13) m; a rounded quotient, never a truncated one
    balanced = operands + [[-c for c in x] for x in operands] + [[1] * len(ms), [-1] * len(ms)]

    def check_mulmod(x, y, bound):
        got = lanes.mulmod(lanes_of(x), lanes_of(y)).tolist()
        assert [(r - a * b) % m for r, a, b, m in zip(got, x, y, ms)] == [0] * len(ms)
        assert max(abs(r) / m for r, m in zip(got, ms)) < bound

    for x, y in itertools.product(balanced, repeat=2):
        check_mulmod(x, y, 0.875)
    for w in (3, 2, 1):
        a = bisect.bisect(range(1 << 62), False, key=lambda a: len(lanes.table((a,)) or ()) < 1 << w) - 1
        for c in (c for base in (a, -a) for (c,) in lanes.table((base,))):
            for x in balanced:
                check_mulmod(x, [c] * len(ms), 0.5 + 2**-13)


def test_lanes_path_follows_the_largest_modulus():
    # exact int64 below 2^25, the float quotient below 2^50, and base-q digits
    # from there, where every modulus must be a square q^2 below 2^60
    for ms, path in (([3, MULMOD_PMAX - 1], "exact"), ([], "exact"), ([3, MULMOD_PMAX], "float"),
                     ([3, (1 << 50) - 1], "float"), ([9, 1 << 50], "digits"),
                     ([4, ((1 << 30) - 1) ** 2], "digits")):
        lanes = Lanes(lanes_of(ms))
        # Lanes.pow runs Z/m on balanced residues by mulmod where minv is set, below 2^50
        assert lanes_path(lanes) == path and (lanes.minv is not None) == (path != "digits"), ms
        assert lanes.balanced == (path != "digits"), ms
    assert Lanes(lanes_of([9, 1 << 50])).q.tolist() == [3, 1 << 25]
    for ms in ([(1 << 50) + 1], [3, 1 << 50], [1 << 60], [9, (1 << 62) - 1]):
        with pytest.raises(ValueError, match="squares below 2\\^60"):
            Lanes(lanes_of(ms))
    # the squares of ring powers: balanced (Lanes._square) below 2^40 with F < 64 and
    # (2d + 2)(d + (d - 1)F) <= 2^12, with the same answer on either side of 2^25 (x^2 + 7
    # and x^7 - 1 included), by dot from 2^40, for F >= 64 (x^3 + 4095 at any top, no lanes
    # included) and on the digit path
    for top in (MULMOD_PMAX - 1, MULMOD_PMAX):
        for f, balanced in (((-1, -1, 0), True), ((6, 0), True), ((7, 0), True),
                            ((-1,) + (0,) * 6, True), ((4095, 0, 0), False)):
            assert Lanes(lanes_of([3, top]), f).balanced == balanced, (top, f)
    for ms, f, balanced in (
            ([3, 1_048_512], (4095, 0, 0), False),
            ([3, 1_048_513], (4095, 0, 0), False),
            ([], (4095, 0, 0), False),
            ([], (-1, -1, 0), True),
            ([3, (1 << 40) - 1], (63, 0), True),
            ([3, (1 << 40) - 1], (64, 0), False),
            ([3, (1 << 40) - 1], (63, 0, 0), True),
            ([3, 1 << 40], (63, 0), False),
            ([3, (1 << 50) - 1], (-1, -1, 0), False),
            ([9, 1 << 50], (-1, -1, 0), False)):
        assert Lanes(lanes_of(ms), f).balanced == balanced, (ms, f)


def test_digit_path_bounds():
    # every p^2 of the scans takes the digit path; at q = 2^25 and q = 2^30 - 1,
    # dot on 1 to 13 pairs (a product of degree 13 has 13) of the largest operands
    # it takes, a = m - 1 and b = 2m - 1 (the doubled operand of square), and on lanes
    # of operands with the largest low digit q - 1 and random high digits, whose
    # middle sums leave residues mod q of any size, with extra m - 1 and +-(2^62 - 1)
    assert RANGE_LIMIT**2 < 1 << 60
    rng = random.Random(71)
    for q in (1 << 25, (1 << 30) - 1):
        m = q * q
        lanes = Lanes(lanes_of([m] * 16))
        assert lanes.q.tolist() == [q] * 16
        x = [m - 1] + [q - 1 + q * rng.randrange(q) for _ in range(15)]
        y = [2 * m - 1] + [q - 1 + q * rng.randrange(2 * q) for _ in range(15)]
        a, b = lanes_of(x), lanes_of(y)
        for n, extra in itertools.product(range(1, 14), (m - 1, (1 << 62) - 1, 1 - (1 << 62))):
            got = lanes.dot([(a, b)] * n, lanes_of([extra] * 16))
            assert got.tolist() == [(n * u * v + extra) % m for u, v in zip(x, y)], (q, n, extra)
        a, b = lanes_of([m - 1]), lanes_of([2 * m - 1])
        square = Lanes(lanes_of([m]), (-2, 0)).square((a, a))
        assert _transpose(square) == [mul2((m - 1, m - 1), (m - 1, m - 1), (-2, 0), m)]


def test_residues_of_any_size():
    # one int64 % below 2^63 in absolute value, one Python % per lane beyond
    ms = moduli("digits")
    for c in (0, -1, 2, (1 << 63) - 1, 1 - (1 << 63), 1 << 63, -(1 << 63), 10**30 + 7, -(10**30 + 7)):
        got = residues(c, lanes_of(ms))
        assert got.dtype == np.int64 and got.tolist() == [c % m for m in ms], c
    assert residues(10**30, lanes_of([])).tolist() == []


# -- per-constant tables: (a/p) and c^-1 mod p without a lane power -----------------

# primes of the small scans, across 2^25, where the p^2 lanes leave the float quotient
# for base-p digits, and of the last chunk below RANGE_LIMIT
TABLE_WINDOWS = {"small": PrimeRange(3, 200_000), "straddle": PrimeRange(MULMOD_PMAX - 3000, MULMOD_PMAX + 3000),
                 "near_limit": PrimeRange(RANGE_LIMIT - 20_000, RANGE_LIMIT)}
# legendre's table has 4|a| entries: the largest constant with a table, the smallest
# without, and two past both
TABLE_EDGES = (1 << 14, -((1 << 14) + 1), -(1 << 16), (1 << 16) + 1)


@pytest.fixture(scope="module")
def table_constants(quad_records, cubic_records):
    """Every bundled D and Delta, small constants and TABLE_EDGES."""
    return sorted({*quad_records, *cubic_records, 1, -1, 2, -4, *TABLE_EDGES})


@pytest.mark.parametrize("window", TABLE_WINDOWS)
def test_legendre_matches_builtin_pow(window, table_constants, monkeypatch):
    # (a/p) against Euler's criterion, by builtin pow, on each window: from the
    # table, with no lane power, for the constants within TABLE_MAX; by Lanes.pow
    # past it, and for every constant with the bound at 0: both branches give
    # the same arrays
    ps = list(primes_in(TABLE_WINDOWS[window]))
    powers, power = [], Lanes.pow

    def counted(lanes, *args, **kwargs):
        powers.append(args)
        return power(lanes, *args, **kwargs)

    monkeypatch.setattr(Lanes, "pow", counted)
    for c in table_constants:
        symbols = [{0: 0, 1: 1, p - 1: -1}[pow(c, (p - 1) // 2, p)] for p in ps]
        for bound in (TABLE_MAX, 0):
            monkeypatch.setattr(order_arith, "TABLE_MAX", bound)
            powers.clear()
            got = legendre(c, lanes_of(ps))
            assert got.dtype == np.int8 and got.tolist() == symbols, (c, bound)
            assert len(powers) == (4 * abs(c) > bound), (c, bound)


# -- the lane ring: Z/m (f = ()) and (Z/m)[x]/(f), on every lane kind --------------

# reductions (f0, f1[, f2]) of monic f; the "bound" ones have a fold column
# sum of 4095 = 2^12 - 1, the largest that folds by one exact extra term
RING_POLYS = {
    "x2-2": (-2, 0),
    "x2-x-1": (-1, -1),
    "x2-4095x+4095 bound": (4095, -4095),
    "x3-x-1": (-1, -1, 0),
    "x3+x2+x-2": (-2, 1, 1),
    "x3+4095 bound": (4095, 0, 0),
    "x3-23 shifted by 6": (209, 107, 18),
    "x2-11": (-11, 0),  # the unit 10 + 3 sqrt(11) of its constants crosses 2^12 at the cube
    "x2-4098 pair fold": (-4098, 0),
    "x3-23 shifted by 7 pair fold": (335, 146, 21),
}
RINGS = {"Zm": (), **RING_POLYS}

# exponents 0, 1, 2^k - 1 and 2^k, of bit lengths on and off the multiples of 3
EDGE_EXPS = [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 32, 63, 64, 255, 256, (1 << 17) - 1, 1 << 17,
             (1 << 18) - 1, 1 << 18, (1 << 40) - 1, 1 << 40, (1 << 61) - 1, 1 << 61]

# the exact constants of the scans and 2^62 - 1, past every width: Wieferich
# bases and the Delta and D of the Legendre tests in Z/m; in the rings, padded
# with zeros, x of the inertness test, units and coefficient sums near 2^12
SCALAR_CONSTANTS = [(0,), (1,), (-1,), (2,), (3,), (-23,), (-108,), ((1 << 62) - 1,)]
RING_CONSTANTS = [(0, 1), (-1, 1), (3, 2), (-23, -108), (17, 12), (4095, 0), (4096, 0),
                  ((1 << 62) - 1, 5), (10, 3)]


def test_fold_rows_and_int64_rule():
    assert fold_rows(()) == []  # Z/m: nothing folds
    assert fold_rows((-2, 0)) == [(2, 0)]
    assert fold_rows((-1, -1, 0)) == [(1, 1, 0), (0, 1, 1)]  # x^3 = 1 + x, x^4 = x + x^2
    assert fold_rows((209, 107, 18)) == [(-209, -107, -18), (3762, 1717, 217)]
    # a fold column sum below 2^12 (the "bound" rings: 4095) folds by one exact
    # extra term below 2^50; 2^12 or more (one past the bound, in either row),
    # or the digit path, folds through dot pairs of per-lane residues
    exact, float_, digits = (lanes_of(ms) for ms in ([3, MULMOD_PMAX - 1], [3, (1 << 50) - 1],
                                                      [9, 1 << 50]))
    over = [f for k, f in RING_POLYS.items() if k.endswith("pair fold")]
    over += [(-4096, 0), (0, 4096), (4096, 0, 0), (0, 0, 64)]
    for f in [*RING_POLYS.values()] + over:
        for m in (exact, float_):
            assert (Lanes(m, f).lane_folds is not None) == (f in over), f
        assert Lanes(digits, f).lane_folds is not None, f
    residue_folds = lambda f, m: [[(j, c.tolist()) for j, c in fold] for fold in Lanes(m, f).lane_folds]
    # on the digit path each entry is held split once, as its base-q digits (c // q, c % q)
    assert [[(j, [c1.tolist(), c0.tolist()]) for j, (c1, c0) in fold]
            for fold in Lanes(digits, (-2, 0)).lane_folds] == [[(0, [[0, 0], [2, 2]])], []]
    assert residue_folds((-4096, 0), exact) == [[(0, [4096 % 3, 4096])], []]


def _transpose(lanes):
    return list(zip(*(c.tolist() for c in lanes)))


def lane_ring(f, ms):
    """The ring Lanes(m, f) on lanes of the moduli ms, then the tuple references
    mod m: product and power (of ints by builtin pow in Z/m, f = ())."""
    ring = Lanes(lanes_of(ms), f)
    if not f:
        return ring, lambda a, b, m: (a[0] * b[0] % m,), lambda a, e, m: (pow(a[0], e, m),)
    mul = mul2 if len(f) == 2 else mul3
    return ring, lambda a, b, m: mul(a, b, f, m), lambda a, e, m: poly_pow(a, e, f, m)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("f", RINGS.values(), ids=RINGS.keys())
def test_ring_lanes_match_scalar(kind, f):
    # mul, square and pow of residues, one lane per modulus, against the tuple
    # references: the first lanes hold 0, all-(m - 1) and 1, exponents 0 to 3
    # lead the random ones, and all-0 and all-1 exponents follow; one more
    # element holds m - 1 on every lane, up to the largest modulus of each path
    # (33,554,393, the largest prime below 2^25, and its square); rings also
    # raise the exact x and apply images
    rng = random.Random(43)
    ms, d = moduli(kind), max(len(f), 1)
    ring, mul, scalar_pow = lane_ring(f, ms)

    def elements(out=None):
        """One element per lane, as tuples and as the ring's lanes."""
        out = out or [(0,) * d, (ms[1] - 1,) * d, (1,) + (0,) * (d - 1)] + [
            tuple(rng.randrange(m) for _ in range(d)) for m in ms[3:]]
        return out, tuple(lanes_of([x[k] for x in out]) for k in range(d))

    (a, la), (b, lb) = elements(), elements()
    top = elements([(m - 1,) * d for m in ms])
    assert kind == "digits" or max(ms) in (33_554_393, 33_554_393**2)
    assert _transpose(ring.mul(la, lb)) == [mul(x, y, m) for x, y, m in zip(a, b, ms)]
    for x, lx in ((a, la), top):
        assert _transpose(ring.square(lx)) == [mul(y, y, m) for y, m in zip(x, ms)]
    exps = [0, 1, 2, 3] + [rng.randrange(1 << rng.randint(1, 62)) for _ in ms[4:]]
    for x, lx in ((a, la), (b, lb), top):
        for es in (exps, [0] * len(ms), [1] * len(ms)):
            assert _transpose(ring.pow(lx, lanes_of(es))) == [
                scalar_pow(y, k, m) for y, k, m in zip(x, es, ms)]
    none = lanes_of([])
    assert all(c.size == 0 for c in Lanes(none, f).pow((none,) * d, none))
    if d == 1:
        return
    x = (0, 1) + (0,) * (d - 2)
    assert _transpose(ring.pow(x, lanes_of(exps))) == [
        scalar_pow(x, k, m) for k, m in zip(exps, ms)]
    images = [elements() for _ in range(d - 1)]
    want = [tuple((c[0] * (k == 0) + sum(c[i] * s[0][j][k] for i, s in enumerate(images, 1))) % m
                  for k in range(d)) for j, (c, m) in enumerate(zip(a, ms))]
    assert _transpose(ring.apply(la, [s[1] for s in images])) == want


def exact_powers(a, f, n):
    """a^0, ..., a^(n - 1) in Z[x]/(f), exact, by schoolbook products and
    x^k = -x^(k-d) * (f0 + f1 x + ...) from the top down (plain ints for f = ())."""
    d = max(len(f), 1)
    out = [(1,) + (0,) * (d - 1)]
    while len(out) < n:
        c = [0] * (2 * d - 1)
        for i, u in enumerate(out[-1]):
            for j, v in enumerate(a):
                c[i + j] += u * v
        for k in range(2 * d - 2, d - 1, -1):
            for i, fi in enumerate(f):
                c[k - d + i] -= c[k] * fi
        out.append(tuple(c[:d]))
    return out


def fold_weight(f):
    """F, the largest column sum of |fold_rows(f)| (0 for Z/m)."""
    return max((sum(abs(r[k]) for r in fold_rows(f)) for k in range(len(f))), default=0)


def table_width(a, f, top):
    """The width rule of Lanes.table: the widest w <= 3 whose exact powers a^0,
    ..., a^(2^w - 1) keep (sum of |a^k| + F) * top below 2^63, F = fold_weight(f);
    0 when a^1 misses."""
    fold = fold_weight(f)
    fits = [(sum(map(abs, t)) + fold) * top < 1 << 63 for t in exact_powers(a, f, 8)]
    return max([w for w in (1, 2, 3) if all(fits[:1 << w])], default=0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("f", RINGS.values(), ids=RINGS.keys())
def test_ring_exact_digit_pow_matches_poly_pow(kind, f):
    # a d-tuple of ints is one exact constant: its table of exact powers is as wide
    # as table_width allows, and past w = 1 the lanes fall back to residues; the
    # constants of the scans, and (a, 0, ...) on each side of every width of the
    # largest modulus
    rng = random.Random(53)
    ms, d = moduli(kind), max(len(f), 1)
    ring, _, scalar_pow = lane_ring(f, ms)
    pad = lambda a: a + (0,) * (d - len(a))
    top = max(ms)
    constants = list(SCALAR_CONSTANTS if d == 1 else RING_CONSTANTS)
    for w in (3, 2, 1):  # the largest a whose (a, 0, ...) takes a table of width w or more
        a = bisect.bisect(range(1 << 62), False, key=lambda a: table_width(pad((a,)), f, top) < w) - 1
        constants += [(a,), (-a,), (a + 1,), (-a - 1,)]
    exps = EDGE_EXPS + [rng.randrange(1 << rng.randint(1, 62)) for _ in ms[len(EDGE_EXPS):]]
    widths = {}
    for a in constants:
        widths[a] = w = table_width(pad(a), f, top)
        assert ring.table(pad(a)) == (exact_powers(pad(a), f, 1 << w) if w else None), a
        assert _transpose(ring.pow(pad(a), lanes_of(exps))) == [
            scalar_pow(pad(a), e, m) for e, m in zip(exps, ms)], a
        for e in EDGE_EXPS if d == 1 else [(1 << 17) - 1]:  # on every lane at once
            assert _transpose(ring.pow(pad(a), lanes_of([e] * len(ms)))) == [
                scalar_pow(pad(a), e, m) for m in ms], (a, e)
    assert all(c.size == 0 for c in Lanes(lanes_of([]), f).pow(pad((-108,)), lanes_of([])))
    if (1 + fold_weight(f)) * top >= 1 << 63:  # near 2^60 a fold weight of 8 or more: no table
        assert set(widths.values()) == {0}
    else:  # near 2^60 no constant of x^3 - x - 1 takes w = 2
        assert set(widths.values()) >= ({0, 1, 3} if kind == "digits" else {0, 1, 2, 3})
    if d == 1:
        return
    # (4096, 0) fits as well as (4095, 0), where a fixed cap of 2^12 on the
    # coefficient sums refused it: w = 2 below 2^25, w = 1 near 2^50, none near 2^60
    if fold_weight(f) < 1 << 12:
        assert [widths[a] for a in RING_CONSTANTS[5:8]] == {
            "exact": [2, 2, 0], "float": [1, 1, 0], "digits": [0, 0, 0]}[kind]
    if f == RING_POLYS["x2-2"]:
        assert [widths[a] for a in RING_CONSTANTS] == {
            "exact": [3, 3, 3, 2, 3, 2, 2, 0, 3], "float": [3, 3, 2, 1, 1, 1, 1, 0, 2],
            "digits": [2, 1, 1, 0, 0, 0, 0, 0, 0]}[kind]
    if f == RING_POLYS["x2-11"]:  # the fixed cap held 10 + 3 sqrt(11) to w = 1
        assert widths[(10, 3)] == {"exact": 3, "float": 2, "digits": 0}[kind]
    if kind != "exact" and f in (RING_POLYS["x2-4095x+4095 bound"], RING_POLYS["x3+4095 bound"]):
        assert widths[(0, 1)] < 3  # the table of x narrows near 2^50


# -- ring powers on either side of each cut of their squares (Lanes._square) -------

def primes_around(cut, n=8):
    """The n largest primes below the cut and the n smallest from it on."""
    return (list(primes_in(PrimeRange(max(cut - 2000, 2), cut - 1)))[-n:],
            list(primes_in(PrimeRange(cut, cut + 2000)))[:n])


# the cuts of the ring powers, in p, and whether the moduli are p^2 (else p): balanced
# squares on int64 lanes with float64 twins below 2^40 = (2^20)^2 for F < 64, dot elsewhere;
# a ring changes regime at the 2^40 cut when F < 64, and keeps it across the 2^25 cut of dot
POW_CUTS = {"balanced": (1 << 20, True), "exact to float": (MULMOD_PMAX, False)}


def square_regime(f, top):
    """Lanes(m, f).balanced by its largest modulus, below 2^50: Z/m always, a ring below 2^40
    for F < 64 and within (2d + 2)(d + (d - 1)F) <= 2^12 (Lanes._square)."""
    d, F = max(len(f), 1), fold_weight(f)
    return d == 1 or top < 1 << 40 and F < 64 and (2 * d + 2) * (d + (d - 1) * F) <= 1 << 12


@pytest.fixture
def lane_kinds(monkeypatch):
    """The dtypes of the lanes each Lanes.pow starts from (the output of first), squares and
    multiplies, one set per power: a leading digit may cover the whole exponent, with no square."""
    kinds, power = [], order_arith.pow_lanes

    def spied(e, w, n, first, square, times):
        kinds.append(seen := set())
        watch = lambda r: (seen.update(c.dtype.name for c in r), r)[1]
        return power(e, w, n, lambda d: watch(first(d)), lambda r: square(watch(r)), lambda r, d: times(watch(r), d))

    monkeypatch.setattr(order_arith, "pow_lanes", spied)
    return kinds


@pytest.mark.parametrize("cut", POW_CUTS)
@pytest.mark.parametrize("f", RING_POLYS.values(), ids=RING_POLYS.keys())
def test_ring_pow_on_either_side_of_each_cut(f, cut, lane_kinds):
    # pow against poly_pow in every ring on the 8 largest moduli below each cut and
    # the 8 smallest from it on: all-(m - 1) and random elements as residues, and the
    # exact constants by their tables, to the exponents 2^k - 1, so that every square
    # follows a digit product whose output may be near m; each power on int64 lanes
    rng = random.Random(61)
    d, (p, square) = len(f), POW_CUTS[cut]
    exps = lanes_of([(1 << k) - 1 for k in (1, 2, 3, 5, 18, 40, 62, 63)])
    regimes = []
    for ps in primes_around(p):
        ms = [q * q for q in ps] if square else ps
        ring, _, scalar_pow = lane_ring(f, ms)
        regimes.append(ring.balanced)
        assert regimes[-1] == square_regime(f, max(ms)), ps
        for x in ([(m - 1,) * d for m in ms], [tuple(rng.randrange(m) for _ in range(d)) for m in ms]):
            lx = tuple(lanes_of(c) for c in zip(*x))
            got = ring.pow(lx, exps)
            assert _transpose(got) == [scalar_pow(y, e, m) for y, e, m in zip(x, exps.tolist(), ms)]
            assert lane_kinds[-1] == {"int64"}, ps
        for a in RING_CONSTANTS:
            a += (0,) * (d - len(a))
            assert _transpose(ring.pow(a, exps)) == [scalar_pow(a, e, m) for e, m in zip(exps.tolist(), ms)], a
            assert lane_kinds[-1] == {"int64"}, (ps, a)
    if cut == "balanced":
        assert (regimes[0] != regimes[1]) == (fold_weight(f) < 64), regimes
    else:  # one regime on either side of 2^25
        assert regimes[0] == regimes[1], regimes


@pytest.mark.parametrize("f", [RING_POLYS["x2-x-1"], RING_POLYS["x3-x-1"], (63, 0), (63, 0, 0)],
                         ids=["x2-x-1", "x3-x-1", "x2+63", "x3+63"])
def test_balanced_square_within_its_bound(f):
    # one balanced square of every element with coefficients +-(m - 1) and
    # +-floor(m/2), on the largest moduli below 2^40, for F = 1, 2 and the
    # largest F = 63: congruent to the product, and |r| < 0.62 m (Lanes._square);
    # a rounded quotient, never a truncated one
    d = len(f)
    mul = mul2 if d == 2 else mul3
    ms = [p * p for p in primes_around(1 << 20)[0]]
    ring = Lanes(lanes_of(ms), f)
    assert ring.balanced
    for signs in itertools.product(range(4), repeat=d):
        x = [tuple((m - 1, 1 - m, m // 2, -(m // 2))[s] for s in signs) for m in ms]
        got = _transpose(ring._square(tuple(lanes_of(c) for c in zip(*x))))
        for r, y, m in zip(got, x, ms):
            assert [(c - w) % m for c, w in zip(r, mul(y, y, f, m))] == [0] * d, (m, y)
            assert max(map(abs, r)) < 0.62 * m, (m, y, r)


# -- any degree: x^d - 1 and x^d + 63 against a schoolbook product ------------------

GRID_DEGREES = (2, 3, 4, 7, 10, 13)


def grid_moduli():
    """Eight or more moduli on each side of each cut, 2^25 (exact to float, m = p),
    2^40 = (2^20)^2 (balanced squares to dot) and 2^50 = (2^25)^2 (float to digits),
    and on the digit path the squares of the primes of [1e9 - 400, 1e9] and
    (2^30 - 1)^2, the largest square below 2^60."""
    (below, above), (low, high) = primes_around(MULMOD_PMAX), primes_around(1 << 20)
    squares = lambda ps: [p * p for p in ps]
    return {"below 2^25": below, "from 2^25": above, "below 2^40": squares(low), "from 2^40": squares(high),
            "below 2^50": squares(below), "from 2^50": squares(above),
            "near 1e9": squares(primes_in(PrimeRange(RANGE_LIMIT - 400, RANGE_LIMIT))),
            "(2^30 - 1)^2": [((1 << 30) - 1) ** 2] * 8}


@pytest.mark.parametrize("F", [1, 63], ids=["x^d-1", "x^d+63"])
@pytest.mark.parametrize("d", GRID_DEGREES)
def test_any_degree_lanes_match_schoolbook(d, F):
    # mul of every pair and square and pow (exponents 2^k - 1) of each of the
    # all-(m - 1), (m - 1 - k)_k and random elements, and pow of the exact constant
    # 1 + x, against long division by the monic f, on each side of each cut; the
    # squares are balanced below 2^40 for F < 64 within their bound (Lanes._square):
    # x^d - 1 at every d here and x^d + 63 to d = 4, not from d = 7 on; F = 64 never
    rng = random.Random(67)
    f = (-1 if F == 1 else F,) + (0,) * (d - 1)
    poly, one_plus_x = f + (1,), (1, 1) + (0,) * (d - 2)
    assert fold_weight(f) == F
    within = (2 * d + 2) * (d + (d - 1) * F) <= 1 << 12
    assert within == (F == 1 or d <= 4)
    exps = [(1 << k) - 1 for k in (1, 2, 3, 5, 8, 13, 21, 30)]  # to 2^30 - 1, the size of p to 1e9
    for name, ms in grid_moduli().items():
        ring = Lanes(lanes_of(ms), f)
        assert ring.balanced == square_regime(f, max(ms)), name
        assert name not in ("below 2^25", "from 2^25") or ring.balanced == within, name
        assert not Lanes(lanes_of(ms), (64,) + (0,) * (d - 1)).balanced, name
        es = [exps[i % len(exps)] for i in range(len(ms))]
        elements = [[(m - 1,) * d for m in ms], [tuple(m - 1 - k for k in range(d)) for m in ms],
                    [tuple(rng.randrange(m) for _ in range(d)) for m in ms]]
        lanes = [tuple(lanes_of(c) for c in zip(*x)) for x in elements]
        for (x, lx), (y, ly) in itertools.product(zip(elements, lanes), repeat=2):
            want = [poly_mulmod(u, v, poly, m) for u, v, m in zip(x, y, ms)]
            assert _transpose(ring.mul(lx, ly)) == want, name
        for x, lx in zip(elements, lanes):
            assert _transpose(ring.square(lx)) == [poly_mulmod(u, u, poly, m) for u, m in zip(x, ms)], name
            want = [poly_powmod(u, e, poly, m) for u, e, m in zip(x, es, ms)]
            assert _transpose(ring.pow(lx, lanes_of(es))) == want, name
        want = [poly_powmod(one_plus_x, e, poly, m) for e, m in zip(es, ms)]
        assert _transpose(ring.pow(one_plus_x, lanes_of(es))) == want, name


# -- no float64 lanes: every power on int64 lanes, below 2^25 as from it ------------------

# Z/m, then x^d + F (x^d at F = 0) for d = 2, 3, 7; F = 2^20 squares by dot with per-lane fold entries
FLOAT_RINGS = [(1, 0)] + [(d, F) for d in (2, 3, 7) for F in (0, 1, 8, 30, 63, 1 << 20)]


@pytest.mark.parametrize("d, F", FLOAT_RINGS, ids=[f"d{d}-F{F}" for d, F in FLOAT_RINGS])
def test_float64_lanes_either_side_of_their_cut(d, F, lane_kinds, monkeypatch):
    # pow on int64 lanes on either side of 2^25, the cut below which it once ran on float64
    # lanes, against the schoolbook power: on the 8 largest primes below 2^7 (where mulmod by a
    # table entry may leave |r| >= m) and below 2^14, the 8 smallest from 2^14, the 8 largest
    # below 2^25 with 2^25 - 1, and the 8 smallest from 2^25; the all-(m - 1), (m - 1 - k)_k and
    # random residues, 1 + x, and the constants a and a + 1 on either side of the table bound
    # of the largest modulus (a table [1, a], and none), to exponents 2^k - 1 and 2^k; residues
    # take w = 1, so each of their powers squares, by mulmod or _square exactly where balanced
    rng = random.Random(83)
    reductions = []
    for name in ("mulmod", "_square"):
        monkeypatch.setattr(Lanes, name, lambda self, *x, run=getattr(Lanes, name): (reductions.append(1), run(self, *x))[1])
    f = (F,) + (0,) * (d - 1) if d > 1 else ()
    poly = (f or (0,)) + (1,)
    assert fold_weight(f) == F
    (tiny, _), (small, above_small), (below, above) = map(primes_around, (1 << 7, 1 << 14, MULMOD_PMAX))
    sets = {"below 2^7": tiny, "below 2^14": small, "from 2^14": above_small,
            "at 2^25 - 1": below + [MULMOD_PMAX - 1], "from 2^25": above}
    exps = [(1 << k) - j for k in (1, 2, 3, 5, 8, 13, 21, 30) for j in (1, 0)]
    pad = lambda a: a + (0,) * (d - len(a))
    for name, ms in sets.items():
        top = max(ms)
        ring = Lanes(lanes_of(ms), f)
        assert ring.balanced == square_regime(f, top) and ring.exact == (top < MULMOD_PMAX), name
        edge = ((1 << 63) - 1) // top - F  # the largest a whose table [1, a] keeps (a + F) * top < 2^63
        elements = [[(m - 1,) * d for m in ms], [tuple(m - 1 - k for k in range(d)) for m in ms],
                    [tuple(rng.randrange(m) for _ in range(d)) for m in ms]]
        constants = [pad((1, 1)[:d]), pad((edge,)), pad((edge + 1,))]
        assert [table_width(a, f, top) for a in constants[1:]] == [1, 0], name
        for es in (exps[:len(ms)], exps[len(ms):] + exps[:2 * len(ms) - len(exps)]):
            for a in [tuple(lanes_of(c) for c in zip(*x)) for x in elements] + constants:
                reductions.clear()
                got = _transpose(ring.pow(a, lanes_of(es)))
                assert isinstance(a[0], int) or bool(reductions) == ring.balanced, (name, a)
                lane = lambda j: tuple(c if isinstance(c, int) else int(c[j]) for c in a)
                assert got == [poly_powmod(lane(j), e, poly, m) for j, (e, m) in enumerate(zip(es, ms))], (name, a)
                assert lane_kinds[-1] == {"int64"}, (name, a)


def test_mulmod_by_table_entries_on_small_moduli():
    # x in (-m, m) times the entries y of the widest tables of a base (|y| < 2^63 / max m): q is
    # off by at most 0.5 + 2^12.01 / max m, so |r| < m from max m = 2^14, and below it |r| may
    # pass m (it does below 2^7) but stays below m/2 + 2^12.01, and the square of r is back in (-m, m)
    for ms in (primes_around(1 << 7)[0], primes_around(1 << 14)[0], primes_around(1 << 14)[1]):
        lanes, top, passed = Lanes(lanes_of(ms)), max(ms), False
        xs = [[m - 1 for m in ms], [1 - m for m in ms], [m // 2 for m in ms], [1] * len(ms)]
        for w in (3, 2, 1):
            a = bisect.bisect(range(1 << 62), False, key=lambda a: len(lanes.table((a,)) or ()) < 1 << w) - 1
            for c in (c for base in (a, -a) for (c,) in lanes.table((base,))):
                for x in xs:
                    r = lanes.mulmod(lanes_of(x), lanes_of([c] * len(ms)))
                    rs = r.tolist()
                    assert [(u - v * c) % m for u, v, m in zip(rs, x, ms)] == [0] * len(ms)
                    assert all(abs(u) < m * (0.5 + 2**12.01 / top) for u, m in zip(rs, ms)), (ms, c)
                    passed |= any(abs(u) >= m for u, m in zip(rs, ms))
                    assert top < 1 << 14 or not passed, (ms, c)
                    squares = lanes.mulmod(r, r).tolist()  # written over r
                    assert all(abs(u) < m and (u - v * v) % m == 0 for u, v, m in zip(squares, rs, ms))
        assert passed == (top < 1 << 7), ms


# -- ring digit products by float quotient: |r| < m/2 + 3.01 * 2^10 m / max m below 2^50 --------

# d = 2 and d = 3 with balanced squares, F = 64 (squared by dot) and F = 2^20 (dot through lane_folds)
DIGIT_RINGS = {"x2-x-1": (-1, -1), "x3-x-1": (-1, -1, 0), "x2+64": (64, 0), "x3+2^20": (1 << 20, 0, 0)}


def digit_moduli():
    """Eight moduli below max m = 2^7, either side of 2^14 (m = p), 2^40 and 2^50 (m = p^2):
    the digit products take the float quotient below 2^50 and % on the digit path from it."""
    (tiny, _), (small, above_small) = primes_around(1 << 7), primes_around(1 << 14)
    (low, high), (below, above) = primes_around(1 << 20), primes_around(MULMOD_PMAX)
    squares = lambda ps: [p * p for p in ps]
    return {"below 2^7": tiny, "below 2^14": small, "from 2^14": above_small, "below 2^40": squares(low),
            "from 2^40": squares(high), "below 2^50": squares(below), "from 2^50": squares(above)}


@pytest.fixture
def pow_events(monkeypatch):
    """Per Lanes.pow, what each square and each digit product (times) returns, in order, as lists."""
    events, power = [], order_arith.pow_lanes

    def spied(e, w, n, first, square, times):
        events.append(seen := [])
        log = lambda kind, r: (seen.append((kind, list(zip(*(c.tolist() for c in r))))), r)[1]
        return power(e, w, n, first, lambda r: log("square", square(r)), lambda r, d: log("times", times(r, d)))

    monkeypatch.setattr(order_arith, "pow_lanes", spied)
    return events


@pytest.mark.parametrize("f", DIGIT_RINGS.values(), ids=DIGIT_RINGS.keys())
def test_ring_digit_products_within_their_bound(f, pow_events):
    # powers of a, -a, a x and a - a x for the largest a of each table width, whose |a^k| sum to
    # about 2^63 / max m: below 2^50 every digit product leaves |r| < m/2 + 3.01 * 2^10 m / max m
    # (Lanes.pow), below 0.69 m from max m = 2^14 and past m below 2^7, where a high r_1 * a passes
    # m too; every square, the one after a digit product included, is back in (-m, m); on the digit
    # path, and with no table (dot), the products stay in [0, m); every power is in [0, m) and
    # matches poly_powmod
    rng = random.Random(97)
    d, poly = len(f), f + (1,)
    for name, ms in digit_moduli().items():
        ring, top, passed = Lanes(lanes_of(ms), f), max(ms), False
        es = [rng.randrange(1 << 30) | 1 << 29 for _ in ms]
        constants = []
        for w, shape in itertools.product((3, 2, 1), ((1,), (-1,), (0, 1), (1, -1))):
            scaled = lambda a: tuple(a * c for c in shape) + (0,) * (d - len(shape))
            a = bisect.bisect(range(1 << 62), False, key=lambda a: table_width(scaled(a), f, top) < w) - 1
            constants.append(scaled(a))
        for a in constants:
            got = _transpose(ring.pow(a, lanes_of(es)))
            assert got == [poly_powmod(a, e, poly, m) for e, m in zip(es, ms)], (name, a)
            assert all(0 <= c < m for r, m in zip(got, ms) for c in r), (name, a)
            assert pow_events[-1], (name, a)
            floats = ring.q is None and ring.table(a) is not None  # else dot (no table) or %
            for kind, lanes in pow_events[-1]:
                # balanced: _square or a float-quotient product, else dot or % in [0, m)
                balanced = ring.balanced if kind == "square" else floats
                for r, m in zip(lanes, ms):
                    bound = m if kind == "square" else m / 2 + 3.01 * 2**10 * m / top
                    assert all(abs(c) < bound if balanced else 0 <= c < m for c in r), (name, a, kind, m, r)
                    passed |= kind == "times" and max(map(abs, r)) >= m
        assert passed == (name == "below 2^7"), name


def test_huge_fold_weight_keeps_int64_remainders():
    # x^2 + 2^56 on the primes 7 to 31 and 1 + a x, (1 + a + F) * max m just below 2^63: a high
    # r_1 * a reduced by the float quotient would reach |h| = 758 at m = 29, and its fold by 2^56
    # passes 2^63 from |h| = 2^7; from F = 2^38 the digit products keep % (Lanes.pow), and the powers
    # match poly_powmod
    f, ms = (1 << 56, 0), primes_around(1 << 5)[0]
    a = (1, (1 << 63) // max(ms) - (1 << 56) - 2)
    ring = Lanes(lanes_of(ms), f)
    assert table_width(a, f, max(ms)) == 1 and ring.fold_weight == 1 << 56
    es = [(1 << k) - 1 for k in (2, 3, 5, 8, 13, 21, 30, 40)]
    assert _transpose(ring.pow(a, lanes_of(es))) == [poly_powmod(a, e, f + (1,), m) for e, m in zip(es, ms)]


# -- the leading table of Lanes.pow: exact powers while every coefficient fits one int64 % --

def leading_length(a, f):
    """n, the exact powers a^0, ..., a^(n - 1) kept while every coefficient has |c| < 2^63, at most 64."""
    return next((k for k, t in enumerate(exact_powers(a, f, 65)) if max(map(abs, t)) >= 1 << 63), 64)


@pytest.fixture
def pow_steps(monkeypatch):
    """Per Lanes.pow: the length n of its leading table, the dtype of the lanes first returns,
    and its numbers of squares and digit products."""
    steps, power = [], order_arith.pow_lanes

    def spied(e, w, n, first, square, times):
        steps.append(step := {"n": n, "squares": 0, "products": 0})

        def start(d):
            r = first(d)
            step["dtype"] = r[0].dtype.name
            return r

        def count(key, run):
            return lambda *args: (step.update({key: step[key] + 1}), run(*args))[1]

        return power(e, w, n, start, count("squares", square), count("products", times))

    monkeypatch.setattr(order_arith, "pow_lanes", spied)
    return steps


# a constant, its ring and the length of its leading table: 2 and 3 in Z/m (2^62 and 3^39 last),
# 1 + sqrt 2, and -1 in Z/m and the root x of x^3 - x - 1, whose powers stay below 2^24 to x^63,
# at the cap of 64 entries
LEADING_CONSTANTS = {"2": ((), (2,), 63), "3": ((), (3,), 40), "-1": ((), (-1,), 64),
                     "1+sqrt2": ((-2, 0), (1, 1), 51), "x3-x-1 root": ((-1, -1, 0), (0, 1, 0), 64)}


# the 8 largest primes below 2^25 (where pow once ran on float64 lanes) and the 8 smallest from it
@pytest.mark.parametrize("below", [True, False], ids=["float64", "int64"])
@pytest.mark.parametrize("name", LEADING_CONSTANTS)
def test_leading_table_either_side_of_its_cut(name, below, pow_steps):
    # on int64 lanes either side of 2^25 the leading table keeps the exact powers while every
    # coefficient has |c| < 2^63, at most 64: powers whose largest exponent leads with the
    # table's last index n - 1, to the full later digits, and with n, one past it, match
    # poly_powmod, and start at the least multiple top of w with e.max() >> top < n: top squares
    # and top / w digit products
    rng = random.Random(89)
    f, a, n = LEADING_CONSTANTS[name]
    ms = primes_around(MULMOD_PMAX)[not below]
    top, poly, w = max(ms), (f or (0,)) + (1,), table_width(a, f, max(ms))
    assert leading_length(a, f) == n and w == 3
    powers = exact_powers(a, f, n + 1)
    assert max(map(abs, powers[n - 1])) < 1 << 63 and (n == 64 or max(map(abs, powers[n])) >= 1 << 63)
    ring = Lanes(lanes_of(ms), f)
    for k in (0, 1, 2, 7):
        for e in (((n - 1) << k * w) + (1 << k * w) - 1, n << k * w):
            es = [e] + [rng.randrange(e + 1) for _ in ms[1:]]
            assert _transpose(ring.pow(a, lanes_of(es))) == [poly_powmod(a, x, poly, m) for x, m in zip(es, ms)]
            start = next(t for t in itertools.count(0, w) if e >> t < n)
            assert pow_steps[-1] == {"n": n, "dtype": "int64", "squares": start, "products": start // w}, e


def test_wide_leading_digit_squares(pow_steps):
    # 2^9,999,990 mod 9,999,991^2: 2^0, ..., 2^62 lead on int64 lanes, so the power starts from
    # 9,999,990 >> 18 = 38 and takes 18 squares and 6 products by 3-bit digits (from >> 21: 21 and 7)
    p = lanes_of([9_999_991])
    assert Lanes(p * p).pow((2,), p - 1)[0].tolist() == [pow(2, 9_999_990, 9_999_991**2)]
    assert pow_steps == [{"n": 63, "dtype": "int64", "squares": 18, "products": 6}]


# -- the Frobenius quotient -------------------------------------------------------

def _frobenius_images(f, p):
    """Whether an unramified p is inert in Z[x]/(f), and the images of x, ...,
    x^(d-1) mod p^2 under the Frobenius sigma at p.  Degree 2: x when it has a
    root mod p, else its conjugate -f1 - x.  Degree 3: the root of f lifted
    from x^p (mod p) by one Newton step s - f(s)/f'(s), with 1/f'(s) taken as
    f'(s)^(p^3 - 2) in F_(p^3)."""
    m = p * p
    if len(f) == 2:
        inert = pow(f[1] * f[1] - 4 * f[0], (p - 1) // 2, p) != 1
        return inert, ((-f[1] % m, m - 1) if inert else (0, 1),)
    xp = poly_pow((0, 1, 0), p, f, p)
    s2 = mul3(xp, xp, f, m)
    fs = [(a + b) % m for a, b in zip(mul3(s2, xp, f, m), ring_apply(f, (xp, s2), m))]
    dinv = poly_pow(ring_apply((f[1], 2 * f[2], 3), (xp, s2), p), p**3 - 2, f, p)
    s1 = tuple((x - p * c) % m for x, c in zip(xp, mul3([c // p for c in fs], dinv, f, p)))
    return xp != (0, 1, 0), (s1, mul3(s1, s1, f, m))


# f, a unit of Z[x]/(f) and its inverse: 1 + sqrt 2, the golden ratio, and the
# root of x^3 - x - 1 (Delta = -23), whose inverse is x^2 - 1
QUOTIENT_UNITS = {
    "x2-2": ((-2, 0), (1, 1), (-1, 1)),
    "x2-x-1": ((-1, -1), (0, 1), (-1, 1)),
    "x3-x-1": ((-1, -1, 0), (0, 1, 0), (-1, 0, 1)),
}


@pytest.mark.parametrize("f, unit, inv", QUOTIENT_UNITS.values(), ids=QUOTIENT_UNITS.keys())
def test_frobenius_quotient_rejects_corrupt_inputs(f, unit, inv):
    # the quotient step at split and inert primes, below 2^25 and above: t in
    # O/p, and a wrong inverse or a wrong image raises, naming the prime where
    # w is not 1 mod p
    d = len(f)
    assert (mul2 if d == 2 else mul3)(unit, inv, f, 1 << 80) == (1,) + (0,) * (d - 1)
    identity = tuple(tuple(int(j == k) for j in range(d)) for k in range(1, d))
    for lo in (5, MULMOD_PMAX):
        primes = [p for p in primes_in(PrimeRange(lo, lo + 3000))
                  if poly_discriminant(f + (1,)) % p][:24]
        inert, images = zip(*(_frobenius_images(f, p) for p in primes))
        assert any(inert) and not all(inert)
        for p, s, i in zip(primes, images, inert):
            u = poly_pow(unit, p, f, p * p)
            assert all(0 <= c < p for c in frobenius_quotient(u, inv, s, f, p))
            with pytest.raises(ArithmeticError, match=f"not 1 mod {p}:"):
                frobenius_quotient(u, unit, s, f, p)  # eps is not its own inverse
            if i:
                with pytest.raises(ArithmeticError, match=f"not 1 mod {p}:"):
                    frobenius_quotient(u, inv, identity, f, p)  # sigma is not the identity
