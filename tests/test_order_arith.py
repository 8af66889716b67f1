import bisect
import itertools
import random

import numpy as np
import pytest

from unitscan import order_arith
from unitscan.cubic import _adjugate, _inert_xp
from unitscan.order_arith import (
    MULMOD_PMAX,
    TABLE_MAX,
    Lanes,
    OrderSpec,
    fold_rows,
    frobenius_quotient,
    inverse,
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
from _oracles import count_poly_roots_brute, cubic_is_inert

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
    if kind != "float":
        return
    # mulmod, the one pair of the balanced Z/m powers on the float path: x and y
    # in (-m, m) give |r| < 0.875 m; x times an entry y of the table of a base at
    # each width boundary of the largest modulus, negative ones too, gives
    # |r| < (0.5 + 2^-13) m; a rounded quotient, never a truncated one
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
        # Lanes.pow runs on balanced residues where minv is set: the float path alone
        assert lanes_path(lanes) == path and (lanes.minv is not None) == (path == "float"), ms
    assert Lanes(lanes_of([9, 1 << 50])).q.tolist() == [3, 1 << 25]
    for ms in ([(1 << 50) + 1], [3, 1 << 50], [1 << 60], [9, (1 << 62) - 1]):
        with pytest.raises(ValueError, match="squares below 2\\^60"):
            Lanes(lanes_of(ms))


def test_digit_path_bounds():
    # every p^2 of the scans takes the digit path; at q = 2^25 and q = 2^30 - 1,
    # dot on up to three pairs of the largest operands it takes, a = m - 1 and
    # b = 2m - 1 (the doubled operand of square), with extra m - 1 and +-(2^62 - 1)
    assert RANGE_LIMIT**2 < 1 << 60
    for q in (1 << 25, (1 << 30) - 1):
        m = q * q
        lanes = Lanes(lanes_of([m]))
        assert lanes.q.tolist() == [q]
        a, b = lanes_of([m - 1]), lanes_of([2 * m - 1])
        for n, extra in itertools.product((1, 2, 3), (m - 1, (1 << 62) - 1, 1 - (1 << 62))):
            got = lanes.dot([(a, b)] * n, lanes_of([extra]))
            assert got.tolist() == [(n * (m - 1) * (2 * m - 1) + extra) % m], (q, n, extra)
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
# the largest constants with a table and the smallest without, for each helper:
# legendre's table has 4|a| entries, inverse's |c|
TABLE_EDGES = (1 << 14, -((1 << 14) + 1), -(1 << 16), (1 << 16) + 1)


@pytest.fixture(scope="module")
def table_constants(quad_records, cubic_records):
    """Every bundled D, Delta and det = N(f'(theta)) (= -Delta), small constants and TABLE_EDGES."""
    dets = [_adjugate((f[1], 2 * f[2], 3), f)[1] for f in (r.spec.reduction for r in cubic_records.values())]
    assert dets == [-delta for delta in cubic_records]
    return sorted({*quad_records, *cubic_records, *dets, 1, -1, 2, -4, *TABLE_EDGES})


@pytest.mark.parametrize("window", TABLE_WINDOWS)
def test_legendre_and_inverse_match_builtin_pow(window, table_constants, monkeypatch):
    # (a/p) against Euler's criterion and c^-1 mod p against pow(c, -1, p), by
    # builtin pow, on each window: from the tables, with no lane power, for the
    # constants within TABLE_MAX; by Lanes.pow past it, and for every constant
    # with the bound at 0: both branches give the same arrays
    ps = list(primes_in(TABLE_WINDOWS[window]))
    powers, power = [], Lanes.pow

    def counted(lanes, *args, **kwargs):
        powers.append(args)
        return power(lanes, *args, **kwargs)

    monkeypatch.setattr(Lanes, "pow", counted)
    for c in table_constants:
        symbols = [{0: 0, 1: 1, p - 1: -1}[pow(c, (p - 1) // 2, p)] for p in ps]
        coprime = [p for p in ps if c % p]
        inverses = [pow(c, -1, p) for p in coprime]
        for bound in (TABLE_MAX, 0):
            monkeypatch.setattr(order_arith, "TABLE_MAX", bound)
            powers.clear()
            got = legendre(c, lanes_of(ps))
            assert got.dtype == np.int8 and got.tolist() == symbols, (c, bound)
            got = inverse(c, lanes_of(coprime))
            assert got.dtype == np.int64 and got.tolist() == inverses, (c, bound)
            assert len(powers) == (4 * abs(c) > bound) + (abs(c) > bound), (c, bound)


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
def test_frobenius_quotient_lanes_match_scalar(f, unit, inv):
    # the lane step against the tuple step at split and inert primes, on the
    # exact path below 2^25 and on base-p digits above; both raise on a wrong
    # inverse or a wrong image, naming a prime where w is not 1 mod p
    d = len(f)
    assert (mul2 if d == 2 else mul3)(unit, inv, f, 1 << 80) == (1,) + (0,) * (d - 1)
    identity = tuple(tuple(int(j == k) for j in range(d)) for k in range(1, d))
    for lo, path in ((5, "exact"), (MULMOD_PMAX, "digits")):
        primes = [p for p in primes_in(PrimeRange(lo, lo + 3000))
                  if poly_discriminant(f + (1,)) % p][:24]
        P = lanes_of(primes)
        inert, images = zip(*(_frobenius_images(f, p) for p in primes))
        assert any(inert) and not all(inert)
        ups = [poly_pow(unit, p, f, p * p) for p in primes]
        want = [frobenius_quotient(u, inv, s, f, p) for u, s, p in zip(ups, images, primes)]
        assert all(0 <= c < p for t, p in zip(want, primes) for c in t)
        ring = Lanes(P * P, f)
        assert lanes_path(ring) == path
        cols = lambda rows: tuple(lanes_of(c) for c in zip(*rows))
        up, im = cols(ups), tuple(map(cols, zip(*images)))
        assert _transpose(ring.frobenius_quotient(P, up, inv, im)) == want
        for p, u, s, i in zip(primes, ups, images, inert):
            with pytest.raises(ArithmeticError, match=f"not 1 mod {p}:"):
                frobenius_quotient(u, unit, s, f, p)  # eps is not its own inverse
            if i:
                with pytest.raises(ArithmeticError, match=f"not 1 mod {p}:"):
                    frobenius_quotient(u, inv, identity, f, p)  # sigma is not the identity
        with pytest.raises(ArithmeticError, match=f"not 1 mod {primes[0]}:"):
            ring.frobenius_quotient(P, up, unit, im)
        fixed = tuple(cols([s] * len(primes)) for s in identity)
        with pytest.raises(ArithmeticError, match=f"not 1 mod {primes[inert.index(True)]}:"):
            ring.frobenius_quotient(P, up, inv, fixed)
