"""Independent oracles used by the test suite.

Everything here is deliberately written against different algorithms than
the package (trial division, exhaustive enumeration, reduction cycles of
binary quadratic forms, float embeddings via numpy roots, sympy resultants,
direct powering with schoolbook polynomial arithmetic, reports encoded as
plain dicts and rows) so the two sides of each check share no code path.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from math import isqrt

import numpy as np
import sympy


def trial_division_primes(lo: int, hi: int) -> list[int]:
    out = []
    for n in range(max(lo, 2), hi + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def count_poly_roots_brute(poly, p: int) -> int:
    """Roots of a monic polynomial mod p by evaluating at every residue."""
    count = 0
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            count += 1
    return count


def rank_mod_p(rows, p: int) -> int:
    """Row-echelon rank over F_p (fresh implementation for the tests)."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col] % p, p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col] % p
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def exhaustive_injective_fraction(p: int, n: int, m: int) -> Fraction:
    """Exact injectivity probability by enumerating all p^(m*n) matrices."""
    total = p ** (m * n)
    good = 0
    mat = [[0] * n for _ in range(m)]
    for code in range(total):
        c = code
        for i in range(m):
            for j in range(n):
                mat[i][j] = c % p
                c //= p
        if rank_mod_p(mat, p) == n:
            good += 1
    return Fraction(good, total)


def quad_unit_exhaustive(d: int, bmax: int = 10_000):
    """Smallest unit > 1 of Z[omega] by direct search over b.

    Solves (2a+b)^2 = d*b^2 +- 4 in the half case and a^2 = d*b^2 +- 1 in
    the sqrt case; minimal b gives the fundamental unit.
    """
    half = d % 4 == 1
    for b in range(1, bmax + 1):
        found = []
        if half:
            for n in (-1, 1):
                t = d * b * b + 4 * n
                if t > 0:
                    u = isqrt(t)
                    if u * u == t and (u - b) % 2 == 0:
                        found.append(((u - b) // 2, b, n, u))
            if found:
                # same b: the norm -1 solution has the smaller embedding
                found.sort(key=lambda e: e[3])
                a, b0, n, _ = found[0]
                return a, b0, n
        else:
            for n in (-1, 1):
                t = d * b * b + n
                if t > 0:
                    u = isqrt(t)
                    if u * u == t:
                        found.append((u, b, n))
            if found:
                found.sort(key=lambda e: e[0])
                return found[0]
    raise AssertionError(f"no unit found for D={d} with b <= {bmax}")


def narrow_class_number_bqf(disc: int) -> int:
    """Number of cycles of reduced primitive indefinite forms of the given
    positive non-square discriminant (the narrow class number)."""
    assert disc > 0
    s = isqrt(disc)
    assert s * s != disc

    def reduced(a, b, c):
        if b <= 0 or b * b >= disc:
            return False
        t = 2 * abs(a)
        if (t + b) ** 2 <= disc:
            return False
        if t >= b and (t - b) ** 2 >= disc:
            return False
        return True

    forms = set()
    for b in range(1, s + 1):
        if (b - disc) % 2:
            continue
        ac = (b * b - disc) // 4
        for a in range(1, isqrt(-ac) + isqrt(disc) + 2):
            if ac % a:
                continue
            c = ac // a
            for aa, cc in ((a, c), (-a, -c), (c, a), (-c, -a)):
                from math import gcd

                if reduced(aa, b, cc) and gcd(gcd(abs(aa), b), abs(cc)) == 1:
                    forms.add((aa, b, cc))

    def rho(form):
        a, b, c = form
        t = 2 * abs(c)
        r = s - ((s + b) % t)
        return (c, r, (r * r - disc) // (4 * c))

    cycles = 0
    seen = set()
    for f in sorted(forms):
        if f in seen:
            continue
        cycles += 1
        g = f
        while g not in seen:
            seen.add(g)
            g = rho(g)
            assert g in forms, f"rho left the reduced set: {f} -> {g}"
    return cycles


def cubic_norm_float(poly, triple) -> int:
    """Norm of a + b*theta + c*theta^2 as the rounded product of the values
    of the triple at all complex roots of f (float oracle)."""
    roots = np.roots(list(reversed(poly)))
    a, b, c = triple
    prod = 1.0 + 0.0j
    for r in roots:
        prod *= a + b * r + c * r * r
    assert abs(prod.imag) < 1e-6
    return round(prod.real)


def cubic_mul(a, b, poly) -> tuple[int, int, int]:
    """Exact product of two integer triples in Z[x]/(poly): schoolbook
    product, then long division by the monic cubic poly (ascending
    coefficients), with no modulus."""
    c = [0] * 5
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    for k in (4, 3):  # subtract c_k * x^(k-3) * f
        q = c[k]
        for i, fi in enumerate(poly):
            c[k - 3 + i] -= q * fi
    return tuple(c[:3])


def _cubic_mulmod(a, b, poly, m: int) -> list[int]:
    """Schoolbook product of two residue triples, then long division by the
    monic cubic poly (ascending coefficients), reduced mod m."""
    f0, f1, f2 = poly[0], poly[1], poly[2]
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0 = a0 * b0
    c1 = a0 * b1 + a1 * b0
    c2 = a0 * b2 + a1 * b1 + a2 * b0
    c3 = a1 * b2 + a2 * b1
    c4 = a2 * b2 % m
    # subtract c4 * x * f, then c3 * f
    c3 = (c3 - c4 * f2) % m
    c2 -= c4 * f1 + c3 * f2
    c1 -= c4 * f0 + c3 * f1
    c0 -= c3 * f0
    return [c0 % m, c1 % m, c2 % m]


def cubic_powmod(a, e: int, poly, m: int) -> list[int]:
    """a^e in (Z/m)[x]/(poly) for a monic cubic, left-to-right square and
    multiply."""
    out = [1 % m, 0, 0]
    for bit in bin(e)[2:]:
        out = _cubic_mulmod(out, out, poly, m)
        if bit == "1":
            out = _cubic_mulmod(out, a, poly, m)
    return out


def poly_mulmod(a, b, poly, m: int) -> tuple[int, ...]:
    """Product of two residue d-tuples in (Z/m)[x]/(poly) for a monic poly of any
    degree d (ascending coefficients, poly[-1] = 1): schoolbook product, then
    long division by poly from the top coefficient down, reduced mod m."""
    d = len(poly) - 1
    c = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):  # subtract c_k * x^(k-d) * poly
        q = c[k] % m
        for i, fi in enumerate(poly):
            c[k - d + i] -= q * fi
    return tuple(x % m for x in c[:d])


def poly_powmod(a, e: int, poly, m: int) -> tuple[int, ...]:
    """a^e in (Z/m)[x]/(poly) for a monic poly of any degree, left-to-right
    square and multiply."""
    out = (1 % m,) + (0,) * (len(poly) - 2)
    for bit in bin(e)[2:]:
        out = poly_mulmod(out, out, poly, m)
        if bit == "1":
            out = poly_mulmod(out, a, poly, m)
    return out


def cubic_is_inert(poly, p: int) -> bool:
    """f irreducible mod p, for p prime to disc(f): x^p != x and x^(p^2) != x
    mod (f, p), which rules out a root in F_p and in F_(p^2)."""
    x = [0, 1, 0]
    xp = cubic_powmod(x, p, poly, p)
    return xp != x and cubic_powmod(xp, p, poly, p) != x


def cubic_z_oracle(poly, unit, p: int) -> tuple[tuple[int, int, int], bool]:
    """z from eps^(p^3-1) = 1 + z*p mod (f, p^2) at an inert prime p, and
    whether z^(3(p-1)) = 1 mod (f, p), both by direct powering."""
    m = p * p
    u = cubic_powmod([c % m for c in unit], p**3 - 1, poly, m)
    u[0] -= 1
    assert all(c % p == 0 for c in u), "unit power is not 1 mod p"
    z = [c // p % p for c in u]
    ordinary = any(z) and cubic_powmod(z, 3 * (p - 1), poly, p) == [1, 0, 0]
    return tuple(z), ordinary


def cubic_char_poly(poly, unit) -> tuple[tuple[int, ...], int]:
    """The characteristic polynomial g of eps = a + b*theta + c*theta^2 (coefficients
    ascending, monic), as the sympy resultant Res_t(f(t), x - eps(t)), and the index
    [Z[theta] : Z[eps]], the square root of disc(g) / disc(f)."""
    x, t = sympy.symbols("x t")
    f = sympy.Poly(list(reversed(poly)), t).as_expr()
    g = sympy.Poly(sympy.resultant(f, x - (unit[0] + unit[1] * t + unit[2] * t * t), t), x).monic()
    ratio = sympy.Rational(sympy.discriminant(g), sympy.discriminant(f, t))
    index = isqrt(int(ratio))
    assert ratio.q == 1 and index * index == ratio
    return tuple(int(c) for c in reversed(g.all_coeffs())), index


def cubic_unit_criterion(poly, unit, g, p: int) -> tuple[bool, bool, bool]:
    """From y = eps^p mod (f, p^2) by direct powering and the characteristic
    polynomial g of eps (ascending): whether y = eps mod p, whether g(y) = 0
    mod p^2, and whether u^3 and v^3 have rank at most 1 over F_p, for
    u = g(y)/p and v = y g'(y) mod p, each evaluated term by term."""
    m = p * p

    def evaluate(coeffs, y, mod):  # sum of c_k y^k in (Z/mod)[x]/(f)
        acc, power = [0, 0, 0], [1, 0, 0]
        for c in coeffs:
            acc = [(a + c * w) % mod for a, w in zip(acc, power)]
            power = _cubic_mulmod(power, y, poly, mod)
        return acc

    y = cubic_powmod([c % m for c in unit], p, poly, m)
    gy = evaluate(g, y, m)
    assert all(c % p == 0 for c in gy), "g(eps^p) is not 0 mod p"
    u = [c // p for c in gy]
    v = evaluate([0] + [k * c for k, c in enumerate(g)][1:], [c % p for c in y], p)  # y g'(y)
    cubes = [cubic_powmod(w, 3, poly, p) for w in (u, v)]
    return [c % p for c in y] == [c % p for c in unit], not any(gy), rank_mod_p(cubes, p) <= 1


def quad_frobenius_naive(d: int, a: int, b: int, p: int) -> bool:
    """eps^p = sigma(eps) mod p^2 for eps = a + b*omega at an odd prime p not
    dividing d, with sigma(sqrt(d)) = (d/p) sqrt(d), (d/p) by Euler's criterion:
    in the coordinates 2 eps = A + B sqrt(d), by square and multiply with
    schoolbook products, as (A + B sqrt(d))^p = 2^(p-1) (A + (d/p) B sqrt(d))."""
    m = p * p
    big_a, big_b = (2 * a + b, b) if d % 4 == 1 else (2 * a, 2 * b)
    chi = 1 if pow(d, (p - 1) // 2, p) == 1 else -1

    def mul(x, y):
        return (x[0] * y[0] + d * x[1] * y[1]) % m, (x[0] * y[1] + x[1] * y[0]) % m

    out = (1, 0)
    for bit in bin(p)[2:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, (big_a % m, big_b % m))
    two = pow(2, p - 1, m)
    return out == (two * big_a % m, two * chi * big_b % m)


def quad_hit_naive(d: int, a: int, b: int, p: int) -> bool:
    """eps^(p^2-1) = 1 mod p^2 for eps = a + b*omega, omega = sqrt(d), or
    (1+sqrt(d))/2 when d = 1 mod 4, by the literal power with schoolbook
    products (omega^2 = d, or omega + (d-1)/4)."""
    m = p * p
    if d % 4 == 1:
        c0, c1 = (d - 1) // 4, 1
    else:
        c0, c1 = d, 0

    def mul(x, y):
        t = x[1] * y[1]  # coefficient of omega^2 = c0 + c1*omega
        return (x[0] * y[0] + c0 * t) % m, (x[0] * y[1] + x[1] * y[0] + c1 * t) % m

    out = (1, 0)
    for bit in bin(p * p - 1)[2:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, (a % m, b % m))
    return out == (1 % m, 0)


# -- report encodings ------------------------------------------------------------
# A report here is a plain dict: field, mode, lo, hi, warnings, the metadata
# (version, workers, wall_time, checksum, tested, excluded_counts,
# expected_hits), hits as (p, aux) pairs (aux a tuple or None), excluded as
# (p, reason) pairs and clears as primes, each of the last two a list or None.

def _aux_list(aux):
    return None if aux is None else list(aux)


def report_checksum_oracle(r: dict) -> str:
    """SHA-256 of the compact, key-sorted JSON of the scan content."""
    payload = {"field": r["field"], "mode": r["mode"], "lo": r["lo"], "hi": r["hi"],
               "hits": [[p, _aux_list(aux)] for p, aux in r["hits"]]}
    if r["excluded"] is not None:
        payload["excluded"] = [[p, reason] for p, reason in r["excluded"]]
    if r["clears"] is not None:
        payload["clears"] = list(r["clears"])
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def report_json_oracle(r: dict) -> str:
    """The report as one dict through json.dumps with sorted keys."""
    excluded, clears = r["excluded"], r["clears"]
    doc = {name: r[name] for name in ("version", "mode", "workers", "wall_time", "checksum",
                                      "tested", "excluded_counts", "expected_hits")}
    doc.update(
        field=r["field"],
        range=[r["lo"], r["hi"]],
        warnings=list(r["warnings"]),
        hits=[{"p": p, "aux": _aux_list(aux)} for p, aux in r["hits"]],
        excluded=None if excluded is None else [{"p": p, "reason": why} for p, why in excluded],
        clears=None if clears is None else list(clears),
    )
    return json.dumps(doc, sort_keys=True)


def report_csv_oracle(r: dict, header: bool = True) -> str:
    """One csv.writer row per verdict: hits, then clears, then exclusions."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if header:
        w.writerow(("field", "p", "mode", "status", "reason", "aux"))
    for p, aux in r["hits"]:
        w.writerow([r["field"], p, r["mode"], "hit", "", "" if aux is None else " ".join(map(str, aux))])
    for p in r["clears"] or ():
        w.writerow([r["field"], p, r["mode"], "clear", "", ""])
    for p, reason in r["excluded"] or ():
        w.writerow([r["field"], p, r["mode"], "excluded", reason, ""])
    return buf.getvalue()
