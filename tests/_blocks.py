"""The checks every scan family shares: a Family (quadratic, cubic in each
mode, Wieferich) scanned against the report assembled from its per-prime
reference through block_of, on any range, across the 2^25 chunk cut where the
p^2 lanes leave the float-quotient path for base-p digits, near RANGE_LIMIT,
on tiny chunks, and with 1 against 2 workers."""

from __future__ import annotations

import builtins
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

import numpy as np
import pytest

from unitscan import _parallel
from unitscan._parallel import run_chunked
from unitscan.order_arith import MULMOD_PMAX, Lanes
from unitscan.primes import RANGE_LIMIT, PrimeRange, prime_array, primes_in
from unitscan.report import CODES, EXCLUDED, HIT, Block, assemble_report

STRADDLE = PrimeRange(MULMOD_PMAX - 3000, MULMOD_PMAX + 3000)
NEAR_LIMIT = PrimeRange(RANGE_LIMIT - 20_000, RANGE_LIMIT)  # one chunk, on the digit path

# the product paths of Lanes, narrowest first: exact int64 below 2^25, the float
# quotient below 2^50, base-q digits on squares q^2 from there; whether the ring
# squares of Lanes.pow are balanced (Lanes.balanced: float64 lanes below 2^25, the
# float path below 2^40) is not recorded here: test_order_arith pins it at each cut
PATHS = ("exact", "float", "digits")


def lanes_path(lanes: Lanes) -> str:
    if lanes.q is not None:
        return "digits"
    return "exact" if lanes.exact else "float"


def block_of(verdicts, denominators=None) -> Block:
    """The Block of a list of Verdicts in ascending prime order; denominators
    maps the int64 primes to each one's hit denominator (default: p)."""
    verdicts = list(verdicts)
    primes = np.array([v.p for v in verdicts], dtype=np.int64)
    return Block.of(
        primes,
        np.array([CODES.index(v.reason or v.status) for v in verdicts], dtype=np.int8),
        tuple(v.aux for v in verdicts if v.status == HIT),
        denominators=None if denominators is None else denominators(primes),
    )


@dataclass(frozen=True)
class Family:
    """A scan family: scan(rec, rng, workers) reports every prime it keeps
    (all of them, or the hits alone when not full_verdicts); reference(rec, p)
    is one prime's Verdict, a tested one hitting with probability
    1/denominators(p) (default 1/p); each chunk takes exactly powers lane
    powers (calls of Lanes.pow).  The checks shadow Lanes.__init__,
    Lanes.pow, module's run_chunked, its global per_prime
    (else the builtin) and, if named, kernel: a lane kernel whose last
    argument must hold exactly the tested primes.  A scan calls per_prime
    with exactly the argument tuples per_prime_calls(rec, verdicts) gives for
    the reference verdicts of its range, in that order, or never when it is
    None."""

    module: ModuleType
    per_prime: str
    scan: Callable
    reference: Callable
    powers: int
    denominators: Callable | None = None
    full_verdicts: bool = True
    kernel: str | None = None
    per_prime_calls: Callable | None = None


@contextmanager
def lane_calls(family: Family):
    """What a scan hands each path: the widest product path of the Lanes each
    chunk builds and the number of lane powers it takes, the arguments of every
    per-prime call through the module global (the checks' own reference calls
    do not count), and the primes the kernel sees."""
    calls = {"paths": [], "powers": [], "per_prime": [], "kernel": []}
    built, powers = [], [0]
    with pytest.MonkeyPatch.context() as m:
        init, power, run = Lanes.__init__, Lanes.pow, family.module.run_chunked

        def recorded(lanes, *args):
            init(lanes, *args)
            built.append(lanes_path(lanes))

        def counted_power(lanes, *args, **kwargs):
            powers[0] += 1
            return power(lanes, *args, **kwargs)

        def per_chunk(classify, *rest):
            def chunk(args, primes):
                built.clear()
                powers[0] = 0
                out = classify(args, primes)
                calls["paths"].append(max(built, key=PATHS.index))
                calls["powers"].append(powers[0])
                return out

            return run(chunk, *rest)

        m.setattr(Lanes, "__init__", recorded)
        m.setattr(Lanes, "pow", counted_power)
        m.setattr(family.module, "run_chunked", per_chunk)

        def spy(attr, key, note):
            f = getattr(family.module, attr, None) or getattr(builtins, attr)

            def counted(*args):
                out = f(*args)
                calls[key] += note(args, out)
                return out

            m.setattr(family.module, attr, counted, raising=False)

        spy(family.per_prime, "per_prime", lambda args, out: [args])
        if family.kernel:
            spy(family.kernel, "kernel", lambda args, out: args[-1].tolist())
        yield calls


def assert_same_report(rep, ref, label):
    """The same hits, exclusions, clears and checksum, and the counters to
    the last bit of the expected hit count."""
    for name in ("hits", "excluded", "clears", "checksum", "tested", "excluded_counts", "expected_hits"):
        assert getattr(rep, name) == getattr(ref, name), (label, name)


def check_scans(family: Family, records, rng: PrimeRange, paths=None) -> list:
    """Each record's scan of rng against the report assembled from
    family.reference: the per-prime calls of family.per_prime_calls (none by
    default), family.powers lane powers in every
    chunk, one chunk on each product path in turn when paths are given, and the
    kernel, if named, on the tested primes.
    Returns the reports."""
    primes = list(primes_in(rng))
    reports = []
    for rec in records:
        with lane_calls(family) as calls:
            rep = family.scan(rec, rng, workers=1)
        verdicts = [family.reference(rec, p) for p in primes]
        ref = assemble_report(rep.field_id, rep.mode, rng.lo, rng.hi,
                              block_of(verdicts, family.denominators), family.full_verdicts)
        label = (rec, rep.mode)
        assert_same_report(rep, ref, label)
        want = [] if family.per_prime_calls is None else family.per_prime_calls(rec, verdicts)
        assert calls["per_prime"] == want, label
        assert calls["powers"] == [family.powers] * len(calls["paths"]), label
        if paths is not None:
            assert calls["paths"] == list(paths), label
        if family.kernel:
            assert calls["kernel"] == [v.p for v in verdicts if v.status != EXCLUDED], label
        reports.append(rep)
    return reports


def check_straddle(family: Family, records) -> list:
    """check_scans on MULMOD_PMAX +- 3000: the scan cuts its chunks at 2^25,
    so the p^2 lanes take the float quotient below and base-p digits above."""
    primes = list(primes_in(STRADDLE))
    assert primes[0] < MULMOD_PMAX < primes[-1]
    return check_scans(family, records, STRADDLE, ("float", "digits"))


def check_tiny_chunks(family: Family, records, rng: PrimeRange, spans=(1, 2, 7)):
    """check_scans with chunks of each span: most hold one prime or none, so
    most leave some kernel stage without lanes.  Each chunk keeps its primes
    (full verdicts) or its hits alone, and a chunk without primes none."""
    primes = list(primes_in(rng))
    for span in spans:
        bounds, sizes = [], []

        def sieved(a, b):
            bounds.append((a, b))
            return prime_array(a, b)

        def tiny(classify, args, lo, hi, workers):
            def counted(args, primes):
                block = classify(args, primes)
                sizes.append(len(block.primes))
                return block

            return run_chunked(counted, args, lo, hi, workers, span)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(_parallel, "prime_array", sieved)
            m.setattr(family.module, "run_chunked", tiny)
            for rec in records:
                bounds.clear()
                sizes.clear()
                rep, = check_scans(family, [rec], rng)
                kept = primes if family.full_verdicts else [v.p for v in rep.hits]
                want = [sum(a <= p <= b for p in kept) for a, b in bounds]
                assert sizes == want, (rec, rep.mode, span)


def check_workers(family: Family, rec, chunk_counts):
    """rec's scan across the 2^18 chunk cut with 1 and 2 workers: the same
    report and counters, the 2-worker scan through the pool.  Returns the
    1-worker report."""
    rng = PrimeRange((1 << 18) - 100_000, (1 << 18) + 100_000)
    one, two = (family.scan(rec, rng, workers=w) for w in (1, 2))
    assert chunk_counts[-1] > 1  # so the two workers ran in a pool
    assert_same_report(two, one, rec)
    return one
