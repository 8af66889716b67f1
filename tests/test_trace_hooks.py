"""The benchmark's traced run swaps unitscan module attributes for timing
wrappers (perfbench/tracing.py).  A refactor that renames or deletes one of
them, or stops calling it through its module global, must fail here rather
than only in the minute-long benchmark smoke check."""

import importlib
from collections import Counter
from pathlib import Path

from unitscan import cubic, heuristics, quadratic
from unitscan.primes import PrimeRange, primes_in
from unitscan.report import EXCLUDED

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_hooks_resolve(monkeypatch, quad_records, cubic_records):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    before = quadratic._quad_chunk
    with tracing.instrument(tracer):
        assert quadratic._quad_chunk is not before
        tracer.enter()
        quadratic.scan_quadratic(quad_records[2], PrimeRange(3, 200))
        # the scans run on lanes; pow2 and pow3 are the scalar references' powers,
        # the one order_arith.poly_pow bound to those module globals
        quadratic.classify_quad_prime(quad_records[2], 13)
        cubic.classify_cubic_prime(cubic_records[-23], 13, cubic.MODE_H2)  # 13 is inert
        tracer.exit(tracing.ROOT)
    assert quadratic._quad_chunk is before
    for span in ("quadratic.scan", "quadratic.chunk"):
        assert tracer.calls[span] > 0, span
    # a chunk's primes come from primes.prime_array, not through the traced primes_in
    assert tracer.calls["primes.sieve"] == 0
    for span in ("order_arith.pow2", "order_arith.pow3.inert", "order_arith.pow3.z"):
        assert tracer.calls[span] > 0, span


def test_wieferich_trace_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tracer.enter()
        rep = heuristics.scan_wieferich(2, PrimeRange(3, 5000))
        scan_calls = tracer.calls["primes.sieve"]
        heuristics.expected_exceptional_count(5000)
        tracer.exit(tracing.ROOT)
    assert [v.p for v in rep.hits] == [1093, 3511]
    for span in ("heuristics.wieferich_scan", "heuristics.wieferich_chunk"):
        assert tracer.calls[span] > 0, span
    # the chunks take their primes from primes.prime_array; the Mertens sum streams
    # them through the traced primes_in, every prime in [2, 5000]
    assert scan_calls == 0
    assert tracer.counts["primes.sieve"] == 669


def test_traced_cubic_reason_counts(monkeypatch, cubic_records):
    # the per-reason counts the benchmark reads from the traced run's lazily
    # built Verdicts, against the scalar classifier and the report counters
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    rec, rng = cubic_records[-23], PrimeRange(3, 20_000)
    with tracing.instrument(tracer):
        tracer.enter()
        rep = cubic.scan_cubic(rec, rng, mode=cubic.MODE_ORDINARY)
        tracer.exit(tracing.ROOT)
    (kind, out), = tracer.run_outputs
    assert kind == "unitscan.cubic" and tracer.counts["parallel.objects_merged"] == len(out)
    traced = Counter(v.reason for v in out if v.status == EXCLUDED)
    scalar = Counter(v.reason for v in (cubic.classify_cubic_prime(rec, p, cubic.MODE_ORDINARY)
                                        for p in primes_in(rng)) if v.status == EXCLUDED)
    assert traced == scalar == rep.excluded_counts
    assert sum(v.status != EXCLUDED for v in out) == rep.tested


def test_clock_checkpoints_resolve(monkeypatch, quad_records, cubic_records, chunk_counts):
    # every untraced serial benchmark pass places its speed probes by swapping
    # the CHECKPOINTS calls (perfbench/clock.py): each must be swapped, and
    # called through its module global once per chunk or per rank slice
    monkeypatch.syspath_prepend(str(PERFBENCH))
    clock = importlib.import_module("clock")
    calls = Counter()
    for mod, attr in clock.CHECKPOINTS:
        def counted(*args, f=getattr(mod, attr), name=attr):
            calls[name] += 1
            return f(*args)

        monkeypatch.setattr(mod, attr, counted)
    hooked = {attr: getattr(mod, attr) for mod, attr in clock.CHECKPOINTS}
    timer = clock.Clock()
    probes = []
    timer.checkpoint = lambda: probes.append(None)
    rng = PrimeRange((1 << 18) - 2000, (1 << 18) + 2000)  # two chunks
    with clock.checkpoints(timer):
        for mod, attr in clock.CHECKPOINTS:
            assert getattr(mod, attr) is not hooked[attr], attr
        quadratic.scan_quadratic(quad_records[2], rng)
        cubic.scan_cubic(cubic_records[-23], rng, mode=cubic.MODE_H2)
        heuristics.scan_wieferich(2, rng)
        heuristics.monte_carlo_injective(3, 2, 2, 5000, 1)  # two rank slices of at most 4,096 trials
    assert all(getattr(mod, attr) is hooked[attr] for mod, attr in clock.CHECKPOINTS)
    assert chunk_counts == [2, 2, 2]
    assert calls == {"_quad_chunk": 2, "_cubic_chunk": 2, "_wieferich_chunk": 2, "_count_injective": 2}
    assert len(probes) == sum(calls.values())
