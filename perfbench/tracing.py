"""Per-layer tracing for the benchmark.

Each layer is one module of ``src/unitscan``.  The scans look their helpers
up as module attributes at call time (``cubic.pow3``, ``cubic._z_coeffs``,
``quadratic.primes_in``, ``heuristics.run_chunked``, ...), so ``instrument``
swaps those attributes for timing wrappers and restores them afterwards; no
file of the package changes.

Calls are aggregated per span name into a call count, a total duration and
a self time (the duration minus the time of the spans nested inside it),
never kept one span per call: the per-prime kernels run hundreds of
thousands of times per pass.  Wrappers record only inside a root span, so
the benchmark's own checks between timed blocks are not traced.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from unitscan import _parallel, cubic, heuristics, quadratic, report

ROOT = "bench"

# Every span name starts with its layer, the unitscan module it times.
LAYERS = ("order_arith", "cubic", "quadratic", "primes", "heuristics", "parallel", "report", "data")


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # [start, time of nested spans]
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.run_outputs: list[tuple[str, list]] = []

    def enter(self) -> None:
        self.stack.append([perf_counter(), 0.0])

    def exit(self, name: str) -> None:
        start, nested = self.stack.pop()
        d = perf_counter() - start
        self.calls[name] += 1
        self.total[name] += d
        self.self_time[name] += d - nested
        if self.stack:
            self.stack[-1][1] += d

    def span(self, name, fn, after=None):
        """Wrap fn in a span.  name is a string or a function of the call's
        arguments; after(result, args, kwargs) runs once the span has ended
        and must be O(1), because its time falls to the enclosing span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(name if isinstance(name, str) else name(*args))
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def generator_span(self, name, fn):
        """Wrap a generator function: every resumption is timed, so the span
        covers the work done between yields, and each yield is counted.  It
        runs once per prime, so it keeps its sums locally and adds them to
        the tracer when the generator ends."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack:
                yield from fn(*args, **kwargs)
                return
            it = fn(*args, **kwargs)
            total = 0.0
            yielded = 0
            try:
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    finally:
                        d = perf_counter() - t0
                        total += d
                        self.stack[-1][1] += d
                    yielded += 1
                    yield item
            except StopIteration:
                pass
            finally:
                self.calls[name] += 1
                self.total[name] += total
                self.self_time[name] += total
                self.counts[name] += yielded

        return wrapper

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.self_time.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += t
        return out


def _pow3_span(a, e, f, m) -> str:
    # The three pow3 call sites of the cubic scan differ by exponent:
    # the inertness test x^p mod (p, f), the ordinary test z^(3(p-1)) mod p,
    # and the unit power eps^(p^3-1) mod p^2 inside _z_coeffs.
    if e == m:
        return "order_arith.pow3.inert"
    if e == 3 * (m - 1):
        return "order_arith.pow3.ordinary"
    return "order_arith.pow3.z"


_RUN_CHUNKED_SIG = inspect.signature(_parallel.run_chunked)


@contextmanager
def instrument(tracer: Tracer):
    """Swap the traced unitscan attributes for wrappers while the block runs."""
    t = tracer

    def after_run(kind):
        def note(result, args, kwargs):
            call = _RUN_CHUNKED_SIG.bind(*args, **kwargs)
            call.apply_defaults()
            a = call.arguments
            chunks = -(-(a["hi"] - a["lo"] + 1) // a["chunk_span"])
            t.counts["parallel.chunks"] += chunks
            t.counts["parallel.pools"] += a["workers"] > 1 and chunks > 1
            t.counts["parallel.objects_merged"] += len(result)
            # Verdicts are classified after the pass, outside the timed span.
            t.run_outputs.append((kind, result))

        return note

    def after_assemble(result, args, kwargs):
        t.counts["report.verdicts"] += len(kwargs["verdicts"])

    def after_serialize(result, args, kwargs):
        t.counts["report.bytes_out"] += len(result)

    patches = [
        (cubic, "pow3", lambda f: t.span(_pow3_span, f)),
        (quadratic, "pow2", lambda f: t.span("order_arith.pow2", f)),
        (cubic, "_z_coeffs", lambda f: t.span("cubic.z", f)),
        (cubic, "_cubic_chunk", lambda f: t.span("cubic.chunk", f)),
        (cubic, "scan_cubic", lambda f: t.span("cubic.scan", f)),
        (quadratic, "_quad_chunk", lambda f: t.span("quadratic.chunk", f)),
        (quadratic, "scan_quadratic", lambda f: t.span("quadratic.scan", f)),
        (heuristics, "_wieferich_chunk", lambda f: t.span("heuristics.wieferich_chunk", f)),
        (heuristics, "scan_wieferich", lambda f: t.span("heuristics.wieferich_scan", f)),
        (heuristics, "monte_carlo_injective", lambda f: t.span("heuristics.mc", f)),
        (heuristics, "_count_injective", lambda f: t.span("heuristics.mc_count", f)),
        (heuristics, "_rank_mod_p", lambda f: t.span("heuristics.mc_rank", f)),
        (report, "compute_checksum", lambda f: t.span("report.checksum", f)),
        (report, "report_to_json", lambda f: t.span("report.serialize", f, after_serialize)),
        (report, "verify_tables", lambda f: t.span("report.verify_tables", f)),
        (cubic, "load_cubic_fields", lambda f: t.span("data.load", f)),
        (quadratic, "load_quad_fields", lambda f: t.span("data.load", f)),
        (report, "load_reference_tables", lambda f: t.span("data.load", f)),
    ]
    for mod in (cubic, quadratic, heuristics):
        patches += [
            (mod, "primes_in", lambda f: t.generator_span("primes.sieve", f)),
            (mod, "run_chunked", lambda f, k=mod.__name__: t.span("parallel.run", f, after_run(k))),
            (mod, "assemble_report", lambda f: t.span("report.assemble", f, after_assemble)),
        ]
    with patched(patches):
        yield tracer


@contextmanager
def patched(replacements):
    """Replace module attributes while the block runs; replacements holds
    (module, attribute name, function from the original to its stand-in)."""
    saved = []
    try:
        for mod, attr, wrap in replacements:
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, wrap(original))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
