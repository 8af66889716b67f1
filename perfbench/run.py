"""unitscan benchmark: one workload per run, in-process through the library API.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run repeats passes of the workload until the next would end
after ``--seconds`` (at least two) and reports the end-to-end metrics, with
times normalized for machine speed (see ``clock.py``); with ``--trace 1`` it
runs one untraced and one traced pass and reports the per-layer metrics (see
``tracing.py``).  Every output is checked.  The last line of stdout is
the result as JSON; the line before it describes the run and the machine.
``--tiny`` shrinks every input for the smoke check (``smoke.py``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import unitscan
except ImportError as exc:
    sys.exit(f"cannot import unitscan from {SRC}: {exc}")

import tracing  # noqa: E402  (these need unitscan)
import workloads  # noqa: E402
from clock import PROBE_NOMINAL_S, Clock, checkpoints, probe  # noqa: E402
from unitscan import cubic, quadratic, report  # noqa: E402

MIN_PASSES = 2
SETUP_REPEATS = 5
COVERAGE_TOLERANCE = 0.1  # layer self times must cover the traced wall time within 10%

# name: (unit, description).  BENCHMARK.json lists the same names and units.
END_TO_END = {
    "setup_s": ("s", f"import unitscan plus load_quad_fields, load_cubic_fields and "
                     f"load_reference_tables in a fresh interpreter, normalized; "
                     f"median of {SETUP_REPEATS}"),
    "wall_s": ("s", "median normalized wall time of one pass over the workload's program calls"),
    "items_per_s": ("items/s", "workload items (see the run line) over wall_s"),
    "cpu_s": ("s", "median normalized user+sys CPU time of one pass, this process plus its "
                   "reaped children (RUSAGE_CHILDREN), so pool workers count"),
    "peak_rss_mb": ("MB", "max resident set of this process and of its largest child "
                          "(RUSAGE_CHILDREN), read before the set-up timing starts"),
}

CUBIC_REASONS = ("hyp1_divides_6", "hyp2_ramified", "hyp3_class_number", "hyp5_in_H5",
                 "p_2_mod_3", "frob_order_not_3", "z_zero")

PER_LAYER = {
    "order_arith.pow3_calls": ("count", "pow3 calls from the cubic scan"),
    "order_arith.pow3_s": ("s", "time in pow3 (all three call sites)"),
    "order_arith.pow2_calls": ("count", "pow2 calls from the quadratic scan"),
    "order_arith.pow2_s": ("s", "time in pow2"),
    "cubic.z_s": ("s", "_z_coeffs: unit power eps^(p^3-1) mod p^2, pow3 included"),
    "cubic.inert_s": ("s", "pow3 with e=p, m=p: the Frobenius inertness test"),
    "cubic.ordinary_s": ("s", "pow3 with e=3(p-1): the ordinary test"),
    "cubic.filter_self_s": ("s", "cubic chunk self time: hypothesis filter, Legendre "
                                 "test, verdict construction"),
    "cubic.tested": ("count", "primes whose z was computed"),
    "cubic.hits": ("count", "cubic hits"),
    **{f"cubic.excluded.{r}": ("count", f"cubic primes excluded as {r}") for r in CUBIC_REASONS},
    "cubic.kernel_yield": ("ratio", "cubic.tested over primes sieved by the cubic scan"),
    "cubic.self_s": ("s", "self time of all cubic spans"),
    "quadratic.chunk_self_s": ("s", "quadratic chunk self time: filter and verdicts"),
    "quadratic.tested": ("count", "primes given the unit test"),
    "quadratic.self_s": ("s", "self time of all quadratic spans"),
    "primes.sieve_s": ("s", "time inside primes_in between yields"),
    "primes.yielded": ("count", "primes yielded by primes_in"),
    "heuristics.wieferich_test_s": ("s", "Wieferich chunk self time (sieve excluded)"),
    "heuristics.mc_count_s": ("s", "_count_injective time"),
    "heuristics.mc_draw_s": ("s", "monte_carlo_injective self time: block seeding and draws"),
    "heuristics.mc_fallback_trials": ("count", "trials ranked by the scalar _rank_mod_p"),
    "heuristics.self_s": ("s", "self time of all heuristics spans"),
    "parallel.run_s": ("s", "run_chunked self time: chunking, pool start, wait, merge"),
    "parallel.pools": ("count", "pools started by run_chunked"),
    "parallel.chunks": ("count", "chunks handed to workers"),
    "parallel.objects_merged": ("count", "objects returned by run_chunked"),
    "report.assemble_s": ("s", "assemble_report self time"),
    "report.checksum_s": ("s", "compute_checksum time"),
    "report.serialize_s": ("s", "report_to_json time"),
    "report.bytes_out": ("count", "characters of JSON written"),
    "report.verdicts": ("count", "verdicts passed to assemble_report"),
    "report.self_s": ("s", "self time of all report spans"),
    "data.load_s": ("s", "loader time of one set-up (fields and reference tables)"),
    "data.self_s": ("s", "loader time inside the pass (verify_tables reloads its data)"),
    "trace.overhead_s": ("s", "traced pass wall time minus untraced pass wall time"),
    "trace.coverage": ("ratio", "sum of layer self times over traced pass wall time"),
    "trace.coverage_ok": ("bool", "1 when trace.coverage is within 10% of 1"),
}

SETUP_CODE = """\
import time
t0 = time.perf_counter()
from unitscan import cubic, quadratic, report
quadratic.load_quad_fields()
cubic.load_cubic_fields()
report.load_reference_tables()
print(time.perf_counter() - t0)
"""


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def setup_seconds() -> tuple[float, list[float]]:
    """Median normalized set-up time, each measured in a fresh interpreter
    between two probes; also the raw times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, normalized = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        raw.append(float(out.stdout))
        normalized.append(raw[-1] * 2 * PROBE_NOMINAL_S / (before + probe()))
    return statistics.median(normalized), raw


def environment() -> dict:
    cpu_model = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                             cpu_model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "start_method": multiprocessing.get_start_method(),
    }


def untraced_pass(wl, checks) -> Clock:
    clock = Clock()
    if wl.workers > 1:
        wl.run_pass(clock, checks)
    else:
        with checkpoints(clock):
            wl.run_pass(clock, checks)
    return clock


def timed_run(wl, checks, seconds: float) -> tuple[dict, dict]:
    """Passes until the next one would end after `seconds` (at least MIN_PASSES)."""
    clocks = []
    start = time.perf_counter()
    while len(clocks) < MIN_PASSES or (
        time.perf_counter() - start + (time.perf_counter() - start) / len(clocks) <= seconds
    ):
        clocks.append(untraced_pass(wl, checks))
    wall = statistics.median(c.wall for c in clocks)
    rss = peak_rss_mb()  # read before the set-up children exist
    setup, setup_raw = setup_seconds()
    metrics = {
        "setup_s": setup,
        "wall_s": wall,
        "items_per_s": wl.items / wall,
        "cpu_s": statistics.median(c.cpu for c in clocks),
        "peak_rss_mb": rss,
    }
    return metrics, {"passes": len(clocks), "pass_wall_s": [c.wall for c in clocks],
                     "raw_pass_wall_s": [c.raw_wall for c in clocks], "raw_setup_s": setup_raw}


def traced_pass(wl, checks):
    tracer = tracing.Tracer()
    clock = Clock(tracer)
    with tracing.instrument(tracer):
        wl.run_pass(clock, checks)
    return tracer, clock


def traced_run(wl, checks) -> tuple[dict, dict]:
    untraced = untraced_pass(wl, checks)
    outer, clock = traced_pass(wl, checks)
    inner, note = outer, {}
    if wl.workers > 1:
        # Spans recorded inside pool workers are lost, so the chunk-level
        # layers come from a workers=1 pass; parallel and report from this one.
        wl.workers = 1
        inner, _ = traced_pass(wl, checks)
        note = {"layers_from_workers_1_pass": ["order_arith", "cubic", "quadratic",
                                               "primes", "heuristics"]}
    setup = tracing.Tracer()
    with tracing.instrument(setup):
        setup.enter()
        quadratic.load_quad_fields()
        cubic.load_cubic_fields()
        report.load_reference_tables()
        setup.exit(tracing.ROOT)

    root = outer.total[tracing.ROOT]
    coverage = sum(outer.layer_self_times().values()) / root
    metrics = layer_metrics(inner, outer)
    metrics.update({
        "data.load_s": setup.total["data.load"],
        "trace.overhead_s": clock.wall - untraced.wall,
        "trace.coverage": coverage,
        "trace.coverage_ok": int(abs(coverage - 1) <= COVERAGE_TOLERANCE),
    })
    note.update(untraced_wall_s=untraced.wall, traced_wall_s=clock.wall,
                layer_self_s=outer.layer_self_times())
    return metrics, note


def layer_metrics(inner: tracing.Tracer, outer: tracing.Tracer) -> dict:
    """Chunk-level layers from inner, pool and report layers from outer."""
    tot, own, calls, counts = inner.total, inner.self_time, inner.calls, inner.counts
    pow3 = [n for n in calls if n.startswith("order_arith.pow3.")]
    verdicts = {"unitscan.cubic": [], "unitscan.quadratic": []}
    for kind, out in inner.run_outputs:
        verdicts.get(kind, []).extend(out)
    cubic_status = [(v.status, v.reason) for v in verdicts["unitscan.cubic"]]
    cubic_tested = sum(s != report.EXCLUDED or r == "z_zero" for s, r in cubic_status)
    layers = inner.layer_self_times()
    m = {
        "order_arith.pow3_calls": sum(calls[n] for n in pow3),
        "order_arith.pow3_s": sum((tot[n] for n in pow3), 0.0),
        "order_arith.pow2_calls": calls["order_arith.pow2"],
        "order_arith.pow2_s": tot["order_arith.pow2"],
        "cubic.z_s": tot["cubic.z"],
        "cubic.inert_s": tot["order_arith.pow3.inert"],
        "cubic.ordinary_s": tot["order_arith.pow3.ordinary"],
        "cubic.filter_self_s": own["cubic.chunk"],
        "cubic.tested": cubic_tested,
        "cubic.hits": sum(s == report.HIT for s, _ in cubic_status),
        **{f"cubic.excluded.{r}": sum(x == r for _, x in cubic_status) for r in CUBIC_REASONS},
        "cubic.kernel_yield": cubic_tested / len(cubic_status) if cubic_status else 0.0,
        "cubic.self_s": layers["cubic"],
        "quadratic.chunk_self_s": own["quadratic.chunk"],
        "quadratic.tested": sum(v.status != report.EXCLUDED for v in verdicts["unitscan.quadratic"]),
        "quadratic.self_s": layers["quadratic"],
        "primes.sieve_s": tot["primes.sieve"],
        "primes.yielded": counts["primes.sieve"],
        "heuristics.wieferich_test_s": own["heuristics.wieferich_chunk"],
        "heuristics.mc_count_s": tot["heuristics.mc_count"],
        "heuristics.mc_draw_s": own["heuristics.mc"],
        "heuristics.mc_fallback_trials": calls["heuristics.mc_rank"],
        "heuristics.self_s": layers["heuristics"],
    }
    tot, own, counts = outer.total, outer.self_time, outer.counts
    layers = outer.layer_self_times()
    m.update({
        "parallel.run_s": own["parallel.run"],
        "parallel.pools": counts["parallel.pools"],
        "parallel.chunks": counts["parallel.chunks"],
        "parallel.objects_merged": counts["parallel.objects_merged"],
        "report.assemble_s": own["report.assemble"],
        "report.checksum_s": tot["report.checksum"],
        "report.serialize_s": tot["report.serialize"],
        "report.bytes_out": counts["report.bytes_out"],
        "report.verdicts": counts["report.verdicts"],
        "report.self_s": layers["report"],
        "data.self_s": layers["data"],
    })
    return m


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke check")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(unitscan.__file__).resolve().parent.parent != SRC:
        sys.exit(f"unitscan was imported from {unitscan.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    checks = workloads.Checks()
    if args.trace:
        metrics, note = traced_run(wl, checks)
        units = PER_LAYER
    else:
        metrics, note = timed_run(wl, checks, args.seconds)
        units = END_TO_END
    skipped = sorted(wl.CHECKS - checks.seen)
    info = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "items": wl.items, "item": wl.item, "workers": wl.workers,
        "checks_skipped": skipped, "failures": checks.failures,
        "environment": environment(), **note,
    }
    result = {
        "correct": not checks.failures and not skipped,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
