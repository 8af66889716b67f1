"""The four benchmark workloads.

Each workload builds its inputs from the seed, runs one pass of program
calls inside ``with clock:`` blocks (only those blocks are timed), and
checks every output between the blocks.  ``items`` is the input size in the
workload's own unit, which ``items_per_s`` divides by the pass time.
``CHECKS`` names every condition a run must evaluate; a run that skips one
is reported as incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from unitscan import cubic, heuristics, quadratic, report
from unitscan.primes import PrimeRange, count_primes

RECORDED_CHECKSUMS = Path(__file__).with_name("sweep_checksums.json")

# The seed moves the sweep_full and wieferich windows down by
# (seed % WINDOW_OFFSETS) thousandths of their length: a real change of input
# that alters the work by at most 0.7%.
WINDOW_OFFSETS = 8


def _window_end(hi: int, seed: int) -> int:
    return hi - (seed % WINDOW_OFFSETS) * hi // 1000


class Checks:
    """Correctness gate: one op per program operation, failed when any of its
    conditions is false.  An op label seen on an earlier pass must also give
    the same fingerprint again (condition ``same_as_first_pass``)."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.seen: set[str] = set()
        self._first: dict[str, object] = {}

    def op(self, label: str, fingerprint=None, **conditions: bool) -> None:
        if label in self._first:
            conditions["same_as_first_pass"] = self._first[label] == fingerprint
        else:
            self._first[label] = fingerprint
        self.attempted += 1
        self.seen.update(conditions)
        bad = [name for name, ok in conditions.items() if not ok]
        if bad:
            self.failures.append(f"{label}: {', '.join(bad)}")


class Tables:
    """The paper-reproduction job and the serial baseline: verify_tables for
    quad_table, h5_table and cubic_ordinary_table at their default bounds
    (cubic ordinary: 14 fields, p <= 2e5), workers=1, hits only.

    Exercises: order_arith.pow3 through the cubic z kernel (most of the
    time), the cubic chunk filter, quadratic, primes, report.verify_tables
    and the data loaders it calls.  Skips: the pool (serial), and report
    assembly and the sieve do almost nothing.  The seed is unused: the
    tables are fixed by the paper.
    """

    name = "tables"
    item = "primes classified"
    workers = 1
    CHECKS = frozenset({"passed", "quad_d14_note", "cubic_d83_note", "same_as_first_pass"})

    def __init__(self, seed: int, tiny: bool):
        ref = report.load_reference_tables()
        cubic_ref = ref[report.CUBIC_ORDINARY_TABLE]
        # verify_tables refuses bounds below the largest stored entry.
        largest = max(p for row in cubic_ref.values() for p in row)
        self.cubic_pmax = largest if tiny else report.CUBIC_TABLE_DEFAULT_PMAX
        self.items = len(ref[report.QUAD_TABLE]) * count_primes(
            PrimeRange(quadratic.MIN_SCAN_PRIME, report.QUAD_TABLE_PMAX)
        ) + len(cubic_ref) * count_primes(PrimeRange(3, self.cubic_pmax))

    def run_pass(self, clock, checks: Checks) -> None:
        for table, pmax in (
            (report.QUAD_TABLE, None),
            (report.H5_TABLE, None),
            (report.CUBIC_ORDINARY_TABLE, self.cubic_pmax),
        ):
            with clock:
                diff = report.verify_tables(table, pmax=pmax, workers=self.workers)
            notes = {r.key: r.by_design for r in diff.rows}
            conditions = {"passed": diff.passed}
            # The two documented by-design divergences of the stored tables.
            if table == report.QUAD_TABLE:
                conditions["quad_d14_note"] = any("p=2 " in n for n in notes.get(14, ()))
            if table == report.CUBIC_ORDINARY_TABLE:
                conditions["cubic_d83_note"] = any("p=7 " in n for n in notes.get(-83, ()))
            checks.op(table, fingerprint=diff, **conditions)


class SweepFull:
    """The audit sweep: scan_quadratic for all 18 D with p <= 5e4, then
    scan_cubic in h2 mode for all 14 fields with p <= 1e5, full verdicts,
    workers=2, every report serialized with report_to_json.

    Exercises the scan layers of ``tables`` differently: order_arith.pow2
    and the h2 path, full verdicts instead of hits only, one pool per field
    in parallel, about 226k Verdicts pickled back, and report assembly,
    checksums and serialization at full size.  Skips the ordinary test,
    verify_tables and heuristics.
    """

    name = "sweep_full"
    item = "verdicts written"
    workers = 2
    CHECKS = frozenset({"round_trip", "h2_no_hits", "matches_recorded", "same_as_first_pass"})

    def __init__(self, seed: int, tiny: bool):
        self.scale = "tiny" if tiny else "full"
        self.offset = seed % WINDOW_OFFSETS
        self.quad_range = PrimeRange(3, _window_end(4_000 if tiny else 50_000, seed))
        self.cubic_range = PrimeRange(3, _window_end(8_000 if tiny else 100_000, seed))
        self.quad_records = quadratic.load_quad_fields()
        self.cubic_records = cubic.load_cubic_fields()
        self.items = 0

    def reports(self, clock):
        """Yield (report, JSON text) per field; scans and serialization are timed."""
        for d in sorted(self.quad_records):
            with clock:
                rep = quadratic.scan_quadratic(
                    self.quad_records[d], self.quad_range, full_verdicts=True, workers=self.workers
                )
                text = report.report_to_json(rep)
            yield rep, text
        for delta in sorted(self.cubic_records, reverse=True):
            with clock:
                rep = cubic.scan_cubic(
                    self.cubic_records[delta],
                    self.cubic_range,
                    mode=cubic.MODE_H2,
                    full_verdicts=True,
                    workers=self.workers,
                )
                text = report.report_to_json(rep)
            yield rep, text

    def run_pass(self, clock, checks: Checks) -> None:
        lines, items = [], 0
        for rep, text in self.reports(clock):
            try:
                round_trip = report.report_from_json(text) == rep
            except ValueError:  # raised when the stored checksum does not verify
                round_trip = False
            conditions = {"round_trip": round_trip}
            if rep.mode == cubic.MODE_H2:
                conditions["h2_no_hits"] = not rep.hits
            checks.op(rep.field_id, fingerprint=rep.checksum, **conditions)
            lines.append(report_line(rep))
            items += len(rep.hits) + len(rep.excluded) + len(rep.clears)
        self.items = items
        recorded = json.loads(RECORDED_CHECKSUMS.read_text())[self.scale][str(self.offset)]
        checks.op("recorded checksums", matches_recorded=digest(lines) == recorded)


def report_line(rep) -> str:
    return f"{rep.field_id} {rep.mode} {rep.checksum}"


def digest(lines: list[str]) -> str:
    """One SHA-256 over the ordered (field, mode, checksum) lines of a sweep."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Wieferich:
    """scan_wieferich(2, [3, 1e7]), workers=1.

    Exercises primes (the sieve is a measurable share next to the builtin
    pow) and the heuristics Wieferich chunk.  Skips order_arith, cubic,
    quadratic and the pool, so kernel changes should show no change here.
    """

    name = "wieferich"
    item = "primes tested"
    workers = 1
    CHECKS = frozenset({"known_hits", "same_as_first_pass"})
    KNOWN = [1093, 3511]  # the only base-2 Wieferich primes below 2^64

    def __init__(self, seed: int, tiny: bool):
        self.range = PrimeRange(3, _window_end(10**5 if tiny else 10**7, seed))
        self.items = count_primes(self.range)

    def run_pass(self, clock, checks: Checks) -> None:
        with clock:
            rep = heuristics.scan_wieferich(2, self.range, workers=self.workers)
        hits = [v.p for v in rep.hits]
        checks.op("wieferich", fingerprint=rep.checksum, known_hits=hits == self.KNOWN)


class MonteCarlo:
    """monte_carlo_injective for (p, n, m) = (3,4,4) x 1e5, (3,2,2) x 1e6
    and (5,3,3) x 1e6 trials, seeded from the benchmark seed.

    The only workload on the numpy path of heuristics; (3,4,4) runs almost
    entirely in the scalar _rank_mod_p fallback.  Skips primes and every scan.
    """

    name = "montecarlo"
    item = "trials"
    workers = 1
    CHECKS = frozenset({"within_5_se", "same_as_first_pass"})
    CASES = ((3, 4, 4, 10**5), (3, 2, 2, 10**6), (5, 3, 3, 10**6))

    def __init__(self, seed: int, tiny: bool):
        scale = 100 if tiny else 1
        self.cases = [
            (p, n, m, trials // scale, seed * len(self.CASES) + i)
            for i, (p, n, m, trials) in enumerate(self.CASES)
        ]
        self.items = sum(c[3] for c in self.cases)

    def run_pass(self, clock, checks: Checks) -> None:
        for p, n, m, trials, seed in self.cases:
            with clock:
                res = heuristics.monte_carlo_injective(p, n, m, trials, seed)
            prob = heuristics.injective_probability(p, n, m).approx
            se = math.sqrt(prob * (1 - prob) / trials)
            checks.op(
                f"monte_carlo({p},{n},{m})",
                fingerprint=res.successes,
                within_5_se=abs(res.successes / trials - prob) <= 5 * se,
            )


WORKLOADS = {w.name: w for w in (Tables, SweepFull, Wieferich, MonteCarlo)}
