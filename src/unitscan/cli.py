"""Command-line surface: field scans, exclusion sets, Wieferich search,
heuristic calculators, and reference-table verification.

Reports go to stdout in CSV or JSON; progress summaries go to stderr.
Exit codes: 0 success, 1 table verification mismatch, 2 bad arguments,
3 data-file validation failure.
"""

from __future__ import annotations

import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

import click

from . import cubic, heuristics, quadratic, report
from ._data import DataFileError
from .primes import PrimeRange
from .report import (
    CUBIC_ORDINARY_TABLE,
    H5_TABLE,
    QUAD_TABLE,
    report_to_csv,
    report_to_json,
)


def _workers_default() -> int:
    return os.cpu_count() or 1


_workers_option = click.option("--workers", type=click.IntRange(min=1), default=_workers_default)


def integer(value) -> int:
    """Click type of a prime bound or a count: an integer, plain or as a decimal mantissa times a
    power of ten that makes one (1.2e6, not 1.25e1), read exactly."""
    m = re.fullmatch(r"([+-]?\d+)(?:(?:\.(\d*))?[eE]\+?(\d{1,2}))?", str(value).strip())
    if m is None or (n := Fraction(f"{m[1]}.{m[2] or 0}") * 10 ** int(m[3] or 0)).denominator != 1:
        raise click.BadParameter(f"{value!r} is not an integer such as 10000000 or 1e7")
    return int(n)


def _echo_summary(rep):
    """The report, after its summary line and warnings go to stderr."""
    click.echo(
        f"{rep.field_id} [{rep.mode}] p in [{rep.lo}, {rep.hi}]: "
        f"{len(rep.hits)} hit(s) ({rep.expected_hits:.2f} expected) of {rep.tested} tested "
        f"in {rep.wall_time:.2f}s (workers={rep.workers})",
        err=True,
    )
    for w in rep.warnings:
        click.echo(f"warning: {w}", err=True)
    return rep


def _emit_reports(reports, fmt: str) -> None:
    """Echo each report's summary line as the scan finishes, then print the reports."""
    reports = [_echo_summary(r) for r in reports]
    if fmt == "json":
        if len(reports) == 1:
            click.echo(report_to_json(reports[0]))
        else:
            click.echo("[%s]" % ",\n".join(report_to_json(r) for r in reports))
    else:
        for i, r in enumerate(reports):
            click.echo(report_to_csv(r, header=(i == 0)), nl=False)


@contextmanager
def _bad_input():
    """The one bad-input boundary: a data-file fault exits 3, a bad value 2."""
    try:
        yield
    except DataFileError as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(3)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _pick(records, key, what):
    if key.lower() == "all":
        return [records[k] for k in sorted(records)]
    try:
        k = int(key)
    except ValueError:
        raise click.BadParameter(f"{what} must be an integer or 'all'")
    if k not in records:
        raise click.BadParameter(
            f"no record for {what}={k}; available: {sorted(records)}"
        )
    return [records[k]]


@click.group()
def main():
    """Prime scans for unit congruences in quadratic and cubic orders."""


@main.command("scan-quad")
@click.option("--d", "d_key", required=True, help="Squarefree D >= 2, or 'all'.")
@click.option("--pmax", type=integer, default=report.QUAD_TABLE_PMAX, show_default=True, help="Inclusive upper bound.")
@click.option("--pmin", type=integer, default=quadratic.MIN_SCAN_PRIME, show_default=True)
@click.option("--full-verdicts", is_flag=True, help="Report clears and exclusions too.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@_workers_option
@click.option("--data-dir", default=None, help="Override the bundled data directory.")
def scan_quad(d_key, pmax, pmin, full_verdicts, fmt, workers, data_dir):
    """Scan primes for the mod-p^2 fundamental-unit congruence in Q(sqrt(D))."""
    with _bad_input():
        rng = PrimeRange(pmin, pmax)
        records = quadratic.load_quad_fields(data_dir)
    _emit_reports((quadratic.scan_quadratic(rec, rng, full_verdicts=full_verdicts, workers=workers)
                   for rec in _pick(records, d_key, "D")), fmt)


@main.command("scan-cubic")
@click.option("--delta", required=True, help="Field discriminant (negative), or 'all'.")
@click.option("--pmax", type=integer, default=report.CUBIC_TABLE_DEFAULT_PMAX, show_default=True)
@click.option("--pmin", type=integer, default=3, show_default=True)
@click.option("--mode", type=click.Choice([cubic.MODE_H2, cubic.MODE_ORDINARY]), required=True)
@click.option("--full-verdicts", is_flag=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@_workers_option
@click.option("--data-dir", default=None)
def scan_cubic_cmd(delta, pmax, pmin, mode, full_verdicts, fmt, workers, data_dir):
    """Scan inert primes of a complex cubic field (z-invariant tests)."""
    with _bad_input():
        rng = PrimeRange(pmin, pmax)
        records = cubic.load_cubic_fields(data_dir)
    _emit_reports((cubic.scan_cubic(rec, rng, mode=mode, full_verdicts=full_verdicts, workers=workers)
                   for rec in _pick(records, delta, "delta")), fmt)


@main.command("h5")
@click.option("--delta", required=True, help="Field discriminant (negative), or 'all'.")
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]), default="text", show_default=True)
@click.option("--data-dir", default=None)
def h5_cmd(delta, fmt, data_dir):
    """Print the small-prime exclusion set (raw, and with 2 and 3 removed)."""
    with _bad_input():
        records = cubic.load_cubic_fields(data_dir)
    rows = []
    for rec in _pick(records, delta, "delta"):
        raw = sorted(cubic.h5_set(rec.ramified))
        red = sorted(cubic.h5_reduced(rec.ramified))
        rows.append((rec.delta, raw, red))
    if fmt == "json":
        click.echo(
            json.dumps(
                {str(d): {"raw": raw, "reduced": red} for d, raw, red in rows},
                indent=2,
                sort_keys=True,
            )
        )
    elif fmt == "csv":
        click.echo("delta,variant,primes")
        for d, raw, red in rows:
            click.echo(f"{d},raw,{' '.join(map(str, raw))}")
            click.echo(f"{d},reduced,{' '.join(map(str, red))}")
    else:
        for d, raw, red in rows:
            click.echo(f"delta={d}  H5\\{{2,3}} = {{{', '.join(map(str, red))}}}  "
                       f"raw = {{{', '.join(map(str, raw))}}}")


@main.command("wieferich")
@click.option("--base", type=click.IntRange(min=2), default=2, show_default=True)
@click.option("--pmax", type=integer, required=True)
@click.option("--pmin", type=integer, default=2, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@_workers_option
def wieferich_cmd(base, pmax, pmin, fmt, workers):
    """Scan for primes with base^(p-1) = 1 mod p^2."""
    with _bad_input():
        rng = PrimeRange(pmin, pmax)
    _emit_reports([heuristics.scan_wieferich(base, rng, workers=workers)], fmt)


@main.group("heuristics")
def heuristics_group():
    """Closed-form probability and density calculators."""


def _echo_value(label: str, hv) -> None:
    click.echo(f"{label} = {hv.numerator}/{hv.denominator} = {hv.approx:.10g}")


@heuristics_group.command("injective-prob")
@click.option("-p", type=int, required=True)
@click.option("-n", type=int, required=True)
@click.option("-m", type=int, required=True)
def injective_prob_cmd(p, n, m):
    """Probability that a random map F_p^n -> F_p^m is injective."""
    with _bad_input():
        hv = heuristics.injective_probability(p, n, m)
    _echo_value(f"P(injective F_{p}^{n} -> F_{p}^{m})", hv)


@heuristics_group.command("monte-carlo")
@click.option("-p", type=int, required=True)
@click.option("-n", type=int, required=True)
@click.option("-m", type=int, required=True)
@click.option("--trials", type=integer, default=100_000, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
def monte_carlo_cmd(p, n, m, trials, seed):
    """Seeded empirical injectivity frequency (reproducible)."""
    with _bad_input():
        res = heuristics.monte_carlo_injective(p, n, m, trials, seed)
    click.echo(
        f"frequency = {res.frequency:.6f}  ({res.successes}/{res.trials}, "
        f"std_error = {res.std_error:.6f}, seed = {res.seed})"
    )


@heuristics_group.command("densities")
@click.option("-p", type=int, required=True)
def densities_cmd(p):
    """The four level-raising class densities at p."""
    with _bad_input():
        dens = heuristics.level_raising_densities(p)
    for k in ("i", "ii", "iii", "iv"):
        _echo_value(f"density({k})", dens[k])


@heuristics_group.command("mult-dist")
@click.option("--k0", type=int, required=True, help="Size of the coefficient field (prime power).")
@click.option("--imax", type=click.IntRange(min=1), default=5, show_default=True)
def mult_dist_cmd(k0, imax):
    """Expected multiplicity distribution over 1 <= i <= imax."""
    with _bad_input():
        for i in range(1, imax + 1):
            _echo_value(f"density(multiplicity = {i})", heuristics.multiplicity_distribution(k0, i))


@heuristics_group.command("expected-count")
@click.option("--x", type=integer, required=True)
@click.option("--power", type=int, default=1, show_default=True)
def expected_count_cmd(x, power):
    """Expected number of exceptional primes up to x under the 1/p^power model."""
    with _bad_input():
        val = heuristics.expected_exceptional_count(x, power)
    click.echo(f"sum 1/p^{power} (p <= {x}) = {val:.9f}")


@main.command("verify-tables")
@click.option(
    "--table",
    type=click.Choice(["all", "quad", "h5", "cubic"]),
    default="all",
    show_default=True,
)
@click.option("--pmax", type=integer, default=None,
              help=f"Scan bound (defaults per table); the quad table never scans past {report.QUAD_TABLE_PMAX}.")
@_workers_option
@click.option("--data-dir", default=None)
def verify_tables_cmd(table, pmax, workers, data_dir):
    """Recompute the stored reference tables and report any differences."""
    names = {
        "quad": QUAD_TABLE,
        "h5": H5_TABLE,
        "cubic": CUBIC_ORDINARY_TABLE,
    }
    targets = list(names.values()) if table == "all" else [names[table]]
    ok = True
    with _bad_input():
        for t in targets:
            diff = report.verify_tables(t, pmax=pmax, workers=workers, data_dir=data_dir)
            click.echo(diff.render())
            ok = ok and diff.passed
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
