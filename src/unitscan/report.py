"""Scan verdicts, report serialization, checksums, and table verification.

Reports carry the per-prime outcomes of a scan plus enough metadata to
reproduce it.  Two formats are emitted: CSV (one verdict per row, fixed
column order ``field,p,mode,status,reason,aux``) and JSON (self-describing,
full metadata).  The checksum is a SHA-256 of the canonical JSON payload of
the scan content only (field, mode, range, verdict lists), so serial and
partitioned runs of the same scan hash identically.  All three are written
in json.dumps' and csv's bytes, the exclusion and clear columns by ``_column``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

from ._data import DataFileError, data_path, read_json

TOOL_VERSION = "0.1.0"

HIT = "hit"
CLEAR = "clear"
EXCLUDED = "excluded"

CSV_COLUMNS = ("field", "p", "mode", "status", "reason", "aux")

# A Block stores one int8 code per prime, its index in CODES: clear, hit, then
# the exclusion reasons of the quadratic, cubic and Wieferich scans.
CODES = (CLEAR, HIT, "below_min_p", "ramified", "divides_class_number", "hyp1_divides_6",
         "hyp2_ramified", "hyp3_class_number", "hyp5_in_H5", "p_2_mod_3", "frob_order_not_3",
         "z_zero", "divides_base")
CLEAR_CODE, HIT_CODE = CODES.index(CLEAR), CODES.index(HIT)
_REASON_CODES = {reason: code for code, reason in enumerate(CODES) if code > HIT_CODE}  # the exclusions
# Fraction bits of the fixed-point sum of 1/denominator (terms floored): below 2^63 to 1e9.
_RECIP_BITS = 60


@dataclass(frozen=True)
class Verdict:
    """Outcome for one prime: exactly one status, a reason when excluded."""

    p: int
    status: str
    reason: str | None = None
    aux: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.status not in (HIT, CLEAR, EXCLUDED):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == EXCLUDED and not self.reason:
            raise ValueError("excluded verdicts must carry a reason")


def _verdicts(primes, codes, aux=()):
    """The Verdicts of coded lanes, one at a time; aux holds the hits' aux in order."""
    aux = iter(aux)
    for p, c in zip(primes.tolist(), codes.tolist()):
        if c > HIT_CODE:
            yield Verdict(p, EXCLUDED, reason=CODES[c])
        else:
            yield Verdict(p, CODES[c], aux=next(aux, None) if c == HIT_CODE else None)


@dataclass(frozen=True, eq=False)
class Block:
    """The lanes kept of a chunk or a whole scan: primes (int64, ascending),
    codes and the aux of the hits; iterating builds their Verdicts.  counts
    (per code) and recip (the expected hits, the sum over the tested primes of
    each one's hit probability 1/denominator, in 2^-60 units) cover every
    prime classified, as integers that no chunking changes."""

    primes: np.ndarray
    codes: np.ndarray
    aux: tuple
    counts: np.ndarray
    recip: int

    @classmethod
    def of(cls, primes, codes, aux=(), hits_only=False, denominators=None) -> "Block":
        """The Block of a chunk's primes and codes, keeping every lane or only the hits;
        a tested lane hits with probability 1/denominator (int64 lanes, by default p)."""
        denominators = primes if denominators is None else denominators
        recip = int(((1 << _RECIP_BITS) // denominators[codes <= HIT_CODE]).sum())
        counts = np.bincount(codes, minlength=len(CODES))
        keep = codes == HIT_CODE if hits_only else slice(None)
        return cls(primes[keep], codes[keep], aux, counts, recip)

    def __len__(self) -> int:
        return len(self.primes)

    def __iter__(self):
        return _verdicts(self.primes, self.codes, self.aux)

    def __eq__(self, other):
        return isinstance(other, Block) and self.aux == other.aux and self.recip == other.recip and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in ("primes", "codes", "counts"))

    @classmethod
    def join(cls, blocks) -> "Block":
        primes = np.concatenate([b.primes for b in blocks])
        codes = np.concatenate([b.codes for b in blocks])
        aux = tuple(a for b in blocks for a in b.aux)
        return cls(primes, codes, aux, sum(b.counts for b in blocks), sum(b.recip for b in blocks))


def _exclusions(primes, reasons) -> Block:
    """The Block of excluded primes and their reasons, which must be known ones."""
    try:
        codes = np.fromiter(map(_REASON_CODES.__getitem__, reasons), dtype=np.int8, count=len(reasons))
    except (KeyError, TypeError):  # name the first unknown reason, hashable or not
        p, reason = next((p, r) for p, r in zip(primes, reasons) if r not in CODES[HIT_CODE + 1:])
        raise ValueError(f"unknown exclusion reason {reason!r} at p={p}") from None
    return Block.of(np.array(primes, dtype=np.int64), codes)


@dataclass(frozen=True)
class ScanReport:
    """Hits, exclusions (a Block, or Verdicts made one), clears (a tuple, or lanes made one): disjoint, ascending."""

    field_id: str
    mode: str
    lo: int
    hi: int
    hits: tuple[Verdict, ...]
    excluded: Block | None = None
    clears: tuple[int, ...] | None = None
    warnings: tuple[str, ...] = ()
    wall_time: float = 0.0
    workers: int = 1
    version: str = TOOL_VERSION
    checksum: str = ""
    tested: int | None = None  # this and the next two: counters outside the checksum
    excluded_counts: dict[str, int] | None = None
    expected_hits: float | None = None
    _clears: np.ndarray = field(init=False, repr=False, compare=False)  # clears as int64 lanes

    def __post_init__(self):
        ex = self.excluded
        if ex is not None and not isinstance(ex, Block):
            object.__setattr__(self, "excluded", _exclusions([v.p for v in ex], [v.reason for v in ex]))
        lists = [v.p for v in self.hits], None if self.excluded is None else self.excluded.primes, self.clears
        cols = [np.asarray(() if c is None else c, dtype=np.int64) for c in lists]
        if isinstance(self.clears, np.ndarray):
            object.__setattr__(self, "clears", tuple(cols[2].tolist()))
        first = max(self.lo, 2)
        for name, col in zip(("hits", "excluded", "clears"), cols):
            down = np.flatnonzero(col[1:] <= col[:-1])
            if down.size:
                raise ValueError(f"{name} must be strictly ascending: p={col[down[0] + 1]} follows p={col[down[0]]}")
            if col.size and not first <= int(col[0]) <= int(col[-1]) <= self.hi:
                raise ValueError(f"{name} must lie in [{first}, {self.hi}]: p={col[0] if col[0] < first else col[-1]}")
        every = np.sort(np.concatenate(cols))
        twice = every[1:][every[1:] == every[:-1]]
        if twice.size:
            raise ValueError(f"p={twice[0]} is in more than one of hits, excluded and clears")
        object.__setattr__(self, "_clears", cols[2])
        want = compute_checksum(self)
        if not self.checksum:
            object.__setattr__(self, "checksum", want)
        elif self.checksum != want:
            raise ValueError("checksum does not match report content")


def assemble_report(
    field_id: str,
    mode: str,
    lo: int,
    hi: int,
    verdicts: Block,
    full_verdicts: bool = False,
    warnings=(),
    wall_time: float = 0.0,
    workers: int = 1,
) -> ScanReport:
    """Build a report from the Block of a whole scan: Verdicts for its hits,
    and its exclusions and clears (which it must hold) under full_verdicts."""
    primes, codes = verdicts.primes, verdicts.codes
    hit = codes == HIT_CODE
    hits = tuple(_verdicts(primes[hit], codes[hit], verdicts.aux))
    excluded = clears = None
    if full_verdicts:
        out = codes > HIT_CODE
        excluded = Block.of(primes[out], codes[out])
        clears = primes[codes == CLEAR_CODE]
    counts = verdicts.counts.tolist()
    return ScanReport(
        field_id=field_id,
        mode=mode,
        lo=lo,
        hi=hi,
        hits=hits,
        excluded=excluded,
        clears=clears,
        warnings=tuple(warnings),
        wall_time=wall_time,
        workers=workers,
        # the counters, outside the checksum
        tested=counts[CLEAR_CODE] + counts[HIT_CODE],
        excluded_counts={CODES[c]: n for c, n in enumerate(counts) if c > HIT_CODE and n},
        expected_hits=verdicts.recip / (1 << _RECIP_BITS),
    )


# -- serialization ------------------------------------------------------------


def _column(primes, codes, head: bytes, tails, sep: bytes) -> list:
    """sep.join(head + str(p) + tails[c]) over ascending int64 primes p > 0 and their int8 codes c (None:
    all 0) as bytes-like pieces, with no str per p: one uint8 matrix per digit count m, rows head, the m
    digits (right to left, in 9-digit uint32 limbs) and tails[c] + sep padded to the widest c present."""
    codes = np.zeros(len(primes), np.int8) if codes is None else codes
    ends = [t + sep for t in tails]
    widths = {len(ends[c]) for c in np.flatnonzero(np.bincount(codes, minlength=len(ends)))}
    runs = [0, *np.searchsorted(primes, 10 ** np.arange(1, 19, dtype=np.int64)).tolist(), len(primes)]
    n, q, pieces = len(str(primes[-1])) if len(primes) else 0, primes, []
    digits = np.empty((n, len(primes)), np.uint8)
    for i in reversed(range(n)):
        if (n - 1 - i) % 9 == 0:  # the next 9-digit limb, below 2^32
            q, limb = np.divmod(q, 10 ** 9) if i >= 9 else (q, q)
            limb = limb.astype(np.uint32)
        rest = limb // 10
        digits[i], limb = limb - rest * 10 + ord("0"), rest
    for m, (lo, hi) in enumerate(zip(runs, runs[1:]), 1):
        if lo < hi:
            row = np.dtype((np.void, len(head) + m + max(widths)))
            table = b"".join((head + bytes(m) + e)[:row.itemsize].ljust(row.itemsize, b"\0") for e in ends)
            rows = np.frombuffer(table, row).take(codes[lo:hi]).view(np.uint8).reshape(hi - lo, -1)
            rows[:, len(head):len(head) + m] = digits[n - m:, lo:hi].T
            if len(widths) > 1:  # drop the padding
                keep = np.arange(row.itemsize) < np.array([[len(head) + m + len(e)] for e in ends])
                rows = rows[keep.view(row).take(codes[lo:hi]).view(bool).reshape(rows.shape)]
            pieces.append(rows.reshape(-1))
    return pieces[:-1] + [pieces[-1][:len(pieces[-1]) - len(sep)]] if pieces else []


def _json_object(plain: dict, r: ScanReport, seps, exclusion) -> bytes:
    """The JSON object, keys sorted, of the plain members and of the report's
    exclusions (exclusion[0], p, exclusion[1] % reason, in bytes) and clears, if held."""
    sep, colon = (s.encode() for s in seps)
    texts = {name: [json.dumps(value, sort_keys=True, separators=seps).encode()] for name, value in plain.items()}
    if r.excluded is not None:
        tails = [exclusion[1] % reason.encode() for reason in CODES]
        texts["excluded"] = [b"[", *_column(r.excluded.primes, r.excluded.codes, exclusion[0], tails, sep), b"]"]
    if r.clears is not None:
        texts["clears"] = [b"[", *_column(r._clears, None, b"", [b""], sep), b"]"]
    pieces = [piece for name, text in sorted(texts.items()) for piece in (sep, b'"%s"' % name.encode(), colon, *text)]
    return b"".join([b"{", *pieces[1:], b"}"])


def compute_checksum(r: ScanReport) -> str:
    plain = {"field": r.field_id, "mode": r.mode, "lo": r.lo, "hi": r.hi,
             "hits": [[v.p, None if v.aux is None else list(v.aux)] for v in r.hits]}
    return hashlib.sha256(_json_object(plain, r, (",", ":"), (b"[", b',"%s"]'))).hexdigest()


# ScanReport fields that JSON carries under their own names, and the counters,
# which a report file may lack (they load as None).
_JSON_FIELDS = ("version", "mode", "workers", "wall_time", "checksum")
_JSON_COUNTERS = ("tested", "excluded_counts", "expected_hits")


def report_to_json(r: ScanReport) -> str:
    plain = {name: getattr(r, name) for name in _JSON_FIELDS + _JSON_COUNTERS}
    plain.update(field=r.field_id, range=[r.lo, r.hi], warnings=list(r.warnings), excluded=None, clears=None,
                 hits=[{"p": v.p, "aux": None if v.aux is None else list(v.aux)} for v in r.hits])
    return _json_object(plain, r, (", ", ": "), (b'{"p": ', b', "reason": "%s"}')).decode()


class ReportKeyError(KeyError, ValueError):
    """A report file lacks a required key (a KeyError, as it always was)."""


def _json_values(kind: type, values: list) -> tuple:
    """values as a tuple if each has type kind (a JSON true is no int) and fits int64, else an error naming one."""
    bad = [v for v in values if type(v) is not kind]
    if bad:
        raise TypeError(f"{bad[0]!r} is not a JSON {'integer' if kind is int else 'string'}")
    if kind is int and values and not -1 << 63 <= min(values) <= max(values) < 1 << 63:
        raise OverflowError(f"{max(values, key=abs)} does not fit in 64 bits")
    return tuple(values)


def report_from_json(text: str) -> ScanReport:
    doc, args = json.loads(text), {}
    if not isinstance(doc, dict):
        raise ValueError(f"report file holds a JSON {type(doc).__name__}, not an object")
    opt = lambda parse: lambda v: None if v is None else parse(v)
    ps = lambda entries: _json_values(int, [e["p"] for e in entries])
    parse = dict(range=lambda r: _json_values(int, [r[0], r[1]]), warnings=lambda ws: _json_values(str, ws),
                 clears=opt(lambda cs: _json_values(int, cs)),
                 hits=lambda hs: tuple(Verdict(p, HIT, aux=opt(tuple)(h["aux"])) for p, h in zip(ps(hs), hs)),
                 excluded=opt(lambda ex: _exclusions(ps(ex), [e["reason"] for e in ex])))
    try:
        for key in ("field", *parse, *_JSON_FIELDS):
            args[key] = parse.get(key, lambda v: v)(doc[key])
    except KeyError as exc:
        raise ReportKeyError(f"report file lacks the key {exc.args[0]!r}") from None
    except (TypeError, IndexError, OverflowError) as exc:  # a value of the wrong shape or size
        raise ValueError(f"report file key {key!r} is malformed: {exc}") from None
    (lo, hi), field_id = args.pop("range"), args.pop("field")
    return ScanReport(field_id, lo=lo, hi=hi, **args, **{name: doc.get(name) for name in _JSON_COUNTERS})


def _csv_row(*cells) -> str:
    """One row as csv writes it; past one cell, each cell's text is the same in any row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def report_to_csv(r: ScanReport, header: bool = True) -> str:
    """Fixed column order field,p,mode,status,reason,aux; hits first, then
    clears and exclusions when the report carries them; csv writes every cell but p."""
    head = _csv_row(r.field_id, "")[:-1]  # the field's cell and a comma
    rows = [_csv_row(*CSV_COLUMNS)] if header else []
    rows += [f"{head}{v.p}," + _csv_row(r.mode, HIT, "", " ".join(map(str, v.aux or ()))) for v in r.hits]
    lanes = _column(r._clears, None, head.encode(), [("," + _csv_row(r.mode, CLEAR, "", "")).encode()], b"")
    if r.excluded is not None:
        tails = [("," + _csv_row(r.mode, EXCLUDED, reason, "")).encode() for reason in CODES]
        lanes += _column(r.excluded.primes, r.excluded.codes, head.encode(), tails, b"")
    return "".join(rows) + b"".join(lanes).decode()


# -- reference tables ----------------------------------------------------------

QUAD_TABLE = "quad_table"
H5_TABLE = "h5_table"
CUBIC_ORDINARY_TABLE = "cubic_ordinary_table"

# The stored quadratic table stops below this bound.
QUAD_TABLE_PMAX = 9999
CUBIC_TABLE_DEFAULT_PMAX = 200_000


def load_reference_tables(data_dir=None) -> dict:
    doc = read_json(data_path("reference_tables.json", data_dir))
    for key in (QUAD_TABLE, H5_TABLE, CUBIC_ORDINARY_TABLE):
        if key not in doc:
            raise DataFileError(f"reference table {key!r} missing")
        if not isinstance(doc[key], dict):
            raise DataFileError(f"reference table {key!r} is not a JSON object")
        for k, row in doc[key].items():
            if not (k.removeprefix("-").isdecimal() and isinstance(row, list) and all(type(c) is int for c in row)):
                raise DataFileError(f"reference table {key!r} row {k!r}: want a decimal key and an array of integers")
        doc[key] = {int(k): row for k, row in doc[key].items()}
    return doc


@dataclass(frozen=True)
class RowDiff:
    key: int
    expected: tuple[int, ...]
    got: tuple[int, ...]
    missing: tuple[int, ...]
    extra: tuple[int, ...]
    by_design: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.missing and not self.extra


@dataclass(frozen=True)
class TableDiff:
    table: str
    rows: tuple[RowDiff, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def render(self) -> str:
        lines = [f"table {self.table}: {'PASS' if self.passed else 'FAIL'}"]
        for r in self.rows:
            detail = f" missing={list(r.missing)}" if r.missing else ""
            detail += (f" extra={list(r.extra)}" if r.extra else "") + "".join(f" [{note}]" for note in r.by_design)
            lines.append(f"  {r.key}: {'ok' if r.ok else 'DIFF'} expected={list(r.expected)}{detail}")
        return "\n".join(lines)


def _diff_row(key, expected, got, by_design=lambda p: None) -> RowDiff:
    """Diff one table row.  by_design gives the note of a missing prime whose
    omission is a documented consequence of the scan policy (then it is not a
    failure), or None when it is a real mismatch."""
    exp, g = set(expected), set(got)
    notes = {p: by_design(p) for p in sorted(exp - g)}
    return RowDiff(key, tuple(sorted(exp)), tuple(sorted(g)), tuple(p for p, note in notes.items() if not note),
                   tuple(sorted(g - exp)), tuple(note for note in notes.values() if note))


def verify_tables(table: str, pmax: int | None = None, workers: int = 1, data_dir=None) -> TableDiff:
    """Recompute a reference table and report the differences.

    An empty diff means the scan reproduces the stored table; entries below
    the minimum scan prime are listed as excluded by design rather than as
    failures.
    """
    from . import cubic, quadratic  # deferred: those modules build reports via this one

    tables = load_reference_tables(data_dir)
    if table == H5_TABLE:
        records = cubic.load_cubic_fields(data_dir)
        rows = [_diff_row(delta, row, sorted(cubic.h5_reduced(records[delta].ramified)))
                for delta, row in sorted(tables[H5_TABLE].items(), reverse=True)]
        return TableDiff(H5_TABLE, tuple(rows))
    q_min = quadratic.MIN_SCAN_PRIME

    def quad_scan(rec, pmax):
        rng = quadratic.PrimeRange(q_min, min(pmax, QUAD_TABLE_PMAX))
        return quadratic.scan_quadratic(rec, rng, workers=workers)

    def quad_note(rec, p):
        return f"p={p} excluded by design (scan starts at {q_min})" if p < q_min else None

    def cubic_scan(rec, pmax):
        return cubic.scan_cubic(rec, cubic.PrimeRange(3, pmax), mode=cubic.MODE_ORDINARY, workers=workers)

    def cubic_note(rec, p):
        # A reference entry the hypothesis filter rejects is a documented policy
        # divergence, not a scan failure (the stored rows are kept verbatim).
        reason = cubic.hyp_filter(rec, p)
        return reason and f"p={p} kept in the stored row but excluded by the hypothesis filter ({reason})"

    # records loader, default pmax, scan of one record, keys descending, by-design note
    scanned = {
        QUAD_TABLE: (quadratic.load_quad_fields, QUAD_TABLE_PMAX, quad_scan, False, quad_note),
        CUBIC_ORDINARY_TABLE: (cubic.load_cubic_fields, CUBIC_TABLE_DEFAULT_PMAX, cubic_scan, True, cubic_note),
    }
    if table not in scanned:
        raise ValueError(f"unknown table {table!r}")
    load, default_pmax, scan, descending, note = scanned[table]
    ref = tables[table]
    largest = max((p for row in ref.values() for p in row), default=0)
    pmax = default_pmax if pmax is None else pmax
    if pmax < largest:
        raise ValueError(f"pmax must cover the largest table entry {largest}")
    records = load(data_dir)
    rows = []
    for key in sorted(ref, reverse=descending):
        rec = records[key]
        got = [v.p for v in scan(rec, pmax).hits]
        rows.append(_diff_row(key, ref[key], got, by_design=lambda p, rec=rec: note(rec, p)))
    return TableDiff(table, tuple(rows))
