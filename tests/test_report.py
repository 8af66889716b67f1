import json
import os
import re
import subprocess
import sys
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from unitscan import report
from unitscan.cubic import MODE_H2, MODE_ORDINARY, scan_cubic
from unitscan.heuristics import scan_wieferich
from unitscan.primes import RANGE_LIMIT, PrimeRange
from unitscan.quadratic import scan_quadratic
from unitscan.report import (
    CSV_COLUMNS,
    CUBIC_ORDINARY_TABLE,
    H5_TABLE,
    QUAD_TABLE,
    Block,
    ScanReport,
    TableDiff,
    Verdict,
    _diff_row,
    compute_checksum,
    report_from_json,
    report_to_csv,
    report_to_json,
    verify_tables,
)

from _blocks import block_of
from _oracles import report_checksum_oracle, report_csv_oracle, report_json_oracle

PINNED_CHECKSUMS = Path(__file__).parent / "data" / "full_verdict_checksums.json"


def sample_report(full=False):
    hits = (Verdict(13, "hit", aux=(5, 0, 11)), Verdict(31, "hit", aux=(1, 2, 3)))
    excluded = (Verdict(11, "excluded", reason="hyp5_in_H5"),) if full else None
    clears = (7, 19) if full else None
    return ScanReport(
        field_id="cubic(delta=-23)",
        mode="ordinary",
        lo=3,
        hi=100,
        hits=hits,
        excluded=excluded,
        clears=clears,
        warnings=("h_E unknown for delta=-23: the class-number exclusion was not applied",),
        wall_time=0.125,
        workers=2,
        tested=4,
        excluded_counts={"hyp5_in_H5": 1, "p_2_mod_3": 12},
        expected_hits=0.3125,
    )


def test_clears_from_lanes_or_a_tuple():
    # assemble_report hands ScanReport its clear lanes, and the report shows them as a tuple
    base = sample_report(True)
    lanes = replace(base, clears=np.array(base.clears, dtype=np.int64), checksum="")
    assert type(lanes.clears) is tuple and lanes.clears == base.clears
    assert lanes == base and lanes.checksum == base.checksum
    with pytest.raises(ValueError, match="clears must be strictly ascending"):
        replace(base, clears=np.array(base.clears[::-1], dtype=np.int64), checksum="")


def test_block_join_keeps_range_order():
    # hits of two chunks keep their own aux, and the counters add up
    first = [Verdict(5, "hit", aux=(1, 2, 3)), Verdict(7, "clear")]
    second = [Verdict(11, "excluded", reason="z_zero"), Verdict(13, "hit", aux=(4, 5, 6))]
    joined = Block.join([block_of(first), block_of(second)])
    assert len(joined) == 4 and list(joined) == first + second
    assert joined == block_of(first + second) and joined != block_of(first) and joined != list(joined)
    assert joined.counts.tolist() == block_of(first + second).counts.tolist()
    assert joined.recip == block_of(first + second).recip


@pytest.mark.parametrize("full", [False, True])
def test_json_round_trip(full):
    rep = sample_report(full)
    back = report_from_json(report_to_json(rep))
    assert back == rep


def test_json_required_fields_and_optional_counters():
    doc = json.loads(report_to_json(sample_report()))
    no_checksum = {k: v for k, v in doc.items() if k != "checksum"}
    with pytest.raises(KeyError, match="checksum"):
        report_from_json(json.dumps(no_checksum))
    # report files written before the counters existed lack them
    old = report_from_json(json.dumps({k: v for k, v in doc.items() if k not in (
        "tested", "excluded_counts", "expected_hits")}))
    assert (old.tested, old.excluded_counts, old.expected_hits) == (None, None, None)
    assert old.checksum == doc["checksum"] and old.hits == sample_report().hits


def test_checksum_ignores_volatile_metadata():
    a = sample_report()  # b has neither wall time nor workers nor counters of a
    b = ScanReport(
        field_id=a.field_id, mode=a.mode, lo=a.lo, hi=a.hi, hits=a.hits,
        warnings=a.warnings, wall_time=9.5, workers=8,
    )
    assert a.checksum == b.checksum


def test_checksum_detects_tampering():
    doc = json.loads(report_to_json(sample_report()))
    doc["hits"][0]["p"] = 17
    with pytest.raises(ValueError, match="checksum"):
        report_from_json(json.dumps(doc))


def test_hits_must_ascend():
    with pytest.raises(ValueError, match="ascending"):
        ScanReport("f", "m", 2, 10, hits=(Verdict(7, "hit"), Verdict(5, "hit")))


def test_verdict_validation():
    with pytest.raises(ValueError):
        Verdict(5, "excluded")  # missing reason
    with pytest.raises(ValueError):
        Verdict(5, "bogus")


def test_csv_fixed_columns():
    text = report_to_csv(sample_report(full=True))
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "cubic(delta=-23),13,ordinary,hit,,5 0 11"
    assert lines[2] == "cubic(delta=-23),31,ordinary,hit,,1 2 3"
    assert "cubic(delta=-23),7,ordinary,clear,," in lines
    assert "cubic(delta=-23),11,ordinary,excluded,hyp5_in_H5," in lines


def test_csv_hits_only_by_default():
    text = report_to_csv(sample_report(full=False))
    assert len(text.strip().splitlines()) == 3  # header + 2 hits


def test_reference_tables_load(ref_tables):
    assert set(ref_tables["quad_table"]) == {d for d in range(2, 30) if d in ref_tables["quad_table"]}
    assert len(ref_tables["h5_table"]) == 14
    assert len(ref_tables["cubic_ordinary_table"]) == 14
    assert ref_tables["quad_table"][14] == [2]
    assert ref_tables["cubic_ordinary_table"][-83] == [7, 31]


def test_bundled_data_loads_from_a_zipped_package(tmp_path, ref_tables):
    # the bundled files are read in place: a zip import has no file on disk to hand out
    package = Path(report.__file__).parent
    archive = tmp_path / "unitscan.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(package.parent).as_posix())
    script = (
        "import json, unitscan\n"
        "from unitscan.report import load_reference_tables, verify_tables\n"
        "print(json.dumps([unitscan.__file__, len(unitscan.load_quad_fields()), len(unitscan.load_cubic_fields()),\n"
        "                  {k: len(v) for k, v in load_reference_tables().items()}, verify_tables('h5_table').passed]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "UNITSCAN_DATA_DIR")}
    out = subprocess.run([sys.executable, "-c", script], env=dict(env, PYTHONPATH=str(archive)),
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    where, quads, cubics, tables, passed = json.loads(out.stdout)
    assert Path(where).is_relative_to(archive)
    assert (quads, cubics, passed) == (18, 14, True)
    assert {QUAD_TABLE, H5_TABLE, CUBIC_ORDINARY_TABLE} <= tables.keys()
    assert tables == {k: len(v) for k, v in ref_tables.items()}


def test_verify_h5_table():
    diff = verify_tables(H5_TABLE)
    assert diff.passed
    assert all(not r.by_design for r in diff.rows)


def test_verify_quad_table():
    diff = verify_tables(QUAD_TABLE)
    assert diff.passed
    notes = {r.key: r.by_design for r in diff.rows if r.by_design}
    assert list(notes) == [14]
    assert "excluded by design" in notes[14][0]


def test_verify_tables_output():
    # the whole text of `unitscan verify-tables`, one render per table
    want = (Path(__file__).parent / "data" / "verify_tables.txt").read_text()
    tables = (QUAD_TABLE, H5_TABLE, CUBIC_ORDINARY_TABLE)
    assert "".join(verify_tables(t).render() + "\n" for t in tables) == want


def test_diff_row_sorts_missing_primes():
    # 2 is missing by design, 7 is a real miss, 11 is extra, 5 matches
    row = _diff_row(-1, [7, 2, 5], [11, 5], by_design=lambda p: f"note {p}" if p == 2 else None)
    assert (row.expected, row.got, row.missing, row.extra, row.by_design) == (
        (2, 5, 7), (5, 11), (7,), (11,), ("note 2",))
    assert not row.ok
    assert TableDiff("t", (row,)).render() == (
        "table t: FAIL\n  -1: DIFF expected=[2, 5, 7] missing=[7] extra=[11] [note 2]")
    assert _diff_row(-1, [2, 5], [5], by_design=lambda p: "note").ok


def test_verify_rejects_small_pmax():
    with pytest.raises(ValueError, match="largest table entry"):
        verify_tables(QUAD_TABLE, pmax=100)
    with pytest.raises(ValueError, match="largest table entry"):
        verify_tables(CUBIC_ORDINARY_TABLE, pmax=1000)
    with pytest.raises(ValueError, match="unknown table"):
        verify_tables("nope")


def test_scan_report_integration(quad_records):
    rep = scan_quadratic(quad_records[22], PrimeRange(3, 500))
    assert [v.p for v in rep.hits] == [43, 73, 409]
    back = report_from_json(report_to_json(rep))
    assert back == rep
    assert "quad(D=22),43,quad,hit,," in report_to_csv(rep)


def pinned_reports(quad_records, cubic_records):
    """(key, report) of the scans whose checksums data/full_verdict_checksums.json
    holds: every quadratic field and every cubic field in both modes, full
    verdicts to 2e4 and to 5,700 (one chunk whose every p^2 is below 2^25), and
    the Wieferich scans of bases 2, 3 and 5 to 1e5.  The file was written by the
    dict-based encoders; it changes only with the report format."""
    for hi, suffix in ((20_000, ""), (5_700, " to 5700")):
        rng = PrimeRange(2, hi)
        for d, rec in sorted(quad_records.items()):
            yield f"quad D={d}{suffix}", scan_quadratic(rec, rng, full_verdicts=True)
        for delta, rec in sorted(cubic_records.items()):
            for mode in (MODE_H2, MODE_ORDINARY):
                yield f"cubic delta={delta} {mode}{suffix}", scan_cubic(rec, rng, mode=mode, full_verdicts=True)
    for base in (2, 3, 5):
        yield f"wieferich base={base}", scan_wieferich(base, PrimeRange(2, 100_000))


@pytest.fixture(scope="module")
def pinned(quad_records, cubic_records):
    return dict(pinned_reports(quad_records, cubic_records))


def test_full_verdict_checksums_pinned(pinned):
    assert {key: rep.checksum for key, rep in pinned.items()} == json.loads(PINNED_CHECKSUMS.read_text())


# a field id and mode that JSON must escape and CSV must quote
ODD_FIELD = 'quad(D="2"), \u03b1\u00e9 \\ \t\n'
ODD_MODE = 'm\u00f6de,"x"'


def odd_reports():
    """Hand-built reports: no exclusion lists, empty ones, aux of None and of
    tuples, warnings, a field id and mode with quotes and non-ASCII text, and
    empty ones (csv quotes a lone empty cell)."""
    hits = (Verdict(5, "hit"), Verdict(13, "hit", aux=(5, 0, 11)), Verdict(17, "hit", aux=()))
    warnings = ('a "quoted" warning \u00e4', "second, with a comma")
    yield ScanReport(ODD_FIELD, ODD_MODE, 2, 100, hits=hits, warnings=warnings)
    yield ScanReport(ODD_FIELD, ODD_MODE, 2, 100, hits=(), excluded=(), clears=(), tested=0,
                     excluded_counts={}, expected_hits=0.0)
    yield ScanReport(ODD_FIELD, ODD_MODE, 2, 100, hits=hits, warnings=warnings, wall_time=1.5,
                     workers=3, excluded=(Verdict(2, "excluded", reason="below_min_p"),
                                          Verdict(3, "excluded", reason="z_zero")),
                     clears=(7, 11, 19), tested=6, excluded_counts={"z_zero": 1, "below_min_p": 1},
                     expected_hits=1 / 3)
    yield ScanReport("", "", 2, 10, hits=(Verdict(3, "hit"),), excluded=(), clears=(5, 7))
    # a NUL and a multi-byte character in the field's cell and in every tail: padding the
    # exclusions of unequal width with a sentinel byte and deleting it would break the CSV
    yield ScanReport("q\0(\u00e9)", "m\0\u00f6", 2, 10**6, hits=(Verdict(101, "hit"),), clears=(103, 99991, 999983),
                     excluded=tuple(Verdict(p, "excluded", reason=why) for p, why in [
                         (2, "hyp1_divides_6"), (3, "z_zero"), (5, "p_2_mod_3"), (97, "frob_order_not_3"),
                         (1009, "divides_class_number"), (10007, "ramified"), (100003, "p_2_mod_3")]))


def _plain(rep) -> dict:
    """The report as the oracles take it: plain values and lists."""
    return dict(
        field=rep.field_id, mode=rep.mode, lo=rep.lo, hi=rep.hi, warnings=list(rep.warnings),
        hits=[(v.p, v.aux) for v in rep.hits],
        excluded=None if rep.excluded is None else [(v.p, v.reason) for v in rep.excluded],
        clears=None if rep.clears is None else list(rep.clears),
        **{name: getattr(rep, name) for name in ("version", "workers", "wall_time", "checksum",
                                                 "tested", "excluded_counts", "expected_hits")},
    )


def test_report_bytes_match_oracles(pinned, quad_records, cubic_records):
    # every checksum, JSON and CSV byte against the dict- and row-based encoders; the
    # windows cross from 7- to 8-digit primes at 10^7 and end at RANGE_LIMIT (9 digits)
    hits_only = [scan_quadratic(quad_records[22], PrimeRange(3, 20_000)),
                 scan_cubic(cubic_records[-23], PrimeRange(3, 20_000), mode=MODE_ORDINARY)]
    windows = [PrimeRange(10**7 - 5_000, 10**7 + 5_000), PrimeRange(RANGE_LIMIT - 20_000, RANGE_LIMIT)]
    wide = [scan(rng) for rng in windows for scan in (
        lambda rng: scan_quadratic(quad_records[2], rng, full_verdicts=True),
        lambda rng: scan_cubic(cubic_records[-23], rng, mode=MODE_H2, full_verdicts=True))]
    assert all(rep.clears[0] < 10**7 < rep.clears[-1] for rep in wide[:2])
    assert len(wide[1].excluded) and len(wide[3].excluded)
    reports = [*pinned.values(), *hits_only, *wide, *odd_reports(), sample_report(), sample_report(True)]
    for rep in reports:
        plain = _plain(rep)
        assert compute_checksum(rep) == rep.checksum == report_checksum_oracle(plain), rep.field_id
        assert report_to_json(rep) == report_json_oracle(plain), rep.field_id
        for header in (True, False):
            assert report_to_csv(rep, header) == report_csv_oracle(plain, header), rep.field_id
        assert report_from_json(report_to_json(rep)) == rep, rep.field_id


# The column renderer against the join it replaces, on every code (tails of unequal width,
# with a NUL and a multi-byte character) and on the runs of equal digit count around its cuts.
RENDER_EDGES = [1, 2, 9, 10, 11, 99, 101, 10**9 - 63, 10**9 - 1, 10**9, 10**9 + 7, 2**32 - 5, 2**32 - 1, 2**32,
                2**32 + 1, 2**32 + 15, 10**18 - 11, 10**18 - 1, 10**18, 10**18 + 9, 2**63 - 25, 2**63 - 1]
RENDER_TAILS = [f',\0"{reason}\u00e9"]'.encode() for reason in report.CODES]
RENDER_SPREAD = np.unique((10 ** np.random.default_rng(7).uniform(0, 18.9, 3000)).astype(np.int64))


def render_oracle(primes, codes, head, tails, sep):
    codes = [0] * len(primes) if codes is None else codes.tolist()
    return sep.join(head + str(p).encode() + tails[c] for p, c in zip(primes.tolist(), codes))


@pytest.mark.parametrize("primes, codes", [
    ([], None),
    ([], []),
    ([7], None),
    ([2**63 - 1], [5]),
    (range(2, 2 + 3 * len(report.CODES), 3), range(len(report.CODES))),  # every code once
    (RENDER_EDGES, None),
    (RENDER_EDGES, [c % len(report.CODES) for c in range(len(RENDER_EDGES))]),
    (RENDER_SPREAD, None),
    (RENDER_SPREAD, np.random.default_rng(8).integers(0, len(report.CODES), len(RENDER_SPREAD))),
], ids=["empty", "empty coded", "one lane", "one coded lane", "every code", "edges", "edges coded", "spread",
        "spread coded"])
@pytest.mark.parametrize("head, tails, sep", [
    (b"", [b""], b","),
    (b'{"p": ', [b"}"], b", "),
    ("q\0(\u00e9),".encode(), RENDER_TAILS, b""),
    (b"[", RENDER_TAILS, b",\0"),
], ids=["plain", "one tail", "csv-like", "nul sep"])
def test_column_matches_join(primes, codes, head, tails, sep):
    primes = np.array(primes, dtype=np.int64)
    codes = None if codes is None else np.array(codes, dtype=np.int8) % len(tails)
    assert b"".join(report._column(primes, codes, head, tails, sep)) == render_oracle(primes, codes, head, tails, sep)


# (report content changed from sample_report(True), the error it must raise)
BAD_CONTENT = [
    ({"excluded": [(11, "bogus")]}, "unknown exclusion reason 'bogus' at p=11"),
    ({"clears": [7, 3, 7]}, "clears must be strictly ascending: p=3 follows p=7"),
    ({"hits": [(31, None), (13, None)]}, "hits must be strictly ascending: p=13 follows p=31"),
    ({"excluded": [(11, "z_zero"), (5, "ramified")]}, "excluded must be strictly ascending: p=5 follows p=11"),
    ({"excluded": [(11, "z_zero"), (11, "ramified")]}, "excluded must be strictly ascending: p=11 follows p=11"),
    ({"clears": [7, 13]}, "p=13 is in more than one of hits, excluded and clears"),
    ({"clears": [7, 11]}, "p=11 is in more than one of hits, excluded and clears"),
    ({"excluded": [(13, "z_zero")], "clears": []}, "p=13 is in more than one of hits, excluded and clears"),
    # primes below 2 or outside [lo, hi]
    ({"lo": 2, "excluded": [(0, "z_zero")]}, "excluded must lie in [2, 100]: p=0"),
    ({"lo": 2, "excluded": [(-5, "z_zero"), (11, "ramified")]}, "excluded must lie in [2, 100]: p=-5"),
    ({"lo": 2, "clears": [0, 5]}, "clears must lie in [2, 100]: p=0"),
    ({"lo": 2, "clears": [-3]}, "clears must lie in [2, 100]: p=-3"),
    ({"lo": 0, "clears": [1, 7]}, "clears must lie in [2, 100]: p=1"),
    ({"clears": [7, 101]}, "clears must lie in [3, 100]: p=101"),
    ({"lo": 17}, "hits must lie in [17, 100]: p=13"),
    ({"hi": 30}, "hits must lie in [3, 30]: p=31"),
]


@pytest.mark.parametrize("change, message", BAD_CONTENT)
def test_bad_report_content_rejected(change, message):
    # by the constructor, and in a report file whose checksum matches its content
    plain = {**_plain(sample_report(full=True)), **change}
    plain["checksum"] = report_checksum_oracle(plain)
    with pytest.raises(ValueError, match=re.escape(message)):
        report_from_json(report_json_oracle(plain))
    with pytest.raises(ValueError, match=re.escape(message)):
        ScanReport(plain["field"], plain["mode"], plain["lo"], plain["hi"],
                   hits=tuple(Verdict(p, "hit", aux=aux) for p, aux in plain["hits"]),
                   excluded=tuple(Verdict(p, "excluded", reason=why) for p, why in plain["excluded"]),
                   clears=tuple(plain["clears"]))


@pytest.mark.parametrize("path", [("field",), ("range",), ("warnings",), ("hits",), ("excluded",),
                                  ("clears",), ("version",), ("checksum",), ("hits", 0, "aux"),
                                  ("excluded", 0, "reason")])
def test_missing_key_named(path):
    doc = json.loads(report_to_json(sample_report(full=True)))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
    with pytest.raises(ValueError, match=f"lacks the key '{path[-1]}'"):
        report_from_json(json.dumps(doc))


@pytest.mark.parametrize("key, value, message", [
    (None, [], "report file holds a JSON list, not an object"),
    ("range", 5, "report file key 'range' is malformed"),
    ("range", [3], "report file key 'range' is malformed"),
    ("hits", [3], "report file key 'hits' is malformed"),
    ("excluded", [[11, "z_zero"]], "report file key 'excluded' is malformed"),
    # a prime or a warning of the wrong JSON type, named with its key
    ("hits", [{"p": "x", "aux": None}], "report file key 'hits' is malformed: 'x' is not a JSON integer"),
    ("excluded", [{"p": "x", "reason": "ramified"}],
     "report file key 'excluded' is malformed: 'x' is not a JSON integer"),
    ("clears", [3, "x"], "report file key 'clears' is malformed: 'x' is not a JSON integer"),
    ("warnings", [1], "report file key 'warnings' is malformed: 1 is not a JSON string"),
    # a prime past int64, which no lane holds
    ("excluded", [{"p": 2**64, "reason": "z_zero"}],
     "report file key 'excluded' is malformed: 18446744073709551616 does not fit in 64 bits"),
    ("clears", [2**64], "report file key 'clears' is malformed: 18446744073709551616 does not fit in 64 bits"),
    ("hits", [{"p": -2**63 - 1, "aux": None}],
     "report file key 'hits' is malformed: -9223372036854775809 does not fit in 64 bits"),
    ("range", [3, "100"], "report file key 'range' is malformed: '100' is not a JSON integer"),
    # the first unknown exclusion reason, hashable or not
    ("excluded", [{"p": 5, "reason": "ramified"}, {"p": 7, "reason": "bogus"}, {"p": 11, "reason": "hit"}],
     "unknown exclusion reason 'bogus' at p=7"),
    ("excluded", [{"p": 5, "reason": "ramified"}, {"p": 11, "reason": ["z_zero"]}],
     "unknown exclusion reason ['z_zero'] at p=11"),
])
def test_malformed_report_named(key, value, message):
    # the document itself (key None) or a value of the wrong shape: a ValueError
    # naming the fault and the key, not a TypeError
    doc = json.loads(report_to_json(sample_report(full=True)))
    with pytest.raises(ValueError, match=re.escape(message)):
        report_from_json(json.dumps(value if key is None else {**doc, key: value}))


def test_full_verdicts_build_no_verdict_per_exclusion(monkeypatch, quad_records):
    # scan, report, JSON and CSV keep the exclusions as lanes: Verdicts are
    # made for the hits alone (once by the scan, once more read back from JSON)
    made = []

    class Counted(Verdict):
        def __post_init__(self):
            made.append(self.p)
            super().__post_init__()

    monkeypatch.setattr(report, "Verdict", Counted)
    rep = scan_quadratic(quad_records[15], PrimeRange(2, 20_000), full_verdicts=True)
    report_to_csv(rep)
    assert report_from_json(report_to_json(rep)).checksum == rep.checksum
    assert len(rep.excluded) > 0 and len(rep.hits) > 0
    assert sorted(made) == sorted(2 * [v.p for v in rep.hits])
