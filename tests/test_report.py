import json
from pathlib import Path

import pytest

from unitscan.primes import PrimeRange
from unitscan.quadratic import scan_quadratic
from unitscan.report import (
    CSV_COLUMNS,
    CUBIC_ORDINARY_TABLE,
    H5_TABLE,
    QUAD_TABLE,
    Block,
    ScanReport,
    Verdict,
    _diff_row,
    report_from_json,
    report_to_csv,
    report_to_json,
    verify_tables,
)

from _blocks import block_of


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


def test_block_join_keeps_range_order():
    # hits of two chunks keep their own aux, and the counters add up
    first = [Verdict(5, "hit", aux=(1, 2, 3)), Verdict(7, "clear")]
    second = [Verdict(11, "excluded", reason="z_zero"), Verdict(13, "hit", aux=(4, 5, 6))]
    joined = Block.join([block_of(first), block_of(second)])
    assert len(joined) == 4 and list(joined) == first + second
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
