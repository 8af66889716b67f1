import json
import re

import click
import pytest
from click.testing import CliRunner

from unitscan import report
from unitscan._data import DataFileError
from unitscan.cli import integer, main
from unitscan.primes import PrimeRange
from unitscan.quadratic import load_quad_fields, scan_quadratic
from unitscan.report import load_reference_tables, report_from_json


@pytest.fixture()
def runner():
    return CliRunner()


def test_scan_quad_empty_row(runner):
    res = runner.invoke(main, ["scan-quad", "--d", "7", "--pmax", "10000", "--workers", "1"])
    assert res.exit_code == 0
    lines = res.stdout.strip().splitlines()
    assert lines == ["field,p,mode,status,reason,aux"]  # header only, no hits


def test_scan_quad_json(runner):
    res = runner.invoke(main, ["scan-quad", "--d", "2", "--pmax", "100", "--format", "json", "--workers", "1"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["field"] == "quad(D=2)"
    assert [h["p"] for h in doc["hits"]] == [13, 31]
    assert doc["checksum"]


def test_scan_quad_all_json_is_one_array(runner, quad_records):
    # one report per field, in D order, each the same as that field's own scan
    res = runner.invoke(main, ["scan-quad", "--d", "all", "--pmax", "500", "--format", "json", "--workers", "1"])
    assert res.exit_code == 0
    docs = json.loads(res.stdout)
    want = [scan_quadratic(rec, PrimeRange(3, 500)).checksum for _, rec in sorted(quad_records.items())]
    assert len(docs) == 18 and [report_from_json(json.dumps(doc)).checksum for doc in docs] == want


def test_scan_quad_csv_hits(runner):
    res = runner.invoke(main, ["scan-quad", "--d", "29", "--pmax", "50", "--workers", "1"])
    assert res.exit_code == 0
    assert "quad(D=29),3,quad,hit,," in res.stdout
    assert "quad(D=29),11,quad,hit,," in res.stdout


def test_scan_cubic_ordinary(runner):
    res = runner.invoke(
        main,
        ["scan-cubic", "--delta", "-23", "--pmax", "20000", "--mode", "ordinary", "--workers", "1"],
    )
    assert res.exit_code == 0
    rows = [l for l in res.stdout.splitlines() if l.startswith("cubic")]
    assert len(rows) == 1
    assert rows[0].startswith("cubic(delta=-23),13,ordinary,hit,,")
    aux = rows[0].split(",")[-1]
    assert len(aux.split()) == 3  # z coefficients mod p
    assert "1 hit(s) (0.49 expected) of 380 tested" in res.stderr  # sum of 2/(p+1)


def test_scan_cubic_h2_json_warning(runner):
    res = runner.invoke(
        main,
        ["scan-cubic", "--delta", "-31", "--pmax", "2000", "--mode", "h2",
         "--format", "json", "--workers", "1"],
    )
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["hits"] == []
    assert any("h_E unknown" in w for w in doc["warnings"])
    # z = 0 has probability 1/p^2: sum 1/p^2 over the 101 tested primes
    assert "0 hit(s) (0.03 expected) of 101 tested" in res.stderr
    assert doc["tested"] == 101 and 0.025 < doc["expected_hits"] < 0.026


def test_h5_text_and_json(runner):
    res = runner.invoke(main, ["h5", "--delta", "-139"])
    assert res.exit_code == 0
    assert "5, 7, 23" in res.stdout
    res = runner.invoke(main, ["h5", "--delta", "all", "--format", "json"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["-108"]["reduced"] == []
    assert doc["-59"]["reduced"] == [5, 29]


def test_h5_csv(runner):
    res = runner.invoke(main, ["h5", "--delta", "-59", "--format", "csv"])
    assert res.exit_code == 0
    assert res.stdout.splitlines() == ["delta,variant,primes", "-59,raw,2 3 5 29", "-59,reduced,5 29"]


def test_scan_quad_full_verdicts(runner):
    res = runner.invoke(main, ["scan-quad", "--d", "29", "--pmax", "50",
                               "--full-verdicts", "--workers", "1"])
    assert res.exit_code == 0
    assert "quad(D=29),29,quad,excluded,ramified," in res.stdout
    assert "quad(D=29),5,quad,clear,," in res.stdout
    assert "quad(D=29),3,quad,hit,," in res.stdout


def test_wieferich_cli(runner):
    res = runner.invoke(main, ["wieferich", "--base", "2", "--pmax", "2000", "--workers", "1"])
    assert res.exit_code == 0
    assert "1093,wieferich,hit" in res.stdout
    # observed against expected hits, over the 302 odd primes to 2000
    assert "1 hit(s) (1.79 expected) of 302 tested" in res.stderr
    # --pmin defaults to 2, a Wieferich prime to bases 5 and 13 (5 = 1 mod 4); to
    # base 2 it divides the base and is excluded, so the counts above hold either way
    res = runner.invoke(main, ["wieferich", "--base", "5", "--pmax", "50000", "--workers", "1"])
    assert res.exit_code == 0, res.output
    assert [line.split(",")[1] for line in res.stdout.splitlines()[1:]] == ["2", "20771", "40487"]


def test_heuristics_injective(runner):
    res = runner.invoke(main, ["heuristics", "injective-prob", "-p", "3", "-n", "2", "-m", "2"])
    assert res.exit_code == 0
    assert "16/27" in res.stdout
    res = runner.invoke(main, ["heuristics", "injective-prob", "-p", "3", "-n", "3", "-m", "2"])
    assert res.exit_code == 2  # n > m


def test_heuristics_monte_carlo_deterministic(runner):
    args = ["heuristics", "monte-carlo", "-p", "2", "-n", "1", "-m", "1",
            "--trials", "2000", "--seed", "9"]
    out1 = runner.invoke(main, args)
    out2 = runner.invoke(main, args)
    assert out1.exit_code == 0
    assert out1.stdout == out2.stdout


def test_heuristics_monte_carlo_trials_take_a_power_of_ten(runner):
    args = ["heuristics", "monte-carlo", "-p", "3", "-n", "2", "-m", "2", "--seed", "9"]
    res = runner.invoke(main, [*args, "--trials", "1e4"])
    assert res.exit_code == 0, res.output
    assert "/10000," in res.stdout
    assert res.stdout == runner.invoke(main, [*args, "--trials", "10000"]).stdout


def test_heuristics_monte_carlo_bad_seed_and_p(runner):
    args = ["heuristics", "monte-carlo", "-n", "1", "-m", "1", "--trials", "10"]
    res = runner.invoke(main, [*args, "-p", "3", "--seed", "-1"])
    assert res.exit_code == 2
    assert "seed=-1 must be non-negative" in res.output
    res = runner.invoke(main, [*args, "-p", "9223372036854775837"])
    assert res.exit_code == 2
    assert "p=9223372036854775837 must be below 2^63" in res.output


def test_heuristics_densities(runner):
    res = runner.invoke(main, ["heuristics", "densities", "-p", "11"])
    assert res.exit_code == 0
    assert "1/66" in res.stdout


def test_heuristics_mult_dist(runner):
    res = runner.invoke(main, ["heuristics", "mult-dist", "--k0", "3", "--imax", "3"])
    assert res.exit_code == 0
    assert "2/3" in res.stdout and "2/27" in res.stdout
    # an empty range of i printed nothing and exited 0
    res = runner.invoke(main, ["heuristics", "mult-dist", "--k0", "4", "--imax", "0"])
    assert res.exit_code == 2 and "density" not in res.output
    assert "Invalid value for '--imax': 0 is not in the range x>=1." in res.output


def test_heuristics_mertens(runner):
    # sum 1/p over p <= 10; the mertens command printed the same sum and is gone
    res = runner.invoke(main, ["heuristics", "expected-count", "--x", "10"])
    assert res.exit_code == 0
    assert "1.176190476" in res.stdout
    assert runner.invoke(main, ["heuristics", "mertens", "--x", "10"]).exit_code == 2
    res = runner.invoke(main, ["heuristics", "expected-count", "--x", "1e1"])
    assert res.exit_code == 0 and "1.176190476" in res.stdout


def test_verify_tables_h5(runner):
    res = runner.invoke(main, ["verify-tables", "--table", "h5"])
    assert res.exit_code == 0
    assert "PASS" in res.stdout


def test_verify_tables_quad(runner):
    res = runner.invoke(main, ["verify-tables", "--table", "quad", "--workers", "1"])
    assert res.exit_code == 0
    assert "excluded by design" in res.stdout
    # a bound in exponent form: 1e4 covers the stored table as the default 9999 does
    command = ["verify-tables", "--table", "quad", "--workers", "1", "--pmax"]
    short = runner.invoke(main, command + ["1e4"])
    assert short.exit_code == 0 and short.stdout == res.stdout
    assert runner.invoke(main, command + ["1.5e3"]).exit_code == 2


def test_pmax_defaults_are_the_table_bounds(runner):
    def pmax_default(command):
        return next(p.default for p in main.commands[command].params if p.name == "pmax")

    assert pmax_default("scan-quad") == report.QUAD_TABLE_PMAX
    assert pmax_default("scan-cubic") == report.CUBIC_TABLE_DEFAULT_PMAX
    # the help names the cap that a larger --pmax does not lift
    assert str(report.QUAD_TABLE_PMAX) in runner.invoke(main, ["verify-tables", "--help"]).stdout
    command = ["verify-tables", "--table", "quad", "--workers", "1"]
    assert runner.invoke(main, command + ["--pmax", "2e4"]).stdout == runner.invoke(main, command).stdout


def test_bad_arguments_exit_2(runner):
    assert runner.invoke(main, ["scan-quad", "--d", "nope", "--pmax", "100"]).exit_code == 2
    assert runner.invoke(main, ["scan-quad", "--pmax", "100"]).exit_code == 2
    assert runner.invoke(main, ["scan-cubic", "--delta", "-23", "--pmax", "10"]).exit_code == 2
    assert runner.invoke(main, ["scan-quad", "--d", "999", "--pmax", "100"]).exit_code == 2
    assert runner.invoke(main, ["wieferich", "--base", "1", "--pmax", "100"]).exit_code == 2


@pytest.mark.parametrize(
    "command",
    [["scan-quad", "--d", "2"], ["scan-cubic", "--delta", "-23", "--mode", "h2"], ["wieferich"]],
    ids=["scan-quad", "scan-cubic", "wieferich"],
)
@pytest.mark.parametrize(
    "bounds",
    [["--pmin", "100", "--pmax", "50"], ["--pmin", "1", "--pmax", "50"],
     ["--pmin", "3", "--pmax", "1000000001"], ["--pmax", "2e9"], ["--pmax", "1.25e1"],
     ["--pmax", "abc"], ["--pmax", "1e"], ["--pmax", "5.0"], ["--pmin", "1e100"]],
    ids=["pmax_below_pmin", "pmin_below_2", "pmax_above_limit", "pmax_above_limit_exponent",
         "pmax_fraction_exponent", "pmax_not_a_number", "pmax_no_exponent", "pmax_decimal",
         "pmin_exponent_too_long"],
)
def test_bad_range_exit_2(runner, command, bounds):
    res = runner.invoke(main, command + bounds + ["--workers", "1"])
    assert res.exit_code == 2, res.output


@pytest.mark.parametrize(
    "command",
    [["scan-quad", "--d", "2"], ["scan-cubic", "--delta", "-23", "--mode", "h2"], ["wieferich"]],
    ids=["scan-quad", "scan-cubic", "wieferich"],
)
def test_bounds_in_exponent_form(runner, command):
    # 2e1 and 5E+1, and 2.0e1 and 0.5e2, are 20 and 50: the same report as the plain integers
    plain = runner.invoke(main, command + ["--pmin", "20", "--pmax", "50", "--workers", "1"])
    for low, high in (("2e1", "5E+1"), ("2.0e1", "0.5e2")):
        short = runner.invoke(main, command + ["--pmin", low, "--pmax", high, "--workers", "1"])
        assert plain.exit_code == short.exit_code == 0, short.output
        assert short.stdout == plain.stdout
    # 1e9 is the range limit itself
    res = runner.invoke(main, command + ["--pmin", "1e9", "--pmax", "1e9", "--workers", "1"])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("text, value", [
    ("1.2e6", 1_200_000), ("12e5", 1_200_000), ("1.5e3", 1500), ("1.20e1", 12), ("2.e1", 20),
    ("-1.2e1", -12), ("5E+1", 50), ("1e9", 10**9), ("1.000000000000000000001e21", 10**21 + 1)])
def test_integer_reads_a_decimal_mantissa(text, value):
    # mantissa times 10^e whenever the product is an integer, in integer arithmetic:
    # 10^21 + 1 has no float64
    assert integer(text) == value


@pytest.mark.parametrize("text", ["1.25e1", "1e", "5.0", "1.2", "1.2e-6", ".5e1", "1.2.3e4", "1e100"])
def test_integer_refuses_a_fraction(text):
    with pytest.raises(click.BadParameter, match=re.escape(f"{text!r} is not an integer such as 10000000 or 1e7")):
        integer(text)


def test_missing_data_dir_exit_3(runner, tmp_path):
    res = runner.invoke(main, ["scan-quad", "--d", "2", "--pmax", "100",
                               "--data-dir", str(tmp_path)])
    assert res.exit_code == 3
    bad = tmp_path / "quad_fields.txt"
    bad.write_text("12 1\n")  # not squarefree
    res = runner.invoke(main, ["scan-quad", "--d", "12", "--pmax", "100",
                               "--data-dir", str(tmp_path)])
    assert res.exit_code == 3


TABLES_CMD = ["verify-tables", "--table", "h5"]


def tables_json(h5):
    """A reference_tables.json whose h5 table is the JSON text h5."""
    return f'{{"quad_table": {{}}, "h5_table": {h5}, "cubic_ordinary_table": {{"-23": []}}}}'


@pytest.mark.parametrize(
    "name, text, message, command",
    [("quad_fields.txt", None, "cannot read", ["scan-quad", "--d", "2"]),
     ("quad_fields.txt", b"2 1\n\xff\n", "cannot read", ["scan-quad", "--d", "2"]),
     ("reference_tables.json", None, "cannot read", TABLES_CMD),
     ("reference_tables.json", b"\xff{}", "cannot read", TABLES_CMD),
     ("reference_tables.json", "{not json", "cannot parse", TABLES_CMD),
     ("reference_tables.json", '{"quad_table": {}, "h5_table": {}}',
      "reference table 'cubic_ordinary_table' missing", TABLES_CMD),
     ("reference_tables.json", "[]", "holds a JSON list, not an object", TABLES_CMD),
     ("reference_tables.json", tables_json("[[-23, [11]]]"),
      "reference table 'h5_table' is not a JSON object", TABLES_CMD),
     ("reference_tables.json", tables_json('{"-23": [11], "x": [5]}'),
      "reference table 'h5_table' row 'x': want a decimal key", TABLES_CMD),
     ("reference_tables.json", tables_json('{"-108": [], "-23": "11"}'),
      "reference table 'h5_table' row '-23': want a decimal key and an array of integers", TABLES_CMD),
     ("reference_tables.json", tables_json('{"-23": [11, "7"]}'),
      "reference table 'h5_table' row '-23'", TABLES_CMD)],
    ids=["unreadable_fields", "fields_not_utf8", "unreadable_tables", "tables_not_utf8",
         "unparsable_tables", "table_missing",
         "document_not_object", "table_not_object", "key_not_integer", "row_not_array",
         "row_entry_not_integer"],
)
def test_bad_data_file_exit_3(runner, tmp_path, name, text, message, command):
    path = tmp_path / name
    if text is None:
        path.mkdir()  # a directory: unreadable as a file whatever the permissions
    else:
        path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    load = load_quad_fields if name == "quad_fields.txt" else load_reference_tables
    with pytest.raises(DataFileError, match=re.escape(message)):
        load(tmp_path)
    res = runner.invoke(main, command + ["--data-dir", str(tmp_path)])
    assert res.exit_code == 3 and message in res.stderr


def test_data_dir_env_override(runner, tmp_path, monkeypatch):
    # one plain row plus one with an explicit unit override (eps = omega)
    (tmp_path / "quad_fields.txt").write_text("2 1\n5 1 0 1\n")
    monkeypatch.setenv("UNITSCAN_DATA_DIR", str(tmp_path))
    res = runner.invoke(main, ["scan-quad", "--d", "all", "--pmax", "50", "--workers", "1"])
    assert res.exit_code == 0
    assert "quad(D=2),13" in res.stdout
    assert "D=3" not in res.stdout  # only the overridden records exist


@pytest.mark.parametrize(
    "command",
    [["scan-quad", "--d", "2", "--pmax", "50"],
     ["scan-cubic", "--delta", "-23", "--mode", "h2", "--pmax", "50"],
     ["wieferich", "--pmax", "50"],
     ["verify-tables", "--table", "h5"]],
    ids=["scan-quad", "scan-cubic", "wieferich", "verify-tables"],
)
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_bad_workers_exit_2(runner, command, workers):
    res = runner.invoke(main, command + ["--workers", workers])
    assert res.exit_code == 2, res.output
    assert "--workers" in res.output
