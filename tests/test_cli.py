import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from burstcover.cli import (
    EXIT_BOUND_VIOLATION,
    EXIT_BROKEN_PIPE,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    TABLE1_FIXTURE,
    compute_table1,
    main,
)
from burstcover.charsums import laurent_family_check, niederreiter_check
from burstcover.codes import code_to_descriptor, make_bch, make_melas
from burstcover.radius import cyclic_burst_radius, matrix_burst_radius


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_radius_family_flags(capsys):
    rc, out = run(capsys, "radius", "--family", "bch", "--e", "2", "--m", "6")
    assert rc == EXIT_OK and "radius 9" in out


def test_radius_generic_and_methods(capsys):
    # x + 1 is the even-weight (parity) code
    for g in ("x^3+x+1", "x+1"):
        for method in ("orbit", "matrix", "geometric"):
            rc, out = run(capsys, "radius", "--family", "generic", "--n", "7",
                          "--g", g, "--method", method)
            assert rc == EXIT_OK and "radius 1" in out
    # BCH(2,4) has radius 7, so the geometric search steps b past 1
    for method in ("orbit", "matrix", "geometric"):
        rc, out = run(capsys, "radius", "--family", "bch", "--e", "2", "--m", "4",
                      "--method", method)
        assert rc == EXIT_OK and f"radius 7 ({method})" in out


def test_radius_from_descriptor(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_descriptor(make_bch(2, 5))))
    rc, out = run(capsys, "radius", "--code", str(path), "--emit", "json")
    assert rc == EXIT_OK
    assert json.loads(out)["b"] == 8


def test_radius_budget_exit_code(capsys, monkeypatch):
    import burstcover.radius as radius_mod

    monkeypatch.setattr(radius_mod, "MAX_R", 5)
    rc, _ = run(capsys, "radius", "--family", "bch", "--e", "2", "--m", "6",
                "--method", "matrix")
    assert rc == EXIT_BUDGET


def test_matrix_radius_budget_checked_before_the_rank(monkeypatch, capsys):
    # BCH(2,16): r = 32 > MAX_R, so the n-column rank pass must not start
    import burstcover.bitmatrix as bitmatrix_mod

    _fail_if_called(monkeypatch, bitmatrix_mod, "row_reduce")
    rc, _ = run(capsys, "radius", "--family", "bch", "--e", "2", "--m", "16",
                "--method", "matrix")
    assert rc == EXIT_BUDGET


def test_cover_budget_checked_before_any_table(monkeypatch, capsys):
    import burstcover.covering as covering_mod

    _fail_if_called(monkeypatch, covering_mod, "trace_table", "derivative")
    assert main(["cover", "--family", "bch", "--e", "2", "--m", "20",
                 "--syndrome", "1", "--bprime", "38"]) == EXIT_BUDGET
    assert "cover_max_n=262144" in capsys.readouterr().err


def test_cover_reads_the_length_limit_when_it_runs(monkeypatch, capsys):
    # the limit is covering.COVER_MAX_N as it stands, not a copy taken at import
    import burstcover.covering as covering_mod

    monkeypatch.setattr(covering_mod, "COVER_MAX_N", 62)
    _no_code_built(monkeypatch)
    assert main(["cover", "--family", "bch", "--e", "2", "--m", "6",
                 "--syndrome", "1", "--bprime", "9"]) == EXIT_BUDGET
    assert "over n = 63 columns exceed cover_max_n=62" in capsys.readouterr().err


# Codes longer than covering.COVER_MAX_N = 2^18, named without building them.
LONG_CODES = {
    "bch-20": ["--family", "bch", "--e", "2", "--m", "20"],
    "melas-22": ["--family", "melas", "--m", "22"],
    "generic-2^20-1": ["--family", "generic", "--n", str((1 << 20) - 1), "--g", "x^20+x^3+1"],
    "code-file-melas-19": ["--code", "melas19.json"],
}


def _no_code_built(monkeypatch):
    import burstcover.cli as cli_mod
    import burstcover.codes as codes_mod

    _fail_if_called(monkeypatch, cli_mod, "code_from_descriptor")
    _fail_if_called(monkeypatch, codes_mod, "make_bch", "make_melas", "make_cyclic_code")


@pytest.mark.parametrize("name", LONG_CODES)
def test_cover_length_checked_before_the_code_is_built(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "melas19.json").write_text(json.dumps({"family": "melas", "params": [19]}))
    _no_code_built(monkeypatch)
    assert main(["cover", *LONG_CODES[name], "--syndrome", "1", "--bprime", "38"]) == EXIT_BUDGET
    assert "cover_max_n=262144" in capsys.readouterr().err


@pytest.mark.parametrize("desc", [
    {"family": "bch", "params": [2, 20], "n": 31},  # mismatched
    {"family": "bch", "params": [2, 20], "r": True},
    {"family": "melas", "params": [22], "modulus_hex": "zz"},
    {"family": "melas", "params": ["22"]},
    {"family": "generic", "n": (1 << 20) - 1},  # no g_hex
])
def test_cover_refuses_a_bad_long_descriptor_as_usage(desc, tmp_path, monkeypatch, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(desc))
    _no_code_built(monkeypatch)
    assert main(["cover", "--code", str(path), "--syndrome", "1", "--bprime", "38"]) == EXIT_USAGE
    assert "descriptor key" in capsys.readouterr().err


def test_cover_runs_within_its_budget(capsys):
    # BCH(2,16), n = 65535: the certificate the orbit-free queries gave
    rc, out = run(capsys, "cover", "--family", "bch", "--e", "2", "--m", "16",
                  "--syndrome", "0x12345", "--bprime", "24", "--emit", "json")
    assert rc == EXIT_OK
    assert json.loads(out) == {"b_prime": 24, "f_hex": "0xE826ED", "i": 64867,
                               "iterations": 668, "syndrome_hex": "0x12345",
                               "verified": True, "width": 24}


def test_bounds_with_radius(capsys):
    rc, out = run(capsys, "bounds", "--family", "melas", "--m", "5",
                  "--with-radius", "--emit", "json")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["violations"] == []
    assert payload["radius"] >= 7  # m + 2


def test_cover_round_trip(capsys):
    rc, out = run(capsys, "cover", "--family", "bch", "--e", "2", "--m", "6",
                  "--syndrome", "0FFF", "--bprime", "9", "--emit", "json")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["verified"] is True and payload["width"] <= 9


def test_table1_plain_and_exit(capsys):
    rc, out = run(capsys, "table1", "--m-max", "7")
    assert rc == EXIT_OK
    assert "modulus-dependent" in out  # Melas(6) needs a non-default class


@pytest.mark.parametrize("bounds, message", [
    (("--m-min", "9", "--m-max", "6"), "--m-min 9 exceeds --m-max 6"),
    (("--m-min", "5"), "table1 covers 6 <= m <= 11"),
    (("--m-max", "12"), "table1 covers 6 <= m <= 11"),
])
def test_table1_range_errors_name_their_fault(bounds, message, capsys):
    assert main(["table1", *bounds]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_table1_fixture_values():
    rows = compute_table1(6, 8)
    for row in rows:
        fix = TABLE1_FIXTURE[row["m"]]
        assert row["upper"] == fix[2]
        if not row["matches_fixture"]:
            assert row["fixture_attained_by_some_class"]


def test_table1_json_deterministic(capsys):
    rc1, out1 = run(capsys, "table1", "--m-max", "6", "--emit", "json")
    rc2, out2 = run(capsys, "table1", "--m-max", "6", "--emit", "json")
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2


def test_table1_csv_matches_json_payload(capsys):
    rc_csv, csv_out = run(capsys, "table1", "--m-max", "6", "--emit", "csv")
    rc_json, json_out = run(capsys, "table1", "--m-max", "6", "--emit", "json")
    assert rc_csv == rc_json == EXIT_OK
    rows = json.loads(json_out)
    lines = csv_out.strip().splitlines()
    header = lines[0].split(",")
    values = lines[1].split(",")
    rec = dict(zip(header, values))
    assert int(rec["bch"]) == rows[0]["bch"]
    assert int(rec["melas"]) == rows[0]["melas"]
    assert int(rec["upper"]) == rows[0]["upper"]


def test_lfsr_stats_dump_format(capsys):
    rc, out = run(capsys, "lfsr-stats", "--g", "0xB", "--init", "1,0,0", "--len", "7")
    assert rc == EXIT_OK
    assert out.strip() == "0x1 : 1001011"


def test_lfsr_stats_dump_holds_few_bytes_per_term(capsys):
    terms = (1 << 16) - 1  # a full period of x^16+x^5+x^3+x^2+1
    tracemalloc.start()
    try:
        rc = main(["lfsr-stats", "--g", "0x1002D", "--init", ",".join("1" + "0" * 15)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert rc == EXIT_OK and len(out) == len("0x1 : \n") + terms
    assert peak < 8 * terms  # one byte a term from lfsr_sequence, a few copies of it


def test_lfsr_stats_orbit_reps(capsys):
    rc, out = run(capsys, "lfsr-stats", "--g", "0xB", "--orbit-reps", "--len", "7")
    assert rc == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 1  # primitive: a single shift orbit
    assert " : " in lines[0]


def test_lfsr_stats_pattern_json(capsys):
    rc, out = run(capsys, "lfsr-stats", "--g", "0xB", "--init", "1,0,0",
                  "--pattern", "10", "--window", "7")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload == {"count": 2, "init": "0x1", "pattern": "10", "window": 7}


def test_verify_appendix(capsys):
    rc, out = run(capsys, "verify", "appendix", "--max", "15")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["cases_checked"] == 225 and payload["violations"] == []


def test_verify_equivalence_small(capsys):
    rc, out = run(capsys, "verify", "equivalence", "--nmax", "21")
    assert rc == EXIT_OK
    assert json.loads(out)["violations"] == []


def test_verify_patterns_bch(capsys):
    rc, out = run(capsys, "verify", "patterns", "--family", "bch", "--m", "6",
                  "--s-max", "3")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert all(rep["ok"] for rep in payload["reports"])


def test_verify_charsums_quick(capsys):
    rc, out = run(capsys, "verify", "charsums", "--m-max", "4",
                  "--laurent-m-max", "4", "--draws", "20", "--seed", "9")
    assert rc == EXIT_OK


def test_radius_csv_payload(capsys):
    import csv
    import io

    rc, out = run(capsys, "radius", "--family", "bch", "--e", "2", "--m", "5",
                  "--emit", "csv")
    assert rc == EXIT_OK
    rec = next(csv.DictReader(io.StringIO(out)))
    assert rec["b"] == "8" and rec["method"] == "orbit"


def test_fixture_mismatch_exit_code():
    from burstcover.cli import EXIT_FIXTURE_MISMATCH, _table1_exit

    rows = [{"m": 6, "matches_fixture": False,
             "fixture_attained_by_some_class": False}]
    assert _table1_exit(rows) == EXIT_FIXTURE_MISMATCH
    rows[0]["fixture_attained_by_some_class"] = True
    assert _table1_exit(rows) == EXIT_OK


BCH24 = ["--family", "bch", "--e", "2", "--m", "4"]
BCH25 = ["--family", "bch", "--e", "2", "--m", "5"]
BCH26 = ["--family", "bch", "--e", "2", "--m", "6"]
LFSR_B = ["lfsr-stats", "--g", "0xB", "--init", "1,0,0"]


def test_violation_exit_code(capsys, monkeypatch):
    import burstcover.cli as cli_mod

    monkeypatch.setattr(cli_mod, "gcd_power_inequality_check", lambda a, b: False)
    rc, out = run(capsys, "verify", "appendix", "--max", "3")
    assert rc == EXIT_BOUND_VIOLATION
    assert json.loads(out)["violations"]


def test_threshold_below_radius_exits_2(capsys):
    # BCH(2,6) has radius 9: no window of width 3 covers this syndrome
    rc = main(["cover", *BCH26, "--syndrome", "0FFF", "--bprime", "3"])
    assert rc == EXIT_BOUND_VIOLATION
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: threshold below radius"


def _radius_above_r(code):
    """The orbit result with b = r + 1, above the basic upper bound r."""
    return dataclasses.replace(cyclic_burst_radius(code), b=code.r + 1)


def _matrix_off_by_one(H, cyclic=True):
    res = matrix_burst_radius(H, cyclic)
    return dataclasses.replace(res, b=res.b + 1)


def _violated(check):
    """check, with one made-up violation in each report it returns."""
    return lambda *args: dataclasses.replace(check(*args), violations=((0, 0),))


# Each command's violation branch, reached by patching the check that cli.py reads.
VIOLATIONS = {
    "bounds": (["bounds", *BCH25, "--with-radius"], "cyclic_burst_radius", _radius_above_r),
    "equivalence-matrix": (["verify", "equivalence", "--nmax", "15"],
                           "matrix_burst_radius", _matrix_off_by_one),
    "equivalence-geometric": (["verify", "equivalence", "--nmax", "15"],
                              "geometric_is_covering", lambda code, b: False),
    "verify-bounds": (["verify", "bounds"], "cyclic_burst_radius", _radius_above_r),
    "patterns-mixed": (["verify", "patterns", "--family", "mixed"],
                       "niederreiter_check", _violated(niederreiter_check)),
    "charsums": (["verify", "charsums", "--m-max", "3", "--laurent-m-max", "3",
                  "--draws", "5"], "laurent_family_check", _violated(laurent_family_check)),
}


@pytest.mark.parametrize("name", VIOLATIONS)
def test_violations_exit_2(name, capsys, monkeypatch):
    import burstcover.cli as cli_mod

    argv, target, patched = VIOLATIONS[name]
    monkeypatch.setattr(cli_mod, target, patched)
    rc, out = run(capsys, *argv)
    assert rc == EXIT_BOUND_VIOLATION
    if argv[0] == "bounds":  # plain output: one line per violated bound
        assert any(line.startswith("  VIOLATION: ") for line in out.splitlines())
    else:
        assert json.loads(out)["violations"]


@pytest.fixture
def bad_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not.json").write_text("{not json")
    (tmp_path / "melas6.json").write_text(json.dumps(code_to_descriptor(make_melas(6))))
    (tmp_path / "generic5-0x1F.json").write_text(json.dumps(
        {"family": "generic", "n": 5, "g_hex": "0x1F", "modulus_hex": "0x1F"}))
    (tmp_path / "bch-degree-10^12.json").write_text(json.dumps(
        {"family": "bch", "params": [2, 10**12]}))


# bch and melas degrees past the field tables (field._MAX_TABLE_M = 22):
# refused from the descriptor, before a shift by m or a modulus search.
TABLE_CEILING = {
    "bch-degree-10^12": ["radius", "--family", "bch", "--e", "2", "--m", str(10**12)],
    "code-file-bch-degree-10^12": ["cover", "--code", "bch-degree-10^12.json",
                                   "--syndrome", "1"],
    "bch-degree-2000": ["radius", "--family", "bch", "--e", "2", "--m", "2000"],
    "melas-degree-2000": ["radius", "--family", "melas", "--m", "2000"],
    "melas-degree-65": ["radius", "--family", "melas", "--m", "65"],
    "cover-melas-degree-23": ["cover", "--family", "melas", "--m", "23", "--syndrome", "1",
                              "--bprime", "40"],
}


# Every bad input exits EXIT_USAGE through cli.main, never with a traceback.
# argparse's own wording varies across Python versions, so only the
# `error:` marker on the last stderr line is pinned.
USAGE_ERRORS = {
    "no-code-source": ["radius"],
    "code-and-family": ["radius", *BCH24, "--code", "whatever.json"],
    "code-missing-file": ["radius", "--code", "missing.json"],
    "code-not-json": ["radius", "--code", "not.json"],
    "syndrome-not-hex": ["cover", *BCH24, "--syndrome", "XYZ"],
    "syndrome-too-wide": ["cover", *BCH24, "--syndrome", "FFFFFFFF"],
    "generator-not-dividing": ["radius", "--family", "generic", "--n", "15",
                               "--g", "0x1F1"],
    "zero-init-zero-runs": ["lfsr-stats", "--g", "0xB", "--init", "0,0,0", "--zero-runs"],
    "geometric-too-long": ["radius", *BCH26, "--method", "geometric"],
    "deleted-cyclic-flag": ["radius", *BCH24, "--cyclic"],
    "deleted-no-assert": ["table1", "--m-max", "6", "--no-assert"],
    "deleted-verify-e": ["verify", "patterns", "--e", "3"],
    "unknown-flag": ["radius", *BCH24, "--no-such-flag"],
    "negative-max": ["verify", "appendix", "--max", "-1"],
    "zero-max": ["verify", "appendix", "--max", "0"],
    "zero-window": ["lfsr-stats", "--g", "0xB", "--init", "1,0,0", "--pattern", "10",
                    "--window", "0"],
    "negative-len": ["lfsr-stats", "--g", "0xB", "--init", "1,0,0", "--len", "-3"],
    "abbreviated-method": ["radius", *BCH24, "--meth", "matrix"],
    "abbreviated-emit": ["verify", "appendix", "--max", "3", "--e", "plain"],
    "negative-find-avoidance": ["verify", "patterns", "--family", "bch", "--m", "5",
                                "--find-avoidance", "-1"],
    "zero-find-avoidance": ["verify", "patterns", "--family", "bch", "--m", "5",
                            "--find-avoidance", "0"],
    "find-avoidance-above-m": ["verify", "patterns", "--family", "bch", "--m", "5",
                               "--find-avoidance", "6"],
    "deleted-cover-debug": ["cover", *BCH24, "--syndrome", "1", "--debug"],
    "mixed-with-degree-options": ["verify", "patterns", "--family", "mixed", "--m", "3",
                                  "--s-max", "2", "--find-avoidance", "3"],
    "mixed-with-s-max": ["verify", "patterns", "--family", "mixed", "--s-max", "2"],
    "appendix-with-seed": ["verify", "appendix", "--max", "3", "--seed", "1"],
    "bounds-with-m": ["verify", "bounds", "--m", "3"],
    "all-with-draws": ["verify", "all", "--draws", "3"],
    "code-with-modulus": ["radius", "--code", "melas6.json", "--modulus", "0x67"],
    "melas-with-e": ["radius", "--family", "melas", "--m", "5", "--e", "3"],
    "bch-with-other-g": ["radius", *BCH25, "--g", "0x13"],
    "bch-with-other-n": ["radius", *BCH25, "--n", "33"],
    "bch-without-m": ["radius", "--family", "bch", "--e", "2"],
    "generic-with-m": ["radius", "--family", "generic", "--n", "15", "--g", "x^4+x+1",
                       "--m", "9"],
    # x^4+x^3+x^2+x+1 is irreducible but X has order 5 under it: not primitive
    "generic-non-primitive-modulus": ["radius", "--family", "generic", "--n", "5",
                                      "--g", "0x1F", "--modulus", "0x1F"],
    "code-non-primitive-modulus": ["radius", "--code", "generic5-0x1F.json"],
    # a degree-4 modulus for degree-3 factors, and one modulus for mixed degrees
    "generic-modulus-degree": ["radius", "--family", "generic", "--n", "7", "--g", "0xB",
                               "--modulus", "0x13"],
    "generic-mixed-degree-modulus": ["radius", "--family", "generic", "--n", "21",
                                     "--g", "x^5+x^4+1", "--modulus", "0xB"],
    "bch-modulus-degree": ["radius", "--family", "bch", "--e", "2", "--m", "6",
                           "--modulus", "0x13"],
    "melas-modulus-degree": ["radius", "--family", "melas", "--m", "6", "--modulus", "0x13"],
    "geometric-linear": ["radius", *BCH24, "--method", "geometric", "--linear"],
    "orbit-linear": ["radius", *BCH24, "--linear"],
    "dump-matrix-emit": ["radius", *BCH24, "--dump-matrix", "--emit", "json"],
    "dump-matrix-method": ["radius", *BCH24, "--dump-matrix", "--method", "orbit"],
    "init-and-orbit-reps": [*LFSR_B, "--orbit-reps"],
    "no-init-or-orbit-reps": ["lfsr-stats", "--g", "0xB"],
    "window-without-pattern": [*LFSR_B, "--window", "3"],
    "pattern-zero-runs": [*LFSR_B, "--pattern", "1", "--zero-runs"],
    "pattern-len": [*LFSR_B, "--pattern", "1", "--len", "3"],
    "pattern-not-bits": [*LFSR_B, "--pattern", "12"],
    "pattern-empty": [*LFSR_B, "--pattern="],
    "init-not-bits": ["lfsr-stats", "--g", "0xB", "--init", "1,2,0"],
    "zero-init-pattern": ["lfsr-stats", "--g", "0xB", "--init", "0,0,0", "--pattern", "1"],
    "s-max-above-m": ["verify", "patterns", "--family", "bch", "--m", "4", "--s-max", "9"],
    "table1-modulus-range": ["table1", "--m-max", "7", "--modulus", "0x43"],
    "table1-inverted-range": ["table1", "--m-min", "9", "--m-max", "6"],
    # a factor of degree 23 is past the field tables (field._MAX_TABLE_M = 22)
    "orbit-reps-degree-23": ["lfsr-stats", "--g", "x^23+x^5+1", "--orbit-reps"],
    "generic-degree-23-factor": ["radius", "--family", "generic", "--n", str((1 << 23) - 1),
                                 "--g", "x^23+x^5+1"],
    # 2^24 and 10^12: refused before the shift builds a 2^k-bit integer
    "term-exponent-2^24": ["lfsr-stats", "--g", f"x^{1 << 24}+1", "--orbit-reps"],
    "generic-term-exponent-10^12": ["radius", "--family", "generic", "--n", "7",
                                    "--g", "x^1000000000000"],
    **TABLE_CEILING,
}

# Rows whose check must come before this work in cli.py (patched to fail).
CHECKED_BEFORE = {
    "appendix-above-ceiling": ["gcd_power_inequality_check"],
    "s-max-above-m": ["make_bch", "make_melas", "pattern_census"],
    "find-avoidance-above-m": ["make_bch", "make_melas", "pattern_census"],
    "table1-modulus-range": ["make_bch", "make_melas", "cyclic_burst_radius"],
    "table1-inverted-range": ["make_bch", "make_melas", "cyclic_burst_radius"],
}


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_usage_errors(name, bad_files, monkeypatch, capsys):
    import burstcover.cli as cli_mod

    _fail_if_called(monkeypatch, cli_mod, *CHECKED_BEFORE.get(name, ()))
    rc = main(USAGE_ERRORS[name])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert "Traceback" not in err
    assert "error:" in err.strip().splitlines()[-1]


def test_descriptor_errors_keep_the_parsers_reason(tmp_path, capsys):
    assert main(USAGE_ERRORS["generic-term-exponent-10^12"]) == EXIT_USAGE
    assert "exponents stop below 2^24" in capsys.readouterr().err
    # a JSON list is no polynomial form: parse_poly's TypeError adds nothing
    path = tmp_path / "list.json"
    path.write_text(json.dumps({"family": "generic", "n": 7, "g_hex": ["x"]}))
    assert main(["radius", "--code", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.strip().endswith("['x'] is not a polynomial")


@pytest.mark.parametrize("name", TABLE_CEILING)
def test_field_degree_ceiling_checked_before_any_search(name, bad_files, monkeypatch, capsys):
    import burstcover.codes as codes_mod

    _fail_if_called(monkeypatch, codes_mod, "make_bch", "make_melas", "default_modulus")
    assert main(TABLE_CEILING[name]) == EXIT_USAGE
    assert "field tables limited to degree 22" in capsys.readouterr().err


# Each exits EXIT_BUDGET before any of its work starts.
BUDGET_ERRORS = {
    "appendix-above-ceiling": ["verify", "appendix", "--max", "2001"],
}


@pytest.mark.parametrize("name", BUDGET_ERRORS)
def test_budget_errors(name, monkeypatch, capsys):
    import burstcover.cli as cli_mod

    _fail_if_called(monkeypatch, cli_mod, *CHECKED_BEFORE[name])
    assert main(BUDGET_ERRORS[name]) == EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


def test_appendix_ceiling_is_inclusive(monkeypatch, capsys):
    import burstcover.cli as cli_mod

    monkeypatch.setattr(cli_mod, "gcd_power_inequality_check", lambda a, b: True)
    rc, out = run(capsys, "verify", "appendix", "--max", "2000")
    assert rc == EXIT_OK and json.loads(out)["cases_checked"] == 2000 * 2000


def _fail_if_called(monkeypatch, module, *names):
    def fail(*args, **kwargs):
        raise AssertionError("work started before the check that limits it")

    for name in names:
        monkeypatch.setattr(module, name, fail)

@pytest.mark.parametrize("argv", [
    ["--m-max", "12"],
    ["--laurent-m-max", "17"],
    ["--draws", "2001"],
])
def test_charsums_ceilings_checked_first(argv, monkeypatch, capsys):
    import burstcover.charsums as charsums_mod
    import burstcover.cli as cli_mod

    _fail_if_called(monkeypatch, cli_mod, "wcu_family_check", "laurent_family_check")
    _fail_if_called(monkeypatch, charsums_mod, "get_context")
    assert main(["verify", "charsums", *argv]) == EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["bch", "melas"])
def test_patterns_degree_capped_by_max_r(family, monkeypatch, capsys):
    import burstcover.cli as cli_mod

    _fail_if_called(monkeypatch, cli_mod, "make_bch", "make_melas",
                    "pattern_census", "find_avoidance_witness")
    assert main(["verify", "patterns", "--family", family, "--m", "14"]) == EXIT_BUDGET
    assert "max_r=26" in capsys.readouterr().err


G27 = ["--g", "x^27+x^5+x^2+x+1"]
INIT27 = ["--init", "1" + "0" * 26]


LFSR_WORK = ["orbit_representatives", "fibonacci_to_galois", "lfsr_sequence",
             "max_zero_run"]


@pytest.mark.parametrize("argv", [
    ["--orbit-reps"],
    [*INIT27],
    [*INIT27, "--pattern", "1"],
    [*INIT27, "--len", "5", "--zero-runs"],
])
def test_lfsr_stats_full_period_capped_by_max_r(argv, monkeypatch, capsys):
    import burstcover.cli as cli_mod

    _fail_if_called(monkeypatch, cli_mod, *LFSR_WORK)
    assert main(["lfsr-stats", *G27, *argv]) == EXIT_BUDGET
    assert "max_r=26" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--len", str(1 << 26)],
    ["--pattern", "1", "--window", str(1 << 26)],
    ["--pattern", "1" * 26, "--window", "3"],
])
def test_lfsr_stats_explicit_sizes_capped_by_max_r(argv, monkeypatch, capsys):
    import burstcover.cli as cli_mod

    _fail_if_called(monkeypatch, cli_mod, *LFSR_WORK)
    assert main([*LFSR_B, *argv]) == EXIT_BUDGET
    assert "max_r=26" in capsys.readouterr().err


def test_lfsr_stats_orbit_work_capped_before_the_first_orbit(monkeypatch, capsys):
    # BCH(2,10)'s generator: 1027 orbits of 2^20 - 1 values each pass the
    # per-load check, but not the budget once the orbits are counted
    import burstcover.cli as cli_mod

    _fail_if_called(monkeypatch, cli_mod, "lfsr_sequence", "max_zero_run")
    assert main(["lfsr-stats", "--g", "0x101877", "--orbit-reps"]) == EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == ""
    assert "1027 orbits x 1048575 values" in err and "max_r=26" in err


@pytest.mark.parametrize("argv, line", [
    (["--init", "1,0,0", "--pattern", "1"],
     '{"count": 1, "init": "0x1", "pattern": "1", "window": 7}'),
    (["--init", "1,1,0", "--pattern", "01", "--window", "9"],
     '{"count": 4, "init": "0x3", "pattern": "01", "window": 9}'),
])
def test_lfsr_stats_pattern_on_a_connection_without_constant_term(argv, line, capsys):
    # g = X^3 + X has g(0) = 0, which lfsr.periods refuses: the stepper counts
    assert run(capsys, "lfsr-stats", "--g", "0xA", *argv) == (EXIT_OK, line + "\n")


def test_lfsr_stats_explicit_length_is_not_capped(capsys):
    rc, out = run(capsys, "lfsr-stats", *G27, *INIT27, "--len", "5")
    assert rc == EXIT_OK and out.endswith(" : 10000\n")


def test_consistent_code_flags_are_accepted(capsys):
    rc, out = run(capsys, "radius", *BCH25)
    assert rc == EXIT_OK
    assert run(capsys, "radius", *BCH25, "--n", "31") == (rc, out)
    assert run(capsys, "radius", *BCH25, "--g", "0x769", "--modulus", "0x25") == (rc, out)


def test_every_option_is_read():
    """Every option of every parser is read as args.<dest> somewhere in cli.py."""
    import argparse
    import re

    import burstcover.cli as cli_mod

    source = Path(cli_mod.__file__).read_text()
    read = set(re.findall(r"\bargs\.(\w+)", source))
    parsers = [cli_mod.build_parser()]
    dests = set()
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            dests.add(action.dest)
        dests.update(parser._defaults)
    assert dests - {"command", "suite", "run", "help"} - read == set()


def test_help_exits_ok(capsys):
    assert main(["radius", "--help"]) == EXIT_OK
    assert "--dump-matrix" in capsys.readouterr().out


# primitive polynomials of degrees 41 and 47, whose trial division takes
# seconds: the generator is refused from its distinct-degree split instead
@pytest.mark.parametrize("n, g", [((1 << 41) - 1, "0x20000000009"),
                                  ((1 << 47) - 1, "0x800000000021")])
def test_generic_factor_above_the_tables_refused_before_factoring(n, g, monkeypatch, capsys):
    from burstcover import gf2poly

    _fail_if_called(monkeypatch, gf2poly, "factor")
    assert main(["radius", "--family", "generic", "--n", str(n), "--g", g]) == EXIT_USAGE
    assert "field tables limited to degree 22" in capsys.readouterr().err


def test_orbit_method_refuses_u_above_max_r_before_the_orbit_tables(capsys, monkeypatch):
    # BCH(2,18): u = bch_upper = 28 > MAX_R
    import burstcover.lfsr as lfsr_mod

    _fail_if_called(monkeypatch, lfsr_mod, "_OrbitNames")
    rc = main(["radius", "--family", "bch", "--e", "2", "--m", "18"])
    assert rc == EXIT_BUDGET
    assert "2^28 residues (bch_upper) exceeds max_r=26" in capsys.readouterr().err


def test_orbit_method_honours_max_r(capsys, monkeypatch):
    import burstcover.radius as radius_mod

    monkeypatch.setattr(radius_mod, "MAX_R", 9)
    rc = main(["radius", *BCH26])
    assert rc == EXIT_BUDGET
    assert "max_r=9" in capsys.readouterr().err


def test_closed_stdout_is_not_a_usage_error():
    # 200 000 bits overflow the pipe buffer, so the writer is still
    # writing when the reader closes its end after 10 bytes.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "burstcover", "lfsr-stats", "--g", "0x211",
         "--init", "1,0,0,0,0,0,0,0,0", "--len", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert err == b""
