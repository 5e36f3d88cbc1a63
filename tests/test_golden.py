"""Byte-for-byte golden outputs of the command line.

Each case runs `burstcover <argv>` in-process and compares its stdout,
stderr and exit code with the files under tests/golden/.  The fixtures
pin the `--emit json` / `csv` contract: a refactor must leave every one
of them unchanged.  After a deliberate output change, rewrite them with

    PYTHONPATH=src python tests/test_golden.py --write

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from burstcover.cli import main

GOLDEN = Path(__file__).with_name("golden")

BCH26 = ["--family", "bch", "--e", "2", "--m", "6"]
MELAS6 = ["--family", "melas", "--m", "6"]

CASES = {
    "radius_orbit_json": ["radius", *BCH26, "--emit", "json"],
    "radius_orbit_csv": ["radius", *BCH26, "--emit", "csv"],
    "radius_orbit_plain": ["radius", *MELAS6],
    "radius_orbit_bch16_json": ["radius", "--family", "bch", "--e", "2", "--m", "16",
                                "--emit", "json"],
    "radius_matrix_json": ["radius", *BCH26, "--method", "matrix", "--emit", "json"],
    "radius_matrix_csv": ["radius", "--family", "generic", "--n", "105",
                          "--g", "x^7+x^5+x^3+x^2+1", "--method", "matrix",
                          "--emit", "csv"],
    "radius_matrix_linear_json": ["radius", "--family", "melas", "--m", "5",
                                  "--method", "matrix", "--linear", "--emit", "json"],
    "radius_geometric_json": ["radius", "--family", "generic", "--n", "15",
                              "--g", "x^4+x+1", "--method", "geometric",
                              "--emit", "json"],
    "radius_dump_matrix": ["radius", "--family", "bch", "--e", "2", "--m", "4",
                           "--dump-matrix"],
    "bounds_with_radius_json": ["bounds", *MELAS6, "--with-radius", "--emit", "json"],
    "bounds_bch_json": ["bounds", "--family", "bch", "--e", "3", "--m", "5",
                        "--with-radius", "--emit", "json"],
    "bounds_plain": ["bounds", *BCH26, "--with-radius"],
    "bounds_csv": ["bounds", "--family", "bch", "--e", "2", "--m", "4", "--emit", "csv"],
    "cover_json": ["cover", *BCH26, "--syndrome", "0ABC", "--bprime", "9",
                   "--emit", "json"],
    "cover_at_radius_json": ["cover", *MELAS6, "--syndrome", "FFF", "--emit", "json"],
    "table1_json": ["table1", "--m-max", "7", "--emit", "json"],
    "table1_csv": ["table1", "--m-max", "7", "--emit", "csv"],
    "table1_plain": ["table1", "--m-max", "7"],
    "lfsr_orbit_reps": ["lfsr-stats", "--g", "0x1D1", "--orbit-reps", "--zero-runs"],
    "lfsr_pattern": ["lfsr-stats", "--g", "0x1D1", "--orbit-reps", "--pattern", "101"],
    "lfsr_init_pattern": ["lfsr-stats", "--g", "0xB", "--init", "1,0,0",
                          "--pattern", "10", "--window", "7"],
    "verify_appendix": ["verify", "appendix", "--max", "12"],
    "verify_equivalence": ["verify", "equivalence", "--nmax", "31"],
    "verify_bounds": ["verify", "bounds"],
    "verify_patterns_bch": ["verify", "patterns", "--family", "bch", "--m", "5"],
    "verify_patterns_melas": ["verify", "patterns", "--family", "melas", "--m", "5",
                              "--find-avoidance", "4"],
    "verify_patterns_mixed": ["verify", "patterns", "--family", "mixed"],
    "verify_charsums": ["verify", "charsums", "--m-max", "5", "--laurent-m-max", "5",
                        "--draws", "20", "--seed", "3"],
    "verify_all": ["verify", "all"],
}


def run_case(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    rc, out, err = run_case(CASES[name])
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    err_file = GOLDEN / f"{name}.err"
    assert err.encode() == (err_file.read_bytes() if err_file.exists() else b"")
    assert rc == _exit_codes()[name]


def test_verify_bounds_reads_factor_orders(monkeypatch):
    """The bound sandwich decides each factor's primitivity from its root's
    order once; a second decision through gf2poly.is_primitive is refused."""
    from burstcover import gf2poly
    from burstcover.corpus import build_corpus, exact_two_primitive_cases

    build_corpus()  # caches every default modulus the command reads
    exact_two_primitive_cases()

    def refuse(g):
        raise AssertionError("primitivity decided again")

    monkeypatch.setattr(gf2poly, "is_primitive", refuse)
    rc, out, err = run_case(CASES["verify_bounds"])
    assert (rc, out, err) == (0, (GOLDEN / "verify_bounds.out").read_text(), "")


def write_fixtures():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in CASES.items():
        rc, out, err = run_case(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
        if err:
            (GOLDEN / f"{name}.err").write_bytes(err.encode())
        codes[name] = rc
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    write_fixtures()
