"""Command-line surface: radius, bounds, cover, table1, lfsr-stats, verify.

Exit codes: 0 all assertions pass, 2 bound violation, 3 fixture
mismatch, 4 budget exceeded, 64 usage error (a bad option or input;
stderr ends in one `error:` line), 141 stdout closed by its reader
(128 + SIGPIPE, nothing on stderr).  JSON output is deterministic for a
fixed configuration and seed (keys sorted, no timestamps).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from . import charsums, radius
from .codes import (
    FAMILY_PARAMS,
    code_from_descriptor,
    descriptor_length,
    make_bch,
    make_melas,
    parity_check_matrix,
)
from .corpus import build_corpus, exact_two_primitive_cases, mixed_degree_entries
from .covering import ThresholdError, burst_cover, check_cover_length, verify_certificate
from .charsums import (
    find_avoidance_witness,
    gcd_power_inequality_check,
    laurent_family_check,
    niederreiter_check,
    pattern_census,
    wcu_family_check,
)
from .field import _check_table_degree, primitive_moduli
from .gf2poly import parse_poly, to_hex, to_terms
from .lfsr import (
    LfsrSpec,
    fibonacci_to_galois,
    lfsr_sequence,
    max_zero_run,
    orbit_minima,
    orbit_representatives,
)
from .radius import (
    BudgetError,
    RadiusResult,
    bounds_report,
    cyclic_burst_radius,
    geometric_is_covering,
    matrix_burst_radius,
)

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 2
EXIT_FIXTURE_MISMATCH = 3
EXIT_BUDGET = 4
EXIT_USAGE = 64  # sysexits EX_USAGE
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer

# Expected exact radii and floored upper bounds for the two families,
# m = 6..11; regression fixture for the table1 command.
TABLE1_FIXTURE = {
    6: (9, 10, 10),
    7: (11, 11, 11),
    8: (12, 12, 13),
    9: (13, 14, 14),
    10: (14, 15, 16),
    11: (16, 16, 17),
}


def compute_table1(m_min: int = 6, m_max: int = 11, modulus=None,
                   sensitivity: bool = False) -> list[dict]:
    """Radii of BCH(2,m) and Melas(m) with the floored upper bound.

    With the default modulus, any fixture mismatch triggers a sweep over
    every primitive-modulus class of that degree; the row then reports
    which classes attain the fixture value and flags the dependence.
    A modulus fixes the degree, so it needs m_min == m_max.
    """
    if modulus is not None and m_min != m_max:
        raise ValueError("--modulus fixes one degree: it needs --m-min equal to --m-max")
    rows = []
    for m in range(m_min, m_max + 1):
        bch_code = make_bch(2, m, modulus)
        melas_code = make_melas(m, modulus)
        row = {
            "m": m,
            "bch": cyclic_burst_radius(bch_code).b,
            "melas": cyclic_burst_radius(melas_code).b,
            "upper": bounds_report(bch_code).entry("bch_upper").value,
            "modulus_hex": to_hex(bch_code.factors[0].ctx.modulus),
        }
        fixture = TABLE1_FIXTURE.get(m)
        if fixture is not None:
            row["fixture"] = {"bch": fixture[0], "melas": fixture[1], "upper": fixture[2]}
            mismatch = (row["bch"], row["melas"], row["upper"]) != fixture
            row["matches_fixture"] = not mismatch
            if mismatch or sensitivity:
                row["sensitivity"] = _modulus_sweep(m)
                row["fixture_attained_by_some_class"] = any(
                    (c["bch"], c["melas"]) == fixture[:2] for c in row["sensitivity"])
                if mismatch:
                    row["modulus_dependent"] = True
        rows.append(row)
    return rows


def _modulus_sweep(m: int) -> list[dict]:
    return [{"modulus_hex": to_hex(p),
             "bch": cyclic_burst_radius(make_bch(2, m, p)).b,
             "melas": cyclic_burst_radius(make_melas(m, p)).b}
            for p in primitive_moduli(m)]


def _table1_exit(rows: list[dict]) -> int:
    """Exit 3 when a row misses its fixture under every primitive class."""
    if any(row.get("matches_fixture") is False
           and not row.get("fixture_attained_by_some_class") for row in rows):
        return EXIT_FIXTURE_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _bits(text: str) -> bytes:
    """A nonempty bit string such as 101 or 1,0,1, one byte per bit."""
    digits = text.replace(",", "")
    if not digits or digits.strip("01"):
        raise argparse.ArgumentTypeError(f"{text!r} is not a bit string")
    return bytes(int(b) for b in digits)


def _refuse(args, mode: str, *dests: str):
    """Reject each option among `dests` given on the command line: `mode` does not read it."""
    for dest in dests:
        if getattr(args, dest) not in (None, False):
            raise ValueError(f"{mode} takes no --{dest.replace('_', '-')}")


def _add_code_args(p: argparse.ArgumentParser):
    p.add_argument("--code", help="path to a code descriptor JSON file")
    p.add_argument("--family", choices=["bch", "melas", "generic"])
    p.add_argument("--e", type=int, help="BCH designed-distance parameter")
    p.add_argument("--m", type=int, help="extension degree")
    p.add_argument("--n", type=int, help="code length (required for generic)")
    p.add_argument("--g", help="generator polynomial (required for generic)")
    p.add_argument("--modulus", help="field modulus override (primitive)")


def _descriptor(args) -> dict:
    """The descriptor in `--code FILE`, or the `--family` flags read as the
    descriptor keys `params` (--e, --m), `n`, `g_hex` and `modulus_hex`."""
    if (args.code is None) == (args.family is None):
        raise ValueError("specify exactly one code source: --code or --family")
    if args.code is not None:
        _refuse(args, "--code", "e", "m", "n", "g", "modulus")
        with open(args.code) as fh:
            return json.load(fh)
    params = {"e": args.e, "m": args.m}
    names = FAMILY_PARAMS[args.family]
    _refuse(args, f"--family {args.family}", *(k for k in params if k not in names))
    desc = {"family": args.family, "n": args.n, "g_hex": args.g,
            "modulus_hex": args.modulus}
    if names:
        desc["params"] = [params[k] for k in names]
    return desc


def _add_emit(p: argparse.ArgumentParser, default: str):
    p.add_argument("--emit", choices=["json", "csv", "plain"], default=default)


def _emit(payload, fmt: str, plain_renderer=None) -> str:
    if fmt == "csv":
        return _to_csv(payload)
    if fmt == "json" or plain_renderer is None:
        return json.dumps(payload, sort_keys=True, indent=2)
    return plain_renderer(payload)


def _to_csv(payload) -> str:
    rows = payload if isinstance(payload, list) else [payload]
    flat = []
    for row in rows:
        flat.append({
            k: json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v
            for k, v in row.items()
        })
    keys = sorted({k for row in flat for k in row})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
    writer.writeheader()
    writer.writerows(flat)
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# subcommands

# The options each radius mode does not read.
RADIUS_REFUSES = {
    "--method orbit": ("linear",),
    "--method matrix": (),
    "--method geometric": ("linear",),
    "--dump-matrix": ("method", "linear", "emit"),
}


def _cmd_radius(args) -> int:
    method = args.method or "orbit"
    mode = "--dump-matrix" if args.dump_matrix else f"--method {method}"
    _refuse(args, mode, *RADIUS_REFUSES[mode])
    code = code_from_descriptor(_descriptor(args))
    if args.dump_matrix:
        for line in parity_check_matrix(code).hex_rows():
            print(line)
        return EXIT_OK
    if method == "orbit":
        result = cyclic_burst_radius(code)
    elif method == "matrix":
        result = matrix_burst_radius(parity_check_matrix(code), cyclic=not args.linear)
    else:
        b = 1
        while not geometric_is_covering(code, b):
            b += 1
        result = RadiusResult(b=b, method="geometric", witness=0, cyclic=True,
                              n=code.n, r=code.r)
    payload = {"code": code.describe(), **result.to_json()}
    print(_emit(payload, args.emit,
                lambda p: f"{p['code']}: burst-covering radius {p['b']} ({p['method']})"))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    code = code_from_descriptor(_descriptor(args))
    report = bounds_report(code)
    payload = report.to_json()
    rc = EXIT_OK
    if args.with_radius:
        b = cyclic_burst_radius(code).b
        payload["radius"] = b
        payload["violations"] = report.validate(b)
        if payload["violations"]:
            rc = EXIT_BOUND_VIOLATION

    def render(p):
        lines = [f"bounds for {p['code']} (n={p['n']}, r={p['r']})"]
        for ent in p["bounds"]:
            if not ent["applicable"]:
                continue
            raw = f" (raw {ent['raw']:.3f})" if ent.get("raw") is not None else ""
            lines.append(f"  {ent['name']:32s} {ent['kind']:5s} {ent['value']}{raw}")
        if "radius" in p:
            lines.append(f"  computed radius: {p['radius']}")
            for v in p["violations"]:
                lines.append(f"  VIOLATION: {v}")
        return "\n".join(lines)

    print(_emit(payload, args.emit, render))
    return rc


def _cmd_cover(args) -> int:
    desc = _descriptor(args)
    check_cover_length(descriptor_length(desc))  # before the code and its field tables are built
    code = code_from_descriptor(desc)
    x = int(args.syndrome, 16)
    b_prime = args.bprime if args.bprime is not None else cyclic_burst_radius(code).b
    cert = burst_cover(code, x, b_prime)
    ok = verify_certificate(code, x, cert, b_prime)
    payload = {**cert.to_json(), "verified": ok, "syndrome_hex": to_hex(x), "b_prime": b_prime}
    print(_emit(payload, args.emit,
                lambda p: f"window start {p['i']}, pattern {p['f_hex']} "
                          f"({to_terms(cert.f)}), width {p['width']}, verified={p['verified']}"))
    return EXIT_OK if ok else EXIT_BOUND_VIOLATION


def _cmd_table1(args) -> int:
    if not 6 <= args.m_min <= 11 or not 6 <= args.m_max <= 11:
        raise ValueError("table1 covers 6 <= m <= 11")
    if args.m_min > args.m_max:
        raise ValueError(f"--m-min {args.m_min} exceeds --m-max {args.m_max}")
    rows = compute_table1(args.m_min, args.m_max, args.modulus, args.sensitivity)

    def render(rows):
        lines = ["  m  BCH  Melas  Upper"]
        for row in rows:
            flag = ""
            if not row.get("matches_fixture", True):
                flag = "  [modulus-dependent]" if row.get(
                    "fixture_attained_by_some_class") else "  [MISMATCH]"
            lines.append(f"{row['m']:3d}  {row['bch']:3d}  {row['melas']:5d}"
                         f"  {row['upper']:5d}{flag}")
        return "\n".join(lines)

    if args.emit == "csv":
        slim = [{k: row[k] for k in ("m", "bch", "melas", "upper")} for row in rows]
        print(_to_csv(slim))
    else:
        print(_emit(rows, args.emit, render))
    return _table1_exit(rows)


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")  # one byte per term to its digit


def _cmd_lfsr_stats(args) -> int:
    if args.pattern is None:
        _refuse(args, "lfsr-stats without --pattern", "window")
    else:
        _refuse(args, "--pattern", "len", "zero_runs")
    g = parse_poly(args.g)
    r = g.bit_length() - 1
    if r < 1:
        raise ValueError("connection polynomial must have degree >= 1")
    period = (1 << r) - 1
    # One budget for every mode: at most 2^MAX_R - 1 values named, printed
    # or counted.  Per load, the dump prints --len values (a period by
    # default), --zero-runs walks a full period whatever --len says, and a
    # length-s pattern counts as the 2^s values it ranges over.
    # --orbit-reps names the orbits of all 2^r - 1 nonzero loads, then does
    # the per-load work once for each orbit.
    per_load = max(args.len or args.window or period,
                   period if args.zero_runs else 0,
                   1 << len(args.pattern or ()))
    values = max(per_load, period if args.orbit_reps else 0)
    max_r = radius.MAX_R  # read when the command runs
    if values >= 1 << max_r:
        raise BudgetError(f"{values} values exceed 2^{max_r} - 1 (max_r={max_r})")
    if args.init is not None:
        loads = [fibonacci_to_galois(g, args.init)]
    else:
        loads = orbit_representatives(g)
        values = len(loads) * per_load
        if values >= 1 << max_r:
            raise BudgetError(f"{len(loads)} orbits x {per_load} values = {values} values"
                              f" exceed 2^{max_r} - 1 (max_r={max_r})")
    for load in loads:
        spec = LfsrSpec(g, load)
        init_hex = to_hex(sum(b << i for i, b in enumerate(lfsr_sequence(spec, r))))
        if args.pattern is not None:
            if load == 0:
                raise ValueError("the all-zero sequence is excluded")
            window = args.window or period
            terms = lfsr_sequence(spec, window + len(args.pattern) - 1)
            count = sum(terms.startswith(args.pattern, k) for k in range(window))
            print(json.dumps({"count": count, "init": init_hex, "window": window,
                              "pattern": "".join(map(str, args.pattern))}, sort_keys=True))
        else:
            bits = lfsr_sequence(spec, args.len or period).translate(_BIT_DIGITS)
            line = f"{init_hex} : {bits.decode()}"
            if args.zero_runs:
                line += f"  Z={max_zero_run(spec)}"
            print(line)
    return EXIT_OK


def _suite_report(args, theorem, hypotheses, cases, violations, **extra) -> int:
    """Print a suite's payload; exit 2 exactly when it has violations."""
    payload = {"theorem": theorem, "hypotheses": hypotheses,
               "cases_checked": cases, "violations": violations, **extra}
    print(_emit(payload, args.emit))
    return EXIT_BOUND_VIOLATION if violations else EXIT_OK


def _verify_appendix(args) -> int:
    limit = args.max
    # limit^2 checks on (a+b)-bit integers, so the cost grows a little faster
    # than limit^2: --max 500 took 0.30 s and --max 2000 4.3 s on a 2-vCPU VM
    # (Python 3.11), so the ceiling keeps a run within seconds.
    if limit > 2000:
        raise BudgetError(f"--max {limit} exceeds 2000")
    failures = [(a, b) for a in range(1, limit + 1) for b in range(1, limit + 1)
                if not gcd_power_inequality_check(a, b)]
    return _suite_report(args, "power-gap inequality", {"a_max": limit, "b_max": limit},
                         limit * limit, failures)


def _verify_equivalence(args) -> int:
    nmax = args.nmax
    mismatches = []
    checked = 0
    for entry in build_corpus():
        if entry.code.n > nmax:
            continue
        checked += 1
        b_orbit = cyclic_burst_radius(entry.code).b
        b_matrix = matrix_burst_radius(parity_check_matrix(entry.code)).b
        if b_orbit != b_matrix:
            mismatches.append({"code": entry.name, "orbit": b_orbit, "matrix": b_matrix})
        if entry.code.n <= 16:
            if not geometric_is_covering(entry.code, b_orbit) or (
                b_orbit > 1 and geometric_is_covering(entry.code, b_orbit - 1)
            ):
                mismatches.append({"code": entry.name, "geometric": "threshold mismatch"})
    return _suite_report(args, "radius method equivalence", {"n_max": nmax},
                         checked, mismatches)


def _verify_bounds(args) -> int:
    violations = []
    candidates = []
    checked = 0
    entries = build_corpus() + exact_two_primitive_cases()
    for entry in entries:
        code = entry.code
        b = cyclic_burst_radius(code).b
        report = bounds_report(code)
        checked += 1
        for msg in report.validate(b):
            violations.append({"code": entry.name, "violation": msg})
        # two-primitive products outside the exact-value hypotheses that
        # nevertheless attain the minimum are recorded, never asserted
        if len(code.factors) == 2:
            d1, d2 = sorted(f.degree for f in code.factors)
            both_prim = all(f.order == f.ctx.n for f in code.factors)
            ent = next((x for x in report.entries if x.name == "two_primitive_exact"), None)
            if (ent is not None and not ent.applicable and both_prim
                    and d1 < d2 and b == d2 + 1):
                candidates.append({"code": entry.name, "b": b})
    return _suite_report(args, "bound sandwich", {"codes": checked}, checked, violations,
                         exactness_candidates_outside_hypotheses=candidates)


def _verify_patterns(args) -> int:
    reports = []
    family = args.family
    if family in ("bch", "melas"):
        m = 6 if args.m is None else args.m
        for flag, s in (("--s-max", args.s_max), ("--find-avoidance", args.find_avoidance)):
            if s is not None and s > m:
                raise ValueError(f"{flag} must be in [1, {m}], got {s}")
        _check_table_degree(m)  # past the field tables exits 64 before the census limit
        charsums.check_census_size(2 * m)  # BCH(2, m) and Melas(m) have r = 2m
        code = make_bch(2, m) if family == "bch" else make_melas(m)
        variant = "equal_degree" if family == "bch" else "melas_mixed"
        s_max = m if args.s_max is None else args.s_max
        reports += [rep.to_json() for rep in pattern_census(code, variant, s_max)]
        if args.find_avoidance is not None:
            hit = find_avoidance_witness(code, args.find_avoidance)
            reports.append({
                "avoidance_search": {"s": args.find_avoidance},
                "witness": None if hit is None else
                {"load_hex": to_hex(hit[0]), "pattern": hit[1]},
                "ok": True,  # informational: nothing is asserted
            })
        cases = sum(r.get("cases_checked", 0) for r in reports)
    else:  # mixed: the classical per-period bound on the mixed-degree corpus
        if (args.m, args.s_max, args.find_avoidance) != (None, None, None):
            raise ValueError("--family mixed takes no --m, --s-max or --find-avoidance")
        cases = 0
        for entry in mixed_degree_entries():
            dmin = min(f.degree for f in entry.code.factors)
            for rep_load in orbit_minima(entry.code.r, entry.code.factors).tolist():
                spec = LfsrSpec(entry.code.g, rep_load)
                for s in range(1, dmin + 1):
                    rep = niederreiter_check(spec, s)
                    if not rep.applicable:
                        continue
                    cases += rep.cases_checked
                    if rep.violations:
                        reports.append({"code": entry.name, "load": rep_load,
                                        **rep.to_json()})
    return _suite_report(args, f"pattern frequencies ({family})",
                         {"family": family, "m": args.m, "s_max": args.s_max}, cases,
                         [r for r in reports if not r.get("ok", True)], reports=reports)


def _verify_charsums(args) -> int:
    m_max, draws, seed = args.m_max, args.draws, args.seed
    charsums.check_weil_degree(m_max)  # the sweep's largest values, before any work
    charsums.check_laurent_size(args.laurent_m_max, draws)
    reports = [wcu_family_check(m).to_json() for m in range(2, m_max + 1)]
    cases = sum(r["cases_checked"] for r in reports)
    for m in range(2, args.laurent_m_max + 1):
        for t in (1, 3, 5):
            for u in (1, 3, 5):
                rep = laurent_family_check(m, t, u, draws, seed)
                cases += rep.cases_checked
                if not rep.ok:
                    reports.append(rep.to_json())
    return _suite_report(args, "character-sum bounds",
                         {"m_max": m_max, "draws": draws, "seed": seed,
                          "laurent_violations_only": True},
                         cases, [r for r in reports if not r["ok"]], reports=reports)


# Every suite at full size, run by `verify all`.
ALL_SUITES = [
    ["verify", "appendix", "--max", "40"],
    ["verify", "equivalence", "--nmax", "63"],
    ["verify", "bounds"],
    ["verify", "patterns", "--family", "bch", "--m", "6"],
    ["verify", "patterns", "--family", "melas", "--m", "6"],
    ["verify", "patterns", "--family", "mixed"],
    ["verify", "charsums"],
]


def _verify_all(args) -> int:
    """Run every suite in ALL_SUITES; the worst exit code wins."""
    worst = EXIT_OK
    for argv in ALL_SUITES:
        print(f"$ burstcover {' '.join(argv)}", file=sys.stderr)
        rc = main(argv)
        if rc == EXIT_BROKEN_PIPE:
            return rc
        print(f"  -> exit {rc}", file=sys.stderr)
        worst = max(worst, rc)
    return worst


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burstcover",
        description="burst-covering radius toolkit for binary cyclic codes",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("radius", help="compute the burst-covering radius")
    p.set_defaults(run=_cmd_radius)
    _add_code_args(p)
    p.add_argument("--method", choices=["orbit", "matrix", "geometric"],
                   help="radius method (default orbit)")
    p.add_argument("--linear", action="store_true",
                   help="non-cyclic windows (matrix method only); cyclic by default")
    p.add_argument("--dump-matrix", action="store_true",
                   help="print the parity-check matrix, one hex row per line; "
                        "takes no --method, --linear or --emit")
    _add_emit(p, None)

    p = add_parser("bounds", help="evaluate every applicable bound")
    p.set_defaults(run=_cmd_bounds)
    _add_code_args(p)
    p.add_argument("--with-radius", action="store_true")
    _add_emit(p, "plain")

    p = add_parser("cover", help="produce a covering certificate")
    p.set_defaults(run=_cmd_cover)
    _add_code_args(p)
    p.add_argument("--syndrome", required=True, help="hex syndrome")
    p.add_argument("--bprime", type=int)
    _add_emit(p, "plain")

    p = add_parser("table1", help="radii of BCH(2,m) and Melas(m), m=6..11")
    p.set_defaults(run=_cmd_table1)
    p.add_argument("--m-min", type=int, default=6)
    p.add_argument("--m-max", type=int, default=11)
    p.add_argument("--modulus")
    p.add_argument("--sensitivity", action="store_true",
                   help="sweep every primitive-modulus class")
    _add_emit(p, "plain")

    p = add_parser("lfsr-stats", help="dump sequences and pattern counts")
    p.set_defaults(run=_cmd_lfsr_stats)
    p.add_argument("--g", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--init", type=_bits, help="initial bits, e.g. 1,0,0")
    source.add_argument("--orbit-reps", action="store_true",
                        help="one sequence per shift-orbit")
    p.add_argument("--len", type=_positive_int,
                   help="bits to print (default: 2^r - 1); not with --pattern")
    p.add_argument("--zero-runs", action="store_true", help="not with --pattern")
    p.add_argument("--pattern", type=_bits, help="bit string to count")
    p.add_argument("--window", type=_positive_int,
                   help="pattern starts to count (default: 2^r - 1); needs --pattern")

    p = add_parser("verify", help="run a verification suite")
    suites = p.add_subparsers(dest="suite", required=True)
    emit = argparse.ArgumentParser(add_help=False)
    _add_emit(emit, "json")
    add_suite = functools.partial(suites.add_parser, allow_abbrev=False, parents=[emit])
    p = add_suite("bounds", help="bound sandwich on the corpus")
    p.set_defaults(run=_verify_bounds)
    p = add_suite("patterns", help="pattern-frequency bounds")
    p.set_defaults(run=_verify_patterns)
    p.add_argument("--family", choices=["bch", "melas", "mixed"], default="bch")
    p.add_argument("--m", type=_positive_int, help="extension degree (default 6)")
    p.add_argument("--s-max", type=_positive_int, help="longest pattern (default: m)")
    p.add_argument("--find-avoidance", type=_positive_int, metavar="S",
                   help="also search for a sequence missing some length-S "
                        "pattern, 1 <= S <= m (informational)")
    p = add_suite("charsums", help="Weil and Laurent character-sum bounds")
    p.set_defaults(run=_verify_charsums)
    p.add_argument("--m-max", type=_positive_int, default=8,
                   help=f"largest m of the Weil sweep (at most {charsums.WCU_M_MAX})")
    p.add_argument("--laurent-m-max", type=_positive_int, default=10,
                   help=f"largest m of the Laurent samples (at most {charsums.LAURENT_M_MAX})")
    p.add_argument("--draws", type=_positive_int, default=200,
                   help=f"Laurent draws per form (at most {charsums.LAURENT_DRAWS_MAX})")
    p.add_argument("--seed", type=int, default=0)
    p = add_suite("appendix", help="power-gap inequality")
    p.set_defaults(run=_verify_appendix)
    p.add_argument("--max", type=_positive_int, default=40, help="max a, b (at most 2000)")
    p = add_suite("equivalence", help="radius methods agree on the corpus")
    p.set_defaults(run=_verify_equivalence)
    p.add_argument("--nmax", type=_positive_int, default=63, help="max code length")
    p = suites.add_parser("all", allow_abbrev=False,
                          help="run every suite at full size; takes no options")
    p.set_defaults(run=_verify_all)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; the only exit path."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage and its `error:` line
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.run(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ThresholdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the
        # interpreter's final flush cannot fail again on exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
