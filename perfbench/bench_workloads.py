"""The benchmark's workloads: inputs from a seed, set-up, one timed pass, checks.

A workload object is built from the seed and a size, sets itself up
(field tables, codes, per-code precomputation) and then runs one pass
over its fixed input set.  Every call into burstcover sits in a span
named `<module>.<operation>`; those names are the per-layer metric
names.  A pass appends one latency per unit request ("query") and feeds
every correctness check to a Gate.

Importing this module imports burstcover, so the caller times the
import as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
from time import perf_counter_ns

from burstcover import field
from burstcover.charsums import (
    laurent_family_check,
    niederreiter_check,
    pattern_theorem_check,
    wcu_family_check,
)
from burstcover.codes import make_bch, make_melas, parity_check_matrix
from burstcover.corpus import build_corpus, exact_two_primitive_cases, mixed_degree_entries
from burstcover.covering import burst_cover, get_solver, verify_certificate
from burstcover.gf2poly import to_hex
from burstcover.lfsr import LfsrSpec, orbit_representatives
from burstcover.radius import (
    bounds_report,
    cyclic_burst_radius,
    geometric_is_covering,
    matrix_burst_radius,
    witness_recheck,
)
from run import percentile

# Table 1 under the default modulus: m -> (BCH(2,m), Melas(m), floored
# BCH upper bound), kept here so that the gate does not rest on the
# program's own fixture.  Melas(6) is 9 under the default modulus; the paper's
# 10 is attained by other degree-6 primitive classes, which the
# radius_large workload sweeps (and those of degree 7, so that its median
# query is one of 38 r = 14 walks spread over the pass).
EXPECTED_TABLE1 = {
    6: (9, 10, 10),
    7: (11, 11, 11),
    8: (12, 12, 13),
    9: (13, 14, 14),
    10: (14, 15, 16),
    11: (16, 16, 17),
}

SIZES = {
    "radius_large": {
        "full": {"ms": (6, 7, 8, 9, 10, 11), "sweep_ms": (6, 7), "sample": {10: 2, 11: 1}},
        "tiny": {"ms": (6, 7), "sweep_ms": (6,), "sample": {7: 1}},
    },
    "cover_stream": {
        "full": {"ms": (8, 9, 10), "queries": 100_000},
        "tiny": {"ms": (7,), "queries": 400},
    },
    "verify_corpus": {
        "full": {"pattern_m": (3, 4, 5, 6, 7, 8), "geometric_n": 16, "mixed": None,
                 "wcu_m": 10, "laurent_m": 10, "draws": 200},
        "tiny": {"pattern_m": (3, 4), "geometric_n": 7, "mixed": 2,
                 "wcu_m": 5, "laurent_m": 4, "draws": 10},
    },
}


class Gate:
    """Counts every check and failed operation; keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok, *what) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(" ".join(str(w) for w in what))
        return bool(ok)


def check_table1(gate: Gate, defaults: dict, sweeps: dict, uppers: dict) -> None:
    """The Table 1 fixture rule of `burstcover table1`.

    defaults[m] = (BCH radius, Melas radius) under the default modulus,
    sweeps[m] = the same pair for every primitive class of degree m (only
    where swept), uppers[m] = the floored BCH upper bound.  A value
    passes when it matches, or when some swept class attains it.
    """
    for m, pair in defaults.items():
        expected = EXPECTED_TABLE1[m]
        for col, family in enumerate(("BCH(2)", "Melas")):
            want = expected[col]
            attained = any(cls[col] == want for cls in sweeps.get(m, ()))
            gate.check(pair[col] == want or attained,
                       f"Table 1 {family} m={m}: radius {pair[col]}, expected {want}")
        gate.check(uppers[m] == expected[2],
                   f"Table 1 upper bound m={m}: {uppers[m]}, expected {expected[2]}")


def certify_radius(tr, gate: Gate, counts: dict, code):
    """Orbit radius of code, witness re-check and bound sandwich; returns (result, report)."""
    with tr.span("radius.orbit"):
        res = cyclic_burst_radius(code)
    counts["radius.orbit_states"] += (1 << code.r) - 1
    with tr.span("radius.recheck"):
        ok = witness_recheck(code, res)
    gate.check(ok, "witness recheck", code.describe(), to_hex(code.factors[0].ctx.modulus))
    with tr.span("radius.bounds"):
        report = bounds_report(code)
        violations = report.validate(res.b)
    gate.check(not violations, "bounds", code.describe(), violations)
    return res, report


def check_certificate(tr, gate: Gate, code, x: int, cert, b_prime: int) -> bool:
    """verify_certificate at b', counted by the gate."""
    with tr.span("covering.verify"):
        ok = verify_certificate(code, x, cert, b_prime)
    return gate.check(ok, "certificate", code.describe(), hex(x), b_prime, cert)


def _timed_query(lat: list, gate: Gate, what: str, fn, *args) -> None:
    t0 = perf_counter_ns()
    try:
        fn(*args)
    except Exception as exc:  # a library call that raises is a failed operation
        gate.check(False, what, f"{type(exc).__name__}: {exc}")
    lat.append(perf_counter_ns() - t0)


def _make_code(tr, family: str, m: int, modulus=None):
    with tr.span("codes.make"):
        return make_bch(2, m, modulus) if family == "bch" else make_melas(m, modulus)


def _code_summary(code) -> dict:
    return {"code": code.describe(), "modulus": to_hex(code.factors[0].ctx.modulus),
            "n": code.n, "r": code.r}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Workload:
    """setup(tr, gate) is timed as set-up; make_queries() then draws the
    pass's inputs untimed; run_pass(tr, gate, lat) is the timed pass."""

    counts: dict

    def layer_counts(self) -> dict:
        return dict(self.counts)


class RadiusLarge(Workload):
    """Table 1 (m = 6..11), full class sweeps at m = 6, 7, and seeded extra classes."""

    def __init__(self, seed: int, size: str):
        self.cfg = SIZES["radius_large"][size]
        self.rng = random.Random(f"radius_large:{seed}")
        self.counts = {"radius.orbit_states": 0}

    def setup(self, tr, gate: Gate) -> None:
        cfg = self.cfg
        classes = {}
        for m in sorted({*cfg["sweep_ms"], *cfg["sample"]}):
            with tr.span("field.primitive_moduli"):
                classes[m] = field.primitive_moduli(m)
        defaults = {}
        for m in cfg["ms"]:
            with tr.span("field.tables"):
                defaults[m] = field.get_context(m).modulus
        # (role, family, m, modulus); modulus None is the default class
        plan = [("table1", fam, m, None) for m in cfg["ms"] for fam in ("bch", "melas")]
        plan += [("sweep", fam, m, p) for m in cfg["sweep_ms"] for p in classes[m]
                 for fam in ("bch", "melas")]
        for m, k in sorted(cfg["sample"].items()):
            others = [p for p in classes[m] if p != defaults[m]]
            for p in sorted(self.rng.sample(others, k)):
                plan += [("sample", fam, m, p) for fam in ("bch", "melas")]
        for p in sorted({p for _, _, _, p in plan if p is not None}):
            with tr.span("field.tables"):
                field.context_for_modulus(p)
        self.codes = [(role, fam, m, p, _make_code(tr, fam, m, p)) for role, fam, m, p in plan]

    def make_queries(self) -> None:
        """A seeded order, so that codes of one size are spread over the pass."""
        self.queries = list(self.codes)
        self.rng.shuffle(self.queries)

    def run_pass(self, tr, gate: Gate, lat: list) -> None:
        self.radii = radii = {}
        uppers = {}

        def one(role, fam, m, p, code):
            res, report = certify_radius(tr, gate, self.counts, code)
            radii[role, fam, m, p] = res.b
            if role == "table1" and fam == "bch":
                uppers[m] = report.entry("bch_upper").value

        for plan in self.queries:
            _timed_query(lat, gate, f"radius {plan[-1].describe()}", one, *plan)
        ms, sweep_ms = self.cfg["ms"], self.cfg["sweep_ms"]
        defaults = {m: (radii.get(("table1", "bch", m, None)),
                        radii.get(("table1", "melas", m, None))) for m in ms}
        sweeps = {m: [(radii.get(("sweep", "bch", m, p)), radii.get(("sweep", "melas", m, p)))
                      for role, fam, mm, p, _ in self.codes
                      if role == "sweep" and fam == "bch" and mm == m]
                  for m in sweep_ms}
        check_table1(gate, defaults, sweeps, {m: uppers.get(m) for m in ms})

    def inputs(self) -> dict:
        return {"codes": [dict(_code_summary(c), role=role) for role, _, _, _, c in self.codes],
                "queries": len(self.codes)}

    def outputs(self) -> str:
        return _digest(sorted([list(k[:3]) + [k[3] or 0, b] for k, b in self.radii.items()]))


class CoverStream(Workload):
    """Closed loop, one client: burst_cover then verify_certificate, query after query."""

    def __init__(self, seed: int, size: str):
        self.cfg = SIZES["cover_stream"][size]
        self.rng = random.Random(f"cover_stream:{seed}")
        self.counts = {"radius.orbit_states": 0}

    def setup(self, tr, gate: Gate) -> None:
        self.codes = []
        for m in self.cfg["ms"]:
            with tr.span("field.tables"):
                field.get_context(m)
        for m in self.cfg["ms"]:
            for col, fam in enumerate(("bch", "melas")):
                code = _make_code(tr, fam, m)
                res, _ = certify_radius(tr, gate, self.counts, code)
                want = EXPECTED_TABLE1[m][col]
                gate.check(res.b == want, f"radius {code.describe()}: {res.b}, expected {want}")
                with tr.span("codes.parity_check"):
                    parity_check_matrix(code)
                with tr.span("covering.solver"):
                    get_solver(code)
                self.codes.append((code, res.b))

    def make_queries(self) -> None:
        """Syndromes uniform over the code's 2^r, b' = radius + {0, 1, 2}, code uniform."""
        rng = self.rng
        self.queries = []
        for _ in range(self.cfg["queries"]):
            code, b = self.codes[rng.randrange(len(self.codes))]
            self.queries.append((code, rng.getrandbits(code.r), b + rng.randrange(3)))

    def run_pass(self, tr, gate: Gate, lat: list) -> None:
        self.certs = certs = []
        verify_failed = 0
        for code, x, b_prime in self.queries:
            t0 = perf_counter_ns()
            cert = None
            try:
                with tr.span("covering.cover"):
                    cert = burst_cover(code, x, b_prime)
                if not check_certificate(tr, gate, code, x, cert, b_prime):
                    verify_failed += 1
            except Exception as exc:  # a query that raises is a failed query
                gate.check(False, "query", code.describe(), hex(x), b_prime, repr(exc))
            lat.append(perf_counter_ns() - t0)
            certs.append(cert)
        self.counts["covering.verify_failed"] = verify_failed

    def layer_counts(self) -> dict:
        its = sorted(c.iterations for c in self.certs if c is not None)
        return {**self.counts, "covering.queries": len(self.certs),
                "covering.iterations_mean": sum(its) / max(1, len(its)),
                "covering.iterations_p99": percentile(its, 0.99) if its else 0}

    def inputs(self) -> dict:
        radius_of = dict(self.codes)
        by_code = {}
        offsets = [0, 0, 0]
        for code, _, b_prime in self.queries:
            by_code[code.describe()] = by_code.get(code.describe(), 0) + 1
            offsets[b_prime - radius_of[code]] += 1
        return {"codes": [dict(_code_summary(c), radius=b) for c, b in self.codes],
                "queries": len(self.queries), "queries_per_code": by_code,
                "bprime_minus_radius": {str(k): v for k, v in enumerate(offsets)}}

    def outputs(self) -> str:
        return _digest([None if c is None else [c.i, c.f] for c in self.certs])


class VerifyCorpus(Workload):
    """The verification suites' work, called through the library, in the suites' order."""

    def __init__(self, seed: int, size: str):
        self.cfg = SIZES["verify_corpus"][size]
        self.rng = random.Random(f"verify_corpus:{seed}")
        self.draw_seed = self.rng.getrandbits(32)
        self.counts = {"radius.orbit_states": 0, "charsums.cases": 0}

    def setup(self, tr, gate: Gate) -> None:
        # every factor degree of the corpus and every charsums field is <= 10
        for m in range(1, 11):
            with tr.span("field.tables"):
                field.get_context(m)
        with tr.span("corpus.build"):
            self.corpus = build_corpus()
            self.exact = exact_two_primitive_cases()
            self.mixed = mixed_degree_entries()[:self.cfg["mixed"]]
        self.pattern_codes = [(m, variant, _make_code(tr, fam, m))
                              for m in self.cfg["pattern_m"]
                              for fam, variant in (("bch", "equal_degree"), ("melas", "melas_mixed"))]

    def make_queries(self) -> None:
        """One query per suite call, in a fixed order.

        Calls share caches, so a call's latency depends on what ran before
        it; a fixed order keeps the latency percentiles from moving with
        the seed, which draws only the Laurent samples.
        """
        cfg = self.cfg
        q = [(f"equivalence {e.name}", self.equivalence, (e,)) for e in self.corpus]
        q += [(f"sandwich {e.name}", self.sandwich, (e,)) for e in self.corpus + self.exact]
        q += [(f"pattern {code.describe()} s={s}", self.pattern, (code, variant, s))
              for m, variant, code in self.pattern_codes for s in range(1, m + 1)]
        q += [(f"niederreiter {e.name}", self.niederreiter, (e,)) for e in self.mixed]
        q += [(f"wcu m={m}", self.wcu, (m,)) for m in range(2, cfg["wcu_m"] + 1)]
        q += [(f"laurent m={m} t={t} u={u}", self.laurent, (m, t, u))
              for m in range(2, cfg["laurent_m"] + 1) for t in (1, 3, 5) for u in (1, 3, 5)]
        self.queries = q

    def run_pass(self, tr, gate: Gate, lat: list) -> None:
        self.tr, self.gate = tr, gate
        self.results = {}
        for label, fn, args in self.queries:
            _timed_query(lat, gate, label, fn, label, *args)

    def _orbit_radius(self, code) -> int:
        with self.tr.span("radius.orbit"):
            b = cyclic_burst_radius(code).b
        self.counts["radius.orbit_states"] += (1 << code.r) - 1
        return b

    def equivalence(self, label, entry):
        tr, code = self.tr, entry.code
        b = self._orbit_radius(code)
        with tr.span("codes.parity_check"):
            H = parity_check_matrix(code)
        with tr.span("radius.matrix"):
            b_matrix = matrix_burst_radius(H).b
        self.gate.check(b == b_matrix, f"{label}: orbit {b} != matrix {b_matrix}")
        if code.n <= self.cfg["geometric_n"]:
            with tr.span("radius.geometric"):
                covers = geometric_is_covering(code, b)
                tight = b == 1 or not geometric_is_covering(code, b - 1)
            self.gate.check(covers and tight, f"{label}: geometric threshold differs from {b}")
        self.results[label] = b

    def sandwich(self, label, entry):
        b = self._orbit_radius(entry.code)
        with self.tr.span("radius.bounds"):
            violations = bounds_report(entry.code).validate(b)
        self.gate.check(not violations, label, violations)
        self.results[label] = b

    def _report(self, label, rep, ok):
        self.counts["charsums.cases"] += rep.cases_checked
        self.gate.check(ok, label, rep.violations[:3])
        self.results[label] = [rep.cases_checked, ok]

    def pattern(self, label, code, variant, s):
        with self.tr.span("charsums.pattern"):
            rep = pattern_theorem_check(code, variant, s)
        self._report(label, rep, not rep.applicable or rep.ok)

    def niederreiter(self, label, entry):
        code = entry.code
        with self.tr.span("lfsr.orbit_reps"):
            loads = orbit_representatives(code.g)
        dmin = min(f.degree for f in code.factors)
        for load in loads:
            spec = LfsrSpec.from_galois(code.g, load)
            for s in range(1, dmin + 1):
                with self.tr.span("charsums.niederreiter"):
                    rep = niederreiter_check(spec, s)
                self._report(f"{label} load={load:#x} s={s}", rep, not rep.violations)

    def wcu(self, label, m):
        with self.tr.span("charsums.wcu"):
            rep = wcu_family_check(m)
        self._report(label, rep, rep.ok)

    def laurent(self, label, m, t, u):
        with self.tr.span("charsums.laurent"):
            rep = laurent_family_check(m, t, u, self.cfg["draws"], self.draw_seed)
        self._report(label, rep, rep.ok)

    def inputs(self) -> dict:
        cfg = self.cfg
        return {"corpus_codes": len(self.corpus), "exact_cases": len(self.exact),
                "mixed_codes": len(self.mixed),
                "r_values": sorted({e.code.r for e in self.corpus + self.exact}),
                "pattern_m": list(cfg["pattern_m"]), "geometric_n_max": cfg["geometric_n"],
                "wcu_m_max": cfg["wcu_m"], "laurent_m_max": cfg["laurent_m"],
                "laurent_draws": cfg["draws"], "laurent_seed": self.draw_seed,
                "queries": len(self.queries)}

    def outputs(self) -> str:
        return _digest(self.results)


WORKLOADS = {"radius_large": RadiusLarge, "cover_stream": CoverStream,
             "verify_corpus": VerifyCorpus}
