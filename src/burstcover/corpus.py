"""Built-in corpus of small cyclic codes for the verification suites.

Covers the structural cases the radius machinery must handle: single
primitive factors, equal-degree and mixed-degree products, parity-bit
factors, non-primitive factors, the 3-burst-optimal family
(1 + X + X^2) * primitive, and the BCH/Melas families.  Every entry has
n <= 63 and r <= 14 so the brute-force matrix oracle stays cheap.

Separate helpers list the two-primitive-factor codes whose radius is
pinned exactly (these may have larger n), and the mixed-degree entries
used by the frequency-bound suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codes import CyclicCode, make_bch, make_cyclic_code, make_melas
from .field import default_modulus
from .gf2poly import is_primitive, mul, poly_order
from .lfsr import periods

# irreducible non-primitive polynomials used below
_ORD5_QUARTIC = 0b11111        # x^4+x^3+x^2+x+1, order 5
_ORD9_SEXTIC = 0b1001001       # x^6+x^3+1, order 9
_ORD21_SEXTIC = 0b1010111      # x^6+x^4+x^2+x+1, order 21


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    code: CyclicCode


def _generic(name: str, *factors: int) -> CorpusEntry:
    g = 1
    for h in factors:
        g = mul(g, h)
    return CorpusEntry(name, make_cyclic_code(poly_order(g), g))


def build_corpus() -> list[CorpusEntry]:
    """The main corpus: at least 30 codes with n <= 63, r <= 14."""
    entries: list[CorpusEntry] = []

    for m in range(3, 7):
        entries.append(CorpusEntry(f"hamming_{m}", make_bch(1, m)))
    for m in range(3, 7):
        entries.append(CorpusEntry(f"bch2_{m}", make_bch(2, m)))
    for m in range(3, 7):
        entries.append(CorpusEntry(f"melas_{m}", make_melas(m)))

    # the 3-burst-optimal family (1+X+X^2) * primitive, even degree
    for m in (4, 6):
        entries.append(_generic(f"burst3_{m}", 0b111, default_modulus(m)))

    # two distinct primitive factors of one degree
    entries.append(_generic("prim3_pair", 0b1011, 0b1101))
    entries.append(_generic("prim4_pair", 0b10011, 0b11001))
    entries.append(_generic("prim5_pair", 0b100101, 0b101001))
    entries.append(_generic("prim6_pair", 0b1000011, 0b1100001))

    # primitive factors of different degrees, small joint order
    entries.append(_generic("prim_2_3", 0b111, 0b1011))
    entries.append(_generic("prim_2_4", 0b111, 0b10011))
    entries.append(_generic("prim_2_6", 0b111, 0b1000011))
    entries.append(_generic("prim_3_6", 0b1011, 0b1000011))

    # parity-bit factor pins the radius at r
    entries.append(_generic("parity_p3", 0b11, 0b1011))
    entries.append(_generic("parity_p4", 0b11, 0b10011))
    entries.append(_generic("parity_p5", 0b11, 0b100101))
    entries.append(_generic("parity_2_3", 0b11, 0b111, 0b1011))

    # non-primitive irreducible factors
    entries.append(_generic("ord5_quartic", _ORD5_QUARTIC))
    entries.append(_generic("ord5_prim4", _ORD5_QUARTIC, 0b10011))
    entries.append(_generic("ord5_prim2", _ORD5_QUARTIC, 0b111))
    entries.append(_generic("ord5_prim3", _ORD5_QUARTIC, 0b1011))
    entries.append(_generic("ord9_sextic", _ORD9_SEXTIC))
    entries.append(_generic("ord9_prim2", _ORD9_SEXTIC, 0b111))
    entries.append(_generic("ord9_prim6", _ORD9_SEXTIC, default_modulus(6)))
    entries.append(_generic("ord21_sextic", _ORD21_SEXTIC))
    entries.append(_generic("ord21_prim3", _ORD21_SEXTIC, 0b1011))

    # three-factor mixes
    entries.append(_generic("triple_2_3_3", 0b111, 0b1011, 0b1101))
    entries.append(_generic("triple_1_2_4", 0b11, 0b111, 0b10011))

    # high-redundancy: the dual-Hamming generator (X^15-1)/(X^4+X+1)
    g_simplex = periods(0b10011, [1], 15)[0]
    entries.append(CorpusEntry("simplex_15", make_cyclic_code(15, g_simplex)))

    assert len(entries) >= 30
    assert all(e.code.n <= 63 and e.code.r <= 14 for e in entries)
    return entries


def mixed_degree_entries() -> list[CorpusEntry]:
    """Corpus entries whose factors have at least two distinct degrees."""
    return [e for e in build_corpus()
            if len({f.degree for f in e.code.factors}) > 1]


def exact_two_primitive_cases() -> list[CorpusEntry]:
    """Products of two primitive factors with the radius pinned at d2 + 1.

    Conditions: d1 < d2 and (gcd(d1, d2) < d2 - d1 or d2 - d1 <= 2).
    """
    out = []
    pairs = [
        (2, 3), (2, 4), (2, 7), (3, 4), (3, 5), (3, 7),
        (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (5, 9), (6, 7), (6, 8),
    ]
    for d1, d2 in pairs:
        assert math.gcd(d1, d2) < d2 - d1 or d2 - d1 <= 2
        g1, g2 = default_modulus(d1), default_modulus(d2)
        assert is_primitive(g1) and is_primitive(g2)
        out.append(_generic(f"exact_{d1}_{d2}", g1, g2))
    return out
