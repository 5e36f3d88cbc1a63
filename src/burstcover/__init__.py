"""Burst-covering radius toolkit for binary cyclic codes.

Computes and certifies the burst-covering radius (burst ball modulo
shifts, matrix brute force, geometric exhaustion), evaluates the known
bounds, produces covering certificates, and empirically verifies the LFSR
pattern-frequency and character-sum bounds the analysis rests on.
"""

from .bitmatrix import BinaryMatrix
from .charsums import gcd_power_inequality_check, niederreiter_check, pattern_theorem_check
from .codes import (
    CyclicCode,
    code_from_descriptor,
    code_to_descriptor,
    lc_eval,
    make_bch,
    make_cyclic_code,
    make_melas,
    parity_check_matrix,
)
from .covering import (
    CoveringCertificate,
    ThresholdError,
    burst_cover,
    verify_certificate,
)
from .field import FieldContext, get_context, minimal_polynomial
from .gf2poly import parse_poly, poly_order, to_hex, to_terms
from .lfsr import (
    LfsrSpec,
    lfsr_sequence,
    max_zero_run,
    orbit_representatives,
    trace_representation,
)
from .radius import (
    BoundsReport,
    BudgetError,
    RadiusResult,
    bounds_report,
    cyclic_burst_radius,
    geometric_is_covering,
    matrix_burst_radius,
)

__version__ = "0.1.0"
