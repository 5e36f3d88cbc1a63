"""The package must run on the oldest numpy that pyproject.toml allows (1.24)."""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]

# Top-level numpy names that first appeared in numpy 2.0 or later.
NUMPY2_ONLY = {
    "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh",
    "bitwise_count", "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
    "concat", "cumulative_prod", "cumulative_sum", "isdtype", "matrix_transpose",
    "permute_dims", "pow", "strings", "trapezoid", "unique_all", "unique_counts",
    "unique_inverse", "unique_values", "unstack", "vecdot",
}


def test_sources_use_no_numpy2_only_names():
    used = []
    for path in sorted((ROOT / "src" / "burstcover").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "np" and node.attr in NUMPY2_ONLY):
                used.append(f"{path.name}:{node.lineno}: np.{node.attr}")
    assert used == []
