"""The package exports nothing that only its tests reach.

A public top-level function or class of `src/burstcover` must be named
somewhere other than its own definition: in another place in the
package (`__init__`'s re-exports do not count), in the benchmark's
non-test modules, or in README.md.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "burstcover"

# Scalar references: each restates, one element or one step at a time,
# a fact of the paper that the package otherwise computes in bulk, and
# the tests check the two against each other.
ALLOWED = {
    # the trace form a_k = sum_i Tr(gamma_i beta_i^k) of one sequence; its
    # self-check reads field.trace_table against the Fibonacci recurrence
    "trace_representation",
    # the rational Weil bound for one Laurent form, by char_sum;
    # laurent_family_check samples the same bound in bulk
    "laurent_weil_check",
    # one pattern count through the character expansion; the tests compare
    # it with window_histogram
    "pattern_count_via_charsums",
}


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield node.name


def _unreached_names() -> set[str]:
    texts = [p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    texts += [p.read_text() for p in (ROOT / "perfbench").glob("*.py")
              if not p.name.startswith("test_")]
    texts.append((ROOT / "README.md").read_text())
    corpus = "\n".join(texts)
    # the definition itself is one occurrence
    return {name for name in _public_definitions()
            if len(re.findall(rf"\b{name}\b", corpus)) < 2}


def test_no_test_only_public_names():
    assert _unreached_names() == ALLOWED
