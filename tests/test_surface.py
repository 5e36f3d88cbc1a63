"""The package exports nothing that only its tests reach, imports nothing
that it does not use, names in its comments no private name that is
gone, finds the roots of a generator's factors in one place, and copies
the field tables into no array of its own.

A public top-level function or class of `src/burstcover` must be named
somewhere other than its own definition, and a public method of a public
class must be called or read as `.name` somewhere: in the package
(`__init__`'s re-exports do not count), in the benchmark's non-test
modules, or in README.md.  A module-level import of a package module
other than `__init__` must be read in that module.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "burstcover"

# Scalar references: each restates, one element or one step at a time,
# a fact of the paper that the package otherwise computes in bulk, and
# the named test checks the two against each other.  (The Weil and
# Laurent sums have no scalar twin in the package: their reference is the
# table-free oracle in tests/test_charsums.py.)
ALLOWED = {
    # one pattern count through the character expansion;
    # test_charsums.py::test_pattern_count_character_duality compares it
    # with the stepped oracle window_histogram of tests/test_lfsr.py
    "pattern_count_via_charsums",
}


def _modules():
    """(path, syntax tree) of each package module other than __init__."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text())


def _public_definitions():
    """(name, public method names) of each public top-level function or class."""
    for _, tree in _modules():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                body = node.body if isinstance(node, ast.ClassDef) else []
                yield node.name, [f.name for f in body
                                  if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]


def _corpus() -> str:
    texts = [p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    texts += [p.read_text() for p in (ROOT / "perfbench").glob("*.py")
              if not p.name.startswith("test_")]
    texts.append((ROOT / "README.md").read_text())
    return "\n".join(texts)


def _unreached_names() -> set[str]:
    corpus = _corpus()
    # the definition itself is one occurrence
    return {name for name, _ in _public_definitions()
            if len(re.findall(rf"\b{name}\b", corpus)) < 2}


def _unreached_methods() -> set[str]:
    corpus = _corpus()
    # `def name(` has no dot, so any match is a use
    return {f"{cls}.{name}" for cls, methods in _public_definitions() for name in methods
            if not re.search(rf"\.{name}\b", corpus)}


def test_no_test_only_public_names():
    assert _unreached_names() == ALLOWED


def test_no_test_only_public_methods():
    assert _unreached_methods() == set()


def _unused_imports() -> set[str]:
    """module:name of each module-level import that its module never reads."""
    unused = set()
    for path, tree in _modules():
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {f"{path.stem}:{name}" for name in imported - read}
    return unused


def test_no_unused_module_imports():
    assert _unused_imports() == set()


def _defined_names() -> set[str]:
    """Every function, class and assigned name or attribute in the package."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return names


def _mentioned_private_names() -> set[str]:
    """module:name of each `_private` name in a comment or docstring of the package."""
    mentioned = set()
    for path in PACKAGE.glob("*.py"):
        source = path.read_text()
        texts = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                 if tok.type == tokenize.COMMENT]
        texts += [ast.get_docstring(node) or "" for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
        mentioned |= {f"{path.stem}:{name}" for text in texts
                      for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", text)}
    return mentioned


def test_comments_name_no_missing_private_name():
    defined = _defined_names()
    assert {m for m in _mentioned_private_names() if m.split(":")[1] not in defined} == set()


def _callers(name: str) -> set[str]:
    """module.function of each top-level package function or class that calls `name`."""
    return {f"{path.stem}.{top.name}" for path, tree in _modules() for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None))}


def test_one_path_from_a_generator_to_its_roots():
    # a factor's root X^t is found once, by codes.factors_of; every engine
    # reads the CodeFactor records that codes builds
    assert _callers("find_root") == {"codes.factors_of"}
    assert _callers("CodeFactor") == {"codes.factors_of", "codes.make_bch", "codes.make_melas"}


def test_one_block_size_for_the_numpy_blocks():
    # the oracles and the pattern census cut their work with
    # bitmatrix._row_blocks, whose _ORACLE_CELLS is the one block size
    assert _callers("_row_blocks") == {
        "radius.matrix_burst_radius", "radius._burst_patterns", "radius.geometric_is_covering",
        "charsums._census"}
    sizes = {f"{path.stem}.{target.id}" for path, tree in _modules() for top in tree.body
             if isinstance(top, (ast.Assign, ast.AnnAssign))
             for target in (top.targets if isinstance(top, ast.Assign) else [top.target])
             if isinstance(target, ast.Name) and target.id.endswith("_CELLS")}
    assert sizes == {"bitmatrix._ORACLE_CELLS"}


def test_each_limit_is_checked_by_the_code_it_limits():
    # an engine refuses work past its own limit, so a library call is limited
    # as the CLI is; the CLI raises only for its own loops and compares
    # against no engine's limit
    assert _callers("BudgetError") == {
        "radius.cyclic_burst_radius", "radius.matrix_burst_radius",
        "radius.geometric_is_covering", "covering.check_cover_length",
        "charsums.check_weil_degree", "charsums.check_laurent_size",
        "charsums.check_census_size",
        "cli._cmd_lfsr_stats", "cli._verify_appendix"}
    limits = {"MAX_R", "WCU_M_MAX", "LAURENT_M_MAX", "LAURENT_DRAWS_MAX"}
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    read = {getattr(node, "id", None) or getattr(node, "attr", None)
            for compare in ast.walk(cli) if isinstance(compare, ast.Compare)
            for node in ast.walk(compare)}
    assert read & limits == set()


# The calls that copy an array passed to them whole.
_COPIERS = ("array", "asarray", "fromiter", "copy", "stack", "concatenate", "ascontiguousarray")


def _is_table(node) -> bool:
    """A bare `.exp` or `.log` attribute (np.log and math.log aside), or a slice of one."""
    while isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
        node = node.value
    return (isinstance(node, ast.Attribute) and node.attr in ("exp", "log")
            and getattr(node.value, "id", None) not in ("np", "math"))


def _passed(node):
    """node and the values it holds through lists, tuples, stars and comprehensions."""
    yield node
    if isinstance(node, (ast.List, ast.Tuple)):
        for elt in node.elts:
            yield from _passed(elt)
    elif isinstance(node, ast.Starred):
        yield from _passed(node.value)
    elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        yield from _passed(node.elt)


def _table_copies(trees) -> set[str]:
    """module:line of each whole-table copy: a field table or a slice of one
    passed to one of _COPIERS, or followed by .copy().  A gather by an
    index array (ctx.exp[k]) reads only the entries it names."""
    copies = set()
    for name, tree in trees:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _COPIERS):
                continue
            args = [*node.args, *(k.value for k in node.keywords)]
            if ((node.func.attr == "copy" and _is_table(node.func.value))
                    or any(_is_table(v) for arg in args for v in _passed(arg))):
                copies.add(f"{name}:{node.lineno}")
    return copies


def test_field_tables_have_one_representation():
    # FieldContext holds exp and log as read-only numpy arrays; every
    # other module indexes them in place
    assert _table_copies((path.stem, tree) for path, tree in _modules()
                         if path.stem != "field") == set()
    snippet = "\n".join([
        "x = np.array(ctx.log[1:])",
        "y = np.fromiter(c.exp, int)",
        "z = np.array(np.log(w))",
        "a = np.stack([ctx.exp])",
        "b = ctx.log.copy()",
        "c = ctx.exp[:n].copy()",
        "d = np.array([f.ctx.exp[f.t * k % n] for f in fs])",
    ])
    assert _table_copies([("snippet", ast.parse(snippet))]) == {
        "snippet:1", "snippet:2", "snippet:4", "snippet:5", "snippet:6"}
