"""The package surface: exactly the library modules' ``__all__`` lists,
each name with a reader, no module or test file importing a name it never
uses, and every module small enough for the parser's first token array."""

import ast
import io
import tokenize
from pathlib import Path

import hyperconn

PUBLIC_NAMES = {
    "__version__",
    # model
    "HypergraphError", "ParseError", "GuardError", "Hypergraph",
    "LinearityVerdict", "BoundaryProfile", "VertexProfile",
    "parse_hypergraph", "serialize_hypergraph", "degree", "degree_extremes",
    "is_uniform", "is_linear", "components", "is_connected", "boundary",
    "boundary_profile", "vertex_profile",
    # connectivity
    "CutResult", "st_edge_connectivity", "edge_connectivity",
    "edge_connectivity_oracle", "edge_atom",
    # symmetry
    "CapExceededError", "BlockVerdict", "is_automorphism",
    "find_automorphism_mapping", "is_vertex_transitive",
    "transitivity_generators", "enumerate_automorphisms",
    "is_block_of_imprimitivity",
    # constructions
    "SplitMix64", "orbit_hypergraph", "complete_uniform", "glued_complete_family",
    "affine_hypergraph", "affine_doubled_family",
    "cyclic_difference_hypergraph", "base_differences_distinct",
    "circulant_graph", "random_uniform_hypergraph", "builtin_corpus",
    "transitive_graph_corpus", "linear_uniform_corpus",
}


def test_package_exports_exactly_the_module_lists():
    names = hyperconn.__all__
    assert len(names) == len(set(names))
    assert set(names) == PUBLIC_NAMES
    for name in names:
        assert getattr(hyperconn, name) is not None
    modules = (hyperconn.model, hyperconn.connectivity, hyperconn.symmetry, hyperconn.constructions)
    assert names == ["__version__", *(name for module in modules for name in module.__all__)]
    for module in modules:
        for name in module.__all__:
            assert getattr(hyperconn, name) is getattr(module, name)


# Public names that neither the package nor an acceptance criterion reads,
# with what keeps each.
KEPT_FOR = {
    "__version__": "the package version",
    "degree": "the per-vertex degree, whose minimum is the delta of kappa' = delta",
    "st_edge_connectivity": "ROADMAP items 4 and 12",
    "base_differences_distinct": "ROADMAP item 2",
    "boundary_profile": "ROADMAP item 8",
}


def names_read(source):
    """The names a module reads, leaving out what each top-level statement
    reads of the names it binds itself."""
    read = set()
    for stmt in ast.parse(source).body:
        names = [node for node in ast.walk(stmt) if isinstance(node, ast.Name)]
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            bound = {stmt.name}
        else:
            bound = {node.id for node in names if isinstance(node.ctx, ast.Store)}
        read |= {node.id for node in names if isinstance(node.ctx, ast.Load)} - bound
    return read


def test_every_public_name_earns_its_place():
    """Each public name is read in ``src/`` outside its own definition and
    ``__all__``, or by an acceptance criterion, or kept for a stated
    reason in ``KEPT_FOR``."""
    assert names_read("def f(x):\n    return f(g(x))\n__all__ = ['f']\n") == {"x", "g"}
    read = names_read((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    for path in Path(hyperconn.__file__).parent.glob("*.py"):
        read |= names_read(path.read_text(encoding="utf-8"))
    assert [name for name in hyperconn.__all__ if name not in read and name not in KEPT_FOR] == []
    # an entry goes once something reads its name
    assert [name for name in KEPT_FOR if name in read or name not in hyperconn.__all__] == []


def unused_imports(source):
    """The names a module's imports bind that nothing in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_use_every_name_they_import():
    stale = "from typing import Iterable, Iterator\nimport os.path\n\ndef f(x: Iterable): ...\n"
    assert unused_imports(stale) == [(1, "Iterator"), (2, "os")]
    modules = sorted(Path(hyperconn.__file__).parent.glob("*.py"))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert len(modules) >= 6 and len(tests) >= 8
    for path in modules + tests:
        if path.name != "__init__.py":
            assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


# CPython's parser doubles its token array past this many tokens, which
# shows as more peak memory wherever the package is compiled from source.
TOKEN_CLIFF = 4096


def parser_tokens(source):
    """The tokens of ``source`` the parser reads: all but comments and
    non-logical newlines."""
    skipped = (tokenize.COMMENT, tokenize.NL)
    return sum(tok.type not in skipped for tok in tokenize.generate_tokens(io.StringIO(source).readline))


def test_modules_stay_below_the_token_cliff():
    assert parser_tokens("x = 1  # one\n\n") == 5  # x, =, 1, NEWLINE, ENDMARKER
    modules = sorted(Path(hyperconn.__file__).parent.glob("*.py"))
    for path in modules:
        assert parser_tokens(path.read_text(encoding="utf-8")) < TOKEN_CLIFF, path.name
