"""The package's public surface: its exports, the names the benchmark reads,
imports that every module uses, the one module that applies the edge rule and
its one reader there, and the one module that sets a chunk size."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import flagorbits

BENCH = Path(__file__).resolve().parent.parent / "bench"
PACKAGE = Path(flagorbits.__file__).resolve().parent

PUBLIC_API = [
    "DegenerateFlag",
    "EVEN_FIXED_BETWEEN",
    "FlagOrbitsError",
    "InInterval",
    "MalformedInput",
    "NeighborSet",
    "NotANeighbor",
    "PatternHit",
    "PatternSpec",
    "Perm",
    "PositionOutOfRange",
    "SPECS",
    "SizeMismatch",
    "TooLarge",
    "bruhat_leq",
    "conjugate_degrees",
    "enumerate_involutions",
    "export_dot",
    "fixed_points",
    "format_perm",
    "identity",
    "insert_fixed_point",
    "interval",
    "involution_count",
    "is_involution",
    "max_rank",
    "neighbors",
    "occurrences",
    "parse_perm",
    "pattern_masks",
    "rank",
    "ranks",
    "two_cycles",
    "w0",
    "w0_class",
    "w0_degree",
]


def test_public_api_is_pinned():
    assert sorted(flagorbits.__all__) == PUBLIC_API


@pytest.fixture(scope="module")
def bench_run():
    # bench/run.py imports its sibling modules, as bench/test_bench.py arranges
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("run")
    finally:
        sys.path.remove(str(BENCH))


def test_bench_entry_points_resolve(bench_run):
    for layer, names in bench_run.Api.ENTRY_POINTS.items():
        mod = importlib.import_module(f"flagorbits.{layer}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"flagorbits.{layer}.{name}"


def test_names_the_bench_tests_and_tracer_read():
    from flagorbits import enumerate_involutions, orbit_graph, patterns, perms, poly
    from flagorbits import rank, w0_class, w0_degree

    assert orbit_graph.bruhat_leq((1, 2), (2, 1))
    assert orbit_graph.neighbors(perms.w0(4)).neighbors == {
        (3, 4, 1, 2), (2, 1, 4, 3), (4, 2, 3, 1), (1, 3, 2, 4)
    }
    assert enumerate_involutions(3) == [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    assert w0_class(4) == [(2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    assert (rank((2, 1, 4, 3)), w0_degree((2, 1, 4, 3))) == (2, 3)
    assert perms.parse_perm("2143") == patterns.parse_perm("2143") == (2, 1, 4, 3)
    one = poly.Poly.const(1)
    assert poly.determinant([[one]], [1], [1]) == one


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_every_import_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [u for path in modules for u in _unused_imports(path)] == []


EDGE_RULE = {"edges", "edge_rows", "neighbor_keys", "all_transpositions"}


def _edge_rule_uses(node: ast.AST) -> list[str]:
    """Names of the edge rule that node imports or reads as an attribute."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [a.name for a in node.names if a.name.split(".")[-1] in EDGE_RULE]
    if isinstance(node, ast.Attribute) and node.attr in EDGE_RULE:
        return [node.attr]
    return []


def test_only_orbit_graph_imports_the_edge_rule():
    users = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "orbit_graph.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in _edge_rule_uses(node)
    ]
    assert users == []


def test_edge_rule_check_sees_attribute_reads():
    tree = ast.parse("from . import orbit_graph\nx = orbit_graph.edge_rows(rows)\n")
    assert [n for node in ast.walk(tree) for n in _edge_rule_uses(node)] == ["edge_rows"]


def _edge_rows_readers(tree: ast.Module) -> list[str]:
    """The top-level statements of tree, by name or line, that name edge_rows."""
    return [
        getattr(stmt, "name", f"line {stmt.lineno}")
        for stmt in tree.body
        if any(
            isinstance(n, ast.Name) and n.id == "edge_rows"
            or isinstance(n, ast.Attribute) and n.attr == "edge_rows"
            for n in ast.walk(stmt)
        )
    ]


def test_neighbor_keys_is_the_one_edge_rows_reader():
    # every graph reader in orbit_graph goes through neighbor_keys
    source = (PACKAGE / "orbit_graph.py").read_text(encoding="utf-8")
    assert _edge_rows_readers(ast.parse(source)) == ["neighbor_keys"]


def test_edge_rows_reader_check_sees_every_use():
    source = "def f():\n    return edge_rows(r)\ndef g():\n    h = og.edge_rows\nx = edge_rows\n"
    assert _edge_rows_readers(ast.parse(source)) == ["f", "g", "line 5"]


def _chunk_constants(tree: ast.Module) -> list[str]:
    """Module-level names containing CHUNK that tree assigns."""
    targets = [
        t
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
    ]
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if "CHUNK" in name]


def test_only_perms_sets_a_chunk_size():
    # one knob, perms.CHUNK_ROWS, sizes every chunked loop
    owners = [
        f"{path.name} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _chunk_constants(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert owners == ["perms.py CHUNK_ROWS"]


def test_chunk_check_sees_every_assignment_form():
    source = "A_CHUNK = 1\nB_CHUNK: int = 2\nC_CHUNK, x = 3, 4\ndef f():\n    D_CHUNK = 5\n"
    tree = ast.parse(source)
    assert _chunk_constants(tree) == ["A_CHUNK", "B_CHUNK", "C_CHUNK"]
