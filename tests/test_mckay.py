import json
import os
import subprocess
import sys
from functools import partial

import pytest

from charcol.chain import get_chain
from charcol.engine import reduced_operator
from charcol.mckay import McKayGraph, _graph_from_entries, build_graph, export, reduced_graph
from charcol.partitions import InvariantError
from charcol.sparse import SparseMatrix

from dense import same_matrix
from printed_data import PRINTED_X6

SYM = get_chain("sym")
Z2C = get_chain("z2wreath")


def adjacency(graph):
    """The symmetric matrix whose upper triangle holds the graph's edges."""
    n = len(graph.vertices)
    data = {}
    for i, j, w in graph.edges:
        data[(i, j)] = data[(j, i)] = w
    return SparseMatrix(n, n, data)


def weight(graph, a, b):
    return adjacency(graph).data.get((graph.vertices.index(a), graph.vertices.index(b)), 0)


def graph_from_json(obj):
    return McKayGraph(
        int(obj["n"]),
        tuple(str(v) for v in obj["vertices"]),
        tuple((int(i), int(j), int(w)) for i, j, w in obj["edges"]),
    )


def test_graph_edge_weights_n6():
    graph = build_graph(SYM, 6)
    assert weight(graph, "[6]", "[6]") == 1  # loop at t
    assert weight(graph, "[6]", "[5,1]") == 1
    assert weight(graph, "[5,1]", "[5,1]") == 2
    assert weight(graph, "[3,2,1]", "[3,2,1]") == 3  # loop at r
    assert weight(graph, "[4,2]", "[3,2,1]") == 1
    assert weight(graph, "[6]", "[4,2]") == 0


def test_graph_n2():
    graph = build_graph(SYM, 2)
    assert graph.vertices == ("[2]", "[1,1]")
    assert weight(graph, "[2]", "[2]") == 1
    assert weight(graph, "[2]", "[1,1]") == 1
    assert weight(graph, "[1,1]", "[1,1]") == 1


def test_adjacency_round_trips_ind_res():
    for chain, top in ((SYM, 8), (Z2C, 4)):
        for n in range(1, top + 1):
            graph = build_graph(chain, n)
            assert same_matrix(adjacency(graph), chain.ind_res(n))


def test_reduced_graph_n6_matches_final_figure():
    graph = reduced_graph(6)
    w = partial(weight, graph)
    assert graph.vertices == ("[6]", "[5,1]", "[4,2]", "[4,1,1]", "[3,3]")
    assert w("[6]", "[6]") == 1 and w("[6]", "[5,1]") == 1
    assert w("[5,1]", "[5,1]") == 2
    assert w("[5,1]", "[4,2]") == 1 and w("[5,1]", "[4,1,1]") == 1
    assert w("[4,2]", "[4,2]") == 2
    assert w("[4,2]", "[3,3]") == 1 and w("[4,2]", "[4,1,1]") == 1
    assert w("[3,3]", "[3,3]") == 1
    assert w("[4,1,1]", "[4,1,1]") == 1
    assert w("[4,1,1]", "[3,3]") == 0


def test_reduced_graph_adjacency_matches_operator():
    for n in range(2, 8):
        red = reduced_operator(n)
        size = len(red.plus_basis)
        assert same_matrix(adjacency(reduced_graph(n)), SparseMatrix(size, size, red.entries))


def test_reduced_graph_n2_single_vertex():
    graph = reduced_graph(2)
    assert graph.vertices == ("[2]",)
    assert graph.edges == ()  # loop weight 0 is not stored


def test_reduced_graph_n4():
    graph = reduced_graph(4)
    assert graph.vertices == ("[4]", "[3,1]")
    assert adjacency(graph).data == reduced_operator(4).entries


# an upper-triangle stray entry is the subprocess test's case below
@pytest.mark.parametrize("entries", [{(1, 0): 1}, {(0, 1): 1, (1, 0): 2}], ids=["lower", "unequal"])
def test_asymmetric_entries_raise_from_either_triangle(entries):
    with pytest.raises(InvariantError, match="McKay adjacency must be symmetric"):
        _graph_from_entries(2, ("a", "b"), entries)


def test_reduced_graph_rejects_wreath():
    with pytest.raises(ValueError):
        reduced_graph(3, Z2C)


def test_dot_n2_is_byte_stable():
    expected = (
        'graph mckay {\n'
        '  "[2]";\n'
        '  "[1,1]";\n'
        '  "[2]" -- "[2]" [weight=1];\n'
        '  "[2]" -- "[1,1]" [weight=1];\n'
        '  "[1,1]" -- "[1,1]" [weight=1];\n'
        '}\n'
    )
    assert export(build_graph(SYM, 2), "dot") == expected


def test_export_determinism():
    a = export(build_graph(SYM, 6), "dot")
    b = export(build_graph(SYM, 6), "dot")
    assert a == b
    assert export(build_graph(SYM, 6), "json") == export(build_graph(SYM, 6), "json")


def test_json_round_trip():
    graph = build_graph(SYM, 6)
    again = graph_from_json(json.loads(export(graph, "json")))
    assert again == graph


def test_dot_statement_count_n6():
    # one statement per nonzero upper-triangle entry of the printed operator
    expected = sum(
        1
        for i in range(11)
        for j in range(i, 11)
        if PRINTED_X6[i][j]
    )
    graph = build_graph(SYM, 6)
    dot = export(graph, "dot")
    edge_lines = [line for line in dot.splitlines() if "--" in line]
    assert len(edge_lines) == len(graph.edges) == expected


def test_unknown_format():
    with pytest.raises(ValueError):
        export(build_graph(SYM, 2), "png")


# _graph_from_entries checks the adjacency's symmetry with a raise, not an
# assert, so the check survives python -O; lifting re-exports the same class
ASYMMETRIC = """
from charcol.lifting import InvariantError
from charcol.mckay import _graph_from_entries
try:
    _graph_from_entries(2, ("a", "b"), {(0, 1): 1})
except InvariantError as exc:
    print(exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_asymmetric_adjacency_raises_with_and_without_asserts(flags):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, *flags, "-c", ASYMMETRIC], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "McKay adjacency must be symmetric\n"
