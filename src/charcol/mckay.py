"""McKay graphs of the induced-trivial representation, and their exports.

The graph at level n has the irrep labels as vertices and the entries of
Ind Res as edge weights (loops on the diagonal); the reduced graph for odd
permutations restricts to one vertex of each conjugate pair, with the
reduced operator's weights. Exports are deterministic: identical graphs
produce byte-identical DOT and JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .chain import Chain, get_chain, require_symmetric
from .engine import reduced_operator
from .partitions import InvariantError
from .sparse import SparseMatrix


@dataclass(frozen=True)
class McKayGraph:
    level: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]  # (i, j, weight) with i <= j


def _graph_from_matrix(level: int, vertices: tuple[str, ...], matrix: SparseMatrix) -> McKayGraph:
    edges = []
    for (r, c), v in sorted(matrix.data.items()):
        if r <= c:
            if matrix[(c, r)] != v:
                raise InvariantError("McKay adjacency must be symmetric")
            edges.append((r, c, v))
    return McKayGraph(level, vertices, tuple(edges))


def build_graph(chain: Chain, n: int) -> McKayGraph:
    """Weighted McKay graph whose adjacency equals Ind Res at level n."""
    labels = tuple(chain.format_label(lab) for lab in chain.basis(n))
    return _graph_from_matrix(n, labels, chain.ind_res(n))


def reduced_graph(n: int, chain: Chain | None = None) -> McKayGraph:
    """The reduced graph on the reduced operator's vertices."""
    chain = chain or get_chain("sym")
    require_symmetric(chain, "the reduced graph")
    red = reduced_operator(n)
    labels = tuple(chain.format_label(lab) for lab in red.plus_basis)
    return _graph_from_matrix(n, labels, red.matrix)


def export_dot(graph: McKayGraph) -> str:
    lines = ["graph mckay {"]
    for name in graph.vertices:
        lines.append(f'  "{name}";')
    for i, j, w in graph.edges:
        lines.append(f'  "{graph.vertices[i]}" -- "{graph.vertices[j]}" [weight={w}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(graph: McKayGraph) -> dict:
    return {
        "n": graph.level,
        "vertices": list(graph.vertices),
        "edges": [[i, j, w] for i, j, w in graph.edges],
    }


def export(graph: McKayGraph, fmt: str) -> str:
    if fmt == "dot":
        return export_dot(graph)
    if fmt == "json":
        return json.dumps(export_json(graph), indent=2) + "\n"
    raise ValueError(f"unknown export format {fmt!r}; use 'dot' or 'json'")
