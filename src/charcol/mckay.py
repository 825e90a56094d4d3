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


@dataclass(frozen=True)
class McKayGraph:
    level: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]  # (i, j, weight) with i <= j


def _graph_from_entries(level: int, vertices: tuple[str, ...], entries: dict) -> McKayGraph:
    edges = []
    for (r, c), v in sorted(entries.items()):
        if entries.get((c, r), 0) != v:  # either triangle may hold the stray entry
            raise InvariantError("McKay adjacency must be symmetric")
        if r <= c:
            edges.append((r, c, v))
    return McKayGraph(level, vertices, tuple(edges))


def build_graph(chain: Chain, n: int) -> McKayGraph:
    """Weighted McKay graph whose adjacency equals Ind Res at level n."""
    labels = tuple(chain.format_label(lab) for lab in chain.basis(n))
    return _graph_from_entries(n, labels, chain.ind_res(n).data)


def reduced_graph(n: int, chain: Chain | None = None) -> McKayGraph:
    """The plus basis as vertices, Y's entries as weights; none at n <= 1."""
    chain = chain or get_chain("sym")
    require_symmetric(chain, "the reduced graph")
    if not chain.has_level(n):
        raise ValueError(f"chain {chain.id!r} has no level {n}")
    red = reduced_operator(n)
    labels = tuple(chain.format_label(lab) for lab in red.plus_basis)
    return _graph_from_entries(n, labels, red.entries)


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
