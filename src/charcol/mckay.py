"""McKay graphs of the induced-trivial representation, and their exports.

The graph at level n has the irrep labels as vertices and the entries of
Ind Res as edge weights (loops on the diagonal); the reduced graph for odd
permutations restricts to one vertex of each conjugate pair, with the
reduced operator's weights. Exports are deterministic: identical graphs
produce byte-identical DOT and JSON.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .chain import Chain, get_chain, require_symmetric
from .engine import reduced_operator
from .partitions import InvariantError


class McKayGraph(namedtuple("McKayGraph", "level vertices edges")):
    """A level's vertex names, and its edges (i, j, weight) with i <= j."""


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
    labels = tuple(chain.format_label(lab) for lab in chain.basis(chain.check_level(n)))
    return _graph_from_entries(n, labels, chain.ind_res(n).data)


def reduced_graph(n: int, chain: Chain | None = None) -> McKayGraph:
    """The plus basis as vertices, Y's entries as weights; none at n <= 1."""
    chain = chain or get_chain("sym")
    require_symmetric(chain, "the reduced graph")
    red = reduced_operator(chain.check_level(n))
    labels = tuple(chain.format_label(lab) for lab in red.plus_basis)
    return _graph_from_entries(n, labels, red.entries)


def export(graph: McKayGraph, fmt: str) -> str:
    """The graph as DOT (vertices, then edges with their weights) or as indented JSON."""
    if fmt == "dot":
        lines = ["graph mckay {", *(f'  "{name}";' for name in graph.vertices)]
        lines += [f'  "{graph.vertices[i]}" -- "{graph.vertices[j]}" [weight={w}];' for i, j, w in graph.edges]
        return "\n".join(lines) + "\n}\n"
    if fmt == "json":
        edges = [[i, j, w] for i, j, w in graph.edges]
        return json.dumps({"n": graph.level, "vertices": list(graph.vertices), "edges": edges}, indent=2) + "\n"
    raise ValueError(f"unknown export format {fmt!r}; use 'dot' or 'json'")
