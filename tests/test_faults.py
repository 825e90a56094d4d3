"""Fault injection: a spoiled branching rule, core table or polynomial must make
the engine refuse a column, or leave it exactly right; never return a wrong one.

Each fault is run on every class of sym at n = 9 and z2wreath at n = 5 whose
core table is under the default order bound (15 and 36 classes). The three
kinds are
- edges: one edge of a fresh chain's ``_children`` dropped, doubled, or rewired
  to another label of the level below;
- tables: one entry of a core table changed by one, in a column the runs read,
  or two of its rows' values swapped, passed as ``table=``;
- roots: ``poly`` with its last root off by one, either way.
The seeds and counts were fixed before the first run; ``TALLIES`` pins how many
runs were refused, so a change that weakens the column checks shows here.
"""

from random import Random

import pytest

from charcol.chain import SymmetricChain, WreathChain
from charcol.engine import character_column
from charcol.hgroup import DEFAULT_MAX_ORDER, builtin_table
from charcol.lifting import InvariantError

SEED = 1009
EDGE_FAULTS = 12  # per chain, each run on every class
TABLE_FAULTS = 12  # per chain, alternately a changed entry and a row swap
CHAINS = {  # a fresh chain, its level n, and the reference columns' order bound
    "sym": (SymmetricChain, 9, 362_880),
    "z2wreath": (lambda: WreathChain(builtin_table("Z2"), chain_id="z2wreath"), 5, None),
}
TALLIES = {  # (chain, kind) -> (runs, refused); every other run's column was exactly right
    ("sym", "edges"): (180, 67),
    ("sym", "tables"): (24, 15),
    ("sym", "roots"): (30, 30),
    ("z2wreath", "edges"): (432, 72),
    ("z2wreath", "tables"): (88, 41),
    ("z2wreath", "roots"): (40, 40),
}


def _runs(name):
    """A fresh chain, n, its reference columns at n, and its classes by core level k."""
    make, n, bound = CHAINS[name]
    chain = make()
    by_core = {}
    for cls in chain.classes_at(n, bound):
        k = chain.fit_class(cls, n)[1]
        if chain.group_order(k) <= DEFAULT_MAX_ORDER:
            by_core.setdefault(k, []).append(cls)
    reference = {cls: chain.reference_column(cls, n, bound) for cls in chain.classes_at(n, bound)}
    return chain, n, reference, by_core


def _outcome(chain, cls, n, reference, table=None):
    try:
        coeffs = character_column(chain, cls, n, table=table).coeffs
    except (InvariantError, ValueError):
        return "refused"
    return "right" if coeffs == reference[cls] else "WRONG"


def _edge_fault(chain, rng, n):
    """Spoil one edge between levels m and m - 1, for some 2 <= m <= n."""
    m = rng.randrange(2, n + 1)
    parent = rng.choice(chain.basis(m))
    children = list(chain._children(parent))
    i, kind = rng.randrange(len(children)), rng.choice(("drop", "double", "rewire"))
    if kind == "drop":
        del children[i]
    elif kind == "double":
        children.insert(i, children[i])
    else:
        children[i] = rng.choice([lab for lab in chain.basis(m - 1) if lab != children[i]])
    original = chain._children
    chain._children = lambda label: list(children) if label == parent else original(label)
    return f"{kind} edge {i} of {chain.format_label(parent)}"


def _table_fault(chain, rng, n, by_core, swap):
    """A core level k and its table with one entry in a run's column changed, or two rows swapped."""
    k = rng.choice([k for k in sorted(by_core) if len(chain.small_table(k).irreps) > 1])
    table = chain.small_table(k)
    rows = [list(values) for _, _, values in table.irreps]
    if swap:
        i, j = rng.sample(range(len(rows)), 2)
        rows[i], rows[j] = rows[j], rows[i]
        what = f"rows {i} and {j} swapped"
    else:
        i = rng.randrange(len(rows))
        core = chain.fit_class(rng.choice(by_core[k]), n)[0]
        col = table.class_index(chain.format_class(core))
        rows[i][col] += rng.choice((-1, 1))
        what = f"entry ({i}, {col}) changed"
    irreps = tuple((lab, dim, tuple(values)) for (lab, dim, _), values in zip(table.irreps, rows))
    return k, table._replace(irreps=irreps), f"level {k}: {what}"


def _tally(name, kind):
    rng, outcomes = Random(SEED), []
    if kind == "edges":
        for _ in range(EDGE_FAULTS):
            chain, n, reference, by_core = _runs(name)
            fault = _edge_fault(chain, rng, n)
            outcomes += [(fault, cls, _outcome(chain, cls, n, reference))
                         for classes in by_core.values() for cls in classes]
    elif kind == "tables":
        chain, n, reference, by_core = _runs(name)
        for t in range(TABLE_FAULTS):
            k, faulty, fault = _table_fault(chain, rng, n, by_core, swap=t % 2)
            outcomes += [(fault, cls, _outcome(chain, cls, n, reference, faulty)) for cls in by_core[k]]
    else:
        for shift in (1, -1):
            chain, n, reference, by_core = _runs(name)
            poly = chain.poly
            chain.poly = lambda l: (f := poly(l))._replace(roots=f.roots[:-1] + (f.roots[-1] + shift,))
            outcomes += [(f"last root {shift:+d}", cls, _outcome(chain, cls, n, reference))
                         for k in by_core if k < n for cls in by_core[k]]
    return outcomes


@pytest.mark.parametrize("kind", ["edges", "tables", "roots"])
@pytest.mark.parametrize("name", list(CHAINS))
def test_a_fault_is_refused_or_leaves_the_column_right(name, kind):
    outcomes = _tally(name, kind)
    wrong = [(fault, cls) for fault, cls, outcome in outcomes if outcome == "WRONG"]
    assert not wrong, f"wrong columns returned: {wrong}"
    refused = sum(outcome == "refused" for _, _, outcome in outcomes)
    assert refused > 0
    assert (len(outcomes), refused) == TALLIES[name, kind]
