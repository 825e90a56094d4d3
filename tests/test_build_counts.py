"""Guards on how often per-level structure is built, counted rather than timed.

Each test starts from cold caches, so it counts what a first run builds.
"""

from collections import Counter
from math import factorial

from charcol import hgroup
from charcol.chain import SymmetricChain, WreathChain, get_chain
from charcol.engine import character_column, odd_column, reduced_operator
from charcol.hgroup import GroupTable
from charcol.partitions import enumerate_partitions
from charcol.sparse import SparseMatrix
from charcol.verify import export_chain, tasyopari_suite


def test_full_s12_table_validates_each_small_table_once(monkeypatch):
    hgroup._symmetric_group_table_cached.cache_clear()
    validated = Counter()
    validate = GroupTable.validate

    def counting(table):
        validated[table.name] += 1
        return validate(table)

    monkeypatch.setattr(GroupTable, "validate", counting)
    chain = SymmetricChain()
    n = 12
    for mu in enumerate_partitions(n):
        if (n - len(mu)) % 2:
            odd_column(mu, n, chain, max_order=factorial(n))
        else:
            character_column(chain, mu, n, max_order=factorial(n))
    assert validated and max(validated.values()) == 1, validated


def test_wreath_columns_build_each_level_of_labels_once():
    hgroup.enumerate_wreath_labels.cache_clear()
    z2 = hgroup.builtin_table("Z2")
    classes = [((1, (1,)),), ((0, (2,)),), ((1, (3,)),), ((0, (2,)), (1, (1,))), ((1, (2, 2)),)]
    for cls in classes:
        character_column(WreathChain(z2, chain_id="z2wreath"), cls, 10)
    info = hgroup.enumerate_wreath_labels.cache_info()
    assert info.misses <= 11  # one build per level 0..10
    assert info.hits > info.misses


def test_columns_build_res_only_at_their_own_level(monkeypatch):
    # lifting restricts along the support, and f_l multiplies by X along
    # Res's edges, so a column builds Res at its own level n, never X, and no
    # sparse matrix at all: Res's matrix form stays unbuilt
    built = 0
    init = SparseMatrix.__init__

    def counting(matrix, *args, **kwargs):
        nonlocal built
        built += 1
        init(matrix, *args, **kwargs)

    monkeypatch.setattr(SparseMatrix, "__init__", counting)
    sym = SymmetricChain()
    character_column(sym, (4, 3), 24)
    assert sorted(sym._res_cache) == [24]
    assert sorted(sym._x_cache) == []
    assert "matrix" not in vars(sym.res_operator(24))
    z2 = WreathChain(hgroup.builtin_table("Z2"), chain_id="z2wreath")
    character_column(z2, ((0, (2,)), (1, (1,))), 10)
    assert sorted(z2._res_cache) == [10]
    assert sorted(z2._x_cache) == []
    assert "matrix" not in vars(z2.res_operator(10))
    assert built == 0


def test_export_writes_res_from_its_edges_and_builds_no_matrix(monkeypatch):
    # export_chain counts Res's branching edges per (row, col); neither Res's
    # matrix form nor X is built, on either built-in chain
    built = 0
    init = SparseMatrix.__init__

    def counting(matrix, *args, **kwargs):
        nonlocal built
        built += 1
        init(matrix, *args, **kwargs)

    monkeypatch.setattr(SparseMatrix, "__init__", counting)
    for chain in (SymmetricChain(), WreathChain(hgroup.builtin_table("Z2"), chain_id="z2wreath")):
        levels = export_chain(chain, 5)["levels"]
        assert [lv["n"] for lv in levels if "res" in lv] == [1, 2, 3, 4, 5]
        assert sorted(chain._res_cache) == [1, 2, 3, 4, 5] and not chain._x_cache
        assert not any("matrix" in vars(chain.res_operator(n)) for n in range(1, 6))
    assert built == 0


def test_a_column_finds_each_labels_children_once_below_its_level(monkeypatch):
    # the lifts restrict the same labels many times; apply_res memoizes their
    # children, so only the Res build at n walks a level-n label a second time
    walked = Counter()
    children = SymmetricChain._children

    def counting(label):
        walked[label] += 1
        return children(label)

    monkeypatch.setattr(SymmetricChain, "_children", staticmethod(counting))
    character_column(SymmetricChain(), (4, 3), 24)
    assert max(walked.values()) == 2
    assert all(count == 1 for label, count in walked.items() if sum(label) < 24)
    assert sum(1 for label in walked if sum(label) == 24) == len(enumerate_partitions(24))


def test_reduced_operator_reads_x_once_per_nonzero_at_most(monkeypatch):
    # Y is built in one pass over X's nonzeros, not by looking up X(x, y) and
    # X(x, conjugate(y)) for every pair of the plus basis; X itself is built
    # first, so only the reads count
    x_matrix = get_chain("sym").ind_res(18)
    reads = 0
    getitem = SparseMatrix.__getitem__

    def counting(matrix, rc):
        nonlocal reads
        reads += 1
        return getitem(matrix, rc)

    monkeypatch.setattr(SparseMatrix, "__getitem__", counting)
    reduced_operator.__wrapped__(18)
    assert reads <= len(x_matrix.data), (reads, len(x_matrix.data))


def test_tasyopari_does_at_most_3n_plus_2_products_per_level(monkeypatch):
    # both sides grow with l by one product each, plus the brute side's Gram
    # product, so a level costs O(n) products, not O(n^2); every product at
    # level n has dim(n) columns, which tells the levels apart
    products = Counter()
    matmul = SparseMatrix.__matmul__

    def counting(a, b):
        products[b.ncols] += 1
        return matmul(a, b)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counting)
    for chain, max_n in ((SymmetricChain(), 6), (WreathChain(hgroup.builtin_table("Z2")), 5)):
        products.clear()
        checks, skipped = tasyopari_suite(chain, max_n)
        assert skipped == []
        assert len(checks) == max_n * (max_n + 1) // 2 and all(c.passed for c in checks)
        dims = {len(chain.basis(n)): n for n in range(1, max_n + 1)}
        assert len(dims) == max_n and set(products) <= set(dims), (chain.id, products)
        for dim, count in products.items():
            assert count <= 3 * dims[dim] + 2, (chain.id, dims[dim], count)
        assert sum(products.values()) <= sum(3 * n + 2 for n in range(1, max_n + 1))
