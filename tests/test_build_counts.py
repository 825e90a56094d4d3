"""Guards on how often per-level structure is built, counted rather than timed.

Each test starts from cold caches, so it counts what a first run builds.
"""

from collections import Counter
from math import factorial

import pytest

from charcol import hgroup, partitions
from charcol.chain import (BranchingOperator, Chain, FallingFactorialPoly, SymmetricChain,
                           WreathChain)
from charcol.engine import character_column, character_columns, odd_column, reduced_operator
from charcol.hgroup import GroupTable
from charcol.lifting import lift
from charcol.partitions import class_sign, conjugate, enumerate_partitions, parse_partition
from charcol.sparse import SparseMatrix
from charcol.verify import (IngestedChain, export_chain, ingest_chain, jeongha_suite,
                            oracle_suite, tasyopari_suite)


def test_full_s12_table_validates_each_small_table_once(monkeypatch):
    hgroup._symmetric_table.cache_clear()
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
    # sparse matrix at all: Res's matrix form stays unbuilt. A sym column runs
    # on the sign fold of Res at level n, so it builds that fold and no Res; a
    # Z2 wreath column runs on the fold by its base group's linear character
    built = 0
    init = SparseMatrix.__init__

    def counting(matrix, *args, **kwargs):
        nonlocal built
        built += 1
        init(matrix, *args, **kwargs)

    monkeypatch.setattr(SparseMatrix, "__init__", counting)
    sym = SymmetricChain()
    character_column(sym, (4, 3), 24)  # [4,3,1^17] is odd
    assert sorted(sym._fold_cache) == [(24, -1)]
    assert sorted(sym._res_cache) == []
    z2 = WreathChain(hgroup.builtin_table("Z2"), chain_id="z2wreath")
    character_column(z2, ((0, (2,)), (1, (1,))), 10)  # one cycle of colour -1: sign -1
    assert sorted(z2._fold_cache) == [(10, -1)]
    assert sorted(z2._res_cache) == []
    assert "matrix" not in vars(z2.sign_fold(10, -1))
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
        assert sorted(chain._res_cache) == [1, 2, 3, 4, 5]
        assert not any("matrix" in vars(chain.res_operator(n)) for n in range(1, 6))
    assert built == 0


def test_ingestion_checks_the_listed_entries_and_builds_no_matrix(monkeypatch):
    # the shape, rank and multiplicity checks read the listed (row, col, value)
    # entries, and Res is built from them as edges, so no SparseMatrix is made
    payload = export_chain(SymmetricChain(), 9)
    built = 0
    init = SparseMatrix.__init__

    def counting(matrix, *args, **kwargs):
        nonlocal built
        built += 1
        init(matrix, *args, **kwargs)

    monkeypatch.setattr(SparseMatrix, "__init__", counting)
    chain = ingest_chain(payload)
    assert chain.max_n == 9
    assert not any("matrix" in vars(chain.res_operator(n)) for n in range(1, 10))
    assert built == 0


def test_one_sign_runs_on_its_fold_and_both_signs_share_res():
    # a call whose classes have one sign runs on that sign's fold; classes of
    # both signs share one pass on Res, which costs what two half passes do
    n = 10
    odd = [mu for mu in enumerate_partitions(n) if class_sign(mu) == -1]
    sym = SymmetricChain()
    character_columns(sym, odd, n, factorial(n))
    assert sorted(sym._fold_cache) == [(n, -1)] and not sym._res_cache
    sym = SymmetricChain()
    character_columns(sym, enumerate_partitions(n), n, factorial(n))
    assert not sym._fold_cache and sorted(sym._res_cache) == [n]


@pytest.mark.parametrize("make, label", [(SymmetricChain, lambda k: (k,)),
                                         (lambda: WreathChain(hgroup.builtin_table("Z2")), lambda k: ((0, (k,)),))],
                         ids=["sym", "z2wreath"])
@pytest.mark.parametrize("k, n", [(1, 2), (2, 3), (3, 9), (5, 13)])
def test_a_lift_restricts_in_two_sweeps(monkeypatch, make, label, k, n):
    # a lift restricts its padding down n - k levels and its result back up for
    # the Res^(n-k) check, each in one apply_res call; the one-row label pads to
    # the one-row label at n, which restricts onto it alone, so no lower lift runs
    sweeps = Counter()
    apply_res = Chain.apply_res

    def counting(chain, vec, times=1):
        sweeps[times] += 1
        return apply_res(chain, vec, times)

    monkeypatch.setattr(Chain, "apply_res", counting)
    chain = make()
    assert lift(chain, label(k), n) == {chain.trivial_label(n): 1}
    assert sweeps == {n - k: 2}


def test_a_column_finds_each_labels_children_once_below_its_level(monkeypatch):
    # the lifts restrict the same labels many times; apply_res memoizes their
    # children, so only the fold's build at n walks a level-n label a second
    # time, and it walks the kept diagrams of each conjugate pair alone
    walked = Counter()
    children = SymmetricChain._children

    def counting(label):
        walked[label] += 1
        return children(label)

    monkeypatch.setattr(SymmetricChain, "_children", staticmethod(counting))
    sym = SymmetricChain()
    character_column(sym, (4, 3), 24)
    assert max(walked.values()) == 2
    assert all(count == 1 for label, count in walked.items() if sum(label) < 24)
    kept = sym.sign_fold(24, -1).kept
    assert {label for label in walked if sum(label) == 24} == set(kept)
    assert len(kept) == (len(enumerate_partitions(24)) - 11) // 2  # S_24 has 11 self-conjugate diagrams


def test_reduced_operator_builds_no_chain_operator_and_no_matrix(monkeypatch):
    # Y is read off the sign-odd fold of Young's lattice: no chain's Res or X,
    # and no SparseMatrix
    def refusing(name):
        def call(*args, **kwargs):
            raise AssertionError(f"reduced_operator called {name}")
        return call

    monkeypatch.setattr(Chain, "ind_res", refusing("Chain.ind_res"))
    monkeypatch.setattr(Chain, "res_operator", refusing("Chain.res_operator"))
    monkeypatch.setattr(SparseMatrix, "__init__", refusing("SparseMatrix"))
    red = reduced_operator.__wrapped__(18)
    assert red.entries and len(red.plus_basis) == (len(enumerate_partitions(18)) - 5) // 2


@pytest.fixture
def conjugations(monkeypatch):
    """Counts the package's calls to ``partitions.conjugate``."""
    calls = Counter()
    original = partitions.conjugate

    def counting(lam):
        calls["conjugate"] += 1
        return original(lam)

    monkeypatch.setattr(partitions, "conjugate", counting)
    return calls


def fold_conjugations(n: int) -> int:
    """The diagrams a sign fold at level n conjugates: at level n the larger
    diagram of each pair and the self-conjugate ones, one level down only those
    whose first row exceeds their first column by at most one."""
    def paired(lam, near):
        first, rows = (lam[0], len(lam)) if lam else (0, 0)
        return rows < first <= rows + near or first == rows and lam >= conjugate(lam)

    return (sum(paired(lam, n) for lam in enumerate_partitions(n))
            + sum(paired(mu, 1) for mu in enumerate_partitions(n - 1)))


def test_reduced_operator_conjugates_each_diagram_of_its_level_once(conjugations):
    # the fold conjugates the kept diagram of each pair of level n once, and one
    # level down only the diagrams near the diagonal, where a kept diagram's
    # child may lie past it; re-signing to the plus basis conjugates none
    n = 12
    reduced_operator.__wrapped__(n)
    p_n, p_below = len(enumerate_partitions(n)), len(enumerate_partitions(n - 1))
    assert conjugations["conjugate"] == fold_conjugations(n) == 49 < (p_n + p_below) // 2


def test_odd_column_reads_the_conjugates_off_the_reduced_operator(conjugations):
    # the pass reads the conjugates off the chain's fold and the plus part reads
    # the plus basis off Y, so once both are built an odd column conjugates none,
    # and a fresh chain conjugates only for its own fold
    n = 12
    reduced_operator(n)
    sym = SymmetricChain()
    conjugations.clear()
    odd_column((6, 4, 2), n, sym, max_order=factorial(n))
    assert conjugations["conjugate"] == fold_conjugations(n)
    conjugations.clear()
    odd_column((8, 2, 2), n, sym, max_order=factorial(n))
    assert conjugations["conjugate"] == 0


FRESH_CHAINS = {"sym": SymmetricChain,
                "z2wreath": lambda: WreathChain(hgroup.builtin_table("Z2"), chain_id="z2wreath")}


@pytest.mark.parametrize("spec, cls, m, js", [
    ("sym", (3, 2, 1, 1), 7, range(0, 10)),
    ("z2wreath", ((0, (2, 1)), (1, (1, 1))), 5, range(0, 8)),
])
def test_class_data_fits_each_class_once(monkeypatch, spec, cls, m, js):
    # class_size_from pads its fitted core, once per chain: asked again, it
    # fits nothing; a column fits its class once and pads the core for its
    # label and norm check
    fits = 0
    fit_class = Chain.fit_class

    def counting(chain, cls, n):
        nonlocal fits
        fits += 1
        return fit_class(chain, cls, n)

    monkeypatch.setattr(Chain, "fit_class", counting)
    chain = FRESH_CHAINS[spec]()  # get_chain's chains may have memoized the sizes
    for j in js:
        fits = 0
        chain.class_size_from(cls, m, j)
        assert fits == 1, j
    fits = 0
    for j in js:
        chain.class_size_from(cls, m, j)
    assert fits == 0
    character_column(chain, cls, m + 1)
    assert fits == 1


def test_tasyopari_does_one_product_and_packed_matvecs_per_level(monkeypatch):
    # both sides act on a packed identity along Res's edges: the brute side
    # restricts once more for each l and induces back up l times (L downs and
    # L(L+1)/2 ups), and the polynomial side applies X = Ind Res once per new
    # root (L downs and L ups), so with nested roots a level costs L(L+7)/2
    # operator applications, L = n - min_n; no X is built, so no sparse matvec
    # or product is taken. A run to max_n repeats a run to max_n - 1 and adds
    # level max_n, so two runs on fresh chains differ by exactly that level
    counts = Counter()
    matmul, matvec = SparseMatrix.__matmul__, SparseMatrix.matvec
    down, up = BranchingOperator.down, BranchingOperator.up
    ind_res = Chain.ind_res

    def counting_ind_res(chain, n):
        counts["ind_res"] += 1
        return ind_res(chain, n)

    def counting_matmul(a, b):
        counts["matmul"] += 1
        return matmul(a, b)

    def counting_matvec(a, vec):
        counts["matvec"] += 1
        return matvec(a, vec)

    def counting_down(op, vec):
        counts["down"] += 1
        return down(op, vec)

    def counting_up(op, vec):
        counts["up"] += 1
        return up(op, vec)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(SparseMatrix, "matvec", counting_matvec)
    monkeypatch.setattr(BranchingOperator, "down", counting_down)
    monkeypatch.setattr(BranchingOperator, "up", counting_up)
    monkeypatch.setattr(Chain, "ind_res", counting_ind_res)
    upper_sym = export_chain(SymmetricChain(), 7)
    upper_sym["levels"] = upper_sym["levels"][2:]  # levels 2..7, S_2 the lowest
    del upper_sym["levels"][0]["res"]
    chains = ((SymmetricChain, 7), (lambda: WreathChain(hgroup.builtin_table("Z2")), 5),
              (lambda: IngestedChain(upper_sym), 7))
    for make, max_n in chains:
        runs = []
        for top in range(max_n + 1):
            counts.clear()
            chain = make()
            checks, skipped = tasyopari_suite(chain, top)
            levels = chain.level_range(top)
            assert skipped == [] and all(c.passed for c in checks), (chain.id, top)
            assert len(checks) == sum(n - chain.min_n for n in levels), (chain.id, top)
            assert counts["ind_res"] == 0, (chain.id, top)
            runs.append(Counter(counts))
        for n in chain.level_range(max_n):
            level = runs[n] - runs[n - 1]
            big_l = n - chain.min_n
            assert level["matmul"] == 0, (chain.id, n, level)
            assert level["down"] + level["up"] + level["matvec"] == big_l * (big_l + 7) // 2, (
                chain.id, n, level)
            assert (level["down"], level["matvec"]) == (2 * big_l, 0), (chain.id, n, level)


def test_jeongha_computes_each_class_size_once_per_chain(monkeypatch):
    # the class-ratio checks at (n, l) and (n + 1, l + 1) share sizes of the
    # same class; each chain computes a (class, m, j) size once, so a second
    # run on the same chain computes none
    computed = Counter()

    def counting(original):
        def count(chain, cls, m, j):
            computed[cls, m, j] += 1
            return original(chain, cls, m, j)
        return count

    for owner in (Chain, IngestedChain):
        monkeypatch.setattr(owner, "_class_size_from", counting(owner._class_size_from))
    chains = ((SymmetricChain(), 7), (WreathChain(hgroup.builtin_table("Z2"), chain_id="z2wreath"), 5),
              (ingest_chain(export_chain(SymmetricChain(), 7)), 7))
    for chain, max_n in chains:
        computed.clear()
        checks, _ = jeongha_suite(chain, max_n)
        assert checks and all(c.passed for c in checks), chain.id
        assert computed and max(computed.values()) == 1, (chain.id, computed.most_common(1))
        computed.clear()
        jeongha_suite(chain, max_n)
        assert not computed, chain.id


def test_oracle_suite_applies_f_once_per_level_and_core_level(monkeypatch):
    # each level's columns come from one character_columns call, which packs
    # the classes of one core level k < n into one f_{n-k} pass
    applied = Counter()
    apply = FallingFactorialPoly.apply

    def counting(poly, times_x, vec):
        applied[poly.factors] += 1
        return apply(poly, times_x, vec)

    monkeypatch.setattr(FallingFactorialPoly, "apply", counting)
    for chain, max_n in ((SymmetricChain(), 8), (WreathChain(hgroup.builtin_table("Z2")), 5)):
        applied.clear()
        checks, skipped = oracle_suite(chain, max_n, max_order=factorial(max_n) * 2**max_n)
        assert checks and all(c.passed for c in checks) and not skipped
        expected = Counter()
        for n in range(1, max_n + 1):
            core_levels = {chain.fit_class(cls, n)[1] for cls in chain.classes_at(n)}
            expected.update(n - k for k in core_levels if k < n)
        assert applied == expected, chain.id


def test_table_columns_parse_each_label_once():
    # odd_column lifts its input through lift_column_input, which reads the
    # level-k table's labels for every column; the parsers are memoized
    hgroup.parse_wreath_label.cache_clear()
    parse_partition.cache_clear()
    sym, n = SymmetricChain(), 8
    for mu in enumerate_partitions(n):
        if (n - len(mu)) % 2:
            odd_column(mu, n, sym, max_order=factorial(n))
        else:
            character_column(sym, mu, n, max_order=factorial(n))
    info = parse_partition.cache_info()
    assert info.hits > 0 and info.misses <= sum(map(len, map(enumerate_partitions, range(n + 1))))
    z2 = WreathChain(hgroup.builtin_table("Z2"))
    for cls in z2.classes_at(4):
        character_column(z2, cls, 5)
    info = hgroup.parse_wreath_label.cache_info()
    assert info.hits > 0 and info.misses <= sum(len(z2.basis(k)) for k in range(5))
