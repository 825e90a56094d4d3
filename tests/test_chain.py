import ast
import inspect
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from charcol.chain import Chain, SymmetricChain, WreathChain, get_chain
from charcol.engine import reduced_operator
from charcol.hgroup import GroupTable, builtin_table, enumerate_wreath_labels
from charcol.lifting import lift
from charcol.partitions import enumerate_partitions
from charcol.sparse import SparseMatrix
from charcol.verify import export_chain, ingest_chain, row_rank, run_suite
from dense import from_dense, matrix_rows, to_dense, transpose
from poly_matrix import brute_indl_resl, poly_matrix, shift_diagonal


def fresh_sym():
    return SymmetricChain()


def fresh_z2():
    return WreathChain(builtin_table("Z2"))


# S3 with classes e, t (transpositions), c (3-cycles) and irreps of dims 1, 1, 2:
# its standard irrep makes Res entries of 2 in S3 wr S_n
S3 = GroupTable(
    "S3",
    6,
    (("e", 1), ("t", 3), ("c", 2)),
    (("triv", 1, (1, 1, 1)), ("sgn", 1, (1, -1, 1)), ("std", 2, (2, 0, -1))),
)


@pytest.mark.parametrize("h", ["trivial", "Z2"])
def test_a_negative_wreath_level_is_refused_as_the_symmetric_one_is(h):
    # not a level with no irreps
    chain = WreathChain(builtin_table(h))
    for basis in (chain.basis, SymmetricChain().basis,
                  lambda n: enumerate_wreath_labels(len(chain.h_table.irreps), n)):
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            basis(-1)


def test_get_chain_is_memoized():
    assert get_chain("sym") is get_chain("sym")
    assert isinstance(get_chain("z2wreath"), WreathChain)


def test_sym_basis_sizes():
    sym = fresh_sym()
    assert len(sym.basis(6)) == 11
    assert sym.basis(0) == ((),)


def test_wreath_basis_examples():
    z2c = fresh_z2()
    assert z2c.basis(1) == (((0, (1,)),), ((1, (1,)),))
    assert len(z2c.basis(2)) == 5


def test_res_single_corner():
    sym = fresh_sym()
    op = sym.res_operator(6)
    col = op.domain.index((3, 3))
    entries = {op.codomain[r]: v for (r, c), v in op.matrix.data.items() if c == col}
    assert entries == {(3, 2): 1}


def test_res_column_sums_count_corners():
    sym = fresh_sym()
    for n in (3, 5, 7):
        op = sym.res_operator(n)
        for c, parent in enumerate(op.domain):
            total = sum(v for (_, cc), v in op.matrix.data.items() if cc == c)
            corners = sum(
                1
                for i in range(len(parent))
                if parent[i] > (parent[i + 1] if i + 1 < len(parent) else 0)
            )
            assert total == corners


def test_res_trivial_is_trivial():
    sym = fresh_sym()
    for n in (1, 4, 8):
        vec = sym.apply_res({(n,): 1})
        assert vec == {(n - 1,) if n > 1 else (): 1}


def test_wreath_res_example():
    # Res(1^{n-1},-1; t,t) = (1^{n-2},-1; t,t) + (1^{n-1}; t), multiplicity 1 each
    z2c = fresh_z2()
    for n in (3, 4, 5):
        label = ((0, (n - 1,)), (1, (1,)))
        vec = z2c.apply_res({label: 1})
        assert vec == {
            ((0, (n - 2,)), (1, (1,))): 1,
            ((0, (n - 1,)),): 1,
        }


def test_wreath_res_multiplicity_is_h_dim():
    # for one-dimensional H-irreps every removal has multiplicity 1
    z2c = fresh_z2()
    op = z2c.res_operator(3)
    assert all(v == 1 for v in op.matrix.data.values())


def test_s3_wreath_res_has_multiplicity_two_edges():
    s3c = WreathChain(S3)
    for n in range(1, 6):
        op = s3c.res_operator(n)
        assert max(s3c.res_operator(n).matrix.data.values()) == 2, n
        rows = s3c.basis_index(n - 1)
        counted = {}
        for j, parent in enumerate(op.domain):
            for child in s3c._children(parent):
                counted[(rows[child], j)] = counted.get((rows[child], j), 0) + 1
        assert op.matrix.data == counted, n
        x = s3c.ind_res(n)
        dim = len(op.domain)
        for i in range(dim):
            unit = [0] * dim
            unit[i] = 1
            assert op.times_x(unit) == x.matvec(unit), (n, i)


@pytest.mark.parametrize("suite, checks", [("heisenberg", 4), ("tasyopari", 10)])
def test_s3_wreath_suites_pass(suite, checks):
    # the wreath theorem for a non-abelian H: M = |S3| = 6, f_l roots 0, 6, 12
    s3c = WreathChain(S3)
    assert s3c.poly(3).roots == (0, 6, 12)
    report = run_suite(s3c, suite, 4)
    assert len(report.checks) == checks
    assert all(check.passed for check in report.checks), report.checks


def dense_norm(matrix):
    return max((sum(map(abs, row)) for row in matrix_rows(matrix)), default=0)


@pytest.mark.parametrize("make, top", [(fresh_sym, 7), (fresh_z2, 4), (lambda: WreathChain(S3), 3)],
                         ids=["sym", "z2wreath", "s3wreath"])
def test_down_and_up_are_res_and_ind_along_the_edges(make, top):
    # down scatters along the edges as Res's matrix does, up as its transpose,
    # and times_x is up after down; ||Ind|| ||Res|| is the bound on ||X||
    chain = make()
    for n in range(1, top + 1):
        op, res = chain.res_operator(n), chain.res_operator(n).matrix
        ind = transpose(res)
        vec = [(3 * j) % 7 - 3 for j in range(len(op.domain))]
        below = [(5 * i) % 9 - 4 for i in range(len(op.codomain))]
        assert op.down(vec) == res.matvec(vec) and op.up(below) == ind.matvec(below), n
        assert op.times_x(vec) == op.up(op.down(vec)) == chain.ind_res(n).matvec(vec), n
        assert op.x_norm_bound == dense_norm(ind) * dense_norm(res) >= dense_norm(chain.ind_res(n)), n


def test_ind_res_level_two():
    sym = fresh_sym()
    assert matrix_rows(sym.ind_res(2)) == [[1, 1], [1, 1]]


def test_ind_res_t_is_t_plus_v():
    sym = fresh_sym()
    for n in (3, 5, 7):
        down = sym.apply_res({(n,): 1})
        ind = transpose(sym.res_operator(n).matrix)
        out = from_dense(sym, n, ind.matvec(to_dense(sym, n - 1, down)))
        assert out == {(n,): 1, (n - 1, 1): 1}


def test_ind_res_symmetry():
    for chain, top in ((fresh_sym(), 10), (fresh_z2(), 5)):
        for n in range(1, top + 1):
            x = chain.ind_res(n)
            assert x == transpose(x), (chain.id, n)


def test_x_counted_along_the_edges_is_res_transpose_res():
    # ind_res counts the paths a -> child -> b along Res's edges; the reference
    # multiplies Res's matrix by its transpose. A built-in chain's Res at level 0
    # maps onto the empty lower ring, so X_0 is the 1x1 zero matrix; S3 wr S_n
    # has Res entries of 2, so a path through a child counts with multiplicity
    ingested = ingest_chain(export_chain(fresh_sym(), 7))
    for chain, levels in ((fresh_sym(), range(13)), (fresh_z2(), range(7)), (ingested, range(1, 8)),
                          (WreathChain(S3), range(4))):
        for n in levels:
            res, x = chain.res_operator(n).matrix, chain.ind_res(n)
            reference = transpose(res) @ res
            assert (x.nrows, x.ncols) == (reference.nrows, reference.ncols), (chain.id, n)
            assert x.data == reference.data, (chain.id, n)
    assert fresh_sym().ind_res(0) == fresh_z2().ind_res(0) == SparseMatrix(1, 1)


def test_res_full_row_rank():
    for chain, top in ((fresh_sym(), 10), (fresh_z2(), 5)):
        for n in range(1, top + 1):
            op = chain.res_operator(n)
            rank = row_rank(len(op.codomain), op.entries())
            assert rank == len(op.codomain), (chain.id, n)


def test_heisenberg_identity():
    for chain, top in ((fresh_sym(), 8), (fresh_z2(), 4)):
        m = chain.heisenberg_scaling
        for n in range(0, top + 1):
            up = chain.res_operator(n + 1).matrix
            size = len(chain.basis(n))
            ind_res = chain.ind_res(n) if n >= 1 else SparseMatrix(size, size)
            assert up @ transpose(up) == shift_diagonal(ind_res, m), (chain.id, n)


def test_brute_indl_resl_l1_equals_ind_res():
    for chain in (fresh_sym(), fresh_z2()):
        for n in (1, 2, 3, 4):
            assert next(brute_indl_resl(chain, n)) == chain.ind_res(n)


def test_falling_factorial_identity_sym():
    sym = fresh_sym()
    for n in range(1, 9):
        x = sym.ind_res(n)
        brutes = list(brute_indl_resl(sym, n))
        assert len(brutes) == n
        for l, brute in enumerate(brutes, 1):
            assert brute == poly_matrix(sym.poly(l), x)


def test_falling_factorial_identity_z2():
    z2c = fresh_z2()
    for n in range(1, 5):
        x = z2c.ind_res(n)
        brutes = list(brute_indl_resl(z2c, n))
        assert len(brutes) == n
        for l, brute in enumerate(brutes, 1):
            assert brute == poly_matrix(z2c.poly(l), x)


def test_brute_indl_resl_rejects_bad_l():
    sym = fresh_sym()
    # l runs over 1, ..., n - min_n and nothing else; level min_n has no l
    assert len(list(brute_indl_resl(sym, 3))) == 3
    with pytest.raises(ValueError, match="no level below"):
        brute_indl_resl(sym, 0)
    with pytest.raises(ValueError, match="no level below"):
        brute_indl_resl(sym, -1)


def test_group_orders():
    assert fresh_sym().group_order(5) == factorial(5)
    assert fresh_z2().group_order(3) == 8 * 6


def test_class_strip_embed_round_trip():
    sym = fresh_sym()
    core, k = sym.strip_class((3, 1, 1, 1))
    assert (core, k) == ((3,), 3)
    assert sym.embed_class(core, 6) == (3, 1, 1, 1)
    z2c = fresh_z2()
    core, k = z2c.strip_class(((0, (2, 1, 1)), (1, (1,))))
    assert core == ((0, (2,)), (1, (1,)))
    assert k == 3
    assert z2c.embed_class(core, 5) == ((0, (2, 1, 1)), (1, (1,)))
    with pytest.raises(ValueError, match=r"^class '1:\[2\];-1:\[1\]' does not fit at level 2$"):
        z2c.embed_class(core, 2)


def test_wreath_basis_size_formula():
    z2c = fresh_z2()
    for n in range(6):
        expect = sum(
            len(enumerate_partitions(a)) * len(enumerate_partitions(n - a))
            for a in range(n + 1)
        )
        assert len(z2c.basis(n)) == expect


def test_fresh_wreath_chains_share_equal_bases():
    for n in range(7):
        assert fresh_z2().basis(n) == fresh_z2().basis(n)


@pytest.mark.parametrize("make", [fresh_sym, fresh_z2])
def test_chains_built_directly_own_their_res_and_lifts(make):
    # only bases and small tables are memoized per process, so a dropped
    # chain takes its Res and lifts with it and a second chain starts empty
    one, two = make(), make()
    lift(one, one.trivial_label(2), 6)
    one.ind_res(6)
    assert one._res_cache and one.lift_memo and one._below
    assert not (two._res_cache or two.lift_memo or two._below)


@pytest.mark.parametrize("make", [fresh_sym, fresh_z2])
def test_basis_index_matches_basis(make):
    chain = make()
    for n in range(7):
        basis = chain.basis(n)
        index = chain.basis_index(n)
        assert index is chain.basis_index(n)
        assert list(index) == list(basis)
        assert all(index[label] == i for i, label in enumerate(basis))
    assert make().basis_index(4) is not chain.basis_index(4)  # memoized per chain


# apply_res pushes coefficients label by label; the Res matrix is what X, the
# suites and ``indres --dump`` use. Both must give the same restriction.
RES_CASES = {"sym": 12, "z2wreath": 7, "trivial": 6}


def res_by_matrix(chain, n, vec):
    return from_dense(chain, n - 1, chain.res_operator(n).matrix.matvec(to_dense(chain, n, vec)))


def typed(vec):
    return {label: (type(c), c) for label, c in vec.items()}


@pytest.mark.parametrize("spec", sorted(RES_CASES))
def test_apply_res_matches_res_matrix_on_unit_vectors(spec):
    chain = get_chain(spec)
    for n in range(1, RES_CASES[spec] + 1):
        for label in chain.basis(n):
            vec = {label: 1}
            assert typed(chain.apply_res(vec)) == typed(res_by_matrix(chain, n, vec)), (n, label)


@pytest.mark.parametrize(
    "spec, n", [(spec, n) for spec, top in sorted(RES_CASES.items()) for n in range(1, top + 1)]
)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_apply_res_matches_res_matrix_on_sparse_rational_vectors(spec, n, data):
    chain = get_chain(spec)
    labels = data.draw(st.lists(st.sampled_from(chain.basis(n)), max_size=6, unique=True))
    values = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    vec = {label: data.draw(values) for label in labels}
    assert typed(chain.apply_res(vec)) == typed(res_by_matrix(chain, n, vec))


def test_apply_res_needs_level_one():
    with pytest.raises(ValueError):
        fresh_sym().apply_res({(): 1})
    with pytest.raises(ValueError):
        fresh_z2().apply_res({(): Fraction(1, 2)})


# apply_res(vec, t) restricts t levels in one sweep and normalizes once; it must
# return, or refuse, what t one-level calls do. S3 wr S_n's 2-dimensional irrep
# gives Res entries of 2, and its lifts are Fractions.
SWEEP_CASES = {"sym": (fresh_sym, 7), "z2wreath": (fresh_z2, 5), "S3": (lambda: WreathChain(S3), 4)}


def level_by_level(chain, vec, times):
    for _ in range(times):
        vec = chain.apply_res(vec)
    return vec


def outcome(restrict, vec, times):
    """The typed restriction, or the ValueError's message, on a fresh chain."""
    try:
        return typed(restrict(vec, times))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("spec", sorted(SWEEP_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_apply_res_sweep_matches_one_level_calls(spec, data):
    make, top = SWEEP_CASES[spec]
    n, times = data.draw(st.integers(1, top)), data.draw(st.integers(1, 4))  # times > n reaches level 0
    labels = data.draw(st.lists(st.sampled_from(make().basis(n)), max_size=6, unique=True))
    values = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    vec = {label: data.draw(values) for label in labels}
    sweep = outcome(make().apply_res, vec, times)
    assert sweep == outcome(lambda v, t: level_by_level(make(), v, t), vec, times)
    if times > n and labels:
        assert sweep in ({}, "apply_res needs a vector at level >= 1")


@pytest.mark.parametrize("make, vec, times, expected", [
    (fresh_sym, {(1, 1): 1, (2,): -1}, 3, {}),  # cancels at level 1
    (fresh_z2, {((0, (1,)),): 1, ((1, (1,)),): -1}, 2, {}),  # cancels at level 0, then stops
    (fresh_z2, {((0, (1,)),): 1, ((1, (1,)),): -2}, 2, "apply_res needs a vector at level >= 1"),
    (fresh_sym, {(): 0}, 1, "apply_res needs a vector at level >= 1"),  # a given zero is still checked
], ids=["sym-cancels-at-1", "z2-cancels-at-0", "z2-reaches-0", "sym-given-zero"])
def test_apply_res_sweep_drops_the_zeros_it_makes(make, vec, times, expected):
    # one-level calls normalize between levels, so a coefficient that cancels
    # to 0 is never restricted again, and a sweep that empties stops refusing
    assert outcome(make().apply_res, vec, times) == expected
    assert outcome(lambda v, t: level_by_level(make(), v, t), vec, times) == expected


def abstract_chain_methods() -> list[str]:
    """The ``Chain`` methods whose body, past the docstring, only raises NotImplementedError."""
    (chain_class,) = ast.parse(inspect.getsource(Chain)).body
    names = []
    for node in chain_class.body:
        if isinstance(node, ast.FunctionDef):
            body = node.body[1:] if ast.get_docstring(node) else node.body
            if [ast.unparse(stmt) for stmt in body] == ["raise NotImplementedError"]:
                names.append(node.name)
    return names


def test_built_in_chains_define_every_abstract_chain_method():
    abstract = abstract_chain_methods()
    assert {"basis", "class_size", "classes_at", "strip_class"} <= set(abstract)
    assert "identity_class" not in abstract  # built on embed_class
    missing = [f"{cls.__name__}.{name}" for cls in (SymmetricChain, WreathChain)
               for name in abstract if name not in vars(cls)]
    assert not missing, f"built-in chains lack protocol methods: {missing}"


@pytest.mark.parametrize("make, cls, text, level", [
    (fresh_sym, (5,), "[5]", 5),
    (fresh_sym, (9,), "[9]", 9),
    (fresh_z2, ((1, (2, 2)),), "-1:[2,2]", 4),
], ids=["sym-5-cycle", "sym-9-cycle", "z2-class-at-4"])
def test_class_that_does_not_fit_its_level_raises(make, cls, text, level):
    # such a class once gave a silent 0 at level 3; at its own level it
    # misses the level below, and there 0 still means none
    chain = make()
    message = f"class {text!r} does not fit at level 3"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        chain.class_size_from(cls, 3, 3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        chain.ind_t_character(cls, 3)
    assert chain.class_size_from(cls, level, level - 1) == 0
    assert chain.ind_t_character(cls, level) == 0


def test_identity_class_is_the_empty_class_with_fixed_points():
    assert fresh_sym().identity_class(3) == (1, 1, 1)
    assert fresh_z2().identity_class(3) == ((0, (1, 1, 1)),)
    assert fresh_sym().identity_class(0) == fresh_z2().identity_class(0) == ()


@pytest.mark.parametrize("make, cls, text, level", [
    (fresh_sym, (2, 1, 1, 1), "[2,1,1,1]", 2),
    (fresh_sym, (1, 1, 1), "[1,1,1]", 2),
    (fresh_z2, ((0, (1, 1, 1)),), "1:[1,1,1]", 1),
    (fresh_z2, ((0, (2, 1)), (1, (1,))), "1:[2,1];-1:[1]", 3),
], ids=["sym-transposition", "sym-identity", "z2-identity", "z2-mixed"])
def test_class_whose_fixed_points_overflow_the_level_does_not_fit(make, cls, text, level):
    # the core fits at the level and the whole class does not: one check,
    # fixed points included, for the engine and the class sizes alike
    chain = make()
    message = f"^{re.escape(f'class {text!r} does not fit at level {level}')}$"
    for call in (chain.fit_class, lambda c, n: chain.class_size_from(c, n, n),
                 lambda c, n: chain.class_size_from(c, n, n - 1), chain.embed_class):
        with pytest.raises(ValueError, match=message):
            call(cls, level)
    own = chain.label_level(cls)
    assert chain.fit_class(cls, own)[1] <= level and chain.class_size_from(cls, own, level) > 0


def test_operators_are_integer_maps():
    # Res, X, Y and the sign folds are built, and applied to int vectors, without
    # a pass over entry types: every entry and every product entry must already be an int
    def ints(values):
        return all(type(v) is int for v in values)

    ingested = ingest_chain(export_chain(fresh_sym(), 5))
    for chain, top in ((fresh_sym(), 7), (fresh_z2(), 4), (WreathChain(S3), 3), (ingested, 5)):
        for n in range(1, top + 1):
            op = chain.res_operator(n)
            x = chain.ind_res(n)
            assert ints(op.matrix.data.values()) and ints(x.data.values()), (chain.id, n)
            vec = [(-1) ** i * (i % 5) for i in range(len(op.domain))]
            assert ints(op.times_x(vec)) and ints(x.matvec(vec)), (chain.id, n)
            assert op.times_x(vec) == x.matvec(vec)
            assert ints(op.matrix.matvec(vec)) and ints((x @ x).data.values())
    for n in range(2, 8):
        red = reduced_operator(n)
        assert ints(red.entries.values()), n
        for sign in (1, -1):
            fold = fresh_sym().sign_fold(n, sign)
            assert ints(fold.times_x(list(range(len(fold.kept))))), (n, sign)
