import ast
import itertools
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from charcol import partitions, verify
from charcol.chain import WreathChain, get_chain
from charcol.engine import (
    character_column,
    character_columns,
    odd_column,
    reduced_operator,
)
from charcol.hgroup import GroupTable, SizeBoundError, builtin_table, wreath_char_table
from charcol.lifting import lift, lift_column_input
from charcol.partitions import (
    class_size,
    conjugate,
    dim_irrep,
    enumerate_partitions,
    is_odd_class,
    mirrored_order,
    mn_character,
)
from charcol.verify import oracle_column

from dense import entry_rows, from_dense, matrix_rows, to_dense, transpose
from poly_matrix import brute_indl_resl
from printed_data import PRINTED_DELTA_123, PRINTED_PLUS_COLUMNS, PRINTED_Y6
from test_chain import S3

SYM = get_chain("sym")
Z2C = get_chain("z2wreath")


def apply_poly(chain, x, l, n, vec):
    """The chain's f_l(x) applied to a vector {label: coefficient} at level n."""
    return from_dense(chain, n, chain.poly(l).apply(x.matvec, to_dense(chain, n, vec)))


def dense_column(chain, column):
    """The column's entries in ``chain.basis`` order, zeros included."""
    return [column.coeffs.get(label, 0) for label in chain.basis(column.level)]


def printed_vector(column):
    return tuple(column.coeffs.get(p, 0) for p in mirrored_order(column.level))


def test_delta_123_matches_printed_column():
    column = character_column(SYM, (3,), 6)
    assert printed_vector(column) == PRINTED_DELTA_123


def test_delta_123_accepts_padded_class():
    assert character_column(SYM, (3, 1, 1, 1), 6).coeffs == character_column(SYM, (3,), 6).coeffs


def test_identity_column_is_dimension_vector():
    for n in (3, 5, 6):
        column = character_column(SYM, (1,) * n, n)
        assert column.coeffs == {p: dim_irrep(p) for p in enumerate_partitions(n)}


def test_transposition_column_s4():
    column = character_column(SYM, (2,), 4)
    dense = dense_column(SYM, column)
    assert dense == [mn_character(p, (2, 1, 1)) for p in enumerate_partitions(4)]
    assert dense == [1, 1, 0, -1, -1]


def test_engine_equals_oracle_to_six():
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            assert character_column(SYM, mu, n).coeffs == oracle_column(mu, n).coeffs


def test_column_norm_identity():
    for n in (4, 6):
        for mu in enumerate_partitions(n):
            column = character_column(SYM, mu, n)
            assert column.norm_squared() * class_size(mu) == factorial(n)


def test_column_orthogonality():
    for n in (5, 7):
        cols = {
            mu: dense_column(SYM, character_column(SYM, mu, n)) for mu in enumerate_partitions(n)
        }
        for a, b in itertools.combinations(cols, 2):
            assert sum(x * y for x, y in zip(cols[a], cols[b])) == 0


def test_columns_are_ind_res_eigenvectors():
    # X delta = (fixed points) delta, for every class of S_n, n <= 7
    for n in range(1, 8):
        x = SYM.ind_res(n)
        for mu in enumerate_partitions(n):
            dense = dense_column(SYM, character_column(SYM, mu, n))
            fixed = sum(1 for part in mu if part == 1)
            assert x.matvec(dense) == [fixed * v for v in dense]


def test_falling_factorial_zero_is_identity():
    vec = {(4, 1): 3, (5,): -2}
    assert apply_poly(SYM, SYM.ind_res(5), 0, 5, vec) == vec


def test_falling_factorial_level_mismatch():
    with pytest.raises(ValueError):
        apply_poly(SYM, SYM.ind_res(5), 1, 4, {(4,): 1})


def test_falling_factorial_matches_brute_on_basis_vectors():
    for n in (3, 5, 7):
        x = SYM.ind_res(n)
        brutes = list(brute_indl_resl(SYM, n))
        for l in (1, 2, n):
            brute = brutes[l - 1]
            for i, lam in enumerate(SYM.basis(n)):
                unit = [0] * len(SYM.basis(n))
                unit[i] = 1
                assert SYM.poly(l).apply(x.matvec, unit) == brute.matvec(unit)


def test_falling_factorial_roots_and_values():
    poly = Z2C.poly(3)
    assert poly.roots == (0, 2, 4)
    assert poly.factors == 3
    assert poly.value(6) == 6 * 4 * 2
    with pytest.raises(ValueError):
        SYM.poly(-1)


FACTORED_CASES = {"sym": 12, "z2wreath": 7, "trivial": 6}


def factored_and_x_routes(chain, n, vec):
    """poly(l) applied to a dense vector for every l <= n, multiplying by X
    along Res's edges and by the built X, each entry paired with its exact type."""
    times_x, x = chain.res_operator(n).times_x, chain.ind_res(n)
    for l in range(n + 1):
        poly = chain.poly(l)
        factored = poly.apply(times_x, vec)
        built = poly.apply(x.matvec, vec)
        yield l, [(type(v), v) for v in factored], [(type(v), v) for v in built]


@pytest.mark.parametrize("spec", sorted(FACTORED_CASES))
def test_factored_product_equals_x_route_on_unit_vectors(spec):
    chain = get_chain(spec)
    for n in range(1, FACTORED_CASES[spec] + 1):
        dim = len(chain.basis(n))
        for i in range(dim):
            unit = [0] * dim
            unit[i] = 1
            for l, factored, built in factored_and_x_routes(chain, n, unit):
                assert factored == built, (n, i, l)


@pytest.mark.parametrize(
    "spec, n",
    [(spec, n) for spec, top in sorted(FACTORED_CASES.items()) for n in range(1, top + 1)],
)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_factored_product_equals_x_route_on_sparse_rational_vectors(spec, n, data):
    chain = get_chain(spec)
    dim = len(chain.basis(n))
    positions = data.draw(st.lists(st.integers(0, dim - 1), max_size=6, unique=True))
    values = st.integers(-4, 4)
    vec = [0] * dim
    for i in positions:
        vec[i] = data.draw(values)
    for l, factored, built in factored_and_x_routes(chain, n, vec):
        assert factored == built, l


@pytest.mark.parametrize("cls, n", [((3,), 20), ((2, 2), 20), ((4, 3), 22), ((5,), 22)])
def test_engine_columns_equal_poly_of_built_x_times_lift(cls, n):
    core, k = SYM.fit_class(cls, n)
    vec = lift_column_input(SYM, SYM.small_table(k), core, n)
    expected = apply_poly(SYM, SYM.ind_res(n), n - k, n, vec)
    assert character_column(SYM, cls, n).coeffs == expected


# -- reduced operator and odd columns ------------------------------------------


def test_reduced_operator_n6_matches_printed_matrix():
    red = reduced_operator(6)
    assert red.plus_basis == ((6,), (5, 1), (4, 2), (4, 1, 1), (3, 3))
    assert entry_rows(red.entries, 5) == PRINTED_Y6


def test_reduced_operator_n2():
    red = reduced_operator(2)
    assert red.plus_basis == ((2,),)
    assert entry_rows(red.entries, 1) == [[0]]


def test_reduced_operator_n4_plus_basis():
    # characters at a transposition: 1, 1, 0, -1, -1
    assert reduced_operator(4).plus_basis == ((4,), (3, 1))


def test_reduced_operator_matches_its_definition_on_dense_x():
    # Y(x, y) = X(x, y) - X(x, conjugate(y)) for x, y in the plus basis: the
    # fold's counted entries, and Y applied to each unit vector, read off X
    for n in range(0, 17):
        red = reduced_operator(n)
        x = matrix_rows(SYM.ind_res(n))
        index = SYM.basis_index(n)
        expected = [
            [x[index[a]][index[b]] - x[index[a]][index[conjugate(b)]] for b in red.plus_basis]
            for a in red.plus_basis
        ]
        size = len(red.plus_basis)
        assert entry_rows(red.entries, size) == expected, n
        units = [[int(i == j) for i in range(size)] for j in range(size)]
        assert [red.times_y(unit) for unit in units] == [list(col) for col in zip(*expected)], n


def test_reduced_operator_carries_the_conjugates_of_its_plus_basis():
    for n in range(2, 15):
        red = reduced_operator(n)
        assert red.plus_conjugates == tuple(map(conjugate, red.plus_basis)), n
        assert not set(red.plus_conjugates) & set(red.plus_basis), n


@pytest.mark.parametrize("n", [0, 1])
def test_reduced_operator_has_an_empty_plus_basis_below_level_two(n):
    # every diagram of at most one box is self-conjugate, so Y acts on nothing
    red = reduced_operator(n)
    assert red.plus_basis == red.plus_conjugates == ()
    assert red.entries == {} and red.times_y([]) == []
    assert red.mirror == (0,) * n  # level n - 1 is the empty diagram, or nothing


def test_reduced_operator_does_not_call_the_oracle(monkeypatch):
    def no_oracle(*args):
        raise AssertionError("the engine called the border-strip oracle")

    reduced_operator.cache_clear()
    monkeypatch.setattr(partitions, "mn_character", no_oracle)
    assert reduced_operator(6).plus_basis == ((6,), (5, 1), (4, 2), (4, 1, 1), (3, 3))


@pytest.mark.parametrize("n", [15, 16])
def test_odd_columns_match_oracle_from_n15(n):
    # from n = 15 on, some diagrams that are not self-conjugate, such as
    # [6,3,2,2,2], have a zero character at a transposition
    for tau in ((2,), (4,), (2, 2, 2), (3, 2)):
        assert odd_column(tau, n).coeffs == oracle_column(tau, n).coeffs, tau


def test_plus_membership_matches_transposition_sign():
    for n in range(2, 9):
        plus = set(reduced_operator(n).plus_basis)
        for lam in enumerate_partitions(n):
            sign = mn_character(lam, (2,) + (1,) * (n - 2))
            assert (lam in plus) == (sign > 0)


def test_odd_columns_plus_parts_match_printed():
    red = reduced_operator(6)
    for tau, expect in PRINTED_PLUS_COLUMNS.items():
        column = odd_column(tau, 6)
        assert tuple(column.plus_part[lam] for lam in red.plus_basis) == expect


def test_plus_part_of_transposition_is_y_product_on_t():
    red = reduced_operator(6)
    unit = [1, 0, 0, 0, 0]
    assert SYM.poly(4).apply(red.times_y, unit) == [1, 3, 3, 2, 1]


def test_odd_column_equals_full_column():
    for n in range(2, 8):
        for mu in enumerate_partitions(n):
            if is_odd_class(mu):
                assert odd_column(mu, n).coeffs == character_column(SYM, mu, n).coeffs


def test_odd_column_rejects_even_class():
    with pytest.raises(ValueError, match="even"):
        odd_column((3,), 6)


def test_odd_column_rejects_wreath_chain():
    with pytest.raises(ValueError, match="symmetric chain"):
        odd_column(((0, (2,)),), 3, chain=Z2C)


def test_reconstruction_sign_pairing():
    column = odd_column((2,), 6)
    for lam in enumerate_partitions(6):
        if conjugate(lam) == lam:
            assert column.coeffs.get(lam, 0) == 0
        else:
            assert column.coeffs.get(lam, 0) == -column.coeffs.get(conjugate(lam), 0)


# -- wreath columns --------------------------------------------------------------


def test_wreath_columns_match_brute_table():
    for n in (1, 2, 3):
        table = wreath_char_table(builtin_table("Z2"), n)
        for clab, _ in table.classes:
            cls = Z2C.parse_class(clab)
            column = character_column(Z2C, cls, n)
            idx = table.class_index(clab)
            expect = {
                Z2C.parse_label(lab): values[idx]
                for lab, _, values in table.irreps
                if values[idx]
            }
            assert column.coeffs == expect, (n, clab)


def test_wreath_identity_column_small():
    column = character_column(Z2C, (), 2)
    assert dense_column(Z2C, column) == [1, 1, 2, 1, 1]


def test_wreath_symbolic_formula_at_n3():
    # X(X-2)...((1^n;t) - (1^n;s) + ((-1)^n;t) - ((-1)^n;s)) for class ((1,1),(12))
    n = 3
    formula_input = {
        ((0, (n,)),): 1,
        ((0, (1,) * n),): -1,
        ((1, (n,)),): 1,
        ((1, (1,) * n),): -1,
    }
    out = apply_poly(Z2C, Z2C.ind_res(n), n - 2, n, formula_input)
    engine = character_column(Z2C, ((0, (2,)),), n)
    assert out == engine.coeffs


def test_wreath_printed_formulas_match_engine_columns():
    # the printed symbolic inputs, evaluated at concrete n, against the engine
    for n in (3, 4):
        t, s = ((0, (n,)),), ((0, (1,) * n),)
        mt, ms = ((1, (n,)),), ((1, (1,) * n),)
        mixed = ((0, (n - 1,)), (1, (1,)))
        cases = [
            # class core -> (k, printed input vector)
            (((0, (1,)),), 1, {t: 1, mt: 1}),  # identity: sum of the two lifts
            (((1, (1,)),), 1, {t: 1, mt: -1}),
            (((1, (1, 1)),), 2, {t: 2 * n - 3, mixed: -2, s: 1, mt: 1, ms: 1}),
            (((0, (2,)),), 2, {t: 1, s: -1, mt: 1, ms: -1}),
            (((1, (2,)),), 2, {t: 1, s: -1, mt: -1, ms: 1}),
        ]
        for core, k, printed in cases:
            out = apply_poly(Z2C, Z2C.ind_res(n), n - k, n, printed)
            engine = character_column(Z2C, core, n)
            assert out == engine.coeffs, (core, n)


def test_wreath_columns_are_ind_res_eigenvectors():
    # X delta = chi_{Ind(t)}(h) delta with the eigenvalue from the class-size ratio
    for n in (2, 3):
        x = Z2C.ind_res(n)
        for cls in Z2C.classes_at(n):
            column = character_column(Z2C, cls, n)
            value = Z2C.ind_t_character(cls, n)
            assert value.denominator == 1
            dense = dense_column(Z2C, column)
            assert x.matvec(dense) == [int(value) * v for v in dense], (n, cls)


def test_apply_ind_of_trivial():
    for n in (2, 4):
        ind = transpose(SYM.res_operator(n + 1).matrix).matvec(to_dense(SYM, n, {(n,): 1}))
        assert from_dense(SYM, n + 1, ind) == {(n + 1,): 1, (n, 1): 1}


def test_wreath_column_beyond_table_bound_uses_formula_norm():
    # level 5 is beyond any brute table we build here; the norm identity still holds
    column = character_column(Z2C, ((1, (1,)),), 5)
    size = Z2C.class_size_from(((1, (1,)),), 1, 5)
    assert column.norm_squared() * size == Z2C.group_order(5)


# -- printed symbolic column formulas (lift choices as printed) -------------------


def printed_formula_input(n, tau):
    """The printed input vectors for delta_tau, evaluated at concrete n."""
    t, v, p, w2 = (n,), (n - 1, 1), (n - 2, 2), (n - 2, 1, 1)
    s, sv, sp = (1,) * n, (2,) + (1,) * (n - 2), (2, 2) + (1,) * (n - 4)
    if tau == (2,):
        return {t: 1, s: -1}
    if tau == (3,):
        return {t: n - 2, s: 1, v: -1}
    if tau == (2, 2):
        # re-derived from the level-4 characters (1, -1, 2, -1, 1) and the
        # lift table; the printed coefficients (n^2-5n+5 and n-4) fail the
        # border-strip oracle at every n
        return {t: (n - 3) ** 2, v: -(2 * n - 7), p: 2, sv: -1, s: n - 3}
    if tau == (4,):
        return {t: n - 3, s: -(n - 3), v: -1, sv: 1}
    if tau == (3, 2):
        c = (n - 3) * (n - 4) // 2
        return {t: c, s: -c, v: -(n - 4), sv: n - 4, p: 1, sp: -1}
    if tau == (5,):
        c = (n - 3) * (n - 4) // 2
        return {t: c, v: -(n - 4), w2: 1, sv: -1, s: n - 4}
    raise KeyError(tau)


def test_printed_formula_table_reproduces_columns():
    for tau in [(2,), (3,), (2, 2), (4,), (3, 2), (5,)]:
        k = sum(tau)
        for n in (6, 7):
            out = apply_poly(SYM, SYM.ind_res(n), n - k, n, printed_formula_input(n, tau))
            assert out == oracle_column(tau, n).coeffs, (tau, n)


# -- misc ---------------------------------------------------------------------


def test_normalize_class_identity_goes_to_level_zero():
    assert SYM.fit_class((1, 1, 1), 5) == ((), 0)
    assert SYM.fit_class((), 0) == ((), 0)
    assert Z2C.fit_class((), 4) == ((), 0)
    assert Z2C.fit_class(((0, (1, 1)),), 2) == ((), 0)


def test_character_column_respects_bound():
    with pytest.raises(SizeBoundError):
        character_column(SYM, (6, 2), 8)  # needs the level-8 table, 40320 > 10000
    character_column(SYM, (6, 2), 8, max_order=50_000)


def test_supplied_table_is_used():
    table = SYM.small_table(3)
    column = character_column(SYM, (3,), 6, table=table)
    assert printed_vector(column) == PRINTED_DELTA_123


def test_class_too_large_rejected():
    with pytest.raises(ValueError):
        character_column(SYM, (7,), 6)


# -- batched columns --------------------------------------------------------------


@pytest.mark.parametrize("chain, top", [(SYM, 12), (Z2C, 6)], ids=["sym", "z2wreath"])
def test_batched_columns_equal_single_and_reference_columns(chain, top):
    # one call per level packs every class, of every core level, into slots.
    # Z2 wr S_6's own classes need its brute-force table (over 10 s to build),
    # so at level 6 the classes are level 5's with a fixed point added, and
    # the single columns are the reference
    max_order = factorial(top) * 2**top
    for n in range(1, top + 1):
        if n < 6 or chain is SYM:
            classes = chain.classes_at(n, max_order)
            reference = chain.reference_columns(n, max_order)
        else:
            classes, reference = [chain.embed_class(cls, n) for cls in chain.classes_at(n - 1)], {}
        assert n == 1 or len({chain.fit_class(cls, n)[1] for cls in classes}) > 1
        columns = character_columns(chain, classes, n, max_order)
        assert list(columns) == list(classes)
        for cls in classes:
            single = character_column(chain, cls, n, max_order)
            assert columns[cls] == single and single.coeffs == reference.get(cls, single.coeffs)


def test_batched_columns_divide_out_rational_lifts():
    # S3's 2-dimensional irrep puts 1/2^pad into its lifts, so the packed input
    # is scaled by their common denominator D > 1 and divided after decoding.
    # S3 wr S_n has no brute-force table here: the level-1 table is S3's own,
    # and the columns are checked by orthogonality with each other and with
    # the dimensions (the identity's column), besides the engine's own checks
    chain = WreathChain(S3)
    one = [((i, (1,)),) for i in range(3)]
    table = GroupTable("S3 wr S_1", 6, tuple((chain.format_class(c), size) for c, (_, size)
                                             in zip(one, S3.classes)),
                       tuple((chain.format_label(w), dim, values) for w, (_, dim, values)
                             in zip(one, S3.irreps)))
    trivial = GroupTable("S3 wr S_0", 1, ((chain.format_class(()), 1),),
                         ((chain.format_label(()), 1, (1,)),))
    std = chain.parse_label("std:[1]")
    for n in range(1, 5):
        assert n == 1 or any(type(v) is not int for v in lift(chain, std, n).values())
        classes = [chain.embed_class(c, n) for c in one[1:]]  # t and c, core level 1
        columns = character_columns(chain, classes, n, table=table)
        dims = character_column(chain, chain.identity_class(n), n, table=trivial).coeffs
        t, c = (columns[cls].coeffs for cls in classes)
        for left, right in ((t, c), (t, dims), (c, dims)):
            assert sum(v * right.get(label, 0) for label, v in left.items()) == 0, n
        for cls in classes:
            assert columns[cls] == character_column(chain, cls, n, table=table)


def test_batched_columns_reject_what_single_columns_reject():
    with pytest.raises(ValueError) as single:
        character_column(SYM, (7,), 6)
    with pytest.raises(ValueError) as batched:
        character_columns(SYM, [(3,), (7,)], 6)
    assert str(batched.value) == str(single.value)
    # a supplied table is one core level's; classes of levels 2 and 3 need two
    with pytest.raises(ValueError, match="one table serves one core level"):
        character_columns(SYM, [(2,), (3,)], 6, table=SYM.small_table(3))


def test_engine_modules_do_not_import_the_oracle():
    # the README promises that the engine and the border-strip oracle share no
    # code; verify imports from chain, so nothing on the engine side may import
    # verify back
    package = Path(verify.__file__).parent
    for name in ("engine", "chain", "lifting", "hgroup", "partitions", "sparse"):
        imported = set()
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.name for alias in node.names)
        assert not any(mod.split(".")[-1] == "verify" for mod in imported), name
    # the oracle itself lives in partitions; only the symmetric chain's
    # reference columns, which the engine never reads, call it there
    for name in ("engine", "lifting", "hgroup", "sparse"):
        source = (package / f"{name}.py").read_text()
        assert "mn_character" not in source and "border_strip_column" not in source, name
