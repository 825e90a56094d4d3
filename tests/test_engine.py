import itertools
from math import factorial

import pytest

from charcol import verify
from charcol.chain import get_chain
from charcol.engine import (
    FallingFactorialPoly,
    apply_falling_factorial,
    character_column,
    normalize_class,
    odd_column,
    reduced_operator,
)
from charcol.hgroup import SizeBoundError, builtin_table, wreath_char_table
from charcol.partitions import (
    class_size,
    conjugate,
    dim_irrep,
    enumerate_partitions,
    is_odd_class,
    mirrored_order,
)
from charcol.verify import mn_character, oracle_column

from printed_data import PRINTED_DELTA_123, PRINTED_PLUS_COLUMNS, PRINTED_Y6

SYM = get_chain("sym")
Z2C = get_chain("z2wreath")


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
    dense = column.dense(SYM)
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
        cols = {mu: character_column(SYM, mu, n).dense(SYM) for mu in enumerate_partitions(n)}
        for a, b in itertools.combinations(cols, 2):
            assert sum(x * y for x, y in zip(cols[a], cols[b])) == 0


def test_columns_are_ind_res_eigenvectors():
    # X delta = (fixed points) delta, for every class of S_n, n <= 7
    for n in range(1, 8):
        x = SYM.ind_res(n)
        for mu in enumerate_partitions(n):
            dense = character_column(SYM, mu, n).dense(SYM)
            fixed = sum(1 for part in mu if part == 1)
            assert x.matvec(dense) == [fixed * v for v in dense]


def test_falling_factorial_zero_is_identity():
    vec = SYM.vector(5, {(4, 1): 3, (5,): -2})
    out = apply_falling_factorial(SYM.ind_res(5), 0, 1, vec, SYM)
    assert out.coeffs == vec.coeffs


def test_falling_factorial_level_mismatch():
    vec = SYM.vector(4, {(4,): 1})
    with pytest.raises(ValueError):
        apply_falling_factorial(SYM.ind_res(5), 1, 1, vec, SYM)


def test_falling_factorial_matches_brute_on_basis_vectors():
    for n in (3, 5, 7):
        x = SYM.ind_res(n)
        for l in (1, 2, n):
            brute = SYM.brute_indl_resl(n, l)
            for i, lam in enumerate(SYM.basis(n)):
                unit = [0] * len(SYM.basis(n))
                unit[i] = 1
                assert FallingFactorialPoly(l, 1).apply(x, unit) == brute.matvec(unit)


def test_poly_roots_and_values():
    poly = FallingFactorialPoly(3, 2)
    assert poly.roots() == (0, 2, 4)
    assert poly.value(6) == 6 * 4 * 2


# -- reduced operator and odd columns ------------------------------------------


def test_reduced_operator_n6_matches_printed_matrix():
    red = reduced_operator(6)
    assert red.plus_basis == ((6,), (5, 1), (4, 2), (4, 1, 1), (3, 3))
    assert red.matrix.to_dense() == PRINTED_Y6


def test_reduced_operator_n2():
    red = reduced_operator(2)
    assert red.plus_basis == ((2,),)
    assert red.matrix.to_dense() == [[0]]


def test_reduced_operator_n4_plus_basis():
    # characters at a transposition: 1, 1, 0, -1, -1
    assert reduced_operator(4).plus_basis == ((4,), (3, 1))


def test_reduced_operator_rejects_n1():
    with pytest.raises(ValueError):
        reduced_operator(1)


def test_reduced_operator_does_not_call_the_oracle(monkeypatch):
    def no_oracle(*args):
        raise AssertionError("the engine called the border-strip oracle")

    reduced_operator.cache_clear()
    monkeypatch.setattr(verify, "mn_character", no_oracle)
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
    assert FallingFactorialPoly(4, 1).apply(red.matrix, unit) == [1, 3, 3, 2, 1]


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
    assert column.dense(Z2C) == [1, 1, 2, 1, 1]


def test_wreath_symbolic_formula_at_n3():
    # X(X-2)...((1^n;t) - (1^n;s) + ((-1)^n;t) - ((-1)^n;s)) for class ((1,1),(12))
    n = 3
    formula_input = Z2C.vector(
        n,
        {
            ((0, (n,)),): 1,
            ((0, (1,) * n),): -1,
            ((1, (n,)),): 1,
            ((1, (1,) * n),): -1,
        },
    )
    out = apply_falling_factorial(Z2C.ind_res(n), n - 2, 2, formula_input, Z2C)
    engine = character_column(Z2C, ((0, (2,)),), n)
    assert out.coeffs == engine.coeffs


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
            out = apply_falling_factorial(
                Z2C.ind_res(n), n - k, 2, Z2C.vector(n, printed), Z2C
            )
            engine = character_column(Z2C, core, n)
            assert out.coeffs == engine.coeffs, (core, n)


def test_wreath_columns_are_ind_res_eigenvectors():
    # X delta = chi_{Ind(t)}(h) delta with the eigenvalue from the class-size ratio
    for n in (2, 3):
        x = Z2C.ind_res(n)
        for cls in Z2C.classes_at(n):
            column = character_column(Z2C, cls, n)
            value = Z2C.ind_t_character(cls, n)
            assert value.denominator == 1
            dense = column.dense(Z2C)
            assert x.matvec(dense) == [int(value) * v for v in dense], (n, cls)


def test_apply_ind_of_trivial():
    for n in (2, 4):
        out = SYM.apply_ind(SYM.unit_vector(n, (n,)))
        assert out.coeffs == {(n + 1,): 1, (n, 1): 1}


def test_wreath_column_beyond_table_bound_uses_formula_norm():
    # level 5 is beyond any brute table we build here; the norm identity still holds
    column = character_column(Z2C, ((1, (1,)),), 5)
    size = Z2C.class_size_at(((1, (1,)),), 5)
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
            vec = SYM.vector(n, printed_formula_input(n, tau))
            out = apply_falling_factorial(SYM.ind_res(n), n - k, 1, vec, SYM)
            assert out.coeffs == oracle_column(tau, n).coeffs, (tau, n)


# -- misc ---------------------------------------------------------------------


def test_normalize_class_identity_goes_to_level_one():
    assert normalize_class(SYM, (1, 1, 1), 5) == ((1,), 1)
    assert normalize_class(Z2C, (), 4) == (((0, (1,)),), 1)


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
