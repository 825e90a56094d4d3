import ast
import hashlib
import itertools
import re
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import brute_wreath
from charcol import partitions, verify
from charcol.chain import SymmetricChain, WreathChain, get_chain
from charcol.engine import (
    CharacterColumn,
    character_column,
    character_columns,
    odd_column,
    reduced_operator,
)
from charcol.hgroup import GroupTable, SizeBoundError, builtin_table
from charcol.lifting import InvariantError, lift, lift_column_input
from charcol.partitions import (
    class_sign,
    class_size,
    conjugate,
    content_sum,
    dim_irrep,
    enumerate_partitions,
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
    return [column.coeffs.get(label, 0) for label in chain.basis(chain.label_level(column.class_label))]


def printed_vector(column):
    return tuple(column.coeffs.get(p, 0) for p in SYM.mirrored_order(sum(column.class_label)))


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
            assert sum(v * v for v in column.coeffs.values()) * class_size(mu) == factorial(n)


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
    # entries read off the sign-odd fold, re-signed to the plus basis, read off X
    for n in range(0, 17):
        red = reduced_operator(n)
        x = matrix_rows(SYM.ind_res(n))
        index = SYM.basis_index(n)
        expected = [
            [x[index[a]][index[b]] - x[index[a]][index[conjugate(b)]] for b in red.plus_basis]
            for a in red.plus_basis
        ]
        assert entry_rows(red.entries, len(red.plus_basis)) == expected, n


# chains with a sign fold, each with a fresh instance and the levels its test reaches
FOLDED = {"sym": (SymmetricChain, 15), "z2wreath": (lambda: WreathChain(builtin_table("Z2")), 9),
          "S3": (lambda: WreathChain(S3), 5)}


@pytest.mark.parametrize("sign, name", [pytest.param(sign, name, id=str(sign) if name == "sym" else f"{name}{sign:+d}")
                                        for name in FOLDED for sign in (1, -1)])
def test_sign_folds_match_their_definition_on_dense_x(sign, name):
    # on the kept labels, X's fold sends b to X(a, b) + sign X(a, b') over the
    # kept a, or to X(a, b) alone for a self-twin b: X applied to the
    # twin-symmetric extension of each unit vector, read off X. S3's 2-dimensional
    # irrep is its own twin, and its Res edges have multiplicity 2
    make, top = FOLDED[name]
    for n in range(0, top):
        chain = make()
        fold, x, index = chain.sign_fold(n, sign), matrix_rows(chain.ind_res(n)), chain.basis_index(n)
        for b, twin in zip(fold.kept, fold.twins):
            unit = [int(lam == b) for lam in fold.kept]
            column = [x[index[a]][index[b]] + (sign * x[index[a]][index[twin]] if twin != b else 0)
                      for a in fold.kept]
            assert fold.times_x(unit) == column, (n, b)


# SHA-256 of each sign's folds of the symmetric chain at n = 0..18, over kept,
# twins, sorted children, minus, up_edges and up_minus: the one fold builder
# every chain shares must leave them
SYM_FOLD_DIGESTS = {
    1: "4e506478f28851f30462ba64d7404ebb2ee68d0afe94d5495a7003311fd4f347",
    -1: "3a5a70c12c6f3de476fa64a1d4de5c78680100c4dfd604f9a2407cc55429cbf6",
}


@pytest.mark.parametrize("sign", [1, -1])
def test_sym_folds_match_their_pinned_digests(sign):
    text = ""
    for n in range(19):
        fold = SymmetricChain().sign_fold(n, sign)
        text += repr((fold.kept, fold.twins, tuple(tuple(sorted(d)) for d in fold.children), fold.minus,
                      fold.up_edges, fold.up_minus)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SYM_FOLD_DIGESTS[sign]


def test_wreath_class_sign_is_the_eta_row_of_the_brute_force_table():
    # eta(b, pi) = prod psi(b_i), for psi Z2's sign character, is the irrep -1:[k]
    # of Z2 wr S_k; class_sign reads it off each class's coloured cycles
    chain = WreathChain(builtin_table("Z2"))
    for k in range(1, 5):
        table = brute_wreath.wreath_char_table(brute_wreath.CONCRETE["Z2"], k)
        eta = next(values for label, _, values in table.irreps if label == f"-1:[{k}]")
        assert [chain.class_sign(chain.parse_class(cls)) for cls, _ in table.classes] == list(eta), k


def test_wreath_folds_pair_each_label_with_its_tensor_by_psi():
    # psi = Z2's sign character swaps the two H-irreps of every slot; a label whose
    # two slots hold one partition is its own twin, kept for sign +1 alone
    for n in range(0, 9):
        plus, minus = WreathChain(builtin_table("Z2")).sign_fold(n, 1), WreathChain(builtin_table("Z2")).sign_fold(n, -1)
        for fold in (plus, minus):
            assert fold.twins == tuple(tuple(sorted((1 - h, p) for h, p in lam)) for lam in fold.kept), n
        assert set(plus.kept) | set(plus.twins) == set(Z2C.basis(n)), n
        assert set(minus.kept) == {lam for lam, twin in zip(plus.kept, plus.twins) if lam != twin}, n
        assert not set(plus.kept) & {twin for lam, twin in zip(plus.kept, plus.twins) if lam != twin}, n


def test_wreath_columns_run_on_their_folds_and_equal_reference_columns():
    # each class runs on the fold of its sign, and its column equals the
    # reference's: every class's up to n = 5, above it each class whose core is
    # at level 5 or below
    for n in range(1, 9):
        chain = WreathChain(builtin_table("Z2"))
        classes = chain.classes_at(n) if n <= 5 else [
            chain.embed_class(c, n) for k in range(0, 6) for c in chain.classes_at(k) if chain.strip_class(c)[1] == k]
        assert {chain.class_sign(chain.strip_class(c)[0]) for c in classes} == {1, -1}
        for cls in classes:
            assert character_column(chain, cls, n).coeffs == chain.reference_column(cls, n, chain.group_order(n)), \
                (n, cls)
        assert sorted(chain._fold_cache) == [(n, -1), (n, 1)] and not chain._res_cache, n


def test_a_wreath_chain_without_a_linear_character_builds_no_fold():
    # the trivial group's one irrep is trivial, so there is no psi: every class has
    # sign 0 and its column runs on Res
    chain = WreathChain(builtin_table("trivial"))
    for n in range(1, 6):
        for cls in chain.classes_at(n):
            assert chain.class_sign(cls) == 0
            assert character_column(chain, cls, n).coeffs == chain.reference_column(cls, n), (n, cls)
    assert not chain._fold_cache and sorted(chain._res_cache) == [1, 2, 3, 4, 5]


def test_sign_folds_carry_the_conjugates_of_their_kept_diagrams():
    # one diagram of each pair is kept, the one whose first row is at least its
    # first column; self-conjugate diagrams are kept for sign +1 alone
    for n in range(0, 15):
        plus, minus = SymmetricChain().sign_fold(n, 1), SymmetricChain().sign_fold(n, -1)
        for fold in (plus, minus):
            assert fold.twins == tuple(map(conjugate, fold.kept)), n
            assert all(lam[0] >= len(lam) for lam in fold.kept if lam), n
            assert set(fold.kept) | set(fold.twins) >= set(reduced_operator(n).plus_basis), n
        assert set(plus.kept) | set(plus.twins) == set(enumerate_partitions(n)), n
        assert set(minus.kept) == {lam for lam in plus.kept if lam != conjugate(lam)}, n
        assert len(reduced_operator(n).plus_basis) == len(minus.kept), n


def test_reduced_operator_carries_the_conjugates_of_its_plus_basis():
    # the plus basis holds one diagram of each pair that is not self-conjugate,
    # and the sign-odd fold Y is read off pairs the same diagrams with their twins
    for n in range(2, 15):
        red, fold = reduced_operator(n), SymmetricChain().sign_fold(n, -1)
        conjugates = tuple(map(conjugate, red.plus_basis))
        assert not set(conjugates) & set(red.plus_basis), n
        assert set(red.plus_basis) | set(conjugates) == set(fold.kept) | set(fold.twins), n


def test_the_plus_basis_leaves_the_twin_pairing_at_level_fourteen():
    # the plus basis keeps the diagram of each conjugate pair whose content sum is
    # positive; the chain's twin pairing keeps the one whose first row is at least
    # its first column. Through n = 13 the two agree; at n = 14 (6,2,2,2,2) has the
    # longer first row and (5,5,1,1,1,1) the positive content sum, so a plus basis
    # read off the pairing would change the pinned reduced outputs from n = 14 on
    for n in range(14):
        assert set(SymmetricChain().twin_pairs(n, -1)[0]) == set(reduced_operator(n).plus_basis), n
    kept, plus = set(SymmetricChain().twin_pairs(14, -1)[0]), set(reduced_operator(14).plus_basis)
    assert kept - plus == {(6, 2, 2, 2, 2)} and plus - kept == {(5, 5, 1, 1, 1, 1)}
    assert content_sum((5, 5, 1, 1, 1, 1)) > 0 > content_sum((6, 2, 2, 2, 2))


@pytest.mark.parametrize("n", [0, 1])
def test_reduced_operator_has_an_empty_plus_basis_below_level_two(n):
    # every diagram of at most one box is self-conjugate, so Y acts on nothing
    red, fold = reduced_operator(n), SymmetricChain().sign_fold(n, -1)
    assert red.plus_basis == fold.kept == fold.twins == ()
    assert red.entries == {} and fold.times_x([]) == []
    assert fold.parents == fold.codomain == ()  # level n - 1 is the empty diagram, dropped, or nothing


def test_reduced_operator_does_not_call_the_oracle(monkeypatch):
    def no_oracle(*args):
        raise AssertionError("the engine called the border-strip oracle")

    reduced_operator.cache_clear()
    monkeypatch.setattr(partitions, "mn_character", no_oracle)
    assert reduced_operator(6).plus_basis == ((6,), (5, 1), (4, 2), (4, 1, 1), (3, 3))


def test_a_cold_odd_column_builds_no_reduced_operator():
    # the sign -1 fold already is Y's action, so an odd column needs nothing of Y
    reduced_operator.cache_clear()
    column = odd_column((2,), 9, SymmetricChain())
    assert column == character_column(SymmetricChain(), (2,), 9)
    assert reduced_operator.cache_info().misses == 0


def test_a_column_is_its_class_and_its_coefficients():
    assert CharacterColumn._fields == ("class_label", "coeffs")


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
        assert tuple(column.coeffs.get(lam, 0) for lam in red.plus_basis) == expect


def test_plus_part_of_transposition_is_y_product_on_t():
    red = reduced_operator(6)
    unit = [1, 0, 0, 0, 0]

    def times_y(vec):
        return [sum(red.entries.get((i, j), 0) * v for j, v in enumerate(vec)) for i in range(5)]

    assert SYM.poly(4).apply(times_y, unit) == [1, 3, 3, 2, 1]
    column = odd_column((2,), 6)
    assert tuple(column.coeffs.get(lam, 0) for lam in red.plus_basis) == (1, 3, 3, 2, 1)


def test_every_column_of_s1_to_s14_equals_the_oracle_on_its_fold():
    # each class of each sign and core level runs on its sign fold; an odd one
    # also through odd_column, and its entries on Y's plus basis are the oracle's
    for n in range(1, 15):
        chain, max_order = SymmetricChain(), factorial(n)
        plus_basis = reduced_operator(n).plus_basis
        for mu in enumerate_partitions(n):
            reference = chain.reference_column(mu, n, max_order)
            assert character_column(chain, mu, n, max_order).coeffs == reference, (n, mu)
            if class_sign(mu) == -1:
                column = odd_column(mu, n, chain, max_order)
                assert column.coeffs == reference, (n, mu)
                assert ({lam: column.coeffs.get(lam, 0) for lam in plus_basis}
                        == {lam: reference.get(lam, 0) for lam in plus_basis})
        assert n < 2 or sorted(chain._fold_cache) == [(n, -1), (n, 1)]


@pytest.mark.parametrize("cls, n", [((3,), 20), ((7,), 22), ((4, 3), 24), ((2, 2), 26),
                                    ((5, 2), 28)])
def test_sym_column_workload_classes_equal_the_oracle(cls, n):
    # classes of the benchmark's sym-column ops: parts of 2 and up, 2..7 moved points
    expected = oracle_column(cls, n).coeffs
    assert character_column(SymmetricChain(), cls, n).coeffs == expected
    if class_sign(cls + (1,) * (n - sum(cls))) == -1:
        assert odd_column(cls, n, SymmetricChain()).coeffs == expected


def test_odd_column_equals_full_column():
    for n in range(2, 8):
        for mu in enumerate_partitions(n):
            if class_sign(mu) == -1:
                assert odd_column(mu, n).coeffs == character_column(SYM, mu, n).coeffs


def test_odd_column_rejects_even_class():
    with pytest.raises(ValueError, match="even"):
        odd_column((3,), 6)


def test_odd_column_serves_every_chain_with_a_sign_character():
    # odd columns once refused every chain but sym; z2wreath's eta-odd columns are its plain
    # ones, and each changes sign between a label and its twin
    for n in range(3, 7):
        twins = dict(zip(*Z2C.twin_pairs(n, 1)))
        order = Z2C.group_order(n)
        for cls in Z2C.classes_at(n, order):
            if Z2C.class_sign(cls) == -1:
                coeffs = odd_column(cls, n, Z2C, order).coeffs
                assert coeffs == character_column(Z2C, cls, n, order).coeffs == Z2C.reference_column(cls, n, order)
                assert all(coeffs.get(twin, 0) == -coeffs.get(lam, 0) for lam, twin in twins.items())
    with pytest.raises(ValueError, match="^class '1:\\[2\\]' is even; odd_column needs an odd permutation$"):
        odd_column(((0, (2,)),), 3, chain=Z2C)
    with pytest.raises(ValueError, match="^chain 'wreath:trivial' has no sign character, so its irreps have no twins$"):
        odd_column(((0, (2,)),), 3, chain=get_chain("trivial"))


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
        table = brute_wreath.wreath_char_table(brute_wreath.CONCRETE["Z2"], n)
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
            value = Z2C.coset_character(cls, n, n - 1, n)
            assert value.denominator == 1
            dense = dense_column(Z2C, column)
            assert x.matvec(dense) == [int(value) * v for v in dense], (n, cls)


def test_apply_ind_of_trivial():
    for n in (2, 4):
        ind = transpose(SYM.res_operator(n + 1).matrix).matvec(to_dense(SYM, n, {(n,): 1}))
        assert from_dense(SYM, n + 1, ind) == {(n + 1,): 1, (n, 1): 1}


def test_wreath_column_beyond_table_bound_uses_formula_norm():
    # no table of level 5 is built here; the norm identity still holds
    column = character_column(Z2C, ((1, (1,)),), 5)
    size = Z2C.class_size_from(((1, (1,)),), 1, 5)
    assert sum(v * v for v in column.coeffs.values()) * size == Z2C.group_order(5)


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


# Values that are not a class's own text read back: each gave another class's
# column, a bare IndexError or a table lookup's "not present" before the engine
# read every class back from its text, as the command line does
NOT_CLASSES = [
    (SYM, (2, -1, 1), "must be positive"), (SYM, (0, 2), "must be positive"),
    (SYM, (True, 2), "cannot parse partition"), (SYM, (1, 2), "weakly decreasing"),
    (SYM, (2, 3), "weakly decreasing"),
    (Z2C, ((0, (2,)), (0, (1,))), "duplicate component"), (Z2C, ((1, ()), (0, (2,))), "empty partition"),
    (Z2C, ((5, (2,)),), "not a class of chain 'z2wreath'"), (Z2C, ((-1, (2,)),), "not a class of chain"),
    (Z2C, ((1, (2, -1)),), "must be positive"), (Z2C, ((1, (2,)), (0, (2,))), "not a class of chain"),
]


@pytest.mark.parametrize("chain, cls, match", [pytest.param(*case, id=f"{case[0].id}-{case[1]}".replace(" ", ""))
                                               for case in NOT_CLASSES])
def test_the_engine_refuses_a_value_that_is_not_a_class(chain, cls, match):
    with pytest.raises(ValueError, match=match):
        character_column(chain, cls, 6)
    with pytest.raises(ValueError, match=match):  # among valid classes too
        character_columns(chain, [chain.identity_class(6), cls], 6)


def test_odd_column_refuses_an_unsorted_cycle_type():
    with pytest.raises(ValueError, match="weakly decreasing"):
        odd_column((1, 2), 4)


@pytest.mark.parametrize("tau", [(3, -1), (3, 0)])
def test_odd_column_refuses_a_malformed_class_before_reading_its_sign(tau):
    # (3, -1) and (3, 0) look even by their parts and lengths, but are no classes
    with pytest.raises(ValueError, match=r"^partition parts must be positive: "):
        odd_column(tau, 6)


# -- batched columns --------------------------------------------------------------


@pytest.mark.parametrize("chain, top", [(SYM, 12), (Z2C, 6)], ids=["sym", "z2wreath"])
def test_batched_columns_equal_each_single_and_reference_column(chain, top):
    # one call per level takes every class, of every core level
    max_order = factorial(top) * 2**top
    for n in range(1, top + 1):
        classes = chain.classes_at(n, max_order)
        assert n == 1 or len({chain.fit_class(cls, n)[1] for cls in classes}) > 1
        columns = character_columns(chain, classes, n, max_order)
        assert list(columns) == list(classes)
        for cls in classes:
            single = character_column(chain, cls, n, max_order)
            assert columns[cls] == single and single.coeffs == chain.reference_column(cls, n, max_order)


S3_ONE = [((i, (1,)),) for i in range(3)]  # e, t and c of S3 wr S_1, and its irreps


def s3_wreath_level_one(chain):
    """The level-1 table of S3 wr S_n: S3's own, with the chain's labels."""
    return GroupTable("S3 wr S_1", 6, tuple((chain.format_class(c), size) for c, (_, size)
                                            in zip(S3_ONE, S3.classes)),
                      tuple((chain.format_label(w), dim, values) for w, (_, dim, values)
                            in zip(S3_ONE, S3.irreps)))


# SHA-256 over one line per column, "chain n class coefficients", of every class of
# sym at n <= 14, z2wreath at n <= 8, S3 wr S_n at n <= 5 (rational lifts), and Z2
# and trivial wr S_n at n <= 6, each computed singly on one chain and batched per
# level on another, then six sym classes at n = 24: recorded from the engine that
# lifted every irrep of each level-k table, which a signed class no longer does
COLUMN_CASES = {
    "sym": (SymmetricChain, 14),
    "z2wreath": (lambda: WreathChain(builtin_table("Z2"), chain_id="z2wreath"), 8),
    "S3": (lambda: WreathChain(S3), 5),
    "Z2": (lambda: WreathChain(builtin_table("Z2")), 6),
    "trivial": (lambda: WreathChain(builtin_table("trivial")), 6),
}
COLUMN_DIGEST = (2616, "896327bc48011ccbbb4dd4b3ddba4a8a654b01bf9e82ee4a6e5c7db8a8d7b86d")


def column_lines():
    for name, (make, top) in COLUMN_CASES.items():
        single, batched = make(), make()
        for n in range(top + 1):
            bound = single.group_order(n)
            classes = single.classes_at(n, bound)
            columns = character_columns(batched, classes, n, bound)
            for cls in classes:
                text = f"{name} {n} {single.format_class(cls) or 'e'}"
                yield f"{text} {sorted(character_column(single, cls, n, bound).coeffs.items())}"
                yield f"{text} batched {sorted(columns[cls].coeffs.items())}"
    chain = SymmetricChain()
    for cls in [(2,), (3,), (2, 2), (4, 3), (5, 2), (3, 3, 1)]:
        yield f"sym 24 {cls} {sorted(character_column(chain, cls, 24).coeffs.items())}"


def test_every_column_keeps_its_pinned_digest():
    lines = list(column_lines())
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert (len(lines), digest) == COLUMN_DIGEST


def test_batched_columns_divide_out_rational_lifts():
    # S3's 2-dimensional irrep puts 1/2^pad into its lifts, so each class's input
    # is scaled by its lifts' common denominator D > 1 and its result divided by D.
    # The level-1 table is S3's own, and the columns are checked by orthogonality with each other and with
    # the dimensions (the identity's column), besides the engine's own checks
    chain = WreathChain(S3)
    one, table = S3_ONE, s3_wreath_level_one(chain)
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


def spoiled(table, irrep, cls, value):
    """The table with one character value replaced, as an unvalidated GroupTable."""
    row, col = [lab for lab, _, _ in table.irreps].index(irrep), table.class_index(cls)
    irreps = [(lab, dim, values[:col] + (value,) + values[col + 1:]) if i == row
              else (lab, dim, values) for i, (lab, dim, values) in enumerate(table.irreps)]
    return GroupTable(table.name, table.order, table.classes, tuple(irreps))


# A column that breaks an invariant raises its one-line InvariantError and is
# never returned; each input below breaks one check that no correct input reaches.
def test_a_wrong_polynomial_leaves_a_non_integral_column():
    # with M = 3 instead of |S3| = 6, f_2 = X(X - 3) is no longer Ind^2 Res^2,
    # so it does not clear the 1/2^pad that the standard irrep's lifts carry
    chain = WreathChain(S3)
    chain.heisenberg_scaling = 3
    cls = chain.embed_class(S3_ONE[2], 3)
    message = "non-integral column of e:[1,1];c:[1] at level 3"
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        character_column(chain, cls, 3, table=s3_wreath_level_one(chain))


def test_a_wrong_character_value_breaks_the_column_norm():
    # chi_[2,1]([3]) = 1 instead of -1 keeps the input unchanged by conjugation,
    # so the halving check passes, and keeps the trivial entry at 1
    table = spoiled(SYM.small_table(3), "[2,1]", "[3]", 1)
    with pytest.raises(InvariantError, match=f"^{re.escape('column norm 11 != |G|/|class| = 3')}$"):
        character_column(SYM, (3,), 4, table=table)


@pytest.mark.parametrize("cls, irrep, k, value", [((3,), "[1,1,1]", 3, 0), ((2,), "[1,1]", 2, 0)],
                         ids=["even", "odd"])
def test_a_wrong_character_value_leaves_an_odd_folded_entry(cls, irrep, k, value):
    # the pass on a sign fold yields twice the column, so an input that is not
    # (anti)symmetric under conjugation leaves an odd entry, at [4] for both
    table = spoiled(SYM.small_table(k), irrep, f"[{k}]", value)
    with pytest.raises(InvariantError, match=f"^{re.escape('odd or non-integral entry at [4]')}$"):
        character_column(SYM, cls, 4, table=table)


def test_a_wrong_character_value_leaves_an_odd_reduced_entry():
    # the same value leaves the input's [4] entry minus its [1,1,1,1] entry odd,
    # where every entry of twice a column's plus part is even
    table = spoiled(SYM.small_table(2), "[1,1]", "[2]", 0)
    with pytest.raises(InvariantError, match=f"^{re.escape('odd or non-integral entry at [4]')}$"):
        odd_column((2,), 4, chain=SYM, table=table)


@pytest.mark.parametrize("chain, top", [(SYM, 6), (Z2C, 4)], ids=["sym", "z2wreath"])
def test_columns_are_eigenvectors_of_every_ind_res_power(chain, top):
    # Ind^l Res^l multiplies h's class function by the permutation character of
    # G_n on the cosets of G_{n-l}, so h's column is an eigenvector of it with
    # eigenvalue coset_character(h, n, n - l, n), at every l
    res = chain.res_operator
    for n in range(1, top + 1):
        for cls in chain.classes_at(n):
            dense = down = dense_column(chain, character_column(chain, cls, n))
            for l in range(1, n + 1):
                down = res(n - l + 1).down(down)
                brute = down
                for j in range(n - l + 1, n + 1):
                    brute = res(j).up(brute)
                value = chain.coset_character(cls, n, n - l, n)
                assert brute == [value * v for v in dense], (n, cls, l)


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
