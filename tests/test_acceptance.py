"""Acceptance criteria, one test per criterion, each timed against its budget.

Every comparison is exact (integers and rationals, tolerance zero). Each test
prints a single ACCEPTANCE line; run with -s to see them live.
"""

from fractions import Fraction
from math import comb, factorial
from time import perf_counter

from dense import entry_rows, transpose
from printed_data import (
    PRINTED_DELTA_123,
    PRINTED_PLUS_COLUMNS,
    PRINTED_X6,
    PRINTED_Y6,
    PRINTED_Z2S2,
    PRINTED_Z2S2_CLASS_SIZES,
)
from poly_matrix import brute_indl_resl, poly_matrix, shift_diagonal

from charcol.chain import get_chain
from charcol.engine import character_column, odd_column, reduced_operator
from charcol.hgroup import builtin_table, wreath_char_table
from charcol.lifting import lift
from charcol.partitions import (
    class_size,
    conjugate,
    enumerate_partitions,
    mirrored_order,
    strip_fixed_points,
)
from charcol.sparse import SparseMatrix
from charcol.verify import (
    fit_chain_params,
    jeongha_class_constraint,
    oracle_column,
    roots_vs_characters,
)

SYM = get_chain("sym")
Z2C = get_chain("z2wreath")


def timed(num, name, budget_seconds, body):
    start = perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = perf_counter() - start
    print(f"ACCEPTANCE {num} ({name}): PASS in {elapsed:.3f}s (budget {budget_seconds}s)")
    assert elapsed < budget_seconds, f"criterion {num} exceeded its {budget_seconds}s budget"


def test_criterion_01_s6_operator():
    def body():
        x = SYM.ind_res(6)
        index = SYM.basis_index(6)
        order = [index[p] for p in mirrored_order(6)]
        dense = [[x.data.get((order[i], order[j]), 0) for j in range(11)] for i in range(11)]
        assert dense == PRINTED_X6

    timed(1, "S6 operator", 1.0, body)


def test_criterion_02_s6_column():
    def body():
        column = character_column(SYM, (3,), 6)
        vec = tuple(column.coeffs.get(p, 0) for p in mirrored_order(6))
        assert vec == PRINTED_DELTA_123

    timed(2, "S6 column delta_(123)", 1.0, body)


def test_criterion_03_reduced_operator_and_odd_columns():
    def body():
        red = reduced_operator(6)
        assert entry_rows(red.entries, 5) == PRINTED_Y6
        assert red.plus_basis == ((6,), (5, 1), (4, 2), (4, 1, 1), (3, 3))
        for tau, expect in PRINTED_PLUS_COLUMNS.items():
            column = odd_column(tau, 6)
            assert tuple(column.plus_part[lam] for lam in red.plus_basis) == expect
            assert column.coeffs == character_column(SYM, tau, 6).coeffs

    timed(3, "reduced operator and odd columns", 1.0, body)


def test_criterion_04_wreath_table():
    def body():
        table = wreath_char_table(builtin_table("Z2"), 2)
        assert len(table.irreps) == len(table.classes) == 5
        for clab, size in table.classes:
            assert size == PRINTED_Z2S2_CLASS_SIZES[clab]
        for lab, _, values in table.irreps:
            for (clab, _), value in zip(table.classes, values):
                assert value == PRINTED_Z2S2[lab][clab], (lab, clab)

    timed(4, "Z2 wr S2 character table", 1.0, body)


def test_criterion_05_falling_factorial_oracle_equivalence():
    def body():
        for n in range(1, 9):
            x = SYM.ind_res(n)
            for l, brute in enumerate(brute_indl_resl(SYM, n), 1):
                assert brute == poly_matrix(SYM.poly(l), x), (n, l)
            assert l == n
        for n in range(1, 5):
            x = Z2C.ind_res(n)
            for l, brute in enumerate(brute_indl_resl(Z2C, n), 1):
                assert brute == poly_matrix(Z2C.poly(l), x), (n, l)
            assert l == n

    timed(5, "Ind^l Res^l = f_l(Ind Res)", 30.0, body)


def test_criterion_06_heisenberg_identity():
    def body():
        for chain, top in ((SYM, 8), (Z2C, 4)):
            m = chain.heisenberg_scaling
            for n in range(0, top + 1):
                up = chain.res_operator(n + 1).matrix
                size = len(chain.basis(n))
                ind_res = chain.ind_res(n) if n >= 1 else SparseMatrix(size, size)
                assert up @ transpose(up) == shift_diagonal(ind_res, m), (chain.id, n)

    timed(6, "Res Ind - Ind Res = |H| Id", 10.0, body)


def test_criterion_07_oracle_agreement():
    def body():
        for n in range(1, 9):
            for mu in enumerate_partitions(n):
                column = character_column(SYM, mu, n, max_order=50_000)
                assert column.coeffs == oracle_column(mu, n).coeffs, (n, mu)
                assert column.norm_squared() * class_size(mu) == factorial(n)

    timed(7, "engine equals Murnaghan-Nakayama, n<=8", 60.0, body)


def test_criterion_08_lifting_exactness():
    def body():
        # Res^(n-k) (lift w) = w for all irreps of S_k, k <= 5, n <= 9
        for k in range(0, 6):
            for w in enumerate_partitions(k):
                for n in range(k, 10):
                    vec = lift(SYM, w, n)
                    for _ in range(n - k):
                        vec = SYM.apply_res(vec)
                    assert vec == {w: 1}, (w, n)
        # the printed S_5 lift table at n in {7, 8, 9}
        for n in (7, 8, 9):
            m = n - 5
            t, v, p, w2 = (n,), (n - 1, 1), (n - 2, 2), (n - 2, 1, 1)
            rows = {
                (5,): {t: 1},
                (4, 1): {v: 1, t: -m},
                (3, 2): {p: 1, v: -m, t: m * (m + 1) // 2},
                (3, 1, 1): {w2: 1, v: -m, t: m * (m + 1) // 2},
            }
            for w, expect in rows.items():
                assert lift(SYM, w, n) == expect, (w, n)
                # lift of the sign-twisted row, by the printed construction
                twisted = {conjugate(lab): c for lab, c in expect.items()}
                vec = twisted
                for _ in range(n - 5):
                    vec = SYM.apply_res(vec)
                assert vec == {conjugate(w): 1}
        # the printed wreath lift example at n in {3, 4}
        for n in (3, 4):
            vec = lift(Z2C, ((0, (1,)), (1, (1,))), n)
            assert vec == {
                ((0, (n - 1,)), (1, (1,))): 1,
                ((0, (n,)),): -(n - 2),
            }

    timed(8, "lifting exactness", 10.0, body)


def test_criterion_09_class_constraint():
    def body():
        for n in range(1, 8):
            for l in range(1, n + 1):
                for h in enumerate_partitions(n - l):
                    assert jeongha_class_constraint(SYM, h, n, l).passed, (h, n, l)
        for k in range(2, 6):
            for tau in enumerate_partitions(k):
                if strip_fixed_points(tau) != tau:
                    continue
                for n in range(k, 9):
                    assert class_size(tau + (1,) * (n - k)) == comb(n, k) * class_size(tau)

    timed(9, "conjugacy-class constraint", 30.0, body)


def test_criterion_10_fit_and_roots():
    def body():
        sym_fit = fit_chain_params([factorial(n) for n in range(8)])
        assert (sym_fit.status, sym_fit.B, sym_fit.C) == ("ok", 1, 1)
        z2_fit = fit_chain_params([Z2C.group_order(n) for n in range(8)])
        assert (z2_fit.status, z2_fit.B, z2_fit.C) == ("ok", 1, 2)
        for chain, fit in ((SYM, sym_fit), (Z2C, z2_fit)):
            for l in range(1, 7):
                engine_roots = chain.poly(l).roots
                assert fit.poly(l).roots == engine_roots, (chain.id, l)
                assert fit.poly(l).leading == Fraction(1)
        for l in range(1, 6):
            assert roots_vs_characters(SYM, l)["passed"], l

    timed(10, "two-parameter fit and root correspondence", 10.0, body)
