import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from charcol import verify
from charcol.chain import (BranchingOperator, FallingFactorialPoly, SymmetricChain, WreathChain,
                           get_chain)
from charcol.hgroup import builtin_table
from charcol.partitions import (
    class_sign,
    class_size,
    dim_irrep,
    enumerate_partitions,
    mn_character,
    strip_fixed_points,
)
from charcol.sparse import PackedIdentity, SparseMatrix
from charcol.verify import (
    SUITES,
    IngestedChain,
    IngestError,
    export_chain,
    fit_chain_params,
    fit_from_ratios,
    ingest_chain,
    jeongha_class_constraint,
    oracle_column,
    roots_vs_characters,
    run_suite,
)
from dense import transpose
from poly_matrix import brute_indl_resl, identity, poly_matrix, scaled, shift_diagonal
from test_chain import S3

SYM = get_chain("sym")
Z2C = get_chain("z2wreath")


def dense_column(chain, column):
    """The column's entries in ``chain.basis`` order, zeros included."""
    return [column.coeffs.get(label, 0) for label in chain.basis(column.level)]


# -- Murnaghan-Nakayama oracle ---------------------------------------------------


def test_mn_trivial_row():
    for n in range(1, 8):
        for mu in enumerate_partitions(n):
            assert mn_character((n,), mu) == 1


def test_mn_sign_row():
    for n in range(1, 8):
        for mu in enumerate_partitions(n):
            assert mn_character((1,) * n, mu) == class_sign(mu)


def test_mn_printed_entry():
    assert mn_character((3, 2, 1), (3, 1, 1, 1)) == -2


def test_mn_identity_gives_dimensions():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            assert mn_character(lam, (1,) * n) == dim_irrep(lam)


def test_mn_size_mismatch():
    with pytest.raises(ValueError):
        mn_character((3,), (2, 2))


def test_mn_self_consistency():
    # column orthogonality and sum of squared dimensions, n <= 8
    for n in range(1, 9):
        lams = enumerate_partitions(n)
        assert sum(mn_character(l, (1,) * n) ** 2 for l in lams) == factorial(n)
    for n in (5, 7, 8):
        lams = enumerate_partitions(n)
        mus = enumerate_partitions(n)
        for i, a in enumerate(mus):
            for b in mus[i:]:
                inner = sum(mn_character(l, a) * mn_character(l, b) for l in lams)
                expect = factorial(n) // class_size(a) if a == b else 0
                assert inner == expect


def test_oracle_column_examples():
    col = oracle_column((1, 1, 1), 3)
    assert dense_column(SYM, col) == [1, 2, 1]
    col6 = oracle_column((6,), 6)
    assert col6.norm_squared() == 720 // class_size((6,)) == 6


def test_oracle_column_pads():
    assert oracle_column((2,), 6).coeffs == oracle_column((2, 1, 1, 1, 1), 6).coeffs


# -- conjugacy-class constraint ---------------------------------------------------


def test_identity_constraint_is_ratio_product():
    # f_l(a_n) = a_n a_{n-1} ... a_{n-l+1}
    for n in range(2, 8):
        for l in range(1, n + 1):
            chk = jeongha_class_constraint(SYM, (1,) * (n - l) if n > l else (), n, l)
            assert chk.passed
            assert chk.lhs == factorial(n) // factorial(n - l)


def test_class_constraint_all_sym_classes():
    for n in range(1, 8):
        for l in range(1, n + 1):
            for h in enumerate_partitions(n - l):
                assert jeongha_class_constraint(SYM, h, n, l).passed, (h, n, l)


def test_class_constraint_recovers_binomial_growth():
    # #[tau]_n = C(n, k) #[tau]_k for fixed-point-free tau in S_k
    for k in range(2, 6):
        for tau in enumerate_partitions(k):
            if strip_fixed_points(tau) != tau:
                continue
            for n in range(k, 9):
                assert class_size(tau + (1,) * (n - k)) == comb(n, k) * class_size(tau)


def test_class_constraint_z2_identity_example():
    chk = jeongha_class_constraint(Z2C, ((0, (1,)),), 3, 2)
    assert chk.passed and chk.lhs == 24 and chk.rhs == 24


def test_class_constraint_all_z2_classes():
    for n in range(1, 4):
        for l in range(1, n + 1):
            for h in Z2C.classes_at(n - l):
                assert jeongha_class_constraint(Z2C, h, n, l).passed, (h, n, l)


# -- fitting the two-parameter family ---------------------------------------------


def test_fit_sym_orders():
    params = fit_chain_params([factorial(n) for n in range(7)])
    assert (params.status, params.B, params.C) == ("ok", 1, 1)
    assert params.poly(4).roots == (0, 1, 2, 3)
    assert params.poly(4).leading == 1


def test_fit_z2_orders():
    params = fit_chain_params([Z2C.group_order(n) for n in range(6)])
    assert (params.status, params.B, params.C) == ("ok", 1, 2)
    assert params.poly(3).roots == (0, 2, 4)


def test_fit_hypothetical_ratios():
    params = fit_from_ratios((2, 3, 5, 9))
    assert (params.status, params.B, params.C) == ("ok", 2, -1)
    assert "no known chain" in params.message
    assert params.poly(3).roots == (0, -1, -3)
    assert params.poly(3).leading == Fraction(1, 8)
    assert params.poly(2).value(9) == Fraction(9 * 10, 2)  # (1/B) x (x - C) at x = 9


def test_fitted_poly_with_leading_coefficient_evaluates_consistently():
    # B = 2, so f_l has leading coefficient 2^(-l(l-1)/2): apply, matrix and
    # value must agree on it
    params = fit_from_ratios((2, 3, 5, 9))
    x = SYM.ind_res(5)
    dim = len(SYM.basis(5))
    vec = list(range(1, dim + 1))
    scalar = scaled(identity(3), 7)
    for l in range(5):
        poly = params.poly(l)
        assert poly.apply(x.matvec, vec) == poly_matrix(poly, x).matvec(vec), l
        assert poly_matrix(poly, scalar) == scaled(identity(3), poly.value(7)), l


def test_poly_value_in_integers_equals_the_product_in_fractions():
    # value reduces leading * prod (p - r q) / q^l once; the reference
    # multiplies the factors x - r as Fractions. The suites' characters are
    # integers, so the denominators are exercised here
    params = fit_from_ratios((2, 3, 5, 9))
    for x in (Fraction(7, 3), Fraction(-5, 4), Fraction(9), 0):
        for poly in [params.poly(l) for l in range(5)] + [SYM.poly(3), Z2C.poly(4)]:
            expected = poly.leading
            for root in poly.roots:
                expected *= x - root
            assert poly.value(x) == expected and type(poly.value(x)) is Fraction, (x, poly)


def test_fit_constant_is_inconclusive():
    params = fit_from_ratios((3, 3, 3, 3))
    assert params.status == "inconclusive"
    assert params.poly(5).value(7) == 7  # f_l = X


def test_fit_non_integer_b_is_violation():
    params = fit_from_ratios((1, 3, 6, 10))
    assert params.status == "violation"
    assert "not an integer" in params.message


def test_fit_with_b_zero_is_violation():
    # ratios 2, 3, 3, 3 satisfy a_n = 0 a_{n-1} + 3, but f_l's leading
    # coefficient B^(-l(l-1)/2) is undefined for B = 0
    params = fit_from_ratios((2, 3, 3, 3))
    assert (params.status, params.B, params.C) == ("violation", 0, 3)
    assert "B = 0" in params.message
    with pytest.raises(ValueError):
        params.poly(2)


def test_fit_inconsistent_recursion_is_violation():
    params = fit_from_ratios((2, 3, 5, 8))
    assert params.status == "violation"


def test_fit_rejects_non_dividing_orders():
    params = fit_chain_params((1, 2, 5, 11))
    assert params.status == "violation"
    assert "divisible" in params.message


def test_fit_needs_four_orders():
    # too few orders, or ratios that change only at the last step, fix no
    # (B, C): the fit is underdetermined, a failed fit rather than an error
    for params, message in (
        (fit_chain_params((1, 2, 6)), "need at least four consecutive group orders"),
        (fit_from_ratios((1, 2)), "need at least three consecutive ratios (four group orders)"),
        (fit_from_ratios((1, 1, 2)), "ratios change only at the last step; supply more orders"),
    ):
        assert (params.status, params.B, params.C, params.message) == (
            "underdetermined", None, None, message)
        with pytest.raises(ValueError, match="order fit with status underdetermined"):
            params.poly(2)


@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 20))
@settings(max_examples=40)
def test_fit_recovers_planted_recursion(b, c, a1):
    ratios = [a1]
    for _ in range(5):
        ratios.append(b * ratios[-1] + c)
    params = fit_from_ratios(tuple(ratios))
    assert params.status == "ok" and (params.B, params.C) == (b, c)


# -- roots vs character values -----------------------------------------------------


def test_roots_vs_characters_sym():
    for l in range(1, 6):
        report = roots_vs_characters(SYM, l)
        assert report["passed"], report
        assert report["preferred_level"] == l + 1
        assert report["roots"] == list(range(l))


def test_roots_vs_characters_z2():
    report = roots_vs_characters(Z2C, 2)
    assert report["passed"]
    assert report["preferred_level"] == 2
    assert report["levels"][2]["values"] == [0, 2]
    # at level 3 the value 4 appears as well, so the naive level does not match
    assert not report["levels"][3]["matches_roots"]


# -- ingestion ---------------------------------------------------------------------


def test_export_reingest_round_trip():
    payload = export_chain(SYM, 5)
    chain = ingest_chain(payload)
    report = run_suite(chain, "all", 5)
    assert report.passed, [c for c in report.checks if not c.passed]


def test_export_reingest_z2():
    payload = export_chain(Z2C, 3)
    chain = ingest_chain(payload)
    report = run_suite(chain, "all", 3)
    assert report.passed, [c for c in report.checks if not c.passed]


# SHA-256 of json.dumps(export_chain(chain, maxN)), the bytes the benchmark's
# export ops write; the same values are export/sym/8 and export/z2wreath/5 in
# bench/expected.json.
EXPORT_DIGESTS = {
    ("sym", 8): "888902ad72d693d1b24cffd2f2fa71e0766ebf9c5d3ae4bf3dc7d819ab72c03f",
    ("z2wreath", 5): "55466cddb7815ba3bd6baced70aa2538b1dcde9c744235d444b17932aed5a99e",
}


@pytest.mark.parametrize("name, max_n", list(EXPORT_DIGESTS))
def test_export_bytes_are_unchanged(name, max_n):
    chain = SymmetricChain() if name == "sym" else WreathChain(builtin_table("Z2"), name)
    text = json.dumps(export_chain(chain, max_n))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_DIGESTS[(name, max_n)]


def test_export_omits_classes_above_the_order_bound():
    # Z2 wr S_6 has order 46080, above the default bound of 10000
    levels = export_chain(Z2C, 6)["levels"]
    assert [("classes" in lv) for lv in levels] == [True] * 6 + [False]
    assert "res" in levels[6]


def test_z2_oracle_suite_stops_at_the_order_bound():
    report = run_suite(Z2C, "oracle", 6)
    below = run_suite(Z2C, "oracle", 5)
    assert report.checks == below.checks
    # Z2 wr S_6 has order 46080: level 6 is reported as skipped, with the bound's message
    assert report.skipped == [{
        "level": 6,
        "reason": "Z2 wr S_6 has order 46080, above the bound 10000; raise it via "
        "--max-order / CHARCOL_MAX_ORDER or supply the table as GroupTable JSON",
    }]
    assert report.passed and report.to_json_dict()["skipped"] == report.skipped
    assert "skipped" not in below.to_json_dict()


def test_sym_oracle_suite_skips_the_first_level_above_the_order_bound():
    # S_8 has order 40320, above the default bound 10000; levels 1..7 still run
    report = run_suite(SYM, "oracle", 10)
    assert report.passed
    assert len(report.checks) == sum(len(enumerate_partitions(n)) for n in range(1, 8)) == 44
    assert all(c.passed for c in report.checks)
    assert [entry["level"] for entry in report.skipped] == [8]
    assert report.skipped[0]["reason"].startswith("S_8 has order 40320, above the bound 10000")
    assert report.checks == run_suite(SYM, "oracle", 7).checks


# -- class sizes up and down the chain ----------------------------------------------

CLASS_SIZE_CHAINS = {
    "sym": (lambda: SYM, 6),
    "z2wreath": (lambda: Z2C, 4),
    "trivial": (lambda: WreathChain(builtin_table("trivial")), 5),
}


@pytest.mark.parametrize("chain_name", list(CLASS_SIZE_CHAINS))
def test_class_sizes_agree_with_the_ingested_export_both_ways(chain_name):
    # the built-in side uses class-size formulas, the ingested side walks embedsTo
    make, top = CLASS_SIZE_CHAINS[chain_name]
    chain = make()
    ingested = ingest_chain(export_chain(chain, top))
    compared = 0
    for m in range(top + 1):
        for h in chain.classes_at(m):
            label = chain.format_class(h)
            for j in range(max(m - 1, 0), top + 1):
                assert chain.class_size_from(h, m, j) == ingested.class_size_from(label, m, j), (
                    label, m, j)
                compared += 1
            if m >= 1:
                assert chain.ind_t_character(h, m) == ingested.ind_t_character(label, m), (
                    label, m)
    assert compared > top


def test_class_size_below_the_level_sums_the_classes_inside():
    # [2,1,1] in S_4 meets S_3 in the transpositions (3) and S_2 in one (1);
    # [2,2] and [4] miss S_3
    ingested = ingest_chain(export_chain(SYM, 4))
    cases = (("[2,1,1]", (0, 1, 3, 6)), ("[2,2]", (0, 0, 0, 3)), ("[4]", (0, 0, 0, 6)))
    for label, sizes in cases:
        h = SYM.parse_class(label)
        assert [SYM.class_size_from(h, 4, j) for j in range(1, 5)] == list(sizes)
        assert [ingested.class_size_from(label, 4, j) for j in range(1, 5)] == list(sizes)


def test_ind_t_character_needs_class_data_one_level_down():
    payload = export_chain(SYM, 4)
    del payload["levels"][2]["classes"]
    chain = ingest_chain(payload)
    with pytest.raises(IngestError, match="level 2 has no class data"):
        chain.ind_t_character("[2,1]", 3)
    assert chain.ind_t_character("[2,1,1]", 4) == 2  # levels 3 and 4 have theirs
    with pytest.raises(IngestError, match="no class '\\[9\\]' at level 4"):
        chain.ind_t_character("[9]", 4)


def constant_chain_payload(levels=5):
    return {
        "name": "const",
        "levels": [
            {
                "n": n,
                "order": 6,
                "basisSize": 3,
                **({"res": [[i, i, 1] for i in range(3)]} if n else {}),
                "classes": [
                    {"label": "e", "size": 1, "embedsTo": "e" if n < levels - 1 else None},
                    {"label": "a", "size": 2, "embedsTo": "a" if n < levels - 1 else None},
                    {"label": "b", "size": 3, "embedsTo": "b" if n < levels - 1 else None},
                ],
            }
            for n in range(levels)
        ],
    }


def test_constant_chain_passes_with_f_equals_x():
    chain = ingest_chain(constant_chain_payload())
    assert chain.fitted_params().status == "inconclusive"
    report = run_suite(chain, "all", 4)
    assert report.passed, [c for c in report.checks if not c.passed]


def test_zero_row_res_rejected():
    bad = {
        "levels": [
            {"n": 0, "order": 1, "basisSize": 2},
            {"n": 1, "order": 2, "basisSize": 2, "res": [[0, 0, 1], [0, 1, 1]]},
        ]
    }
    with pytest.raises(IngestError, match="not a surjective chain.*level 1"):
        ingest_chain(bad)


def test_alternating_groups_are_not_a_surjective_chain():
    # A_4 <= A_5: irreps 1, w, w', 3 of A_4 (rows) and 1, 3, 3', 4, 5 of A_5
    # (columns); the two conjugate linear characters w, w' restrict from 5 alone
    a4_a5 = {
        "levels": [
            {"n": 0, "order": 12, "basisSize": 4},
            {"n": 1, "order": 60, "basisSize": 5,
             "res": [[0, 0, 1], [3, 1, 1], [3, 2, 1], [0, 3, 1], [3, 3, 1],
                     [1, 4, 1], [2, 4, 1], [3, 4, 1]]},
        ]
    }
    with pytest.raises(IngestError) as excinfo:
        ingest_chain(a4_a5)
    assert str(excinfo.value) == "not a surjective chain: Res at level 1 has row rank 3 < 4"


def test_rank_deficient_res_rejected_with_its_rank_computed_once(monkeypatch):
    # no zero row, but the rows of Res at level 2 are dependent over Q
    bad = {
        "levels": [
            {"n": 0, "order": 1, "basisSize": 1},
            {"n": 1, "order": 2, "basisSize": 2, "res": [[0, 0, 1], [0, 1, 1]]},
            {"n": 2, "order": 4, "basisSize": 3,
             "res": [[0, 0, 2], [0, 1, 4], [1, 0, 1], [1, 1, 2], [0, 2, 6], [1, 2, 3]]},
        ]
    }
    ranked = []
    row_rank = verify.row_rank

    def counting(nrows, ncols, entries):
        ranked.append((nrows, ncols))
        return row_rank(nrows, ncols, entries)

    monkeypatch.setattr(verify, "row_rank", counting)
    with pytest.raises(IngestError) as excinfo:
        ingest_chain(bad)
    assert str(excinfo.value) == "not a surjective chain: Res at level 2 has row rank 1 < 2"
    assert ranked == [(1, 2), (2, 3)]


@pytest.mark.parametrize("value, accepted", [(2, True), (3, False)])
def test_res_values_are_bounded_by_frobenius_reciprocity(value, accepted):
    # v dim W <= dim V and v dim V <= [G_n : G_{n-1}] dim W give v^2 |G_{n-1}| <= |G_n|:
    # orders 1 and 4 allow an entry of 2 and no more
    payload = {"levels": [{"n": 0, "order": 1, "basisSize": 1},
                          {"n": 1, "order": 4, "basisSize": 1, "res": [[0, 0, value]]}]}
    if accepted:
        assert ingest_chain(payload).res_operator(1).children == ((0, 0),)
        return
    message = ("not a chain of groups: Res at level 1 has entry 3 at (0, 0), "
               "but v^2 |G_0| = 9 > |G_1| = 4")
    with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
        ingest_chain(payload)


def test_a_huge_res_value_is_refused_before_it_is_expanded(monkeypatch):
    # one entry of 10^6 once cost seconds and megabytes of edges before it was
    # accepted; it is refused before any edge of its level is listed
    payload = export_chain(SYM, 5)
    payload["levels"][3]["res"][0][2] = 10**6  # S_3 -> S_2
    built = []
    from_entries = BranchingOperator.from_entries.__func__

    def counting(cls, level, *args):
        built.append(level)
        return from_entries(cls, level, *args)

    monkeypatch.setattr(BranchingOperator, "from_entries", classmethod(counting))
    message = ("not a chain of groups: Res at level 3 has entry 1000000 at (0, 0), "
               "but v^2 |G_2| = 2000000000000 > |G_3| = 6")
    with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
        ingest_chain(payload)
    assert built == [1, 2]


def test_dimension_mismatch_rejected():
    bad = {
        "levels": [
            {"n": 0, "order": 1, "basisSize": 1},
            {"n": 1, "order": 2, "basisSize": 2, "res": [[0, 0, 1], [1, 1, 1]]},
        ]
    }
    with pytest.raises(IngestError, match="shape"):
        ingest_chain(bad)


def test_missing_res_rejected():
    bad = {
        "levels": [
            {"n": 0, "order": 1, "basisSize": 1},
            {"n": 1, "order": 2, "basisSize": 2},
        ]
    }
    with pytest.raises(IngestError, match="missing its Res"):
        ingest_chain(bad)


def test_nonconsecutive_levels_rejected():
    bad = {
        "levels": [
            {"n": 0, "order": 1, "basisSize": 1},
            {"n": 2, "order": 2, "basisSize": 2, "res": [[0, 0, 1], [0, 1, 1]]},
        ]
    }
    with pytest.raises(IngestError, match="consecutive"):
        ingest_chain(bad)


def test_class_sizes_must_sum_to_order():
    bad = constant_chain_payload()
    bad["levels"][0]["classes"][0]["size"] = 2
    with pytest.raises(IngestError, match="sum"):
        ingest_chain(bad)


def test_duplicate_class_label_rejected():
    bad = export_chain(SYM, 5)
    for row in bad["levels"][5]["classes"]:
        if row["label"] == "[3,2]":
            row["label"] = "[5]"
    with pytest.raises(IngestError, match="level 5: duplicate class labels"):
        ingest_chain(bad)


def test_level_listed_twice_rejected():
    bad = export_chain(SYM, 3)
    bad["levels"].append(dict(bad["levels"][2]))
    with pytest.raises(IngestError, match="level 2 is listed twice"):
        ingest_chain(bad)


def _first_class_not_identity(payload):
    classes = payload["levels"][3]["classes"]
    classes[0], classes[1] = classes[1], classes[0]


def _embeds_to_unknown_class(payload):
    payload["levels"][2]["classes"][0]["embedsTo"] = "[9]"


@pytest.mark.parametrize("spoil, message", [
    (lambda p: p["levels"].clear(), "chain has no levels"),
    (_first_class_not_identity, "level 3: first class must be the identity"),
    (_embeds_to_unknown_class, "level 2: class '\\[1,1\\]' embeds to unknown class '\\[9\\]'"),
    (lambda p: p["levels"][1].pop("order"), "malformed level entry"),
    (lambda p: p["levels"][1].update(res=[[0, 0]]), "malformed level entry"),
], ids=["no-levels", "first-class", "unknown-embedding", "no-order", "short-triplet"])
def test_ingest_rejects_a_spoiled_export(spoil, message):
    payload = export_chain(SYM, 3)
    spoil(payload)
    with pytest.raises(IngestError, match=message):
        ingest_chain(payload)


def _append_res_entry(entry):
    return lambda p: p["levels"][2]["res"].append(entry)


def _set(level, key, value):
    return lambda p: p["levels"][level].update({key: value})


def _set_res_value(value):
    def spoil(payload):
        payload["levels"][2]["res"][0][2] = value
    return spoil


def _set_class(level, key, value):
    return lambda p: p["levels"][level]["classes"][0].update({key: value})


def _number_label_and_embedding(payload):
    # both sides agree on the number 7, which is no class label
    _set_class(1, "label", 7)(payload)
    _set_class(0, "embedsTo", 7)(payload)


# Each of these was once accepted or misreported: int() truncated a float or read
# a string, repeated (row, col) entries were summed, and dropped when they
# cancelled, a level with no irreps passed, str() made the class "2.0" of a
# float label, a number embedsTo failed as an unknown class, an order of 0
# ended jeongha and tasyopari in a ZeroDivisionError, and a negative order passed.
@pytest.mark.parametrize("spoil, level, detail", [
    (_set_res_value(1.7), 2, "a Res entry must be an integer, not 1.7"),
    (_set(3, "order", 6.9), 3, "order must be an integer, not 6.9"),
    (_append_res_entry([0, 1, -1]), 2, "Res values must be positive"),
    (_set_res_value(-1), 2, "Res values must be positive"),
    (_append_res_entry([0, 1, 1]), 2, "Res lists a (row, col) pair twice"),
    (_set(1, "basisSize", "1"), 1, "basisSize must be an integer, not '1'"),
    (_set(1, "basisSize", 0), 1, "basisSize must be at least 1: every group has its trivial irrep"),
    (_set(3, "order", True), 3, "order must be an integer, not True"),
    (lambda p: p["levels"][4]["classes"][0].update(size=1.0), 4,
     "size must be an integer, not 1.0"),
    (lambda p: p["levels"][0].pop("n"), "#0", "'n'"),
    (_number_label_and_embedding, 0, "embedsTo must be a string, not 7"),
    (_set_class(1, "label", 7), 1, "label must be a string, not 7"),
    (_set_class(2, "label", 2.0), 2, "label must be a string, not 2.0"),
    (_set_class(2, "embedsTo", 0), 2, "embedsTo must be a string, not 0"),
    (_set(2, "order", 0), 2, "order must be at least 1: every group has its identity"),
    (_set(3, "order", -6), 3, "order must be at least 1: every group has its identity"),
], ids=["float-res-value", "float-order", "cancelling-res-entry", "negative-res-value",
        "repeated-res-entry", "string-basis-size", "empty-level", "bool-order",
        "float-class-size", "no-n", "number-label-and-embedding", "int-label", "float-label",
        "zero-embedding", "zero-order", "negative-order"])
def test_ingest_rejects_what_it_once_truncated_or_merged(spoil, level, detail):
    payload = export_chain(SYM, 4)
    ingest_chain(payload)  # the export itself is accepted
    spoil(payload)
    message = f"level {level}: malformed level entry: {detail}"
    with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
        ingest_chain(payload)


# levels must be a list: null and a number once ended in a TypeError traceback,
# and a dict was read as its keys
@pytest.mark.parametrize("source", [{"name": "no levels"}, ["levels"], {"levels": None},
                                    {"levels": 5}, {"levels": {"n": 0}}])
def test_malformed_chain_json_rejected(source):
    with pytest.raises(IngestError, match="malformed chain JSON"):
        ingest_chain(source)


def test_every_ingested_chain_is_checked_when_it_is_built():
    # IngestedChain takes the parsed JSON and runs the whole check itself;
    # ingest_chain only loads a path (or takes the dict) and calls it
    payload = export_chain(SYM, 4)
    chain = IngestedChain(payload)
    assert (chain.min_n, chain.max_n, chain.id) == (0, 4, "sym")
    assert run_suite(chain, "all", 4).to_json_dict() == run_suite(
        ingest_chain(payload), "all", 4).to_json_dict()
    payload["levels"][3]["res"] = [[0, 0, 1]]  # rank 1 < 2
    message = "not a surjective chain: Res at level 3 has row rank 1 < 2"
    with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
        IngestedChain(payload)


def test_ingested_levels_are_the_listed_ones():
    # Chain defines the level range once: min_n to max_n, the ingested chain's
    # top listed level and no top for a built-in chain
    chain = ingest_chain(export_chain(SYM, 5))
    assert "has_level" not in vars(type(chain)) and "level_range" not in vars(type(chain))
    assert [n for n in range(-2, 9) if chain.has_level(n)] == [0, 1, 2, 3, 4, 5]
    assert [n for n in range(-2, 9) if SYM.has_level(n)] == list(range(9))
    for top in (0, 3, 7):
        assert chain.level_range(top) == range(1, min(top, 5) + 1)
        assert SYM.level_range(top) == range(1, top + 1)


def one_dimensional_payload(orders):
    return {"levels": [
        {"n": n, "order": order, "basisSize": 1, **({"res": [[0, 0, 1]]} if n else {})}
        for n, order in enumerate(orders)
    ]}


@pytest.mark.parametrize("make, top, message", [
    (lambda: export_chain(SYM, 2), 2, "need at least four consecutive group orders"),
    (lambda: one_dimensional_payload([1, 1, 1, 2]), 3,
     "ratios change only at the last step; supply more orders"),
], ids=["three-orders", "last-step-ratios"])
def test_too_few_orders_to_fit_is_a_failed_fit_check(make, top, message):
    # these once raised ValueError out of run_suite; the fit is underdetermined
    chain = ingest_chain(make())
    detail = f"status=underdetermined B=None C=None {message}"
    for suite in ("tasyopari", "jeongha"):
        checks = run_suite(chain, suite, top).checks
        assert [(c.name, c.passed, c.detail) for c in checks] == [("fit-params", False, detail)]
    report = run_suite(chain, "all", top)
    assert not report.passed
    assert [c.name for c in report.checks if not c.passed] == ["fit-params"] * 2
    assert all(c.name.startswith("heisenberg") for c in report.checks if c.passed)
    assert run_suite(chain, "heisenberg", top).passed


def test_ingested_chain_reports_what_it_lacks():
    payload = export_chain(SYM, 3)
    payload["levels"][1]["classes"][0]["embedsTo"] = None
    chain = ingest_chain(payload)
    with pytest.raises(IngestError, match="level 0 has no Res matrix"):
        chain.res_operator(0)
    with pytest.raises(IngestError, match="level 0 has no Res matrix"):
        chain.ind_res(0)
    with pytest.raises(IngestError, match="level 4 is not part of the ingested chain"):
        chain.group_order(4)
    with pytest.raises(IngestError, match="class '\\[1\\]' at level 1 has no embedding to level 2"):
        chain.class_size_from("[1]", 1, 3)


def partial_class_payload():
    payload = export_chain(SYM, 5)
    for lv in payload["levels"]:
        if lv["n"] in (1, 4):
            del lv["classes"]
    return payload


def test_partial_class_data_degrades_gracefully():
    chain = ingest_chain(partial_class_payload())
    report = run_suite(chain, "all", 5)
    assert report.passed, [c for c in report.checks if not c.passed]
    # constraints needing the missing levels are skipped, not failed
    assert not any("n=5 l=4" in c.name for c in report.checks if "class-constraint" in c.name)


def test_roots_report_marks_unavailable_levels():
    payload = export_chain(SYM, 4)
    for lv in payload["levels"]:
        if lv["n"] == 4:
            del lv["classes"]
    chain = ingest_chain(payload)
    report = roots_vs_characters(chain, 3)  # preferred level 4 has no class data
    assert report["preferred_level"] == 4
    assert not report["evaluable"]


@pytest.mark.parametrize("shift", [-1, 2])
def test_jeongha_on_levels_not_starting_at_zero(shift):
    payload = export_chain(SYM, 6)
    for lv in payload["levels"]:
        lv["n"] += shift
    chain = ingest_chain(payload)
    report = run_suite(chain, "jeongha", 6 + shift)
    constraints = [c for c in report.checks if c.name.startswith("class-constraint")]
    assert constraints and report.passed, [c for c in report.checks if not c.passed]
    # every constraint reads a level the chain has, and roots-vs-characters
    # runs only when levels 0 and 1 exist
    assert all(int(c.name.split()[1][2:]) - int(c.name.split()[2][2:]) >= shift
               for c in constraints)
    has_roots = any(c.name.startswith("roots-vs-characters") for c in report.checks)
    assert has_roots == (shift <= 0)
    # the suites check as many (n, l) as on the same chain starting at level 0
    unshifted = ingest_chain(export_chain(SYM, 6))
    for suite, prefix in (("tasyopari", "indres-power"), ("jeongha", "class-constraint")):
        count = [sum(c.name.startswith(prefix) for c in run_suite(ch, suite, top).checks)
                 for ch, top in ((chain, 6 + shift), (unshifted, 6))]
        assert count[0] == count[1], (suite, count)


def test_ingest_from_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(export_chain(SYM, 4)))
    chain = ingest_chain(str(path))
    assert chain.group_order(4) == 24
    assert run_suite(chain, "tasyopari", 4).passed


# -- suites -------------------------------------------------------------------------


def test_full_suite_sym():
    report = run_suite(SYM, "all", 7)
    assert report.passed, [c for c in report.checks if not c.passed]
    assert report.to_json_dict()["passed"] is True


def test_full_suite_z2():
    report = run_suite(Z2C, "all", 3)
    assert report.passed, [c for c in report.checks if not c.passed]


def test_tasyopari_starts_over_when_the_roots_do_not_nest():
    # the same f_l with its roots listed last to first: f_2's roots (1, 0) do
    # not extend f_1's (0,), so f_2(X) is rebuilt from the identity
    class ReversedRoots(SymmetricChain):
        def poly(self, l):
            f_l = super().poly(l)
            return FallingFactorialPoly(f_l.roots[::-1], f_l.leading)

    report = run_suite(ReversedRoots(), "tasyopari", 6)
    assert report.passed, [c for c in report.checks if not c.passed]
    assert report.checks == run_suite(SYM, "tasyopari", 6).checks


def test_tasyopari_catches_a_wrong_leading_coefficient():
    # the packed check multiplies the polynomial side by the leading
    # coefficient's numerator and the brute side by its denominator
    for factor in (2, Fraction(1, 2)):
        class ScaledPoly(SymmetricChain):
            def poly(self, l):
                f_l = super().poly(l)
                return FallingFactorialPoly(f_l.roots, factor * f_l.leading)

        report = run_suite(ScaledPoly(), "tasyopari", 4)
        assert [(c.passed, c.detail) for c in report.checks] == [(False, "matrix mismatch")] * 10, factor


def test_packed_suites_bound_every_entry_they_compare(monkeypatch):
    # a packed comparison is exact only if its bound covers every entry of
    # both sides, here recomputed as matrix products; each suite packs one
    # identity per level, in level order
    bounds = []

    class Recording(PackedIdentity):
        def __init__(self, size, bound):
            super().__init__(size, bound)
            bounds.append(bound)

    class HalvedPoly(SymmetricChain):
        def poly(self, l):
            f_l = super().poly(l)
            return FallingFactorialPoly(f_l.roots, Fraction(1, 2) * f_l.leading)

    def largest(*matrices):
        return max(abs(v) for m in matrices for v in m.data.values())

    monkeypatch.setattr(verify, "PackedIdentity", Recording)
    for chain, max_n in ((SymmetricChain(), 7), (WreathChain(builtin_table("Z2")), 4), (HalvedPoly(), 5)):
        bounds.clear()
        run_suite(chain, "tasyopari", max_n)
        for n, bound in zip(chain.level_range(max_n), bounds, strict=True):
            x = chain.ind_res(n)
            for l, brute in enumerate(brute_indl_resl(chain, n), 1):
                f_l = chain.poly(l)
                product = poly_matrix(FallingFactorialPoly(f_l.roots, f_l.leading.numerator), x)
                assert largest(scaled(brute, f_l.leading.denominator), product) <= bound, (n, l)
        bounds.clear()
        run_suite(chain, "heisenberg", max_n)
        for j, bound in zip(chain.heisenberg_levels(max_n), bounds, strict=True):
            up, m = chain.res_operator(j + 1).matrix, chain.heisenberg_scaling
            x = chain.ind_res(j) if j > chain.min_n else SparseMatrix(up.nrows, up.nrows)
            res_ind = up @ transpose(up)
            assert largest(res_ind, x, shift_diagonal(x, m), shift_diagonal(res_ind, -m)) <= bound, j


def test_packed_checks_catch_a_wrong_heisenberg_scaling():
    # with M = 2 the symmetric chain's f_l has roots 0, 2, 4, ...: only
    # f_1 = X is still right, and no commutator equals 2 Id
    chain = SymmetricChain()
    chain.heisenberg_scaling = 2
    tasyopari = run_suite(chain, "tasyopari", 8).checks
    assert len(tasyopari) == 36
    assert [c.name for c in tasyopari if c.passed] == [f"indres-power n={n} l=1" for n in range(1, 9)]
    heisenberg = run_suite(chain, "heisenberg", 8).checks
    assert [(c.passed, c.lhs) for c in heisenberg] == [(False, 1)] * 8
    # each commutator is scalar, just not 2 Id
    assert {c.detail for c in heisenberg} == {"Res Ind - Ind Res = 1 * Id, expected 2 * Id"}


def test_tasyopari_passes_where_matrix_products_were_too_slow():
    for chain, max_n in ((SymmetricChain(), 12), (WreathChain(builtin_table("Z2"), "z2wreath"), 7)):
        report = run_suite(chain, "tasyopari", max_n)
        assert report.passed and len(report.checks) == max_n * (max_n + 1) // 2, chain.id


BAD_PADDING = """
from charcol.chain import SymmetricChain
from charcol.verify import run_suite

class DoubledPadding(SymmetricChain):
    def pad_first_row(self, label, n):
        padded, _ = super().pad_first_row(label, n)
        return padded, 2

checks = run_suite(DoubledPadding(), "lifts", 4).checks
print(sum(not c.passed for c in checks), len(checks))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_lifts_suite_catches_bad_padding_with_and_without_asserts(flags):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, *flags, "-c", BAD_PADDING], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["7", "12"]


def test_heisenberg_suite_z2_to_four():
    report = run_suite(Z2C, "heisenberg", 4)
    assert report.passed


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite(SYM, "nope", 3)


# SHA-256 of json.dumps(run_suite(chain, suite, maxN).to_json_dict(), sort_keys=True),
# recorded before the chain classes shared one protocol; they pin every check's
# name, detail and lhs/rhs, not only the verdict. The report's ``skipped`` is
# hashed apart from the rest and checked on its own: the built-in reports skip
# nothing, and an ingested chain skips the oracle and lifts suites whole.
REPORT_CHAINS = {
    "sym": (lambda: SYM, 6),
    "z2wreath": (lambda: Z2C, 4),
    "trivial": (lambda: WreathChain(builtin_table("trivial")), 5),
    "ingested-sym-9": (lambda: ingest_chain(export_chain(SYM, 9)), 7),
    "partial-classes": (lambda: ingest_chain(partial_class_payload()), 5),
    "const": (lambda: ingest_chain(constant_chain_payload()), 4),
}

REPORT_DIGESTS = {
    "sym/heisenberg": "3ca5f5031ff1e3b5e0d1fd6d17a70350ab5154fee6b3c5d7fb6486b3b7cf2a00",
    "sym/tasyopari": "6ae5a125a30c5096acb3e5c2e2580b7c6a65cd86e326218ef8ba48be757689a2",
    "sym/jeongha": "2f5e59c7123eda3c652491c86fc501be4f67a703d800d0bfbb27ba287d7a2144",
    "sym/oracle": "4e8ad7e12c7784ce163a4d575fb13986f8e1e6ab6e09bdc0cc13fb1f35dcefbb",
    "sym/lifts": "d3cb1d2a7ceb87cf7ca747bad6c27389068848042b0512916aed64c5b8511fd8",
    "sym/all": "c86dd2197beb13e6b139e4fbc6228fb042dea1643c10ab554a851b6318eb6fd8",
    "z2wreath/heisenberg": "122f85ce8062bfd9a8feebd6a5011ff3017e107d7261c71e83bf86ba476bdae3",
    "z2wreath/tasyopari": "b0537261b2e82941c2515ec8824c1959c6cad04649bf177027c4218412fa50a3",
    "z2wreath/jeongha": "140299154557bb55d7cfd6559cafd965c4313fa2d76e1f2d115e33d55e2a312e",
    "z2wreath/oracle": "0b94ebcfd7887b287724bbaec5a1ab0243f93adb4f6fec27f57d5f7689bd744a",
    "z2wreath/lifts": "4b1be93c39dc218b5ca7c9ac4152d3daa1eba3816d18ca66216d26808b0c43e1",
    "z2wreath/all": "fe777e53379b30832ac964a3da38c098befc843747ffa2a16104c3873e835021",
    "trivial/heisenberg": "7b6e459368f81a0bf18e0dad3e64335f45639eb4fdaf4db45cd12a9362aa9192",
    "trivial/tasyopari": "8839743e542371f4bb7701c247b7729b20ddb729816421fc4965d651e3dcf87e",
    "trivial/jeongha": "3055a4ae435320aa0c67afa19f4bd76e8ef762826921c3e077ae4fdb74a0447b",
    "trivial/oracle": "50b39fce8484a8cf36de87f2512430d917771b9b4f5c833fedbabbac094e3a9e",
    "trivial/lifts": "5676013fc71e9c0b50b2f1df115bff72c61ecd07190961549fb23288ab58fef1",
    "trivial/all": "c7d82c98f3593780e0a6a75d2959bafb06ec96d31363828d33f3dd2f3c70657b",
    "ingested-sym-9/heisenberg": "59f7ce93509e151e0ae3c7580bb6b64f2359a1bb224cdaf98bfcb4b8005cba1a",
    "ingested-sym-9/tasyopari": "a7a58164164e33ce22095b048b95205f01a8e3b96ff069d86b8ced0bfb651a97",
    "ingested-sym-9/jeongha": "b5be3e9ac95e9fa40e905c160e7a0398985406c6b402529ef5fdd4d08b43cff8",
    "ingested-sym-9/oracle": "fc6d6f86ad90c7d08c957e955ff6c8ae2b71ba4e9e6426562219e3fdca2481c7",
    "ingested-sym-9/lifts": "cf84de39a4716babea8d468b3bd3be7fd8221914ab654da27a54e13392aba96e",
    "ingested-sym-9/all": "f76c11cb711b0a83168a6dc508ecb1d95b7c45c2d7329af78d1df966a7a8e2d5",
    "partial-classes/heisenberg": "6f0423b53edcb51ae1c61fdc5adc804a4342d84dd60e0944dd73c6030db62680",
    "partial-classes/tasyopari": "feb143e047828199694c3bfb3260ebbf92b8691d99615ba7bf1ba935206486ef",
    "partial-classes/jeongha": "350a6cc4affb2681f8681d5947ba84fa1b84e63b8a6438424ebb2085a58d6a8a",
    "partial-classes/oracle": "3f4cbf6db7e515ed89617ef8fb568c9ac93e6ac93d99a4515fed84d91278878d",
    "partial-classes/lifts": "39b6ba5c8659f65499a134dbffa648650aeabbd30db4896100dd51c353c963d4",
    "partial-classes/all": "ff2b03b24d72831af49c509cdd07a7b9362483e42d925e66cfc1841dfe47430a",
    "const/heisenberg": "a4be24b13103cd3448326ded076ed9ff2bec94f2ba783fffa94fda4f989fae49",
    "const/tasyopari": "3db51bfbae32849956e4350c24d1d799304ffd5a1e1f7d5a1682c783bbad9a53",
    "const/jeongha": "5dce6c7a33220b448a1b72868cdb0c91f9608dc876405b5f29015428f1416ae0",
    "const/oracle": "fcee05ce48f7fa374de1f6f949e2a87ec9099b623a82a6101a11511949687019",
    "const/lifts": "15202d0a8c984c4c85cb30510e4c85b3c8c4947697e3b61c5e384e01f2ecca96",
    "const/all": "b3297d4605565b2d142aaf180b8d31b673ba872ccee40e97e60d587d2fe8cbd5",
}


BUILT_IN_REPORT_CHAINS = {"sym", "z2wreath", "trivial"}
SUITE_SKIPS = {
    "oracle": {"suite": "oracle", "reason": "the chain has no reference columns"},
    "lifts": {"suite": "lifts", "reason": "the chain has no irrep labels"},
}


@pytest.mark.parametrize("chain_name", list(REPORT_CHAINS))
def test_suite_reports_are_unchanged(chain_name):
    make, max_n = REPORT_CHAINS[chain_name]
    for suite in SUITES:
        report = run_suite(make(), suite, max_n).to_json_dict()
        skipped = report.pop("skipped", [])
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == REPORT_DIGESTS[f"{chain_name}/{suite}"], suite
        expected = [] if chain_name in BUILT_IN_REPORT_CHAINS else [
            entry for name, entry in SUITE_SKIPS.items() if suite in (name, "all")]
        assert skipped == expected, suite


@pytest.mark.parametrize("make", [
    lambda: SYM, lambda: Z2C, lambda: WreathChain(builtin_table("trivial")),
    lambda: ingest_chain(export_chain(SYM, 7)), lambda: ingest_chain(export_chain(SYM, 1)),
], ids=["sym", "z2wreath", "trivial", "ingested-sym-7", "ingested-sym-1"])
@pytest.mark.parametrize("suite", SUITES[:-1])
def test_no_suite_reports_nothing(make, suite):
    # a suite that cannot run on a chain, or has no level to check up to maxN
    # (maxN 0, or a two-level chain's commutator), says so under skipped, so
    # an empty report never reads as a pass
    for max_n in (5, 0):
        report = run_suite(make(), suite, max_n)
        assert report.checks or report.skipped, max_n
        assert all(set(entry) == {"suite", "reason"} or set(entry) == {"level", "reason"}
                   for entry in report.skipped), report.skipped


def test_a_suite_with_no_level_to_check_is_skipped():
    report = run_suite(ingest_chain(export_chain(SYM, 1)), "heisenberg", 5)
    assert report.checks == [] and report.passed
    assert report.skipped == [{"suite": "heisenberg", "reason": "no level to check up to maxN 5"}]
    report = run_suite(SymmetricChain(), "all", 0)
    assert [entry["suite"] for entry in report.skipped] == ["heisenberg", "tasyopari", "oracle"]
    assert report.checks and report.passed


def res_payload(chain, top):
    """Ingestion JSON for levels 0..top of a chain from its orders and Res
    entries alone, with no class data."""
    return {"name": chain.id, "levels": [
        {"n": n, "order": chain.group_order(n), "basisSize": len(chain.basis(n)),
         **({"res": [list(e) for e in chain.res_operator(n).entries()]} if n else {})}
        for n in range(top + 1)]}


@pytest.mark.parametrize("spec, top", [("sym", 7), ("z2wreath", 5), ("s3wreath", 3)])
def test_ingestion_rebuilds_the_branching_edges(spec, top):
    # an edge (r, c) of multiplicity v puts r into children[c] v times; export
    # sorts each column's rows, so each position's children agree as multisets.
    # S3's standard irrep makes entries of 2 in S3 wr S_n; its class data would
    # need brute-force tables, so that chain is read from its Res entries alone
    if spec == "s3wreath":
        chain = WreathChain(S3)
        payload = res_payload(chain, top)
        assert max(v for level in payload["levels"][1:] for _, _, v in level["res"]) == 2
    else:
        chain = get_chain(spec)
        payload = export_chain(chain, top)
    ingested = IngestedChain(payload)
    for n in range(1, top + 1):
        op, again = chain.res_operator(n), ingested.res_operator(n)
        assert (len(again.domain), len(again.codomain)) == (len(op.domain), len(op.codomain))
        assert [sorted(c) for c in again.children] == [sorted(c) for c in op.children], n
        assert again.x_norm_bound == op.x_norm_bound and again.matrix == op.matrix, n
        assert again.entries() == op.entries(), n
        assert verify.row_rank(len(op.codomain), len(op.domain), op.entries()) == len(op.codomain)
        order_below, order = chain.group_order(n - 1), chain.group_order(n)
        assert all(v * v * order_below <= order for _, _, v in op.entries()), n
