import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

import brute_wreath
from brute_wreath import (CONCRETE, by_closure, colored_cycle_type, conjugations, identity_colored_type,
                          permutation_product, wreath_elements)
from charcol.hgroup import (
    GroupTable,
    SizeBoundError,
    TableValidationError,
    builtin_table,
    enumerate_wreath_labels,
    format_wreath_label,
    load_table,
    parse_wreath_label,
    symmetric_group_table,
    wreath_char_table,
    wreath_class_size_formula,
    wreath_classes,
    wreath_irrep_dim,
    _symmetric_table,
    _young_column,
)
from charcol.partitions import enumerate_partitions, format_partition, mn_character, parse_partition
from test_chain import S3


def test_builtin_trivial():
    t = builtin_table("trivial")
    assert t.order == 1
    assert len(t.classes) == 1 and len(t.irreps) == 1
    assert t.irreps[0][1] == 1


def test_builtin_z2():
    t = builtin_table("Z2")
    assert [size for _, size in t.classes] == [1, 1]
    assert t.irreps[0][2] == (1, 1)
    assert t.irreps[1][2] == (1, -1)


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin_table("Z3")


def test_builtin_table_takes_names_only(tmp_path):
    # a table file is read by load_table; a path is no name
    path = tmp_path / "Z2.json"
    path.write_text(json.dumps(builtin_table("Z2").to_json_dict()))
    assert load_table(str(path)) == builtin_table("Z2")
    with pytest.raises(ValueError, match="^unknown group .*: expected one of trivial, Z2$"):
        builtin_table(str(path))


def test_table_validation_catches_duplicate_rows(tmp_path):
    bad = {
        "name": "bad",
        "order": 2,
        "classes": [{"label": "1", "size": 1}, {"label": "-1", "size": 1}],
        "irreps": [
            {"label": "a", "dim": 1, "values": [1, 1]},
            {"label": "b", "dim": 1, "values": [1, 1]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(TableValidationError, match="orthogonality"):
        load_table(str(path))


def _table_json():
    return {
        "name": "T",
        "order": 2,
        "classes": [{"label": "e", "size": 1}, {"label": "g", "size": 1}],
        "irreps": [
            {"label": "t", "dim": 1, "values": [1, 1]},
            {"label": "s", "dim": 1, "values": [1, -1]},
        ],
    }


@pytest.mark.parametrize("spoil, message", [
    (lambda t: t.update(order=3), "class sizes sum to 2, not 3"),
    (lambda t: t["irreps"].pop(), "1 irreps vs 2 classes"),
    (lambda t: t["classes"][1].update(label="e"), "duplicate class labels"),
    (lambda t: t["irreps"][1].update(label="t"), "duplicate irrep labels"),
    (lambda t: t["irreps"][1].update(values=[1]), "row s has wrong length"),
    (lambda t: t["irreps"][1].update(dim=2), "row s has values\\[0\\]=1 != dim=2"),
    (lambda t: t.pop("order"), "malformed GroupTable JSON"),
    # read as given, never coerced: int() truncated 2.9 and -1.0 and read "1"
    # and true as integers, and str() turned -1 into the label "-1"
    (lambda t: t.update(order=2.9), "JSON: order must be an integer, not 2.9"),
    (lambda t: t["classes"][1].update(size="1"), "JSON: size must be an integer, not '1'"),
    (lambda t: t["irreps"][0].update(dim=True), "JSON: dim must be an integer, not True"),
    (lambda t: t["irreps"][1]["values"].__setitem__(1, -1.0),
     "JSON: a character value must be an integer, not -1.0"),
    (lambda t: t["classes"][1].update(label=-1), "JSON: label must be a string, not -1"),
    (lambda t: t["irreps"][1].update(label=0), "JSON: label must be a string, not 0"),
], ids=["sizes", "counts", "class-labels", "irrep-labels", "row-length", "dim", "malformed",
        "float-order", "string-size", "bool-dim", "float-value", "number-class-label",
        "number-irrep-label"])
def test_table_validation_rejects(spoil, message):
    table = _table_json()
    GroupTable.from_json_dict(table)
    spoil(table)
    with pytest.raises(TableValidationError, match=message):
        GroupTable.from_json_dict(table)


# D4 (order 8) as a JSON table: classes e, r^2, r, s, rs
D4_JSON = {
    "name": "D4",
    "order": 8,
    "classes": [{"label": lab, "size": size}
                for lab, size in (("e", 1), ("r2", 1), ("r", 2), ("s", 2), ("rs", 2))],
    "irreps": [{"label": lab, "dim": values[0], "values": values}
               for lab, values in (("1", [1, 1, 1, 1, 1]), ("a", [1, 1, 1, -1, -1]),
                                   ("b", [1, 1, -1, 1, -1]), ("c", [1, 1, -1, -1, 1]),
                                   ("d", [2, -2, 0, 0, 0]))],
}


def pairwise_orthogonality_error(table):
    """The message of the first row pair (i <= j) whose inner product is off,
    from one plain sum per pair, or None: the reference for validate()."""
    sizes = [size for _, size in table.classes]
    for i, (lu, _, u) in enumerate(table.irreps):
        for j, (lw, _, w) in enumerate(table.irreps[i:], i):
            inner = sum(s * a * b for s, a, b in zip(sizes, u, w))
            expect = table.order if i == j else 0
            if inner != expect:
                return (f"{table.name}: row orthogonality fails for ({lu},{lw}): "
                        f"sum size*chi*chi = {inner}, expected {expect}")
    return None


@pytest.mark.parametrize("table", [symmetric_group_table(5), GroupTable.from_json_dict(D4_JSON)],
                         ids=["S5", "D4-json"])
def test_every_single_entry_change_names_the_pairwise_first_failure(table):
    # -2 at an entry of 1 keeps that row's norm, so the first failure is
    # another pair; 10**20 widens the slots
    for i, (label, dim, values) in enumerate(table.irreps):
        for c in range(len(values)):
            for delta in (1, -2, 10**20):
                spoiled = list(values)
                spoiled[c] += delta
                irreps = list(table.irreps)
                irreps[i] = (label, spoiled[0], tuple(spoiled))
                bad = table._replace(irreps=tuple(irreps))
                expected = pairwise_orthogonality_error(bad)
                assert expected is not None
                with pytest.raises(TableValidationError) as excinfo:
                    bad.validate()
                assert str(excinfo.value) == expected, (label, c, delta)


def test_validate_agrees_with_the_pairwise_reference_on_sound_tables():
    for table in (symmetric_group_table(7), wreath_char_table(builtin_table("Z2"), 3),
                  GroupTable.from_json_dict(D4_JSON), builtin_table("trivial")):
        assert pairwise_orthogonality_error(table) is None
        assert table.validate() is table


# Tables that pass the checks above, sizes, labels and row orthogonality, yet
# belong to no group, so no wreath table or column is built over them
GROUPLESS_TABLES = {
    "negative-dim": (GroupTable("neg", 1, (("e", 1),), (("s", -1, (-1,)),)),
                     "neg: row s has dim=-1, below 1"),
    "identity-of-size-2": (GroupTable("id2", 2, (("e", 2),), (("1", 1, (1,)),)),
                           "id2: first class must be the identity (size 1)"),
    "no-trivial-row": (GroupTable("had", 4, tuple((c, 1) for c in "abcd"), tuple(
        (f"r{i}", 1, row) for i, row in enumerate([(1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1),
                                                   (1, -1, -1, -1)]))),
                       "had: no row is the trivial character (all values 1)"),
}


@pytest.mark.parametrize("name", list(GROUPLESS_TABLES))
def test_validation_refuses_tables_no_group_has(name):
    table, message = GROUPLESS_TABLES[name]
    assert pairwise_orthogonality_error(table) is None
    with pytest.raises(TableValidationError, match=f"^{re.escape(message)}$"):
        GroupTable.from_json_dict(table.to_json_dict())
    # an earlier check keeps its message
    with pytest.raises(TableValidationError, match="class sizes sum to"):
        table._replace(order=table.order + 1).validate()


def test_table_json_round_trip():
    t = builtin_table("Z2")
    assert GroupTable.from_json_dict(t.to_json_dict()) == t


# -- symmetric-group tables from permutation characters ----------------------


def young(nu, rho):
    """xi_nu(rho), read off the expansion of p_rho."""
    return _young_column(rho).get(nu, 0)


def test_young_permutation_character_basics():
    # chi of the natural permutation module = fixed points
    for mu in enumerate_partitions(5):
        assert young((4, 1), mu) == list(mu).count(1)
    # the regular module at the identity
    assert young((1, 1, 1, 1), (1, 1, 1, 1)) == factorial(4)
    assert _young_column(()) == {(): 1}


def test_young_column_closed_forms():
    for k in range(0, 13):
        whole = (k,) if k else ()
        for rho in enumerate_partitions(k):
            # the trivial module: one coset of S_k
            assert young(whole, rho) == 1, rho
    for k in range(0, 11):
        for nu in enumerate_partitions(k):
            # at the identity every coset is fixed: the multinomial k! / prod nu_i!
            cosets = factorial(k)
            for part in nu:
                cosets //= factorial(part)
            assert young(nu, (1,) * k) == cosets, nu


@lru_cache(maxsize=None)
def _distribute(parts: tuple[tuple[int, int], ...], bins: tuple[int, ...]) -> int:
    """The earlier package count, kept as a reference: ways to split the
    multiset ``parts`` = ((length, multiplicity), ...) across ``bins`` so that
    each bin receives lengths summing exactly to its capacity."""
    if not bins:
        return 1 if all(m == 0 for _, m in parts) else 0
    target = bins[0]

    def pick(idx: int, remaining: int, taken: tuple[int, ...]) -> int:
        if remaining == 0:
            rest = tuple(
                (val, m - (taken[i] if i < len(taken) else 0))
                for i, (val, m) in enumerate(parts)
            )
            return _distribute(rest, bins[1:])
        if idx == len(parts):
            return 0
        val, mult = parts[idx]
        total = 0
        for c in range(0, min(mult, remaining // val) + 1):
            ways = comb(mult, c)
            total += ways * pick(idx + 1, remaining - c * val, taken + (c,))
        return total

    return pick(0, target, ())


def test_young_permutation_character_matches_the_earlier_count():
    for n in range(0, 11):
        for rho in enumerate_partitions(n):
            parts = tuple(sorted(((v, rho.count(v)) for v in set(rho)), reverse=True))
            for nu in enumerate_partitions(n):
                assert young(nu, rho) == _distribute(parts, nu), (nu, rho)


def test_young_permutation_character_counts_exact_fillings():
    # every map from the cycles of rho to the rows of nu that fills each row exactly
    for n in range(1, 7):
        for rho in enumerate_partitions(n):
            for nu in enumerate_partitions(n):
                fillings = 0
                for rows in itertools.product(range(len(nu)), repeat=len(rho)):
                    filled = [0] * len(nu)
                    for cycle, row in zip(rho, rows):
                        filled[row] += cycle
                    fillings += filled == list(nu)
                assert young(nu, rho) == fillings, (nu, rho)


def test_symmetric_table_matches_border_strip_oracle():
    for k in range(1, 13):
        table = symmetric_group_table(k, max_order=factorial(k) if k >= 8 else None)
        for lab, dim, values in table.irreps:
            lam = tuple(int(x) for x in lab[1:-1].split(","))
            for (clab, _), value in zip(table.classes, values):
                mu = tuple(int(x) for x in clab[1:-1].split(","))
                assert value == mn_character(lam, mu), (lam, mu)


# SHA-256 of repr of the (partition, row) pairs of _symmetric_table(k) as the
# per-pair placement count built them, past the oracle test's reach
TABLE_ROW_DIGESTS = {
    13: "07d605c11ce8419f89c642c81d7e47df944fec0cd1758118d4d944a5e28a6399",
    14: "b9f5cb440c0f1b38eaa36efe988a7b58380f60b3687ecdbabfa9034ef0d91a9c",
}


@pytest.mark.parametrize("k", sorted(TABLE_ROW_DIGESTS))
def test_symmetric_table_rows_are_byte_identical(k):
    rows = tuple((parse_partition(lab), values) for lab, _, values in _symmetric_table(k).irreps)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == TABLE_ROW_DIGESTS[k]


# Every Young character of S_4 spoiled at one (nu, mu): the build stops with
# an InvariantError, which a raise keeps under python -O, as an assert would not
SPOILED_YOUNG = """
from charcol import hgroup
from charcol.partitions import InvariantError, enumerate_partitions

young = hgroup._young_column
raised = 0
for nu in enumerate_partitions(4):
    for mu in enumerate_partitions(4):
        # a copy, so the memo keeps the true column
        hgroup._young_column = (
            lambda r, nu=nu, mu=mu: {**young(r), nu: young(r).get(nu, 0) + 1} if r == mu
            else young(r))
        hgroup._symmetric_table.cache_clear()
        try:
            hgroup._symmetric_table(4)
        except InvariantError as exc:
            raised += str(exc).startswith("orthogonalization failed at ")
print(raised)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_spoiled_young_character_raises_with_and_without_asserts(flags):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, *flags, "-c", SPOILED_YOUNG], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == f"{len(enumerate_partitions(4)) ** 2}\n"


def test_symmetric_table_respects_bound():
    with pytest.raises(SizeBoundError):
        symmetric_group_table(8, max_order=10_000)
    symmetric_group_table(8, max_order=50_000)  # explicit raise works


def test_symmetric_table_bound_holds_after_the_table_is_cached(monkeypatch):
    symmetric_group_table(8, max_order=50_000)
    with pytest.raises(SizeBoundError):
        symmetric_group_table(8, max_order=10_000)
    monkeypatch.setenv("CHARCOL_MAX_ORDER", "50000")
    symmetric_group_table(8)
    monkeypatch.setenv("CHARCOL_MAX_ORDER", "10000")
    with pytest.raises(SizeBoundError):
        symmetric_group_table(8)


@pytest.mark.parametrize("max_order, message", [
    ("50000", "max_order must be an integer, not '50000'"),
    (50000.0, "max_order must be an integer, not 50000.0"),
    (True, "max_order must be an integer, not True"),
    (-1, "max_order must be non-negative, not -1"),
])
def test_a_bad_max_order_argument_is_named(monkeypatch, max_order, message):
    # the variable is set and valid, so the message must not blame it
    monkeypatch.setenv("CHARCOL_MAX_ORDER", "50000")
    with pytest.raises(ValueError) as exc:
        symmetric_group_table(3, max_order=max_order)
    assert str(exc.value) == message


def test_tables_and_labels_are_built_once():
    z2 = builtin_table("Z2")
    assert builtin_table("Z2") is z2
    assert builtin_table("trivial") is builtin_table("trivial")
    assert symmetric_group_table(6) is symmetric_group_table(6, max_order=720)
    assert wreath_char_table(z2, 3) is wreath_char_table(z2, 3)
    assert enumerate_wreath_labels(2, 6) is enumerate_wreath_labels(2, 6)


# -- wreath elements ----------------------------------------------------------


def wreath_mult(group, x, y):
    """The reference product: (a, s)(b, r) = (a * s.b, s o r) where
    (s.b)_i = b_{s^-1(i)}."""
    (bx, px), (by, py) = x, y
    k = len(px)
    pinv = [0] * k
    for i, img in enumerate(px):
        pinv[img] = i
    base = tuple(group.mult[bx[i]][by[pinv[i]]] for i in range(k))
    perm = tuple(px[py[i]] for i in range(k))
    return (base, perm)


def wreath_inverse(group, x):
    bx, px = x
    k = len(px)
    pinv = [0] * k
    for i, img in enumerate(px):
        pinv[img] = i
    base = tuple(group.inverse[bx[px[i]]] for i in range(k))
    return (base, tuple(pinv))


def wreath_generators(group, k):
    """The generators whose one-pass conjugations ``conjugations`` lists, in
    its order: ((h, e, ..., e), id) for h != e, then (0 1) and i -> i + 1."""
    gens = [((h,) + (0,) * (k - 1), tuple(range(k))) for h in range(1, group.size)] if k else []
    if k >= 2:
        gens.append(((0,) * k, (1, 0) + tuple(range(2, k))))
        gens.append(((0,) * k, tuple(range(1, k)) + (0,)))
    return gens


@st.composite
def wreath_pair(draw, k=3):
    z2 = CONCRETE["Z2"]
    elems = list(wreath_elements(z2, k))
    return z2, draw(st.sampled_from(elems)), draw(st.sampled_from(elems))


@given(wreath_pair())
@settings(max_examples=60)
def test_wreath_inverse(args):
    group, x, _ = args
    k = len(x[1])
    identity = ((0,) * k, tuple(range(k)))
    assert wreath_mult(group, x, wreath_inverse(group, x)) == identity
    assert wreath_mult(group, wreath_inverse(group, x), x) == identity


@given(wreath_pair(), st.integers(0, 47))
@settings(max_examples=60)
def test_wreath_associative(args, pick):
    group, x, y = args
    z = list(wreath_elements(group, 3))[pick]
    left = wreath_mult(group, wreath_mult(group, x, y), z)
    right = wreath_mult(group, x, wreath_mult(group, y, z))
    assert left == right


@pytest.mark.parametrize("name", ["Z2", "trivial"])
@pytest.mark.parametrize("k", range(5))
def test_one_pass_conjugation_is_g_x_g_inverse(name, k):
    group = CONCRETE[name]
    gens = wreath_generators(group, k)
    maps = conjugations(group, k)
    assert len(maps) == len(gens)
    for g, conjugate in zip(gens, maps):
        g_inverse = wreath_inverse(group, g)
        for x in wreath_elements(group, k):
            assert conjugate(x) == wreath_mult(group, wreath_mult(group, g, x), g_inverse), (g, x)


# A one-pass conjugation that is wrong for one generator: dropped (the
# identity map, so orbits split and two share a colored type) or followed by
# a flip of b_0 (so an orbit leaves its colored type). Either way the class
# build of Z2 wr S_3 raises, each time from the check that sees it.
SPOILED_CONJUGATION = """
import brute_wreath
from charcol.partitions import InvariantError

conjugations = brute_wreath.conjugations
spoils = [lambda c: (lambda x: x),
          lambda c: (lambda x: ((c(x)[0][0] ^ 1,) + c(x)[0][1:], c(x)[1]))]
split = left = 0
for index in range(len(conjugations(brute_wreath.CONCRETE["Z2"], 3))):
    for spoil in spoils:
        def spoiled(group, k, index=index, spoil=spoil):
            maps = conjugations(group, k)
            maps[index] = spoil(maps[index])
            return maps
        brute_wreath.conjugations = spoiled
        brute_wreath.wreath_classes.cache_clear()
        try:
            brute_wreath.wreath_classes(brute_wreath.CONCRETE["Z2"], 3)
        except InvariantError as exc:
            split += str(exc).startswith("two conjugation orbits of ")
            left += str(exc).startswith("conjugation orbit of ")
print(split, left)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_spoiled_conjugation_raises_with_and_without_asserts(flags):
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(here, os.pardir, "src"), here]))
    out = subprocess.run([sys.executable, *flags, "-c", SPOILED_CONJUGATION], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "3 3\n"  # three generators, each dropped once and flipped once


def test_colored_type_of_identity():
    z2 = CONCRETE["Z2"]
    assert colored_cycle_type(z2, ((0,) * 3, tuple(range(3)))) == identity_colored_type(3)


# -- wreath conjugacy classes -------------------------------------------------


def test_wreath_class_sizes_z2s2():
    z2 = builtin_table("Z2")
    sizes = {c.label: c.size for c in wreath_classes(z2, 2)}
    assert sizes[((0, (1,)), (1, (1,)))] == 2  # ((-1,1), ())
    assert sizes[((0, (2,)),)] == 2  # ((1,1), (12))
    assert sizes[identity_colored_type(2)] == 1
    assert sum(sizes.values()) == 8


def test_wreath_class_formula_matches_brute():
    # the conjugation orbits, counted, against the centralizer formula
    for name, k in (("Z2", 1), ("Z2", 2), ("Z2", 3), ("trivial", 5)):
        group = CONCRETE[name]
        for cls in brute_wreath.wreath_classes(group, k):
            assert wreath_class_size_formula(group.table, cls.label) == cls.size


def test_wreath_classes_bound():
    z2 = builtin_table("Z2")
    with pytest.raises(SizeBoundError):
        wreath_classes(z2, 6)  # 2^6 * 720 = 46080 > 10000


# -- wreath character tables ---------------------------------------------------


from printed_data import PRINTED_Z2S2


def test_z2_wr_s2_table_matches_printed_table():
    table = wreath_char_table(builtin_table("Z2"), 2)
    assert len(table.irreps) == 5 and len(table.classes) == 5
    for lab, _, values in table.irreps:
        for (clab, _), value in zip(table.classes, values):
            assert value == PRINTED_Z2S2[lab][clab], (lab, clab)


def test_trivial_wreath_is_symmetric_group():
    table = wreath_char_table(builtin_table("trivial"), 2)
    rows = {lab: values for lab, _, values in table.irreps}
    assert rows["1:[2]"] == (1, 1)
    assert rows["1:[1,1]"] == (1, -1)


def test_trivial_wreath_matches_oracle_entrywise():
    triv = builtin_table("trivial")
    for k in range(1, 7):
        table = wreath_char_table(triv, k)
        for lab, _, values in table.irreps:
            lam = parse_wreath_label(("1",), lab)[0][1]
            for (clab, _), value in zip(table.classes, values):
                mu = parse_wreath_label(("e",), clab)[0][1]
                assert value == mn_character(lam, mu)


def test_z2_dim_squares():
    z2 = builtin_table("Z2")
    for k in (1, 2, 3):
        table = wreath_char_table(z2, k)
        assert sum(dim * dim for _, dim, _ in table.irreps) == 2**k * factorial(k)


def test_wreath_tables_validate_exactly():
    # validate() runs inside wreath_char_table; re-run to make the check visible
    wreath_char_table(builtin_table("Z2"), 3).validate()


def test_column_orthogonality_is_exact():
    # sum over irreps of chi(a) chi(b) = (order/size_a) [a == b], in integers
    for table in (wreath_char_table(builtin_table("Z2"), 3), symmetric_group_table(6)):
        for i, (la, size_a) in enumerate(table.classes):
            for j, (lb, _) in enumerate(table.classes):
                inner = sum(values[i] * values[j] for _, _, values in table.irreps)
                expect = table.order // size_a if i == j else 0
                assert inner == expect, (table.name, la, lb)


def test_wreath_irrep_dim_formula():
    z2 = builtin_table("Z2")
    table = wreath_char_table(z2, 3)
    for lab, dim, _ in table.irreps:
        label = parse_wreath_label(("1", "-1"), lab)
        assert wreath_irrep_dim(z2, label) == dim


# SHA-256 of json.dumps(table.to_json_dict()), recorded when every class
# member was summed for every label; any change to a value, label, class
# order or size shows here.
TABLE_DIGESTS = {
    ("Z2", 0): "33519ed3ccaec0c11888401ee46c5150f632d34409cf9d79712a7797405f7379",
    ("Z2", 1): "b4e7391448093d579abfb7fd54051c8960897b4ce923a61a4838c7d694eae90d",
    ("Z2", 2): "239e124c132b052c584e7a486da2bd6fd64f58448a8256dd55e8ee460dd10db9",
    ("Z2", 3): "fc5fcc133cb56d2a2cb10e30955302fd13eb1616564da0964e06ae593b6b6f69",
    ("Z2", 4): "24c7ee02ee3c8edfeedb54b7ce4e6efc25c1489a3332ce2a8d37a1dade931224",
    ("Z2", 5): "12ed881d0ddba2f520d8c6a915f55bb1d3bd37133f034377d50e87e5bb007441",
    ("trivial", 0): "b332994a8f76b9a7b95b881c9698c85c563e90cd22907cb87fe8c25644de95b8",
    ("trivial", 1): "1ab3431e6934d6e4daf0a6e0315bea3c4f1618789deee2c7f509c052c29e2b27",
    ("trivial", 2): "f9ee450ec86c9a9f5f77be438185d5b695b467b4f927b3ed4109a19cf4b47820",
    ("trivial", 3): "6348aeaedd2ad3de6771cd8328bfa21cec3c420ae524432b3cff5c3b1222d3ba",
    ("trivial", 4): "c3be736b91a94ab2184619a85ef06717bba46e5e50e65fb8879a7e292c99b678",
    ("trivial", 5): "bef6eea8f70d929d7e625b59c421d32f864c943930c4cf42eaebbc8d4f733d97",
    ("trivial", 6): "e8e0c58ff1a4d1f408828309a94aa989955f871a2f924608d717f7692e08d04d",
    ("Z2", 6): "084546bd6d7112d902b5f44f89843dd7ffebca9f93ce42df1bd89e809182bbe4",
}
# SHA-256 of json.dumps([[label as lists, size] for each class]), in order.
CLASS_DIGESTS = {
    ("Z2", 0): "fa310912173de15282c19da7fcdd24d15efa1a08044c3e432b46382a6970f226",
    ("Z2", 1): "bb810d270bd653219ea0810aacf9c30d7c0b28e6ae4cde21cf5411c6c966e92c",
    ("Z2", 2): "b22b0c3d6fa995f2e3bc12df50c34d6528d4d57c1ff3a7ae102eb573cccf5e67",
    ("Z2", 3): "971111fe0abee40af48278f6112cf858fabb2fb75a242be3a870bb02912a2257",
    ("Z2", 4): "8f7af9cc12663403f06d69d081dfa378b46f7f722ceaa3c749a9d86405544e8f",
    ("Z2", 5): "63b4b0d239099f31904ab18706c1042a217ebd25991d618928b8679650aa68f7",
    ("Z2", 6): "f97c42f9919862f507169a3d255328c059c6143475a1aa64383d047f13ab3bdf",
    ("trivial", 0): "fa310912173de15282c19da7fcdd24d15efa1a08044c3e432b46382a6970f226",
    ("trivial", 1): "5226b944688ddf466abf3774c6782f58bbdec23cf72d3359a01e7a7c1e2425a8",
    ("trivial", 2): "4a8650ed30b2299caf0efef09c09102df6c2e397e3d7e405690b6ab633c0f6a1",
    ("trivial", 3): "08a4e9d86f1970f26a39de16a2dcdad13c5252a281a9506135df95e342455195",
    ("trivial", 4): "777f95316f960b23c63bd7f2af12c328b483a83a655db6eea96e1a8e01659f2e",
    ("trivial", 5): "7bef16cd352e556f29f5188e323a3ef0696d568d33855163bd611ae144ee0636",
    ("trivial", 6): "efe230528e3dce7e6081fda00736c3ebf393aa428b82d7f02abc74e4f9fc7636",
}


def sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@pytest.mark.parametrize("name, k", sorted(TABLE_DIGESTS))
def test_wreath_tables_match_their_pinned_digests(name, k):
    table = wreath_char_table(builtin_table(name), k, max_order=46080)
    assert sha256(table.to_json_dict()) == TABLE_DIGESTS[name, k]


@pytest.mark.parametrize("name, k", sorted(CLASS_DIGESTS))
def test_wreath_classes_match_their_pinned_digests(name, k):
    classes = wreath_classes(builtin_table(name), k, max_order=46080)
    assert sha256([[list(map(list, c.label)), c.size] for c in classes]) == CLASS_DIGESTS[name, k]


# -- the rule against brute force ----------------------------------------------


def quaternion_product(x, y):
    """(a + bi + cj + dk)(a' + b'i + c'j + d'k), as 4-tuples of integers."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


# One element of each class, in the table's class order. S3 on three points:
# e, a transposition, a 3-cycle. D4 on the square's corners 0..3: e, r^2, r, a
# reflection s through corners 0 and 2, and rs. Q8: 1, -1, i, j, k; it has
# D4's character table, with i, j, k for r, s, rs.
S3_GROUP = by_closure(S3, permutation_product, [(0, 1, 2), (1, 0, 2), (1, 2, 0)])
D4_TABLE = GroupTable.from_json_dict(D4_JSON)
D4_GROUP = by_closure(D4_TABLE, permutation_product,
                      [(0, 1, 2, 3), (2, 3, 0, 1), (1, 2, 3, 0), (0, 3, 2, 1), (1, 0, 3, 2)])
Q8_GROUP = by_closure(D4_TABLE._replace(name="Q8"), quaternion_product,
                      [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])


@pytest.mark.parametrize("group, k", [(CONCRETE[name], k) for name in ("trivial", "Z2") for k in range(7)]
                         + [(S3_GROUP, k) for k in range(4)],
                         ids=lambda v: v.table.name if hasattr(v, "table") else str(v))
def test_the_rule_equals_the_brute_force_table(group, k):
    # the same GroupTable: labels, class order, sizes and every value
    assert wreath_char_table(group.table, k, max_order=46080) == brute_wreath.wreath_char_table(group, k)
    brute = brute_wreath.wreath_classes(group, k)
    assert wreath_classes(group.table, k, max_order=46080) == brute


@pytest.mark.parametrize("k", range(3))
def test_groups_with_one_table_have_one_wreath_table(k):
    # D4 and Q8 are not isomorphic, yet share a character table; so their
    # wreath products share one too, which is what the rule computes from it
    d4, q8 = (brute_wreath.wreath_char_table(group, k) for group in (D4_GROUP, Q8_GROUP))
    assert d4 == q8._replace(name=d4.name) == wreath_char_table(D4_TABLE, k)


def test_d4_and_q8_are_different_groups():
    # the control above compares two groups, not one group twice: D4 squares
    # to the identity on e, r^2 and its four reflections, Q8 on 1 and -1 only
    assert sum(1 for a in range(8) if D4_GROUP.mult[a][a] == 0) == 6
    assert sum(1 for a in range(8) if Q8_GROUP.mult[a][a] == 0) == 2


# -- label enumeration and text form -------------------------------------------


def test_wreath_label_enumeration_counts():
    # sum over compositions of n into (number of H-irreps) parts of prod p(k_i)
    for n in range(0, 6):
        labels = enumerate_wreath_labels(2, n)
        expect = sum(
            len(enumerate_partitions(a)) * len(enumerate_partitions(n - a))
            for a in range(n + 1)
        )
        assert len(labels) == len(set(labels)) == expect


@pytest.mark.parametrize("h", range(1, 6))
def test_wreath_labels_come_in_their_documented_order(h):
    # every tuple of h partitions of total n, one per H-irrep, with the empty
    # ones dropped, sorted by support and then by each slot's partition in
    # descending lexicographic order, a prefix before its extensions
    def key(label):
        return tuple(i for i, _ in label), tuple(tuple(-x for x in p) for _, p in label)

    for n in range(10 if h < 4 else 8):
        labels = [tuple((i, p) for i, p in enumerate(parts) if p)
                  for sizes in itertools.product(range(n + 1), repeat=h) if sum(sizes) == n
                  for parts in itertools.product(*map(enumerate_partitions, sizes))]
        assert enumerate_wreath_labels(h, n) == tuple(sorted(labels, key=key)), (h, n)


def test_wreath_level_one_labels():
    assert enumerate_wreath_labels(2, 1) == (((0, (1,)),), ((1, (1,)),))


def test_wreath_label_text_round_trip():
    names = ("1", "-1")  # a tuple: the parser is memoized on its arguments
    for label in enumerate_wreath_labels(2, 4):
        assert parse_wreath_label(names, format_wreath_label(names, label)) == label
    with pytest.raises(ValueError):
        parse_wreath_label(names, "2:[1]")
    with pytest.raises(ValueError):
        parse_wreath_label(names, "1:[1];1:[1]")


def test_format_partition_helper():
    assert format_partition((3, 1)) == "[3,1]"
