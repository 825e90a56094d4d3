import itertools
import json
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from charcol.hgroup import (
    GroupTable,
    SizeBoundError,
    TableValidationError,
    builtin_table,
    colored_cycle_type,
    concrete_base,
    enumerate_wreath_labels,
    format_wreath_label,
    identity_colored_type,
    parse_wreath_label,
    symmetric_group_table,
    wreath_char_table,
    wreath_class_size_formula,
    wreath_classes,
    wreath_elements,
    wreath_inverse,
    wreath_irrep_dim,
    wreath_mult,
    young_permutation_character,
)
from charcol.partitions import enumerate_partitions, format_partition, mn_character


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
        builtin_table(str(path))


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


def test_table_json_round_trip():
    t = builtin_table("Z2")
    assert GroupTable.from_json_dict(t.to_json_dict()) == t


# -- symmetric-group tables from permutation characters ----------------------


def test_young_permutation_character_basics():
    # chi of the natural permutation module = fixed points
    for mu in enumerate_partitions(5):
        assert young_permutation_character((4, 1), mu) == list(mu).count(1)
    # the regular module at the identity
    assert young_permutation_character((1, 1, 1, 1), (1, 1, 1, 1)) == factorial(4)
    with pytest.raises(ValueError):
        young_permutation_character((2, 1), (2,))


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
                assert young_permutation_character(nu, rho) == _distribute(parts, nu), (nu, rho)


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
                assert young_permutation_character(nu, rho) == fillings, (nu, rho)


def test_symmetric_table_matches_border_strip_oracle():
    for k in range(1, 10):
        table = symmetric_group_table(k, max_order=factorial(k) if k >= 8 else None)
        for lab, dim, values in table.irreps:
            lam = tuple(int(x) for x in lab[1:-1].split(","))
            for (clab, _), value in zip(table.classes, values):
                mu = tuple(int(x) for x in clab[1:-1].split(","))
                assert value == mn_character(lam, mu), (lam, mu)


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


def test_tables_and_labels_are_built_once():
    z2 = builtin_table("Z2")
    assert builtin_table("Z2") is z2
    assert builtin_table("trivial") is builtin_table("trivial")
    assert symmetric_group_table(6) is symmetric_group_table(6, max_order=720)
    assert wreath_char_table(z2, 3) is wreath_char_table(z2, 3)
    assert enumerate_wreath_labels(2, 6) is enumerate_wreath_labels(2, 6)


# -- wreath elements ----------------------------------------------------------


@st.composite
def wreath_pair(draw, k=3):
    z2 = concrete_base(builtin_table("Z2"))
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


def test_colored_type_of_identity():
    z2 = concrete_base(builtin_table("Z2"))
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
    z2 = builtin_table("Z2")
    for k in (1, 2, 3):
        for cls in wreath_classes(z2, k):
            assert wreath_class_size_formula(z2, cls.label) == cls.size
    triv = builtin_table("trivial")
    for cls in wreath_classes(triv, 5):
        assert wreath_class_size_formula(triv, cls.label) == cls.size


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
            lam = parse_wreath_label(["1"], lab)[0][1]
            for (clab, _), value in zip(table.classes, values):
                mu = parse_wreath_label(["e"], clab)[0][1]
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
        label = parse_wreath_label(["1", "-1"], lab)
        assert wreath_irrep_dim(z2, label) == dim


def test_wreath_table_needs_concrete_base(tmp_path):
    # a JSON-only H has no multiplication table to brute-force with
    path = tmp_path / "h.json"
    path.write_text(json.dumps(builtin_table("Z2").to_json_dict() | {"name": "myZ2"}))
    h = builtin_table(str(path))
    with pytest.raises(ValueError, match="multiplication"):
        wreath_char_table(h, 2)


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


def test_wreath_level_one_labels():
    assert enumerate_wreath_labels(2, 1) == (((0, (1,)),), ((1, (1,)),))


def test_wreath_label_text_round_trip():
    names = ["1", "-1"]
    for label in enumerate_wreath_labels(2, 4):
        assert parse_wreath_label(names, format_wreath_label(names, label)) == label
    with pytest.raises(ValueError):
        parse_wreath_label(names, "2:[1]")
    with pytest.raises(ValueError):
        parse_wreath_label(names, "1:[1];1:[1]")


def test_format_partition_helper():
    assert format_partition((3, 1)) == "[3,1]"
