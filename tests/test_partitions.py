import itertools
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

from charcol.partitions import (
    add_one_box,
    below_first_row,
    class_size,
    class_sign,
    conjugate,
    content_sum,
    dim_irrep,
    enumerate_partitions,
    format_partition,
    mirrored_order,
    multiplicities,
    pad_with_fixed_points,
    parse_partition,
    remove_one_box,
    strip_fixed_points,
)


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def count_standard_tableaux(shape):
    """Independent oracle for irrep dimensions: walk Young's lattice down."""
    if sum(shape) == 0:
        return 1
    return sum(count_standard_tableaux(below) for below in remove_one_box(shape))


def brute_class_size(mu):
    """Independent oracle: count permutations of S_n with cycle type mu."""
    n = sum(mu)
    count = 0
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        lengths = []
        for start in range(n):
            if seen[start]:
                continue
            length, i = 0, start
            while not seen[i]:
                seen[i] = True
                length += 1
                i = perm[i]
            lengths.append(length)
        if tuple(sorted(lengths, reverse=True)) == mu:
            count += 1
    return count


def test_enumerate_small():
    assert enumerate_partitions(0) == ((),)
    assert enumerate_partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_enumerate_six_prefix():
    parts = enumerate_partitions(6)
    assert len(parts) == 11
    assert parts[:6] == ((6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1))


def test_conjugate_examples():
    assert conjugate((4, 2)) == (2, 2, 1, 1)
    assert conjugate((3, 2, 1)) == (3, 2, 1)
    for n in range(1, 8):
        assert conjugate((n,)) == (1,) * n


def test_dim_examples_against_tableau_count():
    assert dim_irrep((3, 2)) == count_standard_tableaux((3, 2)) == 5
    assert dim_irrep((3, 2, 1)) == count_standard_tableaux((3, 2, 1)) == 16
    for n in range(1, 8):
        assert dim_irrep((n,)) == 1


def test_class_size_examples():
    assert class_size((1, 1, 1, 1)) == 1
    assert class_size((2, 1, 1, 1, 1)) == brute_class_size((2, 1, 1, 1, 1)) == 15
    assert class_size((3, 1)) == brute_class_size((3, 1)) == 8


def test_dim_squares_sum_to_factorial():
    for n in range(0, 11):
        assert sum(dim_irrep(p) ** 2 for p in enumerate_partitions(n)) == factorial(n)


def test_class_sizes_sum_to_factorial():
    for n in range(0, 11):
        assert sum(class_size(mu) for mu in enumerate_partitions(n)) == factorial(n)


def test_conjugate_is_involution_up_to_12():
    for n in range(0, 13):
        for p in enumerate_partitions(n):
            assert conjugate(conjugate(p)) == p


def test_dim_invariant_under_conjugation():
    for n in range(1, 11):
        for p in enumerate_partitions(n):
            assert dim_irrep(p) == dim_irrep(conjugate(p))


@given(partition_strategy())
def test_conjugate_preserves_size(p):
    assert sum(conjugate(p)) == sum(p)
    assert conjugate(conjugate(p)) == p


@given(partition_strategy())
def test_boxes_below_first_row(p):
    assert below_first_row(p) == sum(p) - p[0]


@given(partition_strategy())
def test_remove_add_round_trip(p):
    for below in remove_one_box(p):
        assert sum(below) == sum(p) - 1
        assert p in add_one_box(below)


@given(partition_strategy())
def test_content_sum_counts_boxes_and_flips_under_conjugation(p):
    assert content_sum(p) == sum(j - i for i, row in enumerate(p) for j in range(row))
    assert content_sum(conjugate(p)) == -content_sum(p)


@given(partition_strategy())
def test_multiplicity_view(mu):
    assert sum(i * m for i, m in multiplicities(mu).items()) == sum(mu)


@given(partition_strategy())
def test_text_round_trip(p):
    assert parse_partition(format_partition(p)) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_partition("[oops]")
    with pytest.raises(ValueError):
        parse_partition("[1,2]")  # increasing


def test_strip_and_pad():
    assert strip_fixed_points((3, 1, 1, 1)) == (3,)
    assert pad_with_fixed_points((3,), 6) == (3, 1, 1, 1)
    with pytest.raises(ValueError):
        pad_with_fixed_points((3, 2), 4)


def test_class_sign():
    assert class_sign((2, 1, 1)) == -1
    assert class_sign((3, 1)) == 1
    assert class_sign((2, 2)) == 1


def test_mirrored_order_n6_swaps_the_middle_pair():
    canonical = enumerate_partitions(6)
    mirrored = mirrored_order(6)
    assert mirrored[:6] == canonical[:6]
    assert mirrored[6] == (2, 2, 2) and mirrored[7] == (3, 1, 1, 1)
    assert sorted(mirrored) == sorted(canonical)


def test_mirrored_order_small_n_matches_canonical():
    for n in (2, 3, 4, 5):
        assert mirrored_order(n) == enumerate_partitions(n)
