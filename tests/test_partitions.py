import itertools
import re
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

from charcol.partitions import (
    check_partition,
    class_size,
    class_sign,
    conjugate,
    content_sum,
    dim_irrep,
    enumerate_partitions,
    format_partition,
    mirrored_order,
    mn_character,
    pad_with_fixed_points,
    parse_partition,
    remove_one_box,
    rim_hooks,
    strip_fixed_points,
)


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def add_one_box(p):
    """Partitions covering p in Young's lattice."""
    out = []
    for i in range(len(p) + 1):
        prev = p[i - 1] if i > 0 else None
        cur = p[i] if i < len(p) else 0
        if prev is None or prev > cur:
            out.append(p[:i] + (cur + 1,) + p[i + 1 :] if i < len(p) else p + (1,))
    return out


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


def test_enumerate_matches_the_lattice_built_box_by_box():
    # an independent route: every partition of n covers one of n - 1
    level = {()}
    for n in range(1, 15):
        level = {up for p in level for up in add_one_box(p)}
        assert enumerate_partitions(n) == tuple(sorted(level, reverse=True)), n
    assert [len(enumerate_partitions(n)) for n in (20, 28)] == [627, 3718]


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


def test_conjugate_matches_its_definition_up_to_20():
    # column j of the diagram holds one box of each row longer than j
    for n in range(0, 21):
        for p in enumerate_partitions(n):
            assert conjugate(p) == tuple(sum(1 for x in p if x > j) for j in range(p[0] if p else 0)), p


def test_dim_invariant_under_conjugation():
    for n in range(1, 11):
        for p in enumerate_partitions(n):
            assert dim_irrep(p) == dim_irrep(conjugate(p))


@given(partition_strategy())
def test_conjugate_preserves_size(p):
    assert sum(conjugate(p)) == sum(p)
    assert conjugate(conjugate(p)) == p


@given(partition_strategy())
def test_remove_add_round_trip(p):
    for below in remove_one_box(p):
        assert sum(below) == sum(p) - 1
        assert p in add_one_box(below)


def test_remove_one_box_lists_every_covered_partition_top_to_bottom():
    for n in range(1, 11):
        for p in enumerate_partitions(n):
            covered = [q for q in enumerate_partitions(n - 1) if p in add_one_box(q)]
            assert remove_one_box(p) == sorted(covered), p


@given(partition_strategy())
def test_content_sum_counts_boxes_and_flips_under_conjugation(p):
    assert content_sum(p) == sum(j - i for i, row in enumerate(p) for j in range(row))
    assert content_sum(conjugate(p)) == -content_sum(p)


@given(partition_strategy())
def test_multiplicity_view(mu):
    assert sum(i * m for i, m in Counter(mu).items()) == sum(mu)


@given(partition_strategy())
def test_text_round_trip(p):
    assert parse_partition(format_partition(p)) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_partition("[oops]")
    with pytest.raises(ValueError, match=r"^partition parts must be weakly decreasing: \(1, 2\)$"):
        parse_partition("[1,2]")  # increasing


def test_parse_reads_brackets_around_blanks_as_empty():
    assert parse_partition("[ ]") == ()


@pytest.mark.parametrize("parts", [(2.7, 1.2), ("3", "1"), (True,), (2, 1.0)])
def test_check_partition_refuses_parts_that_are_not_ints(parts):
    # int() would truncate them: (2.7, 1.2) read as [2,1], ("3", "1") as [3,1]
    with pytest.raises(ValueError, match=f"^{re.escape(f'partition parts must be integers: {parts}')}$"):
        check_partition(parts)


@pytest.mark.parametrize("parts, mu", [((2.7, 1.2), (1, 1, 1)), (("3", "1"), (2, 2))])
def test_mn_character_refuses_parts_that_int_would_truncate(parts, mu):
    mn_character(tuple(map(int, parts)), mu)  # the truncated reading is memoized, and is not their key
    with pytest.raises(ValueError, match=f"^{re.escape(f'partition parts must be integers: {parts}')}$"):
        mn_character(parts, mu)


@pytest.mark.parametrize("mu, problem", [
    ((3, -1, 1), "positive: (3, 1, -1)"),
    ((1, 1, 0, 1), "positive: (1, 1, 1, 0)"),
    ((True, 2), "integers: (2, True)"),
    ((2.5, 0.5), "integers: (2.5, 0.5)"),  # named whole, not by the (0.5,) left after one strip
])
def test_mn_character_refuses_a_cycle_type_that_is_not_a_partition(mu, problem):
    # mu is checked once sorted, inside the memo; a key equal to a memoized one
    # would be served unchecked, so the memo starts empty
    mn_character.cache_clear()
    with pytest.raises(ValueError, match=f"^{re.escape(f'partition parts must be {problem}')}$"):
        mn_character((2, 1), mu)


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


def border_strip_sign(lam, mu):
    """(-1)^(rows - 1) if lam/mu is a border strip (connected, with no 2x2
    square of cells), else None: the definition, cell by cell."""
    cells = {(i, j) for i, row in enumerate(lam) for j in range(mu[i] if i < len(mu) else 0, row)}
    if not cells or any({(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cells for i, j in cells):
        return None
    seen, frontier = set(), [min(cells)]
    while frontier:
        i, j = frontier.pop()
        if (i, j) in cells and (i, j) not in seen:
            seen.add((i, j))
            frontier += [(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)]
    return (-1) ** (len({i for i, _ in cells}) - 1) if seen == cells else None


def test_rim_hooks_are_the_border_strips_of_their_definition():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            for r in range(1, n + 1):
                inside = [mu for mu in enumerate_partitions(n - r)
                          if len(mu) <= len(lam) and all(a <= b for a, b in zip(mu, lam))]
                strips = [(sign, mu) for mu in inside if (sign := border_strip_sign(lam, mu))]
                assert sorted(rim_hooks(lam, r), key=lambda s: s[1]) == sorted(strips, key=lambda s: s[1]), (lam, r)
