import json
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from hurwitz import (
    HurwitzCache,
    cache_load,
    centralizer_order,
    coefficient_audit,
    conj_class_size,
    conjugate,
    connected_from_log,
    content_sum,
    dim_irrep,
    hook_product,
    hurwitz_key,
    hurwitz_number,
    one_part_closed,
    one_part_closed_stirling,
    partitions_of,
    ramification,
    sort_to_partition,
)
from hurwitz.partitions import as_partition, cover_args


def brute_partitions(n):
    """Independent enumeration oracle: all weakly decreasing positive tuples summing to n."""
    if n == 0:
        return {()}
    out = set()
    for first in range(1, n + 1):
        for rest in brute_partitions(n - first):
            if not rest or first >= rest[0]:
                out.add((first,) + rest)
    return out


PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]  # frozen from the oracle


@st.composite
def partitions(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    options = partitions_of(n)
    return options[draw(st.integers(min_value=0, max_value=len(options) - 1))]


def test_partitions_of_examples():
    assert partitions_of(0) == [()]
    assert partitions_of(1) == [(1,)]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_of_matches_bruteforce_oracle():
    for n in range(11):
        got = partitions_of(n)
        assert len(got) == len(set(got)) == PARTITION_COUNTS[n]
        assert set(got) == brute_partitions(n)


def test_partitions_of_reverse_lex_order():
    for n in range(9):
        listing = partitions_of(n)
        assert listing == sorted(listing, key=lambda mu: tuple(-p for p in mu))


def _reference_partitions(n, max_len=None):
    """Reverse-lexicographic partitions of n by nested generators."""

    def gen(rem, largest):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, largest), 0, -1):
            for rest in gen(rem - first, first):
                yield (first, *rest)

    return [mu for mu in gen(n, n) if max_len is None or len(mu) <= max_len]


def test_partitions_of_matches_the_generator_reference():
    for n in range(23):
        assert partitions_of(n) == _reference_partitions(n)
        for max_len in range(-1, n + 2):
            assert partitions_of(n, max_len=max_len) == _reference_partitions(n, max_len), (n, max_len)


def test_validation():
    assert as_partition((3, 1)) == (3, 1) and as_partition(()) == ()
    assert as_partition([2, 2, 1]) == (2, 2, 1)
    for parts in [(1, 3), (2, 0), (1, 2)]:
        with pytest.raises(ValueError) as info:
            as_partition(parts)
        assert str(info.value) == f"not a partition: {parts!r}"


def test_centralizer_order():
    assert centralizer_order((3,)) == 3
    assert centralizer_order((1, 1)) == 2
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order(()) == 1


def test_conjugate_examples():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3,)) == (1, 1, 1)
    assert conjugate(()) == ()


def test_conjugate_involution():
    for n in range(13):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_hook_product():
    assert hook_product((2, 1)) == 3
    assert hook_product(()) == 1
    for n in range(1, 8):
        assert hook_product((n,)) == factorial(n)


def test_dim_irrep():
    assert dim_irrep((2, 1)) == 2
    for n in range(1, 9):
        assert dim_irrep((1,) * n) == 1
        for r in range(1, n + 1):
            assert dim_irrep((r,) + (1,) * (n - r)) == comb(n - 1, r - 1)


def test_dim_times_hook_is_factorial():
    for n in range(11):
        for lam in partitions_of(n):
            assert dim_irrep(lam) * hook_product(lam) == factorial(n)


def test_conj_class_size():
    assert conj_class_size((2,)) == 1
    assert conj_class_size((3,)) == 2
    assert conj_class_size((2, 1)) == 3


def test_class_sizes_and_dims_sum_to_group_order():
    for n in range(1, 11):
        parts = partitions_of(n)
        assert sum(conj_class_size(mu) for mu in parts) == factorial(n)
        assert sum(dim_irrep(lam) ** 2 for lam in parts) == factorial(n)


def test_content_sum():
    assert content_sum((2,)) == 1
    assert content_sum((1, 1)) == -1
    assert content_sum(()) == 0


def test_content_sum_antisymmetric_under_conjugation():
    for n in range(11):
        for lam in partitions_of(n):
            assert content_sum(lam) + content_sum(conjugate(lam)) == 0


def test_ramification():
    assert ramification(0, (1,)) == 0
    assert ramification(1, (3,)) == 4
    assert ramification(0, (2,)) == 1
    with pytest.raises(ValueError):
        ramification(0, ())
    with pytest.raises(ValueError, match="^genus must be non-negative$"):
        ramification(-1, (2,))
    with pytest.raises(ValueError):
        ramification(0, (2, 0))


def test_sort_to_partition():
    assert sort_to_partition((1, 3, 2)) == (3, 2, 1)
    assert sort_to_partition(()) == ()
    assert sort_to_partition((2, 2)) == (2, 2)
    with pytest.raises(ValueError):
        sort_to_partition((2, -1))


@pytest.mark.parametrize("g", [True, False, 1.0, "1"])
def test_ramification_refuses_a_genus_that_is_not_an_int(g):
    with pytest.raises(ValueError) as info:
        ramification(g, (2,))
    assert str(info.value) == f"genus is not an integer: {g!r}"


@pytest.mark.parametrize(
    "parts", [(True,), (2, True), (True, True, True), (2.5,), (2, 1.0), (2, "1"), (2, None)]
)
def test_partition_checks_refuse_bools(parts):
    with pytest.raises(ValueError, match="not a partition"):
        as_partition(parts)
    with pytest.raises(ValueError):
        sort_to_partition(parts)
    with pytest.raises(ValueError, match="not a partition"):
        ramification(0, parts)


def test_cover_args():
    assert cover_args(3, 0, [2, 1]) == (2, 1)
    assert cover_args(1, 5, (1,)) == (1,)
    for d, r, mu, message in [
        (0, 0, (), "() is not a partition of 0 >= 1"),
        (3, 1, (2,), "(2) is not a partition of 3 >= 1"),
        (2, -1, (2,), "r must be non-negative"),
    ]:
        with pytest.raises(ValueError) as info:
            cover_args(d, r, mu)
        assert str(info.value) == message
    with pytest.raises(ValueError, match="not a partition"):
        cover_args(3, 1, (1, 2))


@given(partitions(max_n=9), st.randoms(use_true_random=False))
def test_multiindex_functions_are_permutation_invariant(lam, rng):
    shuffled = list(lam)
    rng.shuffle(shuffled)
    assert sort_to_partition(shuffled) == lam
    if lam:
        assert ramification(2, shuffled) == ramification(2, lam)


def test_hurwitz_key_returns_the_sorted_profile():
    assert hurwitz_key(0, (1,)) == (0, (1,))
    assert hurwitz_key(2, [1, 3, 1]) == (2, (3, 1, 1))
    assert hurwitz_key(5, iter((2, 4))) == (5, (4, 2))


BAD_KEYS = [
    (True, (2,), "genus is not an integer: True"),
    (1.5, (3,), "genus is not an integer: 1.5"),
    (-1, (2,), "genus must be non-negative"),
    (0, (), "empty ramification profile"),
    (0, (2, 0), "not a partition: (2, 0)"),
    (0, (True,), "not a partition: (True,)"),
    (0, (2, "1"), "not a partition: (2, '1')"),
]


@pytest.mark.parametrize("g, mu, message", BAD_KEYS)
def test_every_entry_point_refuses_a_bad_key_with_one_message(tmp_path, g, mu, message):
    cache = HurwitzCache()
    calls = [
        hurwitz_key,
        ramification,
        hurwitz_number,
        connected_from_log,
        coefficient_audit,
        lambda g, mu: cache.insert(g, mu, Fraction(1, 2)),
    ]
    if len(mu) == 1:
        calls += [lambda g, mu: one_part_closed(g, mu[0]), lambda g, mu: one_part_closed_stirling(g, mu[0])]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call(g, mu)
        assert str(info.value) == message
    assert cache.twice == {}
    # A cache line carries the same key when the loader's JSON-type check
    # lets it through: a JSON array of JSON integers (a bool is not one).
    if all(type(p) is int for p in mu):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"g": g, "mu": list(mu), "num": "1", "den": "2"}) + "\n")
        with pytest.raises(ValueError) as info:
            cache_load(str(path))
        assert str(info.value) == f"{path}:1: malformed cache line: {message}"
