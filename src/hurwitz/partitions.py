"""Integer partitions, multi-indices, and their elementary combinatorics.

A partition is a weakly decreasing tuple of positive integers; the empty
tuple is the empty partition.  A multi-index is any finite sequence of
positive integers, order irrelevant for every quantity defined here.
"""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import Iterable, Sequence

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate and return a canonical partition: a tuple `sort_to_partition` leaves as it is."""
    t = tuple(parts)
    if sort_to_partition(t) != t:
        raise ValueError(f"not a partition: {t!r}")
    return t


def cover_args(d: int, r: int, mu: Iterable[int]) -> Partition:
    """Check the arguments of a cover count and return mu as a partition.

    The cover counts are defined for d >= 1 points, a profile mu of d and
    r >= 0 simple branch points.
    """
    mu = as_partition(mu)
    if sum(mu) != d or d < 1:
        raise ValueError(f"({format_partition(mu)}) is not a partition of {d} >= 1")
    if r < 0:
        raise ValueError("r must be non-negative")
    return mu


def sort_to_partition(k: Iterable[int]) -> Partition:
    """Canonical partition underlying a multi-index (descending sort) of exact positive `int`s."""
    t = tuple(k)
    if not all(type(p) is int and p >= 1 for p in t):
        raise ValueError(f"not a partition: {t!r}")
    return tuple(sorted(t, reverse=True))


def hurwitz_key(g: int, mu: Iterable[int]) -> tuple[int, Partition]:
    """The canonical key (g, mu sorted descending) of a connected Hurwitz number.

    A key is an exact `int` genus g >= 0 and a nonempty multi-index of exact
    positive `int`s; anything else raises ValueError, with one message per
    fault for every caller: library calls, cache lines and argv alike.
    """
    if type(g) is not int:
        raise ValueError(f"genus is not an integer: {g!r}")
    if g < 0:
        raise ValueError("genus must be non-negative")
    mu = sort_to_partition(mu)
    if not mu:
        raise ValueError("empty ramification profile")
    return g, mu


def branch_count(g: int, mu: Partition) -> int:
    """Riemann-Hurwitz count 2g - 2 + len(mu) + |mu| of simple branch points at a canonical key."""
    return 2 * g - 2 + len(mu) + sum(mu)


def key_order(key: tuple[int, Partition]) -> tuple:
    """The canonical key order: branch count, genus, weight, then reverse-lexicographic profile."""
    g, mu = key
    return (branch_count(g, mu), g, sum(mu), [-p for p in mu])


def format_partition(mu: Partition) -> str:
    """The printed profile: parts joined by commas, as in `2,1`."""
    return ",".join(map(str, mu))


def partitions_of(n: int, max_len: int | None = None) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order.

    Only partitions with at most max_len parts are listed, when that bound is
    given.  The order is the canonical enumeration order throughout the
    package so that derived artifacts (caches, reports, tables) are
    byte-stable.  A plain recursion extends one prefix at a time and prunes
    a branch whose parts left cannot reach the remainder; nothing is memoized.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    length = n if max_len is None else max_len
    out: list[Partition] = []

    def build(prefix: Partition, rem: int, largest: int, slots: int) -> None:
        if rem == 0:
            out.append(prefix)
        elif largest * slots >= rem:  # else the allowed parts cannot reach rem
            for first in range(min(largest, rem), 0, -1):
                build((*prefix, first), rem - first, first, slots - 1)

    if length >= 0:
        build((), n, n, length)
    return out


def centralizer_order(lam: Sequence[int]) -> int:
    """prod n^{m_n} m_n!  (order of the centralizer of a permutation of this cycle type)."""
    z = 1
    for n, m in Counter(lam).items():
        z *= n**m * factorial(m)
    return z


def conjugate(lam: Partition) -> Partition:
    """Transposed Young diagram."""
    lam = as_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def hook_product(lam: Partition) -> int:
    """Product of hook lengths arm + leg + 1 over all boxes; 1 for the empty diagram."""
    lam = as_partition(lam)
    conj = conjugate(lam)
    out = 1
    for i, row in enumerate(lam):
        for j in range(row):
            out *= (row - j - 1) + (conj[j] - i - 1) + 1
    return out


def dim_irrep(lam: Partition) -> int:
    """|lam|! / hook product: dimension of the irreducible, also the standard tableaux count."""
    lam = as_partition(lam)
    n = sum(lam)
    num, den = factorial(n), hook_product(lam)
    assert num % den == 0
    return num // den


def content_sum(lam: Partition) -> int:
    """Sum of box contents j - i, equal to sum lam_i (lam_i - 2i + 1) / 2; always an integer."""
    lam = as_partition(lam)
    total = sum(p * (p - 2 * i + 1) for i, p in enumerate(lam, start=1))
    assert total % 2 == 0
    return total // 2
