"""Ground-truth brute force: count monodromy tuples in the symmetric group.

The count is (1/d!) times the number of tuples (t_1, ..., t_r, s) with each
t_i a transposition, s of cycle type mu, and t_r ... t_1 s the identity,
optionally restricted to tuples whose entries generate a transitive group.
The equation fixes s as the inverse of t_r ... t_1, so the search enumerates
the C(d,2)^r transposition tuples once and solves for s rather than searching
for it: a tuple counts when its product has cycle type mu.  The search is
deliberately naive: no pruning, transitivity tested only on complete tuples,
division by d! once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

from .partitions import Partition, as_partition, conj_class_size

Perm = tuple[int, ...]


class WorkBoundExceeded(RuntimeError):
    """The requested search is larger than the configured work bound."""


def cycle_type(perm: Perm) -> Partition:
    """Cycle type of a permutation of {0, ..., d-1} in one-line notation."""
    d = len(perm)
    seen = [False] * d
    lengths = []
    for start in range(d):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def count_covers_bruteforce(
    d: int,
    r: int,
    mu,
    connected: bool = False,
    work_bound: int = 10**8,
) -> Fraction:
    """Weighted count of factorizations t_r ... t_1 s = id by direct search.

    Every tuple (t_1, ..., t_r) of transpositions is enumerated once; s is
    solved for as the inverse of t_r ... t_1, which has the product's cycle
    type, so the tuple counts when that product has cycle type mu.

    Refuses (rather than truncates) when class size times C(d,2)^r, plus the
    group-indexing cost d! (C(d,2) + 1), exceeds the work bound.  That is an
    upper bound on the search, kept as the refusal rule so that the same
    inputs are refused as by a search from every s in the class.
    """
    mu = as_partition(mu)
    if sum(mu) != d or d < 1:
        raise ValueError(f"{mu} is not a partition of {d} >= 1")
    if r < 0:
        raise ValueError("r must be non-negative")
    work = conj_class_size(mu) * comb(d, 2) ** r + factorial(d) * (comb(d, 2) + 1)
    if work > work_bound:
        raise WorkBoundExceeded(
            f"search size {work} exceeds work bound {work_bound} for d={d}, r={r}, mu={mu}"
        )

    transpositions = [(a, b) for a in range(d) for b in range(a + 1, d)]
    trans_perms: list[Perm] = []
    for a, b in transpositions:
        img = list(range(d))
        img[a], img[b] = b, a
        trans_perms.append(tuple(img))

    # Index the full symmetric group once and tabulate left multiplication by
    # each transposition; the search then walks integer indices.
    perms = list(permutations(range(d)))
    index = {p: i for i, p in enumerate(perms)}
    lmul = [
        [index[tuple(t[p[i]] for i in range(d))] for p in perms] for t in trans_perms
    ]
    hit = [cycle_type(p) == mu for p in perms]

    total = _search(r, index[tuple(range(d))], lmul, hit, transpositions if connected else None, d)
    return Fraction(total, factorial(d))


def _search(r: int, start: int, lmul, hit: list[bool], edges, d: int) -> int:
    """Complete r-tuples whose product t_r ... t_1 is a hit.

    With `edges` given, a tuple also has to join all d points: s lies in the
    group its transpositions generate, so s adds no orbit to test.
    """
    n_trans = len(lmul)
    path: list[int] = []

    def joins_all_points() -> bool:
        parent = list(range(d))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        remaining = d
        for t in path:
            a, b = edges[t]
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                remaining -= 1
        return remaining == 1

    def rec(depth: int, prod_idx: int) -> int:
        if depth == r:
            if not hit[prod_idx]:
                return 0
            return 1 if edges is None or joins_all_points() else 0
        count = 0
        for t in range(n_trans):
            path.append(t)
            count += rec(depth + 1, lmul[t][prod_idx])
            path.pop()
        return count

    return rec(0, start)
