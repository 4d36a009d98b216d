"""Ground-truth brute force: count monodromy tuples in the symmetric group.

The count is (1/d!) times the number of tuples (t_1, ..., t_r, s) with each
t_i a transposition, s of cycle type mu, and t_r ... t_1 s the identity,
optionally restricted to tuples whose entries generate a transitive group.
The equation fixes s as the inverse of t_r ... t_1, so the search enumerates
the C(d,2)^r transposition tuples once and solves for s rather than searching
for it: a tuple counts when its product has cycle type mu.

The enumeration recurses depth first over the first r - k transpositions and
expands the last k as one list of products per prefix, with k the largest
value at most r such that C(d,2)^k <= _BLOCK = 4096; so no list holds more
than 4096 products.  The search is deliberately naive all the same: no
pruning, transitivity tested only on complete tuples, division by d! once at
the end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

from .partitions import Partition, as_partition, conj_class_size

Perm = tuple[int, ...]

# Most products the last levels of the search hold in one list.
_BLOCK = 4096


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
    type, so the tuple counts when that product has cycle type mu.  Each
    prefix (t_1, ..., t_{r-k}) of the depth-first search expands its last k
    levels into a list of at most 4096 products, in the order in which
    `itertools.product` lists the suffixes (t_{r-k+1}, ..., t_r); a connected
    count tests each hit's complete tuple for transitivity.

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
        [index[tuple(map(t.__getitem__, p))] for p in perms] for t in trans_perms
    ]
    hit = [cycle_type(p) == mu for p in perms]

    n_trans = len(lmul)
    k = 0
    while k < r and n_trans ** (k + 1) <= _BLOCK:
        k += 1
    path: list[int] = []

    def joins_all_points(edge_ids) -> bool:
        # Union-find over the points; s lies in the group the transpositions
        # generate, so it adds no orbit to test.
        parent = list(range(d))
        remaining = d
        for t in edge_ids:
            a, b = transpositions[t]
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[a] = b
                remaining -= 1
        return remaining == 1

    def rec(depth: int, prod_idx: int) -> int:
        if depth == r - k:
            # The last k levels: every product t_r ... t_1 below this prefix,
            # in the order itertools.product lists their transpositions.
            frontier = [prod_idx]
            for _ in range(k):
                frontier = [row[p] for p in frontier for row in lmul]
            if not connected:
                return sum(map(hit.__getitem__, frontier))
            count = 0
            for p, suffix in zip(frontier, product(range(n_trans), repeat=k)):
                if hit[p] and joins_all_points((*path, *suffix)):
                    count += 1
            return count
        count = 0
        for t in range(n_trans):
            path.append(t)
            count += rec(depth + 1, lmul[t][prod_idx])
            path.pop()
        return count

    return Fraction(rec(0, index[tuple(range(d))]), factorial(d))
