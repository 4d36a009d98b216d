"""Ground-truth brute force: count monodromy tuples in the symmetric group.

The count is (1/d!) times the number of tuples (t_1, ..., t_r, s) with each
t_i a transposition, s of cycle type mu, and t_r ... t_1 s the identity,
optionally restricted to tuples whose entries generate a transitive group.
The equation fixes s as the inverse of t_r ... t_1, so the search enumerates
the C(d,2)^r transposition tuples once and solves for s rather than searching
for it: a tuple counts when its product has cycle type mu.

The search walks integer indices of S_d: left multiplication by each
transposition is a table of index rows, and each element's cycle type is
tabulated beside it.  A caller that runs many searches passes one `groups`
dict, so each S_d is indexed once per dict rather than once per call.

One loop runs over the prefixes (t_1, ..., t_{r-k}) and expands the last k
transpositions of each as one list of products, with k the largest value at
most r such that C(d,2)^k <= _BLOCK = 4096; so no list holds more than 4096
products.  The search is deliberately naive all the same: no pruning,
transitivity tested only on complete tuples, division by d! once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

from .partitions import Partition, cover_args

Perm = tuple[int, ...]
# d -> (lmul, types): lmul[t][i] is the index of transposition t times
# element i of S_d, and types[i] is element i's cycle type.
GroupTable = tuple[list[list[int]], list[Partition]]

# Most products the last levels of the search hold in one list.
_BLOCK = 4096

# Largest search size, as counted by `count_covers_bruteforce`, that it runs.
WORK_BOUND = 10**8


class WorkBoundExceeded(RuntimeError):
    """The requested search is larger than `WORK_BOUND`."""


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
    groups: dict[int, GroupTable] | None = None,
) -> Fraction:
    """Weighted count of factorizations t_r ... t_1 s = id by direct search.

    Every tuple (t_1, ..., t_r) of transpositions is enumerated once; s is
    solved for as the inverse of t_r ... t_1, which has the product's cycle
    type, so the tuple counts when that product has cycle type mu.  The
    prefixes (t_1, ..., t_{r-k}) come from `itertools.product`, each one's
    product read off by r - k table lookups from the identity; its last k
    levels expand into a list of at most 4096 products, in the order in which
    `itertools.product` lists the suffixes (t_{r-k+1}, ..., t_r).  A connected
    count tests each hit's complete tuple for transitivity.

    `groups` maps d to S_d's index rows and cycle types.  A missing entry is
    built and stored after the refusal check, so a refused call indexes
    nothing and adds no entry; without a dict, a fresh indexing is made.

    Refuses (rather than truncates) when the search's steps exceed
    `WORK_BOUND`: the C(d,2)^r tuples it enumerates, the r levels it walks
    (all of its work when d <= 2) and the cost d! (C(d,2) + 1) of indexing
    S_d, counted even when `groups` holds S_d; mu plays no part.  Lower bounds
    2^(d-1) <= d!, 2^(r (bits(C(d,2)) - 1)) <= C(d,2)^r (d >= 2) and r refuse
    first, so no number past the bound is built.  The refusal names the bound,
    d, r and len(mu), not the parts, which can run to hundreds of kilobytes.
    """
    mu = cover_args(d, r, mu)
    n_trans, bits = comb(d, 2), WORK_BOUND.bit_length()  # 2^n > WORK_BOUND iff n >= bits
    if (d - 1 >= bits or r * (n_trans.bit_length() - 1) >= bits or r > WORK_BOUND
            or n_trans**r + r + factorial(d) * (n_trans + 1) > WORK_BOUND):
        raise WorkBoundExceeded(
            f"search size exceeds work bound {WORK_BOUND} for d={d}, r={r}, len(mu)={len(mu)}"
        )

    transpositions = [(a, b) for a in range(d) for b in range(a + 1, d)]
    if groups is None:
        groups = {}
    if d not in groups:
        perms = list(permutations(range(d)))
        index = {p: i for i, p in enumerate(perms)}
        lmul = []
        for a, b in transpositions:
            swap = list(range(d))
            swap[a], swap[b] = b, a
            lmul.append([index[tuple(map(swap.__getitem__, p))] for p in perms])
        groups[d] = (lmul, [cycle_type(p) for p in perms])
    lmul, types = groups[d]
    hit = [ct == mu for ct in types]

    k = 0
    while k < r and n_trans ** (k + 1) <= _BLOCK:
        k += 1

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

    identity = 0  # `permutations` lists the identity first
    count = 0
    for prefix in product(range(n_trans), repeat=r - k):
        prod_idx = identity
        for t in prefix:
            prod_idx = lmul[t][prod_idx]
        # The last k levels: every product t_r ... t_1 after this prefix, in
        # the order itertools.product lists their transpositions.
        frontier = [prod_idx]
        for _ in range(k):
            frontier = [row[q] for q in frontier for row in lmul]
        if not connected:
            count += sum(map(hit.__getitem__, frontier))
            continue
        for q, suffix in zip(frontier, product(range(n_trans), repeat=k)):
            if hit[q] and joins_all_points(prefix + suffix):
                count += 1
    return Fraction(count, factorial(d))
