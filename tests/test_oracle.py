import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest

import hurwitz.oracle
from hurwitz import (
    WorkBoundExceeded,
    centralizer_order,
    count_covers_bruteforce,
    disconnected_count_charsum,
    hurwitz_number,
    partitions_of,
)
from hurwitz.cli import main
from hurwitz.oracle import WORK_BOUND, cycle_type


def test_cycle_type():
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 0)) == (3,)


def _class_of(mu):
    return [p for p in permutations(range(sum(mu))) if cycle_type(p) == mu]


def test_enumerate_class_examples():
    assert _class_of((1, 1)) == [(0, 1)]
    assert _class_of((2,)) == [(1, 0)]
    assert len(_class_of((3,))) == 2


def test_enumerate_class_sizes():
    for d in range(1, 7):
        sizes = Counter(cycle_type(p) for p in permutations(range(d)))
        assert sizes == {mu: factorial(d) // centralizer_order(mu) for mu in partitions_of(d)}


def test_count_examples():
    assert count_covers_bruteforce(1, 0, (1,), connected=False) == 1
    assert count_covers_bruteforce(1, 0, (1,), connected=True) == 1
    assert count_covers_bruteforce(2, 1, (2,), connected=True) == Fraction(1, 2)
    assert count_covers_bruteforce(3, 2, (3,), connected=True) == 1
    assert count_covers_bruteforce(4, 4, (3, 1), connected=True) == 27


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        count_covers_bruteforce(3, 1, (2,))
    with pytest.raises(ValueError):
        count_covers_bruteforce(2, -1, (2,))


def test_a_connected_search_counts_its_transitivity_tests(monkeypatch):
    # 6^5 = 7,776 tuples, 5 levels and 168 indexing steps: 7,949 runs at 10^4.
    # Connected, each hit is also tested over its 5 transpositions:
    # 6 x 7,776 + 173 = 46,829 is refused.  It is the rule's first test, so
    # the mutation gate names it as the killer of a rule without that term.
    monkeypatch.setattr(hurwitz.oracle, "WORK_BOUND", 10**4)
    assert count_covers_bruteforce(4, 5, (2, 1, 1)) == disconnected_count_charsum(4, 5, (2, 1, 1))
    with pytest.raises(WorkBoundExceeded) as exc:
        count_covers_bruteforce(4, 5, (2, 1, 1), connected=True)
    assert str(exc.value) == "search size exceeds work bound 10000 for d=4, r=5, len(mu)=3"


class _Indexed(Exception):
    """Raised in place of indexing S_d: the call got past its refusal check."""


def test_refusal_rule_and_message(monkeypatch):
    def no_indexing(*args):
        raise _Indexed

    monkeypatch.setattr(hurwitz.oracle, "permutations", no_indexing)
    with pytest.raises(WorkBoundExceeded):  # at the default bound
        count_covers_bruteforce(12, 0, (1,) * 12)
    # At 10, the r levels alone decide ten (d, r) pairs with d <= 2.  A
    # connected count also tests each hit over its r transpositions.
    for bound in (10, 10**3, 10**5):
        monkeypatch.setattr(hurwitz.oracle, "WORK_BOUND", bound)
        for d in range(1, 9):
            for mu in partitions_of(d):
                for r in range(13):
                    for connected in (False, True):
                        work = comb(d, 2) ** r * (1 + r * connected) + r + factorial(d) * (comb(d, 2) + 1)
                        if work > bound:
                            with pytest.raises(WorkBoundExceeded) as exc:
                                count_covers_bruteforce(d, r, mu, connected=connected)
                            assert str(exc.value) == (
                                f"search size exceeds work bound {bound} for d={d}, r={r}, len(mu)={len(mu)}"
                            )
                        else:
                            with pytest.raises(_Indexed):
                                count_covers_bruteforce(d, r, mu, connected=connected)
    monkeypatch.setattr(hurwitz.oracle, "WORK_BOUND", 10**6)
    with pytest.raises(WorkBoundExceeded) as exc:
        count_covers_bruteforce(6, 9, (6,))
    assert str(exc.value) == "search size exceeds work bound 1000000 for d=6, r=9, len(mu)=1"


class _Built(Exception):
    """Raised in place of d!: the call got past the lower bounds to the exact sum."""


def test_a_refusal_by_a_lower_bound_builds_no_term(monkeypatch):
    def no_factorial(n):
        raise _Built

    monkeypatch.setattr(hurwitz.oracle, "factorial", no_factorial)
    # At the default bound (27 bits) each (d, r) passes one lower bound alone:
    # 2^(d-1) <= d!, 2^(r (bits(C(d,2)) - 1)) <= C(d,2)^r, or r <= steps.
    for d, r in [(28, 0), (10**6, 0), (3, 27), (27, 27), (2, 10**8 + 1), (1, 10**8 + 1)]:
        with pytest.raises(WorkBoundExceeded):
            count_covers_bruteforce(d, r, (d,))
    # 10! (C(10,2) + 1) > 10^8 passes none of them: the exact sum refuses it.
    with pytest.raises(_Built):
        count_covers_bruteforce(10, 0, (10,))


def test_a_search_the_class_size_no_longer_refuses_runs(monkeypatch, shared_cache):
    # 6^4 = 1,296 tuples, 4 levels and 4! (6 + 1) = 168 indexing steps: 1,468,
    # and 5 x 1,296 + 172 = 6,652 for a connected count, which tests each hit
    # over its 4 transpositions.  The class size 8 of (3, 1) is no factor:
    # 8 x 1,296 + 168 would pass 10^4.
    monkeypatch.setattr(hurwitz.oracle, "WORK_BOUND", 10**4)
    assert count_covers_bruteforce(4, 4, (3, 1)) == disconnected_count_charsum(4, 4, (3, 1))
    assert count_covers_bruteforce(4, 4, (3, 1), connected=True) == hurwitz_number(0, (3, 1), shared_cache)


@pytest.mark.parametrize("g, mu, parts", [("2", "1,1,1,1", 4), ("3", "2,2", 2), ("3", "3,1", 2)])
def test_the_cli_refuses_a_connected_search_past_the_bound(capsys, tmp_path, g, mu, parts):
    # 6^10 = 6.0e7 tuples alone pass; 11 x 6^10, with each hit tested over
    # its 10 transpositions, does not.
    cache = tmp_path / "cache.jsonl"
    assert main(["compute", g, mu, "--method", "oracle", "--cache", str(cache)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"refused: search size exceeds work bound {WORK_BOUND} for d=4, r=10, len(mu)={parts}\n"
    assert not cache.exists()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
def test_refusal_of_a_size_past_the_default_int_digit_limit():
    # The search size has 12,596 digits, past the 4,300 that str() of
    # an int converts by default, so the message must not print it.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        with pytest.raises(WorkBoundExceeded) as exc:
            count_covers_bruteforce(2000, 1999, (2000,))
    finally:
        sys.set_int_max_str_digits(old)
    assert str(exc.value) == f"search size exceeds work bound {WORK_BOUND} for d=2000, r=1999, len(mu)=1"


def test_refused_call_leaves_the_groups_table_alone(monkeypatch):
    groups = {}
    count_covers_bruteforce(3, 2, (3,), groups=groups)

    def no_indexing(*args):
        raise _Indexed

    monkeypatch.setattr(hurwitz.oracle, "permutations", no_indexing)
    monkeypatch.setattr(hurwitz.oracle, "WORK_BOUND", 10**6)
    with pytest.raises(WorkBoundExceeded):
        count_covers_bruteforce(6, 9, (6,), groups=groups)
    assert list(groups) == [3]
    # An entry already in the table is read, not rebuilt.
    assert count_covers_bruteforce(3, 2, (3,), connected=True, groups=groups) == 1


def test_shared_groups_table_gives_the_same_counts():
    # The grid of `verify --with-oracle`: d <= 5, r <= 5, every mu, both flags.
    groups = {}
    for d in range(1, 6):
        for mu in partitions_of(d):
            for r in range(6):
                for connected in (False, True):
                    shared = count_covers_bruteforce(d, r, mu, connected=connected, groups=groups)
                    fresh = count_covers_bruteforce(d, r, mu, connected=connected)
                    assert shared == fresh, (d, r, mu, connected)
    assert sorted(groups) == [1, 2, 3, 4, 5]


def _counts_per_sigma(d, r, mu):
    """(all, transitive) tuple counts, searched from every s in the class of mu.

    Walks every r-tuple of transpositions from s by left multiplication and
    tests transitivity on complete solutions against the orbits of s.
    """
    identity = tuple(range(d))
    sigmas = [p for p in permutations(identity) if cycle_type(p) == mu]

    def transitive(gens):
        orbit_of = list(identity)  # each point's orbit label, merged by relabelling
        for gen in gens:
            for i, j in enumerate(gen):
                a, b = orbit_of[i], orbit_of[j]
                if a != b:
                    orbit_of = [b if x == a else x for x in orbit_of]
        return len(set(orbit_of)) == 1

    trans = []
    for a in range(d):
        for b in range(a + 1, d):
            img = list(identity)
            img[a], img[b] = b, a
            trans.append(tuple(img))
    counts = [0, 0]
    path = []

    def rec(depth, prod, sigma):
        if depth == r:
            if prod == identity:
                counts[0] += 1
                counts[1] += transitive([sigma, *path])
            return
        for t in trans:
            path.append(t)
            rec(depth + 1, tuple(t[i] for i in prod), sigma)
            path.pop()

    for sigma in sigmas:
        rec(0, sigma, sigma)
    return Fraction(counts[0], factorial(d)), Fraction(counts[1], factorial(d))


@pytest.mark.parametrize("d,r_max", [(1, 5), (2, 5), (3, 5), (4, 5), (5, 3)])
def test_counts_match_search_from_every_sigma(d, r_max):
    for mu in partitions_of(d):
        for r in range(r_max + 1):
            every, transitive = _counts_per_sigma(d, r, mu)
            assert count_covers_bruteforce(d, r, mu, connected=False) == every
            assert count_covers_bruteforce(d, r, mu, connected=True) == transitive


def _search(r, start, lmul, hit, edges, d):
    """Complete r-tuples whose product t_r ... t_1 is a hit, one call per node.

    With `edges` given, a tuple also has to join all d points: s lies in the
    group its transpositions generate, so s adds no orbit to test.
    """
    n_trans = len(lmul)
    path = []

    def joins_all_points():
        parent = list(range(d))

        def find(x):
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

    def rec(depth, prod_idx):
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


@pytest.mark.parametrize("d,r_max", [(1, 5), (2, 5), (3, 5), (4, 5), (5, 5), (6, 3)])
def test_counts_match_the_depth_first_search(d, r_max):
    # With k the largest value such that C(d,2)^k <= 4096, this covers r = 0,
    # r <= k (all of d <= 3 and d = 6) and r > k (d = 4, r = 5: k = 4;
    # d = 5, r = 4, 5: k = 3).
    edges = [(a, b) for a in range(d) for b in range(a + 1, d)]
    perms = list(permutations(range(d)))
    index = {p: i for i, p in enumerate(perms)}
    lmul = []
    for a, b in edges:
        swap = list(range(d))
        swap[a], swap[b] = b, a
        lmul.append([index[tuple(swap[x] for x in p)] for p in perms])
    start = index[tuple(range(d))]
    for mu in partitions_of(d):
        hit = [cycle_type(p) == mu for p in perms]
        for r in range(r_max + 1):
            every = Fraction(_search(r, start, lmul, hit, None, d), factorial(d))
            transitive = Fraction(_search(r, start, lmul, hit, edges, d), factorial(d))
            assert count_covers_bruteforce(d, r, mu, connected=False) == every, (d, r, mu)
            assert count_covers_bruteforce(d, r, mu, connected=True) == transitive, (d, r, mu)


def test_last_levels_hold_at_most_4096_products():
    # C(4,2)^7 = 279,936 tuples: one list of all their products would take
    # about 2.2 MB, the 6^4 = 1296 products of the last levels about 10 kB.
    count_covers_bruteforce(4, 7, (1, 1, 1, 1), connected=True)  # imports and warms up
    tracemalloc.start()
    try:
        got = count_covers_bruteforce(4, 7, (1, 1, 1, 1), connected=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == 0  # r + d + len(mu) is odd
    assert peak < 256 * 1024


def test_tuple_parity_obstruction():
    for d in range(1, 5):
        for mu in partitions_of(d):
            for r in range(5):
                if (r + d + len(mu)) % 2 == 1:
                    assert count_covers_bruteforce(d, r, mu, connected=False) == 0


def test_disconnected_counts_match_character_sums():
    for d in range(1, 5):
        for mu in partitions_of(d):
            for r in range(5):
                assert count_covers_bruteforce(d, r, mu, connected=False) == disconnected_count_charsum(d, r, mu)


def test_connected_counts_match_recursion(shared_cache):
    for d in range(1, 5):
        for mu in partitions_of(d):
            base = len(mu) + d - 2
            for r in range(5):
                got = count_covers_bruteforce(d, r, mu, connected=True)
                if r >= base and (r - base) % 2 == 0:
                    assert got == hurwitz_number((r - base) // 2, mu, shared_cache)
                else:
                    assert got == 0
