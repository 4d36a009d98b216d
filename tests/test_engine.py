from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

import hurwitz.engine as engine
import hurwitz.symfunc as symfunc
from hurwitz import (
    PowerSumPoly,
    connected_from_log,
    count_covers_bruteforce,
    covering_series,
    disconnected_count_charsum,
    hurwitz_number,
    keys_with_ramification_at_most,
    one_part_closed,
    one_part_closed_stirling,
    one_part_genus0,
    parity_scan,
    partitions_of,
    stirling2,
    two_part_genus0,
)
from hurwitz.partitions import branch_count, hurwitz_key
from hurwitz.reference_data import reference_rows


def test_disconnected_charsum_examples():
    assert disconnected_count_charsum(3, 2, (3,)) == 1
    assert disconnected_count_charsum(1, 0, (1,)) == 1
    assert disconnected_count_charsum(2, 0, (1, 1)) == Fraction(1, 2)
    assert disconnected_count_charsum(3, 4, (3,)) == 9
    with pytest.raises(ValueError):
        disconnected_count_charsum(3, 1, (2,))


def test_disconnected_bruteforce_weight_oracle():
    # degree-2 weighted counts enumerated by hand: sigma = id needs an even
    # number of transpositions, sigma = (01) an odd number; one transposition
    # available, so exactly one tuple exists either way, weight 1/2!
    for r in range(5):
        expect_id = Fraction(1, 2) if r % 2 == 0 else Fraction(0)
        expect_swap = Fraction(1, 2) if r % 2 == 1 else Fraction(0)
        assert disconnected_count_charsum(2, r, (1, 1)) == expect_id
        assert disconnected_count_charsum(2, r, (2,)) == expect_swap


def test_charsum_series_leaves_argument_checks_to_the_public_character(monkeypatch):
    # the builder's lam and mu are canonical and of one size already
    calls = 0
    real_as_partition = symfunc.as_partition

    def counting_as_partition(parts):
        nonlocal calls
        calls += 1
        return real_as_partition(parts)

    monkeypatch.setattr(symfunc, "as_partition", counting_as_partition)
    engine.covering_series_charsum(6, 6)
    assert calls == 0
    assert symfunc.character((2, 1), (3,)) == -1
    assert calls == 2
    with pytest.raises(ValueError) as info:
        symfunc.character((2, 1), (2,))
    assert str(info.value) == "size mismatch: |(2,1)| != |(2)|"


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that every call through it is counted."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_operator_series_build_applies_cut_and_join_itself(monkeypatch):
    calls = _count_calls(monkeypatch, engine, "cut_and_join")
    for _ in range(2):
        calls.clear()
        covering_series(6, 6)
        assert len(calls) == 7 * 6  # once per step of r, for each d = 0..6


def test_each_charsum_series_build_computes_its_characters_itself(monkeypatch):
    # the bead recursion calls itself through the module, so its calls are counted
    calls = _count_calls(monkeypatch, symfunc, "_character")
    counts = []
    for _ in range(2):
        calls.clear()
        engine.covering_series_charsum(6, 6)
        counts.append(len(calls))
    assert counts[0] > 0 and counts[0] == counts[1]


def test_disconnected_operator_examples():
    table = covering_series(3, 2)
    assert table[(2, 1, (2,))] == Fraction(1, 2)
    assert table[(2, 1, (1, 1))] == 0
    assert table[(3, 2, (3,))] == 1


@pytest.mark.parametrize(
    "d, r, mu, message",
    [(0, 0, (), "() is not a partition of 0 >= 1"), (3, 1, (2,), "(2) is not a partition of 3 >= 1")],
)
def test_the_three_cover_counts_refuse_the_same_arguments(d, r, mu, message):
    messages = set()
    for count in (disconnected_count_charsum, count_covers_bruteforce):
        with pytest.raises(ValueError) as info:
            count(d, r, mu)
        messages.add(str(info.value))
    assert messages == {message}


@pytest.mark.parametrize("g, mu", [(True, (2,)), (1.0, (2,)), (0, [True, True, True]), (0, (2, True))])
def test_hurwitz_number_refuses_a_key_that_is_not_made_of_ints(g, mu):
    cache = engine.HurwitzCache()
    with pytest.raises(ValueError):
        hurwitz_number(g, mu, cache)
    assert cache.twice == {}


def test_disconnected_operator_at_a_branch_count_beyond_the_recursion_limit():
    table = covering_series(2, 1201)
    # The image alternates p_1^2 -> p_2 -> p_1^2, and p_1 maps to zero.
    assert table[(2, 1201, (2,))] == Fraction(1, 2)
    assert table[(1, 1200, (1,))] == 0


def test_disconnected_methods_agree():
    table = covering_series(6, 8)
    for d in range(1, 7):
        for mu in partitions_of(d):
            for r in range(9):
                assert table[(d, r, mu)] == disconnected_count_charsum(d, r, mu)


def test_hurwitz_base_and_spot_values(shared_cache):
    assert hurwitz_number(0, (1,), shared_cache) == 1
    assert hurwitz_number(2, (4,), shared_cache) == 5824
    assert hurwitz_number(6, (1,) * 6, shared_cache) == 287353806073982746560
    assert hurwitz_number(2, (1, 1, 1), shared_cache) == 364


def test_one_point_profiles_vanish(shared_cache):
    for g in range(1, 9):
        assert hurwitz_number(g, (1,), shared_cache) == 0


def test_half_values(shared_cache):
    for g in range(9):
        assert hurwitz_number(g, (2,), shared_cache) == Fraction(1, 2)
        assert hurwitz_number(g, (1, 1), shared_cache) == Fraction(1, 2)


def test_merge_identity(shared_cache):
    for n in range(2, 7):
        for g in range(5):
            assert hurwitz_number(g, (2,) + (1,) * (n - 2), shared_cache) == hurwitz_number(
                g, (1,) * n, shared_cache
            )


def test_recursion_termination_metric():
    # every child of the ledger has a strictly smaller branch count
    for g, mu in keys_with_ramification_at_most(10):
        r = branch_count(*hurwitz_key(g, mu))
        for term in engine._ledger(g, mu):
            assert all(branch_count(*hurwitz_key(cg, cmu)) < r for cg, cmu in term[2]), (g, mu, term)


def _fraction_evaluation(r_max):
    """Reference values: the ledger summed in Fraction arithmetic, by branch count."""
    values = {(0, (1,)): Fraction(1)}
    for g, mu in keys_with_ramification_at_most(r_max):
        if (g, mu) == (0, (1,)):
            continue
        total = Fraction(0)
        for _, twice, children, _ in engine._ledger(g, mu):
            product = Fraction(twice, 2)
            for child in children:
                product *= values[child]
            total += product
        values[(g, mu)] = total
    return values


def test_integer_kernel_matches_a_fraction_evaluation_of_the_ledger():
    cache = engine.HurwitzCache()
    for (g, mu), value in _fraction_evaluation(14).items():
        assert hurwitz_number(g, mu, cache) == value, (g, mu)


def test_every_coefficient_is_a_multiple_of_one_half():
    for g, mu in keys_with_ramification_at_most(12):
        for term in engine._ledger(g, mu):
            assert type(term[1]) is int, (g, mu, term)


def test_ledger_builds_only_the_binomials_a_split_reads(monkeypatch):
    calls = 0
    real_comb = engine.comb

    def counting_comb(n, k):
        nonlocal calls
        calls += 1
        return real_comb(n, k)

    monkeypatch.setattr(engine, "comb", counting_comb)
    engine._ledger(500, (1, 1))  # no part of 2 or more: no split term
    assert calls == 0
    for g in (0, 1, 2, 3, 10, 500):
        calls = 0
        engine._ledger(g, (2,))
        assert 0 < calls <= g + 1, (g, calls)


def test_inexact_division_at_a_key_raises():
    # 8h at (0, (2)) is twice * (2 h(0,(1)))^2 = 1 * 3 * 3, not divisible by 4
    cache = engine.HurwitzCache()
    cache.twice[(0, (1,))] = 3  # 2h for h = 3/2, which `_store` refuses by the integrality theorem
    with pytest.raises(ArithmeticError, match=r"g=0, mu=\(2\) is not a multiple of 1/2: 8h = 9"):
        hurwitz_number(0, (2,), cache)
    # 8h at (0, (4)) is 6 * 1 * 3 + 8 * 1 * 1 = 26: even, yet not divisible by 4
    cache = engine.HurwitzCache()
    cache.twice.update({(0, (1,)): 1, (0, (2,)): 1, (0, (3,)): 3})
    with pytest.raises(ArithmeticError, match=r"g=0, mu=\(4\) is not a multiple of 1/2: 8h = 26"):
        hurwitz_number(0, (4,), cache)


def _reference_ledger(g, lam):
    """The collapsed ledger built the plain way: every g1 with a mirror skip,
    sub-multisets by repeated extension, complements by list.remove."""

    def replace(parts, remove, add):
        parts = list(parts)
        for x in remove:
            parts.remove(x)
        return tuple(sorted(parts + list(add), reverse=True))

    def submultisets(parts):
        out = [()]
        for v, mult in sorted(Counter(parts).items(), reverse=True):
            out = [prev + (v,) * take for prev in out for take in range(mult + 1)]
        return [tuple(sorted(s, reverse=True)) for s in out]

    def difference(whole, part):
        remaining = list(whole)
        for x in part:
            remaining.remove(x)
        return tuple(sorted(remaining, reverse=True))

    r = branch_count(*hurwitz_key(g, lam))
    m = Counter(lam)
    values = sorted(m, reverse=True)
    terms = []
    for ai, a in enumerate(values):
        for b in values[ai:]:
            if a == b:
                if m[a] >= 2:
                    merged = replace(lam, (a, a), (2 * a,))
                    terms.append(("merge-equal", Fraction((m[2 * a] + 1) * a), ((g, merged),), None))
            else:
                merged = replace(lam, (a, b), (a + b,))
                terms.append(("merge-distinct", Fraction((m[a + b] + 1) * (a + b)), ((g, merged),), None))
    if g >= 1:
        for a in values:
            for alpha in range(1, a // 2 + 1):
                beta = a - alpha
                prof = replace(lam, (a,), (alpha, beta))
                if alpha == beta:
                    c = Fraction(alpha * alpha * (m[alpha] + 1) * (m[alpha] + 2), 2)
                    terms.append(("cut-genus-equal", c, ((g - 1, prof),), None))
                else:
                    c = Fraction(alpha * beta * (m[alpha] + 1) * (m[beta] + 1))
                    terms.append(("cut-genus-distinct", c, ((g - 1, prof),), None))
    for a in values:
        rest = replace(lam, (a,), ())
        for sub in submultisets(rest):
            co = difference(rest, sub)
            for alpha in range(1, a):
                beta = a - alpha
                lp = tuple(sorted(sub + (alpha,), reverse=True))
                np_ = tuple(sorted(co + (beta,), reverse=True))
                for g1 in range(g + 1):
                    side, mirror = (g1, alpha, sub), (g - g1, beta, co)
                    if side > mirror:
                        continue
                    binomial = comb(r - 1, branch_count(*hurwitz_key(g1, lp)))
                    c = Fraction((sub.count(alpha) + 1) * (co.count(beta) + 1) * alpha * beta * binomial, 2)
                    children = ((g1, lp), (g - g1, np_))
                    if side == mirror:
                        terms.append(("split-symmetric", c, children, binomial))
                    else:
                        terms.append(("split", 2 * c, children, binomial))
    return terms


def test_ledger_matches_a_reference_built_the_plain_way():
    for g, mu in keys_with_ramification_at_most(12):
        ledger = [
            (label, Fraction(twice, 2), children, binomial)
            for label, twice, children, binomial in engine._ledger(g, mu)
        ]
        assert ledger == _reference_ledger(g, mu), (g, mu)


def test_recursion_inserts_exactly_the_reachable_keys():
    cache = engine.HurwitzCache()
    hurwitz_number(2, (3, 2), cache)
    assert len(cache) == 42
    cache = engine.HurwitzCache()
    parity_scan(10, cache)
    assert len(cache) == 151


def test_a_shared_grown_table_gives_the_ledgers_of_fresh_ones():
    grown = {}
    for g, mu in keys_with_ramification_at_most(16):
        assert engine._ledger(g, mu, grown) == engine._ledger(g, mu), (g, mu)
    # every entry is its sub-multiset grown by its part, sorted
    assert all(prof == tuple(sorted(sub + (p,), reverse=True)) for (sub, p), prof in grown.items())


def test_grown_table_size_after_the_parity_scan_to_branch_count_10():
    cache = engine.HurwitzCache()
    parity_scan(10, cache)
    assert len(cache._grown) == 97


@given(st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=25)
def test_hurwitz_is_permutation_invariant(rng):
    mu = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
    g = rng.randint(0, 2)
    shuffled = list(mu)
    rng.shuffle(shuffled)
    assert hurwitz_number(g, shuffled) == hurwitz_number(g, mu)


def test_concurrent_recursion_into_shared_cache():
    from concurrent.futures import ThreadPoolExecutor

    cache = engine.HurwitzCache()
    keys = [(g, mu) for g in range(4) for mu in [(3, 1), (2, 2), (4,), (2, 1, 1), (1, 1, 1, 1)]]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda key: hurwitz_number(*key, cache), keys))
    fresh = engine.HurwitzCache()
    assert results == [hurwitz_number(g, mu, fresh) for g, mu in keys]


def test_connected_from_log_examples():
    assert connected_from_log(0, (3,), method="operator") == 1
    assert connected_from_log(1, (1,), method="operator") == 0
    assert connected_from_log(1, (2, 1), method="operator") == 40
    assert connected_from_log(1, (2, 1), method="charsum") == 40


def test_connected_from_log_needs_a_named_route():
    with pytest.raises(TypeError):
        connected_from_log(0, (3,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: connected_from_log(0, (2,), method="bogus"),
        lambda: engine.log_table(2, 1, "bogus"),
    ],
    ids=["connected_from_log", "log_table"],
)
def test_unknown_series_method_is_a_value_error(call):
    with pytest.raises(ValueError, match="'bogus'.*'operator' or 'charsum'"):
        call()


def test_cross_method_equality_small(shared_cache):
    for n in range(1, 6):
        for mu in partitions_of(n):
            for g in range(3):
                h = hurwitz_number(g, mu, shared_cache)
                assert connected_from_log(g, mu, method="operator") == h
                assert connected_from_log(g, mu, method="charsum") == h


def test_normalized_form_of_recursion(shared_cache):
    # merge identity for flat profiles in normalized form H = aut(k) h / r!:
    # r H(1^n) = binom(n,2) 2 H(2,1^(n-2))
    for n in range(2, 6):
        for g in range(3):
            flat = (1,) * n
            r = branch_count(*hurwitz_key(g, flat))
            lhs = r * Fraction(factorial(n), factorial(r)) * hurwitz_number(g, flat, shared_cache)
            merged = (2,) + (1,) * (n - 2)
            normalized = Fraction(factorial(n - 2), factorial(branch_count(*hurwitz_key(g, merged))))
            rhs = n * (n - 1) * normalized * hurwitz_number(g, merged, shared_cache)
            assert lhs == rhs


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: one_part_genus0(0), "not a partition: (0,)"),
        (lambda: one_part_closed(-1, 3), "genus must be non-negative"),
        (lambda: one_part_closed(0, 0), "not a partition: (0,)"),
        (lambda: one_part_closed_stirling(-1, 3), "genus must be non-negative"),
        (lambda: one_part_closed_stirling(0, 0), "not a partition: (0,)"),
        (lambda: stirling2(-1, 0), "arguments must be non-negative"),
        (lambda: stirling2(0, -1), "arguments must be non-negative"),
        (lambda: engine.GenSeries(-1, 0), "bounds must be non-negative"),
        (lambda: engine.GenSeries(0, -1), "bounds must be non-negative"),
        (lambda: two_part_genus0(1, 2), "not a partition: (1, 2)"),
        (lambda: partitions_of(-1), "n must be non-negative"),
        (lambda: reference_rows(7), "reference tables cover weight at most 6"),
        (lambda: PowerSumPoly.p(0), "power sum index must be positive"),
        (lambda: PowerSumPoly.p(1) ** -1, "negative power"),
    ],
)
def test_closed_forms_and_series_refuse_out_of_range_arguments(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_series_and_polynomials_print_and_compare_only_with_their_own_kind():
    assert repr(PowerSumPoly.zero()) == "PowerSumPoly(0)"
    assert repr(PowerSumPoly.p(2) * Fraction(3, 2) + PowerSumPoly.one()) == "PowerSumPoly(1*p[] + 3/2*p[2])"
    # GenSeries has no __eq__, and PowerSumPoly's returns NotImplemented for
    # another type, so == falls back to identity
    assert (engine.GenSeries(1, 1) == 0) is False
    assert (PowerSumPoly.zero() == 0) is False


def test_one_part_genus0():
    assert one_part_genus0(3) == 1
    assert one_part_genus0(4) == 4
    assert one_part_genus0(2) == Fraction(1, 2)
    assert one_part_genus0(1) == 1


def test_one_part_closed_examples():
    assert one_part_closed(1, 3) == 9
    assert one_part_closed(2, 5) == 328125
    for n in range(1, 9):
        assert one_part_closed(0, n) == one_part_genus0(n)


def test_one_part_closed_forms_agree_and_match_recursion(shared_cache):
    for n in range(1, 8):
        for g in range(5):
            closed = one_part_closed(g, n)
            assert closed == one_part_closed_stirling(g, n)
            if n >= 3:
                assert closed.denominator == 1 and closed > 0
    for n in range(3, 8):
        for g in range(5):
            assert one_part_closed(g, n) == hurwitz_number(g, (n,), shared_cache)


def test_stirling2():
    for p in range(8):
        assert stirling2(p, p) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    # independent oracle: the explicit alternating-sum formula, also at a
    # p far past the default Python recursion limit
    for p, m in [(p, m) for p in range(9) for m in range(9)] + [(1200, 3)]:
        explicit = sum(
            (-1) ** (m - i) * factorial(m) // (factorial(i) * factorial(m - i)) * i**p
            for i in range(m + 1)
        )
        assert stirling2(p, m) * factorial(m) == explicit


def test_two_part_genus0_examples(shared_cache):
    assert two_part_genus0(1, 1) == Fraction(1, 2)
    assert two_part_genus0(2, 2) == 12
    assert two_part_genus0(3, 2) == 216
    with pytest.raises(ValueError):
        two_part_genus0(1, 2)
    for a in range(1, 10):
        for b in range(1, a + 1):
            if a + b <= 10:
                assert two_part_genus0(a, b) == hurwitz_number(0, (a, b), shared_cache)
