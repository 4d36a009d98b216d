from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz import (
    GenSeries,
    covering_series,
    covering_series_charsum,
    disconnected_count_charsum,
    partitions_of,
)
from hurwitz.engine import _mul_coeffs, log_table
from hurwitz.partitions import as_partition


def _series(d_max, r_max, entries):
    """A hand-made series holding the nonzero values of `entries`, {(d, r, mu): value},
    as the builders write theirs: straight into `coeffs`, zeros dropped."""
    s = GenSeries(d_max, r_max)
    s.coeffs.update((key, Fraction(c)) for key, c in entries.items() if c)
    return s


def test_get_reads_zero_off_the_table_and_refuses_a_key_off_the_series():
    s = _series(2, 2, {(0, 0, ()): 1, (2, 1, (1, 1)): Fraction(1, 3)})
    assert s[(0, 0, ())] == 1
    assert s[(2, 1, [1, 1])] == Fraction(1, 3)  # mu is read as a partition
    assert s[(5, 1, (5,))] == 0  # beyond d_max
    assert s[(1, 0, (1,))] == 0
    # mu must be a partition of size d, and r >= 0
    for key, message in (
        ((2, 0, (1,)), "key partition (1) does not have size 2"),
        ((3, 1, (1, 1)), "key partition (1,1) does not have size 3"),
        ((0, -1, ()), "r must be non-negative"),
        ((3, 0, (1, 2)), "not a partition: (1, 2)"),
    ):
        with pytest.raises(ValueError) as info:
            s[key]
        assert str(info.value) == message


def _assert_canonical_table(series):
    """Every entry of a built table is keyed (d, r, mu), with mu a canonical
    partition of d and (d, r) inside the series' bounds, and holds a nonzero
    Fraction: what the builders write straight into `coeffs`."""
    for key, value in series.coeffs.items():
        d, r, mu = key
        assert as_partition(mu) == mu and sum(mu) == d, key
        assert 0 <= d <= series.d_max and 0 <= r <= series.r_max, key
        assert type(value) is Fraction and value != 0, key


@pytest.mark.parametrize("build", [covering_series, covering_series_charsum])
def test_each_builder_writes_a_canonical_table_with_constant_term_one(build):
    series = build(9, 8)
    assert (series.d_max, series.r_max) == (9, 8)
    _assert_canonical_table(series)
    one = series.coeffs[(0, 0, ())]
    assert type(one) is Fraction and one == 1
    # with no branch point only the identity, of profile (1^d), covers: every
    # other count at r = 0 is zero and is not stored
    assert [key for key in series.coeffs if key[1] == 0] == [(d, 0, (1,) * d) for d in range(10)]


@pytest.mark.parametrize("method", ["operator", "charsum"])
def test_each_logged_table_is_canonical(method):
    table = log_table(9, 8, method)
    assert table.d_max >= 9 and table.r_max >= 8
    _assert_canonical_table(table)


def test_mul_uses_binomial_weights_in_r():
    a = {(0, 0, ()): Fraction(1), (1, 1, (1,)): Fraction(1)}
    prod = _mul_coeffs(a, a, 2, 2)
    # (beta^1/1!)^2 = 2 * beta^2/2!
    assert prod[(2, 2, (1, 1))] == 2
    assert prod[(0, 0, ())] == 1
    assert prod[(1, 1, (1,))] == 2


def test_covering_series_entries():
    tau = covering_series(3, 2)
    assert tau[(0, 0, ())] == 1
    assert tau[(1, 0, (1,))] == 1
    assert tau[(3, 2, (3,))] == 1
    assert all(sum(mu) == d for (d, r, mu) in tau.coeffs)


def test_log_of_one_is_zero():
    assert _series(3, 3, {(0, 0, ()): 1}).log().coeffs == {}


def test_log_requires_unit_constant_term():
    for constant in (0, 2):
        with pytest.raises(ValueError):
            _series(1, 1, {(0, 0, ()): constant}).log()


def test_log_entry_matches_half_value():
    log = covering_series(2, 1).log()
    assert log[(2, 1, (2,))] == Fraction(1, 2)
    # no connected contribution survives at (2, 0, (1,1))
    assert log[(2, 0, (1, 1))] == 0


def _exp_by_power_sum(series):
    """exp(X) = sum_m X^m / m!, for X with constant term exactly 0.

    Every term of X has d + r >= 1, so X^m vanishes once m > d_max + r_max.
    This plain power sum shares no step with `log` other than `_mul_coeffs`,
    so a round trip through it checks `log` independently.
    """
    assert series[(0, 0, ())] == 0
    out = {(0, 0, ()): Fraction(1)}
    power, m = series.coeffs, 1
    while power:
        w = Fraction(1, factorial(m))
        for key, c in power.items():
            out[key] = out.get(key, 0) + w * c
        power = _mul_coeffs(power, series.coeffs, series.d_max, series.r_max)
        m += 1
    return {key: c for key, c in out.items() if c}


def test_exp_log_roundtrip():
    tau = covering_series(4, 4)
    assert _exp_by_power_sum(tau.log()) == tau.coeffs


def test_log_of_pure_divided_power_slice():
    # log(1 + b) where b is the degree-(0,1) variable: the (0, m) entry of the
    # result must be (-1)^(m+1) (m-1)! because b^m = m! times b^m/m!
    r_max = 6
    log = _divided_power_slice(r_max).log()
    for m in range(1, r_max + 1):
        assert log[(0, m, ())] == Fraction((-1) ** (m + 1) * factorial(m - 1))


def test_exp_of_pure_divided_power_slice():
    # exp(b) has every divided-power coefficient equal to one
    r_max = 6
    series = _series(0, r_max, {(0, 1, ()): 1})
    assert _exp_by_power_sum(series) == {(0, m, ()): 1 for m in range(r_max + 1)}


@st.composite
def unit_series(draw):
    coeffs = st.integers(min_value=-2, max_value=2)
    entries = {(0, 0, ()): 1}
    for d in range(4):
        for mu in partitions_of(d):
            for r in range(4):
                if (d, r) != (0, 0):
                    entries[(d, r, mu)] = draw(coeffs)
    return _series(3, 3, entries)


@given(unit_series())
@settings(deadline=None, max_examples=30)
def test_exp_log_roundtrip_on_random_series(series):
    assert _exp_by_power_sum(series.log()) == series.coeffs


def _log_by_power_sum(series):
    """log(1 + X) = sum_m (-1)^(m+1) X^m / m, taken with `_mul_coeffs` products only."""
    x = {key: c for key, c in series.coeffs.items() if key[:2] != (0, 0)}
    out = {}
    power, m = x, 1
    while power:
        for key, c in power.items():
            out[key] = out.get(key, 0) + Fraction((-1) ** (m + 1), m) * c
        power, m = _mul_coeffs(power, x, series.d_max, series.r_max), m + 1
    return {key: c for key, c in out.items() if c}


def _assert_log_matches_definition(series):
    log = series.log()
    assert log.coeffs == _log_by_power_sum(series)
    assert all(c != 0 for c in log.coeffs.values())
    assert all(
        d <= series.d_max and r <= series.r_max and sum(mu) == d
        for (d, r, mu) in log.coeffs
    )


def _divided_power_slice(r_max):
    """1 + b, for b the degree-(0, 1) variable."""
    return _series(0, r_max, {(0, 0, ()): 1, (0, 1, ()): 1})


@pytest.mark.parametrize(
    "build",
    [
        lambda: covering_series(6, 6),
        lambda: covering_series_charsum(11, 10),  # the table `verify --rmax 10` logs
        lambda: _divided_power_slice(6),
    ],
    ids=["operator-6-6", "charsum-11-10", "divided-power-slice"],
)
def test_log_matches_the_power_sum_definition(build):
    _assert_log_matches_definition(build())


@given(unit_series())
@settings(deadline=None, max_examples=30)
def test_log_matches_the_power_sum_definition_on_random_series(series):
    _assert_log_matches_definition(series)


def test_operator_and_charsum_series_agree():
    # the table `verify --rmax 10` logs, by each route
    assert covering_series_charsum(11, 10).coeffs == covering_series(11, 10).coeffs


def test_charsum_series_entries_are_the_pointwise_character_sums():
    series = covering_series_charsum(6, 6)
    for d in range(1, 7):
        for mu in partitions_of(d):
            for r in range(7):
                assert series[(d, r, mu)] == disconnected_count_charsum(d, r, mu)
