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


def test_set_get_and_truncation():
    s = GenSeries(2, 2)
    s.set(0, 0, (), 1)
    s.set(2, 1, (1, 1), Fraction(1, 3))
    s.set(5, 1, (5,), 7)  # beyond d_max: dropped
    assert s[(0, 0, ())] == 1
    assert s[(2, 1, (1, 1))] == Fraction(1, 3)
    assert s[(5, 1, (5,))] == 0
    assert s[(1, 0, (1,))] == 0
    with pytest.raises(ValueError):
        s.set(2, 0, (1,), 1)  # partition size must match d


def test_mul_uses_binomial_weights_in_r():
    a = GenSeries(2, 2)
    a.set(0, 0, (), 1)
    a.set(1, 1, (1,), 1)
    prod = a * a
    # (beta^1/1!)^2 = 2 * beta^2/2!
    assert prod[(2, 2, (1, 1))] == 2
    assert prod[(0, 0, ())] == 1
    assert prod[(1, 1, (1,))] == 2


def test_mul_requires_matching_bounds():
    with pytest.raises(ValueError):
        GenSeries(1, 1) * GenSeries(2, 1)


def test_covering_series_entries():
    tau = covering_series(3, 2)
    assert tau[(0, 0, ())] == 1
    assert tau[(1, 0, (1,))] == 1
    assert tau[(3, 2, (3,))] == 1
    assert all(sum(mu) == d for (d, r, mu) in tau.coeffs)


def test_log_of_one_is_zero():
    one = GenSeries(3, 3)
    one.set(0, 0, (), 1)
    assert one.log().coeffs == {}


def test_log_requires_unit_constant_term():
    s = GenSeries(1, 1)
    with pytest.raises(ValueError):
        s.log()
    s.set(0, 0, (), 2)
    with pytest.raises(ValueError):
        s.log()


def test_exp_requires_zero_constant_term():
    s = GenSeries(1, 1)
    s.set(0, 0, (), 1)
    with pytest.raises(ValueError):
        s.exp()


def test_log_entry_matches_half_value():
    log = covering_series(2, 1).log()
    assert log[(2, 1, (2,))] == Fraction(1, 2)
    # no connected contribution survives at (2, 0, (1,1))
    assert log[(2, 0, (1, 1))] == 0


def test_exp_log_roundtrip():
    tau = covering_series(4, 4)
    assert tau.log().exp() == tau


def test_log_of_pure_divided_power_slice():
    # log(1 + b) where b is the degree-(0,1) variable: the (0, m) entry of the
    # result must be (-1)^(m+1) (m-1)! because b^m = m! times b^m/m!
    r_max = 6
    series = GenSeries(0, r_max)
    series.set(0, 0, (), 1)
    series.set(0, 1, (), 1)
    log = series.log()
    for m in range(1, r_max + 1):
        assert log[(0, m, ())] == Fraction((-1) ** (m + 1) * factorial(m - 1))


def test_exp_of_pure_divided_power_slice():
    # exp(b) has every divided-power coefficient equal to one
    r_max = 6
    series = GenSeries(0, r_max)
    series.set(0, 1, (), 1)
    exp = series.exp()
    for m in range(r_max + 1):
        assert exp[(0, m, ())] == 1


@st.composite
def unit_series(draw):
    s = GenSeries(3, 3)
    s.set(0, 0, (), 1)
    coeffs = st.integers(min_value=-2, max_value=2).map(Fraction)
    for d in range(4):
        for mu in partitions_of(d):
            for r in range(4):
                if (d, r) == (0, 0):
                    continue
                s.set(d, r, mu, draw(coeffs))
    return s


@given(unit_series())
@settings(deadline=None, max_examples=30)
def test_exp_log_roundtrip_on_random_series(series):
    assert series.log().exp() == series


def test_operator_and_charsum_series_agree():
    assert covering_series_charsum(7, 7) == covering_series(7, 7)


def test_charsum_series_entries_are_the_pointwise_character_sums():
    series = covering_series_charsum(6, 6)
    for d in range(1, 7):
        for mu in partitions_of(d):
            for r in range(7):
                assert series[(d, r, mu)] == disconnected_count_charsum(d, r, mu)


def test_items_order_is_deterministic():
    tau = covering_series(3, 2)
    keys = [key for key, _ in tau.items()]
    assert keys == sorted(keys, key=lambda k: (k[0], k[1], tuple(-p for p in k[2])))
