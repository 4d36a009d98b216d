from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, strategies as st

from hurwitz import (
    PowerSumPoly,
    character,
    centralizer_order,
    content_sum,
    conj_class_size,
    cut_and_join,
    dim_irrep,
    partitions_of,
    schur_in_power_sums,
)
from hurwitz.engine import covering_series_charsum, disconnected_count_charsum
from hurwitz.oracle import cycle_type
from hurwitz.symfunc import _character, bead_mask

P = PowerSumPoly


def small_polys():
    coeffs = st.integers(min_value=-3, max_value=3).map(Fraction)
    keys = st.sampled_from([(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)])
    return st.dictionaries(keys, coeffs, max_size=4).map(PowerSumPoly)


def test_poly_add_examples():
    assert P.p(1) + P.p(1) == P.monomial((1,)) * 2
    assert P.p(2) + P.monomial((2,)) * -1 == P.zero()
    left = (P.p(1) + P.p(2)) + P.monomial((1, 1))
    assert left.terms[(1,)] == 1
    assert left.terms[(2,)] == 1
    assert left.terms[(1, 1)] == 1


def test_poly_mul_examples():
    assert P.p(1) * P.p(1) == P.monomial((1, 1))
    assert P.monomial((2, 1)) * P.p(2) == P.monomial((2, 2, 1))
    prod = (P.p(1) + P.p(2)) * (P.p(1) + P.monomial((2,)) * -1)
    assert prod == P.monomial((1, 1)) + P.monomial((2, 2)) * -1
    assert (P.p(1) + P.p(2)) * 0 == P.zero()
    assert (P.p(1) * Fraction(1, 2)).terms == {(1,): Fraction(1, 2)}


@given(small_polys(), small_polys(), small_polys())
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


def test_poly_door_keeps_ints_and_fractions_and_refuses_other_coefficients():
    poly = P({(1,): 3, (2,): Fraction(1, 2), (1, 1): Fraction(4), (3,): 0})
    assert poly.terms == {(1,): 3, (2,): Fraction(1, 2), (1, 1): 4}
    assert [type(c) for c in poly.terms.values()] == [int, Fraction, Fraction]
    for factory in (P.one(), P.p(2), P.monomial((1, 2))):
        assert [type(c) for c in factory.terms.values()] == [int]
    for bad in (0.1, 1.0, "1/3", True, False, None, 1j):
        with pytest.raises(ValueError) as info:
            P({(1,): bad})
        assert str(info.value) == f"coefficient {bad!r} is not an int or a Fraction"


def test_poly_operators_check_operands_by_the_door_rule():
    p1 = P.p(1)
    assert p1 * 2 == P({(1,): 2}) and p1 * Fraction(1, 2) == P({(1,): Fraction(1, 2)})
    assert p1 + p1 == p1 * 2 and p1 ** 0 == P.one() and p1 ** 2 == p1 * p1
    for bad in (0.5, 1.0, "2", None, True, False, 1j):
        with pytest.raises(ValueError) as info:
            p1 * bad
        assert str(info.value) == f"factor {bad!r} is not a PowerSumPoly, an int or a Fraction"
    for bad in (1, 0, Fraction(1, 2), 0.5, "2", None, True):
        with pytest.raises(ValueError) as info:
            p1 + bad
        assert str(info.value) == f"summand {bad!r} is not a PowerSumPoly"
    for bad in (True, False, 2.0, Fraction(2), "2", None):
        with pytest.raises(ValueError) as info:
            p1 ** bad
        assert str(info.value) == f"exponent {bad!r} is not an int"
    # a scalar multiplies on the right only: there is no reflected product
    for scalar in (2, Fraction(1, 2)):
        with pytest.raises(TypeError):
            scalar * p1


def test_operator_powers_of_an_integral_monomial_stay_in_ints():
    for d in range(9):
        poly = P.monomial((1,) * d)
        for r in range(7):
            assert all(type(c) is int for c in poly.terms.values()), (d, r)
            poly = cut_and_join(poly)


def brute_character_table(n):
    """Characters of the trivial, sign, and fixed-point representations by direct count."""
    classes = partitions_of(n)
    fixed = {}
    sign = {}
    for mu in classes:
        perm = next(p for p in permutations(range(n)) if cycle_type(p) == mu)
        fixed[mu] = sum(1 for i, j in enumerate(perm) if i == j)
        sign[mu] = (-1) ** (n - len(mu))
    return fixed, sign


def test_character_against_bruteforce_small_tables():
    # standard representation of S_3: fixed points minus one
    fixed, sign = brute_character_table(3)
    for mu in partitions_of(3):
        assert character((3,), mu) == 1
        assert character((1, 1, 1), mu) == sign[mu]
        assert character((2, 1), mu) == fixed[mu] - 1
    fixed, sign = brute_character_table(4)
    for mu in partitions_of(4):
        assert character((4,), mu) == 1
        assert character((1, 1, 1, 1), mu) == sign[mu]
        assert character((3, 1), mu) == fixed[mu] - 1
        assert character((2, 1, 1), mu) == (fixed[mu] - 1) * sign[mu]


def test_character_examples():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert character((n,), mu) == 1
    assert character((2, 1), (1, 1, 1)) == 2 == dim_irrep((2, 1))
    assert character((2, 1), (3,)) == -1


def test_character_full_cycle_supported_on_hooks():
    for n in range(1, 9):
        for lam in partitions_of(n):
            chi = character(lam, (n,))
            hook = len(lam) == 0 or all(p == 1 for p in lam[1:])
            if hook:
                r = lam[0]
                assert chi == (-1) ** (n - r)
            else:
                assert chi == 0


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        character((2,), (1,))


def test_character_dimension_column():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert character(lam, (1,) * n) == dim_irrep(lam)


def test_character_orthogonality():
    for n in range(1, 7):
        parts = partitions_of(n)
        for lam in parts:
            for nu in parts:
                total = sum(
                    Fraction(character(lam, mu) * character(nu, mu), centralizer_order(mu))
                    for mu in parts
                )
                assert total == (1 if lam == nu else 0)


def test_character_column_orthogonality():
    for n in range(1, 8):
        parts = partitions_of(n)
        for mu in parts:
            for nu in parts:
                total = sum(character(lam, mu) * character(lam, nu) for lam in parts)
                assert total == (centralizer_order(mu) if mu == nu else 0)


def test_character_at_a_transposition_is_the_content_sum():
    # the central character |C_mu| chi^lam_mu / dim lam: 1 at the identity,
    # the content sum of lam at a transposition
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert character(lam, (1,) * n) == dim_irrep(lam)
    for n in range(2, 8):
        for lam in partitions_of(n):
            mu = (2,) + (1,) * (n - 2)
            assert conj_class_size(mu) * character(lam, mu) == content_sum(lam) * dim_irrep(lam)


def test_schur_examples():
    assert schur_in_power_sums((1,)) == P.p(1)
    s2 = schur_in_power_sums((2,))
    assert s2 == P({(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)})
    s11 = schur_in_power_sums((1, 1))
    assert s11 == P({(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)})


def test_cut_and_join_examples():
    assert cut_and_join(P.p(1)) == P.zero()
    assert cut_and_join(P.monomial((1, 1))) == P.p(2)
    assert cut_and_join(P.p(2)) == P.monomial((1, 1))


def test_cut_and_join_preserves_degree():
    poly = P.monomial((3, 2, 1)) * 5
    image = cut_and_join(poly)
    assert image.terms
    assert all(sum(mu) == 6 for mu in image.terms)


def test_schur_eigenvectors():
    for n in range(7):
        for lam in partitions_of(n):
            s = schur_in_power_sums(lam)
            assert cut_and_join(s) == s * content_sum(lam)


def test_power_sum_expansion_in_schur_basis():
    for n in range(1, 7):
        p1n = P.p(1) ** n
        recombined = P.zero()
        for lam in partitions_of(n):
            coeff = sum(
                value * character(lam, mu) for mu, value in p1n.terms.items()
            )
            assert coeff == dim_irrep(lam)
            recombined = recombined + schur_in_power_sums(lam) * coeff
        assert recombined == p1n


def test_characters_memo_is_consistent_on_recomputation():
    first = character((4, 2, 1), (3, 2, 2))
    again = character((4, 2, 1), (3, 2, 2))
    assert first == again
    assert isinstance(first, int)


# The beta-list form of Murnaghan-Nakayama that the bead recursion replaced,
# kept as the reference it is checked against.

def _strip_removals(lam, size):
    """Yield (sign, remainder) for every removable border strip of the given size.

    Uses the first-column hook coordinates of lam: removing a border strip of
    length t lowers one coordinate by t without colliding with another, and
    the sign is (-1)^(the number of coordinates jumped over).
    """
    rows = len(lam)
    beta = [lam[i] + (rows - 1 - i) for i in range(rows)]
    occupied = set(beta)
    for b in beta:
        c = b - size
        if c < 0 or c in occupied:
            continue
        height = sum(1 for x in beta if c < x < b)
        new_beta = sorted([x for x in beta if x != b] + [c], reverse=True)
        parts = tuple(v - (rows - 1 - i) for i, v in enumerate(new_beta) if v - (rows - 1 - i) > 0)
        yield (-1) ** height, parts


def _reference_character(lam, mu, memo):
    if not mu:
        return 1
    key = (lam, mu)
    if key not in memo:
        memo[key] = sum(
            sign * _reference_character(rest, mu[1:], memo) for sign, rest in _strip_removals(lam, mu[0])
        )
    return memo[key]


def _reference_counts(d, mu, rs, memo):
    """The disconnected counts at (d, r, mu) for each r in rs, as character
    sums with reference characters, each content sum raised to the r-th
    power afresh."""
    den = factorial(d) * centralizer_order(mu)
    weights = [
        (content_sum(lam), dim_irrep(lam) * _reference_character(lam, mu, memo)) for lam in partitions_of(d)
    ]
    return [Fraction(sum(w * c**r for c, w in weights), den) for r in rs]


def _reference_charsum_table(d_max, r_max):
    """The character-sum table of disconnected counts, with reference characters."""
    memo = {}
    coeffs = {(0, 0, ()): Fraction(1)}
    for d in range(1, d_max + 1):
        for mu in partitions_of(d):
            for r, value in enumerate(_reference_counts(d, mu, range(r_max + 1), memo)):
                if value:
                    coeffs[(d, r, mu)] = value
    return coeffs


def test_character_equals_the_beta_list_reference():
    # on lam's own rows, as `character` places it, and on n rows, as a table
    # build of degree n places every shape
    for n in range(11):
        reference, spare = {}, {}
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                expected = _reference_character(lam, mu, reference)
                assert character(lam, mu) == expected, (lam, mu)
                assert _character(bead_mask(lam, n), mu, spare) == expected, (lam, mu)


def test_bead_mask_places_one_bead_per_row():
    assert bead_mask((), 0) == 0
    assert bead_mask((), 3) == 0b111
    assert bead_mask((2, 1), 2) == 0b1010  # beads at 2 + 1 and 1 + 0
    assert bead_mask((2, 1), 4) == 0b101011  # two spare rows at 1 and 0


def test_charsum_series_equals_the_table_of_reference_characters():
    # the table `verify --rmax 10` logs
    assert covering_series_charsum(11, 10).coeffs == _reference_charsum_table(11, 10)


def test_single_count_reads_its_row_of_the_character_sum():
    memo = {}
    for d in range(1, 8):
        for mu in partitions_of(d):
            rows = [disconnected_count_charsum(d, r, mu) for r in (0, 40)]
            assert rows == _reference_counts(d, mu, (0, 40), memo), (d, mu)
