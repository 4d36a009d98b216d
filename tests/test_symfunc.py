from fractions import Fraction
from itertools import permutations

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
from hurwitz.oracle import cycle_type

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
