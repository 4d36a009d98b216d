"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line with its runtime.  Every value comparison is exact; the only tolerances
are the stated wall-clock budgets.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import time
from fractions import Fraction
from math import factorial

from hurwitz import (
    HurwitzCache,
    coefficient_audit,
    connected_from_log,
    centralizer_order,
    character,
    content_sum,
    converse_failures,
    count_covers_bruteforce,
    cut_and_join,
    dim_irrep,
    disconnected_count_charsum,
    hurwitz_number,
    integrality_audit,
    keys_with_ramification_at_most,
    one_part_closed,
    one_part_closed_stirling,
    one_part_genus0,
    parity_scan,
    partitions_of,
    schur_in_power_sums,
    two_part_genus0,
)
from hurwitz.cli import table_values
from hurwitz.engine import log_table
from hurwitz.partitions import branch_count
from hurwitz.reference_data import (
    ERRATA,
    PRINTED_TABLE_SIX,
    PRINTED_TABLE_SMALL,
    PUBLISHED_CONVERSE_FAILURES,
)


def criterion(num, desc, budget):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL criterion {num}: {desc}")
                raise
            elapsed = time.perf_counter() - start
            assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
            print(f"\nPASS criterion {num}: {desc} ({elapsed:.1f}s)")

        return wrapper

    return deco


@criterion(1, "small-weight table matches every printed cell except the known typo", budget=10)
def test_criterion_1_table_small(shared_cache):
    rows = dict(table_values(6, 5, shared_cache))
    assert set(rows) == set(PRINTED_TABLE_SMALL)
    checked = 0
    for mu, printed in PRINTED_TABLE_SMALL.items():
        for g in range(7):
            got = rows[mu][g]
            fix = ERRATA.get((mu, g))
            if fix:
                assert str(fix[0]) == str(printed[g])  # the typo really is what is printed
                assert got == str(fix[1]) == "364"
            else:
                assert got == str(printed[g]), (mu, g)
            checked += 1
    assert checked == 18 * 7


@criterion(2, "weight-six table matches all 77 printed cells", budget=60)
def test_criterion_2_table_six(shared_cache):
    rows = dict(table_values(6, 6, shared_cache, weight_exactly=6))
    assert set(rows) == set(PRINTED_TABLE_SIX)
    checked = 0
    for mu, printed in PRINTED_TABLE_SIX.items():
        for g in range(7):
            assert rows[mu][g] == str(printed[g]), (mu, g)
            checked += 1
    assert checked == 77
    assert rows[(1,) * 6][6] == "287353806073982746560"


@criterion(3, "recursion, charsum+log, and operator+log agree on every key with r <= 10", budget=300)
def test_criterion_3_cross_method(shared_cache):
    keys = keys_with_ramification_at_most(10)
    assert keys
    # One table per route holds every key with r <= 10, as `verify` reads them.
    tables = [log_table(11, 10, method) for method in ("operator", "charsum")]
    for g, mu in keys:
        h = hurwitz_number(g, mu, shared_cache)
        r = branch_count(g, mu)
        for table in tables:
            assert table[(sum(mu), r, mu)] == h, (g, mu)
        # The single-key door builds a table for its own key: every key up to
        # r = 6, and beyond that the genus-0 one-part key, the largest at its r.
        if r <= 6 or (g, mu) == (0, (r + 1,)):
            assert connected_from_log(g, mu, method="operator") == h, (g, mu)
            assert connected_from_log(g, mu, method="charsum") == h, (g, mu)


@criterion(4, "brute force agrees with character sums and the recursion for d <= 5, r <= 6", budget=600)
def test_criterion_4_oracle(shared_cache):
    for d in range(1, 6):
        for mu in partitions_of(d):
            base = len(mu) + d - 2
            for r in range(7):
                disc = count_covers_bruteforce(d, r, mu, connected=False)
                assert disc == disconnected_count_charsum(d, r, mu), (d, r, mu)
                conn = count_covers_bruteforce(d, r, mu, connected=True)
                if r >= base and (r - base) % 2 == 0:
                    assert conn == hurwitz_number((r - base) // 2, mu, shared_cache), (d, r, mu)
                else:
                    assert conn == 0, (d, r, mu)


@criterion(5, "closed forms match the recursion and pin the printed spot values", budget=60)
def test_criterion_5_closed_forms(shared_cache):
    for n in range(1, 9):
        assert one_part_genus0(n) == Fraction(n) ** (n - 3)
        assert hurwitz_number(0, (n,), shared_cache) == one_part_genus0(n)
    for n in range(1, 8):
        for g in range(5):
            closed = one_part_closed(g, n)
            assert closed == one_part_closed_stirling(g, n)
            if n >= 3:
                assert closed == hurwitz_number(g, (n,), shared_cache)
    assert one_part_closed(1, 3) == 9
    assert one_part_closed(1, 4) == 160
    assert one_part_closed(2, 5) == 328125
    for a in range(1, 10):
        for b in range(1, a + 1):
            if a + b <= 10:
                assert two_part_genus0(a, b) == hurwitz_number(0, (a, b), shared_cache)
    assert two_part_genus0(2, 2) == 12
    assert two_part_genus0(3, 2) == 216


@criterion(6, "integrality holds for every key with r <= 12 outside the named exceptions", budget=120)
def test_criterion_6_integrality(shared_cache):
    report = integrality_audit(12, shared_cache)
    failures = [rec for rec in report.records if not rec.passed]
    assert failures == []
    labels = {rec.label for rec in report.records}
    assert labels == {"positive-integer", "exception-zero", "exception-half"}


@criterion(7, "every collapsed recursion coefficient with r <= 10 is a non-negative integer", budget=120)
def test_criterion_7_coefficients(shared_cache):
    symmetric_even = 0
    for g, mu in keys_with_ramification_at_most(10):
        report = coefficient_audit(g, mu)
        assert report.ok, (g, mu)
        for rec in report.records:
            if rec.label == "generator-key":
                continue
            value = Fraction(rec.value)
            assert value.denominator == 1 and value >= 0, (g, mu, rec)
            if rec.label == "split-symmetric":
                symmetric_even += 1
    assert symmetric_even > 0  # the even central-binomial case is exercised


@criterion(8, "parity implication holds for r <= 14 and the converse failures match the published list", budget=1800)
def test_criterion_8_parity(shared_cache):
    report = parity_scan(14, shared_cache)
    violations = [rec for rec in report.records if not rec.passed]
    assert violations == []
    got = converse_failures(report)
    expected = set().union(*PUBLISHED_CONVERSE_FAILURES.values())
    assert got == expected
    assert len(got) == 3 + 4 + 5 + 10


@criterion(9, "operator eigenvectors, orthogonality, Cauchy expansion, and tableau counts", budget=300)
def test_criterion_9_property_suites():
    # Schur functions are eigenvectors with content-sum eigenvalues
    for n in range(9):
        for lam in partitions_of(n):
            s = schur_in_power_sums(lam)
            assert cut_and_join(s) == s * content_sum(lam), lam

    # character orthogonality, first kind
    for n in range(1, 9):
        parts = partitions_of(n)
        for i, lam in enumerate(parts):
            for nu in parts[i:]:
                total = sum(
                    Fraction(character(lam, mu) * character(nu, mu), centralizer_order(mu))
                    for mu in parts
                )
                assert total == (1 if lam == nu else 0), (lam, nu)

    # truncated Cauchy identity in the double power-sum basis, total degree <= 6
    cap = 6

    def mul_double(a, b):
        out = {}
        for (m1, n1), c1 in a.items():
            for (m2, n2), c2 in b.items():
                mu = tuple(sorted(m1 + m2, reverse=True))
                nu = tuple(sorted(n1 + n2, reverse=True))
                if sum(mu) > cap or sum(nu) > cap:
                    continue
                key = (mu, nu)
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return out

    lhs = {((), ()): Fraction(1)}
    for n in range(1, cap + 1):
        factor = {
            ((n,) * m, (n,) * m): Fraction(1, n**m * factorial(m))
            for m in range(cap // n + 1)
        }
        lhs = mul_double(lhs, factor)
    rhs = {}
    for k in range(cap + 1):
        for lam in partitions_of(k):
            terms = schur_in_power_sums(lam).terms
            for mu, a in terms.items():
                for nu, b in terms.items():
                    key = (mu, nu)
                    s = rhs.get(key, Fraction(0)) + a * b
                    if s:
                        rhs[key] = s
                    else:
                        rhs.pop(key, None)
    assert lhs == rhs

    # expanding p_1^n in the Schur basis gives the standard tableaux counts
    from hurwitz import PowerSumPoly

    for n in range(1, 9):
        p1n = PowerSumPoly.p(1) ** n
        recombined = PowerSumPoly.zero()
        for lam in partitions_of(n):
            coeff = sum(c * character(lam, mu) for mu, c in p1n.terms.items())
            assert coeff == dim_irrep(lam), lam
            recombined = recombined + schur_in_power_sums(lam) * coeff
        assert recombined == p1n
