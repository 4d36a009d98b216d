from hurwitz import (
    coefficient_audit,
    converse_failures,
    identity_suite,
    integrality_audit,
    keys_with_ramification_at_most,
    parity_scan,
    partitions_of,
)
import hurwitz.analysis
import hurwitz.reference_data
from hurwitz.analysis import coefficient_sweep, verification_reports
from hurwitz.cli import main
from hurwitz.engine import _ledger
from hurwitz.partitions import branch_count, hurwitz_key, key_order
from hurwitz.reference_data import PUBLISHED_CONVERSE_FAILURES


def test_key_enumeration():
    assert keys_with_ramification_at_most(0) == [(0, (1,))]
    assert keys_with_ramification_at_most(1) == [(0, (1,)), (0, (2,))]
    keys = keys_with_ramification_at_most(4)
    assert len(keys) == len(set(keys))
    assert all(branch_count(*hurwitz_key(g, mu)) <= 4 for g, mu in keys)
    rs = [branch_count(*hurwitz_key(g, mu)) for g, mu in keys]
    assert rs == sorted(rs)
    # nothing in range is missed
    assert (0, (3, 1)) in keys and (2, (1,)) in keys and (1, (2,)) in keys


def test_key_enumeration_matches_a_sorted_reference():
    # every key with branch count <= 23, sorted by (branch count, genus,
    # weight, reverse-lex profile); a filter of a sorted list stays sorted
    reference = sorted(
        (
            (branch_count(*hurwitz_key(g, mu)), g, sum(mu), tuple(-p for p in mu), mu)
            for n in range(1, 25)
            for mu in partitions_of(n)
            for g in range(12)
            if branch_count(*hurwitz_key(g, mu)) <= 23
        )
    )
    # `key_order` spells the same order: it sorts the keys back from reversed
    keys = [(g, mu) for _, g, _, _, mu in reference]
    assert sorted(keys[::-1], key=key_order) == keys
    for r_max in range(-1, 24):
        for min_size in range(1, 6):
            expected = [(g, mu) for r, g, n, _, mu in reference if r <= r_max and n >= min_size]
            assert keys_with_ramification_at_most(r_max, min_size) == expected, (r_max, min_size)


def test_integrality_audit_smallest_ranges(shared_cache):
    rep0 = integrality_audit(0, shared_cache)
    assert len(rep0.records) == 1
    assert rep0.records[0].mu == (1,) and rep0.records[0].value == "1"
    assert rep0.ok

    rep1 = integrality_audit(1, shared_cache)
    labels = {(rec.g, rec.mu): rec.label for rec in rep1.records}
    assert labels[(0, (2,))] == "exception-half"
    assert rep1.ok


def test_integrality_audit_r10(shared_cache):
    rep = integrality_audit(10, shared_cache)
    assert rep.ok
    assert len(rep.records) == len(keys_with_ramification_at_most(10))
    # exceptions are labeled, everything else is a positive integer
    for rec in rep.records:
        if rec.mu == (1,) and rec.g >= 1:
            assert rec.label == "exception-zero"
        elif rec.mu in ((2,), (1, 1)):
            assert rec.label == "exception-half"
        else:
            assert rec.label == "positive-integer"


def test_every_key_appears_exactly_once(shared_cache):
    rep = integrality_audit(6, shared_cache)
    keys = [(rec.g, rec.mu) for rec in rep.records]
    assert len(keys) == len(set(keys))


def test_coefficient_audit_flat_pair():
    rep = coefficient_audit(0, (1, 1))
    assert rep.ok
    assert [rec.label for rec in rep.records] == ["merge-equal"]
    assert rep.records[0].value == "1"


def test_coefficient_audit_examples():
    assert coefficient_audit(1, (4,)).ok
    rep = coefficient_audit(2, (3, 1))
    assert rep.ok
    # the half-valued child profile (1,1) occurs and its coefficient absorbs the half
    twices = [twice for _, twice, children, _ in _ledger(2, (3, 1)) if any(c[1] == (1, 1) for c in children)]
    assert twices
    for twice in twices:
        assert twice % 4 == 0  # the coefficient, twice / 2, times 1/2 is an integer


def test_coefficient_audit_symmetric_case_has_even_binomial():
    rep = coefficient_audit(2, (4,))
    sym = [rec for rec in rep.records if rec.label == "split-symmetric"]
    assert sym and rep.ok
    binomials = [
        binomial
        for _, _, children, binomial in _ledger(2, (4,))
        if len(children) == 2 and children[0] == children[1]
    ]
    assert binomials and all(binomial % 2 == 0 for binomial in binomials)


def test_coefficient_audit_generator_keys_are_out_of_scope():
    for key in ((0, (2,)), (0, (5,))):
        rep = coefficient_audit(*key)
        assert rep.ok
        assert [rec.label for rec in rep.records] == ["generator-key"]


def test_coefficient_audit_all_integral_up_to_r8():
    for g, mu in keys_with_ramification_at_most(8):
        rep = coefficient_audit(g, mu)
        assert rep.ok, (g, mu)
        for rec in rep.records:
            if rec.label != "generator-key":
                assert "/" not in rec.value


def _poison_ledger(monkeypatch, key, poison):
    """Make the audits read `poison(terms)` for the ledger at `key`; the
    recursion keeps reading the real ledger."""
    real = hurwitz.analysis._ledger

    def poisoned(g, lam, grown=None):
        terms = real(g, lam, grown)
        return poison(terms) if (g, lam) == key else terms

    monkeypatch.setattr(hurwitz.analysis, "_ledger", poisoned)


def test_an_odd_central_binomial_fails_the_audit_and_the_sweep(monkeypatch):
    def odd_first_central_binomial(terms):
        i = next(i for i, term in enumerate(terms) if term[0] == "split-symmetric")
        label, twice, children, binomial = terms[i]
        assert twice % 2 == 0 and binomial % 2 == 0
        # the coefficient stays an even twice: only the evenness rule can fail it
        return terms[:i] + [(label, twice, children, binomial + 1)] + terms[i + 1:]

    _poison_ledger(monkeypatch, (2, (4,)), odd_first_central_binomial)
    audit = coefficient_audit(2, (4,))
    failing = [rec for rec in audit.records if not rec.passed]
    assert len(failing) == 1 and audit.failures == 1
    assert failing[0].label == "split-symmetric"
    assert failing[0].detail.endswith("central-binomial=21")  # C(6, 3) + 1
    sweep = coefficient_sweep(7)  # (2, (4)) has branch count 7
    assert sweep.records == failing
    assert sweep.summary.endswith(", 1 non-integral")


def test_the_sweep_counts_the_per_key_audit_records():
    per_key = sum(len(coefficient_audit(g, mu).records) for g, mu in keys_with_ramification_at_most(10))
    assert per_key == 1056
    sweep = coefficient_sweep(10)
    assert sweep.ok and sweep.records == []
    assert sweep.summary == "1056 terms, 0 non-integral"


def test_the_sweep_keeps_the_per_key_failing_records_in_order(monkeypatch):
    def odd_last_twice(terms):
        label, twice, children, binomial = terms[-1]
        return terms[:-1] + [(label, twice + 1, children, binomial)]

    _poison_ledger(monkeypatch, (1, (3, 2, 1)), odd_last_twice)
    expected = [
        rec
        for g, mu in keys_with_ramification_at_most(10)
        for rec in coefficient_audit(g, mu).records
        if not rec.passed
    ]
    assert len(expected) == 1
    sweep = coefficient_sweep(10)
    assert sweep.records == expected
    assert sweep.summary == "1056 terms, 1 non-integral"


def test_parity_scan_r8(shared_cache):
    rep = parity_scan(8, shared_cache)
    assert rep.ok
    assert converse_failures(rep) == set(PUBLISHED_CONVERSE_FAILURES[8])


def test_parity_scan_r10(shared_cache):
    rep = parity_scan(10, shared_cache)
    assert rep.ok
    assert converse_failures(rep) == set(PUBLISHED_CONVERSE_FAILURES[8]) | set(
        PUBLISHED_CONVERSE_FAILURES[10]
    )


def test_parity_scan_fails_on_a_published_list_it_does_not_match(shared_cache, monkeypatch, tmp_path, capsys):
    published = dict(PUBLISHED_CONVERSE_FAILURES)
    published[8] = published[8] - {(1, (7,))}
    monkeypatch.setattr(hurwitz.reference_data, "PUBLISHED_CONVERSE_FAILURES", published)
    failing = [rec for rec in parity_scan(10, shared_cache).records if not rec.passed]
    assert [rec.label for rec in failing] == ["published-list-r8"]
    line = (
        "  FAIL published-list-r8 value=3 pairs  expected [(1, (3, 3)), (1, (5, 1))], "
        "got [(1, (3, 3)), (1, (5, 1)), (1, (7,))]"
    )
    assert main(["parity", "--rmax", "10", "--cache", str(tmp_path / "cache.txt")]) == 1
    assert line in capsys.readouterr().out.splitlines()


def test_parity_scan_r2_has_no_converse_failures(shared_cache):
    rep = parity_scan(3, shared_cache)
    assert rep.ok
    assert converse_failures(rep) == set()
    odd = [(g, tuple(mu)) for g, mu in rep.data["odd"]]
    assert odd == [(0, (3,))]


def test_identity_suite_reports_erratum(shared_cache):
    rep = identity_suite(6, 6, shared_cache)
    assert rep.ok
    errata = [rec for rec in rep.records if rec.label == "table-erratum"]
    assert len(errata) == 1
    rec = errata[0]
    assert rec.g == 2 and rec.mu == (1, 1, 1) and rec.value == "364"
    assert "printed 264" in rec.detail
    cells = [rec for rec in rep.records if rec.label == "table-cell"]
    assert len(cells) == 29 * 7 - 1  # printed cells for weights 1..6 minus the erratum


def test_identity_suite_one_part_row(shared_cache):
    rep = identity_suite(1, 6, shared_cache)
    row = [rec for rec in rep.records if rec.label == "one-part-genus0" and rec.mu == (6,)]
    assert row and row[0].value == "216"


def test_reports_serialize_deterministically(shared_cache):
    from hurwitz import HurwitzCache

    a = parity_scan(8, shared_cache).to_json()
    b = parity_scan(8, HurwitzCache()).to_json()
    assert a == b


def test_failure_is_counted(shared_cache):
    rep = integrality_audit(2, shared_cache)
    assert rep.failures == 0
    # forge a failing record and watch the summary flip
    from hurwitz.analysis import AuditRecord

    rep.records.append(AuditRecord("forced", 0, (1,), "0", False))
    assert rep.failures == 1
    assert not rep.ok


def test_verification_reports_are_verify_lines_in_order(shared_cache):
    reports = verification_reports(3, True, shared_cache)
    first = next(reports)  # each report is yielded as soon as it is done
    assert (first.name, first.summary, first.ok) == (
        "cross-method",
        "8 keys (recursion vs charsum/operator logs)",
        True,
    )
    assert [(rep.name, rep.summary, rep.ok) for rep in reports] == [
        ("identities", "67 checks, 0 failures", True),
        ("integrality", "8 keys, 0 violations", True),
        ("coefficients", "9 terms, 0 non-integral", True),
        ("oracle", "88 brute-force comparisons, 0 mismatches", True),
    ]
    assert [rep.name for rep in verification_reports(0, False, shared_cache)] == [
        "cross-method",
        "identities",
        "integrality",
        "coefficients",
    ]
