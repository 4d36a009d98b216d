"""Machine checks of the routes against each other and the oracle, integrality,
recursion coefficients, parity data and known identities, as structured reports.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from . import engine, oracle, reference_data
from .engine import HurwitzCache, _ledger, hurwitz_number, integrality_check, one_part_genus0
from .partitions import Partition, branch_count, format_partition, hurwitz_key, partitions_of


class AuditRecord(NamedTuple):
    label: str
    g: int | None
    mu: Partition | None
    value: str
    passed: bool
    detail: str = ""


class AuditReport:
    """Deterministic audit result: scope descriptor, per-key records, summary."""

    def __init__(self, name: str, scope: str):
        self.name = name
        self.scope = scope
        self.records: list[AuditRecord] = []
        self.data: dict = {}
        self.summary = ""  # the line `hurwitz verify` prints after PASS or FAIL

    @property
    def failures(self) -> int:
        return sum(1 for rec in self.records if not rec.passed)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_json(self) -> str:
        body = {
            "name": self.name,
            "scope": self.scope,
            "checked": len(self.records),
            "failures": self.failures,
            "records": [rec._asdict() for rec in self.records],
            "data": self.data,
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    def render(self) -> str:
        lines = [f"[{self.name}] {self.scope}: {len(self.records)} checks, {self.failures} failures"]
        for rec in self.records:
            mark = "ok  " if rec.passed else "FAIL"
            where = ""
            if rec.mu is not None:
                where = f" g={rec.g} mu=({format_partition(rec.mu)})"
            tail = f"  {rec.detail}" if rec.detail else ""
            lines.append(f"  {mark} {rec.label}{where} value={rec.value}{tail}")
        return "\n".join(lines)


def keys_with_ramification_at_most(r_max: int, min_size: int = 1) -> list[tuple[int, Partition]]:
    """All (g, mu) with mu nonempty, |mu| >= min_size and branch count <= r_max.

    Deterministic order: `partitions.key_order` (branch count, then genus,
    then weight, then reverse-lexicographic profile), built directly in that
    order rather than sorted.
    """
    sizes = range(max(min_size, 1), r_max + 2)
    # (weight, length) -> profiles in reverse-lexicographic order; at a fixed
    # branch count and genus, the weight fixes the length, and a weight-n
    # profile within range has at most r_max + 2 - n parts.
    by_shape: dict[tuple[int, int], list[Partition]] = {}
    for n in sizes:
        for mu in partitions_of(n, max_len=r_max + 2 - n):
            by_shape.setdefault((n, len(mu)), []).append(mu)
    out = []
    for r in range(r_max + 1):
        for g in range(r // 2 + 1):
            for n in sizes:
                out.extend((g, mu) for mu in by_shape.get((n, r - 2 * g + 2 - n), ()))
    return out


# ---------------------------------------------------------------------------
# integrality

def integrality_audit(r_max: int, cache: HurwitzCache) -> AuditReport:
    """Check `integrality_check` on every value in range."""
    report = AuditReport(name="integrality", scope=f"r<={r_max}")
    for g, mu in keys_with_ramification_at_most(r_max):
        h = hurwitz_number(g, mu, cache)
        label, ok = integrality_check(g, mu, h)
        report.records.append(AuditRecord(label, g, mu, str(h), ok))
    report.summary = f"{len(report.records)} keys, {report.failures} violations"
    return report


# ---------------------------------------------------------------------------
# recursion coefficient audit

def _term_ok(label: str, twice: int, binomial: int | None) -> bool:
    """The audit's rule for one ledger term: its coefficient, twice / 2, is a
    non-negative integer, and a symmetric split's central binomial is even."""
    ok = twice % 2 == 0 and twice >= 0
    if label == "split-symmetric":
        ok = ok and binomial is not None and binomial % 2 == 0
    return ok


def _is_generator(g: int, lam: Partition) -> bool:
    """A one-part genus-zero key, which carries no coefficient ledger."""
    return g == 0 and len(lam) == 1


def coefficient_audit(g: int, k: Iterable[int]) -> AuditReport:
    """Check every collapsed recursion coefficient at (g, k) is a non-negative integer.

    One-part genus-zero keys are the generators of the polynomial expression
    of Hurwitz numbers; the recursion is never applied to them when rewriting
    toward generators, so they carry no coefficient ledger.  (At the unique
    branch-count-one key, profile (2), the symmetric split would have central
    binomial 1 and coefficient one half: that term is precisely where the
    exceptional half values originate.)
    """
    g, lam = hurwitz_key(g, k)
    r = branch_count(g, lam)
    report = AuditReport(name="coefficients", scope=f"g={g} mu=({format_partition(lam)}) r={r}")
    if _is_generator(g, lam):
        report.records.append(
            AuditRecord(
                "generator-key",
                g,
                lam,
                "-",
                True,
                "one-part genus-zero generator, outside the coefficient ledger",
            )
        )
        return report
    for label, twice, children, binomial in _ledger(g, lam):
        detail = " * ".join(f"h[{cg},({format_partition(cmu)})]" for cg, cmu in children)
        if label == "split-symmetric":
            detail += f" central-binomial={binomial}"
        report.records.append(
            AuditRecord(label, g, lam, str(Fraction(twice, 2)), _term_ok(label, twice, binomial), detail)
        )
    return report


def coefficient_sweep(r_max: int) -> AuditReport:
    """`coefficient_audit` at every key in range, as one report that keeps
    the failing records only: each key's terms are counted under the audit's
    rule, and the audit itself runs only at a key with a failing term."""
    report = AuditReport(name="coefficients", scope=f"r<={r_max}")
    terms = 0
    for g, mu in keys_with_ramification_at_most(r_max):
        if _is_generator(g, mu):
            terms += 1  # the audit's one generator-key record
            continue
        ledger = _ledger(g, mu)
        terms += len(ledger)
        if not all(_term_ok(label, twice, binomial) for label, twice, _, binomial in ledger):
            report.records.extend(rec for rec in coefficient_audit(g, mu).records if not rec.passed)
    report.summary = f"{terms} terms, {report.failures} non-integral"
    return report


# ---------------------------------------------------------------------------
# parity

def parity_scan(r_max: int, cache: HurwitzCache) -> AuditReport:
    """Scan all keys with weight >= 3 in range for the parity implication.

    Every odd value must occur at an even branch count with all parts odd and
    at most two parts.  Keys meeting those conditions whose value is even are
    collected as converse failures and compared per branch count against the
    published list, up to the largest branch count it covers.
    """
    report = AuditReport(name="parity", scope=f"r<={r_max}, |mu|>=3")
    odd_keys: list[tuple[int, Partition]] = []
    converse: dict[int, set[tuple[int, Partition]]] = {}
    for g, mu in keys_with_ramification_at_most(r_max, min_size=3):
        h = hurwitz_number(g, mu, cache)
        r = branch_count(g, mu)
        is_odd = h.denominator == 1 and h.numerator % 2 == 1
        candidate = r % 2 == 0 and len(mu) <= 2 and all(p % 2 == 1 for p in mu)
        if is_odd:
            odd_keys.append((g, mu))
            report.records.append(
                AuditRecord("odd-implication", g, mu, str(h), candidate, f"r={r}")
            )
        elif candidate:
            converse.setdefault(r, set()).add((g, mu))
    for r in sorted(converse):
        for g, mu in sorted(converse[r]):
            report.records.append(
                AuditRecord("converse-even", g, mu, "even", True, f"r={r}")
            )
    for r in range(0, min(r_max, max(reference_data.PUBLISHED_CONVERSE_FAILURES)) + 1, 2):
        expected = reference_data.PUBLISHED_CONVERSE_FAILURES.get(r, frozenset())
        got = frozenset(converse.get(r, set()))
        report.records.append(
            AuditRecord(
                f"published-list-r{r}",
                None,
                None,
                f"{len(got)} pairs",
                got == expected,
                "matches published data" if got == expected else f"expected {sorted(expected)}, got {sorted(got)}",
            )
        )
    report.data["odd"] = [[g, list(mu)] for g, mu in odd_keys]
    report.data["converse_failures"] = [
        [r, [[g, list(mu)] for g, mu in sorted(pairs)]] for r, pairs in sorted(converse.items())
    ]
    return report


def converse_failures(report: AuditReport) -> set[tuple[int, Partition]]:
    """Flatten the converse-failure pairs out of a parity report."""
    out = set()
    for _, pairs in report.data.get("converse_failures", []):
        for g, mu in pairs:
            out.add((g, tuple(mu)))
    return out


# ---------------------------------------------------------------------------
# known identities and reference tables

def identity_suite(g_max: int, n_max: int, cache: HurwitzCache) -> AuditReport:
    """Verify the four closed identities on a grid and cross-check reference tables.

    The single known typo in the bundled tables is reported as an erratum
    record (passing when the computed value matches the correction).
    """
    report = AuditReport(name="identities", scope=f"g<={g_max}, n<={n_max}")

    for n in range(1, n_max + 1):
        h = hurwitz_number(0, (n,), cache)
        expect = one_part_genus0(n)
        report.records.append(
            AuditRecord("one-part-genus0", 0, (n,), str(h), h == expect, f"expected {expect}")
        )
    for g in range(1, g_max + 1):
        h = hurwitz_number(g, (1,), cache)
        report.records.append(AuditRecord("one-point-vanishing", g, (1,), str(h), h == 0))
    for g in range(0, g_max + 1):
        h2 = hurwitz_number(g, (2,), cache)
        h11 = hurwitz_number(g, (1, 1), cache)
        ok = h2 == h11 == Fraction(1, 2)
        report.records.append(AuditRecord("half-values", g, (2,), f"{h2},{h11}", ok))
    for n in range(2, n_max + 1):
        for g in range(0, g_max + 1):
            left = hurwitz_number(g, (2,) + (1,) * (n - 2), cache)
            right = hurwitz_number(g, (1,) * n, cache)
            report.records.append(
                AuditRecord("merge-identity", g, (1,) * n, f"{left},{right}", left == right)
            )

    for n in range(1, min(n_max, 6) + 1):
        rows = reference_data.reference_rows(n)
        for mu in partitions_of(n):
            for g in range(0, min(g_max, 6) + 1):
                h = hurwitz_number(g, mu, cache)
                fix = reference_data.ERRATA.get((mu, g))
                if fix:
                    printed, expect = fix
                    label, detail = "table-erratum", f"printed {printed}, corrected {expect}"
                else:
                    expect = rows[mu][g]
                    label, detail = "table-cell", f"printed {expect}"
                report.records.append(AuditRecord(label, g, mu, str(h), h == expect, detail))
    report.summary = f"{len(report.records)} checks, {report.failures} failures"
    return report


# ---------------------------------------------------------------------------
# independent routes and the brute-force oracle: a record per mismatch only

def cross_method_audit(r_max: int, cache: HurwitzCache) -> AuditReport:
    """Compare the recursion with the charsum and operator logs at every key in range."""
    report = AuditReport(name="cross-method", scope=f"r<={r_max}")
    keys = keys_with_ramification_at_most(r_max)
    # Every key has |mu| <= r_max + 1: build each log table once, at full size.
    for method in engine._SERIES_BUILDERS:
        engine.log_table(r_max + 1, r_max, method)
    for g, mu in keys:
        h = hurwitz_number(g, mu, cache)
        for method in engine._SERIES_BUILDERS:
            other = engine.connected_from_log(g, mu, method=method)
            if other != h:
                report.records.append(AuditRecord(method, g, mu, str(other), False, f"!= {h}"))
    report.summary = f"{len(keys)} keys (recursion vs charsum/operator logs)"
    return report


def oracle_audit(d_max: int, r_max: int, cache: HurwitzCache) -> AuditReport:
    """Compare brute-force cover counts on every d <= d_max, profile of d and
    r <= r_max: disconnected with the character-sum series, connected with
    the recursion (zero where no genus has that branch count)."""
    report = AuditReport(name="oracle", scope=f"d<={d_max}, r<={r_max}")
    series = engine.covering_series_charsum(d_max, r_max)
    groups = {}  # each S_d is indexed once for the whole grid
    checked = 0
    for d in range(1, d_max + 1):
        for mu in partitions_of(d):
            genus_at = {branch_count(g, mu): g for g in range(r_max // 2 + 1)}
            for r in range(r_max + 1):
                expect = series[(d, r, mu)]
                disc = oracle.count_covers_bruteforce(d, r, mu, connected=False, groups=groups)
                if disc != expect:
                    report.records.append(
                        AuditRecord(f"r={r} disconnected", None, mu, str(disc), False, f"!= {expect}")
                    )
                conn = oracle.count_covers_bruteforce(d, r, mu, connected=True, groups=groups)
                g = genus_at.get(r)
                expect = Fraction(0) if g is None else hurwitz_number(g, mu, cache)
                if conn != expect:
                    report.records.append(
                        AuditRecord(f"r={r} connected", None, mu, str(conn), False, f"!= {expect}")
                    )
                checked += 2
    report.summary = f"{checked} brute-force comparisons, {report.failures} mismatches"
    return report


# ---------------------------------------------------------------------------
# hurwitz verify

def verification_reports(
    r_max: int, with_oracle: bool, cache: HurwitzCache
) -> Iterator[AuditReport]:
    """The one list of `hurwitz verify`'s checks and their bounds, each report
    yielded as it finishes.  A new check is a function that returns an
    `AuditReport` with its `summary` set, and one `yield` here."""
    yield cross_method_audit(r_max, cache)
    yield identity_suite(min(r_max, 6), min(r_max + 1, 6), cache)
    yield integrality_audit(r_max, cache)
    yield coefficient_sweep(min(r_max, 10))
    if with_oracle:
        yield oracle_audit(min(r_max + 1, 5), min(r_max, 6), cache)
