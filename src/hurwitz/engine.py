"""Connected Hurwitz numbers by four independent routes.

* cut-and-join recursion over ramification profiles (the workhorse),
* character sums for disconnected counts, followed by a series logarithm,
* operator powers for disconnected counts, followed by a series logarithm,
* closed forms for one-part and genus-zero two-part profiles.

All arithmetic is exact rational end to end; no floating point appears in
this module.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import Counter
from fractions import Fraction
from math import comb, factorial
from typing import Iterable

from .partitions import (
    Partition,
    as_partition,
    branch_count,
    centralizer_order,
    content_sum,
    cover_args,
    dim_irrep,
    format_partition,
    hurwitz_key,
    key_order,
    partitions_of,
)
from .symfunc import CharMemo, PowerSumPoly, _character, bead_mask, cut_and_join

SeriesKey = tuple[int, int, Partition]


class GenSeries:
    """Truncated generating series with entries indexed by (d, r, mu).

    The entry at (d, r, mu) is the coefficient of Q^d (beta^r / r!) p_mu, so
    the beta grading is a divided-power grading: products pick up binomial
    weights in r.  A table is written only by the build that computes it
    (`covering_series`, `covering_series_charsum`, `log`), straight into
    `coeffs`: canonical keys within the bounds, nonzero `Fraction` values.
    The one checked door is the read, which refuses a key whose mu does not
    have size d or whose r is negative.
    """

    __slots__ = ("d_max", "r_max", "coeffs")

    def __init__(self, d_max: int, r_max: int):
        if d_max < 0 or r_max < 0:
            raise ValueError("bounds must be non-negative")
        self.d_max = d_max
        self.r_max = r_max
        self.coeffs: dict[SeriesKey, Fraction] = {}

    def __getitem__(self, key: SeriesKey) -> Fraction:
        d, r, mu = key
        mu = as_partition(mu)
        if sum(mu) != d:
            raise ValueError(f"key partition ({format_partition(mu)}) does not have size {d}")
        if r < 0:
            raise ValueError("r must be non-negative")
        return self.coeffs.get((d, r, mu), Fraction(0))

    def log(self) -> "GenSeries":
        """Series logarithm, requiring constant term exactly 1.

        Scaling the entry at (d, r, mu) by its degree n = d + r is a derivation
        of the product, so H = log F satisfies, on the degree-n pieces,
        n H_n = n F_n - sum_{0<k<n} (k H_k) F_{n-k}; H is built degree by degree.
        """
        if self[(0, 0, ())] != 1:
            raise ValueError("log requires constant term 1")
        d_max, r_max = self.d_max, self.r_max
        pieces: dict[int, dict[SeriesKey, Fraction]] = {}
        for key, c in self.coeffs.items():
            pieces.setdefault(key[0] + key[1], {})[key] = c
        scaled: dict[int, dict[SeriesKey, Fraction]] = {}  # n -> n H_n
        res = GenSeries(d_max, r_max)
        for n in range(1, d_max + r_max + 1):
            acc = {key: n * c for key, c in pieces.get(n, {}).items()}
            for k, hk in scaled.items():
                if n - k in pieces:
                    for key, c in _mul_coeffs(hk, pieces[n - k], d_max, r_max).items():
                        acc[key] = acc.get(key, 0) - c
            acc = {key: c for key, c in acc.items() if c}
            if acc:
                scaled[n] = acc
                res.coeffs.update((key, c / n) for key, c in acc.items())
        return res


def _mul_coeffs(
    a: dict[SeriesKey, Fraction],
    b: dict[SeriesKey, Fraction],
    d_max: int,
    r_max: int,
) -> dict[SeriesKey, Fraction]:
    """Divided-power product of coefficient maps, truncated to the bounds."""
    out: dict[SeriesKey, Fraction] = {}
    for (d1, r1, mu1), c1 in a.items():
        for (d2, r2, mu2), c2 in b.items():
            d, r = d1 + d2, r1 + r2
            if d > d_max or r > r_max:
                continue
            key = (d, r, tuple(sorted(mu1 + mu2, reverse=True)))
            out[key] = out.get(key, 0) + comb(r, r1) * c1 * c2
    return {key: c for key, c in out.items() if c}


# ---------------------------------------------------------------------------
# disconnected counts

def disconnected_count_charsum(d: int, r: int, mu: Iterable[int]) -> Fraction:
    """Weighted disconnected cover count via a character sum.

    Sum over lam of d of (dim lam / d!) (content_sum lam)^r chi^lam_mu / z_mu.
    """
    mu = cover_args(d, r, mu)
    return _charsum_counts(_irreps(d, d), mu, r, {})[r]


def _irreps(d: int, beads: int) -> list[tuple[int, int, int]]:
    """(bead mask of lam on `beads` >= d rows, dim lam, content_sum lam) for
    every partition lam of d."""
    return [(bead_mask(lam, beads), dim_irrep(lam), content_sum(lam)) for lam in partitions_of(d)]


def _charsum_counts(
    irreps: list[tuple[int, int, int]], mu: Partition, r_max: int, memo: CharMemo
) -> list[Fraction]:
    """The character sum at mu for each r from 0 to r_max, row r at index r.

    The characters at mu are read off the irreps' bead masks once, by
    `_character`, which skips `character`'s argument checks: each mask
    comes from a partition of `partitions_of` and mu is canonical, of the
    same size.  Each row is one integer sum of the terms dim lam *
    chi^lam_mu * (content_sum lam)^r over d! z_mu, and each term goes from
    one row to the next by one multiplication by content_sum lam.
    """
    contents, terms = [], []
    for mask, dim, c in irreps:
        chi = _character(mask, mu, memo)
        if chi:
            contents.append(c)
            terms.append(dim * chi)
    den = factorial(sum(mu)) * centralizer_order(mu)
    rows = [Fraction(sum(terms), den)]
    for _ in range(r_max):
        terms = [t * c for t, c in zip(terms, contents)]
        rows.append(Fraction(sum(terms), den))
    return rows


def covering_series(d_max: int, r_max: int) -> GenSeries:
    """Generating series of disconnected counts, built by operator powers:
    each cut-and-join power of p_1^d is taken from the one before, in
    integers, and each entry is divided by d! once, as it is stored."""
    out = GenSeries(d_max, r_max)
    for d in range(d_max + 1):
        d_fact = factorial(d)
        for r in range(r_max + 1):
            poly = cut_and_join(poly) if r else PowerSumPoly.monomial((1,) * d)
            out.coeffs.update(((d, r, mu), Fraction(c, d_fact)) for mu, c in poly.terms.items())
    return out


def covering_series_charsum(d_max: int, r_max: int) -> GenSeries:
    """Generating series of disconnected counts, built by character sums.

    Every shape gets d_max beads, so the strips removed at degree d reach
    the same masks as the shapes of smaller degrees, and one character memo
    serves every d.
    """
    out = GenSeries(d_max, r_max)
    out.coeffs[(0, 0, ())] = Fraction(1)
    memo: CharMemo = {}
    for d in range(1, d_max + 1):
        irreps = _irreps(d, d_max)
        for mu in partitions_of(d):
            for r, value in enumerate(_charsum_counts(irreps, mu, r_max, memo)):
                if value:
                    out.coeffs[(d, r, mu)] = value
    return out


# Grow-on-demand store of logged covering series, one per construction route: the
# one process-long memo, as `connected_from_log` is asked per key with no table passed.
_log_tables: dict[str, GenSeries] = {}

_SERIES_BUILDERS = {
    "operator": covering_series,
    "charsum": covering_series_charsum,
}


def log_table(d_max: int, r_max: int, method: str) -> GenSeries:
    """Logarithm of the covering series built by `method`, at least to the bounds.

    A table is rebuilt, at the larger bounds, only when a request exceeds
    it; a caller that knows its largest key builds the table once up front.
    """
    builder = _SERIES_BUILDERS.get(method)
    if builder is None:
        expected = " or ".join(map(repr, _SERIES_BUILDERS))
        raise ValueError(f"unknown series method {method!r}; expected {expected}")
    cur = _log_tables.get(method)
    if cur is not None and cur.d_max >= d_max and cur.r_max >= r_max:
        return cur
    nd = max(d_max, cur.d_max if cur else 0)
    nr = max(r_max, cur.r_max if cur else 0)
    table = builder(nd, nr).log()
    _log_tables[method] = table
    return table


def connected_from_log(g: int, mu: Iterable[int], method: str = "operator") -> Fraction:
    """Connected Hurwitz number read off the logarithm of the covering series."""
    g, mu = hurwitz_key(g, mu)
    r = branch_count(g, mu)
    table = log_table(sum(mu), r, method)
    return table[(sum(mu), r, mu)]


# ---------------------------------------------------------------------------
# persistent value cache

class CacheConflictError(ValueError):
    """Two sources disagree about a cached Hurwitz value."""


def integrality_check(g: int, mu: Partition, value: Fraction) -> tuple[str, bool]:
    """The integrality theorem at one key: (which case applies, whether value obeys it).

    Every value is a positive integer, except that profile (1) vanishes for
    genus >= 1 and profiles (2), (1,1) equal one half for every genus.
    """
    if mu == (1,) and g >= 1:
        return "exception-zero", value.numerator == 0
    if mu in ((2,), (1, 1)):
        return "exception-half", value.numerator == 1 and value.denominator == 2
    return "positive-integer", value.denominator == 1 and value.numerator > 0


class HurwitzCache:
    """Memo map (g, mu) -> 2h for the cut-and-join recursion.

    `twice` holds twice the value at each key, an int: the integrality
    theorem, checked at the one door `_store`, admits only multiples of 1/2.
    A key, once inserted, is never overwritten with a different value;
    disagreement is a hard error.  The persistence format is line-delimited
    JSON, sorted so saves are byte-for-byte reproducible.  A cache takes no
    lock: threads may share it for `hurwitz_number`, which stores the same
    value for a key in every thread, but `insert` and `save` need it to
    themselves.
    """

    def __init__(self, path: str | None = None):
        self.twice: dict[tuple[int, Partition], int] = {}
        self.path = path
        # (sub-multiset, part) -> the split child's profile, for `_ledger`;
        # threads sharing the cache store equal profiles for a key.
        self._grown: dict[tuple[Partition, int], Partition] = {}

    def insert(self, g: int, mu: Partition, value: Fraction) -> None:
        """Store a value at the canonical key `hurwitz_key(g, mu)`.

        A key that `hurwitz_key` refuses or a value the integrality theorem rules
        out raises ValueError, so the cache never holds an entry `cache_load` refuses.
        """
        self._store(hurwitz_key(g, mu), Fraction(value))

    def _store(self, key: tuple[int, Partition], value: Fraction) -> None:
        """Store a value at a key `hurwitz_key` has made canonical.  The one
        rule for values from outside the recursion (`insert`, `cache_load`
        and `save`'s reload): a value the integrality theorem rules out
        raises ValueError, a key held with another value CacheConflictError."""
        g, mu = key
        if not integrality_check(g, mu, value)[1]:
            raise ValueError(
                f"cached value {value} at g={g}, mu=({format_partition(mu)}) contradicts the integrality theorem"
            )
        # the theorem leaves only denominators 1 and 2, so this is exact
        twice = 2 * value.numerator // value.denominator
        old = self.twice.setdefault(key, twice)
        if old != twice:
            raise CacheConflictError(
                f"cache conflict at g={g}, mu=({format_partition(mu)}): {Fraction(old, 2)} != {value}"
            )

    def __len__(self) -> int:
        return len(self.twice)

    def save(self) -> None:
        """Write the cache to its path, merged with the file already there.

        The whole file is reloaded first and each of its entries stored, so
        entries another run saved since this cache was loaded are kept; a
        line `cache_load` refuses, anywhere in the file, raises before a value
        that disagrees with this cache does, and either leaves the file as it
        is.  Two runs can still race between the reload and the rename.
        """
        path = self.path
        if not path:
            raise ValueError("no cache path configured")
        for key, twice in cache_load(path).twice.items():
            self._store(key, Fraction(twice, 2))
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        # Each line is json.dumps({"g", "mu", "num", "den"}, separators=(",", ":")),
        # written out directly: every field is an int or a string of digits.
        # A value 2h / 2 in lowest terms is h / 1 for even 2h, else 2h / 2.
        lines = [
            f'{{"g":{g},"mu":[{",".join(map(str, mu))}],'
            f'"num":"{twice if twice % 2 else twice // 2}","den":"{1 + twice % 2}"}}'
            for (g, mu), twice in sorted(self.twice.items(), key=lambda item: key_order(item[0]))
        ]
        # Write a sibling file and rename it over the target, so a crash or a
        # failed write leaves the old cache whole.  The name is unique per
        # process and live cache, so concurrent saves never share it.
        tmp = f"{path}.{os.getpid()}-{id(self)}.tmp"
        try:
            with open(tmp, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines))
                if lines:
                    fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise


def cache_load(path: str) -> HurwitzCache:
    """Load a cache file; a missing file yields an empty cache with that path.

    Each line is checked once and stored by `insert`'s rule, so a key that
    repeats with a different value raises CacheConflictError.  A line must be
    ASCII; the profile must be a JSON array that passes `hurwitz_key` and is
    already in descending order, and `num` and `den` strings equal to
    `str(int(text))` (no `+`, space, underscore or leading zero) with den > 0,
    so a line that `save` could not have written is refused rather than
    silently rewritten; so are a fraction not in lowest terms, a record with
    any other field and a value the integrality theorem rules out.  The first
    offending line in file order is reported as `PATH:LINE: malformed cache
    line: ` and the fault, with `hurwitz_key`'s message for a fault in the key.
    """
    cache = HurwitzCache(path=path)
    if not os.path.exists(path):
        return cache
    with open(path, "rb") as fh:
        # bytes.splitlines ends lines where text mode's universal newlines do
        for lineno, line in enumerate(fh.read().splitlines(), start=1):
            try:
                line = line.decode("ascii").strip()
                if not line:
                    continue
                rec = json.loads(line)
                mu = rec["mu"]
                if type(mu) is not list:
                    raise ValueError(f"profile is not a list of integers: {mu!r}")
                key = hurwitz_key(rec["g"], mu)
                if list(key[1]) != mu:
                    raise ValueError(f"not a partition: {tuple(mu)!r}")
                num_text, den_text = rec["num"], rec["den"]
                num, den = int(num_text), int(den_text)
                if str(num) != num_text or str(den) != den_text:
                    raise ValueError(f"num {num_text!r}, den {den_text!r}: not canonical decimal strings")
                if den <= 0:
                    raise ValueError("denominator must be positive")
                value = Fraction(num, den)
                if value.denominator != den:
                    raise ValueError(f"{num}/{den} is not in lowest terms")
                if len(rec) != 4:
                    raise ValueError(f"unexpected fields: {sorted(rec.keys() - {'g', 'mu', 'num', 'den'})}")
                cache._store(key, value)
            except CacheConflictError:
                raise
            except Exception as exc:
                raise ValueError(f"{path}:{lineno}: malformed cache line: {exc}") from exc
    return cache


# ---------------------------------------------------------------------------
# cut-and-join recursion

# One collapsed right-hand-side term: (label, twice the coefficient, children,
# the branch-point binomial of a split or None).  Every coefficient is a
# multiple of 1/2, so twice it is an int.
LedgerTerm = tuple[str, int, tuple[tuple[int, Partition], ...], int | None]


def _ledger(g: int, lam: Partition, grown: dict[tuple[Partition, int], Partition] | None = None) -> list[LedgerTerm]:
    """Collapsed coefficient families of the recursion at a valid key (g, lam).

    The value at (g, lam) is the sum over these terms of the coefficient
    (half the stored twice-coefficient) times the product of the children's
    values.  Multiplicity collapsing follows the identities
      merge, distinct parts a != b:   (m_{a+b} + 1)(a + b)
      merge, equal parts a:           (m_{2a} + 1) a
      genus-drop cut, alpha != beta:  alpha beta (m_alpha + 1)(m_beta + 1)
      genus-drop cut, alpha = beta:   (alpha^2 / 2)(m_alpha + 1)(m_alpha + 2)
      disconnecting cut:  eps (m_alpha(l)+1)(m_beta(n)+1)(alpha beta / 2) binom(r-1, r1)
    with eps = 1 exactly when both factors coincide (then the binomial is a
    central binomial, hence even).

    A split child's profile is a sub-multiset of lam's parts grown by one
    part; `grown` maps (sub-multiset, part) to that profile, so each is
    sorted once per table.  `hurwitz_number` passes its cache's table;
    without one, a fresh table is used.
    """
    r = branch_count(g, lam)
    m = Counter(lam)
    values = sorted(m, reverse=True)
    terms: list[LedgerTerm] = []

    # merges
    for ai, a in enumerate(values):
        for b in values[ai:]:
            if a == b:
                if m[a] < 2:
                    continue
                merged = _replace(lam, (a, a), (2 * a,))
                terms.append(("merge-equal", 2 * (m[2 * a] + 1) * a, ((g, merged),), None))
            else:
                merged = _replace(lam, (a, b), (a + b,))
                terms.append(("merge-distinct", 2 * (m[a + b] + 1) * (a + b), ((g, merged),), None))

    # genus-drop cuts
    if g >= 1:
        for a in values:
            for alpha in range(1, a // 2 + 1):
                beta = a - alpha
                prof = _replace(lam, (a,), (alpha, beta))
                if alpha == beta:
                    twice = alpha * alpha * (m[alpha] + 1) * (m[alpha] + 2)
                    terms.append(("cut-genus-equal", twice, ((g - 1, prof),), None))
                else:
                    twice = 2 * alpha * beta * (m[alpha] + 1) * (m[beta] + 1)
                    terms.append(("cut-genus-distinct", twice, ((g - 1, prof),), None))

    # disconnecting cuts: one side takes sub-multiset l of the remaining
    # parts plus alpha, the other the complement n plus beta; the swap of the
    # two sides is collapsed into eps.  A side (g1, alpha, l) is kept when it
    # does not exceed its mirror (g - g1, beta, n): always for g1 < g/2, never
    # for g1 > g/2, and by comparing (alpha, l) with (beta, n) at g1 = g/2;
    # so at g = 0, where g1 = g/2 is the only side, alpha stops at a // 2.
    # A split reads the binomial at index 2 g1 + r1_base + alpha, which is at
    # most r - g - 1; a key with no part of 2 or more has none.
    binomials = []
    if lam[0] > 1:
        binomials = [comb(r - 1, k) for k in range(r - g)]
    if grown is None:
        grown = {}
    for a in values:
        # every sub-multiset l of the parts beside a, paired with its
        # complement n, by how many copies l takes of each value, largest first
        pairs = [((), ())]
        for v in values:
            k = m[v] - (v == a)
            pairs = [(sub + (v,) * take, co + (v,) * (k - take)) for sub, co in pairs for take in range(k + 1)]
        for l_multiset, n_multiset in pairs:
            # the branch count of (g1, l + alpha) is 2 g1 + r1_base + alpha
            r1_base = len(l_multiset) - 1 + sum(l_multiset)
            for alpha in range(1, a if g else a // 2 + 1):
                beta = a - alpha
                lp = grown.get((l_multiset, alpha)) or grown.setdefault(
                    (l_multiset, alpha), tuple(sorted(l_multiset + (alpha,), reverse=True))
                )
                np_ = grown.get((n_multiset, beta)) or grown.setdefault(
                    (n_multiset, beta), tuple(sorted(n_multiset + (beta,), reverse=True))
                )
                # lp holds m_alpha(l) + 1 copies of alpha, np_ m_beta(n) + 1 of beta
                weight = lp.count(alpha) * np_.count(beta) * alpha * beta
                for g1 in range((g + 1) // 2):
                    binomial = binomials[2 * g1 + r1_base + alpha]
                    terms.append(("split", 2 * weight * binomial, ((g1, lp), (g - g1, np_)), binomial))
                if g % 2 == 0 and (alpha, l_multiset) <= (beta, n_multiset):
                    binomial = binomials[g + r1_base + alpha]  # g1 = g2 = g/2
                    children = ((g // 2, lp), (g // 2, np_))
                    if (alpha, l_multiset) == (beta, n_multiset):
                        terms.append(("split-symmetric", weight * binomial, children, binomial))
                    else:
                        terms.append(("split", 2 * weight * binomial, children, binomial))
    return terms


def _replace(lam: Partition, remove: tuple[int, ...], add: tuple[int, ...]) -> Partition:
    parts = list(lam)
    for x in remove:
        parts.remove(x)
    return tuple(sorted(parts + list(add), reverse=True))


def hurwitz_number(g: int, mu: Iterable[int], cache: HurwitzCache | None = None) -> Fraction:
    """Connected Hurwitz number by the memoized cut-and-join recursion.

    Accepts any multi-index for mu; the value depends only on the underlying
    partition.  The ledger is evaluated with an explicit stack, children
    before parents, so no Python recursion limit applies.  Every child has a
    strictly smaller branch count, so evaluation ends at the single
    count-zero key (0, (1)), the trivial covering.

    The sum runs on integers: the cache holds 2h at each key, and each key's
    8h = sum of 2 * twice * (2 h1) over one-child terms plus twice * (2 h1)
    * (2 h2) over two-child terms must be divisible by 4, or ArithmeticError
    is raised: every evaluation checks that the value is again a multiple of
    1/2.  The one `Fraction` built is the value returned.
    """
    g, lam = hurwitz_key(g, mu)
    store = cache if cache is not None else HurwitzCache()
    twice_h = store.twice
    grown = store._grown
    # (key, its terms once built); a key is summed as soon as every child has
    # a 2h, and otherwise pushed back beneath its missing children.
    stack: list[tuple[tuple[int, Partition], list[LedgerTerm] | None]] = [((g, lam), None)]
    while stack:
        key, terms = stack.pop()
        if key in twice_h:
            continue
        if terms is None:
            if key == (0, (1,)):
                twice_h[key] = 2
                continue
            terms = _ledger(key[0], key[1], grown)
        eight_h = 0
        try:
            for _, twice, children, _ in terms:
                if len(children) == 1:
                    eight_h += 2 * twice * twice_h[children[0]]
                else:
                    eight_h += twice * twice_h[children[0]] * twice_h[children[1]]
        except KeyError:
            stack.append((key, terms))
            stack.extend((child, None) for term in terms for child in term[2] if child not in twice_h)
            continue
        if eight_h % 4:
            raise ArithmeticError(
                f"cut-and-join sum at g={key[0]}, mu=({format_partition(key[1])}) is not a multiple of 1/2: "
                f"8h = {eight_h}"
            )
        # Only a key missing on its first visit gets here, so this store
        # overwrites no value but an equal one another thread computed:
        # `insert`'s conflict check would find nothing.
        twice_h[key] = eight_h // 4
    return Fraction(twice_h[(g, lam)], 2)


# ---------------------------------------------------------------------------
# closed forms

def one_part_genus0(n: int) -> Fraction:
    """Genus-zero one-part value n^(n-3), exact also for n = 1, 2."""
    hurwitz_key(0, (n,))
    return Fraction(n) ** (n - 3)


def one_part_closed(g: int, n: int) -> Fraction:
    """One-part value for any genus, by the alternating binomial sum.

    (1/(n! n)) sum_s (-1)^s binom(n-1, s) (binom(n,2) - n s)^(n-1+2g); the
    exponent pairs the part count n with the 2g extra branch points.
    """
    hurwitz_key(g, (n,))
    e = n - 1 + 2 * g
    total = sum(
        (-1) ** s * comb(n - 1, s) * (comb(n, 2) - n * s) ** e for s in range(n)
    )
    return Fraction(total, factorial(n) * n)


def one_part_closed_stirling(g: int, n: int) -> Fraction:
    """Same one-part value rearranged as a Stirling-number sum."""
    hurwitz_key(g, (n,))
    total = sum(
        comb(n - 1 + 2 * g, n - 1 + r)
        * comb(n, 2) ** (2 * g - r)
        * (-n) ** r
        * stirling2(n - 1 + r, n - 1)
        for r in range(2 * g + 1)
    )
    return Fraction(n) ** (n - 3) * total


def stirling2(p: int, m: int) -> int:
    """Stirling number of the second kind, row by row for i <= p by the
    standard recurrence S(i, j) = j S(i-1, j) + S(i-1, j-1)."""
    if p < 0 or m < 0:
        raise ValueError("arguments must be non-negative")
    row = [1] + [0] * m  # S(0, j)
    for _ in range(p):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, m + 1)]
    return row[m]


def two_part_genus0(mu1: int, mu2: int) -> Fraction:
    """Genus-zero value for a two-part profile (mu1 >= mu2 >= 1).

    (1/sigma) ((mu1+mu2)!/(mu1+mu2)) (mu1^mu1/mu1!) (mu2^mu2/mu2!) with
    sigma = 2 exactly when the parts coincide.
    """
    as_partition((mu1, mu2))
    sigma = 2 if mu1 == mu2 else 1
    n = mu1 + mu2
    return (
        Fraction(factorial(n), sigma * n)
        * Fraction(mu1**mu1, factorial(mu1))
        * Fraction(mu2**mu2, factorial(mu2))
    )
