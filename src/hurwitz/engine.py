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
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Sequence

from .partitions import (
    Partition,
    as_partition,
    aut_count,
    centralizer_order,
    content_sum,
    dim_irrep,
    multiplicities,
    partitions_of,
    ramification,
    sort_to_partition,
)
from .symfunc import PowerSumPoly, character, cut_and_join

SeriesKey = tuple[int, int, Partition]


class GenSeries:
    """Truncated generating series with entries indexed by (d, r, mu).

    The entry at (d, r, mu) is the coefficient of Q^d (beta^r / r!) p_mu, so
    the beta grading is a divided-power grading: products pick up binomial
    weights in r.  Keys outside the truncation bounds are dropped.
    """

    __slots__ = ("d_max", "r_max", "coeffs")

    def __init__(self, d_max: int, r_max: int, coeffs: dict[SeriesKey, Fraction] | None = None):
        if d_max < 0 or r_max < 0:
            raise ValueError("bounds must be non-negative")
        self.d_max = d_max
        self.r_max = r_max
        self.coeffs: dict[SeriesKey, Fraction] = {}
        if coeffs:
            for (d, r, mu), c in coeffs.items():
                self.set(d, r, mu, c)

    def set(self, d: int, r: int, mu: Iterable[int], value) -> None:
        mu = as_partition(mu)
        if sum(mu) != d:
            raise ValueError(f"key partition {mu} does not have size {d}")
        if d > self.d_max or r > self.r_max:
            return
        value = Fraction(value)
        key = (d, r, mu)
        if value:
            self.coeffs[key] = value
        else:
            self.coeffs.pop(key, None)

    def __getitem__(self, key: SeriesKey) -> Fraction:
        d, r, mu = key
        return self.coeffs.get((d, r, as_partition(mu)), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenSeries):
            return NotImplemented
        return (
            self.d_max == other.d_max
            and self.r_max == other.r_max
            and self.coeffs == other.coeffs
        )

    def items(self):
        """Entries in deterministic (d, r, reverse-lex mu) order."""
        return sorted(
            self.coeffs.items(),
            key=lambda kv: (kv[0][0], kv[0][1], tuple(-p for p in kv[0][2])),
        )

    def __mul__(self, other: "GenSeries") -> "GenSeries":
        if (self.d_max, self.r_max) != (other.d_max, other.r_max):
            raise ValueError("series bounds must agree")
        out = GenSeries(self.d_max, self.r_max)
        out.coeffs = _mul_coeffs(self.coeffs, other.coeffs, self.d_max, self.r_max)
        return out

    def log(self) -> "GenSeries":
        """Series logarithm, requiring constant term exactly 1.

        Uses log(1 + X) = sum_m (-1)^(m+1) X^m / m; every term of X has
        d + r >= 1, so the sum terminates within the truncation bounds.
        """
        if self[(0, 0, ())] != 1:
            raise ValueError("log requires constant term 1")
        x = dict(self.coeffs)
        del x[(0, 0, ())]
        out: dict[SeriesKey, Fraction] = {}
        power = dict(x)
        m = 1
        while power:
            sign = Fraction((-1) ** (m + 1), m)
            for key, c in power.items():
                s = out.get(key, Fraction(0)) + sign * c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
            if m > self.d_max + self.r_max:
                break
            power = _mul_coeffs(power, x, self.d_max, self.r_max)
            m += 1
        res = GenSeries(self.d_max, self.r_max)
        res.coeffs = out
        return res

    def exp(self) -> "GenSeries":
        """Series exponential, requiring constant term exactly 0."""
        if self[(0, 0, ())] != 0:
            raise ValueError("exp requires constant term 0")
        out: dict[SeriesKey, Fraction] = {(0, 0, ()): Fraction(1)}
        power: dict[SeriesKey, Fraction] = dict(self.coeffs)
        m = 1
        while power:
            inv = Fraction(1, factorial(m))
            for key, c in power.items():
                s = out.get(key, Fraction(0)) + inv * c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
            if m > self.d_max + self.r_max:
                break
            power = _mul_coeffs(power, self.coeffs, self.d_max, self.r_max)
            m += 1
        res = GenSeries(self.d_max, self.r_max)
        res.coeffs = out
        return res


def _mul_coeffs(
    a: dict[SeriesKey, Fraction],
    b: dict[SeriesKey, Fraction],
    d_max: int,
    r_max: int,
) -> dict[SeriesKey, Fraction]:
    """Divided-power product of coefficient maps, truncated to the bounds."""
    by_d: dict[int, list[tuple[SeriesKey, Fraction]]] = {}
    for key, c in b.items():
        by_d.setdefault(key[0], []).append((key, c))
    out: dict[SeriesKey, Fraction] = {}
    for (d1, r1, mu1), c1 in a.items():
        for d2 in range(d_max - d1 + 1):
            for (key2, c2) in by_d.get(d2, ()):
                _, r2, mu2 = key2
                r = r1 + r2
                if r > r_max:
                    continue
                key = (d1 + d2, r, tuple(sorted(mu1 + mu2, reverse=True)))
                s = out.get(key, Fraction(0)) + comb(r, r1) * c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return out


# ---------------------------------------------------------------------------
# disconnected counts

def disconnected_count_charsum(d: int, r: int, mu: Iterable[int]) -> Fraction:
    """Weighted disconnected cover count via a character sum.

    Sum over lam of d of (dim lam / d!) (content_sum lam)^r chi^lam_mu / z_mu.
    """
    mu = as_partition(mu)
    if sum(mu) != d or d < 1:
        raise ValueError(f"{mu} is not a partition of {d} >= 1")
    if r < 0:
        raise ValueError("r must be non-negative")
    return _charsum_counts(_irreps(d), mu, (r,))[0]


def _irreps(d: int) -> list[tuple[Partition, int, int]]:
    """(lam, dim lam, content_sum lam) for every partition lam of d."""
    return [(lam, dim_irrep(lam), content_sum(lam)) for lam in partitions_of(d)]


def _charsum_counts(
    irreps: list[tuple[Partition, int, int]], mu: Partition, rs: Iterable[int]
) -> list[Fraction]:
    """The character sum at mu for each r in rs.

    The characters at mu are looked up once; each r then costs one integer
    sum of dim lam * chi^lam_mu * (content_sum lam)^r over d! z_mu.
    """
    weights = []
    for lam, dim, c in irreps:
        chi = character(lam, mu)
        if chi:
            weights.append((c, dim * chi))
    den = factorial(sum(mu)) * centralizer_order(mu)
    return [Fraction(sum(w * c**r for c, w in weights), den) for r in rs]


@lru_cache(maxsize=None)
def _operator_power(d: int, r: int) -> PowerSumPoly:
    """r-fold cut-and-join image of p_1^d (no 1/d! normalization)."""
    if r == 0:
        return PowerSumPoly.p(1) ** d if d else PowerSumPoly.one()
    return cut_and_join(_operator_power(d, r - 1))


def disconnected_count_operator(d: int, r: int, mu: Iterable[int]) -> Fraction:
    """Weighted disconnected cover count as a coefficient of an operator power.

    Coefficient of p_mu in (1/d!) (cut-and-join)^r p_1^d; agrees with the
    character-sum route on every input.
    """
    mu = as_partition(mu)
    if sum(mu) != d:
        raise ValueError(f"{mu} is not a partition of {d}")
    if r < 0:
        raise ValueError("r must be non-negative")
    return _operator_power(d, r).coefficient(mu) / factorial(d)


def covering_series(d_max: int, r_max: int) -> GenSeries:
    """Generating series of disconnected counts, built by operator powers."""
    out = GenSeries(d_max, r_max)
    for d in range(d_max + 1):
        for r in range(r_max + 1):
            poly = _operator_power(d, r)
            inv = Fraction(1, factorial(d))
            for mu, c in poly.terms.items():
                out.set(d, r, mu, c * inv)
    return out


def covering_series_charsum(d_max: int, r_max: int) -> GenSeries:
    """Generating series of disconnected counts, built by character sums."""
    out = GenSeries(d_max, r_max)
    out.set(0, 0, (), 1)
    for d in range(1, d_max + 1):
        irreps = _irreps(d)
        for mu in partitions_of(d):
            for r, value in enumerate(_charsum_counts(irreps, mu, range(r_max + 1))):
                out.set(d, r, mu, value)
    return out


# Grow-on-demand store of logged covering series, one per construction route.
_log_tables: dict[str, GenSeries] = {}
_log_lock = threading.Lock()

_SERIES_BUILDERS = {
    "operator": covering_series,
    "charsum": covering_series_charsum,
}


def log_table(d_max: int, r_max: int, method: str) -> GenSeries:
    """Logarithm of the covering series built by `method`, at least to the bounds.

    A table is rebuilt, at the larger bounds, only when a request exceeds
    it; a caller that knows its largest key builds the table once up front.
    """
    with _log_lock:
        cur = _log_tables.get(method)
        if cur is not None and cur.d_max >= d_max and cur.r_max >= r_max:
            return cur
        nd = max(d_max, cur.d_max if cur else 0)
        nr = max(r_max, cur.r_max if cur else 0)
        table = _SERIES_BUILDERS[method](nd, nr).log()
        _log_tables[method] = table
        return table


def connected_from_log(g: int, mu: Iterable[int], method: str = "operator") -> Fraction:
    """Connected Hurwitz number read off the logarithm of the covering series."""
    mu = sort_to_partition(mu)
    r = ramification(g, mu)
    table = log_table(sum(mu), r, method)
    return table[(sum(mu), r, mu)]


# ---------------------------------------------------------------------------
# persistent value cache

class CacheConflictError(ValueError):
    """Two sources disagree about a cached Hurwitz value."""


def _cache_sort_key(item: tuple[tuple[int, Partition], Fraction]):
    (g, mu), _ = item
    r = 2 * g - 2 + len(mu) + sum(mu)
    return (r, g, sum(mu), tuple(-p for p in mu))


@dataclass
class HurwitzCache:
    """Memo map (g, mu) -> value for the cut-and-join recursion.

    A key, once inserted, is never overwritten with a different value;
    disagreement is a hard error.  The persistence format is line-delimited
    JSON, sorted so saves are byte-for-byte reproducible.
    """

    entries: dict[tuple[int, Partition], Fraction] = field(default_factory=dict)
    path: str | None = None
    dirty: bool = False
    missing_on_load: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def get(self, g: int, mu: Partition) -> Fraction | None:
        return self.entries.get((g, mu))

    def insert(self, g: int, mu: Partition, value: Fraction) -> None:
        key = (g, as_partition(mu))
        value = Fraction(value)
        with self._lock:
            old = self.entries.get(key)
            if old is None:
                self.entries[key] = value
                self.dirty = True
            elif old != value:
                raise CacheConflictError(
                    f"cache conflict at g={g}, mu={mu}: {old} != {value}"
                )

    def merge(self, other: "HurwitzCache") -> None:
        for (g, mu), value in other.entries.items():
            self.insert(g, mu, value)

    def __len__(self) -> int:
        return len(self.entries)

    def save(self, path: str | None = None) -> str:
        path = path or self.path
        if not path:
            raise ValueError("no cache path configured")
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        lines = []
        for (g, mu), value in sorted(self.entries.items(), key=lambda it: _cache_sort_key(it)):
            rec = {"g": g, "mu": list(mu), "num": str(value.numerator), "den": str(value.denominator)}
            lines.append(json.dumps(rec, separators=(",", ":")))
        # Write a sibling file and rename it over the target, so a crash or a
        # failed write leaves the old cache whole.  The name is unique per
        # thread of each process, so concurrent saves never share it.
        tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
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
        self.path = path
        self.dirty = False
        return path


def cache_load(path: str) -> HurwitzCache:
    """Load a cache file; a missing file yields an empty cache with a warning flag."""
    cache = HurwitzCache(path=path)
    if not os.path.exists(path):
        cache.missing_on_load = True
        return cache
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                g = int(rec["g"])
                mu = as_partition(int(p) for p in rec["mu"])
                num, den = int(rec["num"]), int(rec["den"])
                if den <= 0:
                    raise ValueError("denominator must be positive")
            except CacheConflictError:
                raise
            except Exception as exc:
                raise ValueError(f"{path}:{lineno}: malformed cache line: {exc}") from exc
            cache.insert(g, mu, Fraction(num, den))
    cache.dirty = False
    return cache


# ---------------------------------------------------------------------------
# cut-and-join recursion

@dataclass(frozen=True)
class CoefficientTerm:
    """One collapsed right-hand-side term of the recursion for a fixed key."""

    label: str
    coefficient: Fraction
    children: tuple[tuple[int, Partition], ...]
    binomial: int | None = None  # the branch-point binomial, for split terms


def coefficient_terms(g: int, k: Iterable[int]) -> list[CoefficientTerm]:
    """Collapsed coefficient families of the recursion at (g, k).

    The value at (g, k) is the sum over these terms of the coefficient times
    the product of the children's values.  Multiplicity collapsing follows
    the identities
      merge, distinct parts a != b:   (m_{a+b} + 1)(a + b)
      merge, equal parts a:           (m_{2a} + 1) a
      genus-drop cut, alpha != beta:  alpha beta (m_alpha + 1)(m_beta + 1)
      genus-drop cut, alpha = beta:   (alpha^2 / 2)(m_alpha + 1)(m_alpha + 2)
      disconnecting cut:  eps (m_alpha(l)+1)(m_beta(n)+1)(alpha beta / 2) binom(r-1, r1)
    with eps = 1 exactly when both factors coincide (then the binomial is a
    central binomial, hence even).
    """
    lam = sort_to_partition(k)
    r = ramification(g, lam)
    m = multiplicities(lam)
    values = sorted(m, reverse=True)
    terms: list[CoefficientTerm] = []

    # merges
    for ai, a in enumerate(values):
        for b in values[ai:]:
            if a == b and m[a] < 2:
                continue
            merged = _replace(lam, (a, b), (a + b,))
            coeff = Fraction((m[a + b] + 1) * a) if a == b else Fraction((m[a + b] + 1) * (a + b))
            label = "merge-equal" if a == b else "merge-distinct"
            terms.append(CoefficientTerm(label, coeff, ((g, merged),)))

    # genus-drop cuts
    if g >= 1:
        for a in values:
            for alpha in range(1, a // 2 + 1):
                beta = a - alpha
                prof = _replace(lam, (a,), (alpha, beta))
                if alpha == beta:
                    coeff = Fraction(alpha * alpha, 2) * (m[alpha] + 1) * (m[alpha] + 2)
                    label = "cut-genus-equal"
                else:
                    coeff = Fraction(alpha * beta * (m[alpha] + 1) * (m[beta] + 1))
                    label = "cut-genus-distinct"
                terms.append(CoefficientTerm(label, coeff, ((g - 1, prof),)))

    # disconnecting cuts: one side takes sub-multiset l of the remaining
    # parts plus alpha, the other the complement plus beta; the swap of the
    # two sides is collapsed into eps.
    for a in values:
        rest = _replace(lam, (a,), ())
        for l_multiset in _submultisets(rest):
            n_multiset = _multiset_difference(rest, l_multiset)
            for alpha in range(1, a):
                beta = a - alpha
                lp = tuple(sorted(l_multiset + (alpha,), reverse=True))
                np_ = tuple(sorted(n_multiset + (beta,), reverse=True))
                for g1 in range(g + 1):
                    g2 = g - g1
                    side = (g1, alpha, l_multiset)
                    mirror = (g2, beta, n_multiset)
                    if side > mirror:
                        continue  # counted from the mirror enumeration
                    eps = 1 if side == mirror else 2
                    r1 = ramification(g1, lp)
                    binomial = comb(r - 1, r1)
                    m_l = sum(1 for x in l_multiset if x == alpha)
                    m_n = sum(1 for x in n_multiset if x == beta)
                    coeff = (
                        eps
                        * (m_l + 1)
                        * (m_n + 1)
                        * Fraction(alpha * beta, 2)
                        * binomial
                    )
                    label = "split-symmetric" if eps == 1 else "split"
                    terms.append(
                        CoefficientTerm(label, coeff, ((g1, lp), (g2, np_)), binomial)
                    )
    return terms


def _replace(lam: Partition, remove: tuple[int, ...], add: tuple[int, ...]) -> Partition:
    parts = list(lam)
    for x in remove:
        parts.remove(x)
    return tuple(sorted(parts + list(add), reverse=True))


def _submultisets(parts: Partition) -> list[tuple[int, ...]]:
    """All sub-multisets, each listed once, in deterministic order."""
    out = [()]
    for v, mult in sorted(multiplicities(parts).items(), reverse=True):
        out = [prev + (v,) * take for prev in out for take in range(mult + 1)]
    return [tuple(sorted(s, reverse=True)) for s in out]


def _multiset_difference(whole: tuple[int, ...], part: tuple[int, ...]) -> tuple[int, ...]:
    remaining = list(whole)
    for x in part:
        remaining.remove(x)
    return tuple(sorted(remaining, reverse=True))


def hurwitz_number(g: int, mu: Iterable[int], cache: HurwitzCache | None = None) -> Fraction:
    """Connected Hurwitz number by the memoized cut-and-join recursion.

    Accepts any multi-index for mu; the value depends only on the underlying
    partition.  The ledger of `coefficient_terms` is evaluated with an
    explicit stack, children before parents, so no Python recursion limit
    applies.  Every child has a strictly smaller branch count, so evaluation
    ends at the single count-zero key (0, (1)), the trivial covering.
    """
    lam = sort_to_partition(mu)
    ramification(g, lam)  # validates g and lam
    store = cache if cache is not None else HurwitzCache()
    known = store.entries
    # (key, its terms once built); a key is expanded on its first visit and
    # summed on its second, when every child above it has been inserted.
    stack: list[tuple[tuple[int, Partition], list[CoefficientTerm] | None]] = [((g, lam), None)]
    while stack:
        key, terms = stack.pop()
        if key in known:
            continue
        if key == (0, (1,)):
            store.insert(0, (1,), Fraction(1))
            continue
        if terms is None:
            terms = coefficient_terms(*key)
            missing = [child for term in terms for child in term.children if child not in known]
            if missing:
                stack.append((key, terms))
                stack.extend((child, None) for child in missing)
                continue
        total = Fraction(0)
        for term in terms:
            value = term.coefficient
            for child in term.children:
                value *= known[child]
            total += value
        store.insert(*key, total)
    return known[(g, lam)]


def hurwitz_normalized(g: int, k: Sequence[int], h: Fraction) -> Fraction:
    """Normalization used inside the recursion: aut(k) / r(g,k)! times h."""
    r = ramification(g, k)
    if r < 0:
        raise ValueError("negative ramification count")
    return Fraction(aut_count(k), factorial(r)) * h


# ---------------------------------------------------------------------------
# closed forms

def one_part_genus0(n: int) -> Fraction:
    """Genus-zero one-part value n^(n-3), exact also for n = 1, 2."""
    if n < 1:
        raise ValueError("n must be positive")
    return Fraction(n) ** (n - 3)


def one_part_closed(g: int, n: int) -> Fraction:
    """One-part value for any genus, by the alternating binomial sum.

    (1/(n! n)) sum_s (-1)^s binom(n-1, s) (binom(n,2) - n s)^(n-1+2g); the
    exponent pairs the part count n with the 2g extra branch points.
    """
    if g < 0 or n < 1:
        raise ValueError("need g >= 0 and n >= 1")
    e = n - 1 + 2 * g
    total = sum(
        (-1) ** s * comb(n - 1, s) * (comb(n, 2) - n * s) ** e for s in range(n)
    )
    return Fraction(total, factorial(n) * n)


def one_part_closed_stirling(g: int, n: int) -> Fraction:
    """Same one-part value rearranged as a Stirling-number sum."""
    if g < 0 or n < 1:
        raise ValueError("need g >= 0 and n >= 1")
    total = sum(
        comb(n - 1 + 2 * g, n - 1 + r)
        * comb(n, 2) ** (2 * g - r)
        * (-n) ** r
        * stirling2(n - 1 + r, n - 1)
        for r in range(2 * g + 1)
    )
    return Fraction(n) ** (n - 3) * total


def stirling2(p: int, m: int) -> int:
    """Stirling number of the second kind via the standard recurrence."""
    if p < 0 or m < 0:
        raise ValueError("arguments must be non-negative")
    return _stirling2(p, m)


@lru_cache(maxsize=None)
def _stirling2(p: int, m: int) -> int:
    if p == 0:
        return 1 if m == 0 else 0
    if m == 0:
        return 0
    return m * _stirling2(p - 1, m) + _stirling2(p - 1, m - 1)


def signed_surjection_count(m: int, p: int) -> int:
    """sum_s binom(m,s) (-1)^s s^p, which equals (-1)^m m! S(p, m)."""
    if m < 0 or p < 0:
        raise ValueError("arguments must be non-negative")
    return sum(comb(m, s) * (-1) ** s * s**p for s in range(m + 1))


def two_part_genus0(mu1: int, mu2: int) -> Fraction:
    """Genus-zero value for a two-part profile (mu1 >= mu2 >= 1).

    (1/sigma) ((mu1+mu2)!/(mu1+mu2)) (mu1^mu1/mu1!) (mu2^mu2/mu2!) with
    sigma = 2 exactly when the parts coincide.
    """
    if not mu1 >= mu2 >= 1:
        raise ValueError("need mu1 >= mu2 >= 1")
    sigma = 2 if mu1 == mu2 else 1
    n = mu1 + mu2
    return (
        Fraction(factorial(n), sigma * n)
        * Fraction(mu1**mu1, factorial(mu1))
        * Fraction(mu2**mu2, factorial(mu2))
    )
