"""Power-sum polynomial arithmetic, symmetric group characters, Schur expansions,
and the cut-and-join differential operator.

Everything here is exact: coefficients are ``fractions.Fraction`` and character
values are plain integers.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping

from .partitions import (
    Partition,
    as_partition,
    centralizer_order,
    partitions_of,
)

Scalar = int | Fraction


class PowerSumPoly:
    """Sparse polynomial in the power sums p_1, p_2, ...

    Terms are stored as a map from canonical partitions mu to the exact
    coefficient of p_mu = prod_i p_{mu_i}; zero coefficients are never stored,
    so equality of term maps is equality of polynomials.  Mixed-degree
    polynomials are allowed.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Partition, Scalar] | None = None):
        clean: dict[Partition, Fraction] = {}
        if terms:
            for mu, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[as_partition(mu)] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "PowerSumPoly":
        return cls()

    @classmethod
    def one(cls) -> "PowerSumPoly":
        return cls({(): Fraction(1)})

    @classmethod
    def p(cls, n: int) -> "PowerSumPoly":
        """The single power sum p_n."""
        if n < 1:
            raise ValueError("power sum index must be positive")
        return cls({(n,): Fraction(1)})

    @classmethod
    def monomial(cls, mu: Iterable[int]) -> "PowerSumPoly":
        """The single product p_mu, for a multi-index mu."""
        return cls({tuple(sorted(mu, reverse=True)): Fraction(1)})

    @classmethod
    def _computed(cls, terms: dict[Partition, Fraction]) -> "PowerSumPoly":
        """A result built here, keyed by canonical partitions already: only
        its zero terms are dropped, and `__init__`'s checks are skipped."""
        res = cls()
        res.terms = {mu: c for mu, c in terms.items() if c}
        return res

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSumPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "PowerSumPoly") -> "PowerSumPoly":
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, 0) + c
        return PowerSumPoly._computed(out)

    def __mul__(self, other: "PowerSumPoly | Scalar") -> "PowerSumPoly":
        if isinstance(other, (int, Fraction)):
            return PowerSumPoly._computed({mu: other * v for mu, v in self.terms.items()})
        out: dict[Partition, Fraction] = {}
        for mu, a in self.terms.items():
            for nu, b in other.terms.items():
                key = tuple(sorted(mu + nu, reverse=True))
                out[key] = out.get(key, 0) + a * b
        return PowerSumPoly._computed(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PowerSumPoly":
        if n < 0:
            raise ValueError("negative power")
        res = PowerSumPoly.one()
        for _ in range(n):
            res = res * self
        return res

    def __repr__(self) -> str:
        if not self.terms:
            return "PowerSumPoly(0)"
        bits = [f"{c}*p{list(mu)}" for mu, c in sorted(self.terms.items())]
        return "PowerSumPoly(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# characters

CharMemo = dict[tuple[Partition, Partition], int]  # (lam, mu) -> value, owned by one build


def _strip_removals(lam: Partition, size: int):
    """Yield (sign, remainder) for every removable border strip of the given size.

    Uses the first-column hook coordinates of lam: removing a border strip of
    length t corresponds to lowering one coordinate by t without colliding
    with another, and the sign is (-1)^(rows spanned minus one), i.e. the
    number of coordinates jumped over.
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
        parts = tuple(
            v - (rows - 1 - i) for i, v in enumerate(new_beta) if v - (rows - 1 - i) > 0
        )
        yield (-1) ** height, parts


def character(lam: Partition, mu: Partition) -> int:
    """Irreducible symmetric group character value at cycle type mu.

    Computed by recursive border-strip removal: peel a strip of length mu_1
    in all possible ways, recurse on the remainder, and weight each branch by
    the strip sign; the memo of (lam, mu) values lasts for this one call.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return _character(lam, mu, {})


def _character(lam: Partition, mu: Partition, memo: CharMemo) -> int:
    if not mu:
        return 1
    key = (lam, mu)
    hit = memo.get(key)
    if hit is not None:
        return hit
    val = sum(sign * _character(rest, mu[1:], memo) for sign, rest in _strip_removals(lam, mu[0]))
    memo[key] = val
    return val


def schur_in_power_sums(lam: Partition) -> PowerSumPoly:
    """Schur function expanded in the power-sum basis: sum over mu of chi/z_mu p_mu."""
    lam = as_partition(lam)
    terms, memo = {}, {}
    for mu in partitions_of(sum(lam)):
        chi = _character(lam, mu, memo)
        if chi:
            terms[mu] = Fraction(chi, centralizer_order(mu))
    return PowerSumPoly(terms)


# ---------------------------------------------------------------------------
# cut-and-join

def cut_and_join(poly: PowerSumPoly) -> PowerSumPoly:
    """Apply the cut-and-join operator.

    The operator is (1/2) sum_{k,l>=1} [(k+l) p_k p_l d/dp_{k+l}
    + k l p_{k+l} d/dp_k d/dp_l], applied monomial by monomial: each part v
    may be cut into an unordered pair {k, v-k}, and each unordered pair of
    parts may be joined into their sum.  All resulting coefficients are
    integers, so the image of an integral polynomial stays integral.
    """
    acc: dict[Partition, Scalar] = {}
    for mu, coeff in poly.terms.items():
        m = Counter(mu)
        values = sorted(m)
        # cut: replace one part v by {k, v-k}
        for v in values:
            mult = m[v]
            base = list(mu)
            base.remove(v)
            for k in range(1, v // 2 + 1):
                l = v - k
                factor = v * mult if k != l else k * mult
                key = tuple(sorted(base + [k, l], reverse=True))
                acc[key] = acc.get(key, 0) + coeff * factor
        # join: replace an unordered pair of parts {a, b} by a+b
        for ai, a in enumerate(values):
            for b in values[ai:]:
                if a == b:
                    if m[a] < 2:
                        continue
                    factor = a * a * (m[a] * (m[a] - 1) // 2)
                    removed = [a, a]
                else:
                    factor = a * b * m[a] * m[b]
                    removed = [a, b]
                base = list(mu)
                for x in removed:
                    base.remove(x)
                key = tuple(sorted(base + [a + b], reverse=True))
                acc[key] = acc.get(key, 0) + coeff * factor
    return PowerSumPoly._computed(acc)
