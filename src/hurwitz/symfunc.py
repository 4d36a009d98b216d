"""Power-sum polynomial arithmetic, symmetric group characters, Schur expansions,
and the cut-and-join differential operator.

Everything here is exact: a coefficient is an ``int`` or a ``fractions.Fraction``,
kept as given, and character values are plain integers.  Integral polynomials
stay in ``int``s, so operator powers of p_1^d run on integers.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping

from .partitions import (
    Partition,
    as_partition,
    centralizer_order,
    format_partition,
    partitions_of,
)

Scalar = int | Fraction


class PowerSumPoly:
    """Sparse polynomial in the power sums p_1, p_2, ...

    Terms are stored as a map from canonical partitions mu to the exact
    coefficient of p_mu = prod_i p_{mu_i}, an `int` or a `Fraction` as given:
    the door refuses any other type (a `float`, a string, a `bool`) rather
    than round it.  The operators check by the same rule: `+` takes a
    polynomial, `*` a polynomial or such a scalar on its right, and `**` an
    exact `int` n >= 0.  Zero coefficients are never stored, so equality of
    term maps is equality of polynomials.  Mixed-degree polynomials are
    allowed.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Partition, Scalar] | None = None):
        clean: dict[Partition, Scalar] = {}
        if terms:
            for mu, c in terms.items():
                if type(c) is not int and type(c) is not Fraction:
                    raise ValueError(f"coefficient {c!r} is not an int or a Fraction")
                if c:
                    clean[as_partition(mu)] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "PowerSumPoly":
        return cls()

    @classmethod
    def one(cls) -> "PowerSumPoly":
        return cls({(): 1})

    @classmethod
    def p(cls, n: int) -> "PowerSumPoly":
        """The single power sum p_n."""
        if n < 1:
            raise ValueError("power sum index must be positive")
        return cls({(n,): 1})

    @classmethod
    def monomial(cls, mu: Iterable[int]) -> "PowerSumPoly":
        """The single product p_mu, for a multi-index mu."""
        return cls({tuple(sorted(mu, reverse=True)): 1})

    @classmethod
    def _computed(cls, terms: dict[Partition, Scalar]) -> "PowerSumPoly":
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
        if not isinstance(other, PowerSumPoly):
            raise ValueError(f"summand {other!r} is not a PowerSumPoly")
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, 0) + c
        return PowerSumPoly._computed(out)

    def __mul__(self, other: "PowerSumPoly | Scalar") -> "PowerSumPoly":
        if type(other) is int or type(other) is Fraction:
            return PowerSumPoly._computed({mu: other * v for mu, v in self.terms.items()})
        if not isinstance(other, PowerSumPoly):
            raise ValueError(f"factor {other!r} is not a PowerSumPoly, an int or a Fraction")
        out: dict[Partition, Scalar] = {}
        for mu, a in self.terms.items():
            for nu, b in other.terms.items():
                key = tuple(sorted(mu + nu, reverse=True))
                out[key] = out.get(key, 0) + a * b
        return PowerSumPoly._computed(out)

    def __pow__(self, n: int) -> "PowerSumPoly":
        if type(n) is not int:
            raise ValueError(f"exponent {n!r} is not an int")
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

CharMemo = dict[tuple[int, Partition], int]  # (bead mask, mu suffix) -> value, owned by one build


def bead_mask(lam: Partition, beads: int) -> int:
    """The abacus of lam on `beads` >= len(lam) rows: bit lam_i + beads - 1 - i
    for each row i, a row past lam's length having lam_i = 0."""
    empty = beads - len(lam)
    return sum(1 << (part + beads - 1 - i) for i, part in enumerate(lam)) | ((1 << empty) - 1)


def character(lam: Partition, mu: Partition) -> int:
    """Irreducible symmetric group character value at cycle type mu.

    Computed by the bead form of Murnaghan-Nakayama on lam's abacus (see
    `_character`); the memo of its values lasts for this one call.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |({format_partition(lam)})| != |({format_partition(mu)})|")
    return _character(bead_mask(lam, len(lam)), mu, {})


def _character(mask: int, mu: Partition, memo: CharMemo) -> int:
    """Murnaghan-Nakayama on a bead mask: chi at cycle type mu of the shape
    whose abacus is `mask`, a shape of size |mu|.

    Removing a border strip of length t = mu_1 moves a bead from b down to a
    free b - t, with sign (-1)^(beads strictly between); the number of beads
    stays, so every shape the recursion reaches has a mask of the same count.
    """
    if not mu:
        return 1
    key = (mask, mu)
    hit = memo.get(key)
    if hit is not None:
        return hit
    t, rest = mu[0], mu[1:]
    # the free places c whose bead c + t can move down to them
    targets = (mask >> t) & ~mask
    val = 0
    while targets:
        low = targets & -targets
        targets ^= low
        bead = low << t
        chi = _character(mask ^ bead ^ low, rest, memo)
        # bead - 2 low sets the places strictly between c and c + t
        val += -chi if (mask & (bead - (low << 1))).bit_count() & 1 else chi
    memo[key] = val
    return val


def schur_in_power_sums(lam: Partition) -> PowerSumPoly:
    """Schur function expanded in the power-sum basis: sum over mu of chi/z_mu p_mu."""
    lam = as_partition(lam)
    terms, memo, mask = {}, {}, bead_mask(lam, len(lam))
    for mu in partitions_of(sum(lam)):
        chi = _character(mask, mu, memo)
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
