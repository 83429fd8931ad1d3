"""Closed-form characteristic-class operations on abstract bundle data.

A bundle is modeled by its rank and its Chern classes through degree 3
(:class:`ChernVector`).  The operations here are the classical closed
forms for tensor squares, symmetric and exterior squares, symmetric
cubes (through degree 2), duals, line-bundle twists, Chern characters,
and Segre classes of the dual.  Every formula is validated against the
splitting-principle oracle in :mod:`projnorm.exactalg`: the oracle
expands the derived root multiset, these functions evaluate the closed
form, and the two must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .exactalg import (
    DataError,
    GradedClass,
    RankOneRing,
    Ring,
    RingMismatchError,
    binom,
    elementary_symmetric,
    over_common_denominator,
    unit,
)


@dataclass(frozen=True)
class ChernVector:
    """Rank plus graded Chern classes c1, c2, c3 of an abstract bundle.

    c2 and c3 are stored as (possibly zero) graded classes; on rings of
    dimension below 3 the degree-3 slot is identically zero by truncation.
    Rank-vanishing (c_i = 0 for i above the rank) is a property of
    geometric Chern data, checked by :func:`validate_rank_vanishing`; it
    is not enforced in the constructor because formal solutions of the
    numerical constraints (for example rank-1 data on a surface that
    cannot carry such a bundle) are legitimately representable.
    """

    rank: int
    c1: GradedClass
    c2: GradedClass
    c3: GradedClass

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        ring = self.c1.ring
        for cls, grade in ((self.c1, 1), (self.c2, 2), (self.c3, 3)):
            if cls.ring is not ring and cls.ring != ring:
                raise RingMismatchError("Chern classes live in different rings")
            if not cls.is_zero and cls.codim != grade:
                raise ValueError(f"c{grade} must be homogeneous of codimension {grade}")

    @property
    def ring(self) -> Ring:
        return self.c1.ring

    @staticmethod
    def of(ring: Ring, rank: int, c1=0, c2=0, c3=0) -> "ChernVector":
        """Build a ChernVector, coercing scalars and coefficient vectors.

        Scalars mean multiples of H^k (of the first lattice generator in
        codimension 1 on surfaces); sequences give divisor coefficients.
        Each ``c_k`` that is not already a class goes through
        ``GradedClass.of(ring, k, value)``, so it is zero above the ring
        dimension.
        """
        def coerce(value, grade):
            if isinstance(value, GradedClass):
                return value
            return GradedClass.of(ring, grade, value)

        return ChernVector(rank, coerce(c1, 1), coerce(c2, 2), coerce(c3, 3))


def bundle_from_roots(ring: RankOneRing, roots: Sequence[Fraction]) -> ChernVector:
    """Chern data of a formal direct sum of line bundles with the given roots.

    c_i is the i-th elementary symmetric function of the roots, placed on
    H^i; only rank-one rings carry root data.  The roots are written as
    integer numerators over the lcm D of their denominators and handed to
    :func:`bundle_from_numerators`.
    """
    nums, D = over_common_denominator(roots)
    return bundle_from_numerators(ring, nums, D)


def bundle_from_numerators(ring: RankOneRing, nums: Sequence[int], D: int) -> ChernVector:
    """:func:`bundle_from_roots` for the roots ``n / D``, ``n`` in ``nums``.

    e_i is summed over the integer numerators and c_i is the one division
    e_i / D^i; ``D`` need not be in lowest terms against ``nums``.  Each
    c_i is already exact, so its class is built without coercion.
    """
    if not isinstance(ring, RankOneRing):
        raise TypeError("Chern roots live in a rank-one ring")
    up_to = min(3, ring.dim)
    e = elementary_symmetric(nums, up_to)
    classes = []
    for k in range(1, 4):
        c = Fraction(e[k], D**k) if k <= up_to else 0
        classes.append(GradedClass(ring, k, c) if c else GradedClass(ring))
    return ChernVector(len(nums), *classes)


def satisfies_rank_vanishing(E: ChernVector) -> bool:
    """True iff c_i(E) = 0 for every i above the rank."""
    if E.rank == 0:
        return E.c1.is_zero and E.c2.is_zero and E.c3.is_zero
    if E.rank == 1:
        return E.c2.is_zero and E.c3.is_zero
    if E.rank == 2:
        return E.c3.is_zero
    return True


def validate_rank_vanishing(E: ChernVector) -> None:
    if not satisfies_rank_vanishing(E):
        raise DataError(f"Chern classes above rank {E.rank} do not vanish")


# ---------------------------------------------------------------------------
# derived bundles


def tensor_square(E: ChernVector) -> ChernVector:
    """Chern data of E (x) E."""
    r = E.rank
    c1 = (2 * r) * E.c1
    c1sq = E.c1 * E.c1
    c2 = (2 * r * r - r - 1) * c1sq + (2 * r) * E.c2
    c3 = (
        Fraction(2, 3) * (2 * r**3 - 3 * r**2 - 2 * r + 3) * (c1sq * E.c1)
        + (4 * r * r - 2 * r - 4) * (E.c1 * E.c2)
        + (2 * r) * E.c3
    )
    return ChernVector(r * r, c1, c2, c3)


def sym2(E: ChernVector) -> ChernVector:
    """Chern data of the symmetric square S^2 E."""
    r = E.rank
    c1 = (r + 1) * E.c1
    c1sq = E.c1 * E.c1
    c2 = Fraction((r + 2) * (r - 1), 2) * c1sq + (r + 2) * E.c2
    c3 = (
        Fraction((r + 3) * (r - 1) * (r - 2), 6) * (c1sq * E.c1)
        + (r * r + 2 * r - 4) * (E.c1 * E.c2)
        + (r + 4) * E.c3
    )
    return ChernVector(r * (r + 1) // 2, c1, c2, c3)


def sym3(E: ChernVector) -> ChernVector:
    """Chern data of the symmetric cube S^3 E, through degree 2 only.

    No closed third Chern class is modeled for S^3, so this is restricted
    to rings of dimension at most 2 (all surface computations).
    """
    if E.ring.dim >= 3:
        raise ValueError("S^3 Chern data is modeled through degree 2; use a ring of dimension <= 2")
    r = E.rank
    c1 = Fraction((r + 2) * (r + 1), 2) * E.c1
    c2 = (
        Fraction((r - 1) * (r + 2) * (r * r + 5 * r + 8), 8) * (E.c1 * E.c1)
        + Fraction((r + 2) * (r + 3), 2) * E.c2
    )
    return ChernVector.of(E.ring, r * (r + 1) * (r + 2) // 6, c1, c2)


def wedge2(E: ChernVector) -> ChernVector:
    """Chern data of the exterior square Lambda^2 E."""
    r = E.rank
    c1 = (r - 1) * E.c1
    c1sq = E.c1 * E.c1
    c2 = binom(r - 1, 2) * c1sq + (r - 2) * E.c2
    c3 = (
        binom(r - 1, 3) * (c1sq * E.c1)
        + (r - 2) ** 2 * (E.c1 * E.c2)
        + (r - 4) * E.c3
    )
    return ChernVector(r * (r - 1) // 2, c1, c2, c3)


def sym_k_c1(E: ChernVector, k: int) -> GradedClass:
    """First Chern class of S^k E: binom(r+k-1, k-1) * c1(E)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return binom(E.rank + k - 1, k - 1) * E.c1


def direct_sum(E: ChernVector, F: ChernVector) -> ChernVector:
    """Whitney sum: total Chern class of E (+) F is the product of the two."""
    if E.ring != F.ring:
        raise RingMismatchError("summands live in different rings")
    c1 = E.c1 + F.c1
    c2 = E.c2 + E.c1 * F.c1 + F.c2
    c3 = E.c3 + E.c2 * F.c1 + E.c1 * F.c2 + F.c3
    return ChernVector(E.rank + F.rank, c1, c2, c3)


def dual(E: ChernVector) -> ChernVector:
    """Sign flip on the odd Chern classes."""
    return ChernVector(E.rank, -E.c1, E.c2, -E.c3)


def twist(E: ChernVector, L) -> ChernVector:
    """Chern data of E (x) L for a line bundle with first Chern class L.

    c_k(E (x) L) = sum_i binom(r-i, k-i) c_i(E) L^(k-i).
    """
    if isinstance(L, (int, Fraction)):
        L = GradedClass.of(E.ring, 1, L)
    if L.ring is not E.ring and L.ring != E.ring:
        raise RingMismatchError("twisting class lives in a different ring")
    if not L.is_zero and L.codim != 1:
        raise ValueError("can only twist by a codimension-1 class")
    r = E.rank
    L2 = L * L
    c1 = E.c1 + r * L
    c2 = E.c2 + (r - 1) * (E.c1 * L) + binom(r, 2) * L2
    c3 = (
        E.c3
        + (r - 2) * (E.c2 * L)
        + binom(r - 1, 2) * (E.c1 * L2)
        + binom(r, 3) * (L2 * L)
    )
    return ChernVector(r, c1, c2, c3)


def segre_dual(E: ChernVector, up_to: int) -> Tuple[GradedClass, ...]:
    """Segre classes s_0..s_{up_to} of the dual bundle.

    Defined by s(E*) c(E*) = 1, so s1 = c1, s2 = c1^2 - c2,
    s3 = c1^3 - 2 c1 c2 + c3.  s_n(E*) is the degree of the projectivized
    bundle under its tautological embedding.
    """
    ring = E.ring
    if up_to > ring.dim:
        raise ValueError("requested Segre class exceeds the ring dimension")
    cdual = [unit(ring), -E.c1, E.c2, -E.c3]
    s = [unit(ring)]
    for k in range(1, up_to + 1):
        acc = GradedClass(ring)
        for i in range(1, k + 1):
            acc = acc + cdual[i] * s[k - i]
        s.append(-acc)
    return tuple(s)


# ---------------------------------------------------------------------------
# Chern character


def chern_character(E: ChernVector) -> Tuple[GradedClass, ...]:
    """Graded pieces ch_0..ch_n of the Chern character, n the ring dimension.

    ch = r + c1 + (c1^2 - 2 c2)/2 + (c1^3 - 3 c1 c2 + 3 c3)/6.
    """
    ring = E.ring
    c1sq = E.c1 * E.c1
    pieces = [
        unit(ring, E.rank),
        E.c1,
        Fraction(1, 2) * (c1sq - 2 * E.c2),
        Fraction(1, 6) * (c1sq * E.c1 - 3 * (E.c1 * E.c2) + 3 * E.c3),
    ]
    return tuple(pieces[: ring.dim + 1])


def graded_product(a: Sequence[GradedClass], b: Sequence[GradedClass]) -> Tuple[GradedClass, ...]:
    """Degreewise product of two graded tuples, truncated at the ring dimension."""
    ring = a[0].ring
    n = ring.dim
    out = []
    for k in range(n + 1):
        acc = GradedClass(ring)
        for i in range(k + 1):
            if i < len(a) and (k - i) < len(b):
                acc = acc + a[i] * b[k - i]
        out.append(acc)
    return tuple(out)
