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

from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple

from .exactalg import (
    DataError,
    GradedClass,
    RankOneRing,
    Ring,
    RingMismatchError,
    Scalar,
    _new,
    binom,
    elementary_symmetric,
    exact,
    unit,
)


class _ChernFields(NamedTuple):
    rank: int
    c1: GradedClass
    c2: GradedClass
    c3: GradedClass


class ChernVector(_ChernFields):
    """Rank plus graded Chern classes c1, c2, c3 of an abstract bundle.

    c2 and c3 are stored as (possibly zero) graded classes; on rings of
    dimension below 3 the degree-3 slot is identically zero by truncation.
    Rank-vanishing (c_i = 0 for i above the rank) is a property of
    geometric Chern data, checked by :func:`validate_rank_vanishing`; it
    is not enforced in the constructor because formal solutions of the
    numerical constraints (for example rank-1 data on a surface that
    cannot carry such a bundle) are legitimately representable.

    ``ChernVector(rank, c1, c2, c3)``, :meth:`of`, ``_make`` and
    ``_replace`` check their input: the rank is a nonnegative ``int`` (not
    a ``bool``), each ``c_k`` is a :class:`GradedClass`, all three live in
    one ring, and a nonzero ``c_k`` has codimension ``k``.  The closed
    forms in this module build their results with the unchecked
    ``_new(ChernVector, fields)`` (``tuple.__new__``), because classes
    made from one checked vector are homogeneous on its ring by
    construction.

    The vector is an immutable ``typing.NamedTuple`` of ``(rank, c1, c2,
    c3)``.  ``+`` and ``*`` raise ``TypeError`` (a direct sum is
    :func:`direct_sum`, not concatenation).  Two tuple behaviours remain
    and are accepted: a vector equals the bare tuple of its fields, and
    ``tuple + vector`` concatenates the two as tuples.
    """

    __slots__ = ()

    def __new__(cls, rank: int, c1: GradedClass, c2: GradedClass, c3: GradedClass) -> "ChernVector":
        return cls._make((rank, c1, c2, c3))

    @classmethod
    def _make(cls, fields) -> "ChernVector":
        """The vector of the four ``fields``, checked; ``ChernVector(...)``
        and ``_replace`` build through here."""
        rank, c1, c2, c3 = fields
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise TypeError(f"rank must be an int, got {rank!r}")
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        for grade, c in enumerate((c1, c2, c3), 1):
            if not isinstance(c, GradedClass):
                raise TypeError(f"c{grade} must be a GradedClass, got {type(c).__name__}")
            if c.ring is not c1.ring and c.ring != c1.ring:
                raise RingMismatchError("Chern classes live in different rings")
            if c.codim is not None and c.codim != grade:
                raise ValueError(f"c{grade} must be homogeneous of codimension {grade}")
        return _new(cls, (rank, c1, c2, c3))

    # no concatenation or repetition: a sum of bundles is ``direct_sum``
    __add__ = __mul__ = __rmul__ = None

    @property
    def ring(self) -> Ring:
        return self.c1.ring

    @staticmethod
    def of(ring: Ring, rank: int, c1=0, c2=0, c3=0) -> "ChernVector":
        """Build a ChernVector from classes, scalars and coefficient vectors.

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


def bundle_from_roots(ring: RankOneRing, roots: Sequence[Scalar]) -> ChernVector:
    """Chern data of a formal direct sum of line bundles with the given roots.

    c_i is the i-th elementary symmetric function of the roots, placed on
    H^i; only rank-one rings carry root data.  Each root is read through
    :func:`exact`, as a class value is, so integer roots give ``int``
    classes, which closed forms keep in ints.
    """
    if not isinstance(ring, RankOneRing):
        raise TypeError("Chern roots live in a rank-one ring")
    roots = [exact(x) for x in roots]
    up_to = min(3, ring.dim)
    e = elementary_symmetric(roots, up_to)
    classes = [GradedClass(ring, k, e[k]) if k <= up_to and e[k] else GradedClass(ring) for k in range(1, 4)]
    return _new(ChernVector, (len(roots), *classes))


def satisfies_rank_vanishing(E: ChernVector) -> bool:
    """True iff c_i(E) = 0 for every i above the rank."""
    return all(c.is_zero for c in (E.c1, E.c2, E.c3)[E.rank:])


def validate_rank_vanishing(E: ChernVector) -> None:
    if not satisfies_rank_vanishing(E):
        raise DataError(f"Chern classes above rank {E.rank} do not vanish")


# ---------------------------------------------------------------------------
# derived bundles
#
# Each ``//`` coefficient below is exact for every rank r: its numerator
# vanishes modulo the divisor at every residue of r.  Integer Chern data
# therefore stays integer through these closed forms.


def tensor_square(E: ChernVector) -> ChernVector:
    """Chern data of E (x) E."""
    r = E.rank
    c1 = (2 * r) * E.c1
    c1sq = E.c1 * E.c1
    c2 = (2 * r * r - r - 1) * c1sq + (2 * r) * E.c2
    c3 = (
        (2 * (2 * r - 3) * (r - 1) * (r + 1) // 3) * (c1sq * E.c1)
        + (4 * r * r - 2 * r - 4) * (E.c1 * E.c2)
        + (2 * r) * E.c3
    )
    return _new(ChernVector, (r * r, c1, c2, c3))


def sym2(E: ChernVector) -> ChernVector:
    """Chern data of the symmetric square S^2 E."""
    r = E.rank
    c1 = (r + 1) * E.c1
    c1sq = E.c1 * E.c1
    c2 = ((r + 2) * (r - 1) // 2) * c1sq + (r + 2) * E.c2
    c3 = (
        ((r + 3) * (r - 1) * (r - 2) // 6) * (c1sq * E.c1)
        + (r * r + 2 * r - 4) * (E.c1 * E.c2)
        + (r + 4) * E.c3
    )
    return _new(ChernVector, (r * (r + 1) // 2, c1, c2, c3))


def sym3(E: ChernVector) -> ChernVector:
    """Chern data of the symmetric cube S^3 E, through degree 2 only.

    No closed third Chern class is modeled for S^3, so this is restricted
    to rings of dimension at most 2 (all surface computations).
    """
    if E.ring.dim >= 3:
        raise ValueError("S^3 Chern data is modeled through degree 2; use a ring of dimension <= 2")
    r = E.rank
    c1 = ((r + 2) * (r + 1) // 2) * E.c1
    c2 = (
        ((r - 1) * (r + 2) * (r * r + 5 * r + 8) // 8) * (E.c1 * E.c1)
        + ((r + 2) * (r + 3) // 2) * E.c2
    )
    return _new(ChernVector, (r * (r + 1) * (r + 2) // 6, c1, c2, GradedClass(E.ring)))


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
    return _new(ChernVector, (r * (r - 1) // 2, c1, c2, c3))


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
    return _new(ChernVector, (E.rank + F.rank, c1, c2, c3))


def dual(E: ChernVector) -> ChernVector:
    """Sign flip on the odd Chern classes."""
    return _new(ChernVector, (E.rank, -E.c1, E.c2, -E.c3))


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
    c1L = E.c1 * L
    c1 = E.c1 + r * L
    c2 = E.c2 + (r - 1) * c1L + binom(r, 2) * L2
    c3 = (
        E.c3
        + (r - 2) * (E.c2 * L)
        + binom(r - 1, 2) * (c1L * L)
        + binom(r, 3) * (L2 * L)
    )
    return _new(ChernVector, (r, c1, c2, c3))


def segre_dual(E: ChernVector) -> Tuple[GradedClass, ...]:
    """Segre classes s_0..s_n of the dual bundle, n the ring dimension.

    s(E*) c(E*) = 1 gives s1 = c1, s2 = c1^2 - c2 and
    s3 = c1^3 - 2 c1 c2 + c3, written out as they stand; s_n(E*) is the
    degree of the projectivized bundle under its tautological embedding.
    """
    c1, c2, c3 = E.c1, E.c2, E.c3
    c1sq = c1 * c1
    return (unit(E.ring), c1, c1sq - c2, c1sq * c1 - 2 * (c1 * c2) + c3)[: E.ring.dim + 1]


# ---------------------------------------------------------------------------
# Chern character


def chern_character(E: ChernVector) -> Tuple[GradedClass, ...]:
    """Graded pieces ch_0..ch_n of the Chern character, n the ring dimension.

    ch = r + c1 + (c1^2 - 2 c2)/2 + (c1^3 - 3 c1 c2 + 3 c3)/6.

    ch_0 holds the rank as an ``int`` and ch_1 is c1 as given.  ch_2 and
    ch_3 are divided exactly by 2 and by 6: an ``int`` value stays an
    ``int`` when the division is exact and becomes a ``Fraction``
    otherwise, and a ``Fraction`` value stays a ``Fraction``.
    """
    ring = E.ring
    c1sq = E.c1 * E.c1
    pieces = [
        GradedClass(ring, 0, E.rank) if E.rank else GradedClass(ring),
        E.c1,
        _divided(c1sq - 2 * E.c2, 2),
        _divided(c1sq * E.c1 - 3 * (E.c1 * E.c2) + 3 * E.c3, 6),
    ]
    return tuple(pieces[: ring.dim + 1])


def _divided(c: GradedClass, n: int) -> GradedClass:
    """The scalar class ``c / n``, kept in ints when ``n`` divides an int value."""
    v = c.value
    if v is None:
        return c
    if type(v) is int:
        q, rem = divmod(v, n)
        v = Fraction(v, n) if rem else q
    else:
        v = v / n
    return _new(GradedClass, (c.ring, c.codim, v))


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
