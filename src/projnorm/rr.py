"""Euler characteristics via Riemann-Roch and the Ulrich Chern-class solver.

Variety models carry exactly the numerical data the formulas consume:

* :class:`Surface`: an (H, K) intersection lattice, chi(O_S), the
  irregularity q and geometric genus p_g, with the hyperplane and
  canonical classes as lattice vectors.
* :class:`HypersurfaceP3` / :class:`HypersurfaceP4`: smooth degree-d
  hypersurfaces; canonical class, chi(O) and tangent Chern classes are
  derived from d.

An Ulrich bundle for a degree-d polarization has chi of every twist
E(-p), 1 <= p <= dim, equal to zero; with the first Chern class pinned to
(r/2)(K + (n+1)H), that is det E = O(r(d-1)/2), those vanishings form a
linear system that determines the remaining Chern numbers.
:func:`solve_ulrich_chern` solves that system exactly and is
cross-checked downstream against independent closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .chern import ChernVector, chern_character, twist
from .exactalg import (
    GradedClass,
    ParityError,
    RankOneRing,
    RingMismatchError,
    Scalar,
    SolverError,
    SurfaceLattice,
    as_fraction,
    divisor,
    ring_degree,
    unit,
)


@dataclass(frozen=True)
class Surface:
    """Numerical model of an embedded surface: lattice, chi(O), q, p_g."""

    lattice: SurfaceLattice
    chi_o: Fraction
    irregularity: int
    geometric_genus: int
    canonical: GradedClass

    def __post_init__(self) -> None:
        object.__setattr__(self, "chi_o", as_fraction(self.chi_o))
        if self.canonical.ring != self.lattice:
            raise RingMismatchError("canonical class must live in the surface lattice")

    @property
    def hyperplane(self) -> GradedClass:
        return divisor(self.lattice, 1)

    @property
    def degree(self) -> Fraction:
        return self.lattice.gram[0][0]


def surface_model(
    h2: Scalar,
    hk: Scalar,
    k2: Scalar,
    chi_o: Scalar,
    irregularity: int = 0,
    geometric_genus: int = 0,
) -> Surface:
    """Surface from its intersection numbers H^2, H.K, K^2 and chi(O_S)."""
    lattice = SurfaceLattice(("H", "K"), ((h2, hk), (hk, k2)))
    canonical = divisor(lattice, (0, 1))
    return Surface(lattice, as_fraction(chi_o), irregularity, geometric_genus, canonical)


@dataclass(frozen=True)
class HypersurfaceP3:
    """Smooth degree-d surface in P^3.

    The model pins det E = O(r(d-1)/2) for a rank-r Ulrich bundle E.
    That is forced where the Picard group is ZH: on the plane and, by
    Noether-Lefschetz, only on a very general surface of degree d >= 4.
    The smooth quadric has Picard group Z^2, the smooth cubic Z^7, and a
    special surface of degree >= 4 can have more classes; there the pinned
    c1 is one choice among several.
    """

    degree: int
    _surface: Surface = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be positive")
        # K = (d-4)H, so H.K = d(d-4) and K^2 = d(d-4)^2 on the H-lattice.
        d = self.degree
        surface = surface_model(d, d * (d - 4), d * (d - 4) ** 2, self.chi_o, geometric_genus=int(self.chi_o) - 1)
        object.__setattr__(self, "_surface", surface)

    @property
    def chi_o(self) -> Fraction:
        d = self.degree
        return Fraction(d * (d * d - 6 * d + 11), 6)

    def surface(self) -> Surface:
        """The numerical surface model, built once with the hypersurface."""
        return self._surface


@dataclass(frozen=True)
class HypersurfaceP4:
    """Smooth degree-d threefold in P^4; by Lefschetz its Picard group is
    ZH, so det E = O(r(d-1)/2) is forced for a rank-r Ulrich bundle E.

    ``ring`` is built once with the hypersurface, so every class made on
    it shares one ring object.  So is ``todd``, the graded pieces td_0..td_3
    of td(X) that every Riemann-Roch evaluation on the model reads.
    """

    degree: int
    ring: RankOneRing = field(init=False, repr=False, compare=False)
    todd: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be positive")
        ring = RankOneRing(3, Fraction(self.degree))
        object.__setattr__(self, "ring", ring)
        # td = 1 + c1(T)/2 + (c1(T)^2 + c2(T))/12 + c1(T) c2(T)/24
        T = self.tangent_chern()
        todd = (
            unit(ring),
            Fraction(1, 2) * T.c1,
            Fraction(1, 12) * (T.c1 * T.c1 + T.c2),
            Fraction(1, 24) * (T.c1 * T.c2),
        )
        object.__setattr__(self, "todd", todd)

    @property
    def canonical(self) -> GradedClass:
        return divisor(self.ring, self.degree - 5)

    def tangent_chern(self) -> ChernVector:
        """c(T_X) from (1+H)^5 / (1+dH), truncated in degree 3."""
        d = self.degree
        return ChernVector.of(
            self.ring,
            3,
            5 - d,
            d * d - 5 * d + 10,
            -d**3 + 5 * d * d - 10 * d + 10,
        )


def as_surface(V) -> Surface:
    """Coerce a surface-like model (Surface or HypersurfaceP3) to a Surface."""
    if isinstance(V, HypersurfaceP3):
        return V.surface()
    if isinstance(V, Surface):
        return V
    raise TypeError(f"expected a surface model, got {type(V).__name__}")


# ---------------------------------------------------------------------------
# Euler characteristics


def chi_surface(V, E: ChernVector) -> Fraction:
    """chi(S, E) = r chi(O_S) + (c1^2 - c1.K)/2 - c2."""
    S = as_surface(V)
    if E.ring != S.lattice:
        raise RingMismatchError("bundle does not live on the given surface")
    c1sq = ring_degree(S.lattice, E.c1 * E.c1, 2)
    c1k = ring_degree(S.lattice, E.c1 * S.canonical, 2)
    c2 = ring_degree(S.lattice, E.c2, 2)
    return E.rank * S.chi_o + (c1sq - c1k) / 2 - c2


def chi_threefold_hypersurface(X: HypersurfaceP4, E: ChernVector) -> Fraction:
    """chi(X, E) on a degree-d threefold in P^4 by Hirzebruch-Riemann-Roch.

    Integrates the degree-3 part of ch(E) td(X), with td(X) the model's
    ``todd`` pieces.
    """
    ring = X.ring
    if E.ring is not ring and E.ring != ring:
        raise RingMismatchError("bundle does not live on the given threefold")
    td = X.todd
    ch = chern_character(E)
    total = GradedClass(ring)
    for i in range(4):
        total = total + ch[i] * td[3 - i]
    return ring_degree(ring, total, 3)


# ---------------------------------------------------------------------------
# Ulrich Chern data


def parity_ok(r: int, d: int) -> bool:
    """Whether c1 = (r/2)(d-1)H is integral, so rank-r Ulrich data exist in degree d."""
    return (r * (d - 1)) % 2 == 0


def require_even(r: int, d: int) -> None:
    if not parity_ok(r, d):
        raise ParityError(f"r*(d-1) must be even (got r={r}, d={d})")


def ulrich_c1(V, rank: int) -> GradedClass:
    """First Chern class (r/2)(K + (n+1)H) = (r(d-1)/2)H pinned on hypersurface models."""
    if not isinstance(V, (HypersurfaceP3, HypersurfaceP4)):
        raise TypeError("the first Chern class is pinned only on hypersurface models")
    require_even(rank, V.degree)
    ring = V.surface().lattice if isinstance(V, HypersurfaceP3) else V.ring
    return divisor(ring, Fraction(rank * (V.degree - 1), 2))


def solve_ulrich_chern(V, rank: int) -> ChernVector:
    """Recover the Chern data of a rank-r Ulrich bundle on a hypersurface.

    Fixes c1 = (r/2)(K + (n+1)H) and solves the exact linear system
    chi(E(-p)) = 0 for p = 1..n for the remaining Chern numbers: c2 on
    surfaces, (c2, c3) on threefolds.  chi(E(-p)) is affine in them, so
    each row comes from evaluating it at zero and at each unit point.
    Those n point bundles are built once per solve, and each row's
    twisting class -p*h once per row; every row is still evaluated at
    every point, n^2 evaluations of chi in all.
    The first n-1 rows are solved exactly and row n must agree; a
    singular principal system or an inconsistent last row raises
    SolverError instead of guessing.

    For general surface models the data must be supplied by the caller
    (only c1.H is pinned there), so this raises TypeError.
    """
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if isinstance(V, HypersurfaceP3):
        S = V.surface()
        ring, chi = S.lattice, partial(chi_surface, S)
    elif isinstance(V, HypersurfaceP4):
        ring, chi = V.ring, partial(chi_threefold_hypersurface, V)
    else:
        raise TypeError("Ulrich Chern data can be solved only on hypersurface models")
    c1 = ulrich_c1(V, rank)
    h = divisor(ring, 1)
    n = ring.dim
    names = ", ".join(f"c{k}" for k in range(2, n + 1))
    zero = [0] * (n - 1)
    units = [[int(i == j) for j in range(n - 1)] for i in range(n - 1)]
    points = [ChernVector.of(ring, rank, c1, *x) for x in [zero, *units]]
    rows = []  # chi(E(-p)) = a.x + b is affine in the unknowns x; (a, b) for p = 1..n
    for p in range(1, n + 1):
        L = -p * h
        b, *at_units = [chi(twist(E, L)) for E in points]
        rows.append(([v - b for v in at_units], b))
    *principal, (last, b_last) = rows
    det = _det([a for a, _ in principal])
    if det == 0:
        raise SolverError(f"singular linear system for ({names})")
    # Cramer's rule: column j of the matrix replaced by the negated constants
    x = [_det([a[:j] + [-b] + a[j + 1:] for a, b in principal]) / det for j in range(n - 1)]
    if sum(a * xj for a, xj in zip(last, x)) + b_last != 0:
        raise SolverError(f"inconsistent twist constraints for ({names})")
    return ChernVector.of(ring, rank, c1, *x)


def _det(matrix: list) -> Fraction:
    """Exact determinant by expansion along the first row."""
    if not matrix:
        return Fraction(1)
    return sum(
        (-1) ** j * a * _det([row[:j] + row[j + 1:] for row in matrix[1:]])
        for j, a in enumerate(matrix[0])
    )
