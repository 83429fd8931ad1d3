"""Euler characteristics via Riemann-Roch and the Ulrich Chern-class solver.

Variety models:

* :class:`Surface`: an (H, K) intersection lattice and chi(O_S), with the
  hyperplane and canonical classes as lattice vectors.  Its geometric
  genus p_g records the caller's claim; no formula reads it, and the
  surface criteria print notes asking the caller to assert q = p_g = 0.
  :func:`surface_numbers` reads a bundle's (c1^2, c1.K, c2).
* :class:`HypersurfaceP3` / :class:`HypersurfaceP4`: smooth degree-d
  hypersurfaces; canonical class, chi(O) and tangent Chern classes are
  derived from d.  Each supplies its own ``ring`` and Euler
  characteristic ``chi(E)``.

An Ulrich bundle for a degree-d polarization has chi of every twist
E(-p), 1 <= p <= dim, equal to zero; with the first Chern class pinned to
(r/2)(K + (n+1)H), that is det E = O(r(d-1)/2), those vanishings form a
linear system that determines the remaining Chern numbers.
:func:`solve_ulrich_chern` solves that system exactly and is
cross-checked downstream against independent closed forms.  The Ulrich
dual E^v(K + (n+1)H) = E^v((d-1)H) is Ulrich with E (Eisenbud, Schreyer
and Weyman, JAMS 2003; Beauville, Eur. J. Math. 2018), and the system has
one solution, so the solver's output is its own Ulrich dual.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .chern import ChernVector, chern_character, twist
from .exactalg import (
    GradedClass,
    ParityError,
    RankOneRing,
    RingMismatchError,
    Scalar,
    SolverError,
    SurfaceLattice,
    _new,
    as_fraction,
    binom,
    divisor,
    exact,
    quotient,
    ring_degree,
    unit,
)


class _SurfaceFields(NamedTuple):
    lattice: SurfaceLattice
    chi_o: Scalar
    geometric_genus: int
    canonical: GradedClass


class Surface(_SurfaceFields):
    """Numerical model of an embedded surface: lattice, chi(O), p_g, K.

    ``Surface(...)``, ``_make`` and ``_replace`` keep ``chi_o`` as :func:`exact`
    gives it, read ``geometric_genus`` through :func:`exact` as a
    nonnegative ``int`` (a ``Fraction`` raises ``TypeError``, a negative
    genus ``ValueError``) and check that the canonical class is zero or a
    lattice divisor.
    """

    __slots__ = ()

    def __new__(cls, lattice: SurfaceLattice, chi_o: Scalar, geometric_genus: int, canonical: GradedClass) -> "Surface":
        return cls._make((lattice, chi_o, geometric_genus, canonical))

    @classmethod
    def _make(cls, fields) -> "Surface":
        lattice, chi_o, geometric_genus, canonical = fields
        if canonical.ring != lattice:
            raise RingMismatchError("canonical class must live in the surface lattice")
        if canonical.codim not in (None, 1):
            raise ValueError("canonical class must be a divisor")
        pg = exact(geometric_genus)
        if type(pg) is not int:
            raise TypeError(f"geometric genus must be an int, got {geometric_genus!r}")
        if pg < 0:
            raise ValueError("geometric genus must be nonnegative")
        return _new(cls, (lattice, exact(chi_o), pg, canonical))

    @property
    def hyperplane(self) -> GradedClass:
        return divisor(self.lattice, 1)

    @property
    def degree(self) -> Fraction:
        """deg S = H^2, the degree of the unit class [S], as a ``Fraction``."""
        return ring_degree(unit(self.lattice))


def surface_model(
    h2: Scalar,
    hk: Scalar,
    k2: Scalar,
    chi_o: Scalar,
    geometric_genus: int = 0,
) -> Surface:
    """Surface from its intersection numbers H^2, H.K, K^2 and chi(O_S)."""
    lattice = SurfaceLattice(("H", "K"), ((h2, hk), (hk, k2)))
    canonical = divisor(lattice, (0, 1))
    return Surface(lattice, chi_o, geometric_genus, canonical)


class _Hypersurface:
    """A smooth hypersurface model, named by its degree.

    Every model offers ``degree``, the ``ring`` its classes live in (the
    surface lattice in P^3, the rank-one ring in P^4) and ``chi(E)``, the
    Euler characteristic of a bundle on it.

    The data a model derives from its degree is built once, at
    construction, and is not part of its value: equality, hashing and
    ``repr`` see the type and the degree only.  No attribute can be
    assigned or deleted.
    """

    __slots__ = ("degree",)

    def __init__(self, degree: int) -> None:
        if degree < 1:
            raise ValueError("degree must be positive")
        object.__setattr__(self, "degree", degree)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.degree == other.degree

    def __hash__(self) -> int:
        return hash((self.degree,))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(degree={self.degree})"


class HypersurfaceP3(_Hypersurface):
    """Smooth degree-d surface in P^3.

    The model pins det E = O(r(d-1)/2) for a rank-r Ulrich bundle E.
    That is forced where the Picard group is ZH: on the plane and, by
    Noether-Lefschetz, only on a very general surface of degree d >= 4.
    The smooth quadric has Picard group Z^2, the smooth cubic Z^7, and a
    special surface of degree >= 4 can have more classes; there the pinned
    c1 is one choice among several.

    The model holds only its surface, whose lattice is ``ring``; its
    chi(O_S) = 1 + p_g is an ``int``, with p_g = binom(d-1, 3).
    """

    __slots__ = ("_surface",)

    def __init__(self, degree: int) -> None:
        super().__init__(degree)
        # K = (d-4)H, so H.K = d(d-4) and K^2 = d(d-4)^2 on the H-lattice.
        d = degree
        pg = binom(d - 1, 3)
        surface = surface_model(d, d * (d - 4), d * (d - 4) ** 2, 1 + pg, geometric_genus=pg)
        object.__setattr__(self, "_surface", surface)

    @property
    def ring(self) -> SurfaceLattice:
        return self._surface.lattice

    def surface(self) -> Surface:
        """The numerical surface model, built once with the hypersurface."""
        return self._surface

    def chi(self, E: ChernVector) -> Fraction:
        return chi_surface(self._surface, E)


class HypersurfaceP4(_Hypersurface):
    """Smooth degree-d threefold in P^4; by Lefschetz its Picard group is
    ZH, so det E = O(r(d-1)/2) is forced for a rank-r Ulrich bundle E.

    ``ring`` is built once with the hypersurface, on the int degree ``d``
    as ``H^3``, so every class made on it shares one ring object.  So is
    ``todd``, the graded pieces of 24 td(X) that every Riemann-Roch
    evaluation on the model reads: td(X) has denominators dividing 24, so
    the pieces hold the int numerators ``(24, 12 c1(T), 2 (c1(T)^2 +
    c2(T)), c1(T) c2(T))``.
    """

    __slots__ = ("ring", "todd")

    def __init__(self, degree: int) -> None:
        super().__init__(degree)
        ring = RankOneRing(3, degree)
        object.__setattr__(self, "ring", ring)
        # 24 td = 24 + 12 c1(T) + 2 (c1(T)^2 + c2(T)) + c1(T) c2(T)
        T = self.tangent_chern()
        todd = (unit(ring, 24), 12 * T.c1, 2 * (T.c1 * T.c1 + T.c2), T.c1 * T.c2)
        object.__setattr__(self, "todd", todd)

    @property
    def canonical(self) -> GradedClass:
        return divisor(self.ring, self.degree - 5)

    def chi(self, E: ChernVector) -> Fraction:
        return chi_threefold_hypersurface(self, E)

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


# ---------------------------------------------------------------------------
# Euler characteristics


def _numbers(S: Surface, E: ChernVector) -> tuple:
    """(c1^2, c1.K, c2) of E on S, exact as computed: ints for int classes
    on an int lattice, a ``Fraction`` where one of them meets one."""
    if E.ring is not S.lattice and E.ring != S.lattice:
        raise RingMismatchError("bundle does not live on the given surface")
    products = (E.c1 * E.c1, E.c1 * S.canonical, E.c2)
    return tuple(0 if c.codim is None else c.value for c in products)


def surface_numbers(S: Surface, E: ChernVector) -> tuple:
    """The numbers (c1^2, c1.K, c2) of a bundle E on S, as Fractions."""
    return tuple(map(as_fraction, _numbers(S, E)))


def chi_surface(S: Surface, E: ChernVector) -> Fraction:
    """chi(S, E) = r chi(O_S) + (c1^2 - c1.K)/2 - c2, a ``Fraction``.

    The numerator of 2 chi is formed exactly and divided once: on int data
    (every hypersurface model) it is the one ``Fraction`` built.
    """
    c1sq, c1k, c2 = _numbers(S, E)
    return Fraction(2 * E.rank * S.chi_o + c1sq - c1k - 2 * c2, 2)


def chi_threefold_hypersurface(X: HypersurfaceP4, E: ChernVector) -> Fraction:
    """chi(X, E) on a degree-d threefold in P^4 by Hirzebruch-Riemann-Roch.

    Integrates the degree-3 part of ch(E) td(X), with 24 td(X) the
    model's int ``todd`` pieces.  The products ch_i (24 td)_(3-i) are
    summed in ints, as one numerator over the product of the denominators
    of the ch_i that are ``Fraction``s, skipping zero pieces (td_1 is zero
    at d = 5).  The one ``Fraction`` built, on any data, is that numerator
    times ``H^3 = d`` over 24 times that denominator.
    """
    ring = X.ring
    if E.ring is not ring and E.ring != ring:
        raise RingMismatchError("bundle does not live on the given threefold")
    num, den = 0, 1
    for c, t in zip(chern_character(E), reversed(X.todd)):
        if c.codim is not None and t.codim is not None:
            v = c.value
            if type(v) is int:
                num += v * t.value * den
            else:
                q = v.denominator
                num = num * q + v.numerator * t.value * den
                den *= q
    return Fraction(num * ring.h_degree, 24 * den)


# ---------------------------------------------------------------------------
# Ulrich Chern data


def parity_ok(r: int, d: int) -> bool:
    """Whether c1 = (r/2)(d-1)H is integral, so rank-r Ulrich data exist in degree d."""
    return (r * (d - 1)) % 2 == 0


def require_even(r: int, d: int) -> None:
    if not parity_ok(r, d):
        raise ParityError(f"r*(d-1) must be even (got r={r}, d={d})")


def solve_ulrich_chern(V, rank: int) -> ChernVector:
    """Recover the Chern data of a rank-r Ulrich bundle on a hypersurface.

    Fixes c1 = (r/2)(K + (n+1)H) and solves the exact linear system
    chi(E(-p)) = 0 for p = 1..n for the remaining Chern numbers: c2 on
    surfaces, (c2, c3) on threefolds.  chi(E(-p)) is affine in them, so
    each row comes from evaluating it at zero and at each unit point.
    The n point bundles and the twisting class h hold ``int`` values (a
    vector of them for the divisors on P^3), built once per solve.  Each
    twist stays in ints: on P^3 its divisor products pair through the
    lattice's int Gram matrix, and on P^4 so does its Chern character
    where 2 and 6 divide ch_2 and ch_3.  Riemann-Roch on both models sums
    in ints and divides once, so each of the n^2 evaluations of chi
    (every row at every point) builds one ``Fraction``; on P^4 a ch_2 or
    ch_3 that is not an int adds one more each.  The solve itself is
    fraction-free: the chi values are scaled to ints by the lcm of their
    denominators, and Cramer's rule and the row-n check run on ints.  The
    principal system is 1x1 on P^3 and 2x2 on P^4.  The solution keeps
    the pinned c1 as an ``int`` class (a vector of ints on P^3); each of
    c2 and c3 is the quotient det_j / det of Cramer's rule, an ``int``
    where det divides det_j and a ``Fraction`` otherwise
    (:func:`~projnorm.exactalg.quotient`).
    The first n-1 rows are solved exactly and row n must agree; a
    singular principal system or an inconsistent last row raises
    SolverError instead of guessing.  E^v((d-1)H) is Ulrich with E
    (Eisenbud-Schreyer-Weyman 2003, Beauville 2018), so the unique
    solution is its own Ulrich dual, as
    ``tests/test_rr.py::test_solver_output_is_its_own_ulrich_dual`` checks.

    For general surface models the data must be supplied by the caller
    (only c1.H is pinned there), so this raises TypeError.
    """
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if not isinstance(V, _Hypersurface):
        raise TypeError("Ulrich Chern data can be solved only on hypersurface models")
    ring, chi = V.ring, V.chi
    require_even(rank, V.degree)
    c1_coefficient = rank * (V.degree - 1) // 2  # c1 = (r/2)(K + (n+1)H) = (r(d-1)/2)H
    n = ring.dim
    names = ", ".join(f"c{k}" for k in range(2, n + 1))
    # points[0] is the zero point and points[j - 1] has c_j = 1, j = 2..n
    points = [ChernVector.of(ring, rank, c1_coefficient, int(j == 2), int(j == 3)) for j in range(1, n + 1)]
    h = divisor(ring, 1)
    values = []  # chi(E(-p)) at each point, for p = 1..n
    for p in range(1, n + 1):
        L = -p * h
        values.append([chi(twist(E, L)) for E in points])
    # D times each chi is an int, D the lcm of their denominators; chi(E(-p))
    # = a.x + b is affine in the unknowns x, and row p holds D (a, b)
    D = math.lcm(*(v.denominator for row in values for v in row))
    rows = []
    for row in values:
        b, *at_units = [v.numerator * (D // v.denominator) for v in row]
        rows.append(([v - b for v in at_units], b))
    *principal, (last, b_last) = rows
    det = _det([a for a, _ in principal])
    if det == 0:
        raise SolverError(f"singular linear system for ({names})")
    # Cramer's rule: x_j = det_j / det, column j replaced by the negated constants
    dets = [_det([a[:j] + [-b] + a[j + 1:] for a, b in principal]) for j in range(n - 1)]
    if sum(a * dj for a, dj in zip(last, dets)) + b_last * det != 0:
        raise SolverError(f"inconsistent twist constraints for ({names})")
    return ChernVector.of(ring, rank, c1_coefficient, *(quotient(dj, det) for dj in dets))


def _det(matrix: list) -> int:
    """Determinant of an int matrix of the solver: 1x1 on P^3, 2x2 on P^4,
    the only sizes it builds."""
    if len(matrix) == 1:
        return matrix[0][0]
    (a, b), (c, d) = matrix
    return a * d - b * c
