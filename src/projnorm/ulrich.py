"""Closed-form section counts for tensor and symmetric powers of Ulrich bundles.

An Ulrich bundle of rank r for a degree-d polarization has h^0 = r*d and,
on surfaces, 0-regular tensor operations, so the section counts of E(x)E,
S^2 E and S^3 E equal their Euler characteristics and reduce to closed
forms in (c1^2, c1.K, d, chi(O_S), r).  On threefolds only the Euler
characteristics are available (they bound h^0 from below there).  Every
formula in this module has a second, independent computation path through
:mod:`projnorm.rr` and :mod:`projnorm.chern`, and the two are required to
agree exactly in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .chern import ChernVector
from .exactalg import DataError, numerically_equal, ring_degree
from .rr import (
    HypersurfaceP3,
    HypersurfaceP4,
    Surface,
    as_surface,
    require_even,
    solve_ulrich_chern,
)


class UlrichData(NamedTuple):
    """An Ulrich bundle's numerical footprint: variety, rank, Chern data, h^0 = r*d."""

    variety: object
    rank: int
    chern: ChernVector
    h0: int


class PowerCounts(NamedTuple):
    """Global section counts of the square and cube operations."""

    tensor2: int
    sym2: int
    sym3: int


class ThreefoldPowerData(NamedTuple):
    """Euler characteristics and third Chern numbers of E(x)E and S^2 E."""

    chi_tensor2: int
    chi_sym2: int
    c3_tensor2: Fraction
    c3_sym2: Fraction


def make_ulrich(V, rank: int, chern: ChernVector | None = None) -> UlrichData:
    """Assemble Ulrich data; hypersurfaces get their Chern classes solved.

    On general surface models the Chern data cannot be recovered from the
    model (only c1.H is pinned) and must be supplied.
    """
    if isinstance(V, (HypersurfaceP3, HypersurfaceP4)):
        solved = solve_ulrich_chern(V, rank)
        if chern is not None and chern != solved:
            raise DataError("supplied Chern data disagrees with the vanishing constraints")
        chern = solved
        degree = Fraction(V.degree)
    elif isinstance(V, Surface):
        if chern is None:
            raise TypeError("general surface models need explicit Chern data")
        degree = V.degree
    else:
        raise TypeError(f"unsupported variety model {type(V).__name__}")
    h0 = rank * degree
    if h0.denominator != 1:
        raise DataError("h^0 = r*d is not an integer")
    return UlrichData(V, rank, chern, int(h0))


def _require_count(num: int, den: int, label: str) -> int:
    """The count ``num/den`` (``den > 0``) as an int, or DataError unless it is one."""
    count, rem = divmod(num, den)
    if rem or count < 0:
        raise DataError(f"{label} must be a nonnegative integer, got {Fraction(num, den)}")
    return count


def h0_powers_surface_det_special(S: Surface, r: int) -> tuple:
    """Section counts of the powers when det E = O((r/2)(K + 3H)).

    The specialized closed forms in (d, K^2, K.H, chi(O_S)) alone; returned
    as raw rationals so they can be compared against the generic forms.
    """
    S = as_surface(S)
    d = S.degree
    chi = S.chi_o
    lat = S.lattice
    k2 = ring_degree(lat, S.canonical * S.canonical, 2)
    kh = ring_degree(lat, S.canonical * S.hyperplane, 2)
    return (
        Fraction(r * r, 4) * (17 * d + 6 * kh + k2 - 4 * chi),
        Fraction(r, 8)
        * ((17 * r + 16) * d + (2 + r) * k2 + 6 * (r + 1) * kh - 4 * (r + 3) * chi),
        Fraction(r * (r + 2), 24)
        * (3 * d * (13 * r + 12) + 3 * (r + 2) * k2 + 18 * (r + 1) * kh - 8 * (r + 4) * chi),
    )


def h0_powers_surface(U: UlrichData) -> PowerCounts:
    """Section counts of E(x)E, S^2 E, S^3 E on a surface.

    Uses the closed forms in (c1^2, c1.K, d, chi(O_S), r); when c1 is
    numerically (r/2)(K + 3H) the specialized forms in (d, K^2, K.H, chi)
    are evaluated as well and any disagreement flags inconsistent input.
    """
    S = as_surface(U.variety)
    r = U.rank
    d = S.degree
    chi = S.chi_o
    lat = S.lattice
    c1 = U.chern.c1
    c1sq = ring_degree(lat, c1 * c1, 2)
    c1k = ring_degree(lat, c1 * S.canonical, 2)

    tensor2 = c1sq + r * r * (2 * d - chi)
    sym2 = r * (r + 2) * d + Fraction(c1sq + c1k, 2) - Fraction(r * (r + 3), 2) * chi
    sym3 = Fraction(r + 2, 6) * (
        3 * c1sq + 3 * c1k + 3 * r * d * (r + 3) - 2 * r * chi * (r + 4)
    )

    if numerically_equal(c1, Fraction(r, 2) * (S.canonical + 3 * S.hyperplane)):
        if h0_powers_surface_det_special(S, r) != (tensor2, sym2, sym3):
            raise DataError("section counts disagree with their det E = O((r/2)(K+3H)) specialization")

    return PowerCounts(
        _require_count(tensor2.numerator, tensor2.denominator, "h0(E(x)E)"),
        _require_count(sym2.numerator, sym2.denominator, "h0(S^2 E)"),
        _require_count(sym3.numerator, sym3.denominator, "h0(S^3 E)"),
    )


def h0_powers_p3_hypersurface(d: int, r: int) -> PowerCounts:
    """Section counts on a degree-d surface in P^3 with det E = O(r(d-1)/2)."""
    if d < 2:
        raise ValueError("need degree at least 2")
    require_even(r, d)
    return PowerCounts(
        _require_count(r * r * d * (d + 1) * (d + 5), 12, "h0(E(x)E)"),
        _require_count(r * d * (d + 1) * ((d + 5) * r + 6), 24, "h0(S^2 E)"),
        _require_count(r * d * (d + 1) * (r + 2) * (r + 4 + d * (5 * r + 2)), 72, "h0(S^3 E)"),
    )


def chi_powers_p4_hypersurface(d: int, r: int) -> ThreefoldPowerData:
    """Euler characteristics and c3 numbers on a degree-d threefold in P^4.

    chi equals h^0 - h^1 for these powers (the top cohomology vanishes),
    so each chi is a lower bound for the section count; the verdict logic
    downstream relies on that inequality only, never on equality.
    """
    if d < 1:
        raise ValueError("need degree at least 1")
    require_even(r, d)
    # chi(S^2 E) is negative once d > 3r+4, so these are not counts
    chi_t2, rem_t2 = divmod(r * r * d * (d + 1) * (d + 3), 8)
    chi_s2, rem_s2 = divmod(r * d * (d + 1) * (d + 3) * (3 * r + 4 - d), 48)
    if rem_t2 or rem_s2:
        raise DataError("Euler characteristics of the powers must be integers")
    c3_t2 = Fraction(r * r * d * (d - 1) ** 2 * (r * r - 2) * (2 * r * r * (d - 1) + 3 - d), 12)
    c3_s2 = Fraction(r * d * (d - 1) ** 2 * (r + 2) * (r * r + r - 4) * (r * r * (d - 1) + 2), 48)
    return ThreefoldPowerData(chi_t2, chi_s2, c3_t2, c3_s2)


def ulrich_c3_p4_hypersurface(d: int, r: int) -> Fraction:
    """Third Chern number of a rank-r Ulrich bundle on a degree-d threefold."""
    require_even(r, d)
    return Fraction(r * d, 48) * (d - 1) ** 2 * (r - 2) * (r * d - r + 2)


def casnati_c2(c1sq: Fraction, c1k: Fraction, r: int, d, chi_o) -> Fraction:
    """Second Chern number of an Ulrich surface bundle.

    The Casnati formula: c2 = (c1^2 - c1.K)/2 + r chi(O_S) - r d.
    """
    return Fraction(c1sq - c1k, 2) + r * chi_o - r * d
