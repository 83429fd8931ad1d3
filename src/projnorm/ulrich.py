"""Closed-form section counts for tensor and symmetric powers of Ulrich bundles.

An Ulrich bundle E of rank r on X of degree d has h^0 = r*d.  The closed
forms here are Euler characteristics of E(x)E, S^2 E and S^3 E (in c1^2,
c1.K, d, chi(O_S) and r on surfaces).  Each reads as h^0 through its own
vanishing (characteristic 0 throughout):

* surfaces in P^3, h^0 = chi.  The Ulrich resolution
  ``0 -> O(-1)^(rd) -> O^(rd) -> E -> 0`` on P^3 (Eisenbud, Schreyer and
  Weyman 2003) restricts to ``0 -> E(-d) -> O_S(-1)^(rd) -> O_S^(rd) -> E
  -> 0``.  Tensored with E and with E(x)E, with Serre duality, it shows
  that E(x)E and E(x)E(x)E, so also their summands S^2 E and S^3 E, have
  no higher cohomology.
* threefolds in P^4, h^0 >= chi.  The same sequence gives
  ``H^i(E(x)E) = H^(1-i)(F(x)F(-3))^v`` for i > 0, F = E^v((d-1)H) the
  Ulrich dual, so h^2 = h^3 = 0 for E(x)E and S^2 E.
* any surface, h^0 >= chi for S^k E, k = 2, 3.  Ulrich bundles are
  semistable (Casanellas and Hartshorne 2011), so S^k E is too, and
  ``h^2(S^k E) = h^0((S^k E)^v (x) K)`` vanishes: by the Ulrich c1.H that
  bundle has slope ``H.K - k(3H^2 + H.K)/2 < 0``, as H^2 + H.K >= -2.

Not proved: h^0 = chi off P^3, and anything in dimension >= 5, where E(x)E
can have higher cohomology (chi(E(x)E) < 0 on a degree-9 fivefold in P^6).
Every formula also has an independent path through :mod:`projnorm.rr` and
:mod:`projnorm.chern`, and the test suite requires the two to agree exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .chern import ChernVector
from .exactalg import DataError, ring_degree
from .rr import Surface, require_even, surface_numbers


class PowerCounts(NamedTuple):
    """Global section counts of the square and cube operations."""

    tensor2: int
    sym2: int
    sym3: int


class ThreefoldPowerData(NamedTuple):
    """Euler characteristics and third Chern numbers of E(x)E and S^2 E."""

    chi_tensor2: int
    chi_sym2: int
    c3_tensor2: int
    c3_sym2: int


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
    d, chi, K = S.degree, S.chi_o, S.canonical
    k2, kh = ring_degree(K * K), ring_degree(K)
    return (
        Fraction(r * r, 4) * (17 * d + 6 * kh + k2 - 4 * chi),
        Fraction(r, 8)
        * ((17 * r + 16) * d + (2 + r) * k2 + 6 * (r + 1) * kh - 4 * (r + 3) * chi),
        Fraction(r * (r + 2), 24)
        * (3 * d * (13 * r + 12) + 3 * (r + 2) * k2 + 18 * (r + 1) * kh - 8 * (r + 4) * chi),
    )


def h0_powers_surface(S: Surface, E: ChernVector) -> PowerCounts:
    """Section counts of E(x)E, S^2 E, S^3 E for an Ulrich bundle E on S.

    Uses the closed forms in (c1^2, c1.K, d, chi(O_S), r), with r the
    rank of E.  They assume the Ulrich conditions, so DataError is raised
    unless ``c1.H = r(3H^2 + H.K)/2`` and c2 is Casnati's
    (:func:`casnati_c2`).  When c1 is numerically (r/2)(K + 3H) they equal
    the specialized forms of :func:`h0_powers_surface_det_special`, which
    ``tests/test_identities.py`` proves on every input.
    """
    c1sq, c1k, c2 = surface_numbers(S, E)
    r, d, chi = E.rank, S.degree, S.chi_o
    c1h, expected_c1h = ring_degree(E.c1), Fraction(r * (3 * d + ring_degree(S.canonical)), 2)
    if c1h != expected_c1h:
        raise DataError(f"an Ulrich bundle has c1.H = r(3H^2 + H.K)/2 = {expected_c1h}, got {c1h}")
    expected_c2 = casnati_c2(c1sq, c1k, r, d, chi)
    if c2 != expected_c2:
        raise DataError(f"an Ulrich bundle has Casnati's c2 = {expected_c2}, got {c2}")

    tensor2 = c1sq + r * r * (2 * d - chi)
    sym2 = r * (r + 2) * d + Fraction(c1sq + c1k, 2) - Fraction(r * (r + 3), 2) * chi
    sym3 = Fraction(r + 2, 6) * (3 * c1sq + 3 * c1k + 3 * r * d * (r + 3) - 2 * r * chi * (r + 4))

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

    h^2 = h^3 = 0 for E(x)E and S^2 E (see the module docstring), so chi
    is h^0 - h^1, a lower bound for the section count; the verdict logic
    downstream relies on that inequality only, never on equality.
    """
    if d < 1:
        raise ValueError("need degree at least 1")
    require_even(r, d)
    # chi(S^2 E) is negative once d > 3r+4, so these are not counts
    chi_t2, rem_t2 = divmod(r * r * d * (d + 1) * (d + 3), 8)
    chi_s2, rem_s2 = divmod(r * d * (d + 1) * (d + 3) * (3 * r + 4 - d), 48)
    c3_t2, rem_c3_t2 = divmod(r * r * d * (d - 1) ** 2 * (r * r - 2) * (2 * r * r * (d - 1) + 3 - d), 12)
    c3_s2, rem_c3_s2 = divmod(r * d * (d - 1) ** 2 * (r + 2) * (r * r + r - 4) * (r * r * (d - 1) + 2), 48)
    if rem_t2 or rem_s2 or rem_c3_t2 or rem_c3_s2:
        raise DataError("Euler characteristics and c3 numbers of the powers must be integers")
    return ThreefoldPowerData(chi_t2, chi_s2, c3_t2, c3_s2)


def ulrich_c3_p4_hypersurface(d: int, r: int) -> Fraction:
    """Third Chern number of a rank-r Ulrich bundle on a degree-d threefold."""
    if d < 1:
        raise ValueError("need degree at least 1")
    require_even(r, d)
    return Fraction(r * d, 48) * (d - 1) ** 2 * (r - 2) * (r * d - r + 2)


def casnati_c2(c1sq: Fraction, c1k: Fraction, r: int, d, chi_o) -> Fraction:
    """Second Chern number of an Ulrich surface bundle.

    The Casnati formula: c2 = (c1^2 - c1.K)/2 + r chi(O_S) - r d.
    """
    return Fraction(c1sq - c1k, 2) + r * chi_o - r * d
