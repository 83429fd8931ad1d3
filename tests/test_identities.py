"""Each identity that a surface verdict could recompute a second way, proved
once for every input.

Four verdicts state one algebraic identity that a second transcription of
the same numbers must satisfy: the 3-normality slack on surfaces in P^3, the
two speciality bounds of the degeneracy-locus criterion, the degree and
Segre forms of the sectional-curve criterion and the generic and
det E = O((r/2)(K + 3H)) forms of the surface section counts.  Each test
runs the package's own functions on a product grid.  On every input the
functions accept, each side is a polynomial in the grid variables, of the
degree stated in the test (read off the code), and two polynomials in one
variable of degree at most k that agree at k + 1 points are equal.  So a
grid with more values per variable than that variable's degree proves the
identity for every input, not a sample of them.

The module needs no pytest, so it also runs as a plain script on any
supported Python:

    PYTHONPATH=src python tests/test_identities.py
"""

from fractions import Fraction
from itertools import product

from projnorm.chern import ChernVector, segre_dual
from projnorm.exactalg import ring_degree
from projnorm.normality import classify_p3_hypersurface, sectional_curve_criterion, surface_acm_criterion
from projnorm.rr import HypersurfaceP4, surface_model, surface_numbers
from projnorm.ulrich import casnati_c2, h0_powers_surface, h0_powers_surface_det_special


def test_p3_slack3_closed_form():
    # 72 (binom(rd+2, 3) - h0(S^3 E)) = r d (d-1)(r-2)(d(7r+2)+r+8) for every
    # parity-valid (d, r).  binom(rd+2, 3) and h0_powers_p3_hypersurface's
    # sym3 = r d (d+1)(r+2)(r+4+d(5r+2))/72, an integer on those inputs, have
    # degree 3 in d and in r, and so has the right side: 4 values of each
    # decide it.  Even ranks meet the parity rule at every degree.
    cells = 0
    for r, d in product((2, 4, 6, 8), range(2, 6)):
        _, v3, _ = classify_p3_hypersurface(d, r)
        slack = v3.witness.lhs - v3.witness.rhs
        assert 72 * slack == r * d * (d - 1) * (r - 2) * (d * (7 * r + 2) + r + 8), (d, r)
        cells += 1
    assert cells == 16


def test_acm_speciality_paths_agree():
    # h1_lower = (lhs - rhs)/2, half the criterion's margin, and
    # h1_lower_rr = h0_lower - z_length + genus - 1, Riemann-Roch on the
    # degeneracy curve, are the same number for every input.  With m = h - r,
    # each side has degree <= 2 in h and in r (h(h-1), r(2h-r-1), binom(m, 2),
    # (m-2)(m+1) c1^2, (m-1)^2 c1^2) and is affine in each of c1^2, c1.K
    # and c2: 3 values of h and r and 2 of the others decide it.
    cells = 0
    for r, h, c1sq, c1k, c2 in product((2, 3, 4), (7, 8, 9), (0, 1), (0, 1), (0, 1)):
        data = surface_acm_criterion(h, r, c1sq, c1k, c2).degeneracy
        assert data.h1_lower == data.h1_lower_rr, (h, r, c1sq, c1k, c2)
        cells += 1
    assert cells == 72


def test_sectional_curve_degree_and_segre_forms_agree():
    # sectional_curve_criterion reads deg = s_n(E*) and the adjoint number
    # a = (K + c1).s_{n-1}(E*), and its witness difference
    # deg - (2g + 1), with g = 1 + (a + (n-2) deg)/2, is affine in (deg, a)
    # at fixed n, as is the Segre form (3-n) deg - 3 - a.  Agreement at three
    # bundles whose (deg, a) are affinely independent decides it for every
    # bundle, on surfaces (n = 2) and on threefolds in P^4 (n = 3).
    S = surface_model(4, 0, 0, 2)
    X = HypersurfaceP4(4)
    cases = (
        (S, 2, [ChernVector.of(S.lattice, 2, c1, c2) for c1, c2 in (((1, 0), 0), ((1, 0), 1), ((2, 1), 0))]),
        (X, 3, [ChernVector.of(X.ring, 3, *c) for c in ((1, 0, 0), (1, 0, 1), (2, 1, 0))]),
    )
    for V, n, bundles in cases:
        points = []
        for E in bundles:
            s = segre_dual(E)
            deg, adjoint = ring_degree(s[n]), ring_degree((V.canonical + E.c1) * s[n - 1])
            w = sectional_curve_criterion(V, E).witness
            assert w.lhs - w.rhs == (3 - n) * deg - 3 - adjoint, (n, E)
            points.append((deg, adjoint))
        (x0, y0), (x1, y1), (x2, y2) = points
        assert (x1 - x0) * (y2 - y0) != (x2 - x0) * (y1 - y0), (n, points)


def test_surface_counts_match_their_det_special_forms():
    # With c1 = (r/2)(K + 3H) and Casnati's c2, h0_powers_surface's generic
    # forms in (c1^2, c1.K, d, chi, r) equal h0_powers_surface_det_special's
    # forms in (d, K^2, K.H, chi, r).  c1^2 = (r^2/4)(9H^2 + 6H.K + K^2) and
    # c1.K = (r/2)(3H.K + K^2), so each side has degree 3 in r (the sym3
    # factor (r+2) times r^2) and is affine in each of H^2, H.K, K^2 and chi:
    # 4 ranks and 2 values of each number decide it.  Every cell passes the
    # Ulrich c1.H and Casnati gates and the integrality of the three counts.
    cells = 0
    for r, h2, hk, k2, chi in product((2, 4, 6, 8), (4, 6), (0, 2), (0, 2), (1, 2)):
        S = surface_model(h2, hk, k2, chi)
        c1 = (Fraction(3 * r, 2), Fraction(r, 2))
        c1sq, c1k, _ = surface_numbers(S, ChernVector.of(S.lattice, r, c1))
        E = ChernVector.of(S.lattice, r, c1, casnati_c2(c1sq, c1k, r, S.degree, chi))
        assert h0_powers_surface(S, E) == h0_powers_surface_det_special(S, r), (r, h2, hk, k2, chi)
        cells += 1
    assert cells == 64


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} checks passed")
