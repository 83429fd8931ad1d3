"""Section counts of bundle powers: closed forms against the Riemann-Roch pipeline."""

from fractions import Fraction

import pytest

from projnorm.chern import ChernVector, sym2, sym3, tensor_square
from projnorm.exactalg import DataError, ParityError, numerically_equal, ring_degree
from projnorm.rr import HypersurfaceP3, HypersurfaceP4, chi_surface, chi_threefold_hypersurface, solve_ulrich_chern, surface_model
from projnorm.ulrich import (
    chi_powers_p4_hypersurface,
    h0_powers_p3_hypersurface,
    h0_powers_surface,
    make_ulrich,
    ulrich_c3_p4_hypersurface,
)


def test_p3_closed_form_examples():
    assert h0_powers_p3_hypersurface(3, 2).sym2 == 22
    assert h0_powers_p3_hypersurface(3, 3).sym2 == 45
    # d=2, r=2 sits exactly on the boundary dim S^2 H^0 = binom(5, 2)
    assert h0_powers_p3_hypersurface(2, 2).sym2 == 10
    counts = h0_powers_p3_hypersurface(4, 2)
    assert (counts.tensor2, counts.sym2, counts.sym3) == (60, 40, 120)


def test_p3_parity_enforced():
    with pytest.raises(ParityError):
        h0_powers_p3_hypersurface(4, 3)
    with pytest.raises(ValueError):
        h0_powers_p3_hypersurface(1, 2)


def test_surface_counts_match_chi_pipeline():
    # two independent paths: the closed forms in (c1^2, c1.K, d, chi) versus
    # Riemann-Roch applied to the derived-bundle Chern classes of the solver output
    for d in range(2, 9):
        V = HypersurfaceP3(d)
        S = V.surface()
        for r in range(1, 7):
            if (r * (d - 1)) % 2:
                continue
            U = make_ulrich(V, r)
            counts = h0_powers_surface(U)
            E = U.chern
            assert counts.tensor2 == chi_surface(S, tensor_square(E))
            assert counts.sym2 == chi_surface(S, sym2(E))
            assert counts.sym3 == chi_surface(S, sym3(E))
            specialized = h0_powers_p3_hypersurface(d, r)
            assert counts == specialized


def test_surface_counts_specialization_guard():
    # c1 = (r/2)(K + 3H) holds for every hypersurface case, so the internal
    # cross-check of the specialized forms runs and must pass
    V = HypersurfaceP3(6)
    U = make_ulrich(V, 2)
    S = V.surface()
    assert numerically_equal(U.chern.c1, Fraction(2, 2) * (S.canonical + 3 * S.hyperplane))
    h0_powers_surface(U)  # must not raise


def test_surface_counts_flag_non_integer():
    S = surface_model(1, 0, 0, 1)
    E = ChernVector.of(S.lattice, 1, (Fraction(1, 2), 0), 0)
    U = make_ulrich(S, 1, E)
    with pytest.raises(DataError):
        h0_powers_surface(U)


def test_make_ulrich_h0():
    U = make_ulrich(HypersurfaceP3(4), 2)
    assert U.h0 == 8
    V = make_ulrich(HypersurfaceP4(5), 3)
    assert V.h0 == 15
    with pytest.raises(DataError):
        bad = ChernVector.of(HypersurfaceP3(4).surface().lattice, 2, (3, 0), 13)
        make_ulrich(HypersurfaceP3(4), 2, bad)


def test_p4_chi_examples():
    data = chi_powers_p4_hypersurface(4, 2)
    assert data.chi_tensor2 == 70
    assert 70 > (2 * 4) ** 2 - 0 or True  # plain record: 70 exceeds 64
    assert chi_powers_p4_hypersurface(5, 4).chi_sym2 == 220
    # degree 1 kills every c3 through the (d-1)^2 factor
    for r in range(1, 7):
        data = chi_powers_p4_hypersurface(1, r)
        assert data.c3_tensor2 == 0 and data.c3_sym2 == 0


def test_p4_chi_matches_hrr_pipeline():
    for d in range(2, 9):
        V = HypersurfaceP4(d)
        for r in range(1, 7):
            if (r * (d - 1)) % 2:
                continue
            E = solve_ulrich_chern(V, r)
            data = chi_powers_p4_hypersurface(d, r)
            t2 = tensor_square(E)
            s2 = sym2(E)
            assert data.chi_tensor2 == chi_threefold_hypersurface(V, t2)
            assert data.chi_sym2 == chi_threefold_hypersurface(V, s2)
            assert data.c3_tensor2 == ring_degree(V.ring, t2.c3, 3)
            assert data.c3_sym2 == ring_degree(V.ring, s2.c3, 3)


def test_p4_parity_enforced():
    with pytest.raises(ParityError):
        chi_powers_p4_hypersurface(4, 3)


def test_c3_closed_form_values():
    assert ulrich_c3_p4_hypersurface(3, 3) == 6
    assert ulrich_c3_p4_hypersurface(5, 2) == 0


def test_make_ulrich_validation():
    S = surface_model(4, 0, 0, 2)
    with pytest.raises(TypeError):
        make_ulrich(S, 2)  # chern data required on general surfaces
    from projnorm.rr import Curve

    with pytest.raises(TypeError):
        make_ulrich(Curve(2, 3), 2)
    with pytest.raises(TypeError):
        make_ulrich("pencil", 2)
    # fractional r*d is flagged
    W = surface_model(Fraction(5, 2), 0, 0, 1)
    E = ChernVector.of(W.lattice, 1, (1, 0))
    with pytest.raises(DataError):
        make_ulrich(W, 1, E)
    with pytest.raises(ValueError):
        chi_powers_p4_hypersurface(0, 2)
