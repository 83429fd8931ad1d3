"""Section counts of bundle powers: closed forms against the Riemann-Roch pipeline."""

import random
from fractions import Fraction

import pytest

from projnorm import ulrich
from projnorm.chern import ChernVector, dual, sym2, sym3, tensor_square, twist
from projnorm.exactalg import (
    DataError,
    ParityError,
    RingMismatchError,
    SurfaceLattice,
    binom,
    divisor,
    numerically_equal,
    ring_degree,
)
from projnorm.normality import classify_p3_hypersurface, classify_p4_hypersurface
from projnorm.rr import (
    HypersurfaceP3,
    HypersurfaceP4,
    Surface,
    chi_surface,
    chi_threefold_hypersurface,
    parity_ok,
    solve_ulrich_chern,
    surface_model,
)
from projnorm.ulrich import (
    _require_count,
    casnati_c2,
    chi_powers_p4_hypersurface,
    h0_powers_p3_hypersurface,
    h0_powers_surface,
    ulrich_c3_p4_hypersurface,
)


def test_p3_closed_form_examples():
    assert h0_powers_p3_hypersurface(3, 2).sym2 == 22
    assert h0_powers_p3_hypersurface(3, 3).sym2 == 45
    # d=2, r=2 sits exactly on the boundary dim S^2 H^0 = binom(5, 2)
    assert h0_powers_p3_hypersurface(2, 2).sym2 == 10
    counts = h0_powers_p3_hypersurface(4, 2)
    assert (counts.tensor2, counts.sym2, counts.sym3) == (60, 40, 120)


def _exact(value, kind):
    assert type(value) is kind, (value, kind)
    return value


def test_integer_closed_forms_match_the_fraction_forms():
    # the reference is the Fraction arithmetic these closed forms used to run;
    # counts, chi and slack3 come out as int, c3 as Fraction
    for d in range(1, 61):
        for r in range(1, 41):
            if not parity_ok(r, d):
                continue
            if d >= 2:
                counts = h0_powers_p3_hypersurface(d, r)
                assert (
                    _exact(counts.tensor2, int),
                    _exact(counts.sym2, int),
                    _exact(counts.sym3, int),
                ) == (
                    Fraction(r * r * d * (d + 1) * (d + 5), 12),
                    Fraction(r * d * (d + 1) * ((d + 5) * r + 6), 24),
                    Fraction(r * d * (d + 1) * (r + 2) * (r + 4 + d * (5 * r + 2)), 72),
                )
                v3 = classify_p3_hypersurface(d, r)[1]
                slack3 = v3.witness.lhs - v3.witness.rhs
                assert _exact(slack3, int) == Fraction(r * d * (d - 1) * (r - 2) * (d * (7 * r + 2) + r + 8), 72)
            data = chi_powers_p4_hypersurface(d, r)
            assert (
                _exact(data.chi_tensor2, int),
                _exact(data.chi_sym2, int),
                _exact(data.c3_tensor2, int),
                _exact(data.c3_sym2, int),
            ) == (
                Fraction(r * r * d * (d + 1) * (d + 3), 8),
                Fraction(r * d * (d + 1) * (d + 3) * (3 * r + 4 - d), 48),
                Fraction(r * r * d, 12) * (d - 1) ** 2 * (r * r - 2) * (2 * r * r * (d - 1) + 3 - d),
                Fraction(r * d, 48) * (d - 1) ** 2 * (r + 2) * (r * r + r - 4) * (r * r * (d - 1) + 2),
            )


def test_require_count_error_text():
    assert _require_count(60, 12, "h0(E(x)E)") == 60 // 12
    with pytest.raises(DataError, match=r"^h0\(S\^2 E\) must be a nonnegative integer, got 7/2$"):
        _require_count(14, 4, "h0(S^2 E)")
    with pytest.raises(DataError, match=r"^h0\(S\^3 E\) must be a nonnegative integer, got -3$"):
        _require_count(-216, 72, "h0(S^3 E)")


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
            E = solve_ulrich_chern(V, r)
            counts = h0_powers_surface(S, E)
            assert counts.tensor2 == chi_surface(S, tensor_square(E))
            assert counts.sym2 == chi_surface(S, sym2(E))
            assert counts.sym3 == chi_surface(S, sym3(E))
            specialized = h0_powers_p3_hypersurface(d, r)
            assert counts == specialized


def test_surface_counts_specialization_guard():
    # c1 = (r/2)(K + 3H) holds for every hypersurface case, so the internal
    # cross-check of the specialized forms runs and must pass
    V = HypersurfaceP3(6)
    E = solve_ulrich_chern(V, 2)
    S = V.surface()
    assert numerically_equal(E.c1, Fraction(2, 2) * (S.canonical + 3 * S.hyperplane))
    h0_powers_surface(S, E)  # must not raise


def test_surface_counts_specialization_guard_catches_a_miscounted_form(monkeypatch):
    V = HypersurfaceP3(4)
    S, E = V.surface(), solve_ulrich_chern(V, 2)
    special = ulrich.h0_powers_surface_det_special

    def miscounted(S, r):
        tensor2, *rest = special(S, r)
        return (tensor2 + 1, *rest)

    monkeypatch.setattr(ulrich, "h0_powers_surface_det_special", miscounted)
    with pytest.raises(DataError, match="disagree with their det E"):
        h0_powers_surface(S, E)


def test_p4_chi_guard_catches_odd_parity_past_the_gate(monkeypatch):
    monkeypatch.setattr(ulrich, "require_even", lambda r, d: None)
    with pytest.raises(DataError, match="Euler characteristics and c3 numbers of the powers must be integers"):
        chi_powers_p4_hypersurface(2, 1)


def test_surface_counts_flag_non_integer():
    # rank 1 with c1.H = 3/2 and Casnati's c2 = 9/8 passes the Ulrich gate
    S = surface_model(1, 0, 0, 1)
    E = ChernVector.of(S.lattice, 1, (Fraction(3, 2), 0), Fraction(9, 8))
    with pytest.raises(DataError, match="got 13/4$"):
        h0_powers_surface(S, E)


def test_surface_counts_take_the_rank_from_the_bundle():
    # rank-2 Ulrich data on a lattice that is no hypersurface's; the counts
    # are Riemann-Roch of the powers of this E, rank 2 throughout
    S = surface_model(9, -9, 9, 1)
    E = ChernVector.of(S.lattice, 2, (2, 0), 11)
    assert chi_surface(S, E) == 18
    counts = h0_powers_surface(S, E)
    assert counts == (104, 76, 200)
    assert counts == (chi_surface(S, tensor_square(E)), chi_surface(S, sym2(E)), chi_surface(S, sym3(E)))
    with pytest.raises(RingMismatchError):
        h0_powers_surface(HypersurfaceP3(4).surface(), E)


def test_surface_counts_gate_on_the_ulrich_conditions():
    S = surface_model(9, -9, 9, 1)
    # c1.H = 27 where an Ulrich bundle of rank 2 has r(3H^2 + H.K)/2 = 18
    with pytest.raises(DataError, match=r"c1\.H = r\(3H\^2 \+ H\.K\)/2 = 18, got 27$"):
        h0_powers_surface(S, ChernVector.of(S.lattice, 2, (3, 0), 38))
    # the Ulrich c1 = 2H with a c2 other than Casnati's 11
    with pytest.raises(DataError, match="Casnati's c2 = 11, got 12$"):
        h0_powers_surface(S, ChernVector.of(S.lattice, 2, (2, 0), 12))


def test_p3_sym2_count_is_linear_in_c1_squared_up_to_the_hodge_envelope():
    # ROADMAP item 13: on a degree-d surface in P^3 (K = (d-4)H) with a class
    # A, A^2 = -2, orthogonal to H, every c1 = (r(d-1)/2)H + bA has the Ulrich
    # c1.H, and Casnati's formula gives c2.  h0(S^2 E) - binom(rd+1, 2) is
    # linear in c1^2, so b = 0 (the Hodge-index maximum, the pinned model)
    # and b = 1 prove for each (d, r): slope 1/2, and zero at
    # c1^2 = r^2 d(d-1)^2/4 - rd(d-1)(r(d-5)+6)/12.  h0(E(x)E) and h0(S^3 E)
    # are linear in c1^2 too, with slopes 1 and (r+2)/2, and at b = 0
    # h0(S^3 E) falls short of binom(rd+2, 3) by
    # slack3 = rd(d-1)(r-2)(d(7r+2)+r+8)/72 >= 0: the 3-count obstructs no
    # rank r >= 2 anywhere in the envelope
    cells = 0
    for d in range(2, 61):
        lat = SurfaceLattice(("H", "A"), ((d, 0), (0, -2)))
        chi = HypersurfaceP3(d).chi_o
        S = Surface(lat, chi, int(chi) - 1, divisor(lat, (d - 4, 0)))
        for r in range(1, 51):
            if not parity_ok(r, d):
                continue
            a, source = r * (d - 1) // 2, binom(r * d + 1, 2)
            c1k = a * d * (d - 4)
            points = []
            for b in (0, 1):
                c1sq = a * a * d - 2 * b * b
                E = ChernVector.of(lat, r, (a, b), casnati_c2(c1sq, c1k, r, d, chi))
                points.append((c1sq, h0_powers_surface(S, E)))
            (top, pinned), (low, counts) = points
            slope = Fraction(pinned.sym2 - counts.sym2, top - low)
            threshold = Fraction(r * r * d * (d - 1) ** 2, 4) - Fraction(r * d * (d - 1) * (r * (d - 5) + 6), 12)
            assert slope == Fraction(1, 2), (d, r)
            assert pinned.sym2 - source + slope * (threshold - top) == 0, (d, r)
            assert Fraction(pinned.tensor2 - counts.tensor2, top - low) == 1, (d, r)
            assert Fraction(pinned.sym3 - counts.sym3, top - low) == Fraction(r + 2, 2), (d, r)
            slack3 = Fraction(r * d * (d - 1) * (r - 2) * (d * (7 * r + 2) + r + 8), 72)
            assert pinned.sym3 - binom(r * d + 2, 3) == -slack3, (d, r)
            assert pinned == h0_powers_p3_hypersurface(d, r), (d, r)
            cells += 1
    assert cells == 2200


def test_casnati_c2_is_closed_under_the_ulrich_dual():
    # E^v(K + 3H) is Ulrich with E: its c1 is r(K + 3H) - c1(E), and its c2,
    # from the twist rule, is Casnati's c2 of that c1.  This needs the
    # Ulrich c1.H: the twist's c2 misses Casnati's by 3(c1.H - r(3H^2 + H.K)/2).
    rng = random.Random(29)
    for _ in range(200):
        S = surface_model(rng.randint(1, 12), rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-3, 5))
        lat, K, H, d = S.lattice, S.canonical, S.hyperplane, S.degree
        r = rng.randint(1, 6)
        kh = ring_degree(K)
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 4))
        ulrich_c1 = divisor(lat, ((Fraction(r * (3 * d + kh), 2) - b * kh) / d, b))

        def c2(c):
            return casnati_c2(ring_degree(c * c), ring_degree(c * K), r, d, S.chi_o)

        for c1, gap in ((ulrich_c1, 0), (ulrich_c1 + H, 3 * d)):
            F = twist(dual(ChernVector.of(lat, r, c1, c2(c1))), K + 3 * H)
            assert numerically_equal(F.c1, r * (K + 3 * H) - c1)
            assert ring_degree(F.c2) - c2(F.c1) == gap


def test_solved_ulrich_data_h0():
    # h^0 = chi = r*d for the solved Chern data, and supplied data that
    # breaks the vanishing constraints differs from the solution
    V = HypersurfaceP3(4)
    assert chi_surface(V.surface(), solve_ulrich_chern(V, 2)) == 8
    W = HypersurfaceP4(5)
    assert chi_threefold_hypersurface(W, solve_ulrich_chern(W, 3)) == 15
    bad = ChernVector.of(V.ring, 2, (3, 0), 13)
    assert solve_ulrich_chern(V, 2) != bad


def test_make_ulrich_validation():
    # only hypersurface models determine their Ulrich Chern data; general
    # surfaces need it supplied, and a fractional r*d is flagged in the counts
    S = surface_model(4, 0, 0, 2)
    with pytest.raises(TypeError):
        solve_ulrich_chern(S, 2)
    with pytest.raises(TypeError):
        solve_ulrich_chern("pencil", 2)
    W = surface_model(Fraction(5, 2), 0, 0, 1)
    # the Ulrich c1.H = 15/4 and Casnati's c2 = 21/16, so the gate passes
    E = ChernVector.of(W.lattice, 1, (Fraction(3, 2), 0), Fraction(21, 16))
    with pytest.raises(DataError, match="must be a nonnegative integer"):
        h0_powers_surface(W, E)
    with pytest.raises(ValueError):
        chi_powers_p4_hypersurface(0, 2)


def test_p4_chi_examples():
    data = chi_powers_p4_hypersurface(4, 2)
    assert data.chi_tensor2 == 70
    assert data.chi_tensor2 > (2 * 4) ** 2  # 70 exceeds dim (H^0)^(x)2 = (rd)^2 = 64
    strong = classify_p4_hypersurface(4, 2)[0]
    assert strong.status_label == "not-strongly-2-normal"
    assert strong.witness == (64, "<", 70)
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
            assert data.c3_tensor2 == ring_degree(t2.c3)
            assert data.c3_sym2 == ring_degree(s2.c3)


def test_p4_parity_enforced():
    with pytest.raises(ParityError):
        chi_powers_p4_hypersurface(4, 3)


@pytest.mark.parametrize("d, r", [(0, 2), (0, 6), (-3, 2)])
def test_p4_closed_forms_reject_degree_below_one(d, r):
    # each cell passes the parity gate, so only the degree guard refuses it
    for closed_form in (ulrich_c3_p4_hypersurface, chi_powers_p4_hypersurface):
        with pytest.raises(ValueError, match="need degree at least 1"):
            closed_form(d, r)


def test_c3_closed_form_values():
    assert ulrich_c3_p4_hypersurface(3, 3) == 6
    assert ulrich_c3_p4_hypersurface(5, 2) == 0
