"""Riemann-Roch values and the Ulrich Chern solver against independent closed forms."""

from fractions import Fraction

import pytest

from projnorm import cli, rr
from projnorm.chern import ChernVector, dual, sym2, tensor_square, twist
from projnorm.exactalg import GradedClass, ParityError, RingMismatchError, SolverError, binom, ring_degree
from projnorm.rr import (
    HypersurfaceP3,
    HypersurfaceP4,
    chi_surface,
    chi_threefold_hypersurface,
    parity_ok,
    require_even,
    solve_ulrich_chern,
    surface_model,
    surface_numbers,
)
from projnorm.ulrich import casnati_c2, ulrich_c3_p4_hypersurface


def test_chi_surface_structure_sheaf():
    V = HypersurfaceP3(4)
    S = V.surface()
    assert S.chi_o == 2
    assert chi_surface(S, ChernVector.of(S.lattice, 1)) == 2
    # chi(O) equals the model value on an arbitrary lattice too
    W = surface_model(5, 1, -2, Fraction(7, 3))
    assert chi_surface(W, ChernVector.of(W.lattice, 1)) == Fraction(7, 3)


def test_chi_surface_ulrich_twist_vanishes():
    V = HypersurfaceP3(4)
    S = V.surface()
    E = solve_ulrich_chern(V, 2)
    for p in (1, 2):
        assert chi_surface(S, twist(E, -p * S.hyperplane)) == 0


def test_chi_threefold_structure_sheaf():
    # independent oracle: chi(O_X) = 1 - h^3(O_X) = 1 - binom(d-1, 4)
    for d in range(1, 11):
        V = HypersurfaceP4(d)
        triv = ChernVector.of(V.ring, 1)
        assert chi_threefold_hypersurface(V, triv) == 1 - binom(d - 1, 4)


def test_chi_threefold_power_values():
    from projnorm.chern import sym2, tensor_square

    V = HypersurfaceP4(4)
    E = solve_ulrich_chern(V, 2)
    assert chi_threefold_hypersurface(V, tensor_square(E)) == 70
    W = HypersurfaceP4(5)
    F = solve_ulrich_chern(W, 4)
    assert chi_threefold_hypersurface(W, sym2(F)) == 220


def test_tangent_classes():
    V = HypersurfaceP4(1)  # a hyperplane: 3-space itself
    T = V.tangent_chern()
    assert ring_degree(T.c1) == 4
    assert ring_degree(T.c2) == 6
    assert ring_degree(T.c3) == 4


def test_hypersurface_p3_lattice():
    S = HypersurfaceP3(5).surface()
    g = S.lattice.gram
    assert g[0][0] == 5 and g[0][1] == 5 and g[1][1] == 5
    assert S.chi_o == 5


def test_models_supply_ring_and_chi():
    V, W = HypersurfaceP3(5), HypersurfaceP4(5)
    assert V.ring is V.surface().lattice
    E, F = solve_ulrich_chern(V, 2), solve_ulrich_chern(W, 2)
    assert V.chi(E) == chi_surface(V.surface(), E) == 10
    assert W.chi(F) == chi_threefold_hypersurface(W, F) == 10


def test_solver_matches_casnati_on_surfaces():
    for d in range(2, 11):
        V = HypersurfaceP3(d)
        S = V.surface()
        for r in range(1, 7):
            if (r * (d - 1)) % 2:
                continue
            E = solve_ulrich_chern(V, r)
            c1sq = ring_degree(E.c1 * E.c1)
            c1k = ring_degree(E.c1 * S.canonical)
            assert ring_degree(E.c2) == casnati_c2(c1sq, c1k, r, d, S.chi_o)
            assert chi_surface(S, E) == r * d


def test_solver_matches_c3_closed_form_on_threefolds():
    for d in range(2, 9):
        V = HypersurfaceP4(d)
        for r in range(1, 7):
            if (r * (d - 1)) % 2:
                continue
            E = solve_ulrich_chern(V, r)
            assert ring_degree(E.c3) == ulrich_c3_p4_hypersurface(d, r)
            assert chi_threefold_hypersurface(V, E) == r * d


def test_solver_output_is_its_own_ulrich_dual():
    # E^v(K + (n+1)H) = E^v((d-1)H) is Ulrich with E (Eisenbud, Schreyer and
    # Weyman 2003), and the solver's Chern data is the unique solution
    cells = 0
    for model in (HypersurfaceP3, HypersurfaceP4):
        for d in range(2, 12):
            V = model(d)
            for r in range(1, 8):
                if parity_ok(r, d):
                    E = solve_ulrich_chern(V, r)
                    assert twist(dual(E), d - 1) == E, (model, d, r)
                    cells += 1
    assert cells == 100
    # the fixed point is exact: the neighbouring twists move E
    for model in (HypersurfaceP3, HypersurfaceP4):
        E = solve_ulrich_chern(model(5), 2)
        assert twist(dual(E), 3) != E
        assert twist(dual(E), 5) != E


def test_solver_specific_values():
    E = solve_ulrich_chern(HypersurfaceP3(4), 2)
    assert ring_degree(E.c2) == 14
    F = solve_ulrich_chern(HypersurfaceP4(3), 3)
    assert ring_degree(F.c3) == 6
    # the (r-2) factor forces c3 = 0 in rank 2, every degree
    for d in range(2, 8):
        if (2 * (d - 1)) % 2 == 0:
            G = solve_ulrich_chern(HypersurfaceP4(d), 2)
            assert G.c3.is_zero


def test_solver_parity_errors():
    with pytest.raises(ParityError):
        solve_ulrich_chern(HypersurfaceP3(4), 3)
    with pytest.raises(ParityError):
        solve_ulrich_chern(HypersurfaceP4(6), 5)


def test_require_even_raises_exactly_where_parity_fails():
    for d in range(1, 8):
        for r in range(1, 6):
            assert parity_ok(r, d) == (r * (d - 1) % 2 == 0)
            if parity_ok(r, d):
                require_even(r, d)
            else:
                with pytest.raises(ParityError):
                    require_even(r, d)


def test_solver_rejects_general_surfaces():
    S = surface_model(4, 0, 0, 2)
    with pytest.raises(TypeError):
        solve_ulrich_chern(S, 2)


def test_ring_mismatch_guards():
    V = HypersurfaceP4(3)
    W = HypersurfaceP4(4)
    E = ChernVector.of(V.ring, 1)
    with pytest.raises(Exception):
        chi_threefold_hypersurface(W, E)
    S = HypersurfaceP3(3).surface()
    with pytest.raises(Exception):
        chi_surface(S, E)


def test_surface_numbers():
    S = surface_model(5, 1, -2, 3)
    E = ChernVector.of(S.lattice, 2, (3, 1), Fraction(7, 2))
    # c1 = 3H + K: c1^2 = 9*5 + 6*1 - 2, c1.K = 3*1 - 2
    numbers = surface_numbers(S, E)
    assert numbers == (49, 1, Fraction(7, 2))
    assert all(type(n) is Fraction for n in numbers)
    assert chi_surface(S, E) == 2 * 3 + Fraction(49 - 1, 2) - Fraction(7, 2)
    with pytest.raises(RingMismatchError, match="surface"):
        surface_numbers(S, ChernVector.of(HypersurfaceP3(5).ring, 1))


def test_p4_solution_restricts_to_the_p3_solution():
    # an Ulrich bundle on X in P^4 restricts to one on a hyperplane section S
    # in P^3 (Eisenbud-Schreyer-Weyman 2003), and the two solvers agree
    # exactly: c1.H^2 and c2.H on X are c1.H and c2 on S, and
    # chi(F|_S) = chi(F) - chi(F(-1)) for F = E(x)E and S^2 E
    cells = 0
    for d in range(2, 21):
        V, X = HypersurfaceP3(d), HypersurfaceP4(d)
        S, H = V.surface(), GradedClass.of(X.ring, 1, 1)
        for r in range(1, 13):
            if not parity_ok(r, d):
                continue
            E3, E4 = solve_ulrich_chern(V, r), solve_ulrich_chern(X, r)
            assert ring_degree(E4.c1 * H * H) == ring_degree(E3.c1), (d, r)
            assert ring_degree(E4.c2 * H) == ring_degree(E3.c2), (d, r)
            for F in (tensor_square, sym2):
                restricted = X.chi(F(E4)) - X.chi(twist(F(E4), -H))
                assert chi_surface(S, F(E3)) == restricted, (d, r, F.__name__)
            cells += 1
    assert cells == 168


def test_tangent_classes_from_ring_product():
    # independent derivation: c(T) = (1+H)^5 / (1+dH), expanded in the ring
    from projnorm.chern import graded_product
    from projnorm.exactalg import divisor, unit

    for d in range(1, 9):
        V = HypersurfaceP4(d)
        ring = V.ring
        h = divisor(ring, 1)
        ambient = (unit(ring), 5 * h, 10 * (h * h), 10 * (h * h * h))
        inverse = (unit(ring), -d * h, (d * d) * (h * h), -(d**3) * (h * h * h))
        T = V.tangent_chern()
        assert graded_product(ambient, inverse) == (unit(ring), T.c1, T.c2, T.c3)


def test_surface_chi_structure_sheaf_from_monomial_count():
    # independent count: q = 0 and p_g = h^0(O(d-4)) = binom(d-1, 3)
    for d in range(1, 11):
        S = HypersurfaceP3(d).surface()
        assert S.chi_o == 1 + binom(d - 1, 3) and type(S.chi_o) is int
        assert S.geometric_genus == binom(d - 1, 3)


def test_model_validation_errors():
    from projnorm.normality import sectional_curve_criterion

    with pytest.raises(ValueError):
        HypersurfaceP3(0)
    with pytest.raises(ValueError):
        HypersurfaceP4(0)
    with pytest.raises(TypeError):
        # a surface criterion takes the Surface, not the hypersurface model
        sectional_curve_criterion(HypersurfaceP3(2), ChernVector.of(HypersurfaceP3(2).ring, 1))
    with pytest.raises(ValueError):
        solve_ulrich_chern(HypersurfaceP3(3), 0)
    with pytest.raises(ValueError, match="rank"):
        solve_ulrich_chern("pencil", 0)  # the rank is checked before the model
    E = ChernVector.of(HypersurfaceP4(2).ring, 1)
    from projnorm.exactalg import RingMismatchError

    with pytest.raises(RingMismatchError):
        chi_surface(HypersurfaceP3(2).surface(), E)


@pytest.mark.parametrize(
    "model, n, chi_name",
    [(HypersurfaceP3(5), 2, "chi_surface"), (HypersurfaceP4(5), 3, "chi_threefold_hypersurface")],
)
def test_solver_guards_raise(model, n, chi_name, monkeypatch):
    rank = 2
    true_chi = getattr(rr, chi_name)
    pinned = Fraction(rank * (model.degree - 1), 2)

    def twist_of(E):
        # E = F(-p) with c1(F) = pinned * H, so the H-coefficient of c1(E) gives
        # p; c1(E) is a multiple of H and H^n = d, so that coefficient is c1.H^(n-1) / d
        return (pinned - ring_degree(E.c1) / model.degree) / rank

    def blind(V, E):
        # the top Chern class never reaches chi, so the last unknown drops out
        return true_chi(V, E._replace(**{f"c{n}": GradedClass(E.ring)}))

    def shifted(V, E):
        return true_chi(V, E) + (1 if twist_of(E) == n else 0)

    assert solve_ulrich_chern(model, rank).rank == rank
    monkeypatch.setattr(rr, chi_name, blind)
    with pytest.raises(SolverError, match="singular"):
        solve_ulrich_chern(model, rank)
    monkeypatch.setattr(rr, chi_name, shifted)
    with pytest.raises(SolverError, match="inconsistent"):
        solve_ulrich_chern(model, rank)


def test_p3_surface_model_is_built_once_per_hypersurface(monkeypatch):
    built = []
    build = rr.surface_model

    def counted(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(rr, "surface_model", counted)
    solve_ulrich_chern(HypersurfaceP3(5), 2)
    assert len(built) == 1
    built.clear()
    cli.check_surface_hyp(7, 2)
    assert len(built) == 1


def test_p4_ring_is_built_once_per_hypersurface():
    V = HypersurfaceP4(5)
    assert V.ring is V.ring
    assert solve_ulrich_chern(V, 3).ring is V.ring
    # the ring is derived data: equality, hashing and repr see the degree only
    assert HypersurfaceP4(5) == HypersurfaceP4(5) != HypersurfaceP4(6)
    assert len({HypersurfaceP4(5), HypersurfaceP4(5)}) == 1
    assert repr(HypersurfaceP4(5)) == "HypersurfaceP4(degree=5)"


def test_p3_surface_is_derived_data():
    V = HypersurfaceP3(4)
    assert V.surface() is V.surface()
    # the surface is derived data: equality, hashing and repr see the degree only
    assert HypersurfaceP3(4) == HypersurfaceP3(4) != HypersurfaceP3(5)
    assert HypersurfaceP3(4) != HypersurfaceP4(4)
    assert len({HypersurfaceP3(4), HypersurfaceP3(4)}) == 1
    assert repr(HypersurfaceP3(4)) == "HypersurfaceP3(degree=4)"


def test_p4_solver_builds_one_hypersurface(monkeypatch):
    built, tangents = [], []
    init, tangent_chern = HypersurfaceP4.__init__, HypersurfaceP4.tangent_chern

    def counted(self, degree):
        built.append(degree)
        init(self, degree)

    def counted_tangent(self):
        tangents.append(self.degree)
        return tangent_chern(self)

    monkeypatch.setattr(HypersurfaceP4, "__init__", counted)
    monkeypatch.setattr(HypersurfaceP4, "tangent_chern", counted_tangent)
    solve_ulrich_chern(HypersurfaceP4(5), 3)
    # Riemann-Roch runs on the given model, never on a fresh copy of it,
    # and its 9 evaluations share the one Todd class built with the model
    assert built == [5]
    assert tangents == [5]


def _scalars(cls) -> tuple:
    """The scalars a class holds: none for zero, each coefficient of a surface divisor."""
    if cls.is_zero:
        return ()
    return tuple(cls.value) if isinstance(cls.value, tuple) else (cls.value,)


def _ulrich_chern(V, d, r) -> ChernVector:
    """The Chern data the solve must return, from closed forms: Casnati's c2
    on surfaces (c1 = aH, H^2 = d, K = (d-4)H); on threefolds
    c2 = r(d-1)(3r(d-1) - 2d + 4)/24 H^2 and c3 from its closed form."""
    a = Fraction(r * (d - 1), 2)
    if isinstance(V, HypersurfaceP3):
        c2 = casnati_c2(a * a * d, a * d * (d - 4), r, d, V.surface().chi_o)
        return ChernVector.of(V.surface().lattice, r, (a, 0), c2)
    c2 = Fraction(r * (d - 1) * (3 * r * (d - 1) - 2 * d + 4), 24)
    return ChernVector.of(V.ring, r, a, c2, ulrich_c3_p4_hypersurface(d, r) / d)


@pytest.mark.parametrize(
    "model, chi_name", [(HypersurfaceP3, "chi_surface"), (HypersurfaceP4, "chi_threefold_hypersurface")]
)
def test_solver_evaluates_integer_points_and_returns_fractions(model, chi_name, monkeypatch):
    true_chi, true_twist = getattr(rr, chi_name), rr.twist
    twisted, evaluated = [], []

    def recorded_twist(E, L):
        twisted.append((E, L))
        return true_twist(E, L)

    def recorded_chi(V, E):
        evaluated.append(E)
        return true_chi(V, E)

    monkeypatch.setattr(rr, "twist", recorded_twist)
    monkeypatch.setattr(rr, chi_name, recorded_chi)
    for d in range(1, 12):
        V = model(d)
        for r in range(1, 7):
            if not parity_ok(r, d):
                continue
            twisted.clear()
            evaluated.clear()
            E = solve_ulrich_chern(V, r)
            n = E.ring.dim
            assert len(twisted) == len(evaluated) == n * n
            # the point bundles and the twisting classes hold ints only
            for F, L in twisted:
                assert all(type(x) is int for c in (F.c1, F.c2, F.c3, L) for x in _scalars(c))
            # so does every bundle chi sees, except that on a surface the
            # pairings c1.L and L^2 in c2 go through the rational Gram matrix
            for F in evaluated:
                assert all(type(x) is int for c in (F.c1, F.c3) for x in _scalars(c))
                assert all(type(x) is int if n == 3 else x.denominator == 1 for x in _scalars(F.c2))
            # the pinned c1 stays an int class; c2 and c3 are Cramer quotients,
            # so Fractions; all are the values of the closed forms
            assert all(type(x) is int for x in _scalars(E.c1))
            assert all(type(x) is Fraction for c in (E.c2, E.c3) for x in _scalars(c))
            assert E == _ulrich_chern(V, d, r)
