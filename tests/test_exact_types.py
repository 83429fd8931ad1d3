"""Class values stay as given or computed; what leaves the ring is ``Fraction``.

``GradedClass.of`` keeps an ``int`` or ``Fraction`` value as given, and
the Chern character, Riemann-Roch and the intersection pairing keep
values that are integral by construction as ``int``.  Four things are
pinned here.  First, the class values: ``GradedClass.of`` keeps the exact
type of each scalar and refuses every other one, and every class the
oracle constructions build holds only ``int`` and ``Fraction`` (the
solver's classes are swept in ``test_fraction_budget.py``).  Second, the boundary: every Euler characteristic and
degree is a ``Fraction`` also on ``int``-valued data, because a report
prints the two differently (JSON writes ``5`` for an int and ``"5/1"``
for a rational).  Third, the values: the plain ``GradedClass`` formulas
are written out below as oracles and compared with these functions over
drawn ``int`` and ``Fraction`` data.  Fourth, the report cell: a verdict's
witness sides stay as computed (``int`` for counts and curve rules) and
every cell printed from a witness is a ``Fraction``, so a scan that only
reads ``fired`` builds no ``Fraction`` at all.
"""

from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projnorm import chern, cli
from projnorm.chern import ChernVector, bundle_from_roots, chern_character, twist
from projnorm.exactalg import (
    DivisorVector,
    GradedClass,
    RankOneRing,
    SurfaceLattice,
    ring_degree,
    splitting_oracle,
    unit,
)
from projnorm.normality import CurveCase, curve_verdicts
from projnorm.rr import (
    HypersurfaceP3,
    HypersurfaceP4,
    chi_surface,
    chi_threefold_hypersurface,
    solve_ulrich_chern,
)
from projnorm.verify import _ORACLES


_QUINTIC = HypersurfaceP4(5)  # td_1 = 0 here, since c1(T) = 5 - d


def _is_fraction(value) -> bool:
    return type(value) is Fraction


# ---------------------------------------------------------------------------
# the class values: as given or computed, ints and Fractions only


class _Coefficient(IntEnum):
    TWO = 2


_exact_scalars = st.one_of(st.integers(-20, 20), st.fractions(min_value=-20, max_value=20, max_denominator=9))


@st.composite
def _rings(draw):
    """A rank-one ring of dimension 1..3 or a one- or two-generator lattice."""
    h = draw(st.fractions(min_value=-9, max_value=9, max_denominator=4))
    if draw(st.booleans()):
        return RankOneRing(draw(st.integers(1, 3)), h)
    if draw(st.booleans()):
        return SurfaceLattice(("H",), ((h,),))
    return SurfaceLattice(("H", "K"), ((h, 1), (1, draw(_exact_scalars))))


def _entries(cls) -> tuple:
    """The scalars a class holds: none for zero, each coefficient of a surface divisor."""
    if cls.is_zero:
        return ()
    return tuple(cls.value) if type(cls.value) is DivisorVector else (cls.value,)


@settings(max_examples=300, deadline=None)
@given(_rings(), st.data())
def test_of_keeps_int_and_fraction_values_and_refuses_other_scalars(ring, data):
    codim = data.draw(st.integers(0, ring.dim))
    n = len(ring.basis) if type(ring) is SurfaceLattice and codim == 1 else 0
    value = tuple(data.draw(st.lists(_exact_scalars, min_size=n, max_size=n))) if n else data.draw(_exact_scalars)
    given_ = value if n else (value,)
    held = _entries(GradedClass.of(ring, codim, value))
    if any(given_):
        assert held == given_ and [type(x) for x in held] == [type(x) for x in given_]
    else:
        assert held == ()
    # an IntEnum member becomes an int, as a scalar, a shorthand divisor or a vector entry
    for enum_value in [_Coefficient.TWO] + ([(_Coefficient.TWO,) * n] if n else []):
        held = _entries(GradedClass.of(ring, codim, enum_value))
        assert held[0] == 2 and all(type(x) is int for x in held)
    for bad in (True, False, 1.5, Decimal("2"), "2"):
        with pytest.raises(TypeError):
            GradedClass.of(ring, codim, bad)
        if n:
            with pytest.raises(TypeError):
                GradedClass.of(ring, codim, (bad,) * n)


def _assert_exact_bundle(E):
    """Every class value of E is exactly an int or a Fraction, and every
    degree of its classes is a Fraction."""
    for c in (E.c1, E.c2, E.c3):
        assert all(type(x) is int or type(x) is Fraction for x in _entries(c)), E
        if c.codim is not None:
            assert type(ring_degree(c)) is Fraction, c


def test_splitting_oracle_classes_hold_ints_or_fractions(monkeypatch):
    # the five splitting-oracle constructions, on both sides of each trial;
    # the solver's classes on both models are checked in test_fraction_budget.py
    seen = []
    true_roots = chern.bundle_from_roots

    def recorded_roots(ring, roots):
        seen.append(true_roots(ring, roots))
        return seen[-1]

    monkeypatch.setattr(chern, "bundle_from_roots", recorded_roots)
    for _, construction, form in _ORACLES:

        def recorded_form(*args, form=form):
            seen.append(form(*args))
            return seen[-1]

        for rank in range(1, 5):
            assert splitting_oracle(construction, rank, recorded_form, trials=3, seed=rank)
    assert len(seen) == 5 * 4 * 3 * 3
    for E in seen:
        _assert_exact_bundle(E)


# ---------------------------------------------------------------------------
# the boundary: Fraction out of int-valued data


def test_chi_and_degrees_of_int_classes_are_fractions():
    X = _QUINTIC
    S = HypersurfaceP3(4).surface()
    for ring, chi, E in (
        (X.ring, X.chi, bundle_from_roots(X.ring, [1, -2, 3])),
        (X.ring, X.chi, ChernVector.of(X.ring, 2, 2, 1, 0)),
        (X.ring, X.chi, twist(bundle_from_roots(X.ring, [2, 2]), GradedClass(X.ring, 1, -1))),
        (S.lattice, lambda E: chi_surface(S, E), ChernVector.of(S.lattice, 2, (3, 0), 4)),
        (S.lattice, lambda E: chi_surface(S, E), ChernVector(
            2, GradedClass(S.lattice, 1, DivisorVector((3, 0))), GradedClass(S.lattice, 2, 4), GradedClass(S.lattice)
        )),
    ):
        assert _is_fraction(chi(E))
        for k, c in enumerate((E.c1, E.c2, E.c3), 1):
            if k <= ring.dim:
                assert _is_fraction(ring_degree(c))
    assert type(bundle_from_roots(X.ring, [1, -2, 3]).c2.value) is int


def test_a_total_of_zero_is_a_fraction():
    X = _QUINTIC
    S = HypersurfaceP3(4).surface()
    for V, E in ((X, bundle_from_roots(X.ring, [])), (HypersurfaceP3(4), ChernVector.of(S.lattice, 0))):
        value = V.chi(E)
        assert value == 0 and _is_fraction(value)
        assert _is_fraction(ring_degree(E.c2))
    # an Ulrich twist: chi(E(-1)) vanishes
    E = solve_ulrich_chern(X, 2)
    value = chi_threefold_hypersurface(X, twist(E, -1))
    assert value == 0 and _is_fraction(value)


# ---------------------------------------------------------------------------
# the report cell: witness sides become Fraction there and only there


def _check_rows(argv):
    report, code = cli.dispatch(cli.build_parser(argv).parse_args(argv))
    assert code == 0
    return report.rows


_SURFACE_ARGV = (
    ["--h2", "4", "--hk", "0", "--k2", "0", "--chi", "2", "--r", "2", "--c1", "3", "--c2", "14"],
    ["--h2", "4", "--hk", "0", "--k2", "0", "--chi", "2", "--r", "2", "--c1", "3", "--c2", "14", "--h", "9"],
    ["--h2", "3", "--hk", "-3", "--k2", "3", "--chi", "1", "--r", "2", "--c1", "2,-1", "--c2", "4"],
    ["--h2", "9", "--hk", "-9", "--k2", "9", "--chi", "1", "--r", "2", "--c1", "3/2,1/2", "--c2", "5/2"],
    ["--h2", "5/2", "--hk", "1/3", "--k2", "-2", "--chi", "1", "--r", "3", "--c1", "1/2", "--c2=-7/4", "--h", "8"],
)


def _check_argvs():
    for d in range(2, 7):
        for r in range(1, 5):
            if r * (d - 1) % 2 == 0:
                yield ["check", "surface-hyp", "--d", str(d), "--r", str(r)]
                yield ["check", "threefold-hyp", "--d", str(d), "--r", str(r)]
    for g in range(0, 7):
        for d in range(1, 9):
            yield ["check", "curve", "--g", str(g), "--d", str(d), "--p", "2", "--p", "3", "--general",
                   *(["--cliff", str((g - 1) // 2)] if g >= 1 else [])]
    for argv in _SURFACE_ARGV:
        yield ["check", "surface", *argv]
    for name in cli.PRESETS:
        yield ["check", "preset", name, "--r", "2"]


def test_every_witness_cell_of_a_check_is_a_fraction():
    lhs, relation, rhs = (cli._CHECK_COLUMNS.index(name) for name in ("lhs", "relation", "rhs"))
    witnesses = 0
    for argv in _check_argvs():
        for (kind, name), values in _check_rows(argv):
            if kind == "verdict" and values[relation] is not None:
                assert _is_fraction(values[lhs]) and _is_fraction(values[rhs]), (argv, name)
                witnesses += 1
            elif kind == "verdict":
                assert values[lhs] is None and values[rhs] is None, (argv, name)
            elif name == "slack3":
                assert _is_fraction(values[cli._CHECK_COLUMNS.index("value")]), argv
    assert witnesses == 547


def test_curve_witness_sides_stay_int_and_print_as_fractions():
    # every curve rule compares integers: the verdict keeps them, the cell converts
    for g in range(0, 7):
        for d in range(1, 9):
            case = CurveCase(g, d, syzygy_levels=(2, 3), clifford=0, general=True)
            for v in curve_verdicts(case):
                if v.witness is None:
                    continue
                assert type(v.witness.lhs) is int and type(v.witness.rhs) is int, v
                cells = cli._verdict_row(v)[1]
                assert (cells[2], cells[4]) == (v.witness.lhs, v.witness.rhs)
                assert _is_fraction(cells[2]) and _is_fraction(cells[4])


def test_every_count_cell_of_a_hypersurface_scan_is_a_fraction():
    for scan, counts in (
        (cli.scan_p3, ("dim_sym2_h0", "h0_sym2", "slack3")),
        (cli.scan_p4, ("dim_tensor2_h0", "chi_tensor2", "dim_sym2_h0", "chi_sym2")),
    ):
        report = scan(9, 6)
        index = [report.columns.index(name) for name in counts]
        valid = [row.values for row in report.rows if row.values[0] == "ok"]
        assert valid and len(valid) < len(report.rows)
        for values in valid:
            assert all(_is_fraction(values[i]) for i in index), values
        for row in report.rows:
            if row.values[0] == "odd":
                assert all(row.values[i] is None for i in index)


def _fractions_built(monkeypatch, build):
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    report = build()
    monkeypatch.undo()
    return report, len(built)


def test_fractions_built_per_scan_cell(monkeypatch):
    # the curve scan reads one fired flag per rule and builds no Fraction
    report, built = _fractions_built(monkeypatch, lambda: cli.scan_curve(5, 4))
    assert len(report.rows) == 24 and built == 0
    # p3: two 2-count cells and one slack3 per parity-valid cell
    report, built = _fractions_built(monkeypatch, lambda: cli.scan_p3(7, 5))
    valid = sum(row.values[0] == "ok" for row in report.rows)
    assert valid == 21 and built == 3 * valid
    # p4: four count cells; the c3 values chi_powers_p4_hypersurface returns are ints
    report, built = _fractions_built(monkeypatch, lambda: cli.scan_p4(7, 5))
    valid = sum(row.values[0] == "ok" for row in report.rows)
    assert valid == 14 and built == 4 * valid


# ---------------------------------------------------------------------------
# the values: the GradedClass formulas as oracles


def _oracle_chern_character(E):
    ring = E.ring
    c1sq = E.c1 * E.c1
    pieces = [
        unit(ring, E.rank),
        E.c1,
        Fraction(1, 2) * (c1sq - 2 * E.c2),
        Fraction(1, 6) * (c1sq * E.c1 - 3 * (E.c1 * E.c2) + 3 * E.c3),
    ]
    return tuple(pieces[: ring.dim + 1])


def _oracle_todd(X):
    """td(X) from c(T_X) with the classical coefficients 1/2, 1/12 and 1/24."""
    T = X.tangent_chern()
    return (
        unit(X.ring),
        Fraction(1, 2) * T.c1,
        Fraction(1, 12) * (T.c1 * T.c1 + T.c2),
        Fraction(1, 24) * (T.c1 * T.c2),
    )


def _oracle_chi_threefold(X, E):
    ch, td = _oracle_chern_character(E), _oracle_todd(X)
    total = GradedClass(X.ring)
    for i in range(4):
        total = total + ch[i] * td[3 - i]
    return ring_degree(total)


def _oracle_pair(lattice, u, v):
    total = Fraction(0)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            total += ui * lattice.gram[i][j] * vj
    return total


_scalars = st.one_of(
    st.just(0),
    st.integers(-60, 60),
    st.fractions(min_value=-60, max_value=60, max_denominator=12),
)
_degrees = st.integers(1, 12)


def _class(ring, codim, value):
    # built as given, so an int stays an int, as on the solver's points
    if codim > ring.dim or not value:
        return GradedClass(ring)
    return GradedClass(ring, codim, value)


@st.composite
def _bundles(draw, models=(HypersurfaceP3, HypersurfaceP4)):
    """A bundle of rank 0..12 with int or Fraction classes, zero ones included,
    on the P^3 lattice or the P^4 ring of a degree-1..12 hypersurface."""
    V = draw(st.sampled_from(models))(draw(_degrees))
    ring = V.ring
    c1 = DivisorVector((draw(_scalars), draw(_scalars))) if ring.dim == 2 else draw(_scalars)
    c2, c3 = draw(_scalars), draw(_scalars)
    return V, ChernVector(draw(st.integers(0, 12)), _class(ring, 1, c1), _class(ring, 2, c2), _class(ring, 3, c3))


@settings(max_examples=300, deadline=None)
@given(_bundles())
def test_chern_character_matches_the_graded_class_formula(case):
    _, E = case
    ch = chern_character(E)
    assert ch == _oracle_chern_character(E)
    assert ch[0].is_zero if E.rank == 0 else type(ch[0].value) is int
    # ch_2 and ch_3 are ints exactly where an int numerator divides by 2 and 6
    c1sq = E.c1 * E.c1
    numerators = (c1sq - 2 * E.c2, c1sq * E.c1 - 3 * (E.c1 * E.c2) + 3 * E.c3)
    for piece, numerator, n in zip(ch[2:], numerators, (2, 6)):
        if not piece.is_zero:
            exact = type(numerator.value) is int and numerator.value % n == 0
            assert type(piece.value) is (int if exact else Fraction)


@settings(max_examples=300, deadline=None)
@given(_bundles(models=(HypersurfaceP4,)))
@example((_QUINTIC, bundle_from_roots(_QUINTIC.ring, [3, -1, 4, 1])))
@example((_QUINTIC, ChernVector.of(_QUINTIC.ring, 2, Fraction(1, 2), Fraction(-3, 4), 5)))
def test_threefold_chi_matches_the_graded_class_formula(case):
    X, E = case
    value = chi_threefold_hypersurface(X, E)
    assert value == _oracle_chi_threefold(X, E)
    assert _is_fraction(value)


def test_todd_pieces_are_24_times_the_todd_class():
    for d in range(1, 13):
        X = HypersurfaceP4(d)
        assert type(X.ring.h_degree) is int and X.ring.h_degree == d
        assert X.todd == tuple(24 * piece for piece in _oracle_todd(X))
        assert all(type(piece.value) is int for piece in X.todd if not piece.is_zero)
    assert _QUINTIC.todd[1].is_zero


@settings(max_examples=300, deadline=None)
@given(
    _degrees,
    st.booleans(),
    st.lists(_scalars, min_size=2, max_size=2),
    st.lists(_scalars, min_size=2, max_size=2),
)
def test_pair_matches_the_product_in_gram_order(d, rational_gram, u, v):
    lattice = HypersurfaceP3(d).ring
    assert {type(x) for row in lattice.gram for x in row} == {int}
    if rational_gram:
        lattice = SurfaceLattice(lattice.basis, [[Fraction(x) for x in row] for row in lattice.gram])
    value = lattice.pair(DivisorVector(u), DivisorVector(v))
    assert value == _oracle_pair(lattice, u, v)
    # an int exactly when every coefficient and Gram entry it meets is an int
    # (a zero coefficient is skipped), so always on int vectors and an int Gram
    met = [(ui, vj, lattice.gram[i][j]) for i, ui in enumerate(u) if ui for j, vj in enumerate(v) if vj]
    ints = all(type(x) is int for term in met for x in term)
    assert type(value) is (int if ints else Fraction)
    if not rational_gram and all(type(x) is int for x in u + v):
        assert type(value) is int
