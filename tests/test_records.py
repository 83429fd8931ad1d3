"""Constructor checks and value semantics of the checked records.

The rings, ``Surface``, ``CurveCase`` and ``ScanReport`` are
``typing.NamedTuple``s whose constructor, ``_make`` and ``_replace`` all
run one check and coercion step; the hypersurface models are slotted
values named by their degree.  Every guard must raise on each of the
three paths, every coercion must hold on each of them, and no field can
be assigned.
"""

from enum import IntEnum
from fractions import Fraction

import pytest

from projnorm.chern import ChernVector
from projnorm.exactalg import GradedClass, RankOneRing, RingMismatchError, SurfaceLattice, divisor
from projnorm.normality import CurveCase
from projnorm.report import Row, ScanReport
from projnorm.rr import HypersurfaceP3, HypersurfaceP4, Surface, chi_surface, surface_model

LATTICE = SurfaceLattice(("H", "K"), ((4, 0), (0, 0)))
SURFACE = surface_model(4, 0, 0, 2)
#: a lattice with H.K != 0, so a canonical class read as zero changes chi
TILTED = surface_model(4, -8, 16, 1)
CURVE = CurveCase(genus=5, degree=8, syzygy_levels=(2, 3), clifford=1)
REPORT = ScanReport("t", ("a",), ("b", "c"), ("p", "q"), (Row((1,), (2, 3)),))


def _paths(good, **change):
    """Build ``good`` with the fields in ``change`` replaced, once through
    the constructor, once through ``_make`` and once through ``_replace``."""
    cls = type(good)
    fields = [change.get(name, value) for name, value in zip(cls._fields, good)]
    return (
        lambda: cls(*fields),
        lambda: cls._make(fields),
        lambda: good._replace(**change),
    )


#: (valid record, fields that break a guard, the message the guard raises)
GUARDS = [
    (RankOneRing(2, 4), {"dim": 0}, "dimensions 1..3"),
    (RankOneRing(2, 4), {"dim": 4}, "dimensions 1..3"),
    (LATTICE, {"basis": ()}, "at least one generator"),
    (LATTICE, {"gram": ((4, 0), (0,))}, "shape does not match"),
    (LATTICE, {"gram": ((4, 0),)}, "shape does not match"),
    (LATTICE, {"gram": ((4, 1), (0, 0))}, "symmetric"),
    (SURFACE, {"canonical": divisor(SurfaceLattice(("H", "K"), ((1, 0), (0, 0))), (0, 1))}, "surface lattice"),
    (TILTED, {"canonical": GradedClass.of(TILTED.lattice, 2, 5)}, "canonical class must be a divisor"),
    (CURVE, {"genus": -1}, "genus >= 0"),
    (CURVE, {"degree": 0}, "degree >= 1"),
    (CURVE, {"rank": 0}, "rank >= 1"),
    (CURVE, {"syzygy_levels": (1,)}, "start at p = 2"),
    (CURVE, {"syzygy_levels": (2, 3, 2)}, "p = 2 is given more than once"),
    (CURVE, {"clifford": 3}, "Clifford index must lie in 0..2"),
    (CURVE, {"clifford": -1}, "Clifford index"),
    (REPORT, {"provenance": ("p",)}, "one provenance tag"),
    (REPORT, {"rows": (Row((1, 2), (2, 3)),)}, "row shape"),
    (REPORT, {"rows": (Row((1,), (2,)),)}, "row shape"),
    (REPORT, {"params": ("a", "a"), "rows": ()}, "repeated parameter"),
    (REPORT, {"columns": ("b", "b")}, "repeated column"),
]


@pytest.mark.parametrize("path", range(3), ids=["constructor", "_make", "_replace"])
@pytest.mark.parametrize(
    "good, change, message", GUARDS, ids=[f"{type(g).__name__}-{m}" for g, _, m in GUARDS]
)
def test_every_guard_raises_on_every_path(good, change, message, path):
    error = RingMismatchError if message == "surface lattice" else ValueError
    with pytest.raises(error, match=message):
        _paths(good, **change)[path]()


class _Degree(IntEnum):
    FIVE = 5


@pytest.mark.parametrize("path", range(3), ids=["constructor", "_make", "_replace"])
def test_coercions_hold_on_every_path(path):
    # a ring degree is kept as given: an int stays an int, a Fraction a Fraction
    for degree in (5, Fraction(5), Fraction(5, 2)):
        ring = _paths(RankOneRing(2, Fraction(4)), h_degree=degree)[path]()
        assert ring == (2, degree) and type(ring.h_degree) is type(degree)
    ring = _paths(RankOneRing(2, Fraction(4)), h_degree=_Degree.FIVE)[path]()
    assert ring == (2, 5) and type(ring.h_degree) is int
    # so is each Gram entry, in a tuple of tuples
    lattice = _paths(LATTICE, basis=["H", "K"], gram=[[1, Fraction(2)], [Fraction(2), Fraction(3, 2)]])[path]()
    assert lattice.basis == ("H", "K") and lattice.gram == ((1, 2), (2, Fraction(3, 2)))
    assert type(lattice.gram) is tuple and all(type(row) is tuple for row in lattice.gram)
    assert [[type(x) for x in row] for row in lattice.gram] == [[int, Fraction], [Fraction, Fraction]]
    lattice = _paths(LATTICE, gram=[[_Degree.FIVE, 0], [0, 0]])[path]()
    assert lattice.gram == ((5, 0), (0, 0)) and {type(x) for row in lattice.gram for x in row} == {int}
    # and so is a surface's chi(O)
    for chi_o in (3, Fraction(3), Fraction(3, 2)):
        surface = _paths(SURFACE, chi_o=chi_o)[path]()
        assert surface.chi_o == chi_o and type(surface.chi_o) is type(chi_o)
    surface = _paths(SURFACE, chi_o=_Degree.FIVE)[path]()
    assert surface.chi_o == 5 and type(surface.chi_o) is int
    # a record the constructor accepts comes back unchanged through each path
    for good in (RankOneRing(3, Fraction(2)), LATTICE, SURFACE, CURVE, REPORT):
        assert type(_paths(good)[path]()) is type(good) and _paths(good)[path]() == good


@pytest.mark.parametrize("path", range(3), ids=["constructor", "_make", "_replace"])
@pytest.mark.parametrize("bad", [True, 1.5, "4"], ids=["bool", "float", "str"])
def test_an_inexact_degree_or_gram_entry_raises_on_every_path(bad, path):
    with pytest.raises(TypeError):
        _paths(RankOneRing(2, 4), h_degree=bad)[path]()
    for gram in (((bad, 0), (0, 0)), ((4, bad), (bad, 0))):
        with pytest.raises(TypeError):
            _paths(LATTICE, gram=gram)[path]()
    with pytest.raises(TypeError):
        _paths(SURFACE, chi_o=bad)[path]()


@pytest.mark.parametrize("path", range(3), ids=["constructor", "_make", "_replace"])
def test_surface_canonical_may_be_zero(path):
    zero = _paths(TILTED, canonical=GradedClass(TILTED.lattice))[path]()
    assert type(zero) is Surface and zero.canonical.is_zero


def test_surface_chi_reads_the_canonical_divisor():
    # c1 = 3H: c1^2 = 36 and c1.K = -24, so chi = 2 + (36 + 24)/2 - 14
    E = ChernVector.of(TILTED.lattice, 2, (3, 0), 14)
    assert chi_surface(TILTED, E) == 18


@pytest.mark.parametrize(
    "record, name",
    [
        (RankOneRing(2, 4), "dim"),
        (LATTICE, "gram"),
        (SURFACE, "chi_o"),
        (CURVE, "genus"),
        (REPORT, "rows"),
        (HypersurfaceP3(4), "degree"),
        (HypersurfaceP3(4), "_surface"),
        (HypersurfaceP4(5), "degree"),
        (HypersurfaceP4(5), "ring"),
        (HypersurfaceP4(5), "todd"),
        (HypersurfaceP4(5), "extra"),
        (HypersurfaceP3(4), "ring"),
    ],
)
def test_no_field_can_be_assigned(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    if isinstance(record, (HypersurfaceP3, HypersurfaceP4)):
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_record_fields_in_order():
    assert RankOneRing._fields == ("dim", "h_degree")
    assert SurfaceLattice._fields == ("basis", "gram")
    assert Surface._fields == ("lattice", "chi_o", "geometric_genus", "canonical")
    assert CurveCase._fields == (
        "genus", "degree", "rank", "syzygy_levels", "clifford", "very_ample", "general"
    )
    assert ScanReport._fields == ("title", "params", "columns", "provenance", "rows")
    assert CurveCase(3, 4) == (3, 4, 1, (), None, False, False)
    assert hash(RankOneRing(3, 2)) == hash(RankOneRing(3, Fraction(2)))
