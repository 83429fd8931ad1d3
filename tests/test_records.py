"""Constructor checks and value semantics of the checked records.

The rings, ``Surface``, ``CurveCase`` and ``ScanReport`` are
``typing.NamedTuple``s whose constructor, ``_make`` and ``_replace`` all
run one check and coercion step; the hypersurface models are slotted
values named by their degree.  Every guard must raise on each of the
three paths, every coercion must hold on each of them, and no field can
be assigned.
"""

from fractions import Fraction

import pytest

from projnorm.exactalg import RankOneRing, RingMismatchError, SurfaceLattice, divisor
from projnorm.normality import CurveCase
from projnorm.report import Row, ScanReport
from projnorm.rr import HypersurfaceP3, HypersurfaceP4, Surface, surface_model

LATTICE = SurfaceLattice(("H", "K"), ((4, 0), (0, 0)))
SURFACE = surface_model(4, 0, 0, 2)
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
    error = RingMismatchError if type(good) is Surface else ValueError
    with pytest.raises(error, match=message):
        _paths(good, **change)[path]()


@pytest.mark.parametrize("path", range(3), ids=["constructor", "_make", "_replace"])
def test_coercions_hold_on_every_path(path):
    ring = _paths(RankOneRing(2, Fraction(4)), h_degree=5)[path]()
    assert type(ring.h_degree) is Fraction and ring == (2, Fraction(5))
    lattice = _paths(LATTICE, basis=["H", "K"], gram=[[1, 2], [2, 3]])[path]()
    assert lattice.basis == ("H", "K") and lattice.gram == ((1, 2), (2, 3))
    assert type(lattice.gram) is tuple and {type(x) for row in lattice.gram for x in row} == {Fraction}
    surface = _paths(SURFACE, chi_o=3)[path]()
    assert type(surface.chi_o) is Fraction and surface.chi_o == 3
    # a record the constructor accepts comes back unchanged through each path
    for good in (RankOneRing(3, Fraction(2)), LATTICE, SURFACE, CURVE, REPORT):
        assert type(_paths(good)[path]()) is type(good) and _paths(good)[path]() == good


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
    assert Surface._fields == ("lattice", "chi_o", "irregularity", "geometric_genus", "canonical")
    assert CurveCase._fields == (
        "genus", "degree", "rank", "syzygy_levels", "clifford", "very_ample", "general"
    )
    assert ScanReport._fields == ("title", "params", "columns", "provenance", "rows")
    assert CurveCase(3, 4) == (3, 4, 1, (), None, False, False)
    assert hash(RankOneRing(3, 2)) == hash(RankOneRing(3, Fraction(2)))
