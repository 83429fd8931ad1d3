"""Riemann-Roch leaves its rings as ``Fraction`` and builds few of them.

Two checks on both hypersurface models, degrees 1..12 and every
parity-valid rank up to 6.  First, the boundary: every Euler
characteristic, every ``ring_degree`` and every ``surface_numbers`` value
of a solved Ulrich bundle and of its derived bundles is exactly a
``Fraction``, never an ``int`` or a float, while the rings, the Gram
entries and the 24 td(X) pieces inside hold ints.  Second, the budget: the
number of ``Fraction`` objects that ``solve_ulrich_chern`` builds, pinned
per model.  A ``Fraction`` Gram entry, ring degree or Todd piece that comes
back raises it.

Python 3.12 changed how ``fractions`` builds its objects: arithmetic makes
its result through ``Fraction._from_coprime_ints`` and turns an ``int``
operand into a ``Fraction`` first.  Both constructors are counted, and
each of the two implementations has its own pinned totals.

The module needs no pytest, so it also runs as a plain script on any
supported Python:

    PYTHONPATH=src python tests/test_fraction_budget.py
"""

from fractions import Fraction

from projnorm.chern import sym2, sym3, tensor_square, twist, wedge2
from projnorm.exactalg import GradedClass, divisor, ring_degree
from projnorm.rr import HypersurfaceP3, HypersurfaceP4, parity_ok, solve_ulrich_chern, surface_numbers

MODELS = (HypersurfaceP3, HypersurfaceP4)

#: Fractions per model that the 54 solves at d = 1..12, parity-valid
#: r <= 6 build: 11 a solve on P^3 and 71.4 on P^4 before Python 3.12,
#: 12 and 97.3 from 3.12 on, where each int operand costs one more.
SOLVE_BUDGET = (
    {"HypersurfaceP3": 594, "HypersurfaceP4": 3854}
    if "_from_coprime_ints" not in vars(Fraction)
    else {"HypersurfaceP3": 648, "HypersurfaceP4": 5252}
)


def _cases(model):
    """``(V, r)`` for each parity-valid rank r <= 6 on V = model(d), d = 1..12."""
    for d in range(1, 13):
        V = model(d)
        for r in range(1, 7):
            if parity_ok(r, d):
                yield V, r


class _FractionCount:
    """Counts the ``Fraction`` objects built inside a ``with`` block."""

    def __enter__(self):
        self.built = 0
        hooks = ("__new__", "_from_coprime_ints")
        self._saved = {name: vars(Fraction)[name] for name in hooks if name in vars(Fraction)}
        new = Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            self.built += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = counted_new
        if "_from_coprime_ints" in self._saved:
            coprime = self._saved["_from_coprime_ints"].__func__

            def counted_coprime(cls, numerator, denominator):
                self.built += 1
                return coprime(cls, numerator, denominator)

            Fraction._from_coprime_ints = classmethod(counted_coprime)
        return self

    def __exit__(self, *exc):
        for name, value in self._saved.items():
            setattr(Fraction, name, value)


def test_every_chi_and_degree_on_both_models_is_a_fraction():
    checked = 0
    for model in MODELS:
        for V, r in _cases(model):
            ring = V.ring
            if model is HypersurfaceP4:
                assert type(ring.h_degree) is int
                assert all(type(piece.value) is int for piece in V.todd if not piece.is_zero)
            else:
                assert {type(x) for row in ring.gram for x in row} == {int}
                assert type(V.surface().degree) is Fraction and V.surface().degree == V.degree
            E = solve_ulrich_chern(V, r)
            derived = [tensor_square(E), sym2(E), wedge2(E), twist(E, divisor(ring, -1))]
            if model is HypersurfaceP3:
                derived.append(sym3(E))
            for F in (E, *derived):
                assert type(V.chi(F)) is Fraction, (V, r, F)
                for c in (F.c1, F.c2, F.c3, GradedClass(ring)):
                    assert type(ring_degree(c)) is Fraction, (V, r, c)
                if model is HypersurfaceP3:
                    assert all(type(x) is Fraction for x in surface_numbers(V.surface(), F)), (V, r, F)
                checked += 1
    assert checked == 54 * 6 + 54 * 5


def test_fractions_built_per_ulrich_solve():
    for model in MODELS:
        cases = list(_cases(model))
        with _FractionCount() as count:
            for V, r in cases:
                solve_ulrich_chern(V, r)
        assert len(cases) == 54
        assert count.built == SOLVE_BUDGET[model.__name__], (model.__name__, count.built)


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} checks passed")
