"""Ring arithmetic, degree maps, rational round-trips, and the splitting oracle."""

import dataclasses
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projnorm.chern import (
    bundle_from_roots,
    satisfies_rank_vanishing,
    sym2,
    sym3,
    tensor_square,
    twist,
    wedge2,
)
from projnorm.exactalg import (
    DivisorVector,
    GradedClass,
    RankOneRing,
    RingMismatchError,
    SurfaceLattice,
    binom,
    divisor,
    elementary_symmetric,
    parse_rational,
    ring_degree,
    splitting_oracle,
    unit,
)

QUARTIC_K3 = SurfaceLattice(("H", "K"), ((4, 0), (0, 0)))

fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@given(fractions)
def test_rational_round_trip(q):
    # reports print a rational as str(Fraction): lowest terms, positive denominator
    assert parse_rational(str(q)) == q


def test_parse_rational_rejects_junk():
    with pytest.raises(ValueError):
        parse_rational("three")
    with pytest.raises(ValueError):
        parse_rational("3/0")
    # decimal strings are exact rationals and stay accepted
    assert parse_rational("1.25") == Fraction(5, 4)


def test_binom_extension():
    assert binom(5, 2) == 10
    assert binom(1, 2) == 0  # above the top
    assert binom(-1, 1) == -1  # falling factorial for negative arguments
    assert binom(-1, 2) == 1
    assert binom(3, -1) == 0


def test_rank_one_degree_examples():
    ring = RankOneRing(2, Fraction(4))
    assert ring_degree(ring, divisor(ring, 3), 1) == 12  # 3H against H, H.H = 4
    ring3 = RankOneRing(3, Fraction(5))
    assert ring_degree(ring3, GradedClass.of(ring3, {3: 1}), 3) == 5  # H^3 integrates to d


def test_surface_lattice_quadratic_form():
    c = divisor(QUARTIC_K3, (3, 0))
    # oracle: the quadratic form directly, 3 * 3 * (H.H)
    assert QUARTIC_K3.pair((Fraction(3), Fraction(0)), (Fraction(3), Fraction(0))) == 36
    assert ring_degree(QUARTIC_K3, c * c, 2) == 36


def test_degree_errors():
    ring = RankOneRing(2, Fraction(4))
    other = RankOneRing(2, Fraction(3))
    cls = divisor(ring, 1)
    with pytest.raises(RingMismatchError):
        ring_degree(other, cls, 1)
    with pytest.raises(ValueError):
        ring_degree(ring, cls, 3)
    with pytest.raises(RingMismatchError):
        cls * divisor(other, 1)


def test_lattice_requires_symmetry():
    with pytest.raises(ValueError):
        SurfaceLattice(("H", "K"), ((1, 2), (3, 4)))


def _rand_class(draw_parts, ring):
    return GradedClass.of(ring, draw_parts)


surface_classes = st.builds(
    lambda a, b, c, d: GradedClass.of(QUARTIC_K3, {0: a, 1: (b, c), 2: d}),
    fractions,
    fractions,
    fractions,
    fractions,
)

rank3 = RankOneRing(3, Fraction(2))
rank3_classes = st.builds(
    lambda a, b, c, d: GradedClass.of(rank3, {0: a, 1: b, 2: c, 3: d}),
    fractions,
    fractions,
    fractions,
    fractions,
)


def _rank_one_classes(ring):
    # zero components are common, so cancellation and zero classes get drawn
    component = st.one_of(st.just(0), fractions)
    return st.builds(
        lambda values: GradedClass.of(ring, dict(enumerate(values))),
        st.lists(component, min_size=ring.dim + 1, max_size=ring.dim + 1),
    )


def _single_component_classes(ring):
    # one component in any codimension (zero values give the zero class),
    # so the single-component paths of +, - and * are drawn in every codim
    def build(codim, a, b):
        value = (a, b) if isinstance(ring, SurfaceLattice) and codim == 1 else a
        return GradedClass.of(ring, {codim: value})

    component = st.one_of(st.just(0), fractions)
    return st.builds(build, st.integers(0, ring.dim), component, component)


def _classes_on(ring, mixed):
    return st.one_of(mixed, _single_component_classes(ring))


#: Pairs of classes on one ring, for every ring shape and dimension; each
#: side is a mixed class or a single-component one.
same_ring_pairs = st.one_of(
    *(
        st.tuples(classes, classes)
        for classes in (
            _classes_on(QUARTIC_K3, surface_classes),
            _classes_on(rank3, rank3_classes),
            *(
                _classes_on(ring, _rank_one_classes(ring))
                for ring in (RankOneRing(1, Fraction(3)), RankOneRing(2, Fraction(5)))
            ),
        )
    )
)


def _assert_exact_parts(cls):
    codims = [k for k, _ in cls.parts]
    assert codims == sorted(set(codims)) and all(0 <= k <= cls.ring.dim for k in codims)
    for k, value in cls.parts:
        assert value
        if isinstance(cls.ring, SurfaceLattice) and k == 1:
            assert type(value) is DivisorVector and len(value) == len(cls.ring.basis)
            assert all(type(x) is Fraction for x in value)
        else:
            assert type(value) is Fraction


@settings(max_examples=150)
@given(same_ring_pairs, st.one_of(st.integers(-5, 5), fractions))
def test_arithmetic_results_keep_exact_sorted_nonzero_parts(pair, q):
    # results skip GradedClass.of, so they must already be in its normal form
    a, b = pair
    for result in (a + b, a - b, a - a, a * b, q * a, a * q):
        _assert_exact_parts(result)
        assert result == GradedClass.of(result.ring, dict(result.parts))
    assert (a - a).is_zero
    assert a + GradedClass.zero(a.ring) is a
    with pytest.raises(TypeError):
        True * a
    with pytest.raises(TypeError):
        a * False


def _reference_sum(a, b, sign):
    acc = dict(a.parts)
    for k, v in dict(b.parts).items():
        v = v * sign
        acc[k] = acc[k] + v if k in acc else v
    return GradedClass.of(a.ring, acc)


def _reference_product(a, b):
    # the convolution over codimensions; two surface divisors pair
    ring = a.ring
    acc = {}
    for i, x in dict(a.parts).items():
        for j, y in dict(b.parts).items():
            c = ring.pair(x, y) if isinstance(ring, SurfaceLattice) and i == j == 1 else x * y
            acc[i + j] = acc[i + j] + c if i + j in acc else c
    return GradedClass.of(ring, acc)


@settings(max_examples=150)
@given(same_ring_pairs, st.one_of(st.integers(-5, 5), fractions))
def test_arithmetic_matches_the_reference_convolution(pair, q):
    a, b = pair
    # every pair of single components of a and b, so each codimension pair
    # meets the single-component paths whatever was drawn
    singles = [(GradedClass(a.ring, (x,)), GradedClass(b.ring, (y,))) for x in a.parts for y in b.parts]
    for x, y in [(a, b), (a, -a), *singles]:
        assert x + y == _reference_sum(x, y, 1)
        assert x - y == _reference_sum(x, y, -1)
        assert x * y == _reference_product(x, y)
    scaled = GradedClass.of(a.ring, {k: v * q for k, v in dict(a.parts).items()})
    assert q * a == scaled
    assert a * q == scaled


def test_ring_mismatch_raises_for_every_operator():
    ring, other = RankOneRing(2, Fraction(4)), RankOneRing(2, Fraction(3))
    line = SurfaceLattice(("H",), ((4,),))
    for foreign_ring in (other, line):
        for a in (divisor(ring, 1), GradedClass.zero(ring)):
            for b in (divisor(foreign_ring, 1), GradedClass.zero(foreign_ring)):
                for x, y in ((a, b), (b, a)):
                    for op in (operator.add, operator.sub, operator.mul):
                        with pytest.raises(RingMismatchError):
                            op(x, y)


def test_equal_but_distinct_rings_still_combine():
    first, second = RankOneRing(3, Fraction(1)), RankOneRing(3, Fraction(1))
    assert first is not second and first == second
    x, y = divisor(first, 2), divisor(second, 3)
    assert x + y == divisor(first, 5)
    assert x - y == divisor(first, -1)
    assert x * y == GradedClass.of(first, {2: 6})
    assert x + GradedClass.zero(second) == x
    lattice, twin = (SurfaceLattice(("H", "K"), ((4, 1), (1, 0))) for _ in range(2))
    assert lattice is not twin
    u, v = divisor(lattice, (1, 2)), divisor(twin, (3, 0))
    assert u + v == divisor(lattice, (4, 2))
    assert u - v == divisor(lattice, (-2, 2))
    assert u * v == GradedClass.of(lattice, {2: 18})


@settings(max_examples=60)
@given(surface_classes, surface_classes, surface_classes)
def test_surface_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c


@settings(max_examples=60)
@given(rank3_classes, rank3_classes, rank3_classes)
def test_rank_one_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c


@given(surface_classes, surface_classes, surface_classes)
def test_truncation_kills_high_degree(a, b, c):
    # any triple product of pure divisors lands above the surface dimension
    da = divisor(QUARTIC_K3, (1, 2))
    product = da * da * da
    assert product.is_zero


def test_elementary_symmetric_matches_expansion():
    values = [Fraction(1), Fraction(-2), Fraction(1, 2)]
    e = elementary_symmetric(values, 3)
    assert e[0] == 1
    assert e[1] == sum(values)
    assert e[2] == Fraction(1) * -2 + Fraction(1) * Fraction(1, 2) + Fraction(-2) * Fraction(1, 2)
    assert e[3] == Fraction(1) * Fraction(-2) * Fraction(1, 2)


ORACLE_CASES = [
    ("tensor_square", tensor_square),
    ("sym2", sym2),
    ("sym3", sym3),
    ("wedge2", wedge2),
    ("tensor_line", twist),
]


@pytest.mark.parametrize("construction,closed_form", ORACLE_CASES)
@pytest.mark.parametrize("rank", range(1, 7))
def test_splitting_oracle_agrees(construction, closed_form, rank):
    assert splitting_oracle(construction, rank, closed_form, trials=20, seed=11 + rank)


def test_splitting_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        splitting_oracle("cube", 2, tensor_square)
    with pytest.raises(ValueError):
        splitting_oracle("sym2", 0, sym2)
    with pytest.raises(ValueError):
        splitting_oracle("sym2", 2, sym2, trials=0)


def test_splitting_oracle_detects_wrong_formula():
    def broken(E):
        good = tensor_square(E)
        return type(good)(good.rank, good.c1, good.c2 + good.c1 * good.c1, good.c3)

    assert not splitting_oracle("tensor_square", 3, broken, trials=5, seed=3)


#: (construction, closed form, perturbed class); sym3 is checked in a
#: 2-dimensional ring, where c3 truncates away.
PERTURBED_CASES = [
    (construction, closed_form, k)
    for construction, closed_form in ORACLE_CASES
    for k in ((1, 2) if construction == "sym3" else (1, 2, 3))
]


@pytest.mark.parametrize("construction,closed_form,k", PERTURBED_CASES)
def test_splitting_oracle_detects_each_perturbed_class(construction, closed_form, k):
    def perturbed(*args):
        good = closed_form(*args)
        name = f"c{k}"
        return dataclasses.replace(good, **{name: getattr(good, name) + GradedClass.of(good.ring, {k: 1})})

    assert not splitting_oracle(construction, 3, perturbed, trials=5, seed=3)


@pytest.mark.parametrize("rank", (1, 2))
def test_rank_vanishing_preserved_by_constructions(rank):
    import random

    from projnorm.exactalg import rand_rational

    rng = random.Random(5)
    ring = RankOneRing(3, Fraction(1))
    ring2 = RankOneRing(2, Fraction(1))
    for _ in range(10):
        roots = [rand_rational(rng) for _ in range(rank)]
        E = bundle_from_roots(ring, roots)
        assert satisfies_rank_vanishing(E)
        for op in (tensor_square, sym2, wedge2):
            assert satisfies_rank_vanishing(op(E))
        E2 = bundle_from_roots(ring2, roots)
        assert satisfies_rank_vanishing(sym3(E2))


def test_rank_one_truncation():
    ring = RankOneRing(3, Fraction(2))
    h = divisor(ring, 1)
    assert not (h * h * h).is_zero
    assert (h * h * h * h).is_zero
    assert (h * h * h * h + unit(ring)) == unit(ring)


@given(surface_classes, surface_classes)
def test_structural_equality_implies_numerical(a, b):
    from projnorm.exactalg import numerically_equal

    assert numerically_equal(a, a)
    if a == b:
        assert numerically_equal(a, b)


def test_numerical_equality_sees_lattice_relations():
    from projnorm.exactalg import numerically_equal

    # on the quartic K3 lattice K pairs to zero with everything, so any
    # K-multiple is numerically trivial while structurally nonzero
    a = divisor(QUARTIC_K3, (3, 5))
    b = divisor(QUARTIC_K3, (3, -2))
    assert a != b
    assert numerically_equal(a, b)
    c = divisor(QUARTIC_K3, (4, 0))
    assert not numerically_equal(a, c)


def test_constructor_validation_errors():
    from projnorm.exactalg import as_fraction

    with pytest.raises(ValueError):
        RankOneRing(4, Fraction(1))
    with pytest.raises(ValueError):
        SurfaceLattice((), ())
    with pytest.raises(ValueError):
        SurfaceLattice(("H",), ((1, 2),))
    with pytest.raises(TypeError):
        as_fraction(1.5)
    with pytest.raises(ValueError):
        divisor(QUARTIC_K3, (1, 2, 3))


def test_graded_class_helpers():
    ring = RankOneRing(3, Fraction(2))
    cls = divisor(ring, 3) + GradedClass.of(ring, {2: 5})
    assert cls.grade() is None  # mixed
    assert divisor(ring, 3).grade() == 1
    assert GradedClass.zero(ring).grade() is None
    assert Fraction(1, 3) * divisor(ring, 3) == divisor(ring, 1)
    assert "H^2" in repr(cls)
    assert repr(GradedClass.zero(ring)) == "0"
    lattice_cls = divisor(QUARTIC_K3, (1, -2)) + unit(QUARTIC_K3, 5)
    assert "K" in repr(lattice_cls) and "1" in repr(lattice_cls)


def test_ring_shape_follows_the_ring_not_the_vector_length():
    # a one-generator lattice stores H as the vector (1,); its products must
    # still pair through the Gram matrix, not multiply as scalars
    line = SurfaceLattice(("H",), ((4,),))
    h = divisor(line, 1)
    assert ring_degree(line, h * h, 2) == 4
    assert ring_degree(line, h, 1) == 4
    assert ring_degree(line, unit(line, 3), 0) == 12
    assert (h * h).component(2) == 4


def test_mixed_class_repr_in_both_ring_shapes():
    ring = RankOneRing(3, Fraction(2))
    mixed = unit(ring, 2) + divisor(ring, Fraction(-1, 3)) + GradedClass.of(ring, {3: 5})
    assert repr(mixed) == "2*1 + -1/3*H + 5*H^3"
    lattice_mixed = (
        unit(QUARTIC_K3, 2)
        + divisor(QUARTIC_K3, (1, Fraction(-1, 2)))
        + GradedClass.of(QUARTIC_K3, {2: 3})
    )
    assert repr(lattice_mixed) == "2*1 + (1*H + -1/2*K) + 3@2"
    assert repr(divisor(QUARTIC_K3, (0, 7))) == "(7*K)"


def test_absent_component_is_a_zero_of_the_ring_shape():
    lattice_unit = unit(QUARTIC_K3)
    divisor_zero = lattice_unit.component(1)
    assert isinstance(divisor_zero, tuple)
    assert divisor_zero == (0, 0)
    assert lattice_unit.component(2) == 0
    assert not isinstance(lattice_unit.component(2), tuple)
    assert divisor(QUARTIC_K3, (1, 2)).component(0) == 0
    rank_one = unit(RankOneRing(2, Fraction(3)))
    for codim in (1, 2):
        zero = rank_one.component(codim)
        assert isinstance(zero, Fraction) and zero == 0
