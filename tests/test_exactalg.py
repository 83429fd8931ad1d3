"""Ring arithmetic, degree maps, rational round-trips, and the splitting oracle."""

import operator
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projnorm.chern import (
    ChernVector,
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
    root_points,
    splitting_oracle,
    unit,
)
from projnorm.rr import surface_model
from rational_roots import rand_rational

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
    assert ring_degree(divisor(ring, 3)) == 12  # 3H against H, H.H = 4
    ring3 = RankOneRing(3, Fraction(5))
    assert ring_degree(GradedClass.of(ring3, 3, 1)) == 5  # H^3 integrates to d


def test_surface_lattice_quadratic_form():
    c = divisor(QUARTIC_K3, (3, 0))
    # oracle: the quadratic form directly, 3 * 3 * (H.H)
    assert QUARTIC_K3.pair((Fraction(3), Fraction(0)), (Fraction(3), Fraction(0))) == 36
    assert ring_degree(c * c) == 36


def test_degree_errors():
    ring = RankOneRing(2, Fraction(4))
    other = RankOneRing(2, Fraction(3))
    cls = divisor(ring, 1)
    # the degree is read in the class's own ring: the same H has H.H = 4 or 3
    assert ring_degree(cls) == 4 and ring_degree(divisor(other, 1)) == 3
    # H^3 truncates to zero on a surface ring, and the zero class has degree 0
    assert ring_degree(cls * cls * cls) == 0
    with pytest.raises(RingMismatchError):
        cls * divisor(other, 1)


def test_degree_reads_the_codimension_off_the_class():
    from projnorm.rr import HypersurfaceP4, solve_ulrich_chern

    X = HypersurfaceP4(5)
    E = solve_ulrich_chern(X, 3)
    H = divisor(X.ring, 1)
    assert ring_degree(E.c2) == 75
    # c2 against H, and the c2 H-coefficient 15 against H^2 (H^3 = 5)
    assert ring_degree(E.c2 * H) == 75 == 15 * ring_degree(H * H)
    assert ring_degree(E.c1) == 30 and ring_degree(E.c1 * H) == 30
    p3 = RankOneRing(3, Fraction(1))
    assert [ring_degree(GradedClass.of(p3, k, 2)) for k in range(4)] == [2, 2, 2, 2]
    # on a surface lattice each codimension has its own evaluation
    assert ring_degree(unit(QUARTIC_K3, 2)) == 8  # 2 (H.H)
    assert ring_degree(divisor(QUARTIC_K3, (1, 5))) == 4  # (H + 5K).H, K.H = 0
    assert ring_degree(GradedClass.of(QUARTIC_K3, 2, 3)) == 3  # stored already integrated


scalars = st.one_of(st.integers(-20, 20), fractions)


@st.composite
def graded_classes(draw):
    """``(class, its degree evaluated by hand)`` in a rank-one ring or a one-
    or two-generator surface lattice, in any codimension, zero included;
    values are ints or Fractions, so ``int``-valued classes are drawn too."""
    if draw(st.booleans()):
        ring = RankOneRing(draw(st.integers(1, 3)), draw(fractions))
        codim = draw(st.integers(0, ring.dim))
        value = draw(scalars)
        expected = value * ring.h_degree
    else:
        n = draw(st.integers(1, 2))
        entries = draw(st.lists(fractions, min_size=3, max_size=3))
        gram = ((entries[0],),) if n == 1 else ((entries[0], entries[1]), (entries[1], entries[2]))
        ring = SurfaceLattice(("H", "K")[:n], gram)
        codim = draw(st.integers(0, 2))
        if codim == 1:
            value = DivisorVector(draw(st.lists(scalars, min_size=n, max_size=n)))
            expected = sum(c * gram[i][0] for i, c in enumerate(value))
        else:
            value = draw(scalars)
            expected = value if codim == 2 else value * gram[0][0]
    cls = GradedClass(ring, codim, value) if value else GradedClass(ring)
    return cls, expected


@settings(max_examples=300, deadline=None)
@given(graded_classes())
def test_degree_is_the_class_evaluated_in_its_own_ring_and_codimension(case):
    cls, expected = case
    for c in (cls, GradedClass.of(cls.ring, cls.codim, cls.value) if cls.value else cls):
        degree = ring_degree(c)
        assert type(degree) is Fraction and degree == expected


def test_lattice_requires_symmetry():
    with pytest.raises(ValueError):
        SurfaceLattice(("H", "K"), ((1, 2), (3, 4)))


def _classes(ring, codims):
    # one component in a codimension drawn from ``codims``; zero values are
    # common, so cancellation and zero classes get drawn
    def build(codim, a, b):
        value = (a, b) if isinstance(ring, SurfaceLattice) and codim == 1 else a
        return GradedClass.of(ring, codim, value)

    component = st.one_of(st.just(0), fractions)
    return st.builds(build, codims, component, component)


def _pairs(ring):
    # half the pairs share a codimension, so + and - have a sum to check
    codims = st.integers(0, ring.dim)
    shared = codims.flatmap(lambda k: st.tuples(_classes(ring, st.just(k)), _classes(ring, st.just(k))))
    return st.one_of(shared, st.tuples(_classes(ring, codims), _classes(ring, codims)))


rank3 = RankOneRing(3, Fraction(2))
surface_classes = _classes(QUARTIC_K3, st.integers(0, 2))

#: Pairs of classes on one ring, for every ring shape and dimension.
same_ring_pairs = st.one_of(
    *(_pairs(ring) for ring in (QUARTIC_K3, rank3, RankOneRing(1, Fraction(3)), RankOneRing(2, Fraction(5))))
)


def _components(cls):
    return {} if cls.is_zero else {cls.codim: cls.value}


def _from_components(ring, components):
    # the class of a {codim: value} map that keeps at most one nonzero
    # component after truncation; built without + so the references stay
    # independent of the arithmetic under test.  Truncation comes first:
    # above the ring dimension a product of a surface divisor and a
    # number is no value GradedClass.of accepts
    kept = ((k, v) for k, v in components.items() if k <= ring.dim)
    nonzero = [c for c in (GradedClass.of(ring, k, v) for k, v in kept) if not c.is_zero]
    assert len(nonzero) <= 1
    return nonzero[0] if nonzero else GradedClass(ring)


def _mixed(a, b):
    return not (a.is_zero or b.is_zero) and a.codim != b.codim


def _assert_normal_form(cls):
    if cls.is_zero:
        assert cls.value is None
        return
    assert 0 <= cls.codim <= cls.ring.dim and cls.value
    if isinstance(cls.ring, SurfaceLattice) and cls.codim == 1:
        assert type(cls.value) is DivisorVector and len(cls.value) == len(cls.ring.basis)
        assert all(type(x) is Fraction for x in cls.value)
    else:
        assert type(cls.value) is Fraction


@settings(max_examples=150)
@given(same_ring_pairs, st.one_of(st.integers(-5, 5), fractions))
def test_arithmetic_results_keep_exact_sorted_nonzero_parts(pair, q):
    # results skip GradedClass.of, so they must already be in its normal form
    a, b = pair
    results = [a * b, a - a, q * a, a * q]
    if not _mixed(a, b):
        results += [a + b, a - b]
    for result in results:
        _assert_normal_form(result)
        assert result == _from_components(result.ring, _components(result))
    assert (a - a).is_zero
    assert a + GradedClass(a.ring) is a
    with pytest.raises(TypeError):
        True * a
    with pytest.raises(TypeError):
        a * False


def _reference_sum(a, b, sign):
    acc = _components(a)
    for k, v in _components(b).items():
        v = v * sign
        acc[k] = acc[k] + v if k in acc else v
    return _from_components(a.ring, acc)


def _reference_product(a, b):
    # the convolution over codimensions; two surface divisors pair
    ring = a.ring
    acc = {}
    for i, x in _components(a).items():
        for j, y in _components(b).items():
            c = ring.pair(x, y) if isinstance(ring, SurfaceLattice) and i == j == 1 else x * y
            acc[i + j] = acc[i + j] + c if i + j in acc else c
    return _from_components(ring, acc)


@settings(max_examples=150)
@given(same_ring_pairs, st.one_of(st.integers(-5, 5), fractions))
def test_arithmetic_matches_the_reference_convolution(pair, q):
    a, b = pair
    for x, y in [(a, b), (a, -a)]:
        for op, sign in ((operator.add, 1), (operator.sub, -1)):
            if _mixed(x, y):
                with pytest.raises(ValueError):
                    op(x, y)
            else:
                assert op(x, y) == _reference_sum(x, y, sign)
        assert x * y == _reference_product(x, y)
    scaled = _from_components(a.ring, {k: v * q for k, v in _components(a).items()})
    assert q * a == scaled
    assert a * q == scaled


def test_mixed_input_is_refused():
    ring = RankOneRing(3, Fraction(2))
    for x, y in (
        (divisor(ring, 3), GradedClass.of(ring, 2, 5)),
        (unit(QUARTIC_K3, 2), divisor(QUARTIC_K3, (0, 1))),
        (divisor(QUARTIC_K3, (1, 0)), GradedClass.of(QUARTIC_K3, 2, 3)),
    ):
        for u, v in ((x, y), (y, x)):
            for op in (operator.add, operator.sub):
                with pytest.raises(ValueError):
                    op(u, v)


def test_of_checks_its_value_above_the_ring_dimension():
    # a value that truncates away is refused as it is in range
    lattice = surface_model(4, 0, 0, 2).lattice
    for c2, c3 in ((1.5, 0), (14, 1.5)):
        with pytest.raises(TypeError):
            ChernVector.of(lattice, 2, 3, c2, c3)
    for ring in (RankOneRing(2, 1), lattice):
        for bad in (True, 1.5, "3", (1, 0)):
            with pytest.raises(TypeError):
                GradedClass.of(ring, 3, bad)
        assert GradedClass.of(ring, 3, Fraction(7, 2)) == GradedClass(ring)


@pytest.mark.parametrize("ring", (RankOneRing(3, Fraction(2)), QUARTIC_K3), ids=("rank-one", "lattice"))
def test_of_builds_one_component(ring):
    q = Fraction(-2, 3)
    for codim in range(ring.dim + 1):
        assert GradedClass.of(ring, codim, 0) == GradedClass(ring)
        cls = GradedClass.of(ring, codim, q)
        assert cls.codim == codim
        assert cls.value == (ring.generator(0) * q if isinstance(ring, SurfaceLattice) and codim == 1 else q)
    # above the ring dimension a value truncates to the zero class
    assert GradedClass.of(ring, ring.dim + 1, 7) == GradedClass(ring)
    if isinstance(ring, SurfaceLattice):
        assert GradedClass.of(ring, 1, (0, 0)) == GradedClass(ring)
        assert GradedClass.of(ring, 1, (1, 0)) == divisor(ring, 1)
    for codim in (-1, -3):
        with pytest.raises(ValueError, match="negative codimension"):
            GradedClass.of(ring, codim, 1)


def test_ring_mismatch_raises_for_every_operator():
    ring, other = RankOneRing(2, Fraction(4)), RankOneRing(2, Fraction(3))
    line = SurfaceLattice(("H",), ((4,),))
    # includes a - 0 with the zero on another ring: - must keep the ring check of +
    for foreign_ring in (other, line):
        for a in (divisor(ring, 1), GradedClass(ring)):
            for b in (divisor(foreign_ring, 1), GradedClass(foreign_ring)):
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
    assert x * y == GradedClass.of(first, 2, 6)
    assert x + GradedClass(second) == x
    lattice, twin = (SurfaceLattice(("H", "K"), ((4, 1), (1, 0))) for _ in range(2))
    assert lattice is not twin
    u, v = divisor(lattice, (1, 2)), divisor(twin, (3, 0))
    assert u + v == divisor(lattice, (4, 2))
    assert u - v == divisor(lattice, (-2, 2))
    assert u * v == GradedClass.of(lattice, 2, 18)


def _triples(ring):
    # a and b share a codimension, so a + b is a class
    codims = st.integers(0, ring.dim)
    return codims.flatmap(
        lambda k: st.tuples(_classes(ring, st.just(k)), _classes(ring, st.just(k)), _classes(ring, codims))
    )


@settings(max_examples=60)
@given(_triples(QUARTIC_K3))
def test_surface_ring_laws(triple):
    a, b, c = triple
    assert a * b == b * a and a * c == c * a
    assert (a + b) * c == a * c + b * c


@settings(max_examples=60)
@given(_triples(rank3))
def test_rank_one_ring_laws(triple):
    a, b, c = triple
    assert a * b == b * a and a * c == c * a
    assert (a + b) * c == a * c + b * c


@given(surface_classes, surface_classes, surface_classes)
def test_truncation_kills_high_degree(a, b, c):
    # a product of classes lands in the sum of their codimensions, and
    # vanishes above the surface dimension
    product = a * b * c
    codims = [x.codim for x in (a, b, c)]
    if None in codims or sum(codims) > QUARTIC_K3.dim:
        assert product.is_zero
    else:
        assert product.is_zero or product.codim == sum(codims)
    da = divisor(QUARTIC_K3, (1, 2))
    assert (da * da * da).is_zero


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


def _perturbed(closed_form, k, error):
    """``closed_form`` with ``error(result)`` added to the result's ``c_k``."""

    def perturbed(*args):
        good = closed_form(*args)
        name = f"c{k}"
        return good._replace(**{name: getattr(good, name) + error(good)})

    return perturbed


@pytest.mark.parametrize("construction,closed_form,k", PERTURBED_CASES)
def test_splitting_oracle_detects_each_perturbed_class(construction, closed_form, k):
    perturbed = _perturbed(closed_form, k, lambda good: GradedClass.of(good.ring, k, 1))
    assert not splitting_oracle(construction, 3, perturbed, trials=5, seed=3)


@pytest.mark.parametrize("construction,closed_form,k", PERTURBED_CASES)
@pytest.mark.parametrize("rank", (2, 3))
def test_splitting_oracle_detects_a_point_dependent_error(construction, closed_form, k, rank):
    # c1^k of the result vanishes at some roots, where a constant H^k never does
    perturbed = _perturbed(closed_form, k, lambda good: reduce(operator.mul, [good.c1] * k))
    missed = [s for s in range(20) if splitting_oracle(construction, rank, perturbed, trials=2, seed=s)]
    assert missed == []


def test_root_points_repeat_for_a_seed():
    points = list(root_points(4, 6, 3))
    assert points == list(root_points(4, 6, 3))
    assert points != list(root_points(4, 6, 4))
    assert len(points) == 6 and all(len(p) == 4 and all(type(x) is int for x in p) for p in points)


def test_root_points_are_successive_randint_draws():
    for count in range(1, 8):
        rng = random.Random(100 + count)
        for point in root_points(count, 30, 100 + count):
            assert point == [rng.randint(-100, 100) for _ in range(count)]
            assert all(type(x) is int for x in point)


@pytest.mark.parametrize("construction,closed_form", ORACLE_CASES)
def test_splitting_oracle_evaluates_at_the_sampled_points(construction, closed_form):
    # tensor_line draws rank + 1 roots per point and twists by the last one
    seen = []

    def recording(*args):
        seen.append(args)
        return closed_form(*args)

    assert splitting_oracle(construction, 3, recording, trials=4, seed=5)
    ring = RankOneRing(2 if construction == "sym3" else 3, 1)
    if construction == "tensor_line":
        expected = [(bundle_from_roots(ring, p[:-1]), divisor(ring, p[-1])) for p in root_points(4, 4, 5)]
    else:
        expected = [(bundle_from_roots(ring, p),) for p in root_points(3, 4, 5)]
    assert seen == expected


@pytest.mark.parametrize("rank", (1, 2))
def test_rank_vanishing_preserved_by_constructions(rank):
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
    if _mixed(a, b):
        assert not numerically_equal(a, b)


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
    k = divisor(QUARTIC_K3, (0, 1))
    assert numerically_equal(k, GradedClass(QUARTIC_K3))
    # nonzero classes in different codimensions are never equal, even a
    # numerically trivial divisor
    for other in (unit(QUARTIC_K3), GradedClass.of(QUARTIC_K3, 2, 1)):
        assert not numerically_equal(k, other) and not numerically_equal(other, a)


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


def test_as_fraction_takes_exactly_ints_and_fractions():
    from projnorm.exactalg import as_fraction

    class Count(int):
        pass

    for value in (5, -7, 0, 2**70, Count(5)):
        out = as_fraction(value)
        assert type(out) is Fraction and out == value
    half = Fraction(1, 2)
    assert as_fraction(half) is half
    for bad in (True, False, 1.5, "1", None):
        with pytest.raises(TypeError):
            as_fraction(bad)


def test_graded_class_helpers():
    ring = RankOneRing(3, Fraction(2))
    assert divisor(ring, 3).codim == 1
    assert GradedClass(ring).codim is None
    assert Fraction(1, 3) * divisor(ring, 3) == divisor(ring, 1)


def test_ring_shape_follows_the_ring_not_the_vector_length():
    # a one-generator lattice stores H as the vector (1,); its products must
    # still pair through the Gram matrix, not multiply as scalars
    line = SurfaceLattice(("H",), ((4,),))
    h = divisor(line, 1)
    assert ring_degree(h * h) == 4
    assert ring_degree(h) == 4
    assert ring_degree(unit(line, 3)) == 12
    assert h * h == GradedClass.of(line, 2, 4)


def test_class_repr_in_both_ring_shapes():
    ring = RankOneRing(3, Fraction(2))
    assert repr(GradedClass(ring)) == "0"
    assert repr(unit(ring, 2)) == "2*1"
    assert repr(divisor(ring, Fraction(-1, 3))) == "-1/3*H"
    assert repr(GradedClass.of(ring, 3, 5)) == "5*H^3"
    assert repr(GradedClass(QUARTIC_K3)) == "0"
    assert repr(unit(QUARTIC_K3, 2)) == "2*1"
    assert repr(divisor(QUARTIC_K3, (1, Fraction(-1, 2)))) == "(1*H + -1/2*K)"
    assert repr(GradedClass.of(QUARTIC_K3, 2, 3)) == "3@2"
    assert repr(divisor(QUARTIC_K3, (0, 7))) == "(7*K)"


def test_zero_class_has_a_fraction_zero_degree_in_both_ring_shapes():
    for ring in (QUARTIC_K3, SurfaceLattice(("H",), ((4,),)), RankOneRing(2, Fraction(3))):
        # a zero value in any codimension, scalar or divisor vector, is the zero class
        for codim in range(ring.dim + 1):
            zero = GradedClass.of(ring, codim, 0)
            assert zero == GradedClass(ring) and zero.value is None
            degree = ring_degree(zero)
            assert type(degree) is Fraction and degree == 0
    assert GradedClass.of(QUARTIC_K3, 1, (0, 0)) == GradedClass(QUARTIC_K3)
    # a class of one codimension is a nonzero class there and nothing else
    lattice_unit = unit(QUARTIC_K3)
    assert (lattice_unit.codim, lattice_unit.value) == (0, 1)


@pytest.mark.parametrize("a", [divisor(RankOneRing(3, Fraction(2)), Fraction(3, 2)), divisor(QUARTIC_K3, (1, 2))])
def test_graded_class_is_a_class_before_it_is_a_tuple(a):
    # the class inherits tuple's sequence operators (tuple.__rmul__ repeats,
    # tuple.__add__ concatenates); its own overrides must answer instead
    for bad in (lambda: a + (1,), lambda: a * True, lambda: True * a, lambda: a * 2.5, lambda: a * "x"):
        with pytest.raises(TypeError):
            bad()
    for scaled in (2 * a, a * 2):
        assert type(scaled) is GradedClass and scaled == a + a
    with pytest.raises(AttributeError):
        a.codim = 2
    # the two accepted tuple behaviours
    assert a == (a.ring, a.codim, a.value)
    assert (1,) + a == (1, a.ring, a.codim, a.value)


def test_equal_classes_hash_equal_across_int_and_fraction_values():
    ring = RankOneRing(3, Fraction(1))
    as_int, as_fraction_ = GradedClass(ring, 2, 6), GradedClass.of(ring, 2, 6)
    assert type(as_int.value) is int and type(as_fraction_.value) is Fraction
    assert as_int == as_fraction_ and hash(as_int) == hash(as_fraction_)
    assert len({as_int, as_fraction_, GradedClass(ring), GradedClass(ring)}) == 2
