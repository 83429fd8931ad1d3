"""Closed-form Chern operations: examples, involutions, and reconstruction identities."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projnorm.chern import (
    ChernVector,
    bundle_from_roots,
    chern_character,
    direct_sum,
    dual,
    graded_product,
    segre_dual,
    sym2,
    sym3,
    sym_k_c1,
    tensor_square,
    twist,
    wedge2,
)
from projnorm.exactalg import (
    GradedClass,
    RankOneRing,
    SurfaceLattice,
    binom,
    divisor,
    elementary_symmetric,
    ring_degree,
    unit,
)
from projnorm.normality import surface_acm_criterion
from projnorm.verify import _character_square, _whitney
from rational_roots import over_common_denominator, rand_rational

K3 = SurfaceLattice(("H", "K"), ((4, 0), (0, 0)))
P3RING = RankOneRing(3, Fraction(1))


def k3_ulrich_rank2():
    # the rank-2 bundle with c1 = 3H, c2 = 14 on a degree-4 surface with K = 0
    return ChernVector.of(K3, 2, (3, 0), 14)


def random_bundle(ring, rank, rng):
    return bundle_from_roots(ring, [rand_rational(rng) for _ in range(rank)])


def test_tensor_square_line_bundle():
    ring = RankOneRing(2, Fraction(4))
    L = ChernVector.of(ring, 1, 5)
    T = tensor_square(L)
    assert T.rank == 1
    assert T.c1 == divisor(ring, 10)
    assert T.c2.is_zero and T.c3.is_zero


def test_tensor_square_k3_example():
    T = tensor_square(k3_ulrich_rank2())
    # closed form: (2r^2 - r - 1) c1^2 + 2r c2 = 5*36 + 4*14
    assert T.rank == 4
    assert ring_degree(K3, T.c2, 2) == 236


def test_wedge2_rank_two_collapses():
    E = k3_ulrich_rank2()
    W = wedge2(E)
    assert W.rank == 1
    assert W.c1 == E.c1
    assert W.c2.is_zero and W.c3.is_zero


def test_sym_k_c1_consistency_with_sym3():
    E = k3_ulrich_rank2()
    # binom(r+k-1, k-1) at r=2, k=3 equals the (r+2)(r+1)/2 coefficient of the cube
    assert sym_k_c1(E, 3) == 6 * E.c1
    assert sym3(E).c1 == 6 * E.c1


def test_sym3_needs_low_dimension():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        sym3(random_bundle(P3RING, 3, rng))


@pytest.mark.parametrize("rank", range(2, 6))
def test_whitney_reconstruction(rank):
    rng = random.Random(rank)
    for _ in range(20):
        E = random_bundle(P3RING, rank, rng)
        assert direct_sum(sym2(E), wedge2(E)) == tensor_square(E)


def test_chern_character_examples():
    ring = RankOneRing(3, Fraction(2))
    trivial = ChernVector.of(ring, 3)
    assert chern_character(trivial) == (unit(ring, 3), GradedClass(ring), GradedClass(ring), GradedClass(ring))
    L = ChernVector.of(ring, 1, 1)
    ch = chern_character(L)
    assert ch[1] == GradedClass.of(ring, 1, 1)
    assert ch[2] == GradedClass.of(ring, 2, Fraction(1, 2))
    assert ch[3] == GradedClass.of(ring, 3, Fraction(1, 6))


@pytest.mark.parametrize("rank", (2, 3))
def test_chern_character_multiplicative_on_square(rank):
    rng = random.Random(17 + rank)
    for _ in range(20):
        E = random_bundle(P3RING, rank, rng)
        ch = chern_character(E)
        assert graded_product(ch, ch) == chern_character(tensor_square(E))


@pytest.mark.parametrize("rank", (1, 2, 3, 4))
def test_dual_and_twist_involutions(rank):
    rng = random.Random(23 + rank)
    for _ in range(15):
        E = random_bundle(P3RING, rank, rng)
        assert dual(dual(E)) == E
        L = divisor(P3RING, rand_rational(rng))
        assert twist(twist(E, L), -L) == E


def test_twist_by_zero_is_identity():
    E = k3_ulrich_rank2()
    assert twist(E, 0) == E


def test_twist_k3_example():
    E = k3_ulrich_rank2()
    S_h = divisor(K3, (1, 0))
    T = twist(E, -1 * S_h)
    assert T.c1 == divisor(K3, (1, 0))
    assert ring_degree(K3, T.c2, 2) == 6  # 14 - 12 + 4


def test_segre_dual_k3_example():
    E = k3_ulrich_rank2()
    s = segre_dual(E, 2)
    assert s[1] == E.c1
    assert ring_degree(K3, s[2], 2) == 22  # 36 - 14


@pytest.mark.parametrize("rank", (2, 3, 4))
def test_segre_inverts_total_chern(rank):
    rng = random.Random(31 + rank)
    for _ in range(15):
        E = random_bundle(P3RING, rank, rng)
        s = segre_dual(E, 3)
        cdual = (unit(P3RING), -E.c1, E.c2, -E.c3)
        for k in range(1, 4):
            total = GradedClass(P3RING)
            for i in range(k + 1):
                total = total + s[i] * cdual[k - i]
            assert total.is_zero


def test_segre_range_check():
    E = k3_ulrich_rank2()
    with pytest.raises(ValueError):
        segre_dual(E, 3)


def test_syzygy_bundle_chern():
    # the syzygy bundle M = ker(H^0 (x) O -> E) has c(M) c(E) = 1, so the
    # Chern classes of M* are the Segre classes of E*
    E = k3_ulrich_rank2()
    s = segre_dual(E, 2)
    M_dual = ChernVector(8 - E.rank, s[1], s[2], GradedClass(K3))
    assert M_dual.c1 == E.c1
    assert ring_degree(K3, M_dual.c2, 2) == 36 - 14
    # the degeneracy class of the dual exterior square, (m-2)((m+1)c1^2 - 2c2)/2,
    # is the length of Z in the surface ACM criterion
    z = wedge2(M_dual)
    assert z.rank == binom(6, 2)
    assert ring_degree(K3, z.c2, 2) == 448 == surface_acm_criterion(8, 2, 36, 0, 14).degeneracy.z_length


def test_chern_vector_validation():
    with pytest.raises(ValueError):
        ChernVector.of(K3, -1)
    with pytest.raises(ValueError):
        ChernVector(2, divisor(K3, (1, 0)), divisor(K3, (1, 0)), GradedClass(K3))


def test_sym2_line_bundle():
    ring = RankOneRing(2, Fraction(4))
    L = ChernVector.of(ring, 1, 7)
    S = sym2(L)
    assert S.rank == 1
    assert S.c1 == 2 * L.c1
    assert S.c2.is_zero and S.c3.is_zero


@pytest.mark.parametrize("rank", (1, 2, 3, 4))
def test_twist_adds_up(rank):
    rng = random.Random(53 + rank)
    for _ in range(10):
        E = random_bundle(P3RING, rank, rng)
        a = divisor(P3RING, rand_rational(rng))
        b = divisor(P3RING, rand_rational(rng))
        assert twist(twist(E, a), b) == twist(E, a + b)


@pytest.mark.parametrize("rank", (1, 2, 3, 4))
def test_dual_commutes_with_constructions(rank):
    rng = random.Random(59 + rank)
    for _ in range(10):
        E = random_bundle(P3RING, rank, rng)
        assert dual(tensor_square(E)) == tensor_square(dual(E))
        assert dual(sym2(E)) == sym2(dual(E))
        assert dual(wedge2(E)) == wedge2(dual(E))


@pytest.mark.parametrize("rank", (1, 2, 3))
def test_character_exponential_under_twist(rank):
    # ch(E (x) L) = ch(E) * (1, L, L^2/2, L^3/6)
    rng = random.Random(61 + rank)
    for _ in range(10):
        E = random_bundle(P3RING, rank, rng)
        t = rand_rational(rng)
        L = divisor(P3RING, t)
        exp_l = (
            unit(P3RING),
            L,
            Fraction(1, 2) * (L * L),
            Fraction(1, 6) * (L * L * L),
        )
        assert graded_product(chern_character(E), exp_l) == chern_character(twist(E, L))


def test_error_branches():
    from projnorm.chern import validate_rank_vanishing
    from projnorm.exactalg import DataError, RingMismatchError

    other = RankOneRing(3, Fraction(2))
    E = k3_ulrich_rank2()
    F = ChernVector.of(other, 2, 1)
    with pytest.raises(RingMismatchError):
        direct_sum(E, F)
    with pytest.raises(RingMismatchError):
        twist(E, divisor(other, 1))
    with pytest.raises(ValueError):
        twist(E, unit(K3))  # not a divisor class
    with pytest.raises(DataError):
        validate_rank_vanishing(ChernVector.of(K3, 1, (1, 0), 5))
    with pytest.raises(TypeError):
        bundle_from_roots(K3, [Fraction(1)])
    with pytest.raises(ValueError):
        sym_k_c1(E, 0)
    with pytest.raises(RingMismatchError):
        ChernVector(2, E.c1, F.c2, F.c3)


#: Roots beyond the oracle's draws: denominators 7, 9 and 11, numerators
#: far past its bound of 100 in both signs, and plain ints.
wide_roots = st.one_of(
    st.integers(-(10**15), 10**15),
    st.builds(Fraction, st.integers(-(10**15), 10**15), st.sampled_from((1, 2, 3, 5, 7, 9, 11))),
)


def _fraction_expansion(ring, roots):
    # reference: c_k as the sum over k-subsets of products of Fraction roots
    fractions = [Fraction(x) for x in roots]
    c = [sum((math.prod(s) for s in combinations(fractions, k)), Fraction(0)) for k in (1, 2, 3)]
    return ChernVector.of(ring, len(roots), *c)


@settings(max_examples=150)
@given(
    st.integers(1, 3),
    st.integers(1, 9),
    st.lists(wide_roots, max_size=8),
    st.lists(st.integers(-(10**15), 10**15), max_size=8),
    st.integers(1, 12),
)
@example(3, 1, [], [], 1)
@example(3, 1, [Fraction(-10**15, 7), Fraction(10**15, 9), Fraction(1, 11)], [1, -2, 3, 10], 30)
@example(2, 4, [], [], 30)
def test_bundle_from_roots_matches_fraction_expansion(dim, h_degree, roots, nums, D):
    ring = RankOneRing(dim, Fraction(h_degree))
    assert bundle_from_roots(ring, roots) == _fraction_expansion(ring, roots)
    # the roots n / D, with D not in lowest terms against every n
    fractions = [Fraction(n, D) for n in nums]
    assert bundle_from_roots(ring, fractions) == _fraction_expansion(ring, fractions)


def test_bundle_from_roots_refuses_roots_that_are_not_exact():
    # int and Fraction are the only roots; nothing else is coerced
    for bad in (1.5, 2.0, True, "2", None):
        with pytest.raises(TypeError):
            bundle_from_roots(P3RING, [1, bad])


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize(
    "nums,D",
    [
        ([], 1),
        ([0], 1),
        ([3, -3], 2),  # e1 = 0
        ([2, 2, -1], 3),  # e2 = 0
        ([1, -1, 0], 1),  # e1 = e3 = 0
        ([2, 0, 0], 5),  # e2 = e3 = 0
        ([1, 2, 4, -7], 6),
        ([2, -3, 5], 1),  # integer roots: every c_i a nonzero int
    ],
)
def test_bundle_from_numerators_matches_the_coerced_build(dim, nums, D):
    # the roots n / D: the oracle compares with ==, so the uncoerced build
    # must equal the one GradedClass.of gives; on a surface ring c3
    # truncates to zero
    ring = RankOneRing(dim, Fraction(2))
    e = elementary_symmetric(nums, 3)
    # the scalar contract: Fraction roots give Fraction classes, int roots ints
    for roots, scale, scalar in (([Fraction(n, D) for n in nums], D, Fraction), (nums, 1, int)):
        got = bundle_from_roots(ring, roots)
        assert got == ChernVector.of(ring, len(nums), *(Fraction(e[k], scale**k) for k in (1, 2, 3)))
        assert all(type(c.value) is scalar for c in (got.c1, got.c2, got.c3) if not c.is_zero)
        if dim == 2:
            assert got.c3.is_zero


@given(st.lists(st.integers(-(10**15), 10**15), max_size=8), st.integers(0, 9))
def test_elementary_symmetric_keeps_integers_integral(values, up_to):
    e = elementary_symmetric(values, up_to)
    assert all(type(x) is int for x in e)
    assert e == elementary_symmetric([Fraction(x) for x in values], up_to)


# ---------------------------------------------------------------------------
# integer evaluation points: the oracle and the sampled checks run at the
# numerators D*x of rational roots x, which is sound because every closed
# form is weighted-homogeneous, c_k of degree k in the roots


def _scaled(cls, D):
    """A class at the roots D*x, from its value at x: c_k scales by D^k."""
    return cls if cls.is_zero else D**cls.codim * cls


def _scaled_bundle(E, D):
    return ChernVector(E.rank, *(_scaled(c, D) for c in (E.c1, E.c2, E.c3)))


rational_root = st.builds(Fraction, st.integers(-100, 100), st.sampled_from((1, 2, 3, 5, 7)))
rational_roots = st.lists(rational_root, min_size=1, max_size=8)


def _integer_point(roots):
    nums, D = over_common_denominator(roots)
    assert all(type(n) is int for n in nums)
    return nums, D


@settings(max_examples=60, deadline=None)
@given(rational_roots, rational_root)
def test_closed_forms_at_the_numerators_scale_by_powers_of_the_denominator(roots, t):
    nums, D = _integer_point(roots)
    for closed_form in (tensor_square, sym2, sym3, wedge2):
        ring = RankOneRing(2 if closed_form is sym3 else 3, Fraction(1))
        at_ints = closed_form(bundle_from_roots(ring, nums))
        assert at_ints == _scaled_bundle(closed_form(bundle_from_roots(ring, roots)), D)
        # integer roots and integer coefficients: no Fraction anywhere
        assert all(type(c.value) is int for c in (at_ints.c1, at_ints.c2, at_ints.c3) if not c.is_zero)
    (*nums, t_num), D = _integer_point(roots + [t])
    at_ints = twist(bundle_from_roots(P3RING, nums), divisor(P3RING, t_num))
    assert at_ints == _scaled_bundle(twist(bundle_from_roots(P3RING, roots), divisor(P3RING, t)), D)


@settings(max_examples=60, deadline=None)
@given(rational_roots)
def test_sampled_check_sides_at_the_numerators_scale_by_powers_of_the_denominator(roots):
    nums, D = _integer_point(roots)
    E_int, E = bundle_from_roots(P3RING, nums), bundle_from_roots(P3RING, roots)
    # _whitney: both sides of S^2 E + Lambda^2 E = E (x) E
    for side in (lambda F: direct_sum(sym2(F), wedge2(F)), tensor_square):
        assert side(E_int) == _scaled_bundle(side(E), D)
    # _character_square: both sides of ch(E)^2 = ch(E (x) E), piece by piece
    for side in (lambda F: graded_product(chern_character(F), chern_character(F)),
                 lambda F: chern_character(tensor_square(F))):
        assert side(E_int) == tuple(_scaled(piece, D) for piece in side(E))
    assert _whitney(E_int, nums) and _character_square(E_int, nums)


# ---------------------------------------------------------------------------
# integral closed-form coefficients: (closed form, Chern data the coefficient
# multiplies, the class it lands in, numerator, divisor m, the former
# Fraction polynomial, its degree in r)

INTEGRAL_COEFFICIENTS = [
    (tensor_square, (1, 0), "c3", lambda r: 2 * (2 * r - 3) * (r - 1) * (r + 1), 3,
     lambda r: Fraction(2, 3) * (2 * r**3 - 3 * r**2 - 2 * r + 3), 3),
    (sym2, (1, 0), "c2", lambda r: (r + 2) * (r - 1), 2, lambda r: Fraction((r + 2) * (r - 1), 2), 2),
    (sym2, (1, 0), "c3", lambda r: (r + 3) * (r - 1) * (r - 2), 6,
     lambda r: Fraction((r + 3) * (r - 1) * (r - 2), 6), 3),
    (sym3, (1, 0), "c1", lambda r: (r + 2) * (r + 1), 2, lambda r: Fraction((r + 2) * (r + 1), 2), 2),
    (sym3, (1, 0), "c2", lambda r: (r - 1) * (r + 2) * (r * r + 5 * r + 8), 8,
     lambda r: Fraction((r - 1) * (r + 2) * (r * r + 5 * r + 8), 8), 4),
    (sym3, (0, 1), "c2", lambda r: (r + 2) * (r + 3), 2, lambda r: Fraction((r + 2) * (r + 3), 2), 2),
]


@pytest.mark.parametrize(
    "closed_form,data,slot,numerator,m,former,degree",
    INTEGRAL_COEFFICIENTS,
    ids=[f"{case[0].__name__}-{case[2]}-{case[1]}" for case in INTEGRAL_COEFFICIENTS],
)
def test_integral_coefficients_divide_exactly_for_every_rank(closed_form, data, slot, numerator, m, former, degree):
    # an integer polynomial's value mod m depends only on r mod m, so a
    # zero remainder at every residue proves divisibility for every r
    assert all(numerator(r) % m == 0 for r in range(m))
    # two polynomials of degree <= deg agreeing at deg + 1 points are equal
    ring = RankOneRing(2 if closed_form is sym3 else 3, Fraction(1))
    for r in range(1, degree + 2):
        assert numerator(r) // m == former(r)
        E = ChernVector.of(ring, r, *data)
        assert getattr(closed_form(E), slot).component(int(slot[1])) == former(r)


# ---------------------------------------------------------------------------
# ChernVector: a checked immutable tuple whose closed forms skip the checks


def test_chern_vector_rejects_outside_input_of_the_wrong_type():
    H, z = divisor(K3, (1, 0)), GradedClass(K3)
    for rank in (2.5, True, Fraction(2), "2"):
        with pytest.raises(TypeError):
            ChernVector(rank, H, z, z)
    for classes in ((5, z, z), (H, 14, z), (H, z, None), ((1, 0), z, z)):
        with pytest.raises(TypeError):
            ChernVector(2, *classes)
    with pytest.raises(TypeError):
        ChernVector.of(K3, True)
    # the tuple constructors check too
    with pytest.raises(TypeError):
        ChernVector._make((2.5, H, z, z))
    with pytest.raises(TypeError):
        k3_ulrich_rank2()._replace(rank=True)


def test_chern_vector_is_a_bundle_before_it_is_a_tuple():
    E = k3_ulrich_rank2()
    with pytest.raises(AttributeError):
        E.rank = 3
    with pytest.raises(AttributeError):
        E.c4 = GradedClass(K3)
    with pytest.raises(ValueError):
        E._replace(c2=divisor(K3, (1, 0)))
    assert E._replace(rank=3) == ChernVector.of(K3, 3, (3, 0), 14)
    # no concatenation or repetition: a sum of bundles is direct_sum
    for bad in (lambda: E + E, lambda: E + (1,), lambda: E * 2, lambda: 2 * E):
        with pytest.raises(TypeError):
            bad()
    # equal vectors hash equal, also across int and Fraction values
    same = ChernVector.of(K3, 2, (3, 0), 14)
    assert same == E and hash(same) == hash(E) and len({E, same}) == 1
    as_int = bundle_from_roots(P3RING, [2, -3, 5])
    as_fraction_ = ChernVector.of(P3RING, 3, 4, -11, -30)
    assert as_int == as_fraction_ and hash(as_int) == hash(as_fraction_)
    # the two accepted tuple behaviours
    assert E == (E.rank, E.c1, E.c2, E.c3)
    assert (1,) + E == (1, E.rank, E.c1, E.c2, E.c3)


small_rational = st.builds(Fraction, st.integers(-30, 30), st.sampled_from((1, 2, 3)))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from((P3RING, K3)),
    st.integers(1, 8),
    st.integers(1, 8),
    st.lists(small_rational, min_size=6, max_size=6),
    st.lists(st.integers(-100, 100), min_size=8, max_size=8),
    st.integers(1, 7),
)
def test_closed_form_results_pass_the_constructor_checks(ring, r, s, q, nums, D):
    # the closed forms build their results unchecked; rebuilding each one
    # through the checked constructor shows those checks could not fire
    def bundle(rank, a, b, c2, c3):
        return ChernVector.of(ring, rank, (a, b) if ring is K3 else a, c2, c3)

    E, F = bundle(r, *q[:4]), bundle(s, q[4], q[5], q[0], q[1])
    L = divisor(ring, (q[2], q[5]) if ring is K3 else q[2])
    results = [tensor_square(E), sym2(E), wedge2(E), direct_sum(E, F), dual(E), twist(E, L)]
    if ring is P3RING:
        results.append(bundle_from_roots(ring, [Fraction(n, D) for n in nums[:r]]))
    for result in results:
        assert ChernVector(*result) == result
