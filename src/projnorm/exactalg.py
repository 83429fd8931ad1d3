"""Exact arithmetic in truncated numerical class rings.

Every scalar in this package is exact: a Python ``int`` where the value
is integral by construction, an arbitrary-precision rational
(``fractions.Fraction``) otherwise; nothing on the computation path ever
touches floating point.  :func:`exact` is the one rule for the scalars a
class, a ring degree, a Gram entry, a surface's chi(O) and a count bound
accept, and a number becomes a ``Fraction`` where it leaves the ring
(:func:`ring_degree`, :func:`as_fraction`, a report cell).  Two ring
shapes cover all the varieties handled downstream:

* :class:`RankOneRing` (dimension ``n``, degree ``d``): a class in
  codimension ``k`` is a rational multiple of ``H^k``, products truncate
  above codimension ``n``, and ``H^n`` integrates to ``d``.

* :class:`SurfaceLattice`: divisor classes are rational combinations of
  named generators (``H`` and ``K`` by convention), stored as a
  :class:`DivisorVector` and paired through a symmetric intersection
  matrix, while codimension-2 classes are stored as already-integrated
  numbers.

A :class:`GradedClass` is homogeneous: one codimension and one component,
built by ``GradedClass.of(ring, codim, value)``, which keeps an ``int`` or
``Fraction`` value (or a vector of them) as given.  The class is a
``typing.NamedTuple``.  Sums over several codimensions, such as a Chern
or Todd class, are kept as tuples of graded pieces.

The module also houses the randomized splitting-principle oracle used to
validate every closed-form Chern-class construction: formal Chern roots
are drawn at random, the derived root multiset of a construction is
expanded, and the elementary symmetric functions of that multiset are
compared with the closed form.  A polynomial identity that fails anywhere
fails a random exact evaluation with overwhelming probability, so
disagreement is proof of an error and repeated agreement is very strong
evidence, with no tolerance questions.

Root arithmetic runs on integers.  :func:`root_points` draws every random
root as an integer, uniform on [-100, 100], for the oracle and for
:mod:`projnorm.verify` alike.  Both sides of an identity are evaluated at
those roots, and a nonzero difference of degree ``k`` vanishes at a uniform
point with probability at most ``k / 201`` (see :func:`splitting_oracle`).
``chern.bundle_from_roots`` takes the roots as given and builds both oracle
sides: Chern classes of integer roots are ints, and closed forms keep them so.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction]

#: Default seed for every randomized check; override per call or via the CLI.
DEFAULT_SEED = 7

#: Random Chern roots are integers in [-ROOT_BOUND, ROOT_BOUND].
ROOT_BOUND = 100


class RingMismatchError(ValueError):
    """Two graded classes (or a class and a ring) live in different rings."""


class ParityError(ValueError):
    """r*(d-1) is odd, so no integral first Chern class exists."""


class SolverError(RuntimeError):
    """The linear system for the unknown Chern numbers is singular or inconsistent."""


class DataError(ValueError):
    """Numerical input is inconsistent with the constraints it claims to satisfy."""


def exact(value) -> Scalar:
    """``value`` as a class scalar: an ``int`` or a ``Fraction`` as given, a
    subclass of either (an ``IntEnum`` member) as its base type; ``bool``,
    ``float`` and everything else raise ``TypeError``."""
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, Fraction):
        return Fraction(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"expected an integer or Fraction, got {value!r}")


def as_fraction(value: Scalar) -> Fraction:
    # an exact int is tested first: for an int, isinstance(value, Fraction)
    # runs the slow ABC check of numbers.Rational
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    return Fraction(exact(value))


def quotient(value: Scalar, n: int) -> Scalar:
    """``value / n`` exactly: an ``int`` where ``n`` divides an ``int``
    value, a ``Fraction`` otherwise."""
    if type(value) is int:
        q, rem = divmod(value, n)
        return Fraction(value, n) if rem else q
    return value / n


def parse_rational(text: str) -> Fraction:
    """Parse ``p``, ``p/q`` or an exact decimal into an exact rational.

    Decimals are read exactly: ``"1.5"`` is 3/2 and ``"1e3"`` is 1000.  On
    the command line a negative fraction is joined to its option with ``=``
    (``--c2=-7/4``); argparse takes a separate ``-7/4`` for an option.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def binom(n: int, k: int) -> int:
    """Binomial coefficient, extended to negative ``n`` by falling factorials.

    The extension matters only formally (coefficients multiplying classes
    that vanish anyway); for ``n >= 0`` this is ``math.comb``.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    num = 1
    for i in range(k):
        num *= n - i
    return num // math.factorial(k)


# ---------------------------------------------------------------------------
# rings

#: Builds a record from its field tuple without its constructor: without
#: the keyword-default wrapper of a class, or the checks of a ring.
_new = tuple.__new__


class _RankOneFields(NamedTuple):
    dim: int
    h_degree: Scalar


class RankOneRing(_RankOneFields):
    """Truncated ring Q[H]/(H^(dim+1)) with a degree map H^dim -> h_degree.

    ``RankOneRing(dim, h_degree)``, ``_make`` and ``_replace`` check that
    ``dim`` lies in 1..3 and keep ``h_degree`` as given by :func:`exact`:
    an ``int`` stays an ``int`` and a ``Fraction`` a ``Fraction``.
    """

    __slots__ = ()

    def __new__(cls, dim: int, h_degree: Scalar) -> "RankOneRing":
        return cls._make((dim, h_degree))

    @classmethod
    def _make(cls, fields) -> "RankOneRing":
        dim, h_degree = fields
        if not 1 <= dim <= 3:
            raise ValueError("only dimensions 1..3 are modeled")
        return _new(cls, (dim, exact(h_degree)))

    def __repr__(self) -> str:
        return f"RankOneRing(dim={self.dim}, H^{self.dim}={self.h_degree})"


class _LatticeFields(NamedTuple):
    basis: tuple
    gram: tuple


class SurfaceLattice(_LatticeFields):
    """Divisor lattice of a surface with a symmetric intersection matrix.

    ``basis`` names the generators, by convention ("H", "K") with H the
    hyperplane class and K the canonical class.  Codimension-2 classes are
    kept as already-integrated numbers, which is all any surface formula
    downstream consumes.

    ``SurfaceLattice(basis, gram)``, ``_make`` and ``_replace`` check that
    the basis is not empty and that ``gram`` is a symmetric square matrix
    of its size; they store the names as ``str`` and each entry as given
    by :func:`exact`, both in tuples.
    """

    __slots__ = ()

    def __new__(cls, basis: Sequence[str], gram: Sequence[Sequence[Scalar]]) -> "SurfaceLattice":
        return cls._make((basis, gram))

    @classmethod
    def _make(cls, fields) -> "SurfaceLattice":
        basis, gram = fields
        basis = tuple(str(s) for s in basis)
        if not basis:
            raise ValueError("a surface lattice needs at least one generator")
        n = len(basis)
        rows = []
        for row in gram:
            row = tuple(exact(v) for v in row)
            if len(row) != n:
                raise ValueError("intersection matrix shape does not match basis")
            rows.append(row)
        gram = tuple(rows)
        if len(gram) != n:
            raise ValueError("intersection matrix shape does not match basis")
        for i in range(n):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("intersection matrix must be symmetric")
        return _new(cls, (basis, gram))

    @property
    def dim(self) -> int:
        return 2

    def pair(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
        """Evaluate the intersection form on two divisor coefficient vectors.

        The sum starts from ``0`` and is exact: an ``int`` when both vectors
        and the Gram entries they meet hold ints, a ``Fraction`` otherwise."""
        total = 0
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            for j, vj in enumerate(v):
                if vj != 0:
                    total += ui * vj * self.gram[i][j]
        return total

    def generator(self, i: int) -> "DivisorVector":
        """Coefficient vector of the ``i``-th generator (H for ``i = 0``)."""
        return DivisorVector(int(j == i) for j in range(len(self.basis)))

    def __repr__(self) -> str:
        return f"SurfaceLattice(basis={self.basis})"


class DivisorVector(tuple):
    """Divisor coefficients on a surface lattice, with vector arithmetic.

    ``+``, unary ``-`` and scalar ``*`` act coefficientwise; a vector is
    true when some coefficient is nonzero.  Equality and hashing are the
    tuple's.
    """

    __slots__ = ()

    def __add__(self, other: "DivisorVector") -> "DivisorVector":
        return DivisorVector(x + y for x, y in zip(self, other))

    def __neg__(self) -> "DivisorVector":
        return DivisorVector(-x for x in self)

    def __mul__(self, scalar) -> "DivisorVector":
        # ``type`` rather than ``isinstance``: a bool is not a scalar here
        if type(scalar) is not int and type(scalar) is not Fraction:
            return NotImplemented
        return DivisorVector(x * scalar for x in self)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return any(self)


Ring = Union[RankOneRing, SurfaceLattice]


def _coerce_component(ring: Ring, codim: int, value):
    if isinstance(ring, SurfaceLattice) and codim == 1:
        if isinstance(value, (int, Fraction)):
            # scalar shorthand: a multiple of the first generator (H)
            return ring.generator(0) * exact(value)
        vec = DivisorVector(exact(v) for v in value)
        if len(vec) != len(ring.basis):
            raise ValueError("divisor coefficient vector does not match lattice basis")
        return vec
    return exact(value)


class GradedClass(NamedTuple):
    """A homogeneous numerical class in a truncated ring.

    A nonzero class has one codimension ``codim``, no higher than the ring
    dimension, and one exact nonzero component ``value`` in that ring's
    shape: an ``int`` or a ``Fraction``, or a :class:`DivisorVector` of
    them for surface divisors.  :meth:`of` keeps each value as given
    (:func:`exact`), and arithmetic keeps an ``int`` until it meets a
    ``Fraction``.
    The zero class has neither (both are None), so structural equality is
    semantic equality, and equal classes hash equal also when one value is
    an ``int`` and the other a ``Fraction``.  A sum over several
    codimensions (a Chern character, a Todd class) is a tuple of graded
    pieces instead.  ``GradedClass(ring)`` is the zero class.  :meth:`of`
    builds a class from one outside value, coerced into that shape;
    arithmetic trusts its own components and builds results without
    coercing them again.  A class carries its ring and codimension, so
    :func:`ring_degree` reads its degree from the class alone.

    ``+`` and ``*`` between classes first check the ring, by identity and
    then by equality, so a mismatch raises :class:`RingMismatchError` even
    when one side is zero.  ``a - b`` is ``a + -b``.  ``+`` and ``-`` of
    two nonzero classes in different codimensions raise ``ValueError``.
    A scalar multiple (``q * a`` or ``a * q``) takes an ``int`` or
    ``Fraction``; ``bool``, ``float`` and every other operand raise
    ``TypeError``, as does ``a + x`` for anything but a class.

    The class is an immutable ``typing.NamedTuple`` of ``(ring, codim,
    value)``.  Two tuple behaviours remain and are accepted: a class
    equals the bare tuple of its fields, and ``tuple + class``
    concatenates the two as tuples.
    """

    ring: Ring
    codim: Optional[int] = None
    value: object = None

    @staticmethod
    def of(ring: Ring, codim: int, value) -> "GradedClass":
        """The class ``value`` in codimension ``codim``, checked in any; zero above ``ring.dim``.

        Each scalar, a vector entry included, passes :func:`exact`; a
        scalar surface divisor is that multiple of the first generator (H).
        """
        if codim < 0:
            raise ValueError("negative codimension")
        value = _coerce_component(ring, codim, value)
        if codim > ring.dim or not value:
            return GradedClass(ring)  # truncation, or the zero value
        return GradedClass(ring, codim, value)

    @property
    def is_zero(self) -> bool:
        return self.codim is None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "GradedClass") -> "GradedClass":
        if type(other) is not GradedClass:
            return NotImplemented
        ring = self.ring
        if other.ring is not ring and other.ring != ring:
            raise RingMismatchError("classes live in different rings")
        k = other.codim
        if k is None:
            return self
        if self.codim is None:
            return other
        if self.codim != k:
            raise ValueError("a class has one codimension; keep a mixed sum as graded pieces")
        s = self.value + other.value
        return _new(GradedClass, (ring, k, s)) if s else GradedClass(ring)

    def __neg__(self) -> "GradedClass":
        if self.codim is None:
            return self
        return _new(GradedClass, (self.ring, self.codim, -self.value))

    def __sub__(self, other: "GradedClass") -> "GradedClass":
        if type(other) is not GradedClass:
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        if type(other) is not GradedClass:
            return self.__rmul__(other)
        ring = self.ring
        if other.ring is not ring and other.ring != ring:
            raise RingMismatchError("classes live in different rings")
        i, j = self.codim, other.codim
        if i is None or j is None or i + j > ring.dim:
            return GradedClass(ring)
        x, y = self.value, other.value
        # two divisors on a surface lattice pair through the Gram matrix
        c = ring.pair(x, y) if i == j == 1 and type(ring) is SurfaceLattice else x * y
        return _new(GradedClass, (ring, i + j, c)) if c else GradedClass(ring)

    def __rmul__(self, other):
        # ``type`` rather than ``isinstance``: a bool is not a scalar here
        if type(other) is int or type(other) is Fraction:
            if not other or self.codim is None:
                return GradedClass(self.ring)
            return _new(GradedClass, (self.ring, self.codim, self.value * other))
        return NotImplemented

    def __repr__(self) -> str:
        return "0" if self.codim is None else _format_component(self.ring, self.codim, self.value)


def _format_component(ring: Ring, codim: int, value) -> str:
    if isinstance(ring, SurfaceLattice):
        if codim == 0:
            return f"{value}*1"
        if codim == 1:
            terms = [f"{c}*{s}" for c, s in zip(value, ring.basis) if c != 0]
            return "(" + " + ".join(terms) + ")"
        return f"{value}@2"
    if codim == 0:
        return f"{value}*1"
    if codim == 1:
        return f"{value}*H"
    return f"{value}*H^{codim}"


def unit(ring: Ring, value: Scalar = 1) -> GradedClass:
    """The codimension-0 class ``value * [X]``."""
    return GradedClass.of(ring, 0, value)


def divisor(ring: Ring, coeffs) -> GradedClass:
    """A codimension-1 class: a scalar (multiple of H) or a coefficient vector."""
    return GradedClass.of(ring, 1, coeffs)


def ring_degree(cls: GradedClass) -> Fraction:
    """Intersection number of a class against the complementary H power.

    The ring and the codimension are the class's own.  Rank-one rings send
    ``q*H^k`` to ``q*d``.  Surface lattices return the stored number in
    codimension 2, the pairing with H in codimension 1, and ``q*(H.H)`` in
    codimension 0.  The zero class has degree 0.  This is where a degree
    leaves the ring: each branch returns a ``Fraction``, also for an
    ``int``-valued class on an ``int``-valued ring.
    """
    ring, codim, value = cls
    if codim is None:
        return Fraction(0)
    if isinstance(ring, RankOneRing):
        return as_fraction(value * ring.h_degree)
    if codim == 2:
        return as_fraction(value)
    if codim == 1:
        return as_fraction(ring.pair(value, ring.generator(0)))
    return as_fraction(value * ring.gram[0][0])


def numerically_equal(a: GradedClass, b: GradedClass) -> bool:
    """Equality as numerical classes.

    Coefficient vectors on a surface lattice are representatives, not
    canonical forms: when the generators satisfy a relation the
    intersection matrix is degenerate and distinct vectors can pair
    identically against everything.  Divisor components are therefore
    compared through their pairings with every generator; all other
    components are canonical and compared directly.  Two nonzero classes
    in different codimensions are never equal.
    """
    if a.ring != b.ring:
        raise RingMismatchError("classes live in different rings")
    if a.codim != b.codim and not (a.is_zero or b.is_zero):
        return False
    ring, diff = a.ring, a - b
    if diff.codim == 1 and isinstance(ring, SurfaceLattice):
        return not any(ring.pair(diff.value, ring.generator(i)) for i in range(len(ring.basis)))
    return diff.is_zero


# ---------------------------------------------------------------------------
# symmetric functions and the splitting-principle oracle


def elementary_symmetric(values: Sequence[Scalar], up_to: int) -> list:
    """e_0..e_{up_to} of the multiset ``values`` (exact).

    The recurrence only adds and multiplies, so integer values give
    integer ``e_k`` and ``Fraction`` values give ``Fraction`` ones.
    """
    e = [1] + [0] * up_to
    degrees = range(min(up_to, len(values)), 0, -1)
    for x in values:
        for k in degrees:
            e[k] += e[k - 1] * x
    return e


def root_points(count: int, trials: int, seed: int) -> Iterator[list]:
    """``trials`` points of ``count`` random Chern roots each, as integers.

    A point is ``count`` successive ``randint(-100, 100)`` draws from one
    ``random.Random(seed)``.
    """
    randint = random.Random(seed).randint
    for _ in range(trials):
        yield [randint(-ROOT_BOUND, ROOT_BOUND) for _ in range(count)]


#: The splitting oracle's constructions and their derived root multisets;
#: ``tensor_line`` twists by one more root, the last entry of the point.
_DERIVED_ROOTS: Mapping[str, Callable] = {
    "tensor_square": lambda xs: [x + y for x in xs for y in xs],
    "sym2": lambda xs: [x + y for x, y in combinations_with_replacement(xs, 2)],
    "sym3": lambda xs: [x + y + z for x, y, z in combinations_with_replacement(xs, 3)],
    "wedge2": lambda xs: [x + y for x, y in combinations(xs, 2)],
    "tensor_line": lambda xs: [x + xs[-1] for x in xs[:-1]],
}


def splitting_oracle(
    construction: str,
    rank: int,
    closed_form: Callable,
    trials: int = 20,
    seed: int = DEFAULT_SEED,
) -> bool:
    """Check a closed-form Chern construction against formal root expansion.

    Each trial takes a point of :func:`root_points`: ``rank`` integer Chern
    roots, with the line-bundle root as the last entry of a ``rank + 1``
    point for ``tensor_line``.  ``closed_form`` on the bundle with those
    roots is compared with ``bundle_from_roots`` of the derived root
    multiset: True iff every trial agrees in rank and in every class.

    Both sides are evaluated at random integer roots, each uniform on
    [-100, 100].  The difference of the two sides in codimension ``k`` is
    a polynomial of degree ``k`` in the roots, so by Schwartz-Zippel a
    trial misses a nonzero difference with probability at most ``k / 201``.
    At integer roots every class, the twist divisor included, is an int.

    ``closed_form`` maps a ChernVector to a ChernVector, except for
    ``tensor_line`` where it takes ``(bundle, divisor)`` (the twist rule).
    """
    from .chern import bundle_from_roots, ChernVector  # deferred: keeps the ring layer standalone

    if rank < 1:
        raise ValueError("rank must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if construction not in _DERIVED_ROOTS:
        raise ValueError(f"unsupported construction {construction!r}")

    # sym3 has no closed third Chern class, so it is checked in a
    # 2-dimensional ring where degree 3 truncates away.
    ring = RankOneRing(2 if construction == "sym3" else 3, 1)
    derive, twisted = _DERIVED_ROOTS[construction], construction == "tensor_line"
    for point in root_points(rank + 1 if twisted else rank, trials, seed):
        if twisted:
            actual = closed_form(bundle_from_roots(ring, point[:-1]), divisor(ring, point[-1]))
        else:
            actual = closed_form(bundle_from_roots(ring, point))
        expected = bundle_from_roots(ring, derive(point))
        if not isinstance(actual, ChernVector) or actual != expected:
            return False
    return True
