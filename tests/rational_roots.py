"""Random rational Chern roots for tests that need non-integer roots.

``projnorm.exactalg.root_points`` yields integer points only; these draws
keep the ``Fraction`` path of ``chern.bundle_from_roots`` covered, and
:func:`over_common_denominator` gives the integer point of rational roots
for the tests that compare the two.
"""

import math
import random
from fractions import Fraction

#: A root is p/q with p in [-NUMERATOR_BOUND, NUMERATOR_BOUND] and q in DENOMINATORS.
NUMERATOR_BOUND = 100
DENOMINATORS = (1, 2, 3, 5)


def rand_rational(rng: random.Random) -> Fraction:
    """One root ``p/q``, drawn from ``rng`` in that order: p, then q."""
    return Fraction(rng.randint(-NUMERATOR_BOUND, NUMERATOR_BOUND), rng.choice(DENOMINATORS))


def over_common_denominator(values):
    """``(nums, D)`` with ``D`` the lcm of the denominators and ``values[i] == nums[i] / D``."""
    D = math.lcm(*(Fraction(x).denominator for x in values))
    return [int(x * D) for x in values], D
