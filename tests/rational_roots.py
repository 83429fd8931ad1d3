"""Random rational Chern roots for tests that need non-integer roots.

``projnorm.exactalg.root_points`` yields integer points only; these draws
keep the ``Fraction`` path of ``chern.bundle_from_roots`` covered, and
:func:`over_common_denominator` gives the integer point of rational roots
for the tests that compare the two.
"""

import math
import random
from fractions import Fraction

from projnorm.exactalg import ROOT_DENOMINATORS, ROOT_NUMERATOR_BOUND


def rand_rational(rng: random.Random) -> Fraction:
    """One root ``p/q``, drawn in the order ``root_points`` draws: p, then q."""
    return Fraction(rng.randint(-ROOT_NUMERATOR_BOUND, ROOT_NUMERATOR_BOUND), rng.choice(ROOT_DENOMINATORS))


def over_common_denominator(values):
    """``(nums, D)`` with ``D`` the lcm of the denominators and ``values[i] == nums[i] / D``."""
    D = math.lcm(*(Fraction(x).denominator for x in values))
    return [int(x * D) for x in values], D
