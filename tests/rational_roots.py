"""Random rational Chern roots for tests that need non-integer roots.

``projnorm.exactalg.root_points`` yields integer points only; these draws
keep the ``Fraction`` path of ``chern.bundle_from_roots`` covered.
"""

import random
from fractions import Fraction

from projnorm.exactalg import ROOT_DENOMINATORS, ROOT_NUMERATOR_BOUND


def rand_rational(rng: random.Random) -> Fraction:
    """One root ``p/q``, drawn in the order ``root_points`` draws: p, then q."""
    return Fraction(rng.randint(-ROOT_NUMERATOR_BOUND, ROOT_NUMERATOR_BOUND), rng.choice(ROOT_DENOMINATORS))
