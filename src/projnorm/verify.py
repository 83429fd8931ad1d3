"""Self-verification of every closed form against independent computation paths.

Three families of checks, all exact:

* splitting-principle oracle runs for the five derived-bundle
  constructions at each requested rank;
* algebraic cross-checks on random exact root data: Whitney
  reconstruction of the tensor square from its symmetric and exterior
  halves, multiplicativity of the Chern character, and the first Chern
  class of symmetric powers against direct multiset enumeration;
* Riemann-Roch cross-checks: the hypersurface section-count closed forms
  against the chi-of-powers pipeline built from the Ulrich Chern solver,
  and chi(O) of threefold hypersurfaces against the monomial count
  1 - binom(d-1, 4).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from .chern import (
    ChernVector,
    bundle_from_roots,
    chern_character,
    direct_sum,
    graded_product,
    sym2,
    sym3,
    sym_k_c1,
    tensor_square,
    twist,
    wedge2,
)
from .exactalg import (
    DEFAULT_SEED,
    RankOneRing,
    binom,
    elementary_symmetric,
    over_common_denominator,
    rand_rational,
    ring_degree,
    splitting_oracle,
)
from .report import ScanReport
from .rr import (
    HypersurfaceP3,
    HypersurfaceP4,
    chi_surface,
    chi_threefold_hypersurface,
    parity_ok,
    solve_ulrich_chern,
)
from .ulrich import chi_powers_p4_hypersurface, h0_powers_p3_hypersurface

_ORACLES = (
    ("tensor-square-oracle", "tensor_square", tensor_square),
    ("sym2-oracle", "sym2", sym2),
    ("sym3-oracle", "sym3", sym3),
    ("wedge2-oracle", "wedge2", wedge2),
    ("line-twist-oracle", "tensor_line", twist),
)


def _sampled_ok(check, rank: int, trials: int, rng: random.Random) -> bool:
    """Whether ``check(bundle, roots)`` holds for ``trials`` bundles with
    ``rank`` random roots each, drawn from ``rng``."""
    ring = RankOneRing(3, Fraction(1))
    for _ in range(trials):
        roots = [rand_rational(rng) for _ in range(rank)]
        if not check(bundle_from_roots(ring, roots), roots):
            return False
    return True


def _whitney(E, roots) -> bool:
    return direct_sum(sym2(E), wedge2(E)) == tensor_square(E)


def _character_square(E, roots) -> bool:
    ch = chern_character(E)
    return graded_product(ch, ch) == chern_character(tensor_square(E))


def _sym_k_c1(E, roots) -> bool:
    nums, D = over_common_denominator(roots)
    for k in range(1, 5):
        derived = [sum(c) for c in combinations_with_replacement(nums, k)]
        e1 = elementary_symmetric(derived, 1)[1]
        if sym_k_c1(E, k).component(1) != Fraction(e1, D):
            return False
    return True


#: Sampled algebraic checks: (row name, check, divisor of the trial count).
_SAMPLED = (
    ("whitney-tensor-square", _whitney, 1),
    ("character-square", _character_square, 1),
    ("sym-k-first-chern", _sym_k_c1, 4),
)


def _surface_counts_ok(d_range, r_range) -> bool:
    for d in d_range:
        V = HypersurfaceP3(d)
        S = V.surface()
        for r in r_range:
            if not parity_ok(r, d):
                continue
            E = solve_ulrich_chern(V, r)
            counts = h0_powers_p3_hypersurface(d, r)
            got = (
                chi_surface(S, tensor_square(E)),
                chi_surface(S, sym2(E)),
                chi_surface(S, sym3(E)),
            )
            if got != (counts.tensor2, counts.sym2, counts.sym3):
                return False
    return True


def _threefold_counts_ok(d_range, r_range) -> bool:
    for d in d_range:
        V = HypersurfaceP4(d)
        for r in r_range:
            if not parity_ok(r, d):
                continue
            E = solve_ulrich_chern(V, r)
            data = chi_powers_p4_hypersurface(d, r)
            t2, s2 = tensor_square(E), sym2(E)
            ring = V.ring
            got = (
                chi_threefold_hypersurface(V, t2),
                chi_threefold_hypersurface(V, s2),
                ring_degree(ring, t2.c3, 3),
                ring_degree(ring, s2.c3, 3),
            )
            if got != (data.chi_tensor2, data.chi_sym2, data.c3_tensor2, data.c3_sym2):
                return False
    return True


def _chi_structure_sheaf_ok(d_range) -> bool:
    # independent count: h^3(O_X) = h^0(K_X) = binom(d-1, 4), h^1 = h^2 = 0
    for d in d_range:
        V = HypersurfaceP4(d)
        trivial = ChernVector.of(V.ring, 1)
        if chi_threefold_hypersurface(V, trivial) != 1 - binom(d - 1, 4):
            return False
    return True


def formula_suite(ranks=range(1, 7), trials: int = 20, seed: int = DEFAULT_SEED):
    """Run the whole verification suite; returns (report, all_ok).

    Per-check sub-seeds are derived deterministically from ``seed``, so
    identical arguments give byte-identical reports.  An empty ``ranks``
    raises ValueError before any check runs.
    """
    ranks = tuple(ranks)
    if not ranks:
        raise ValueError("empty rank range")
    rows = []
    ok_all = True

    def add(name: str, case: str, ok: bool) -> None:
        nonlocal ok_all
        ok_all = ok_all and ok
        rows.append(((name, case), (ok,)))

    stream = 0
    for name, construction, closed_form in _ORACLES:
        for r in ranks:
            stream += 1
            add(name, f"r={r}", splitting_oracle(construction, r, closed_form, trials, seed + stream))
    for name, check, thinning in _SAMPLED:
        for r in ranks:
            stream += 1
            add(name, f"r={r}", _sampled_ok(check, r, max(1, trials // thinning), random.Random(seed + stream)))

    add("surface-count-paths", "d=2..6, r<=4", _surface_counts_ok(range(2, 7), range(1, 5)))
    add("threefold-count-paths", "d=2..6, r<=4", _threefold_counts_ok(range(2, 7), range(2, 5)))
    add("threefold-chi-structure-sheaf", "d=1..8", _chi_structure_sheaf_ok(range(1, 9)))

    report = ScanReport.build(
        title=f"formula verification (ranks {ranks[0]}..{ranks[-1]}, {trials} trials, seed {seed})",
        params=("check", "case"),
        columns=("ok",),
        provenance=("verify.formula_suite",),
        rows=rows,
    )
    return report, ok_all
