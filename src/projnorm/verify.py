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
    ring_degree,
    root_points,
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


def _whitney(E, roots) -> bool:
    return direct_sum(sym2(E), wedge2(E)) == tensor_square(E)


def _character_square(E, roots) -> bool:
    ch = chern_character(E)
    return graded_product(ch, ch) == chern_character(tensor_square(E))


def _sym_k_c1(E, roots) -> bool:
    for k in range(1, 5):
        derived = [sum(c) for c in combinations_with_replacement(roots, k)]
        e1 = elementary_symmetric(derived, 1)[1]
        # the sampled bundles live on a ring with H^3 = 1, so a divisor's degree is its coefficient
        if ring_degree(sym_k_c1(E, k)) != e1:
            return False
    return True


#: Sampled algebraic checks: (row name, check, divisor of the trial count).
#: Each ``check(bundle, roots)`` runs at the random integer points of
#: :func:`~projnorm.exactalg.root_points`, where a nonzero difference of
#: degree k vanishes with probability at most k/201.
_SAMPLED = (
    ("whitney-tensor-square", _whitney, 1),
    ("character-square", _character_square, 1),
    ("sym-k-first-chern", _sym_k_c1, 4),
)


def _surface_powers(V, E) -> tuple:
    S = V.surface()
    return chi_surface(S, tensor_square(E)), chi_surface(S, sym2(E)), chi_surface(S, sym3(E))


def _threefold_powers(V, E) -> tuple:
    t2, s2 = tensor_square(E), sym2(E)
    return (
        chi_threefold_hypersurface(V, t2),
        chi_threefold_hypersurface(V, s2),
        ring_degree(t2.c3),
        ring_degree(s2.c3),
    )


def _count_paths_ok(model, powers, closed_form, d_range, r_range) -> bool:
    """Whether ``powers(V, E)``, computed through Riemann-Roch from the
    solved Ulrich Chern data E of each parity-valid rank on V = model(d),
    equals the closed-form record ``closed_form(d, r)``."""
    for d in d_range:
        V = model(d)
        for r in r_range:
            if parity_ok(r, d) and powers(V, solve_ulrich_chern(V, r)) != closed_form(d, r):
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
    ring = RankOneRing(3, Fraction(1))
    for name, check, thinning in _SAMPLED:
        for r in ranks:
            stream += 1
            points = root_points(r, max(1, trials // thinning), seed + stream)
            add(name, f"r={r}", all(check(bundle_from_roots(ring, p), p) for p in points))

    for name, model, powers, closed_form, r_range in (
        ("surface-count-paths", HypersurfaceP3, _surface_powers, h0_powers_p3_hypersurface, range(1, 5)),
        ("threefold-count-paths", HypersurfaceP4, _threefold_powers, chi_powers_p4_hypersurface, range(2, 5)),
    ):
        add(name, "d=2..6, r<=4", _count_paths_ok(model, powers, closed_form, range(2, 7), r_range))
    add("threefold-chi-structure-sheaf", "d=1..8", _chi_structure_sheaf_ok(range(1, 9)))

    report = ScanReport.build(
        title=f"formula verification (ranks {ranks[0]}..{ranks[-1]}, {trials} trials, seed {seed})",
        params=("check", "case"),
        columns=("ok",),
        provenance=("verify.formula_suite",),
        rows=rows,
    )
    return report, ok_all
