"""Projective-normality verdicts from exact dimension counts and thresholds.

Every operation returns structured :class:`NormalityVerdict` values and
never a bare boolean.  Three levels are distinguished and never mixed:

* ``not-k-normal`` / ``not-strongly-k-normal``: a counting obstruction
  was proved (the symmetric or tensor power has more sections than the
  source of the multiplication map can supply);
* ``positive``: a sufficient numerical hypothesis fired, recorded in
  ``theorem`` as the exact inequality;
* ``inconclusive``: the count passed, which proves nothing by itself.

Square-root thresholds are evaluated by exact squared-integer comparison
with sign guards, so boundary cases can never be flipped by rounding.
Statements that hold only for general curves or general bundles carry a
"generic statement" note.  Only ``general-sharp-degree`` also reads the
generality flag (``CurveCase.general``); ``clifford-degree``, ``mrc-count``
and ``low-degree-general`` fire without it.  Gating them is ROADMAP item 3.
On curves the 2-count obstructs no realizable cell in any rank: h^0(S^2 E)
= r(r+1)(2d+g-1)/2 is at most binom(rd+1, 2) wherever 2g <= (d-1)(d-2).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Tuple

from .chern import ChernVector, segre_dual
from .exactalg import DataError, RingMismatchError, Scalar, _new, as_fraction, binom, exact, ring_degree
from .report import ScanReport, grid_scan
from .rr import HypersurfaceP4, Surface
from .ulrich import PowerCounts, ThreefoldPowerData, chi_powers_p4_hypersurface, h0_powers_p3_hypersurface

NOT_K_NORMAL = "not-k-normal"
NOT_STRONGLY_K_NORMAL = "not-strongly-k-normal"
POSITIVE = "positive"
INCONCLUSIVE = "inconclusive"

GENERIC_NOTE = "generic statement: holds for the general member, not pointwise"

#: Conjectural syzygy threshold, reported alongside the proved one but never asserted.
NP_CONJECTURE_NOTE = "conjectured (not asserted): level p should already follow from d > g+1+p"


class Witness(NamedTuple):
    """The evaluated inequality behind a verdict.

    Both sides are exact as the rule computed them: an ``int`` where the
    rule compares integers (every count and curve rule), a ``Fraction``
    where its inputs were rational.  They become ``Fraction`` only at the
    report cell (``cli._verdict_row``, ``cli._count_cells``).
    """

    lhs: Scalar
    relation: str
    rhs: Scalar


#: The exact types a witness side may have (``type(side)``, so a bool is refused).
_SIDE_TYPES = (int, Fraction)


class NormalityVerdict(NamedTuple):
    rule: str
    status: str
    k: Optional[int] = None
    theorem: Optional[str] = None
    witness: Optional[Witness] = None
    notes: Tuple[str, ...] = ()

    @property
    def fired(self) -> bool:
        return self.status == POSITIVE

    @property
    def status_label(self) -> str:
        if self.status == NOT_K_NORMAL:
            return f"not-{self.k}-normal"
        if self.status == NOT_STRONGLY_K_NORMAL:
            return f"not-strongly-{self.k}-normal"
        return self.status


class _CurveFields(NamedTuple):
    genus: int
    degree: int
    rank: int
    syzygy_levels: Tuple[int, ...]
    clifford: Optional[int]
    very_ample: bool
    general: bool


class CurveCase(_CurveFields):
    """Numerical data of an Ulrich bundle on a polarized curve.

    ``clifford`` is the Clifford index of the curve, the minimum of
    deg A - 2(h^0(A) - 1) over line bundles A with h^0(A) >= 2 and
    h^1(A) >= 2.  It is not computable from (g, d) alone, so it is
    caller-supplied (in 0..max(0, (g-1)//2)) and left None when unknown.
    Ulrich bundles here are semistable of slope d + g - 1 whatever the
    rank, so the degree thresholds need no separate slope input and
    ``rank`` feeds only the ``h0`` row, never a verdict.  ``very_ample``
    is stored, but no rule needs it yet.  ``general`` says that both the
    curve and the bundle are general; of the generic rules, only
    ``general-sharp-degree`` reads it so far (ROADMAP item 3).

    ``CurveCase(...)``, ``_make`` and ``_replace`` check the genus,
    degree and rank, that each syzygy level is at least 2 and given once,
    and that a known Clifford index lies in its range.
    """

    __slots__ = ()

    def __new__(
        cls,
        genus: int,
        degree: int,
        rank: int = 1,
        syzygy_levels: Tuple[int, ...] = (),
        clifford: Optional[int] = None,
        very_ample: bool = False,
        general: bool = False,
    ) -> "CurveCase":
        return cls._make((genus, degree, rank, syzygy_levels, clifford, very_ample, general))

    @classmethod
    def _make(cls, fields) -> "CurveCase":
        fields = tuple(fields)
        genus, degree, rank, syzygy_levels, clifford, _, _ = fields
        if genus < 0 or degree < 1 or rank < 1:
            raise ValueError("need genus >= 0, degree >= 1, rank >= 1")
        if syzygy_levels and min(syzygy_levels) < 2:
            raise ValueError("syzygy levels start at p = 2")
        if len(set(syzygy_levels)) != len(syzygy_levels):
            # walked only to name the first repeated level
            for i, p in enumerate(syzygy_levels):
                if p in syzygy_levels[:i]:
                    raise ValueError(f"syzygy level p = {p} is given more than once")
        top = max(0, (genus - 1) // 2)
        if clifford is not None and not 0 <= clifford <= top:
            raise ValueError(f"Clifford index must lie in 0..{top} at genus {genus} (got {clifford})")
        return _new(cls, fields)


def _verdict(rule, holds, relations, lhs, rhs, *, status=POSITIVE, k=None, theorem=None, notes=(), unmet=()):
    """The one constructor of a verdict from an exact inequality.

    The verdict takes ``status`` only when the inequality ``holds`` and no
    hypothesis is ``unmet``, and is inconclusive otherwise.  The witness
    reads ``lhs relations[0] rhs`` when the inequality holds and
    ``lhs relations[1] rhs`` when it does not; ``lhs=None`` means no
    witness.  Each unmet hypothesis is a note, after ``notes``.  The two
    sides are stored as given, each exactly an ``int`` or a ``Fraction``;
    any other type (a float, a bool) is a ``TypeError``.
    """
    witness = None
    if lhs is not None:
        if type(lhs) not in _SIDE_TYPES or type(rhs) not in _SIDE_TYPES:
            raise TypeError(f"a witness side must be an int or a Fraction, got {lhs!r} and {rhs!r}")
        witness = _new(Witness, (lhs, relations[0] if holds else relations[1], rhs))
    return _new(NormalityVerdict, (
        rule, status if holds and not unmet else INCONCLUSIVE, k, theorem, witness, notes + unmet
    ))


# ---------------------------------------------------------------------------
# counting obstructions


def dimension_test(h0: int, k: int, h0_symk_lower, strong: bool = False, *, notes=()) -> NormalityVerdict:
    """Compare dim S^k H^0 (or dim (H^0)^(x)k in strong mode) with a lower
    bound for the section count of the k-th power.

    A strict shortfall proves the multiplication map cannot surject and
    yields a failure verdict; anything else is inconclusive, because the
    count passing is only a necessary condition.  ``notes`` are carried
    into the verdict unchanged.  The bound is read through :func:`exact`,
    so an ``int`` is compared as an ``int`` and stays one in the witness.
    """
    if k < 2:
        raise ValueError("k-normality counting starts at k = 2")
    lower = exact(h0_symk_lower)
    if strong:
        rule, status, available = f"strong-{k}-normality-count", NOT_STRONGLY_K_NORMAL, h0**k
    else:
        rule, status, available = f"{k}-normality-count", NOT_K_NORMAL, binom(h0 + k - 1, k)
    # a count that passes says which way: exactly met or exceeded
    passed = "=" if available == lower else ">"
    return _verdict(rule, available < lower, ("<", passed), available, lower, status=status, k=k, notes=notes)


def classify_p3_hypersurface(d: int, r: int) -> Tuple[NormalityVerdict, NormalityVerdict, PowerCounts]:
    """2- and 3-normality counting verdicts for rank-r Ulrich bundles on a
    degree-d surface in P^3 with det E = O(r(d-1)/2).

    Returns ``(v2, v3, counts)``: the two verdicts, then the PowerCounts
    they judge.  The counts are h^0 = chi, by the Ulrich-resolution
    argument in the :mod:`projnorm.ulrich` docstring: E(x)E, S^2 E and
    S^3 E have no higher cohomology.  The 2-count margin factors as

        24 (h^0(S^2 E) - binom(rd+1, 2)) = r d (d-1)(r(d-5)+6),

    whose last factor is >= 6 from d = 5 on, so the 2-normality count
    passes exactly on {d=2} u {d=3, r>=3} u {d=4, r>=6} over every
    degree.  The 3-normality slack dim S^3 H^0 - h^0(S^3 E) equals
    r d (d-1)(r-2)(d(7r+2)+r+8)/72 (checked here against the counts).
    It is negative in rank 1 (every odd d >= 3), so the 3-count fails
    there; it is zero in rank 2 and positive for r >= 3.
    """
    counts = h0_powers_p3_hypersurface(d, r)  # enforces d >= 2 and parity
    h0 = r * d
    slack3_numerator = r * d * (d - 1) * (r - 2) * (d * (7 * r + 2) + r + 8)
    if 72 * (binom(h0 + 2, 3) - counts.sym3) != slack3_numerator:
        raise DataError("3-normality slack disagrees with its closed form")
    return dimension_test(h0, 2, counts.sym2), dimension_test(h0, 3, counts.sym3), counts


def classify_p4_hypersurface(d: int, r: int) -> Tuple[NormalityVerdict, NormalityVerdict, ThreefoldPowerData]:
    """Strong-2 and 2-normality verdicts on a degree-d threefold in P^4.

    Returns ``(strong, plain, powers)``: the two verdicts, then the
    ThreefoldPowerData they judge.  h^2 = h^3 = 0 for E(x)E and S^2 E
    (the :mod:`projnorm.ulrich` docstring), so h^0 = chi + h^1 >= chi for
    both, and chi(E(x)E) > (rd)^2 disproves surjectivity of the
    multiplication map for every d >= 4, and chi(S^2 E) > binom(rd+1, 2)
    disproves 2-normality.  The 2-count margin factors as

        48 (chi(S^2 E) - binom(rd+1, 2)) = r d (d-1)(d-3)(3r-4-d),

    so for d >= 4 the 2-count fails exactly when 3r > d+4.  Below that
    range it never fails: the margin is 0 at d = 1 and d = 3, and at
    d = 2 (even r) it is -r(r-2)/8, negative for every r > 2.
    """
    data = chi_powers_p4_hypersurface(d, r)  # enforces d >= 1 and parity
    h0 = r * d
    notes: Tuple[str, ...] = ("euler characteristic used as a lower bound for h^0",)
    if d < 4:
        notes = notes + ("degree below 4: outside the proved range, raw counts only",)
    return (
        dimension_test(h0, 2, data.chi_tensor2, strong=True, notes=notes),
        dimension_test(h0, 2, data.chi_sym2, notes=notes),
        data,
    )


# ---------------------------------------------------------------------------
# special line-bundle loci audit


#: Genus floors g_h above which the general non-special line bundle of
#: degree 2g-h is projectively normal, h = 2..5.
KKO_GENUS_FLOOR = {2: 15, 3: 17, 4: 27, 5: 33}

#: Exceptional-locus parameters (j, a, b) per h: the non-normally-generated
#: line bundles of degree 2g-h sit over loci of dimension <= a-2j-1+b.
KKO_TUPLES = {
    2: ((1, 3, 6), (1, 4, 4)),
    3: ((1, 3, 8), (1, 4, 3), (1, 5, 4)),
    4: ((1, 3, 10), (1, 4, 6), (1, 5, 3), (1, 6, 4), (2, 8, 6)),
    5: ((1, 3, 12), (1, 4, 5), (1, 5, 2), (1, 6, 3), (1, 7, 4), (2, 8, 5), (2, 9, 6)),
}

#: Low-degree statement exposed with the audit: on a smooth embedded curve of
#: genus g >= 3 and degree d > 1 with d in {g, g+1}, every Ulrich line bundle
#: is projectively normal (and the general rank-r Ulrich bundle likewise).
KKO_DEGREE_WINDOW = "d in {g, g+1}"


class KkoRow(NamedTuple):
    h: int
    genus_floor: int
    j: int
    a: int
    b: int
    bound: int
    ok: bool


def kko_audit() -> Tuple[KkoRow, ...]:
    """Audit the exceptional-locus dimension bounds a-2j-1+b < g_h.

    Each stored tuple must bound the locus of non-normally-generated
    line bundles strictly below the Picard-variety dimension; a failed
    row would invalidate the genericity conclusion.
    """
    rows = []
    for h in sorted(KKO_TUPLES):
        floor = KKO_GENUS_FLOOR[h]
        for (j, a, b) in KKO_TUPLES[h]:
            bound = a - 2 * j - 1 + b
            rows.append(KkoRow(h, floor, j, a, b, bound, bound < floor))
    return tuple(rows)


# ---------------------------------------------------------------------------
# positive thresholds on curves


class CurveRule(NamedTuple):
    """One curve rule as data: ``sides(g, d, x)`` gives ``(holds, lhs, rhs)``.

    ``x`` is the CurveCase, or the level p on ``np-degree-p``, whose name
    and theorem end in p; ``lhs=None`` means no witness.  A positive
    verdict adds ``fired_notes``, and ``equality_notes`` when lhs == rhs;
    ``needs`` names the CURVE_NEEDS entries it must meet, read on the case.
    """

    rule: str
    theorem: str
    relations: Tuple[str, str]
    sides: Callable
    notes: Tuple[str, ...] = ()
    fired_notes: Tuple[str, ...] = ()
    equality_notes: Tuple[str, ...] = ()
    needs: Tuple[str, ...] = ()


#: Hypotheses any curve rule may need: a test on its CurveCase and the note when it fails.
CURVE_NEEDS = {
    "clifford": (lambda case: case.clifford is not None, "Clifford index not supplied"),
    "general": (lambda case: case.general, "generality flags not set"),
    "genus-3": (lambda case: case.genus >= 3, "needs genus >= 3"),
}


def _syzygy_sides(g, d, p):
    guard = 2 * d - (g + p + 1)
    if guard <= 0:
        # below the guard the witness is the guard itself, 2d <= g+p+1
        return False, 2 * d, g + p + 1
    disc = g * g + 2 * g * (3 * p + 1) + (p - 1) ** 2
    return guard * guard > disc, guard * guard, disc


def _clifford_sides(g, d, case):
    if case.clifford is None:
        return False, None, None
    return d >= g + 2 - case.clifford, d, g + 2 - case.clifford


def _low_degree_general_sides(g, d, case):
    h = g - d + 1  # the one h with d = g-h+1
    if h in KKO_GENUS_FLOOR and g >= KKO_GENUS_FLOOR[h]:
        return d > 1, d, d
    return False, None, d


_RANK_ONE_SHARP = (GENERIC_NOTE, "bound sharp for rank 1")

#: Every curve rule in report order: those of ``curve_thresholds`` (``np-degree-p``
#: once per syzygy level), then ``mrc_check``, then ``kko_curve_window``.
CURVE_RULES = (
    CurveRule("pn-degree", "d > g+1", (">", "<="), lambda g, d, x: (d > g + 1, d, g + 1),
              fired_notes=("projectively normal, with cubic-generated ideal",)),
    CurveRule("n1-koszul-degree", "d > g+2", (">", "<="), lambda g, d, x: (d > g + 2, d, g + 2),
              fired_notes=("syzygy level 1 and Koszul tautological ring",)),
    CurveRule("np-degree-p", "2d-(g+p+1) > 0 and (2d-(g+p+1))^2 > g^2+2g(3p+1)+(p-1)^2 at p=", (">", "<="),
              _syzygy_sides, (NP_CONJECTURE_NOTE,)),
    CurveRule("clifford-degree", "d >= g+2-Cliff(C)", (">=", "<"), _clifford_sides,
              (GENERIC_NOTE, "needs a base-point-free series mapping the curve etale onto its image"),
              needs=("clifford",)),
    CurveRule("general-sharp-degree", "(2d-3)^2 >= 8g+1 on a general curve with a general very ample polarization",
              (">=", "<"), lambda g, d, x: (d >= 2 and (2 * d - 3) ** 2 >= 8 * g + 1, (2 * d - 3) ** 2, 8 * g + 1),
              _RANK_ONE_SHARP, equality_notes=("boundary equality",), needs=("general", "genus-3")),
    CurveRule("mrc-count", "binom(d+1,2) >= 2d+g-1", (">=", "<"),
              lambda g, d, x: (d * (d + 1) // 2 >= 2 * d + g - 1, d * (d + 1) // 2, 2 * d + g - 1),
              _RANK_ONE_SHARP, equality_notes=("sharpness boundary: counts agree exactly",)),
    CurveRule("low-degree-window", KKO_DEGREE_WINDOW, ("in", "not-in"),
              lambda g, d, x: (g >= 3 and d > 1 and d in (g, g + 1), d, g),
              ("all Ulrich line bundles; general bundles in higher rank",)),
    CurveRule("low-degree-general", "d = g-h+1 and g >= g_h for some h in {2,3,4,5}", ("=", "!="),
              _low_degree_general_sides, (GENERIC_NOTE,)),
)
THRESHOLD_RULES, (MRC_RULE,), WINDOW_RULES = CURVE_RULES[:5], CURVE_RULES[5:6], CURVE_RULES[6:]
SYZYGY_RULE = THRESHOLD_RULES[2]


def _curve_verdict(row: CurveRule, case: CurveCase, p: Optional[int] = None) -> NormalityVerdict:
    """The verdict of one curve rule on the case; the syzygy level ``p`` ends its name and theorem."""
    rule, theorem, relations, sides, notes, fired_notes, equality_notes, needs = row
    if p is not None:
        rule, theorem = rule + str(p), theorem + str(p)
    holds, lhs, rhs = sides(case.genus, case.degree, case if p is None else p)
    unmet = ()
    if needs:
        for name in needs:
            met, note = CURVE_NEEDS[name]
            if not met(case):
                unmet += (note,)
    if holds and not unmet:
        notes += fired_notes
        if lhs == rhs:
            notes += equality_notes
    return _verdict(rule, holds, relations, lhs, rhs, theorem=theorem, notes=notes, unmet=unmet)


def curve_thresholds(case: CurveCase) -> Tuple[NormalityVerdict, ...]:
    """Evaluate every degree threshold for the curve case, exactly.

    Emitted rules (all monotone in d): projective normality for
    d > g+1; syzygy level 1 with a Koszul tautological ring for d > g+2;
    syzygy level p for 2d - (g+p+1) > 0 with square exceeding
    g^2 + 2g(3p+1) + (p-1)^2; the Clifford-index bound d >= g+2-Cliff(C);
    and the sharp general-curve bound (2d-3)^2 >= 8g+1 for g >= 3.
    """
    out = []
    for row in THRESHOLD_RULES:
        if row is SYZYGY_RULE:
            out.extend([_curve_verdict(row, case, p) for p in case.syzygy_levels])
        else:
            out.append(_curve_verdict(row, case))
    return tuple(out)


def mrc_check(case: CurveCase) -> NormalityVerdict:
    """Maximal-rank dimension count on the case: binom(d+1, 2) >= 2d+g-1.

    For a general curve with a general degree-d very ample polarization,
    the quadric count dominates h^0 of the square exactly when this
    holds; equality is the sharpness boundary for line bundles.
    """
    if case.genus < 3:
        raise ValueError("the maximal-rank count is applied for genus >= 3")
    return _curve_verdict(MRC_RULE, case)


def kko_curve_window(case: CurveCase) -> Tuple[NormalityVerdict, ...]:
    """Low-degree positive verdicts for an embedded curve case of genus >= 3.

    d in {g, g+1} makes every Ulrich line bundle projectively normal;
    d = g-h+1 with g >= g_h covers the general one via the audit table.
    """
    return tuple([_curve_verdict(row, case) for row in WINDOW_RULES])


def curve_verdicts(case: CurveCase) -> Tuple[NormalityVerdict, ...]:
    """Every verdict ``check curve`` reports, the genus >= 3 group included."""
    out = curve_thresholds(case)
    if case.genus >= 3:
        out += (mrc_check(case),) + kko_curve_window(case)
    return out


# ---------------------------------------------------------------------------
# surface criteria


class DegeneracyData(NamedTuple):
    """Numerical data of the degeneracy-locus construction behind the
    surface criterion: Z is cut by `sections` general sections of the
    dual exterior square of the syzygy bundle, sits on a curve C in
    |curve_multiple * det E|, and its speciality on C obstructs
    2-normality."""

    sections: int
    z_length: Fraction
    curve_multiple: int
    curve_genus: Fraction
    h0_lower: int
    h1_lower: Fraction
    h1_lower_rr: Fraction


class AcmResult(NamedTuple):
    verdict: NormalityVerdict
    degeneracy: DegeneracyData


def surface_acm_criterion(h: int, r: int, c1sq, c1k, c2) -> AcmResult:
    """Numerical non-normality test for an ample 0-regular rank-r bundle
    with h sections on a regular surface with vanishing geometric genus.

    Fails 2-normality (equivalently, the projectivized bundle is not
    arithmetically Cohen-Macaulay) as soon as

        (h-r-1) c1.K + 2(h-r-2) c2 + h(h-1) > (h-r-3) c1^2 + r(2h-r-1).

    Half the margin bounds the speciality h^1(C, Z) of the degeneracy
    locus from below; the same bound is recomputed through Riemann-Roch
    on the curve and both paths must agree exactly.  The geometric
    hypotheses (q = p_g = 0, 0-regularity, ampleness) are the caller's
    responsibility; this evaluates the counting criterion only.
    """
    if r < 2:
        raise ValueError("the criterion needs rank >= 2")
    if h < r + 3:
        raise ValueError("the criterion needs h >= r+3")
    c1sq = as_fraction(c1sq)
    c1k = as_fraction(c1k)
    c2 = as_fraction(c2)
    m = h - r
    lhs = (m - 1) * c1k + 2 * (m - 2) * c2 + h * (h - 1)
    rhs = (m - 3) * c1sq + r * (2 * h - r - 1)
    lam = binom(m, 2) - 1
    z_length = Fraction(m - 2, 2) * ((m + 1) * c1sq - 2 * c2)
    genus = 1 + Fraction((m - 1) ** 2 * c1sq + (m - 1) * c1k, 2)
    h0_lower = lam + 1
    h1_lower = Fraction(lhs - rhs, 2)
    h1_lower_rr = h0_lower - z_length + genus - 1
    if h1_lower != h1_lower_rr:
        raise DataError("speciality bound differs between the margin and Riemann-Roch paths")
    verdict = _verdict(
        "acm-degeneracy",
        lhs > rhs,
        (">", "<="),
        lhs,
        rhs,
        status=NOT_K_NORMAL,
        k=2,
        notes=("caller asserts q = p_g = 0, 0-regular, ample, h = h^0",),
    )
    return AcmResult(
        verdict,
        DegeneracyData(lam, z_length, m - 1, genus, h0_lower, h1_lower, h1_lower_rr),
    )


def sectional_curve_criterion(V, E: ChernVector) -> NormalityVerdict:
    """Segre-class test: the projectivized bundle is arithmetically
    Cohen-Macaulay once its sectional curve has degree >= 2g+1.

    deg P(E) = s_n(E*) and the sectional genus is
    1 + ((K + c1) . s_{n-1}(E*) + (n-2) s_n(E*)) / 2, so the test reads
    (3-n) s_n(E*) >= 3 + (K + c1) . s_{n-1}(E*); both forms are computed
    and must agree identically, for n in {2, 3}.  V is a :class:`Surface`
    or a :class:`HypersurfaceP4` and must be regular (q = 0).
    """
    if isinstance(V, Surface):
        ring = V.lattice
    elif isinstance(V, HypersurfaceP4):
        ring = V.ring
    else:
        raise TypeError(f"unsupported variety model {type(V).__name__}")
    canonical, n = V.canonical, ring.dim
    if E.ring != ring:
        raise RingMismatchError("bundle does not live on the given variety model")
    s = segre_dual(E)
    adjoint = ring_degree((canonical + E.c1) * s[n - 1])
    deg = ring_degree(s[n])
    genus = 1 + Fraction(adjoint + (n - 2) * deg, 2)
    margin = deg - (2 * genus + 1)
    segre_form = (3 - n) * deg - 3 - adjoint
    if margin != segre_form:
        raise DataError("the degree and Segre forms of the criterion disagree")
    return _verdict(
        "sectional-curve-acm",
        margin >= 0,
        (">=", "<"),
        deg,
        2 * genus + 1,
        theorem="deg P(E) >= 2g+1 for the sectional curve",
        notes=("needs q = 0 and E very ample (caller-asserted)",),
    )


# ---------------------------------------------------------------------------
# complete-intersection family scan


def ci_h0_sym2(r: int, d: int) -> Fraction:
    """h^0(S^2 E) for rank-r Ulrich bundles on the (2, d/2) complete
    intersection surface family in P^4 (K = (d-6)H/2, chi(O) =
    d(d^2-9d+26)/24, c1 = rd H/4)."""
    return Fraction(r * d, 96) * (r * d * d + 18 * (r + 1) * d + 44 * r + 36)


#: Largest degree of the complete-intersection scan, which runs d = 6, 8, ..., 34.
_CI_MAX_DEGREE = 34


def ci_example_scan(r_max: int) -> ScanReport:
    """Feasibility of the 2-normality count over the (2, a) complete
    intersection family, d = 2a, for the even degrees 6..34.

    h^0(S^2 E) - dim S^2 H^0 = (rd/96) * (r * coeff + 18d - 12) with
    coeff = d^2 - 30d + 44, so the count passes iff that margin is <= 0.
    The margin is linear in r, so the least rank r >= 2 whose count passes
    is read off it exactly, for every rank cap: ceil((18d - 12) / -coeff)
    where coeff < 0, and no rank where coeff > 0 (coeff has no integer
    root, its roots being 15 +- sqrt(181)).  No even degree above 28 is
    ever feasible.
    """
    if r_max < 2:
        raise ValueError("r_max must be at least 2")

    def cells(d: int) -> tuple:
        coeff = d * d - 30 * d + 44
        r_min = max(2, -((18 * d - 12) // coeff)) if coeff < 0 else None
        note = ""
        if r_min is None:
            note = "infeasible for every rank"
        elif r_min > r_max:
            r_min, note = None, "feasible only above the rank cap"
        r_eval = r_min if r_min is not None else 2
        h0s2 = ci_h0_sym2(r_eval, d)
        dim = Fraction(r_eval * d * (r_eval * d + 1), 2)
        return (d // 2, r_min, r_eval, h0s2, dim, r_min is not None, note)

    return grid_scan(
        f"2-normality feasibility on (2,a) complete-intersection surfaces (ranks 2..{r_max})",
        ("d",),
        ("a", "r_min", "r_eval", "h0_sym2", "dim_sym2_h0", "feasible", "note"),
        ("normality.ci_example_scan",) * 7,
        (range(6, _CI_MAX_DEGREE + 1, 2),),
        cells,
    )
