"""Verdict logic: counting obstructions, thresholds, criteria, and the family scan."""

import dataclasses
from fractions import Fraction

import pytest

from projnorm import normality
from projnorm.chern import ChernVector, segre_dual
from projnorm.exactalg import ParityError, RingMismatchError, binom, ring_degree
from projnorm.normality import (
    GENERIC_NOTE,
    INCONCLUSIVE,
    NOT_K_NORMAL,
    NOT_STRONGLY_K_NORMAL,
    POSITIVE,
    CURVE_NEEDS,
    CURVE_RULES,
    CurveCase,
    KKO_GENUS_FLOOR,
    KKO_TUPLES,
    THRESHOLD_RULES,
    AcmResult,
    DegeneracyData,
    KkoRow,
    NormalityVerdict,
    Witness,
    ci_example_scan,
    classify_p3_hypersurface,
    classify_p4_hypersurface,
    curve_thresholds,
    curve_verdicts,
    dimension_test,
    kko_audit,
    kko_curve_window,
    mrc_check,
    sectional_curve_criterion,
    surface_acm_criterion,
)
from projnorm.report import Row
from projnorm.rr import HypersurfaceP3, HypersurfaceP4, solve_ulrich_chern, surface_model
from projnorm.ulrich import PowerCounts, ThreefoldPowerData, h0_powers_p3_hypersurface


def test_dimension_test_examples():
    v = dimension_test(8, 2, 40)
    assert v.status == NOT_K_NORMAL and v.witness == Witness(Fraction(36), "<", Fraction(40))
    v = dimension_test(8, 2, 70, strong=True)
    assert v.status == NOT_STRONGLY_K_NORMAL and v.witness.lhs == 64
    # equality is never a failure: binom(5, 2) = 10 meets the bound 10 exactly
    v = dimension_test(4, 2, 10)
    assert v.status == INCONCLUSIVE and v.witness.relation == "="
    with pytest.raises(ValueError):
        dimension_test(8, 1, 4)


@pytest.mark.parametrize("strong", (False, True))
def test_dimension_test_int_and_fraction_bounds_agree(strong):
    for h0 in range(1, 13):
        for lower in range(0, 170, 3):
            for k in (2, 3):
                as_int = dimension_test(h0, k, lower, strong)
                as_fraction = dimension_test(h0, k, Fraction(lower), strong)
                assert as_int == as_fraction
                # each side stays exactly as computed: the count is an int,
                # an int bound stays an int and a Fraction bound a Fraction
                assert type(as_int.witness.lhs) is int and type(as_int.witness.rhs) is int
                assert type(as_fraction.witness.lhs) is int and type(as_fraction.witness.rhs) is Fraction
    for bad in (True, 4.0):
        with pytest.raises(TypeError):
            dimension_test(4, 2, bad, strong)


@pytest.mark.parametrize("bad", [4.0, True, False, "4", None])
def test_verdict_refuses_a_side_that_is_not_int_or_fraction(bad):
    # Fraction(4.0) == 4 would have made a float a witness; a bool is an int subclass
    for lhs, rhs in ((bad, 4), (4, bad), (bad, Fraction(4))):
        if lhs is None:
            continue  # lhs=None is the verdict without a witness
        with pytest.raises(TypeError):
            normality._verdict("r", True, (">", "<="), lhs, rhs)
    for lhs, rhs in ((3, 4), (Fraction(3), 4), (3, Fraction(7, 2))):
        w = normality._verdict("r", False, (">", "<="), lhs, rhs).witness
        assert (type(w.lhs), type(w.rhs)) == (type(lhs), type(rhs)) and w == (lhs, "<=", rhs)


def test_p3_classifier_examples():
    v2, _, _ = classify_p3_hypersurface(5, 2)
    assert v2.status == NOT_K_NORMAL
    v2, _, _ = classify_p3_hypersurface(3, 2)
    assert v2.witness == Witness(Fraction(21), "<", Fraction(22))
    v2, v3, _ = classify_p3_hypersurface(2, 2)
    assert v2.status == INCONCLUSIVE
    assert v3.witness.relation == "=" and v3.witness.lhs == v3.witness.rhs  # slack3 = 0


def test_p3_classifier_allowed_set():
    # the last factor of the 2-count margin is >= 6 from d = 5 on, so the
    # allowed set below holds for every degree, not only on this grid
    def allowed(d, r):
        return d == 2 or (d == 3 and r >= 3) or (d == 4 and r >= 6)

    for d in range(2, 61):
        for r in range(1, 51):
            if (r * (d - 1)) % 2:
                continue
            v2, _, counts = classify_p3_hypersurface(d, r)
            margin = 24 * (counts.sym2 - binom(r * d + 1, 2))
            assert margin == r * d * (d - 1) * (r * (d - 5) + 6), (d, r)
            assert (v2.status == INCONCLUSIVE) == allowed(d, r), (d, r)


def test_p3_slack_signs():
    for d in range(2, 13):
        for r in range(1, 13):
            if (r * (d - 1)) % 2:
                continue
            _, v3, _ = classify_p3_hypersurface(d, r)
            slack = v3.witness.lhs - v3.witness.rhs
            # independent recomputation from the raw counts
            assert slack == binom(r * d + 2, 3) - h0_powers_p3_hypersurface(d, r).sym3
            if r == 1:
                assert slack < 0 and v3.status == NOT_K_NORMAL
            elif r == 2:
                assert slack == 0 and v3.status == INCONCLUSIVE
            else:
                assert slack > 0 and v3.status == INCONCLUSIVE


def test_p4_classifier_threshold():
    # the 2-count margin is r d (d-1)(d-3)(3r-4-d)/48: it fails exactly when
    # 3r > d+4 from d = 4 on, and never below (0 at d = 1, 3; <= 0 at d = 2)
    for d in range(1, 41):
        for r in range(1, 31):
            if (r * (d - 1)) % 2:
                continue
            strong, plain, _ = classify_p4_hypersurface(d, r)
            margin = plain.witness.rhs - plain.witness.lhs
            assert 48 * margin == r * d * (d - 1) * (d - 3) * (3 * r - 4 - d), (d, r)
            if d >= 4:
                assert strong.status == NOT_STRONGLY_K_NORMAL, (d, r)
                assert (plain.status == NOT_K_NORMAL) == (3 * r > d + 4), (d, r)
            else:
                assert plain.status == INCONCLUSIVE and margin <= 0, (d, r)
                assert (margin == 0) == (d != 2 or r == 2), (d, r)


def test_p4_boundary_equality():
    _, plain, _ = classify_p4_hypersurface(5, 3)
    assert plain.status == INCONCLUSIVE
    assert plain.witness == Witness(Fraction(120), "=", Fraction(120))


def test_p4_low_degree_flagged():
    strong, plain, _ = classify_p4_hypersurface(3, 2)
    assert any("outside the proved range" in note for note in strong.notes)
    assert strong.status == INCONCLUSIVE  # chi equals (rd)^2 exactly at d = 3
    with pytest.raises(ParityError):
        classify_p4_hypersurface(4, 3)


def test_curve_thresholds_examples():
    case = CurveCase(genus=3, degree=4, general=True, very_ample=True)
    by_rule = {v.rule: v for v in curve_thresholds(case)}
    sharp = by_rule["general-sharp-degree"]
    assert sharp.status == POSITIVE
    assert sharp.witness == Witness(Fraction(25), ">=", Fraction(25))
    assert any("boundary equality" in n for n in sharp.notes)
    # d = g+1 sits on the boundary and must not fire
    assert by_rule["pn-degree"].status == INCONCLUSIVE
    # the sign guard 2d-3 >= 0: at g = 0, d = 1 the squares agree (1 = 1) but the bound does not hold
    sharp_rule = THRESHOLD_RULES[4]
    assert sharp_rule.rule == "general-sharp-degree"
    assert sharp_rule.sides(0, 1, case) == (False, 1, 1)

    case = CurveCase(genus=0, degree=3, syzygy_levels=(2,))
    by_rule = {v.rule: v for v in curve_thresholds(case)}
    assert by_rule["np-degree-p2"].status == POSITIVE

    case = CurveCase(genus=3, degree=4, clifford=1)
    by_rule = {v.rule: v for v in curve_thresholds(case)}
    assert by_rule["clifford-degree"].status == POSITIVE
    case = CurveCase(genus=3, degree=4, clifford=0)
    by_rule = {v.rule: v for v in curve_thresholds(case)}
    assert by_rule["clifford-degree"].status == INCONCLUSIVE


def test_curve_thresholds_flags_required():
    case = CurveCase(genus=3, degree=10)
    by_rule = {v.rule: v for v in curve_thresholds(case)}
    assert by_rule["general-sharp-degree"].status == INCONCLUSIVE
    assert any("generality flags" in n for n in by_rule["general-sharp-degree"].notes)


def test_np_conjecture_is_noted_never_asserted():
    case = CurveCase(genus=5, degree=8, syzygy_levels=(2,))
    v = {v.rule: v for v in curve_thresholds(case)}["np-degree-p2"]
    assert any("not asserted" in n for n in v.notes)


_CURVE_GRID = [
    (g, d, cliff)
    for g in range(40)
    for d in range(1, 60)
    for cliff in (None, 0, 1, 2)
    if cliff is None or cliff <= max(0, (g - 1) // 2)
]

#: The notes that name a hypothesis the caller did not supply.
_UNMET = {note for _, note in CURVE_NEEDS.values()}


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 3: mrc-count, low-degree-general and clifford-degree fire positive "
        "without --general; gating them changes check curve stdout, which bench/reference.json "
        "locks, so the gate lands with new reference digests"
    ),
)
def test_generic_verdicts_fire_only_with_generality_flags():
    fired = {
        v.rule
        for g, d, cliff in _CURVE_GRID
        for v in curve_verdicts(CurveCase(genus=g, degree=d, clifford=cliff))
        if v.fired and GENERIC_NOTE in v.notes
    }
    assert fired == set()


def test_a_verdict_with_an_unmet_hypothesis_is_inconclusive():
    seen = set()
    for g, d, cliff in _CURVE_GRID:
        for general in (False, True):
            case = CurveCase(
                genus=g,
                degree=d,
                clifford=cliff,
                very_ample=general,
                general=general,
            )
            for v in curve_verdicts(case):
                unmet = _UNMET.intersection(v.notes)
                seen |= unmet
                assert not unmet or v.status == INCONCLUSIVE, (g, d, cliff, general, v.rule)
    assert seen == _UNMET


def test_a_need_planted_on_any_curve_row_gates_only_that_row(monkeypatch):
    # "general" planted in the needs of each CURVE_RULES row in turn: without
    # the flag the row reads inconclusive with the unmet note and keeps its
    # witness, every other verdict is unchanged, and with the flag nothing
    # changes; curve_thresholds finds the syzygy row by identity, so
    # SYZYGY_RULE is patched along with the group tuples
    note = CURVE_NEEDS["general"][1]
    cases = [
        CurveCase(g, d, syzygy_levels=(2, 3), clifford=min(1, max(0, (g - 1) // 2)), general=general)
        for g in range(20)
        for d in range(1, 30)
        for general in (False, True)
    ]
    plain = {case: curve_verdicts(case) for case in cases}
    for i, row in enumerate(CURVE_RULES):
        planted = row._replace(needs=row.needs if "general" in row.needs else row.needs + ("general",))
        rules = CURVE_RULES[:i] + (planted,) + CURVE_RULES[i + 1 :]
        gated = 0
        with monkeypatch.context() as m:
            m.setattr(normality, "THRESHOLD_RULES", rules[:5])
            m.setattr(normality, "SYZYGY_RULE", rules[2])
            m.setattr(normality, "MRC_RULE", rules[5])
            m.setattr(normality, "WINDOW_RULES", rules[6:])
            for case, before in plain.items():
                after = curve_verdicts(case)
                assert len(after) == len(before), (row.rule, case)
                for v, w in zip(after, before):
                    if case.general or v.rule.rstrip("0123456789") != row.rule:
                        assert v == w, (row.rule, case, v.rule)
                        continue
                    assert v.status == INCONCLUSIVE and note in v.notes, (row.rule, case)
                    assert (v.rule, v.theorem, v.witness) == (w.rule, w.theorem, w.witness), (row.rule, case)
                    gated += w.fired
        # the planted need turned a positive verdict inconclusive somewhere,
        # except on general-sharp-degree, which needs the flag already
        assert (gated > 0) == ("general" not in row.needs), row.rule


def test_mrc_examples():
    v = mrc_check(CurveCase(3, 4))
    assert v.status == POSITIVE and v.witness == Witness(Fraction(10), ">=", Fraction(10))
    assert any("sharpness boundary" in n for n in v.notes)
    assert mrc_check(CurveCase(3, 3)).status == INCONCLUSIVE  # 6 < 8
    v = mrc_check(CurveCase(10, 6))
    assert v.status == POSITIVE and v.witness.lhs == 21 and v.witness.rhs == 21
    with pytest.raises(ValueError):
        mrc_check(CurveCase(2, 5))


def test_mrc_count_and_general_sharp_degree_are_the_plane_genus_bound():
    # both rows hold exactly when 2g <= (d-1)(d-2), Castelnuovo's bound for a
    # plane curve (ROADMAP item 18); d = 1 is left out, where at g = 0
    # mrc-count holds but general-sharp-degree's d >= 2 guard does not
    rules = {row.rule: row for row in CURVE_RULES}
    sides = rules["mrc-count"].sides, rules["general-sharp-degree"].sides
    for g in range(301):
        for d in range(2, 601):
            plane = 2 * g <= (d - 1) * (d - 2)
            assert all(rule_sides(g, d, None)[0] == plane for rule_sides in sides), (g, d)
    assert rules["mrc-count"].sides(0, 1, None)[0] and not rules["general-sharp-degree"].sides(0, 1, None)[0]


def test_curve_sym2_count_never_exceeds_the_source_at_a_realizable_cell():
    # an Ulrich E of rank r on a curve is semistable of slope d+g-1, so
    # h^0(S^2 E) = r(r+1)(2d+g-1)/2; at the plane bound g = (d-1)(d-2)/2
    # it is at most binom(rd+1, 2), the left side grows with g, so the
    # 2-count obstructs no realizable cell in any rank (ROADMAP item 18)
    for r in range(1, 21):
        for d in range(1, 200):
            g = (d - 1) * (d - 2) // 2
            sym2, source = r * (r + 1) * (2 * d + g - 1) // 2, binom(r * d + 1, 2)
            assert sym2 <= source, (r, d)
            assert (sym2 == source) == (r == 1 or d == 1), (r, d)


def test_kko_audit_table():
    rows = kko_audit()
    assert all(row.ok for row in rows)
    table = {(row.h, row.j, row.a, row.b): row.bound for row in rows}
    assert table[(2, 1, 3, 6)] == 6
    assert table[(4, 2, 8, 6)] == 9
    assert table[(5, 1, 3, 12)] == 12
    assert len(rows) == sum(len(v) for v in KKO_TUPLES.values())
    for h, tuples in KKO_TUPLES.items():
        for (j, a, b) in tuples:
            bound = a - 2 * j - 1 + b
            assert table[(h, j, a, b)] == bound
            assert bound < KKO_GENUS_FLOOR[h]


def test_kko_curve_window():
    window, general = kko_curve_window(CurveCase(5, 5))
    assert window.status == POSITIVE
    window, general = kko_curve_window(CurveCase(5, 7))
    assert window.status == INCONCLUSIVE
    # d = g - h + 1 with g >= g_h: h = 2 needs g >= 15
    window, general = kko_curve_window(CurveCase(15, 14))
    assert general.status == POSITIVE
    window, general = kko_curve_window(CurveCase(14, 13))
    assert general.status == INCONCLUSIVE


def test_surface_acm_criterion_k3_numbers():
    res = surface_acm_criterion(8, 2, 36, 0, 14)
    assert res.verdict.status == NOT_K_NORMAL
    assert res.verdict.witness == Witness(Fraction(168), ">", Fraction(134))
    deg = res.degeneracy
    assert deg.sections == 14
    assert deg.z_length == 448
    assert deg.curve_multiple == 5
    assert deg.curve_genus == 451
    assert deg.h0_lower == 15
    assert deg.h1_lower == 17 == deg.h1_lower_rr


def test_surface_acm_criterion_degenerate_boundary():
    # all classes zero at the minimal h: the inequality is h(h-1) > r(2h-r-1)
    res = surface_acm_criterion(5, 2, 0, 0, 0)
    assert res.verdict.status == NOT_K_NORMAL
    assert res.verdict.witness == Witness(Fraction(20), ">", Fraction(14))


def test_surface_acm_criterion_preconditions():
    with pytest.raises(ValueError):
        surface_acm_criterion(4, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        surface_acm_criterion(8, 1, 0, 0, 0)


def test_sectional_curve_k3():
    V = HypersurfaceP3(4)
    E = solve_ulrich_chern(V, 2)
    v = sectional_curve_criterion(V.surface(), E)
    assert v.status == INCONCLUSIVE
    # degree 22 against 2g+1 for the sectional genus g = 19
    assert v.witness == Witness(Fraction(22), "<", Fraction(39))


def test_sectional_curve_on_curves_reduces_to_degree():
    # on a curve the sectional curve is the curve itself and the criterion
    # reads deg L >= 2g+1; an Ulrich line bundle has degree d+g-1, so that is
    # the pn-degree row d > g+1
    pn = CURVE_RULES[0]
    assert pn.rule == "pn-degree"
    for g in range(40):
        for d in range(1, 60):
            assert pn.sides(g, d, None)[0] == (d + g - 1 >= 2 * g + 1), (g, d)


def test_sectional_curve_boundary_equality_on_surface():
    # on the K3 lattice, s2 = 3 + (K + c1).c1 exactly: c1 = H, c2 = -3
    S = surface_model(4, 0, 0, 2)
    E = ChernVector.of(S.lattice, 2, (1, 0), -3)
    v = sectional_curve_criterion(S, E)
    assert v.status == POSITIVE and v.witness == Witness(Fraction(7), ">=", Fraction(7))


def test_sectional_curve_threefold():
    V = HypersurfaceP4(5)
    E = solve_ulrich_chern(V, 3)
    v = sectional_curve_criterion(V, E)
    # deg P(E) = s_3(E*)
    assert v.witness.lhs == ring_degree(segre_dual(E)[3])


def test_sectional_curve_rejects_a_bundle_on_another_ring():
    S = surface_model(9, -9, 9, 1)
    E = ChernVector.of(S.lattice, 2, (2, 0), 11)
    with pytest.raises(RingMismatchError, match="does not live on the given variety model"):
        sectional_curve_criterion(HypersurfaceP3(4).surface(), E)
    with pytest.raises(RingMismatchError):
        sectional_curve_criterion(HypersurfaceP4(4), E)


def test_ci_scan_matches_brute_force():
    report = ci_example_scan(50)
    by_d = {row.params[0]: dict(zip(report.columns, row.values)) for row in report.rows}

    def brute_min_rank(d, cap=200):
        for r in range(2, cap + 1):
            if r * d * d - (30 * r - 18) * d + 44 * r - 12 <= 0:
                return r
        return None

    for d in range(6, 35, 2):
        assert by_d[d]["r_min"] == brute_min_rank(d), d
    assert {d for d in by_d if by_d[d]["feasible"]} == set(range(6, 29, 2))
    assert by_d[28]["r_min"] == 41
    for d in (30, 32, 34):
        assert by_d[d]["note"] == "infeasible for every rank"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 8: at d = 22 the rank-3 row pins c1 = (rd/4)H = (33/2)H, which no bundle "
        "has, and prints the Hodge-index maximum 8811/4 as h0_sym2; fixing it changes scan ci "
        "stdout, which bench/reference.json locks, so the fix lands with new reference digests"
    ),
)
def test_ci_scan_h0_sym2_is_an_integer():
    report = ci_example_scan(50)
    column = report.columns.index("h0_sym2")
    assert [row.params for row in report.rows if row.values[column].denominator != 1] == []


def test_ci_scan_closed_form_matches_surface_pipeline():
    from projnorm.chern import sym2
    from projnorm.normality import ci_h0_sym2
    from projnorm.rr import chi_surface
    from projnorm.ulrich import casnati_c2

    for a in range(3, 10):
        d = 2 * a
        S = surface_model(
            d,
            Fraction(d * (d - 6), 2),
            Fraction(d * (d - 6) ** 2, 4),
            Fraction(d * (d * d - 9 * d + 26), 24),
        )
        for r in (2, 3, 4):
            c1 = (Fraction(r * d, 4), Fraction(0))
            E0 = ChernVector.of(S.lattice, r, c1)
            c1sq = Fraction(r * d, 4) ** 2 * d
            c1k = Fraction(r * d, 4) * Fraction(d * (d - 6), 2)
            c2 = casnati_c2(c1sq, c1k, r, d, S.chi_o)
            E = ChernVector.of(S.lattice, r, c1, c2)
            assert chi_surface(S, sym2(E)) == ci_h0_sym2(r, d), (a, r)


def test_verdict_accessors():
    v, _, _ = classify_p3_hypersurface(4, 2)
    assert v.status == NOT_K_NORMAL and not v.fired
    assert v.status_label == "not-2-normal"
    assert mrc_check(CurveCase(3, 4)).fired


def test_ci_margin_is_the_scaled_count_difference():
    # both sides are polynomials of degree at most 3 in r, so agreement at
    # r = 1..59 proves the identity for every rank at these degrees; the
    # margin is the one ci_example_scan reads its least rank off
    from projnorm.normality import ci_h0_sym2

    cells = 0
    for d in range(6, 35, 2):
        for r in range(1, 60):
            dim = Fraction(r * d * (r * d + 1), 2)
            margin = r * (d * d - 30 * d + 44) + 18 * d - 12
            assert ci_h0_sym2(r, d) - dim == Fraction(r * d, 96) * margin, (r, d)
            cells += 1
    assert cells == 885


def test_ci_scan_rank_cap_note():
    report = ci_example_scan(2)
    by_d = {row.params[0]: dict(zip(report.columns, row.values)) for row in report.rows}
    assert by_d[20]["r_min"] is None
    assert by_d[20]["note"] == "feasible only above the rank cap"
    with pytest.raises(ValueError):
        ci_example_scan(1)


def test_ci_scan_rows_do_not_depend_on_a_rank_cap_above_the_largest_least_rank():
    # the least rank is read off the margin, so a huge cap costs nothing
    assert ci_example_scan(10**12).rows == ci_example_scan(41).rows  # 41 is r_min at d = 28, the largest


def test_curve_case_validation():
    with pytest.raises(ValueError):
        CurveCase(genus=-1, degree=3)
    with pytest.raises(ValueError):
        CurveCase(genus=1, degree=3, syzygy_levels=(1,))
    # a repeated level would report its row twice under one name
    with pytest.raises(ValueError, match="p = 3 is given more than once"):
        CurveCase(genus=3, degree=4, syzygy_levels=(2, 3, 5, 3))
    # the Clifford index of a genus-g curve lies in 0..max(0, (g-1)//2)
    for g, top in ((0, 0), (2, 0), (3, 1), (4, 1), (5, 2), (40, 19)):
        assert CurveCase(genus=g, degree=1, clifford=top).clifford == top
        for cliff in (-1, top + 1):
            with pytest.raises(ValueError, match="Clifford index"):
                CurveCase(genus=g, degree=1, clifford=cliff)


#: Field names of every per-cell record, in order.
RECORD_FIELDS = {
    Row: ("params", "values"),
    Witness: ("lhs", "relation", "rhs"),
    NormalityVerdict: ("rule", "status", "k", "theorem", "witness", "notes"),
    KkoRow: ("h", "genus_floor", "j", "a", "b", "bound", "ok"),
    # the row order of the check surface and surface-hyp reports
    DegeneracyData: ("sections", "z_length", "curve_multiple", "curve_genus", "h0_lower", "h1_lower", "h1_lower_rr"),
    AcmResult: ("verdict", "degeneracy"),
    PowerCounts: ("tensor2", "sym2", "sym3"),
    ThreefoldPowerData: ("chi_tensor2", "chi_sym2", "c3_tensor2", "c3_sym2"),
}


@pytest.mark.parametrize("record", list(RECORD_FIELDS), ids=lambda record: record.__name__)
def test_records_are_immutable_named_tuples(record):
    fields = RECORD_FIELDS[record]
    assert issubclass(record, tuple) and not dataclasses.is_dataclass(record)
    assert record._fields == fields
    instance = record(*range(len(fields)))
    assert instance == tuple(range(len(fields)))
    with pytest.raises(AttributeError):
        setattr(instance, fields[0], None)


def test_verdict_defaults():
    verdict = NormalityVerdict("r", POSITIVE)
    assert (verdict.k, verdict.theorem, verdict.witness, verdict.notes) == (None, None, None, ())
    assert verdict.fired and verdict.status_label == POSITIVE
