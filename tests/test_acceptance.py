"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact (zero tolerance).
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from projnorm.chern import (
    bundle_from_roots,
    direct_sum,
    sym2,
    sym3,
    tensor_square,
    twist,
    wedge2,
)
from projnorm.cli import main
from projnorm.exactalg import (
    RankOneRing,
    binom,
    numerically_equal,
    rand_rational,
    ring_degree,
    splitting_oracle,
)
from projnorm.normality import (
    INCONCLUSIVE,
    KKO_GENUS_FLOOR,
    MRC_RULE,
    NOT_K_NORMAL,
    NOT_STRONGLY_K_NORMAL,
    POSITIVE,
    SYZYGY_RULE,
    THRESHOLD_RULES,
    CurveCase,
    ci_example_scan,
    classify_p3_hypersurface,
    classify_p4_hypersurface,
    curve_thresholds,
    kko_audit,
    mrc_check,
    surface_acm_criterion,
)
from projnorm.rr import (
    HypersurfaceP3,
    HypersurfaceP4,
    chi_surface,
    chi_threefold_hypersurface,
    solve_ulrich_chern,
)
from projnorm.ulrich import (
    casnati_c2,
    chi_powers_p4_hypersurface,
    h0_powers_p3_hypersurface,
    h0_powers_surface,
    h0_powers_surface_det_special,
    ulrich_c3_p4_hypersurface,
)


def run_criterion(number, name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parity_ok(r, d):
    return (r * (d - 1)) % 2 == 0


def test_01_closed_forms_match_splitting_oracle():
    def body():
        cases = [
            ("tensor_square", tensor_square),
            ("sym2", sym2),
            ("sym3", sym3),
            ("wedge2", wedge2),
            ("tensor_line", twist),
        ]
        for construction, closed_form in cases:
            for rank in range(1, 7):
                assert splitting_oracle(construction, rank, closed_form, trials=20, seed=7 + rank), (
                    construction,
                    rank,
                )

    run_criterion(1, "closed forms vs splitting oracle (ranks 1..6, 20 trials)", body)


def test_02_whitney_reconstruction():
    def body():
        ring = RankOneRing(3, Fraction(1))
        for rank in range(1, 7):
            rng = random.Random(7 + rank)
            for _ in range(20):
                E = bundle_from_roots(ring, [rand_rational(rng) for _ in range(rank)])
                assert direct_sum(sym2(E), wedge2(E)) == tensor_square(E)

    run_criterion(2, "Whitney reconstruction of the tensor square", body)


def test_03_ulrich_chern_solver():
    def body():
        for d in range(2, 11):
            V = HypersurfaceP3(d)
            S = V.surface()
            for r in range(1, 7):
                if not parity_ok(r, d):
                    continue
                E = solve_ulrich_chern(V, r)
                c1sq = ring_degree(S.lattice, E.c1 * E.c1, 2)
                c1k = ring_degree(S.lattice, E.c1 * S.canonical, 2)
                assert ring_degree(S.lattice, E.c2, 2) == casnati_c2(c1sq, c1k, r, d, S.chi_o)
                assert chi_surface(S, E) == r * d
        for d in range(2, 9):
            V = HypersurfaceP4(d)
            for r in range(1, 7):
                if not parity_ok(r, d):
                    continue
                E = solve_ulrich_chern(V, r)
                assert ring_degree(V.ring, E.c3, 3) == ulrich_c3_p4_hypersurface(d, r)
                assert chi_threefold_hypersurface(V, E) == r * d

    run_criterion(3, "solver reproduces the c2 and c3 closed forms exactly", body)


def test_04_dual_path_section_counts():
    def body():
        for d in range(2, 11):
            V = HypersurfaceP3(d)
            S = V.surface()
            for r in range(1, 7):
                if not parity_ok(r, d):
                    continue
                E = solve_ulrich_chern(V, r)
                # c1 = (r/2)(K + 3H) holds on hypersurfaces, so the internal
                # check against the specialized forms runs on every case
                assert numerically_equal(
                    E.c1, Fraction(r, 2) * (S.canonical + 3 * S.hyperplane)
                )
                counts = h0_powers_surface(S, E)
                assert counts.tensor2 == chi_surface(S, tensor_square(E))
                assert counts.sym2 == chi_surface(S, sym2(E))
                assert counts.sym3 == chi_surface(S, sym3(E))
                assert counts == h0_powers_p3_hypersurface(d, r)
                special = h0_powers_surface_det_special(S, r)
                assert special == (counts.tensor2, counts.sym2, counts.sym3)

    run_criterion(4, "section counts agree along two independent paths", body)


def test_05_p3_classifier():
    def body():
        allowed = {(2, r) for r in range(2, 13, 2)}
        allowed |= {(3, r) for r in range(3, 13)}
        allowed |= {(4, r) for r in range(6, 13, 2)}
        for d in range(2, 13):
            for r in range(1, 13):
                if not parity_ok(r, d):
                    continue
                v2, v3, _ = classify_p3_hypersurface(d, r)
                assert (v2.status == NOT_K_NORMAL) == ((d, r) not in allowed), (d, r)
                slack = v3.witness.lhs - v3.witness.rhs
                if r == 2:
                    assert slack == 0
                if r >= 3 and d >= 2:
                    assert slack > 0

    run_criterion(5, "surface hypersurface classifier and cube slack", body)


def test_06_p4_classifier():
    def body():
        for d in range(4, 13):
            for r in range(1, 13):
                if not parity_ok(r, d):
                    continue
                strong, plain, _ = classify_p4_hypersurface(d, r)
                assert strong.status == NOT_STRONGLY_K_NORMAL, (d, r)
                assert strong.witness.lhs < strong.witness.rhs  # chi(ExE) > (rd)^2
                assert (plain.status == NOT_K_NORMAL) == (3 * r > d + 4), (d, r)
        _, boundary, _ = classify_p4_hypersurface(5, 3)
        assert boundary.status == INCONCLUSIVE
        assert boundary.witness.lhs == 120 == boundary.witness.rhs

    run_criterion(6, "threefold hypersurface classifier and its 3r > d+4 threshold", body)


def test_07_quartic_k3_preset():
    def body():
        expected = {2: (36, 40), 4: (136, 140)}
        for r, (dim_expected, count_expected) in expected.items():
            code, out, _ = run_cli("--format", "json", "check", "preset", "quartic-k3", "--r", str(r))
            assert code == 0
            doc = json.loads(out)
            rows = {
                (row["params"]["kind"], row["params"]["name"]): row["values"]
                for row in doc["rows"]
            }
            verdict = rows[("verdict", "2-normality-count")]
            assert verdict["status"] == "not-2-normal"
            assert Fraction(verdict["lhs"]) == dim_expected
            assert Fraction(verdict["rhs"]) == count_expected
        # speciality bound 17 along two independent computation paths
        res = surface_acm_criterion(8, 2, 36, 0, 14)
        assert res.degeneracy.h1_lower == 17
        assert res.degeneracy.h1_lower_rr == 17

    run_criterion(7, "quartic K3 preset fails 2-normality; speciality bound 17 twice", body)


def test_08_complete_intersection_scan():
    def body():
        report = ci_example_scan(50)
        by_d = {row.params[0]: dict(zip(report.columns, row.values)) for row in report.rows}
        # the five feasibility bullets, verbatim
        for d in range(6, 19, 2):
            assert by_d[d]["r_min"] == 2, d
        assert by_d[20]["r_min"] == 3 and by_d[22]["r_min"] == 3
        assert by_d[24]["r_min"] == 5
        assert by_d[26]["r_min"] == 8
        assert by_d[28]["r_min"] == 41
        # the global bound: nothing from degree 30 on, hence d <= 28, a <= 14
        feasible = {d for d, row in by_d.items() if row["feasible"]}
        assert feasible == set(range(6, 29, 2))
        for d in range(30, 35, 2):
            assert by_d[d]["note"] == "infeasible for every rank"
            # rank-independent certificate doubles as a brute-force check
            assert all(
                r * d * d - (30 * r - 18) * d + 44 * r - 12 > 0 for r in range(2, 200)
            )

    run_criterion(8, "complete-intersection feasibility list and the d <= 28 bound", body)


def test_09_curve_thresholds():
    def body():
        case = CurveCase(genus=3, degree=4, general=True, very_ample=True)
        sharp = {v.rule: v for v in curve_thresholds(case)}["general-sharp-degree"]
        assert sharp.status == POSITIVE
        assert sharp.witness.lhs == 25 == sharp.witness.rhs  # (2d-3)^2 = 8g+1
        mrc = mrc_check(3, 4)
        assert mrc.status == POSITIVE
        assert mrc.witness.lhs == 10 == mrc.witness.rhs  # sharpness for rank 1
        # every threshold row and the maximal-rank row is monotone in d,
        # over syzygy levels p <= 8, g <= 60 and d <= 200
        for g in range(0, 61):
            case = CurveCase(
                genus=g,
                degree=1,
                clifford=min(2, max(0, (g - 1) // 2)),
                very_ample=True,
                general=True,
            )
            for row in THRESHOLD_RULES + (MRC_RULE,):
                for x in range(2, 9) if row is SYZYGY_RULE else (case,):
                    holds = [row.sides(g, d, x)[0] for d in range(1, 201)]
                    assert holds == sorted(holds), (g, row.rule, x)

    run_criterion(9, "sharp curve bounds fire with equality; thresholds monotone in d", body)


def test_10_kko_audit():
    def body():
        expected = {
            2: [(1, 3, 6), (1, 4, 4)],
            3: [(1, 3, 8), (1, 4, 3), (1, 5, 4)],
            4: [(1, 3, 10), (1, 4, 6), (1, 5, 3), (1, 6, 4), (2, 8, 6)],
            5: [(1, 3, 12), (1, 4, 5), (1, 5, 2), (1, 6, 3), (1, 7, 4), (2, 8, 5), (2, 9, 6)],
        }
        floors = {2: 15, 3: 17, 4: 27, 5: 33}
        assert KKO_GENUS_FLOOR == floors
        rows = kko_audit()
        seen = {}
        for row in rows:
            assert row.bound == row.a - 2 * row.j - 1 + row.b
            assert row.bound < floors[row.h]
            assert row.ok
            seen.setdefault(row.h, []).append((row.j, row.a, row.b))
        assert seen == expected

    run_criterion(10, "special-locus audit table matches item for item", body)


def test_11_determinism():
    def body():
        # the exact invocation from the criterion, at the default ranks and trials
        first = run_cli("verify-formulas", "--seed", "7")
        second = run_cli("verify-formulas", "--seed", "7")
        assert first == second and first[0] == 0
        commands = [
            ("verify-formulas", "--seed", "7", "--ranks", "1..4", "--trials", "8"),
            ("scan", "ci", "--rmax", "50"),
            ("scan", "p3", "--dmax", "8", "--rmax", "6"),
            ("scan", "p4", "--dmax", "8", "--rmax", "6"),
            ("scan", "curve", "--gmax", "6", "--dmax", "10"),
            ("kko-audit",),
        ]
        for argv in commands:
            for fmt in ("table", "json", "csv"):
                first = run_cli("--format", fmt, *argv)
                second = run_cli("--format", fmt, *argv)
                assert first == second, argv
                assert first[0] == 0

    run_criterion(11, "byte-identical output for identical invocations", body)
