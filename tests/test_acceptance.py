"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from fractions import Fraction

import numpy as np

from tcsm.cli import run_table1_rows
from tcsm.dual_paths import dual_grad_and_second_log_psi0
from tcsm.model import (
    derive_params,
    ground_energy_coeff,
    ground_energy_physical,
    three_body_triples,
    triple_count_formula,
)
from tcsm.oracle import (
    PASS,
    ROUNDING_C,
    predicted_physical,
    sample_positions,
    verify_eigenstate,
)
from tcsm.polyalg import LaurentPoly, elementary_symmetric, power_sum
from tcsm.spectral import (
    H1Operator,
    boost_shift_check,
    build_pencil,
    exact_eigencheck,
    parity_partner,
    solve_pencil,
)
from tcsm.wavefunction import (
    COMBO,
    COS_SUM,
    E1,
    EN,
    ENM1,
    GROUND,
    NONDEG_ZERO,
    SIN_SUM,
    StateSpec,
    grad_log_psi0,
    laplacian_ratio_psi0,
)

ONE = Fraction(1)


def announce(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_table_reproduction():
    t0 = time.time()
    rows = run_table1_rows(samples=2000, seed=1)
    by_key = {(row["N"], row["r"]): row for row in rows}
    ok = all(
        by_key[key]["verdict"] == "match" and by_key[key]["formula"] == val
        for key, val in [((6, 2), 20), ((7, 2), 21), ((8, 2), 24), ((8, 3), 56), ((9, 2), 27)]
    )
    conflict = by_key[(9, 3)]
    ok &= conflict["verdict"] == "conflict"
    ok &= conflict["formula"] == 57 and conflict["published"] == 30
    ok &= conflict["oracle_confirms_formula"] is True
    ok &= conflict["oracle_rounding_multiple"] <= ROUNDING_C
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    announce(f"1 table reproduction ({elapsed:.1f}s)", ok)


def test_criterion_2_ground_state_everywhere():
    t0 = time.time()
    ok = True
    for n in range(4, 11):
        for r in range(1, 5):
            for beta in (0.5, 1.0, 2.0, 3.5):
                params = derive_params(n, r, beta=beta)
                report = verify_eigenstate(
                    params,
                    StateSpec(GROUND),
                    count=1000,
                    seed=1,
                    predicted=ground_energy_physical(params),
                )
                if report.verdict != PASS:
                    print("  ground failure:", n, r, beta, report)
                    ok = False
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    announce(f"2 ground-state eigenproperty grid ({elapsed:.1f}s)", ok)


def test_criterion_3_triple_count_identity():
    ok = True
    for n in range(3, 15):
        for r in range(1, 7):
            params = derive_params(n, r)
            if params.truncated:
                ok &= triple_count_formula(params) == len(three_body_triples(params))
    announce("3 triple-count identity", ok)


def test_criterion_4_excited_levels_oracle():
    ok = True
    for n, r in [(6, 2), (8, 3), (9, 2)]:
        for beta in (1.0, 2.5):
            params = derive_params(n, r, beta=beta)
            rb = 2 * r * beta
            expected = {
                E1: 1 + rb,
                ENM1: (n - 1) + rb,
                EN: float(n),
                COMBO: n + 2 * (1 + rb),
                COS_SUM: 1 + rb,
                SIN_SUM: 1 + rb,
                NONDEG_ZERO: 2 + 2 * rb,
            }
            for kind, level in expected.items():
                spec = StateSpec(kind)
                report = verify_eigenstate(
                    params,
                    spec,
                    count=600,
                    seed=3,
                    predicted=predicted_physical(spec, params),
                )
                close = abs(report.reduced_mean - level) / (abs(level) + 1) < 1e-8
                if report.verdict != PASS or not close:
                    print("  excited failure:", n, r, beta, kind, report)
                    ok = False
    announce("4 excited levels via local-energy oracle", ok)


def test_criterion_5_excited_levels_exact():
    ok = True
    for n, r in [(6, 2), (8, 3), (9, 2)]:
        op = H1Operator.build(derive_params(n, r, beta=1.0))
        e1 = elementary_symmetric(1, n)
        enm1 = elementary_symmetric(n - 1, n)
        en = elementary_symmetric(n, n)
        combo = e1 * enm1 - en.scale(Fraction(n, 1 + 2 * r))
        levels = {
            1: (e1, 1 + 2 * r),
            n - 1: (enm1, (n - 1) + 2 * r),
            n: (en, n),
        }
        ok &= exact_eigencheck(op, combo, ONE) == n + 2 * (1 + 2 * r)
        for degree, (poly, expected) in levels.items():
            ok &= exact_eigencheck(op, poly, ONE) == expected
        for degree in (1, n - 1, n):
            sol = solve_pencil(build_pencil(op, degree), 1.0)
            certified = {round(pr.value.real, 6) for pr in sol.certified}
            wanted = {lvl for d, (_, lvl) in levels.items() if d == degree}
            if degree == n:
                wanted.add(n + 2 * (1 + 2 * r))
            if not {float(w) for w in wanted} <= certified:
                print("  pencil failure:", n, r, degree, certified, wanted)
                ok = False
    announce("5 excited levels via exact operator algebra", ok)


def test_criterion_6_limits():
    ok = True
    # r = 1 nearest-neighbor limit: exact and oracle paths
    for n in (5, 6, 7):
        op = H1Operator.build(derive_params(n, 1, beta=1.0))
        e1 = elementary_symmetric(1, n)
        enm1 = elementary_symmetric(n - 1, n)
        en = elementary_symmetric(n, n)
        for beta in (Fraction(1, 2), ONE, Fraction(5, 2)):
            ok &= exact_eigencheck(op, e1, beta) == 1 + 2 * beta
            ok &= exact_eigencheck(op, enm1, beta) == (n - 1) + 2 * beta
            ok &= exact_eigencheck(op, en, beta) == n
            combo = e1 * enm1 - en.scale(Fraction(n) / (1 + 2 * beta))
            ok &= exact_eigencheck(op, combo, beta) == n + 2 * (1 + 2 * beta)
    for beta in (0.5, 2.0):
        params = derive_params(6, 1, beta=beta)
        for kind in (E1, ENM1, EN, COMBO):
            spec = StateSpec(kind)
            report = verify_eigenstate(
                params, spec, count=500, seed=5, predicted=predicted_physical(spec, params)
            )
            ok &= report.verdict == PASS
    # r >= c: full-pairing ground energy, formula and oracle
    for n, r in [(5, 2), (6, 3), (7, 3)]:
        params = derive_params(n, r, beta=1.3)
        ok &= ground_energy_coeff(params) == Fraction(n * (n * n - 1), 6)
        report = verify_eigenstate(
            params,
            StateSpec(GROUND),
            count=500,
            seed=7,
            predicted=ground_energy_physical(params),
        )
        ok &= report.verdict == PASS
    announce("6 nearest-neighbor and full-pairing limits", ok)


def test_criterion_7_degeneracy_structure():
    op = H1Operator.build(derive_params(6, 2, beta=1.0))
    e1 = elementary_symmetric(1, 6)
    enm1 = elementary_symmetric(5, 6)
    res = parity_partner(op, e1, ONE)
    ok = res.lam == res.lam_partner == 5
    ok &= res.partner == enm1 and not res.self_paired
    nd = e1 * power_sum(-1, 6) - LaurentPoly.constant(6, Fraction(6, 5))
    res_nd = parity_partner(op, nd, ONE)
    ok &= res_nd.self_paired and res_nd.lam == 10
    announce("7 parity degeneracy and kappa=0 non-degeneracy", ok)


def test_criterion_8_differentiation_cross_validation():
    ok = True
    worst = 0.0
    for n in range(4, 10):
        for r in range(1, 5):
            params = derive_params(n, r, beta=1.5)
            x = sample_positions(params, 1000, seed=11, min_sep_frac=1e-3)
            ga = grad_log_psi0(params, x)
            la = laplacian_ratio_psi0(params, x)
            gd, sd = dual_grad_and_second_log_psi0(params, x)
            ld = (gd * gd).sum(axis=-1) + sd.sum(axis=-1)
            rel_g = np.abs(ga - gd).max() / (np.abs(ga).max() + 1.0)
            rel_l = np.abs(la - ld).max() / (np.abs(la).max() + 1.0)
            worst = max(worst, rel_g, rel_l)
            if rel_g >= 1e-12 or rel_l >= 1e-12:
                print("  derivative mismatch:", n, r, rel_g, rel_l)
                ok = False
    announce(f"8 analytic vs dual-number derivatives (worst {worst:.2e})", ok)


def test_criterion_9_boost_property():
    operator_form_always = True
    quadratic_form_always = True
    for n, r in [(6, 2), (8, 3)]:
        op = H1Operator.build(derive_params(n, r, beta=1.0))
        vectors = [
            elementary_symmetric(1, n),
            elementary_symmetric(n - 1, n),
            elementary_symmetric(n, n),
        ]
        for poly in vectors:
            for q in (-1, 1, 2):
                bc = boost_shift_check(op, poly, q, ONE)
                operator_form_always &= bc.shift == bc.shift_operator_form
                quadratic_form_always &= bc.shift == bc.shift_quadratic_form
    # exactly one closed form must explain every measured shift
    ok = operator_form_always and not quadratic_form_always
    which = "2qd + Nq^2 (operator algebra)" if operator_form_always else "none"
    announce(f"9 boost shifts all match {which}", ok)
