import json
import math
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcsm.model import derive_params
from tcsm.oracle import verify_eigenstate
from tcsm.polyalg import (
    CYCLIC,
    SYMMETRIC,
    DivisionError,
    LaurentPoly,
    basis,
    cyclic_representative,
    elementary_symmetric,
    exact_divide,
    power_sum,
    project,
)
from tcsm.spectral import (
    BoostCheck,
    H1Operator,
    PencilError,
    apply_H1,
    boost_shift_check,
    build_pencil,
    closed_form_levels,
    exact_eigencheck,
    parity_partner,
    solve_pencil,
    spectrum_report,
    vector_poly,
)
from tcsm.wavefunction import POLY, StateSpec

GOLDEN = Path(__file__).parent / "goldens" / "spectrum_n6_r2_beta1.json"

ONE = Fraction(1)


def operator(n, r, beta=1.0):
    return H1Operator.build(derive_params(n, r, beta=beta))


def states(n):
    e1 = elementary_symmetric(1, n)
    enm1 = elementary_symmetric(n - 1, n)
    en = elementary_symmetric(n, n)
    return e1, enm1, en


def test_constants_annihilated():
    op = operator(6, 2)
    assert not apply_H1(op, LaurentPoly.constant(6, 3), ONE)


def test_four_levels_exact():
    for n, r in [(6, 2), (8, 3), (9, 2)]:
        op = operator(n, r)
        e1, enm1, en = states(n)
        rb = 2 * r  # at beta = 1
        assert exact_eigencheck(op, e1, ONE) == 1 + rb
        assert exact_eigencheck(op, enm1, ONE) == (n - 1) + rb
        assert exact_eigencheck(op, en, ONE) == n
        combo = e1 * enm1 - en.scale(Fraction(n, 1 + rb))
        assert exact_eigencheck(op, combo, ONE) == n + 2 * (1 + rb)


def test_nondeg_laurent_level():
    for n, r in [(6, 2), (8, 3)]:
        op = operator(n, r)
        e1 = elementary_symmetric(1, n)
        nd = e1 * power_sum(-1, n) - LaurentPoly.constant(n, Fraction(n, 1 + 2 * r))
        assert exact_eigencheck(op, nd, ONE) == 2 + 4 * r


def test_eigencheck_rejects_non_eigenvector():
    op = operator(6, 2)
    with pytest.raises(PencilError):
        exact_eigencheck(op, elementary_symmetric(2, 6), ONE)


def test_jk_limit_levels():
    # r=1 nearest-neighbor limit at several rational couplings
    for n in (5, 6, 7):
        op = operator(n, 1)
        e1, enm1, en = states(n)
        for beta in (Fraction(1, 2), ONE, Fraction(5, 2)):
            assert exact_eigencheck(op, e1, beta) == 1 + 2 * beta
            assert exact_eigencheck(op, enm1, beta) == (n - 1) + 2 * beta
            assert exact_eigencheck(op, en, beta) == n
            combo = e1 * enm1 - en.scale(Fraction(n) / (1 + 2 * beta))
            assert exact_eigencheck(op, combo, beta) == n + 2 * (1 + 2 * beta)


def test_full_regime_preserves_symmetric_space():
    # for r >= c the operator is fully symmetric, so images stay in Sym_d
    op = operator(7, 3)
    for d in (1, 2, 3):
        sym = basis(SYMMETRIC, 7, d)
        for el in sym.elements:
            _, residual = project(apply_H1(op, el, ONE), sym)
            assert not residual


def test_truncated_image_leaves_symmetric_space():
    op = operator(6, 2)
    sym = basis(SYMMETRIC, 6, 2)
    residuals = [project(apply_H1(op, el, ONE), sym)[1] for el in sym.elements]
    assert any(residuals)


def test_divisible_without_exchange_symmetry():
    # p is not symmetric under z0 <-> z1, but its one group (s = 4) has
    # sum_k (2k - s) c_k = (0 - 4) * 1 + (6 - 4) * 2 = 0, so the drift divides
    op = H1Operator(params=derive_params(3, 1), drift_pairs=((0, 1),))
    p = LaurentPoly(3, {(0, 4, 0): ONE, (3, 1, 0): Fraction(2)})
    image = apply_H1(op, p, ONE)
    assert image.canonical() == "(24)*z0^3*z1^1 + (8)*z0^2*z1^2 + (8)*z0^1*z1^3 + (20)*z1^4"


@pytest.mark.parametrize("c", [ONE, Fraction(3), Fraction(5, 2), Fraction(-2)])
def test_drift_not_divisible_raises(c):
    op = H1Operator(params=derive_params(3, 1), drift_pairs=((0, 1),))
    p = LaurentPoly(3, {(0, 4, 0): ONE, (3, 1, 0): c})
    with pytest.raises(DivisionError, match=r"\(0, 1\)"):
        apply_H1(op, p, ONE)
    # at beta = 0 the drift, and so its divisibility, is skipped
    assert apply_H1(op, p, 0) == LaurentPoly(3, {(0, 4, 0): Fraction(16), (3, 1, 0): 10 * c})


def _reference_apply_H1(op, p, beta):
    """The operator through generic Laurent algebra: D_j, scale, multiply by
    z_a + z_b, then one exact division per pair that moves p."""
    n = op.params.n
    out = LaurentPoly.zero(n)
    for j in range(n):
        out = out + p.apply_D(j).apply_D(j)
    for a, b in op.drift_pairs:
        moved = (p.apply_D(a) - p.apply_D(b)).scale(beta)
        if not moved:
            continue
        za_plus_zb = LaurentPoly.variable(n, a) + LaurentPoly.variable(n, b)
        out = out + exact_divide(za_plus_zb * moved, a, b)
    return out


@st.composite
def operator_inputs(draw):
    """(op, p, beta): p raw, summed over rotations, or (N <= 4) summed over
    every permutation of the variables; Laurent exponents, rational
    coefficients."""
    n = draw(st.integers(3, 6))
    r = draw(st.integers(1, n // 2 + 1))
    exps = st.tuples(*[st.integers(-2, 3)] * n)
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    terms = draw(st.dictionaries(exps, coeffs, max_size=4))
    orbit = draw(st.sampled_from([
        lambda e: [e],
        lambda e: [e[k:] + e[:k] for k in range(n)],
        lambda e: set(permutations(e)) if n <= 4 else [e],
    ]))
    sym = {}
    for e, c in terms.items():
        for f in orbit(e):
            sym[f] = sym.get(f, 0) + c
    beta = draw(st.one_of(st.integers(-3, 3).filter(bool),
                          st.fractions(max_value=Fraction(-1, 7), max_denominator=7),
                          st.just(0)))
    return operator(n, r), LaurentPoly(n, sym), beta


@given(operator_inputs())
@example((operator(4, 1), elementary_symmetric(2, 4), Fraction(-1, 3)))
@example((operator(5, 2), power_sum(-1, 5) * elementary_symmetric(2, 5), 2))
@settings(max_examples=100, deadline=None)
def test_apply_H1_matches_generic_algebra(case):
    op, p, beta = case
    try:
        want = _reference_apply_H1(op, p, beta)
    except DivisionError:
        with pytest.raises(DivisionError):
            apply_H1(op, p, beta)
        return
    got = apply_H1(op, p, beta)
    assert got == want
    assert all(type(c) is Fraction for c in got.terms.values())
    assert got.canonical() == want.canonical() and hash(got) == hash(want)


def _generic_block(op, degree):
    """(A0, A1, E) from the generic Laurent algebra: cyclic-basis coordinates
    of apply_H1 at beta = 0 (A0) and beta = 1 (A0 + A1), and of the element."""
    sym = basis(SYMMETRIC, op.params.n, degree)
    cyc = basis(CYCLIC, op.params.n, degree)
    a0, a1, emb = [], [], []
    for el in sym.elements:
        at0, res0 = project(apply_H1(op, el, 0), cyc)
        at1, res1 = project(apply_H1(op, el, ONE), cyc)
        coords, res_e = project(el, cyc)
        assert not (res0 or res1 or res_e)
        a0.append(at0)
        a1.append([y - x for x, y in zip(at0, at1)])
        emb.append(coords)
    return tuple(zip(*a0)), tuple(zip(*a1)), tuple(zip(*emb))


def _dense_block(block):
    """Dense (A0, A1, E) rebuilt from the block's column index, sparse A1
    rows and the diagonal D = sum_j lambda_j^2 over the symmetric labels."""
    diag = [sum(x * x for x in lam) for lam in block.sym_basis.labels]
    a0, a1, emb = [], [], []
    for j, row in zip(block.column, block.a1):
        a0.append(tuple(diag[j] if k == j else 0 for k in range(block.dim_sym)))
        a1.append(tuple(row.get(k, 0) for k in range(block.dim_sym)))
        emb.append(tuple(int(k == j) for k in range(block.dim_sym)))
    return tuple(a0), tuple(a1), tuple(emb)


@given(st.integers(4, 7), st.integers(1, 3), st.integers(1, 5))
@example(6, 3, 4)  # full regime, antipodal pairs counted once
@example(7, 2, 5)  # truncated regime
@example(8, 3, 7)
@settings(max_examples=20, deadline=None)
def test_pencil_matches_generic_algebra(n, r, degree):
    op = operator(n, r)
    block = build_pencil(op, degree)
    assert _dense_block(block) == _generic_block(op, degree)
    assert all(0 not in row.values() for row in block.a1)


@pytest.mark.parametrize("n", range(3, 10))
def test_pencil_rows(n):
    # in both regimes: E has full column rank, because column is
    # non-decreasing and hits every partition; A1[rho, sort rho] = sum over
    # drift pairs of |rho_a - rho_b|; and a necklace and its mirror have
    # equal A1 rows (the drift-pair set is invariant under j -> -j)
    for r in sorted({1, n // 2 + 1}):
        op = operator(n, r)
        for degree in range(1, 9):
            block = build_pencil(op, degree)
            assert list(block.column) == sorted(block.column)
            assert set(block.column) == set(range(block.dim_sym))
            rows = dict(zip(block.cyc_basis.labels, block.a1))
            for rho, j, row in zip(block.cyc_basis.labels, block.column, block.a1):
                assert row.get(j, 0) == sum(abs(rho[a] - rho[b]) for a, b in op.drift_pairs)
                assert rows[cyclic_representative(rho[::-1])] == row


def test_pencil_d1():
    op = operator(6, 2)
    block = build_pencil(op, 1)
    assert block.dim_sym == block.dim_cyc == 1
    sol = solve_pencil(block, 1.0)
    assert len(sol.certified) == 1
    assert sol.certified[0].value.real == pytest.approx(5.0, abs=1e-12)


def test_pencil_beta_dependence():
    op = operator(6, 2)
    block = build_pencil(op, 1)
    for beta in (0.5, 2.5):
        sol = solve_pencil(block, beta)
        assert sol.certified[0].value.real == pytest.approx(1 + 4 * beta, rel=1e-12)


def test_golden_spectrum_n6_r2():
    op = operator(6, 2)
    golden = json.loads(GOLDEN.read_text())
    for entry in golden:
        rep = spectrum_report(op, entry["degree"], 1.0)
        assert rep.basis_dims == (entry["dim_symmetric"], entry["dim_cyclic"])
        got = [(round(v, 9), m) for v, m, _ in rep.eigenvalues]
        want = [(e["value"], e["multiplicity"]) for e in entry["eigenvalues"]]
        assert got == want
        assert {k: round(v, 9) for k, v in rep.matched_levels.items()} == entry["matched_levels"]
        assert rep.n_ambiguous == entry["ambiguous_pairs"]
        assert rep.n_spurious == entry["spurious_pairs"]


def test_spurious_pairs_well_separated():
    op = operator(6, 2)
    for d in range(1, 7):
        sol = solve_pencil(build_pencil(op, d), 1.0)
        assert not sol.ambiguous


def test_certified_vector_matches_oracle():
    # exact/numeric agreement: a certified pencil eigenvector, evaluated as
    # psi0 * phi through the local-energy oracle, sits at its pencil eigenvalue
    params = derive_params(6, 2, beta=1.0)
    op = H1Operator.build(params)
    block = build_pencil(op, 6)
    sol = solve_pencil(block, 1.0)
    target = [pr for pr in sol.certified if abs(pr.value - 16.0) < 1e-6]
    assert target
    poly = vector_poly(block, target[0].vector)
    lam = exact_eigencheck(op, poly, ONE)
    assert lam == 16
    spec = StateSpec(POLY, poly=poly)
    report = verify_eigenstate(params, spec, count=300, seed=21)
    assert report.reduced_mean == pytest.approx(16.0, rel=1e-8)
    assert report.energy_stddev / (abs(report.energy_mean) + 1) < 1e-8


def test_parity_partner_e1():
    op = operator(6, 2)
    e1, enm1, _ = states(6)
    res = parity_partner(op, e1, ONE)
    assert res.lam == res.lam_partner == 5
    assert res.boost_q == 1
    assert res.partner == enm1
    assert not res.self_paired


def test_parity_partner_nondeg_self_paired():
    op = operator(6, 2)
    e1 = elementary_symmetric(1, 6)
    nd = e1 * power_sum(-1, 6) - LaurentPoly.constant(6, Fraction(6, 5))
    res = parity_partner(op, nd, ONE)
    assert res.self_paired
    assert res.lam == 10


def test_parity_partner_ground():
    op = operator(6, 2)
    res = parity_partner(op, LaurentPoly.constant(6, 1), ONE)
    assert res.self_paired
    assert res.lam == 0


def test_boost_shifts_match_operator_form():
    op = operator(6, 2)
    e1, _, en = states(6)
    cases = [
        (LaurentPoly.constant(6, 1), 1),
        (e1, 0),
        (e1, 1),
        (e1, -1),
        (e1, 2),
        (en, -1),
    ]
    for poly, q in cases:
        bc: BoostCheck = boost_shift_check(op, poly, q, ONE)
        assert bc.shift == bc.shift_operator_form
        if q:
            assert bc.matches in ("operator", "both")


def test_boost_q0_is_identity():
    op = operator(6, 2)
    e1 = elementary_symmetric(1, 6)
    bc = boost_shift_check(op, e1, 0, ONE)
    assert bc.shift == 0 and bc.matches == "both"


def test_closed_form_levels_full_regime_uses_drift_weight():
    # Sutherland limit: each site pairs with every other, rho = N - 1
    params = derive_params(7, 3, beta=1.0)
    levels = closed_form_levels(params, 1.0)
    assert levels["e1"] == pytest.approx(1 + 6)
    op = H1Operator.build(params)
    assert exact_eigencheck(op, elementary_symmetric(1, 7), ONE) == 7


def test_momentum_degree_relation():
    params = derive_params(6, 2, beta=1.0)
    op = H1Operator.build(params)
    rep = spectrum_report(op, 5, 1.0)
    assert rep.momentum == pytest.approx(5 * 2 * math.pi / params.length)


def test_degree_preserved():
    op = operator(6, 2)
    for d in (1, 2, 3, 4):
        for el in basis(SYMMETRIC, 6, d).elements:
            image = apply_H1(op, el, ONE)
            if image:
                assert image.degree() == d
