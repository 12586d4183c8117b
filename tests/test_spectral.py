import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcsm import spectral
from tcsm.model import derive_params
from tcsm.oracle import verify_eigenstate
from tcsm.polyalg import (
    CYCLIC,
    SYMMETRIC,
    DivisionError,
    LaurentPoly,
    basis,
    elementary_symmetric,
    exact_divide,
    power_sum,
    project,
)
from tcsm.spectral import (
    BoostCheck,
    H1Operator,
    PencilBlock,
    PencilError,
    apply_H1,
    boost_shift_check,
    build_pencil,
    closed_form_levels,
    exact_eigencheck,
    parity_partner,
    solve_pencil,
    spectrum_report,
)
from tcsm.wavefunction import POLY, StateSpec

from references import apply_D, sorted_key_build_pencil

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


def _reference_eigencheck(op, p, beta):
    """lambda through the Fraction image, or None when p is not an eigenvector."""
    image = apply_H1(op, p, beta)
    exps, coeff = next(iter(p.terms.items()))
    lam = image.coeff(exps) / coeff
    return lam if image == p.scale(lam) else None


def _named_states(params, beta):
    """The closed-form states at a Fraction beta, keyed as `closed_form_levels`."""
    n = params.n
    e1, enm1, en = states(n)
    mix = Fraction(n) / (1 + params.drift_weight * beta)
    return {
        "e1": e1,
        "enm1": enm1,
        "en": en,
        "combo": e1 * enm1 - en.scale(mix),
        "nondeg_zero": e1 * power_sum(-1, n) - LaurentPoly.constant(n, mix),
    }


@pytest.mark.parametrize("n, r", [(6, 2), (7, 2), (6, 4)])  # (6, 4): full regime
@pytest.mark.parametrize("beta", [ONE, Fraction(7, 3), Fraction(2, 5)])
def test_eigencheck_matches_fraction_reference(n, r, beta):
    """The packed-integer check gives the Fraction reference's lambda on every
    named state, its boosts, non-integer multiples and lambda = 0 (a constant,
    and e_N boosted by q = -1)."""
    op = operator(n, r)
    levels = closed_form_levels(op.params, beta)
    cases = [(LaurentPoly.constant(n, Fraction(-5, 3)), 0), (states(n)[2].shift_all(-1), 0)]
    for name, p in _named_states(op.params, beta).items():
        d = p.degree()
        for q in (0, -1, 1, 2):
            level = levels[name] + 2 * q * d + n * q * q
            cases += [(p.shift_all(q), level), (p.shift_all(q).scale(Fraction(-9, 14)), level)]
    for p, level in cases:
        lam = exact_eigencheck(op, p, beta)
        assert type(lam) is Fraction
        assert lam == _reference_eigencheck(op, p, beta) == level
        assert apply_H1(op, p, beta) == p.scale(lam)


def test_eigencheck_rejects_non_eigenvector():
    n, r = 6, 2
    op = operator(n, r)
    named = _named_states(op.params, ONE)
    e1, en, combo = named["e1"], named["en"], named["combo"]
    not_eigen = [
        elementary_symmetric(2, n),
        e1 + LaurentPoly.constant(n, 1),  # a stray monomial the image lacks
        e1 + en * en,  # a stray monomial of another level
        combo + en.scale(Fraction(1, 7)),  # the coefficient of z_1 ... z_N perturbed
        # p_2's image is a multiple of p_2 on p_2's own terms, plus
        # 4 z_a z_b for each drift pair: codes outside p's support
        power_sum(2, n),
        # lambda = 0 at p's first term, but the image is not empty
        LaurentPoly.constant(n, 1) + e1,
    ]
    for p in not_eigen:
        assert _reference_eigencheck(op, p, ONE) is None
        with pytest.raises(PencilError):
            exact_eigencheck(op, p, ONE)
    # at beta = -1, z_1/z_2 + z_2/z_1 maps to the constant -4: lambda = 0 on
    # each of p's terms, and the whole image lies outside p's support
    p = LaurentPoly(3, {(1, -1, 0): ONE, (-1, 1, 0): ONE})
    assert apply_H1(PAIR01, p, -1) == LaurentPoly.constant(3, -4)
    with pytest.raises(PencilError):
        exact_eigencheck(PAIR01, p, -1)
    # (z_1 + ... + z_N) z_1 is not divisible by z_1 - z_2
    with pytest.raises(DivisionError):
        exact_eigencheck(op, e1 * LaurentPoly.variable(n, 0), ONE)
    with pytest.raises(ValueError, match="variable count"):
        exact_eigencheck(op, elementary_symmetric(1, n + 1), ONE)
    with pytest.raises(ValueError, match="zero polynomial"):
        exact_eigencheck(op, LaurentPoly.zero(n), ONE)
    with pytest.raises(ValueError, match="zero polynomial"):
        exact_eigencheck(op, LaurentPoly.zero(n + 1), ONE)
    with pytest.raises(ValueError, match="variable count"):
        apply_H1(op, LaurentPoly.zero(n + 1), ONE)


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
        out = out + apply_D(apply_D(p, j), j)
    for a, b in op.drift_pairs:
        moved = (apply_D(p, a) - apply_D(p, b)).scale(beta)
        if not moved:
            continue
        za_plus_zb = LaurentPoly.variable(n, a) + LaurentPoly.variable(n, b)
        out = out + exact_divide(za_plus_zb * moved, a, b)
    return out


@st.composite
def operator_inputs(draw):
    """(op, p, beta): p raw, summed over rotations, (N <= 4) summed over every
    permutation of the variables, or summed over a split orbit for one drift
    pair, which is then op's only pair; Laurent exponents, rational
    coefficients."""
    n = draw(st.integers(3, 6))
    r = draw(st.integers(1, n // 2 + 1))
    op = operator(n, r)
    exps = st.tuples(*[st.integers(-4, 9)] * n)
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    terms = draw(st.dictionaries(exps, coeffs, max_size=6))
    kind = draw(st.sampled_from(["raw", "rotations", "permutations", "split"]))
    a, b = draw(st.sampled_from(op.drift_pairs))
    shift = draw(st.integers(1, 3))
    weight = draw(coeffs)

    def orbit(e):
        if kind == "rotations":
            return [(e[k:] + e[:k], ONE) for k in range(n)]
        if kind == "permutations" and n <= 4:
            return [(f, ONE) for f in set(permutations(e))]
        if kind == "split":
            # e, its a<->b swap times `weight`, and e times (z_a/z_b)^shift with
            # the coefficient that makes sum_k (2k - s) c_k of the three vanish:
            # a group of three or more that divides without exchange symmetry
            swap, moved = list(e), list(e)
            swap[a], swap[b] = e[b], e[a]
            moved[a] += shift
            moved[b] -= shift
            d = e[a] - e[b]
            fill = Fraction(d) * (weight - 1) / (d + 2 * shift) if d + 2 * shift else ONE
            return [(e, ONE), (tuple(swap), weight), (tuple(moved), fill)]
        return [(e, ONE)]

    if kind == "split":
        op = H1Operator(params=op.params, drift_pairs=((a, b),))
    sym = {}
    for e, c in terms.items():
        for f, w in orbit(e):
            sym[f] = sym.get(f, 0) + c * w
    beta = draw(st.one_of(st.integers(-3, 3).filter(bool),
                          st.fractions(max_value=Fraction(-1, 7), max_denominator=7),
                          st.just(0)))
    return op, LaurentPoly(n, sym), beta


PAIR01 = H1Operator(params=derive_params(3, 1), drift_pairs=((0, 1),))
# R^2 fixes these pairs and R does not: a proper rotation group from the pairs
PAIRS_R2 = H1Operator(params=derive_params(6, 1), drift_pairs=((0, 1), (2, 3), (4, 5)))


def _mono(*exps, coeff=ONE):
    return LaurentPoly(len(exps), {exps: Fraction(coeff)})


def _var_sum(n, *js):
    return sum((LaurentPoly.variable(n, j) for j in js), LaurentPoly.zero(n))


# each case must give the same outcome on the orbit representatives as on the
# generic algebra; the group that fixes p and the pairs is <R^2> (set by p or
# by the pairs), all rotations with antipodal pairs, or trivial
ORBIT_CASES = [
    # invariant under R^2 but not R; not divisible
    (operator(6, 2), _mono(1, 0, 1, 0, 1, 0) + _mono(0, 1, 0, 1, 0, 1, coeff=2), ONE),
    # (z0 + z1)(z2 + z3)(z4 + z5) plus a rotation-invariant part, on PAIRS_R2
    (PAIRS_R2, _var_sum(6, 0, 1) * _var_sum(6, 2, 3) * _var_sum(6, 4, 5)
     + elementary_symmetric(2, 6).scale(Fraction(-3, 4)), Fraction(5, 3)),
    # invariant under R, on pairs that only R^2 fixes
    (PAIRS_R2, elementary_symmetric(3, 6), 2),
    # antipodal pairs: the pair orbit at distance N/2 holds N/2 pairs, and
    # e_{N/2}'s image has codes with orbits of 2 and N/2
    (operator(6, 3), elementary_symmetric(3, 6), ONE),
    (operator(8, 4), elementary_symmetric(4, 8).scale(Fraction(2, 7)), Fraction(-3, 2)),
    # short orbits: (1,0,1,0,1,0) has two rotations, the constant one
    (operator(6, 2), _mono(1, 0, 1, 0, 1, 0) + _mono(0, 1, 0, 1, 0, 1), ONE),
    (operator(6, 2), elementary_symmetric(3, 6), 2),
    (operator(6, 2), LaurentPoly.constant(6, Fraction(2, 9)), Fraction(-1, 7)),
    # not rotation-invariant on the built operator: the trivial group
    (operator(6, 2), elementary_symmetric(1, 6) * LaurentPoly.variable(6, 0), ONE),
    (operator(6, 2), elementary_symmetric(1, 6) * LaurentPoly.variable(6, 0), 0),
    (PAIR01, LaurentPoly(3, {(0, 4, 0): ONE, (3, 1, 0): Fraction(2)}), ONE),
    # rotation-invariant but not divisible: sum_j z_j^2 z_(j+1)
    (operator(6, 2), sum((_mono(*(2 if j == k else int(j == (k + 1) % 6) for j in range(6)))
                          for k in range(6)), LaurentPoly.zero(6)), ONE),
]


def _with_orbit_cases(test):
    for case in ORBIT_CASES:
        test = example(case)(test)
    return test


@given(operator_inputs())
@_with_orbit_cases
@example((operator(4, 1), elementary_symmetric(2, 4), Fraction(-1, 3)))
@example((operator(5, 2), power_sum(-1, 5) * elementary_symmetric(2, 5), 2))
# one group of three with sum_k (2k - 5) c_k = -15 - 3 + 18 = 0; with 5 in
# place of 6 the sum is -3, and it does not divide
@example((PAIR01, LaurentPoly(3, {(0, 5, 0): Fraction(3), (1, 4, 0): ONE, (4, 1, 0): Fraction(6)}), ONE))
@example((PAIR01, LaurentPoly(3, {(0, 5, 0): Fraction(3), (1, 4, 0): ONE, (4, 1, 0): Fraction(5)}), ONE))
# exponents -3..12: neither group, (s, e_2) = (0, 0) or (16, -1), divides,
# but their sums -6 and 8 * 3/4 cancel if a packing base of only
# span + 1 = 16 gives them one key
@example((PAIR01, LaurentPoly(3, {(-3, 3, 0): ONE, (12, 4, -1): Fraction(3, 4)}), ONE))
@example((operator(4, 1), LaurentPoly.zero(4), 2))
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


@given(operator_inputs())
@_with_orbit_cases
@example((operator(6, 2), elementary_symmetric(1, 6).scale(Fraction(3, 4)), Fraction(7, 3)))
@example((operator(6, 2), LaurentPoly.constant(6, Fraction(2, 9)), Fraction(-1, 7)))
@settings(max_examples=100, deadline=None)
def test_eigencheck_agrees_with_fraction_reference(case):
    """On arbitrary p, the check certifies exactly what the reference does."""
    op, p, beta = case
    if not p:
        return
    try:
        want = _reference_eigencheck(op, p, beta)
    except DivisionError:
        with pytest.raises(DivisionError):
            exact_eigencheck(op, p, beta)
        return
    if want is None:
        with pytest.raises(PencilError):
            exact_eigencheck(op, p, beta)
    else:
        assert exact_eigencheck(op, p, beta) == want


def test_drift_runs_once_per_pair_orbit(monkeypatch):
    """One drift pass per orbit of the rotation group on the pairs: r_eff of
    them for a rotation-invariant state on the built operator, not N r_eff,
    and every pair when the pairs fix no rotation."""
    seen = []
    drift = spectral._drift

    def spy(a, b, *rest):
        seen.append((a, b))
        return drift(a, b, *rest)

    monkeypatch.setattr(spectral, "_drift", spy)
    op = operator(12, 4)
    combo = _named_states(op.params, ONE)["combo"]
    assert exact_eigencheck(op, combo, ONE) == 12 + 2 * (1 + 8)
    assert seen == [(0, 1), (0, 2), (0, 3), (0, 4)]
    seen.clear()
    p = _var_sum(6, 0, 1) * _var_sum(6, 2, 3) * _var_sum(6, 4, 5)
    assert apply_H1(PAIRS_R2, p, ONE) == _reference_apply_H1(PAIRS_R2, p, ONE)
    assert seen == [(0, 1)]
    seen.clear()
    # the pairs may come as lists, as `build_pencil` also accepts
    path = H1Operator(params=derive_params(3, 1), drift_pairs=[[0, 1], [1, 2]])
    e1 = elementary_symmetric(1, 3)
    assert apply_H1(path, e1, ONE) == _reference_apply_H1(path, e1, ONE)
    assert seen == [(0, 1), (1, 2)]


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


def _rows_by_partition(a0, a1, emb, diag):
    """Per partition k, a Counter of the dense A1 rows of its necklaces; each
    necklace's E row must be 1 at k and 0 elsewhere, and its A0 row D_k E."""
    rows = [Counter() for _ in diag]
    for r0, r1, e in zip(a0, a1, emb):
        k = e.index(1)
        assert e == tuple(int(j == k) for j in range(len(diag)))
        assert r0 == tuple(diag[k] * x for x in e)
        rows[k][r1] += 1
    return rows


def _stored_rows(block):
    """Per partition, a Counter of the block's dense A1 rows, by necklace count."""
    rows = [Counter() for _ in block.rows]
    for counter, stored in zip(rows, block.rows):
        for row, count in stored:
            counter[tuple(row.get(j, 0) for j in range(block.dim_sym))] += count
    return rows


def _diag(block):
    return [sum(x * x for x in lam) for lam in block.sym_basis.labels]


@given(st.integers(4, 7), st.integers(1, 3), st.integers(1, 5))
@example(6, 3, 4)  # full regime, antipodal pairs counted once
@example(7, 2, 5)  # truncated regime
@example(8, 3, 7)
@settings(max_examples=20, deadline=None)
def test_pencil_matches_generic_algebra(n, r, degree):
    # every entry of A0, A1 and E; only the order of the necklaces is dropped
    op = operator(n, r)
    block = build_pencil(op, degree)
    assert _stored_rows(block) == _rows_by_partition(*_generic_block(op, degree), _diag(block))
    assert all(0 not in row.values() for rows in block.rows for row, _ in rows)


def _partition(rho):
    return tuple(sorted(filter(None, rho), reverse=True))


@pytest.mark.parametrize("n", range(3, 10))
def test_pencil_rows(n):
    # in both regimes: E has full column rank, because every partition has a
    # necklace; the counts cover every necklace once; per partition k,
    # sum count * A1[rho, k] = sum over its necklaces of sum over drift pairs
    # of |rho_a - rho_b|; and no partition stores a row twice
    for r in sorted({1, n // 2 + 1}):
        op = operator(n, r)
        for degree in range(1, 9):
            block = build_pencil(op, degree)
            cyc = basis(CYCLIC, n, degree)
            index = {lam: k for k, lam in enumerate(block.sym_basis.labels)}
            own = Counter()
            for rho in cyc.labels:
                own[index[_partition(rho)]] += sum(abs(rho[a] - rho[b]) for a, b in op.drift_pairs)
            assert block.dim_cyc == len(cyc)
            assert sum(count for rows in block.rows for _, count in rows) == len(cyc)
            assert len(block.rows) == block.dim_sym and all(block.rows)
            for k, rows in enumerate(block.rows):
                # splits move exponents apart: a row reaches only partitions
                # dominating its own, which come first in reverse lex order
                assert all(max(row) <= k for row, _ in rows)
                assert sum(count * row.get(k, 0) for row, count in rows) == own[k]
                assert len({frozenset(row.items()) for row, _ in rows}) == len(rows)


# N 3-8, every r (r_eff saturates in the full regime), d <= 7: 189 blocks
@pytest.mark.parametrize("n", range(3, 9))
def test_pencil_matches_sorted_key_reference(n):
    # the packed rows carried along the necklace walk against one sorted key
    # of pair codes per necklace: the same rows with the same necklace
    # counts, and the same levels, eigenvectors and spurious values
    for r in range(1, n):
        op = operator(n, r)
        for degree in range(1, 8):
            block, ref = build_pencil(op, degree), sorted_key_build_pencil(op, degree)
            assert block.dim_cyc == ref.dim_cyc
            assert _stored_rows(block) == _stored_rows(ref)
            for beta in (ONE, Fraction(7, 3), Fraction(2, 5)):
                assert solve_pencil(block, beta) == solve_pencil(ref, beta)


# N 4-7 at r = 1 and d 8..2N (d <= 7 is above): few pairs, so the rows are
# sparse and span many columns
@pytest.mark.parametrize("n", range(4, 8))
def test_pencil_matches_sorted_key_reference_at_high_degree(n):
    op = operator(n, 1)
    for degree in range(8, 2 * n + 1):
        block, ref = build_pencil(op, degree), sorted_key_build_pencil(op, degree)
        assert block.dim_cyc == ref.dim_cyc
        assert _stored_rows(block) == _stored_rows(ref)
        assert solve_pencil(block, Fraction(7, 3)) == solve_pencil(ref, Fraction(7, 3))


def test_row_entries_skip_zero_columns():
    # leading zero columns, gaps between entries, a full-width entry in the top column
    bits = 5
    for row in ({}, {0: 1}, {3: 7}, {0: 31, 1: 1}, {2: 1, 9: 16, 10: 3, 40: 31}, {64: 2}):
        packed = sum(v << bits * j for j, v in row.items())
        got = spectral._row_entries(packed, bits)
        assert got == row and list(got) == sorted(row)


@pytest.mark.parametrize(
    "n, r, degree",
    [(n, r, d) for n in range(3, 9) for r in sorted({1, n // 2 + 1}) for d in range(1, 9)]
    # high degrees, where the runs are longest: two full-regime blocks, one truncated
    + [(6, 3, 18), (8, 4, 16), (7, 2, 14)],
)
def test_pencil_entries_fit_their_digits(n, r, degree):
    # every A1 entry of the unpacked reference lies in 1..2dP, P the pair
    # count, so packed rows of (2dP).bit_length() bits a column never carry
    # into the next column, and the packed build gives the same rows
    op = operator(n, r)
    bound = 2 * degree * len(op.drift_pairs)
    ref = sorted_key_build_pencil(op, degree)
    assert all(1 <= v <= bound for rows in ref.rows for row, _ in rows for v in row.values())
    assert _stored_rows(build_pencil(op, degree)) == _stored_rows(ref)


def test_pencil_memory_is_bounded_by_its_rows():
    # (9,3,9): 2,704 necklaces, 344 distinct rows.  The walk keeps one word and
    # one list of prefix sums, not a key per necklace: the sorted-key
    # reference peaks at about 0.3 MiB here, the walk at about 0.1 MiB
    op = operator(9, 3)
    tracemalloc.start()
    try:
        build_pencil(op, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * 2**20


def test_pencil_d1():
    op = operator(6, 2)
    block = build_pencil(op, 1)
    assert block.dim_sym == block.dim_cyc == 1
    sol = solve_pencil(block, 1.0)
    assert len(sol.certified) == 1
    assert sol.certified[0].value == 5


def test_pencil_beta_dependence():
    op = operator(6, 2)
    block = build_pencil(op, 1)
    for beta in (0.5, 2.5):
        sol = solve_pencil(block, beta)
        assert sol.certified[0].value == 1 + 4 * Fraction(beta)


def test_golden_spectrum_n6_r2():
    op = operator(6, 2)
    golden = json.loads(GOLDEN.read_text())
    for entry in golden:
        rep = spectrum_report(op, entry["degree"], 1.0)
        assert rep.basis_dims == (entry["dim_symmetric"], entry["dim_cyclic"])
        got = [(round(v, 9), m) for v, m in rep.eigenvalues]
        want = [(e["value"], e["multiplicity"]) for e in entry["eigenvalues"]]
        assert got == want
        assert {k: round(v, 9) for k, v in rep.matched_levels.items()} == entry["matched_levels"]
        assert rep.to_dict()["ambiguous_pairs"] == entry["ambiguous_pairs"]
        assert rep.n_spurious == entry["spurious_pairs"]


def _float_judge(block, beta_value):
    """The float solve that the exact one replaced, kept as a reference:
    eigenpairs of the square operator E^+ A, certified by their residual
    ||Av - lambda Ev|| / ||Ev|| below 1e-10 and rejected above 1e-4.
    Returns ((value, multiplicity), ...) of the certified values grouped at
    1e-7, the rejected values, ascending, and the undecided pair count."""
    stored = [(k, row, count) for k, rows in enumerate(block.rows) for row, count in rows]
    column = np.array([k for k, _, _ in stored])
    weight = np.array([count for _, _, count in stored], dtype=float)
    diag = np.array(_diag(block), dtype=float)
    a1 = np.zeros((len(stored), block.dim_sym))
    for i, (_, entries, _) in enumerate(stored):
        a1[i, list(entries)] = list(entries.values())
    lengths = [len(rows) for rows in block.rows]
    mean = np.add.reduceat(weight[:, None] * a1, np.cumsum(lengths) - lengths)
    mean /= np.bincount(column, weights=weight)[:, None]
    w, vecs = np.linalg.eig(np.diag(diag) + beta_value * mean)
    certified, rejected, undecided = [], [], 0
    for value, v in sorted(zip(w, vecs.T), key=lambda pair: (pair[0].real, pair[0].imag)):
        ev = v[column]
        av = diag[column] * ev + beta_value * (a1 @ v)
        # each stored row stands for `count` equal necklace rows
        res = np.sqrt(weight @ np.abs(av - value * ev) ** 2 / (weight @ np.abs(ev) ** 2))
        if res < 1e-10:
            if certified and abs(value - certified[-1][0]) < 1e-7 * (1 + abs(value)):
                certified[-1][1] += 1
            else:
                certified.append([value.real, 1])
        elif res > 1e-4:
            rejected.append(value.real)
        else:
            undecided += 1
    return tuple(map(tuple, certified)), rejected, undecided


# both regimes; (6, 3) and (7, 3) at d = 6 have two-dimensional eigenspaces
@pytest.mark.parametrize("n, r", [(n, r) for n in range(3, 8) for r in range(1, n // 2 + 2)])
def test_exact_solve_matches_float_judge(n, r):
    op = operator(n, r)
    for degree in range(1, min(n, 6) + 1):
        block = build_pencil(op, degree)
        for beta in (1.0, 0.3, 2.5):
            sol = solve_pencil(block, beta)
            want, rejected, undecided = _float_judge(block, beta)
            got = tuple(Counter(pr.value for pr in sol.certified).items())
            assert undecided == 0
            assert [m for _, m in got] == [m for _, m in want]
            assert [float(v) for v, _ in got] == pytest.approx([v for v, _ in want], rel=1e-9)
            # the spurious values are the rest of the diagonal of E^+ A, whose
            # partition averages weight each stored row by its count
            assert [float(v) for v in sol.spurious] == pytest.approx(rejected, rel=1e-9)
            assert sol.ambiguous == ()


def test_full_regime_levels_are_jack_values():
    # r >= c: every partition lambda gives one level,
    # sum_j lambda_j^2 + beta sum_j (N + 1 - 2j) lambda_j, and nothing is spurious
    for n, r in [(4, 2), (5, 2), (6, 3), (7, 4)]:
        op = operator(n, r)
        for degree in range(1, 7):
            block = build_pencil(op, degree)
            for beta in (ONE, Fraction(3, 10), Fraction(5, 2)):
                sol = solve_pencil(block, beta)
                want = Counter(
                    sum(x * x + beta * (n - 1 - 2 * j) * x for j, x in enumerate(lam))
                    for lam in block.sym_basis.labels
                )
                assert Counter(pr.value for pr in sol.certified) == want
                assert sol.spurious == ()


def test_later_head_restarts_an_emptied_span():
    # a hand-made lower-triangular block, D = 9, 5, 3 over three partitions:
    # the level 9 of head (3) dies on the disagreeing rows of (2, 1), and
    # head (1, 1, 1), at 3 + 6 = 9 too, carries the eigenvector alone
    block = PencilBlock(
        degree=3,
        sym_basis=SimpleNamespace(labels=[(3,), (2, 1), (1, 1, 1)]),
        dim_cyc=4,
        rows=((({}, 1),), (({1: 1}, 1), ({0: 1, 1: 2}, 1)), (({2: 6}, 1),)),
    )
    sol = solve_pencil(block, 1)
    assert [(pr.value, pr.vector) for pr in sol.certified] == [(9, (0, 0, 1))]
    assert sol.spurious == (Fraction(13, 2), 9)  # the diagonal of E^+ A, less the level


def vector_poly(block, vector):
    """Assemble exact symmetric-basis coordinates into a polynomial."""
    out = LaurentPoly.zero(block.sym_basis.nvars)
    for coord, el in zip(vector, block.sym_basis.elements):
        if coord:
            out = out + el.scale(Fraction(coord))
    return out


def _assert_exact_eigenvectors(op, block, pairs, beta):
    for pr in pairs:
        assert all(type(c) is Fraction for c in pr.vector)
        assert exact_eigencheck(op, vector_poly(block, pr.vector), beta) == pr.value


def test_pencil_vectors_are_exact_eigenvectors():
    for n, r, beta, degrees in [
        (6, 2, ONE, range(1, 7)),
        (7, 2, Fraction(3, 10), range(1, 7)),
        (5, 1, Fraction(3, 10), range(1, 7)),
        (6, 3, Fraction(5, 2), range(1, 5)),  # full regime
    ]:
        op = operator(n, r)
        for degree in degrees:
            block = build_pencil(op, degree)
            _assert_exact_eigenvectors(op, block, solve_pencil(block, beta).certified, beta)
    # each basis vector of the two-dimensional eigenspaces of (6, 3) at d = 6
    op = operator(6, 3)
    block = build_pencil(op, 6)
    sol = solve_pencil(block, ONE)
    counts = Counter(pr.value for pr in sol.certified)
    shared = [pr for pr in sol.certified if counts[pr.value] == 2]
    assert len(shared) == 4
    _assert_exact_eigenvectors(op, block, shared, ONE)


# (9, 2, 9) at 19: m_(2,1^7) + (36/5) m_(1^9), 73 monomials
@pytest.mark.parametrize("n, r, level", [(6, 2, 16), (9, 2, 19)])
def test_certified_vector_matches_oracle(n, r, level):
    # exact/numeric agreement: a certified pencil eigenvector, evaluated as
    # psi0 * phi through the local-energy oracle, sits at its pencil eigenvalue
    params = derive_params(n, r, beta=1.0)
    op = H1Operator.build(params)
    block = build_pencil(op, n)
    sol = solve_pencil(block, 1.0)
    target = [pr for pr in sol.certified if pr.value == level]
    assert target
    poly = vector_poly(block, target[0].vector)
    lam = exact_eigencheck(op, poly, ONE)
    assert lam == level
    spec = StateSpec(POLY, poly=poly)
    report = verify_eigenstate(params, spec, count=300, seed=21)
    assert report.reduced_mean == pytest.approx(level, rel=1e-8)
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


def test_parity_partner_odd_state_self_paired():
    # p_1 - p_{-1} mirrors to its negative, so it is its own partner up to sign
    op = operator(6, 2)
    odd = power_sum(1, 6) - power_sum(-1, 6)
    assert odd.invert_vars() == -odd
    res = parity_partner(op, odd, ONE)
    assert res.self_paired
    assert res.lam == res.lam_partner == 1 + 2 * 2
    assert res.boost_q == 1


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


def test_exact_checks_at_n24():
    n, r = 24, 8
    op = operator(n, r)
    e1, enm1, en = states(n)
    rb = 2 * r
    combo = e1 * enm1 - en.scale(Fraction(n, 1 + rb))
    assert exact_eigencheck(op, combo, ONE) == 24 + 2 * (1 + 16)
    kappa0 = e1 * power_sum(-1, n) - LaurentPoly.constant(n, Fraction(n, 1 + rb))
    res = parity_partner(op, kappa0, ONE)
    assert res.self_paired and res.lam == res.lam_partner == 2 + 2 * 16
    for q in (-1, 1, 2):
        assert boost_shift_check(op, enm1, q, ONE).matches == "operator"


def test_checks_agree_on_tuple_and_list_pairs():
    # the operator's tuple of tuples keys `_pair_orbits`'s cache as it is;
    # lists of lists are copied into tuples first, and give the same results
    for n, r in [(8, 3), (12, 4)]:
        built = operator(n, r)
        listed = H1Operator(params=built.params, drift_pairs=[list(pair) for pair in built.drift_pairs])
        e1, enm1, en = states(n)
        rb = 2 * r
        named = {
            "e1": e1,
            "enm1": enm1,
            "en": en,
            "combo": e1 * enm1 - en.scale(Fraction(n, 1 + rb)),
            "kappa0": e1 * power_sum(-1, n) - LaurentPoly.constant(n, Fraction(n, 1 + rb)),
        }
        results = []
        for op in (built, listed):
            spectral._pair_orbits.cache_clear()
            results.append({
                name: (
                    exact_eigencheck(op, p, ONE),
                    parity_partner(op, p, ONE),
                    [boost_shift_check(op, p, q, ONE) for q in (-1, 1)],
                )
                for name, p in named.items()
            })
        assert results[0] == results[1], (n, r)
        assert results[0]["kappa0"][1].self_paired, (n, r)
        assert [c.matches for c in results[0]["enm1"][2]] == ["operator"] * 2, (n, r)


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
    assert closed_form_levels(params, ONE)["e1"] == 7
    op = H1Operator.build(params)
    assert exact_eigencheck(op, elementary_symmetric(1, 7), ONE) == 7


def test_closed_form_levels_follow_beta_type():
    # exact for a Fraction beta, and the same floats as before for a float one
    params = derive_params(6, 2, beta=0.3)
    exact = closed_form_levels(params, Fraction(3, 10))
    assert exact == {
        "e1": Fraction(11, 5), "enm1": Fraction(31, 5), "en": 6,
        "combo": Fraction(52, 5), "nondeg_zero": Fraction(22, 5),
    }
    assert all(isinstance(v, (int, Fraction)) for v in exact.values())
    rb = 4 * 0.3
    assert closed_form_levels(params, 0.3) == {
        "e1": 1.0 + rb, "enm1": 5.0 + rb, "en": 6.0, "combo": 6 + 2.0 * (1.0 + rb),
        "nondeg_zero": 2.0 + 2.0 * rb,
    }


def test_spectrum_report_matches_levels_exactly():
    # at beta = 0.3 the levels are exact in the binary value of 0.3, and
    # the report matches them by equality, with no tolerance
    op = operator(6, 2, beta=0.3)
    rep = spectrum_report(op, 6, 0.3)
    rb = 4 * Fraction(0.3)
    assert rep.matched_levels == {"en": 6, "combo": 6 + 2 * (1 + rb)}
    assert [v for v, _ in rep.eigenvalues] == [6, 6 + 2 * (1 + rb)]
    assert rep.to_dict()["matched_levels"] == {"en": 6.0, "combo": float(6 + 2 * (1 + rb))}


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
