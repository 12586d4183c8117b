import math
from fractions import Fraction

import numpy as np
import pytest

from tcsm.dual_paths import dual_grad_and_second_log_psi0
from tcsm.model import derive_params, interaction_pairs, three_body_triples
from tcsm.oracle import local_energy_batch, potential_energy, sample_positions, state_degree
from tcsm.polyalg import LaurentPoly
from tcsm.wavefunction import (
    COMBO,
    COS_SUM,
    E1,
    EN,
    ENM1,
    GROUND,
    NONDEG_ZERO,
    POLY,
    SIN_SUM,
    BOOSTED,
    COINCIDENT_COT,
    COINCIDENT_SPAN,
    SEPARATION_FLOOR,
    SeparationError,
    StateSpec,
    _site_sum,
    grad_log_psi0,
    laplacian_ratio_psi0,
    log_psi0,
    min_cyclic_separation,
    pair_cot,
    phi_eval_batch,
    phi_moduli,
)

from references import dual_phi_eval, per_coordinate_dual_grad_and_second_log_psi0

L = 2.0 * math.pi


def equispaced(n, length=L):
    return np.arange(n) * length / n


def test_log_psi0_closed_form():
    # N=4, r=1: four nearest-neighbor gaps of L/4, each factor sin(pi/4)
    p = derive_params(4, 1, beta=1.0)
    val = log_psi0(p, equispaced(4))
    assert val == pytest.approx(-2.0 * math.log(2.0), rel=1e-14)


def test_log_psi0_linear_in_beta():
    p1 = derive_params(6, 2, beta=1.0)
    p2 = derive_params(6, 2, beta=2.0)
    x = sample_positions(p1, 20, seed=5)
    np.testing.assert_allclose(2.0 * log_psi0(p1, x), log_psi0(p2, x), rtol=1e-14)


def test_log_psi0_rotation_and_relabel_invariance():
    p = derive_params(7, 2, beta=1.7)
    x = sample_positions(p, 50, seed=9)
    np.testing.assert_allclose(log_psi0(p, x), log_psi0(p, (x + 1.3) % L), rtol=1e-12)
    np.testing.assert_allclose(log_psi0(p, x), log_psi0(p, np.roll(x, 2, axis=-1)), rtol=1e-12)


def test_full_regime_permutation_invariance():
    p = derive_params(6, 3, beta=1.3)
    assert not p.truncated
    x = sample_positions(p, 30, seed=11)
    rng = np.random.default_rng(0)
    perm = rng.permutation(6)
    np.testing.assert_allclose(log_psi0(p, x), log_psi0(p, x[..., perm]), rtol=1e-12)


def test_truncated_regime_not_fully_symmetric():
    p = derive_params(7, 2, beta=1.0)
    x = sample_positions(p, 1, seed=3)[0]
    swapped = x.copy()
    swapped[[0, 3]] = swapped[[3, 0]]  # distance-3 swap is not a dihedral relabeling
    assert abs(log_psi0(p, x) - log_psi0(p, swapped)) > 1e-8


def test_gradient_zero_at_equispaced():
    for n, r in [(5, 1), (6, 2), (8, 3)]:
        p = derive_params(n, r, beta=1.5)
        g = grad_log_psi0(p, equispaced(n))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_gradient_components_sum_to_zero():
    p = derive_params(8, 3, beta=2.5)
    x = sample_positions(p, 100, seed=2)
    g = grad_log_psi0(p, x)
    np.testing.assert_allclose(g.sum(axis=-1), 0.0, atol=1e-10)


def test_gradient_matches_finite_differences():
    p = derive_params(6, 2, beta=1.5)
    x = sample_positions(p, 5, seed=8, min_sep_frac=5e-3)
    h = 1e-6 * L
    g = grad_log_psi0(p, x)
    for m in range(6):
        xp, xm = x.copy(), x.copy()
        xp[..., m] += h
        xm[..., m] -= h
        fd = (log_psi0(p, xp) - log_psi0(p, xm)) / (2 * h)
        np.testing.assert_allclose(g[..., m], fd, rtol=1e-6, atol=1e-8)


def test_laplacian_matches_finite_differences():
    p = derive_params(5, 2, beta=2.0)
    x = sample_positions(p, 3, seed=4, min_sep_frac=2e-2)
    h = 1e-5 * L
    lap = laplacian_ratio_psi0(p, x)
    approx = np.zeros_like(lap)
    f0 = log_psi0(p, x)
    g = grad_log_psi0(p, x)
    for m in range(5):
        xp, xm = x.copy(), x.copy()
        xp[..., m] += h
        xm[..., m] -= h
        second = (log_psi0(p, xp) - 2 * f0 + log_psi0(p, xm)) / h**2
        approx += second + g[..., m] ** 2
    np.testing.assert_allclose(lap, approx, rtol=1e-5)


def test_laplacian_scaling():
    p1 = derive_params(6, 2, beta=1.0, length=L)
    p2 = derive_params(6, 2, beta=1.0, length=2 * L)
    x = sample_positions(p1, 10, seed=6)
    np.testing.assert_allclose(
        laplacian_ratio_psi0(p2, 2 * x), laplacian_ratio_psi0(p1, x) / 4.0, rtol=1e-12
    )


def index_array_reference(params, x):
    """(log psi0, grad log psi0, Delta psi0 / psi0, potential, sum of the
    potential's term magnitudes) gathered over the enumerated pairs and
    triples and scattered with np.add.at, kept as the reference for the
    distance-row evaluators."""
    a, b = np.array(interaction_pairs(params)).reshape(-1, 2).T
    i, j, k = np.array(three_body_triples(params), dtype=int).reshape(-1, 3).T
    L_, beta = params.length, params.beta
    theta = math.pi * ((x[..., a] - x[..., b]) % L_) / L_
    s = np.sin(theta)
    cot = np.cos(theta) / s
    grad = np.zeros(x.shape)
    np.add.at(grad, (slice(None), a), beta * math.pi / L_ * cot)
    np.add.at(grad, (slice(None), b), -beta * math.pi / L_ * cot)
    csc2 = (1.0 / (s * s)).sum(axis=-1)
    lap = (grad * grad).sum(axis=-1) - 2.0 * beta * (math.pi / L_) ** 2 * csc2
    # the potential takes raw differences, as wrapping costs digits
    angle = lambda u, v: math.pi * (x[..., u] - x[..., v]) / L_  # noqa: E731
    terms = (math.pi / L_) ** 2 * np.concatenate(
        [params.g / np.sin(angle(a, b)) ** 2,
         -params.big_g / (np.tan(angle(i, j)) * np.tan(angle(j, k)))], axis=-1)
    potential = terms.sum(axis=-1)
    return beta * np.log(s).sum(axis=-1), grad, lap, potential, np.abs(terms).sum(axis=-1)


def test_pair_sums_match_index_array_reference():
    # r runs past N/2, so every even N meets the antipodal row (r_eff = N/2)
    for n in range(3, 41):
        for r in range(1, n // 2 + 2):
            p = derive_params(n, r, beta=1.5)
            x = sample_positions(p, 4, seed=n + 100 * r)
            log_ref, grad_ref, lap_ref, pot_ref, pot_scale = index_array_reference(p, x)
            np.testing.assert_allclose(log_psi0(p, x), log_ref, rtol=1e-12)
            # relative to the terms' magnitudes: the cot*cot terms can cancel
            # to a sum far below them, and then neither side keeps 13 digits
            assert np.all(np.abs(potential_energy(p, x) - pot_ref) <= 1e-13 * pot_scale), (n, r)
            g, lap = grad_log_psi0(p, x), laplacian_ratio_psi0(p, x)
            assert np.abs(g - grad_ref).max() / (np.abs(grad_ref).max() + 1.0) < 1e-12, (n, r)
            assert np.abs(lap - lap_ref).max() / (np.abs(lap_ref).max() + 1.0) < 1e-12, (n, r)


def test_site_sum_adds_every_site_once():
    # integers keep the sums exact; odd lengths carry a site into the next halving
    rng = np.random.default_rng(3)
    for n in range(1, 18):
        a = rng.integers(-1000, 1000, size=(n, 2, 3)).astype(float)
        np.testing.assert_array_equal(_site_sum(a), a.sum(axis=0))
        assert _site_sum(a[:, 0, 0]) == a[:, 0, 0].sum()


def local_energy(p, x):
    return local_energy_batch(p, StateSpec(COMBO), x)


# (x at site 0, x at the other site) of a pair k whole periods apart: k = 0,
# +-1, +-2, 64 (32 L is exact, so -32 L and 32 L differ by exactly 64 L), and
# 2^40 beyond COINCIDENT_SPAN L, where the angle rounds 1.3e-4 from k pi and
# cot is about 7e3: only the bound on |x| sends that pair to the exact test
COINCIDENT = {
    "coincident": (0.0, 0.0),
    "one_period_apart": (0.0, L),
    "one_period_behind": (0.0, -L),
    "two_periods_apart": (0.0, 2 * L),
    "two_periods_behind": (0.0, -2 * L),
    "64_periods_apart": (-32 * L, 32 * L),
    "beyond_the_span": (0.0, 2.0**40 * L),
}


# a 1/0 or an overflow before the SeparationError fails the test
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "evaluate", [log_psi0, grad_log_psi0, laplacian_ratio_psi0, potential_energy, local_energy])
@pytest.mark.parametrize("pair", COINCIDENT.values(), ids=COINCIDENT)
@pytest.mark.parametrize("site", [1, 2, 5])
def test_coincident_pair_rejected(evaluate, pair, site):
    # sites 1 and 5 are nearest neighbours of site 0 and site 2 is at distance 2
    p = derive_params(6, 2, beta=2.0)
    x = sample_positions(p, 3, seed=1)
    x[1, 0], x[1, site] = pair
    with pytest.raises(SeparationError):
        evaluate(p, x)


@pytest.mark.parametrize("length", [1.0, L, 0.3, 1e6, 1e-6])
def test_coincident_pairs_clear_the_cot_bound(length):
    # every pair that the exact test flags k whole periods apart, with
    # |k| <= 2 COINCIDENT_SPAN, has |cot| > 2.08e15 / |k| without the test;
    # at length 1 every k is exact, up to 127 with both |x| < 64 L
    p = derive_params(6, 2, length, 2.0)
    near = np.arange(-2 * COINCIDENT_SPAN, 2 * COINCIDENT_SPAN + 1) * length
    near = np.concatenate([near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf)])
    k = np.rint(near / length)
    near = near[np.abs(k - near / length) < SEPARATION_FLOOR]
    assert len(near) > 4 * COINCIDENT_SPAN
    xs = np.tile(np.arange(6.0)[:, None] * length / 6 + length / 12, (1, len(near)))
    xs[0], xs[1] = near, 0.0
    with np.errstate(divide="ignore", over="ignore"):  # cot is inf at k = 0
        cot = np.abs(pair_cot(p, xs, check=False)[0, 0])
    k = np.abs(np.rint(near / length))
    assert np.all(cot >= np.where(k == 0, 3e299, 2.08e15 / np.maximum(k, 1))), length
    assert np.all(cot > 16 * COINCIDENT_COT)
    if length == 1.0:
        y = sample_positions(p, 3, seed=1)
        y[1, 0], y[1, 1] = -63.5, 63.5
        with pytest.raises(SeparationError):
            local_energy(p, y)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_near_coincident_pair_is_legal():
    # 1e-9 L apart, cot is 3e8: far below the bound, so M decides alone
    p = derive_params(6, 2, beta=2.0)
    x = sample_positions(p, 3, seed=1)
    x[1, 1] = x[1, 0] + 1e-9 * L
    e, nodes, mag = local_energy(p, x)
    assert np.all(np.isfinite(e)) and np.all(np.isfinite(mag))
    assert mag[1] < 0.5 * p.big_g * (math.pi / L) ** 2 * COINCIDENT_COT**2


# -- excitation factors ----------------------------------------------------

def test_phi_ground_identity():
    p = derive_params(6, 2)
    (phi,), (gr,), (lr,), (node,) = phi_eval_batch(StateSpec(GROUND), p, sample_positions(p, 1, seed=1))
    assert phi == 1.0 + 0j
    np.testing.assert_allclose(gr, 0.0)
    assert lr == 0.0
    assert not node


def test_phi_e1_node_at_equispaced():
    p = derive_params(6, 2)
    *_, nodes = phi_eval_batch(StateSpec(E1), p, equispaced(6)[None, :])
    assert nodes.tolist() == [True]


def test_phi_en_closed_form():
    p = derive_params(6, 2)
    (phi,), (gr,), (lr,), (node,) = phi_eval_batch(StateSpec(EN), p, sample_positions(p, 1, seed=7))
    w = 2j * math.pi / p.length
    np.testing.assert_allclose(gr, np.full(6, w), rtol=1e-12)
    assert lr == pytest.approx(-6 * (2 * math.pi / p.length) ** 2, rel=1e-12)
    assert abs(phi) == pytest.approx(1.0, rel=1e-12)
    assert not node


def test_nondeg_state_parity_invariant():
    # z -> 1/z is x -> L - x; the kappa = 0 state must not change
    p = derive_params(6, 2, beta=1.7)
    x = sample_positions(p, 40, seed=13)
    spec = StateSpec(NONDEG_ZERO)
    phi1, _, _, _ = phi_eval_batch(spec, p, x)
    phi2, _, _, _ = phi_eval_batch(spec, p, (p.length - x) % p.length)
    np.testing.assert_allclose(phi1, phi2, rtol=1e-10)


ALL_STATES = [
    StateSpec(E1),
    StateSpec(ENM1),
    StateSpec(EN),
    StateSpec(COMBO),
    StateSpec(COS_SUM),
    StateSpec(SIN_SUM),
    StateSpec(NONDEG_ZERO),
    StateSpec(BOOSTED, q=1, base=StateSpec(E1)),
    StateSpec(BOOSTED, q=-1, base=StateSpec(ENM1)),
    StateSpec(BOOSTED, q=-2, base=StateSpec(EN)),
    StateSpec(BOOSTED, q=2, base=StateSpec(COMBO)),
    StateSpec(BOOSTED, q=-1, base=StateSpec(NONDEG_ZERO)),
    StateSpec(BOOSTED, q=1, base=StateSpec(COS_SUM)),
    StateSpec(BOOSTED, q=-2, base=StateSpec(SIN_SUM)),
    StateSpec(BOOSTED, q=-1, base=StateSpec(GROUND)),
    StateSpec(BOOSTED, q=2, base=StateSpec(BOOSTED, q=-1, base=StateSpec(COMBO))),
]
CROSS_CHECK_SIZES = [(6, 2, 2.5), (9, 3, 0.7)]


def boosted_poly(n):
    """An explicit polynomial state, boosted so that some exponents go negative."""
    poly = LaurentPoly(n, {(2,) + (1,) * (n - 2) + (0,): Fraction(1), (1,) * n: Fraction(-3, 2)})
    return StateSpec(BOOSTED, q=-1, base=StateSpec(POLY, poly=poly))


@pytest.mark.parametrize("spec, size", [
    pytest.param(spec, size, id=spec.label() + ("" if size == CROSS_CHECK_SIZES[0] else "-n%d-r%d-beta%g" % size))
    for size in CROSS_CHECK_SIZES for spec in ALL_STATES + [boosted_poly(size[0])]
])
def test_phi_dual_number_cross_check(spec, size):
    n, r, beta = size
    p = derive_params(n, r, beta=beta)
    x = sample_positions(p, 100, seed=17)
    phi, grad_ratio, lap_ratio, nodes = phi_eval_batch(spec, p, x)
    phid, dphi, d2phi = dual_phi_eval(spec, p, x)
    keep = ~nodes
    np.testing.assert_allclose(phi[keep], phid[keep], rtol=1e-12, atol=1e-12)
    got = dphi[keep] / phid[keep][..., None]
    scale = np.abs(grad_ratio[keep]).max() + 1.0
    assert np.abs(grad_ratio[keep] - got).max() / scale < 1e-10
    got_lap = d2phi[keep].sum(axis=-1) / phid[keep]
    scale = np.abs(lap_ratio[keep]).max() + 1.0
    assert np.abs(lap_ratio[keep] - got_lap).max() / scale < 1e-10


@pytest.mark.parametrize("n, r, beta", [(6, 2, 2.5), (9, 3, 0.7)])
def test_node_scale_and_degree_of_every_kind(n, r, beta):
    p = derive_params(n, r, beta=beta)
    assert p.truncated
    c = n / (1 + 2 * r * beta)
    expected = {  # kind -> (node scale, degree, exponent bound)
        GROUND: (1, 0, 0),
        E1: (n, 1, 1),
        ENM1: (n, n - 1, 2),
        EN: (1, n, 1),
        COMBO: (n * n + c, n, 2),
        COS_SUM: (n, None, 1),
        SIN_SUM: (n, None, 1),
        NONDEG_ZERO: (n * n + c, 0, 1),
    }
    for kind, (scale, degree, bound) in expected.items():
        spec = StateSpec(kind)
        assert phi_moduli(spec, p)[1] == bound, kind
        nested = StateSpec(BOOSTED, q=2, base=StateSpec(BOOSTED, q=-1, base=spec))
        for q, s in [(0, spec), (-2, StateSpec(BOOSTED, q=-2, base=spec)), (1, nested)]:
            assert phi_moduli(s, p)[0] == pytest.approx(scale, rel=1e-15), s.label()
            assert state_degree(s, n) == (None if degree is None else degree + n * q), s.label()
    poly = StateSpec(POLY, poly=LaurentPoly(n, {(1,) * n: Fraction(-3, 2), (2,) + (0,) * (n - 1): 1}))
    assert phi_moduli(poly, p) == (2.5, 2)
    assert state_degree(poly, n) is None


def test_dual_log_psi0_cross_check():
    for n, r, beta in [(5, 1, 0.5), (6, 2, 1.0), (9, 4, 2.5)]:
        p = derive_params(n, r, beta=beta)
        x = sample_positions(p, 200, seed=19)
        ga = grad_log_psi0(p, x)
        la = laplacian_ratio_psi0(p, x)
        gd, sd = dual_grad_and_second_log_psi0(p, x)
        ld = (gd * gd).sum(axis=-1) + sd.sum(axis=-1)
        assert np.abs(ga - gd).max() / (np.abs(ga).max() + 1.0) < 1e-12
        assert np.abs(la - ld).max() / (np.abs(la).max() + 1.0) < 1e-12


@pytest.mark.parametrize("n, r", [(3, 1), (5, 1), (6, 2), (6, 3), (8, 4), (9, 3), (9, 4), (12, 4), (13, 6)])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.5])
def test_dual_log_psi0_matches_per_coordinate_reference(n, r, beta):
    # one seed per pair and distance against one seed per coordinate; (6,3)
    # and (8,4) have the antipodal row, and positions shifted by whole periods
    # give raw differences of several periods, which the pair term takes
    # without a wrap
    p = derive_params(n, r, beta=beta)
    x = sample_positions(p, 60, seed=23)
    for shift in (0, 3, -2):
        shifted = x + shift * p.length
        for batch in (shifted[7], shifted, shifted[:6].reshape(2, 3, n)):
            gd, sd = dual_grad_and_second_log_psi0(p, batch)
            gr, sr = per_coordinate_dual_grad_and_second_log_psi0(p, batch)
            assert gd.shape == sd.shape == batch.shape
            assert np.abs(gd - gr).max() <= 1e-12 * np.abs(gr).max()
            assert np.abs(sd - sr).max() <= 1e-12 * np.abs(sr).max()


def pairwise_min_separation(x, length):
    """The N x N minimum over all pairs, kept as the reference for the
    sort-based `min_cyclic_separation`."""
    diff = np.abs(x[..., :, None] - x[..., None, :])
    diff = np.minimum(diff, length - diff)
    diff = diff + np.diag(np.full(x.shape[-1], length))
    return diff.min(axis=(-2, -1))


def test_min_separation_matches_pairwise_reference():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 9, 64):
        batched = rng.uniform(0.0, L, size=(3, 5, n))
        # the closest pair straddles the wrap: points near 0 and near L
        wrapped = np.concatenate([rng.uniform(0.0, 0.01, (40, n - n // 2)),
                                  rng.uniform(L - 0.01, L, (40, n // 2))], axis=-1)
        for x in (batched, wrapped, rng.permuted(wrapped, axis=-1), batched[0, 0]):
            np.testing.assert_array_equal(min_cyclic_separation(x, L), pairwise_min_separation(x, L))

