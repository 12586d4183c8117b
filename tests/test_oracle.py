import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from fractions import Fraction

from tcsm.model import (
    ParameterDomainError,
    derive_params,
    ground_energy_physical,
)
from tcsm import oracle
from tcsm.oracle import (
    FAIL,
    PASS,
    SamplingError,
    _presorted_min_separation,
    _three_body_by_site,
    conversion_coefficient,
    conversion_factor,
    local_energy_batch,
    potential_energy,
    predicted_physical,
    predicted_reduced_level,
    sample_positions,
    to_reduced,
    verify_eigenstate,
)
from tcsm.polyalg import LaurentPoly
from tcsm.wavefunction import (
    BOOSTED,
    COS_SUM,
    E1,
    EN,
    ENM1,
    COMBO,
    GROUND,
    NONDEG_ZERO,
    POLY,
    SIN_SUM,
    StateSpec,
    _sites_first,
    grad_log_psi0,
    laplacian_ratio_psi0,
    min_cyclic_separation,
    phi_eval_batch,
)

from references import cyclic_distance

L = 2.0 * math.pi


def reference_potential(params, x):
    """Independent direct re-summation of the two- and three-body potential."""
    n, L_ = params.n, params.length
    w = (math.pi / L_) ** 2
    v = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = cyclic_distance(i, j, n)
            if 1 <= d <= params.r_eff:
                v += params.g * w / math.sin(math.pi * (x[i] - x[j]) / L_) ** 2
    for j in range(n):
        for i in range(n):
            for k in range(i + 1, n):
                if j in (i, k):
                    continue
                if (
                    cyclic_distance(i, j, n) <= params.r_eff
                    and cyclic_distance(j, k, n) <= params.r_eff
                    and cyclic_distance(k, i, n) > params.r_eff
                ):
                    v -= (
                        params.big_g
                        * w
                        / (
                            math.tan(math.pi * (x[i] - x[j]) / L_)
                            * math.tan(math.pi * (x[j] - x[k]) / L_)
                        )
                    )
    return v


def sites_last_cot(params, x):
    """Distance rows cot(pi (x_j - x_{j+d}) / L), shape (r_eff, ..., N), sites last."""
    turns = [(x - np.roll(x, -d, axis=-1)) / params.length for d in range(1, params.r_eff + 1)]
    return 1.0 / np.tan(math.pi * np.array(turns))


def offset_pairs(params):
    """The three-body end offsets (s, t) straight from their rule, one pair at a time."""
    r_eff = params.r_eff
    return [(s, t) for s in range(1, r_eff + 1) for t in range(1, r_eff + 1)
            if s + t > r_eff and params.n - s - t > r_eff]


def composed_local_energy(params, spec, x):
    """(energy, node mask, sum of term magnitudes) from the public sites-last
    evaluators and a potential summed one (s, t) offset pair at a time, kept
    as the reference for the one-pass `local_energy_batch`."""
    unit = (math.pi / params.length) ** 2
    cot = sites_last_cot(params, x)
    weights = np.where(2 * np.arange(1, params.r_eff + 1) == params.n, 0.5, 1.0)
    csc2 = np.tensordot(weights, (1.0 + cot * cot).sum(axis=-1), axes=1)
    three = [np.roll(cot[s - 1], s, axis=-1) * cot[t - 1] for s, t in offset_pairs(params)]
    three_sum = sum((v.sum(axis=-1) for v in three), np.zeros(x.shape[:-1]))
    three_mag = sum((np.abs(v).sum(axis=-1) for v in three), np.zeros(x.shape[:-1]))
    potential = params.g * unit * csc2 - params.big_g * unit * three_sum
    l0 = laplacian_ratio_psi0(params, x)
    g0 = grad_log_psi0(params, x)
    _, grad_ratio, lap_ratio, nodes = phi_eval_batch(spec, params, x)
    cross = (g0 * grad_ratio).sum(axis=-1)
    energy = -0.5 * (l0 + 2.0 * cross + lap_ratio) + potential
    magnitude = (
        0.5 * (g0 * g0).sum(axis=-1)
        + (params.beta + abs(params.g)) * unit * csc2
        + params.big_g * unit * three_mag
        + np.abs(g0 * grad_ratio).sum(axis=-1)
        + 0.5 * np.abs(lap_ratio)
    )
    return energy, nodes, magnitude


def differential_states(n):
    """Every state kind, boosts with q = -1, 1, 2, and a small Laurent polynomial."""
    exps = [[0] * n for _ in range(3)]
    exps[0][0], exps[0][-1] = 2, -1
    exps[1][1] = 1
    poly = LaurentPoly(n, {tuple(exps[0]): Fraction(3, 2), tuple(exps[1]): Fraction(-1, 3),
                           tuple(exps[2]): Fraction(1)})
    return [StateSpec(kind) for kind in (GROUND, E1, ENM1, EN, COMBO, COS_SUM, SIN_SUM, NONDEG_ZERO)] + [
        StateSpec(BOOSTED, q=-1, base=StateSpec(ENM1)),
        StateSpec(BOOSTED, q=1, base=StateSpec(COMBO)),
        StateSpec(BOOSTED, q=-2, base=StateSpec(COMBO)),
        StateSpec(BOOSTED, q=2, base=StateSpec(E1)),
        StateSpec(BOOSTED, q=1, base=StateSpec(COS_SUM)),
        StateSpec(BOOSTED, q=-1, base=StateSpec(SIN_SUM)),
        StateSpec(BOOSTED, q=2, base=StateSpec(BOOSTED, q=-3, base=StateSpec(NONDEG_ZERO))),
        StateSpec(POLY, poly=poly),
    ]


def test_one_pass_local_energy_matches_composed_reference():
    # r runs past N/2, so both regimes and every even N's antipodal row are
    # met; the states take turns over the (N, r) grid, and each meets both
    # regimes.  Tolerance, fixed in advance: 1e-12 of the sum of the terms'
    # magnitudes, as the terms can cancel to a sum far below them.
    seen = set()
    for n in range(3, 41):
        states = differential_states(n)
        for r in range(1, n // 2 + 2):
            p = derive_params(n, r, beta=1.5)
            spec = states[(n + r) % len(states)]
            seen.add((spec.label(), p.regime))
            x = sample_positions(p, 8, seed=n + 100 * r)
            got, nodes, _ = local_energy_batch(p, spec, x)
            want, want_nodes, magnitude = composed_local_energy(p, spec, x)
            np.testing.assert_array_equal(nodes, want_nodes)
            keep = ~nodes
            err = np.abs(got[keep] - want[keep])
            assert np.all(err <= 1e-12 * magnitude[keep]), (n, r, spec.label(), err / magnitude[keep])
    assert len(seen) == 2 * len(differential_states(3))


def test_rounding_magnitude_of_the_real_part():
    # phi = 1 for the ground state, so M holds the real part's terms alone:
    # csc^2 and g0^2 are their own moduli, and the three-body |cot_s cot_t|,
    # summed here one offset pair at a time, stay below T G (pi/L)^2 sum csc^2
    # for a row s that meets at most T rows t
    for n, r in [(6, 2), (8, 4), (9, 3), (13, 4), (20, 6)]:
        for beta in (0.5, 2.0):
            p = derive_params(n, r, beta=beta)
            x = sample_positions(p, 20, seed=n)
            cot = sites_last_cot(p, x)
            weights = np.where(2 * np.arange(1, p.r_eff + 1) == n, 0.5, 1.0)
            csc2 = np.tensordot(weights, (cot * cot).sum(axis=-1) + n, axes=1)
            pairs = offset_pairs(p)
            meets = max(Counter(s for s, _ in pairs).values(), default=0)
            three = sum((np.abs(np.roll(cot[s - 1], s, axis=-1) * cot[t - 1]).sum(axis=-1)
                         for s, t in pairs), 0.0)
            half_g0_sq = 0.5 * (grad_log_psi0(p, x) ** 2).sum(axis=-1)
            unit = p.big_g * (math.pi / p.length) ** 2
            mag = local_energy_batch(p, StateSpec(GROUND), x)[2]
            np.testing.assert_allclose(mag, half_g0_sq + (1 + meets) * unit * csc2, rtol=1e-12)
            assert np.all(mag >= half_g0_sq + unit * (csc2 + three)), (n, r, beta)


def test_local_energy_peak_memory():
    # numpy reports its buffers to tracemalloc.  The real part holds at most
    # three (N, count) blocks beside the r_eff distance rows; the per-sample
    # sums add no full-size complex array but z, formed after the rows go.
    n, count = 12, 5000
    p = derive_params(n, 4, beta=1.5)
    x = sample_positions(p, count, seed=1)
    local_energy_batch(p, StateSpec(COMBO), x)
    tracemalloc.start()
    try:
        local_energy_batch(p, StateSpec(COMBO), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (p.r_eff + 4) * n * count * 8, peak / (n * count * 8)


@pytest.mark.parametrize("n, r, regime", [(9, 3, "truncated"), (8, 4, "full")])
def test_blocked_local_energy_equals_one_block(monkeypatch, n, r, regime):
    # a budget of 5 columns: 36 samples end in a ragged block of 1, which
    # joins the block before it, and 37 in a ragged block of 2
    p = derive_params(n, r, beta=2.5)
    assert p.regime == regime
    x = sample_positions(p, 37, seed=n)
    grid = x[:36].reshape(4, 9, n)
    for spec in differential_states(n):
        for batch in (x[:36], x, grid):
            monkeypatch.setattr(oracle, "BLOCK_ENTRIES", 10**9)
            whole = local_energy_batch(p, spec, batch)
            monkeypatch.setattr(oracle, "BLOCK_ENTRIES", 5 * p.r_eff * n)
            for got, want in zip(local_energy_batch(p, spec, batch), whole):
                assert got.dtype == want.dtype and got.shape == batch.shape[:-1]
                np.testing.assert_array_equal(got, want, err_msg=spec.label())
        # a single configuration and an empty batch fit in one block
        assert [np.shape(a) for a in local_energy_batch(p, spec, x[0])] == [()] * 3
        assert [np.shape(a) for a in local_energy_batch(p, spec, x[:0])] == [(0,)] * 3


def test_second_oracle_call_faults_in_no_freed_pages():
    # glibc's dynamic trim threshold gave the heap top back after each
    # (12, 4, 5000) call, and the next call faulted about 900 pages back in
    ctypes = pytest.importorskip("ctypes")
    resource = pytest.importorskip("resource")
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        pytest.skip("the C library has no mallopt")
    p = derive_params(12, 4, beta=1.5)
    spec = StateSpec(COMBO)
    predicted = predicted_physical(spec, p)
    verify_eigenstate(p, spec, count=5000, seed=1, predicted=predicted)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    report = verify_eigenstate(p, spec, count=5000, seed=2, predicted=predicted)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert report.verdict == PASS
    assert faults < 100, faults


def test_local_energy_memory_is_flat_in_count():
    # blocks of BLOCK_ENTRIES pair entries: from 4,000 to 40,000 samples the
    # peak grows by the outputs, 16 + 1 + 8 bytes per sample, and 64 KiB at
    # most for Python's own objects, where the whole (r_eff, N, count)
    # array of rows would take 160 MB at 40,000
    p = derive_params(64, 8, beta=1.0)
    peaks = []
    for count in (4000, 40000):
        x = sample_positions(p, count, seed=2)
        local_energy_batch(p, StateSpec(COMBO), x[:10])
        tracemalloc.start()
        try:
            local_energy_batch(p, StateSpec(COMBO), x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 25 * 36000 + 2**16, peaks


def test_three_body_grouping_matches_offset_loop():
    # integer rows make both sums exact, so any missing or extra (s, t) shows;
    # r runs past N/2, where the range of t is empty for every s
    rng = np.random.default_rng(5)
    for n in range(3, 41):
        for r in range(1, n // 2 + 2):
            p = derive_params(n, r)
            cot = rng.integers(-8, 9, size=(p.r_eff, n, 3)).astype(float)
            # each term held at its end j - s, as the grouped sum holds it
            want = np.zeros((n, 3))
            for s, t in offset_pairs(p):
                want += cot[s - 1] * np.roll(cot[t - 1], -s, axis=0)
            np.testing.assert_array_equal(_three_body_by_site(p, cot), want)


def test_two_body_vanishes_at_beta_one():
    p = derive_params(6, 2, beta=1.0)
    assert p.g == 0.0
    x = sample_positions(p, 10, seed=1)
    # only the three-body cot*cot term remains
    want = np.array([reference_potential(p, row) for row in x])
    np.testing.assert_allclose(potential_energy(p, x), want, rtol=1e-13)


def test_full_regime_has_no_three_body_term():
    p = derive_params(7, 3, beta=2.0)
    x = sample_positions(p, 10, seed=1)
    two_body = np.zeros(10)
    w = (math.pi / p.length) ** 2
    from tcsm.model import interaction_pairs

    for a, b in interaction_pairs(p):
        two_body += p.g * w / np.sin(math.pi * (x[..., a] - x[..., b]) / p.length) ** 2
    np.testing.assert_allclose(potential_energy(p, x), two_body, rtol=1e-13)


def test_potential_against_reference_resummation():
    p = derive_params(6, 2, beta=2.0)
    x = sample_positions(p, 20, seed=3)
    got = potential_energy(p, x)
    want = np.array([reference_potential(p, row) for row in x])
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_ground_local_energy_constants():
    for (n, r), coeff in [((6, 2), 20), ((8, 3), 56), ((4, 2), 10)]:
        p = derive_params(n, r, beta=1.0)
        x = sample_positions(p, 200, seed=5)
        e, nodes, _ = local_energy_batch(p, StateSpec(GROUND), x)
        expect = coeff * (math.pi / p.length) ** 2
        np.testing.assert_allclose(e.real, expect, rtol=1e-10)
        assert abs(e.imag).max() == 0.0


def test_potential_matches_reference_over_sizes():
    for n, r, beta in [(5, 1, 0.5), (8, 3, 1.5), (9, 2, 2.5), (12, 4, 3.0), (13, 4, 1.0)]:
        p = derive_params(n, r, beta=beta)
        x = sample_positions(p, 20, seed=n)
        want = np.array([reference_potential(p, row) for row in x])
        np.testing.assert_allclose(potential_energy(p, x), want, rtol=1e-13)
        np.testing.assert_allclose(potential_energy(p, x[0]), want[0], rtol=1e-13)


def test_sampling_determinism():
    p = derive_params(6, 2)
    a = sample_positions(p, 1000, seed=42)
    b = sample_positions(p, 1000, seed=42)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, sample_positions(p, 1000, seed=43))


@pytest.mark.parametrize("n,r,frac", [(3, 1, 0.3), (6, 2, 1e-3), (64, 8, 1e-3), (256, 16, 1e-3)])
def test_sampled_rows_lie_in_the_constrained_set(n, r, frac):
    p = derive_params(n, r, length=3.0)
    x = sample_positions(p, 400, seed=9, min_sep_frac=frac)
    assert x.shape == (400, n)
    assert ((0.0 <= x) & (x < p.length)).all()
    assert (min_cyclic_separation(x, p.length) >= frac * p.length).all()


def ks_statistic(samples, cdf):
    """Kolmogorov-Smirnov distance between the samples and a continuous CDF."""
    u = cdf(np.sort(samples))
    k = np.arange(1, len(u) + 1) / len(u)
    return max((k - u).max(), (u - (k - 1.0 / len(u))).max())


@pytest.mark.parametrize("n,frac,seed", [(3, 0.2, 1), (8, 1e-3, 2), (40, 0.02, 3)])
def test_sampled_marginals_match_the_uniform_law(n, frac, seed):
    # under the uniform law on {min separation >= floor} each coordinate is
    # Uniform(0, L), the gap after a labelled point, less the floor and
    # scaled by the slack L - N floor, is Beta(1, N - 1), and the next point
    # ahead of label 0 is any other label with probability 1 / (N - 1)
    p = derive_params(n, 1, length=2.0)
    count = 4000
    x = sample_positions(p, count, seed=seed, min_sep_frac=frac)
    floor, slack = frac * p.length, p.length - n * frac * p.length
    ahead = (x[:, 1:] - x[:, :1]) % p.length
    gap = (ahead.min(axis=1) - floor) / slack
    critical = 1.95 / math.sqrt(count)  # 0.1% level
    assert ks_statistic(x[:, 1], lambda v: v / p.length) < critical
    assert ks_statistic(gap, lambda u: 1.0 - (1.0 - u) ** (n - 1)) < critical
    share = (ahead.argmin(axis=1) == 0).mean()
    q = 1.0 / (n - 1)
    assert abs(share - q) < 5.0 * math.sqrt(q * (1.0 - q) / count)


def test_sampling_near_infeasible_floor_raises():
    # L - N floor at the rounding level: every row of the draw rounds below
    # the floor, and the sampler raises rather than return no rows
    p = derive_params(10, 2, length=1.0)
    with pytest.raises(SamplingError):
        sample_positions(p, 10, seed=1, min_sep_frac=np.nextafter(0.1, 0.0))


def test_sampling_infeasible_min_sep():
    p = derive_params(6, 2)
    with pytest.raises(SamplingError):
        sample_positions(p, 10, seed=1, min_sep_frac=0.5)


def reference_sample_positions(params, count, seed, min_sep_frac):
    """Positions from the sites-last sampler that `sample_positions`
    replaced: one draw of `count` rows, wrapped by `% L`, each permuted row
    checked with the sorting `min_cyclic_separation` and kept if it clears
    the floor.  Kept as the reference the draws must equal."""
    n, length = params.n, params.length
    rng = np.random.default_rng(seed)
    floor = min_sep_frac * length
    gaps = rng.exponential(size=(count, n))
    spacing = floor + (length - n * floor) * (gaps / gaps.sum(axis=-1, keepdims=True))
    start = rng.uniform(0.0, length, size=(count, 1))
    x = np.concatenate([start, start + np.cumsum(spacing[:, :-1], axis=-1)], axis=-1) % length
    x = rng.permuted(x, axis=-1)
    x = x[min_cyclic_separation(x, length) >= floor]
    if not len(x):
        raise SamplingError(
            f"min_sep_frac {min_sep_frac} leaves no room above the floor at N={n}: "
            "every row falls below it by rounding"
        )
    return x


def assert_same_draws(params, count, seed, frac):
    """`sample_positions` equals the reference bit for bit, signs of zero
    included, or raises the same SamplingError; returns the number of rows
    the reference dropped, None when it raised."""
    try:
        want = reference_sample_positions(params, count, seed, frac)
    except SamplingError as exc:
        with pytest.raises(SamplingError) as got:
            sample_positions(params, count, seed, frac)
        assert str(got.value) == str(exc)
        return None
    got = sample_positions(params, count, seed, frac)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    return count - len(want)


def test_sampler_draws_equal_the_sites_last_reference():
    # at (1 - 1e-12)/N the slack L - N floor is ~1e-12 L, and some rows round
    # below the floor and are dropped; at (1 - 2e-16)/N the slack is at the
    # rounding level, and in some draws every row fails and the sampler raises
    dropped = {"ordinary": set(), "rounding": set(), "no room": set()}
    for n in (3, 6, 9, 12, 13, 64):
        p = derive_params(n, 1, length=[2.0 * math.pi, 1.0, 3.0][n % 3])
        fracs = {"ordinary": 1e-3, "rounding": (1 - 1e-12) / n, "no room": (1 - 2e-16) / n}
        for kind, frac in fracs.items():
            for seed in range(4):
                for count in (1, 500):
                    dropped[kind].add(assert_same_draws(p, count, seed, frac))
    assert dropped["ordinary"] == {0}
    assert max(dropped["rounding"] - {None}) > 0
    assert None in dropped["no room"]


class RiggedGenerator:
    """Replays given gap rows and rotations in order and shuffles like a
    seeded generator, to reach rounding cases an exponential draw meets
    about once in 1e15 rows."""

    def __init__(self, gaps, starts):
        self.gaps, self.starts = list(gaps), list(starts)
        self.rng = np.random.Generator(np.random.PCG64(0))

    def exponential(self, size):
        rows, self.gaps = self.gaps[: size[0]], self.gaps[size[0] :]
        return np.array(rows, dtype=float).reshape(size)

    def uniform(self, low, high, size):
        n = int(np.prod(size))
        rows, self.starts = self.starts[:n], self.starts[n:]
        return np.array(rows, dtype=float).reshape(size)

    def permuted(self, x, axis, out=None):
        return self.rng.permuted(x, axis=axis, out=out)


@pytest.mark.parametrize(
    "frac,bad_gaps,bad_start",
    [
        # the first two spacings round to 1 + 2^-52 > L and the rotation sits
        # one ulp below L, so the last point lands on 2L, and only `% L`
        # brings it back into [0, L)
        (1e-300, [0.0022693266812281823, 0.5503428726390482, 1e-300], np.nextafter(1.0, 0.0)),
        # the same overshoot leaves the last point 2^-53 past the first, so
        # the row has two descents; the sort finds a separation of 1.1e-16
        # below the 1.5e-16 floor, and the row is dropped
        (1.5e-16, [0.586909067940969, 0.8972541206659738, 1e-300], 0.04244648245181082),
    ],
)
def test_sampler_matches_reference_where_spacings_overshoot_the_circle(monkeypatch, frac, bad_gaps, bad_start):
    p = derive_params(3, 1, length=1.0)
    gaps = [[1.0, 2.0, 3.0], bad_gaps, [0.5, 0.25, 2.0]]
    starts = [0.25, bad_start, 0.5]
    monkeypatch.setattr(np.random, "default_rng", lambda seed: RiggedGenerator(gaps, starts))
    assert assert_same_draws(p, 3, 1, frac) == (0 if frac == 1e-300 else 1)


def test_presorted_min_separation_equals_sorted_minimum():
    # unpermuted rows (rotations of their sorted order, ties included) take
    # the O(N) path; shuffled rows have other descent counts and are sorted
    rng = np.random.default_rng(3)
    for n in (3, 4, 9, 64):
        for length in (1.0, 2.0 * math.pi):
            x = np.sort(rng.uniform(0.0, length, size=(200, n)), axis=-1)
            x[::7, 1] = x[::7, 0]
            x[::5, -1] = x[::5, -2]
            shift = rng.integers(0, n, size=200)
            rotated = np.take_along_axis(x, (np.arange(n) + shift[:, None]) % n, axis=-1)
            shuffled = rng.permuted(x, axis=-1)
            for rows in (rotated, shuffled, x[:, ::-1]):
                got = _presorted_min_separation(np.ascontiguousarray(rows.T), length)
                np.testing.assert_array_equal(got, min_cyclic_separation(rows, length))


def test_sampler_sorts_no_row_at_an_ordinary_floor(monkeypatch):
    def refuse(x, length):
        raise AssertionError(f"sorted {x.shape} rows")

    monkeypatch.setattr(oracle, "min_cyclic_separation", refuse)
    for n in (3, 9, 64):
        p = derive_params(n, 1)
        for frac in (1e-3, (1 - 1e-12) / n):
            sample_positions(p, 500, seed=n, min_sep_frac=frac)


@pytest.mark.parametrize("frac", [1e-3, (1 - 1e-12) / 9])
def test_sampler_returns_a_sites_first_buffer(frac):
    p = derive_params(9, 2)
    x = sample_positions(p, 500, seed=2, min_sep_frac=frac)
    assert x.T.flags.c_contiguous
    assert np.shares_memory(_sites_first(x), x)


@pytest.mark.parametrize("n,frac", [(6, 1e-3), (500, 1e-3), (501, 1 / 1002), (1000, 1 / 2000)])
def test_default_floor(n, frac):
    # 1e-3 up to N = 500; above that, 1/(2N) keeps half the circle for the
    # spacings above the floor, so every N can be sampled
    p = derive_params(n, 2)
    x = sample_positions(p, 50, seed=3)
    np.testing.assert_array_equal(x, sample_positions(p, 50, seed=3, min_sep_frac=frac))
    assert (min_cyclic_separation(x, p.length) >= frac * p.length).all()


def test_local_energy_holds_on_the_rows_kept():
    # at (1 - 1e-12)/N the slack above the floor is ~1e-12 L, so some rows
    # round below the floor and are dropped; the combo local energy of the
    # rows kept must still be its closed-form level
    p = derive_params(64, 8)
    x = sample_positions(p, 2000, seed=1, min_sep_frac=(1 - 1e-12) / 64)
    assert 0 < len(x) < 2000
    spec = StateSpec(COMBO)
    e, nodes, _ = local_energy_batch(p, spec, x)
    re = e[~nodes].real
    assert re.size > 0
    assert re.std() / (abs(re.mean()) + 1.0) < 1e-8
    predicted = predicted_physical(spec, p)
    assert abs(re.mean() - predicted) / (abs(predicted) + 1.0) < 1e-8


def test_sampling_acceptance_rate():
    p = derive_params(6, 2)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, p.length, size=(5000, 6))
    from tcsm.wavefunction import min_cyclic_separation

    rate = (min_cyclic_separation(x, p.length) >= 1e-3 * p.length).mean()
    assert rate > 0.9


def test_conversion_is_two():
    # two published derivations of this constant disagree by a factor 2; the
    # oracle measures it from the r=1 e1 level, 1 + 2*beta reduced units
    # above the ground state
    p = derive_params(4, 1, beta=1.0)
    x = sample_positions(p, 64, seed=20260826, min_sep_frac=1e-2)
    e, nodes, _ = local_energy_batch(p, StateSpec(E1), x)
    gap = float(e[~nodes].real.mean()) - ground_energy_physical(p)
    measured = gap * p.length**2 / math.pi**2 / (1.0 + 2.0 * p.beta)
    assert measured == pytest.approx(2.0, rel=1e-10)
    assert conversion_coefficient() == 2.0


def test_reduced_levels_e1():
    p = derive_params(6, 2, beta=1.0)
    report = verify_eigenstate(p, StateSpec(E1), count=500, seed=1,
                               predicted=predicted_physical(StateSpec(E1), p))
    assert report.verdict == PASS
    assert report.reduced_mean == pytest.approx(5.0, rel=1e-9)


@pytest.mark.parametrize("spec, length", [
    (StateSpec(GROUND), 1e-2),  # the local energy overflows
    (StateSpec(E1), 1e-1),  # every local energy finite, their spread not
])
def test_overflowing_local_energy_rejected(spec, length):
    p = derive_params(6, 2, length=length, beta=1e150)
    assert math.isfinite(ground_energy_physical(p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterDomainError, match="overflows"):
            verify_eigenstate(p, spec, count=50, seed=1)


def test_table_conflict_adjudication():
    p = derive_params(9, 3, beta=1.0)
    w = (math.pi / p.length) ** 2
    good = verify_eigenstate(p, StateSpec(GROUND), count=500, seed=1, predicted=57 * w)
    bad = verify_eigenstate(p, StateSpec(GROUND), count=500, seed=1, predicted=30 * w)
    assert good.verdict == PASS
    assert bad.verdict == FAIL


@pytest.mark.parametrize("length", [L, 1e6, 1e8])
def test_verdict_does_not_depend_on_length(length):
    # the rounding bound has no units, so neither (pi/L)^2 nor beta^2 moves it
    sin = StateSpec(BOOSTED, q=1, base=StateSpec(SIN_SUM))
    for beta in (1e-5, 1e-3, 1.0, 20.0):
        p = derive_params(9, 3, length=length, beta=beta)
        w = beta * beta * (math.pi / length) ** 2
        assert verify_eigenstate(p, StateSpec(GROUND), count=200, predicted=57 * w).verdict == PASS
        assert verify_eigenstate(p, StateSpec(GROUND), count=200, predicted=30 * w).verdict == FAIL
        # a boosted sin is not an eigenstate: its degree +1 and -1 parts shift apart
        p = derive_params(6, 2, length=length, beta=beta)
        assert verify_eigenstate(p, sin, count=200).verdict == FAIL, beta


def test_full_regime_ground():
    p = derive_params(7, 3, beta=1.7)
    report = verify_eigenstate(
        p, StateSpec(GROUND), count=500, seed=1, predicted=ground_energy_physical(p)
    )
    assert report.verdict == PASS
    # N(N^2-1)/6 = 56 in units of beta^2 pi^2/L^2
    assert report.energy_mean * p.length**2 / math.pi**2 == pytest.approx(
        56 * 1.7**2, rel=1e-9
    )


def test_node_error_at_equispaced():
    # e1 = sum z vanishes at equispaced sites: a batch of one shows the node in its mask
    p = derive_params(6, 2)
    _, nodes, _ = local_energy_batch(p, StateSpec(E1), (np.arange(6) * p.length / 6)[None, :])
    assert nodes.tolist() == [True]


def test_verify_raises_at_once_when_every_row_sits_at_a_node(monkeypatch):
    # the one draw is evaluated once; with every row at a node nothing is
    # left to report, and no further draw is made
    batches = []

    def at_nodes(params, spec, x):
        batches.append(len(x))
        e, nodes, mag = local_energy_batch(params, spec, x)
        return e, np.ones_like(nodes), mag

    monkeypatch.setattr(oracle, "local_energy_batch", at_nodes)
    with pytest.raises(SamplingError, match="node"):
        verify_eigenstate(derive_params(6, 2), StateSpec(E1), count=50)
    assert batches == [50]


def test_parity_degeneracy_oracle():
    # e1 and its z -> 1/z image (e_{N-1}/e_N, i.e. boosted e_{N-1} with q=-1)
    p = derive_params(6, 2, beta=1.5)
    r1 = verify_eigenstate(p, StateSpec(E1), count=400, seed=3)
    r2 = verify_eigenstate(p, StateSpec(BOOSTED, q=-1, base=StateSpec(ENM1)), count=400, seed=4)
    assert abs(r1.energy_mean - r2.energy_mean) / abs(r1.energy_mean) < 1e-9


def test_nondeg_level_and_reflection_invariance():
    p = derive_params(6, 2, beta=1.0)
    spec = StateSpec(NONDEG_ZERO)
    report = verify_eigenstate(p, spec, count=400, seed=5, predicted=predicted_physical(spec, p))
    assert report.verdict == PASS
    assert report.reduced_mean == pytest.approx(2 + 4 * p.r * p.beta, rel=1e-9)
    x = sample_positions(p, 50, seed=6)
    e1 = local_energy_batch(p, spec, x)[0]
    e2 = local_energy_batch(p, spec, (p.length - x) % p.length)[0]
    np.testing.assert_allclose(e1.real, e2.real, rtol=1e-10)


def test_all_listed_states_configuration_independent():
    for n, r in [(6, 2), (8, 3)]:
        for beta in (0.5, 1.0, 2.0, 3.5):
            p = derive_params(n, r, beta=beta)
            for kind in (E1, ENM1, EN, COMBO, COS_SUM, SIN_SUM, NONDEG_ZERO):
                spec = StateSpec(kind)
                report = verify_eigenstate(
                    p, spec, count=300, seed=11, predicted=predicted_physical(spec, p)
                )
                assert report.verdict == PASS, (n, r, beta, kind, report)


def test_boosted_prediction_uses_operator_shift():
    p = derive_params(6, 2, beta=1.0)
    spec = StateSpec(BOOSTED, q=2, base=StateSpec(EN))
    # base level N=6 at degree 6: shift 2*2*6 + 6*4 = 48
    assert predicted_reduced_level(spec, p) == pytest.approx(6 + 48)
    report = verify_eigenstate(p, spec, count=300, seed=7, predicted=predicted_physical(spec, p))
    assert report.verdict == PASS


@pytest.mark.parametrize("q1, q2", [(1, 2), (-1, 3), (2, -2)])
def test_nested_boosts_predict_their_sum(q1, q2):
    p = derive_params(8, 3, beta=1.7)
    for kind in (GROUND, E1, ENM1, EN, COMBO, NONDEG_ZERO):
        nested = StateSpec(BOOSTED, q=q1, base=StateSpec(BOOSTED, q=q2, base=StateSpec(kind)))
        single = StateSpec(BOOSTED, q=q1 + q2, base=StateSpec(kind))
        assert predicted_reduced_level(nested, p) == pytest.approx(
            predicted_reduced_level(single, p), rel=1e-12, abs=0.0
        ), kind
    poly = StateSpec(POLY, poly=LaurentPoly(8, {(1,) + (0,) * 7: Fraction(1)}))
    for spec in (StateSpec(COS_SUM), StateSpec(SIN_SUM), poly):
        assert predicted_reduced_level(StateSpec(BOOSTED, q=q1, base=spec), p) is None
        nested = StateSpec(BOOSTED, q=q1, base=StateSpec(BOOSTED, q=q2, base=spec))
        assert predicted_reduced_level(nested, p) is None
    assert predicted_reduced_level(poly, p) is None


def test_to_reduced_roundtrip():
    p = derive_params(8, 2, beta=1.0)
    e = ground_energy_physical(p) + 3.5 * conversion_factor(p)
    assert to_reduced(p, e) == pytest.approx(3.5, rel=1e-12)
