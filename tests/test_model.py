import math
from fractions import Fraction
from itertools import combinations

import pytest

from tcsm.model import (
    FULL,
    TRUNCATED,
    ParameterDomainError,
    derive_params,
    ground_energy_coeff,
    ground_energy_reduced,
    interaction_pairs,
    three_body_triples,
    triple_count_formula,
    triple_offsets,
)

from references import cyclic_distance, sorted_set_interaction_pairs


def test_derive_params_examples():
    p = derive_params(6, 2, beta=1.0)
    assert (p.k, p.regime, p.g, p.big_g) == (1, TRUNCATED, 0.0, 1.0)

    p = derive_params(7, 3, beta=1.0)
    assert p.regime == FULL
    assert p.c == 3
    assert p.k is None

    p = derive_params(9, 2, beta=2.0)
    assert (p.k, p.g, p.big_g) == (0, 2.0, 4.0)


def test_params_are_immutable():
    p = derive_params(6, 2, beta=1.0)
    with pytest.raises(AttributeError):
        p.n = 7
    assert p.n == 6


def test_coupling_relations():
    for beta in (0.5, 1.0, 2.5, 3.5):
        p = derive_params(8, 2, beta=beta)
        assert p.g == pytest.approx(beta * (beta - 1.0))
        assert p.big_g == pytest.approx(beta**2)
        assert p.g >= -0.25 - 1e-15  # boundary saturated at beta = 1/2
        assert p.big_g >= 0.0


@pytest.mark.parametrize(
    "bad",
    [
        dict(n=2, r=1),
        dict(n=6, r=0),
        dict(n=6, r=1, length=0.0),
        dict(n=6, r=1, beta=-1.0),
        dict(n=6, r=1, length=math.inf),
        dict(n=6, r=1, beta=math.inf),
        dict(n=6, r=1, beta=math.nan),
        dict(n=6, r=2, beta=1e200),  # g and G overflow
        dict(n=6, r=2, beta=1e308),
        dict(n=6, r=2, length=1e-310),  # (pi/L)^2 overflows
        dict(n=6, r=2, beta=1e150, length=1e-150),  # each factor finite, G (pi/L)^2 overflows
        dict(n=6, r=2, beta=1e150, length=1e-3),  # G (pi/L)^2 finite, the ground energy not
        dict(n=6, r=2, length=3e154),  # (pi/L)^2 subnormal
        dict(n=6, r=2, length=1e165),  # (pi/L)^2 rounds to 0
        dict(n=6, r=2, beta=1e-160),  # G (pi/L)^2 subnormal
    ],
)
def test_domain_rejection(bad):
    with pytest.raises(ParameterDomainError):
        derive_params(**bad)


def test_pair_counts():
    assert len(interaction_pairs(derive_params(6, 2))) == 12
    # full-range even N: antipodal pairs once, so all 6 pairs of 4 sites
    assert len(interaction_pairs(derive_params(4, 2))) == 6
    # r clamps to floor(N/2)
    p = derive_params(5, 7)
    assert p.r_eff == 2
    assert len(interaction_pairs(p)) == 10


def test_pair_count_formula_all_sizes():
    for n in range(3, 15):
        for r in range(1, 8):
            p = derive_params(n, r)
            count = len(interaction_pairs(p))
            if p.r_eff < n / 2:
                assert count == n * p.r_eff
            else:
                assert n % 2 == 0 and count == n * (n // 2 - 1) + n // 2


def test_pairs_match_set_and_sort_reference():
    # r up to N covers the full regime (r >= N // 2) and, at even N, its antipodal row
    for n in range(3, 65):
        reference = {}  # r_eff -> pairs: every r >= N/2 clamps to the same list
        for r in range(1, n + 1):
            p = derive_params(n, r)
            if p.r_eff not in reference:
                reference[p.r_eff] = sorted_set_interaction_pairs(p)
            assert interaction_pairs(p) == reference[p.r_eff], (n, r)


def test_triples_examples():
    assert len(three_body_triples(derive_params(6, 2))) == 12
    triples = three_body_triples(derive_params(6, 1))
    assert len(triples) == 6
    for i, j, k in triples:
        assert cyclic_distance(i, j, 6) == 1 and cyclic_distance(j, k, 6) == 1
    assert three_body_triples(derive_params(7, 3)) == []


def combinations_triples(params):
    """The O(N^3) enumeration over all unordered site triples, kept as the
    reference for the center-first `three_body_triples`."""
    n, r_eff = params.n, params.r_eff
    near = [[cyclic_distance(a, b, n) <= r_eff for b in range(n)] for a in range(n)]
    triples = []
    for a, b, c3 in combinations(range(n), 3):
        center = None
        for j, i, kk in ((a, b, c3), (b, a, c3), (c3, a, b)):
            if near[i][j] and near[j][kk] and not near[kk][i]:
                assert center is None, "triple admits two centers"
                center = (min(i, kk), j, max(i, kk))
        if center is not None:
            triples.append(center)
    triples.sort(key=lambda t: (t[1], t[0], t[2]))
    return triples


def test_triples_match_combinations_enumeration():
    for n in range(3, 41):
        for r in range(1, n // 2 + 2):
            p = derive_params(n, r)
            assert three_body_triples(p) == combinations_triples(p), (n, r)


def test_counts_from_their_rules():
    # the rules `params` counts from, without building either list
    for n in range(3, 41):
        for r in range(1, n + 2):
            p = derive_params(n, r)
            assert n * p.drift_weight // 2 == len(interaction_pairs(p)), (n, r)
            counted = n * sum(hi - lo + 1 for _, lo, hi in triple_offsets(p))
            assert counted == len(three_body_triples(p)), (n, r)


def test_triple_offset_ranges_follow_their_rule():
    # each range holds exactly the t with both ends in range of the center
    # and out of range of each other
    for n in range(3, 41):
        for r in range(1, n + 2):
            p = derive_params(n, r)
            r_eff = p.r_eff
            want = [(s, t) for s in range(1, r_eff + 1) for t in range(1, r_eff + 1)
                    if s + t > r_eff and n - s - t > r_eff]
            got = [(s, t) for s, lo, hi in triple_offsets(p) for t in range(lo, hi + 1)]
            assert got == want, (n, r)
            assert all(lo <= hi for _, lo, hi in triple_offsets(p)), (n, r)


def test_triple_offsets_take_one_range_per_s():
    p = derive_params(100_000, 3000)
    offsets = triple_offsets(p)
    assert [s for s, _, _ in offsets] == list(range(1, 3001))
    counted = p.n * sum(hi - lo + 1 for _, lo, hi in offsets)
    assert counted == triple_count_formula(p) == 450_150_000_000


def test_triple_formula_examples():
    assert triple_count_formula(derive_params(12, 2)) == 36
    p = derive_params(8, 3)
    assert p.k == 2
    assert triple_count_formula(p) == 24
    assert triple_count_formula(derive_params(6, 2)) == 12


def test_triple_formula_matches_enumeration():
    for n in range(3, 15):
        for r in range(1, 7):
            p = derive_params(n, r)
            assert triple_count_formula(p) == len(three_body_triples(p))


def test_ground_energy_values():
    assert ground_energy_coeff(derive_params(8, 3)) == 56
    assert ground_energy_coeff(derive_params(7, 2)) == 21
    # the published table prints 30 here; the closed form (confirmed by the
    # local-energy oracle) gives 57
    assert ground_energy_coeff(derive_params(9, 3)) == 57
    assert ground_energy_coeff(derive_params(4, 2)) == 10


def test_ground_energy_limits():
    # nearest-neighbor limit
    for n in range(4, 12):
        assert ground_energy_coeff(derive_params(n, 1)) == n
    # full-regime value is r-independent and equals the all-pairs result
    for n in range(3, 12):
        full = Fraction(n * (n * n - 1), 6)
        for r in range(derive_params(n, 1).c, n + 2):
            if r < 1:
                continue
            p = derive_params(n, max(r, 1))
            if not p.truncated:
                assert ground_energy_coeff(p) == full


def test_ground_energy_coeff_matches_its_two_term_form():
    # one Fraction over the denominator 6 equals n (r(r+1)/2 + k(k+1)/6),
    # and n(n^2 - 1)/6 once every pair interacts
    for n in range(3, 65):
        for r in range(1, n + 1):
            p = derive_params(n, r)
            got = ground_energy_coeff(p)
            assert isinstance(got, Fraction), (n, r)
            if p.truncated:
                want = n * (Fraction(r * (r + 1), 2) + Fraction(p.k * (p.k + 1), 6))
            else:
                want = Fraction(n * (n * n - 1), 6)
            assert got == want, (n, r)


def test_reduced_includes_beta():
    p = derive_params(6, 2, beta=2.0)
    assert ground_energy_reduced(p) == pytest.approx(80.0)
    assert math.isclose(
        ground_energy_reduced(p) * (math.pi / p.length) ** 2,
        20.0 * 4.0 * (math.pi / p.length) ** 2,
    )
