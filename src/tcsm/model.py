"""Model parameters, interaction geometry, and closed-form counts, energies
and excited levels.

Everything here is exact: parameters are validated once, the pair/triple
lists are enumerated combinatorially, and the counting/energy formulas are
evaluated in rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

TWO_PI = 2.0 * math.pi

TRUNCATED = "truncated"
FULL = "full"

# state kinds of `wavefunction.StateSpec`, and the keys of `closed_form_levels`
GROUND = "ground"
E1 = "e1"
ENM1 = "enm1"
EN = "en"
COMBO = "combo"
COS_SUM = "cos_sum"
SIN_SUM = "sin_sum"
NONDEG_ZERO = "nondeg_zero"
BOOSTED = "boosted"
POLY = "poly"

# verdicts of `oracle.verify_eigenstate` and of the CLI's checks
PASS = "Pass"
FAIL = "Fail"
NO_PREDICTION = "NoPrediction"


class ParameterDomainError(ValueError):
    """Inputs (N, r, L, beta) outside the admissible domain."""


class SamplingError(RuntimeError):
    """No configuration of a draw can be used: the separation floor is
    infeasible, every row rounds below it, or every row sits at a node of phi."""


class ModelParams(NamedTuple):
    """Validated model parameters plus all derived quantities.

    Sites are indexed 0..n-1.  ``g = beta*(beta-1)`` and ``big_g = beta**2``
    are the two- and three-body couplings.  ``c`` is the half-count
    threshold (N/2 for even N, (N-1)/2 for odd); the model is in the full
    (Sutherland) regime once r >= c.  ``k`` is the boundary-count
    correction entering the triple count and ground energy; it is None in
    the full regime where it is meaningless.
    """

    n: int
    r: int
    length: float
    beta: float
    g: float
    big_g: float
    c: int
    r_eff: int
    k: int | None
    regime: str

    @property
    def truncated(self) -> bool:
        return self.regime == TRUNCATED

    @property
    def drift_weight(self) -> int:
        """Number of interaction pairs each site belongs to.

        2*r_eff in general; N-1 when N is even and r_eff = N/2 because the
        antipodal pair is counted once.
        """
        if self.n % 2 == 0 and self.r_eff == self.n // 2:
            return self.n - 1
        return 2 * self.r_eff


def derive_params(n: int, r: int, length: float = TWO_PI, beta: float = 1.0) -> ModelParams:
    """Validate raw inputs and populate every derived field."""
    if not isinstance(n, int) or n < 3:
        raise ParameterDomainError(f"need integer N >= 3, got {n!r}")
    if not isinstance(r, int) or r < 1:
        raise ParameterDomainError(f"need integer r >= 1, got {r!r}")
    if not 0 < length < math.inf:
        raise ParameterDomainError(f"need finite L > 0, got {length!r}")
    if not 0 < beta < math.inf:
        raise ParameterDomainError(f"need finite beta > 0, got {beta!r}")
    g, big_g, unit = beta * (beta - 1.0), beta * beta, (math.pi / length) * (math.pi / length)
    # the energy scales g (pi/L)^2 and G (pi/L)^2 can overflow when each factor is finite
    if not all(map(math.isfinite, (g, big_g, unit, g * unit, big_g * unit))):
        raise ParameterDomainError(
            f"g, G, (pi/L)^2 or an energy scale G (pi/L)^2 overflows at beta={beta!r}, L={length!r}"
        )
    if min(unit, big_g * unit) < 2.0**-1022:  # subnormal: energies would lose digits
        raise ParameterDomainError(
            f"(pi/L)^2 or G (pi/L)^2 underflows at beta={beta!r}, L={length!r}"
        )

    c = n // 2
    regime = FULL if r >= c else TRUNCATED
    r_eff = min(r, n // 2)
    if regime == TRUNCATED:
        # provable from r < c, asserted anyway
        assert 2 * r + 2 <= n
        k = (3 * r + 1) - n if (2 * r + 2) <= n < (3 * r + 1) else 0
    else:
        k = None
    params = ModelParams(
        n=n,
        r=r,
        length=float(length),
        beta=float(beta),
        g=g,
        big_g=big_g,
        c=c,
        r_eff=r_eff,
        k=k,
        regime=regime,
    )
    try:  # G (pi/L)^2 times the coefficient, which exceeds a float itself at huge N
        finite = math.isfinite(ground_energy_physical(params))
    except OverflowError:
        finite = False
    if not finite:
        raise ParameterDomainError(
            f"the ground energy overflows at N={n!r}, r={r!r}, beta={beta!r}, L={length!r}"
        )
    return params


def interaction_pairs(params: ModelParams) -> list[tuple[int, int]]:
    """All interacting site pairs (a, b), a < b, each unordered pair once,
    in ascending (a, b) order.

    A pair interacts iff its cyclic distance is in 1..r_eff.  When N is
    even and r_eff = N/2 the antipodal pairs appear once, not twice.  The
    partners b > a of site a are a + 1..a + r_eff, cut at N - 1 for the
    last r_eff sites, then, for the first r_eff sites only, the wrap partners
    a + max(r_eff + 1, N - r_eff)..N - 1.  So the pairs come in three blocks
    of sites (2 r_eff <= N), each in order: no set, no sort.
    """
    n, r_eff = params.n, params.r_eff
    wrap = max(r_eff + 1, n - r_eff)  # offset of a site's first wrap partner
    near = range(1, r_eff + 1)
    pairs = [
        (a, b) for a in range(r_eff) for b in (*range(a + 1, a + r_eff + 1), *range(a + wrap, n))
    ]
    pairs += [(a, a + d) for a in range(r_eff, n - r_eff) for d in near]
    pairs += [(a, b) for a in range(n - r_eff, n) for b in range(a + 1, n)]
    return pairs


def triple_offsets(params: ModelParams) -> list[tuple[int, int, int]]:
    """End offsets of the three-body terms as one range per s: (s, lo, hi)
    for center j, ends j - s and j + t with lo <= t <= hi.

    1 <= s, t <= r_eff puts both ends within range of the center; the ends
    are out of range of each other when both s + t and N - s - t exceed
    r_eff, so t runs from max(1, r_eff + 1 - s) to min(r_eff, N - r_eff - 1 - s).
    O(r) entries, sorted by s, empty ranges left out.  Empty in the full regime.
    """
    r_eff = params.r_eff
    ranges = (
        (s, max(1, r_eff + 1 - s), min(r_eff, params.n - r_eff - 1 - s))
        for s in range(1, r_eff + 1)
    )
    return [(s, lo, hi) for s, lo, hi in ranges if lo <= hi]


def three_body_triples(params: ModelParams) -> list[tuple[int, int, int]]:
    """Center-designated triples (i, j, k), i < k: j within range of both i
    and k, while i and k are out of range of each other.

    Enumerated center first from `triple_offsets` in O(N r^2).  The center
    is unique: a second valid center would force the same pair to be both
    within and beyond range.  Sorted by (j, i, k).  Empty in the full regime.
    """
    n = params.n
    offsets = [(s, t) for s, lo, hi in triple_offsets(params) for t in range(lo, hi + 1)]
    triples = []
    for j in range(n):
        ends = sorted(tuple(sorted(((j - s) % n, (j + t) % n))) for s, t in offsets)
        triples.extend((i, j, k) for i, k in ends)
    return triples


def triple_count_formula(params: ModelParams) -> int:
    """Closed-form three-body term count (N/2)(r-k)(r+k+1); 0 in the full
    regime, where every pair interacts and no triple has out-of-range ends."""
    if not params.truncated:
        return 0
    k = params.k
    count = Fraction(params.n, 2) * (params.r - k) * (params.r + k + 1)
    assert count.denominator == 1
    return int(count)


# Published ground-state table this toolkit reproduces (reduced units, beta=1).
TABLE1_ROWS = {(6, 2): 20, (7, 2): 21, (8, 2): 24, (8, 3): 56, (9, 2): 27, (9, 3): 30}


def ground_energy_coeff(params: ModelParams) -> Fraction:
    """Ground-state energy in units of beta^2 pi^2 / L^2, exact rational."""
    n = params.n
    if params.truncated:  # n (r(r+1)/2 + k(k+1)/6), over one denominator
        r, k = params.r, params.k
        return Fraction(n * (3 * r * (r + 1) + k * (k + 1)), 6)
    return Fraction(n * (n * n - 1), 6)


def ground_energy_reduced(params: ModelParams) -> float:
    """Ground-state energy in units of pi^2 / L^2 (includes the beta^2 factor)."""
    return float(ground_energy_coeff(params)) * params.beta**2


def ground_energy_physical(params: ModelParams) -> float:
    """Ground-state energy in physical units (hbar = m = 1)."""
    return ground_energy_reduced(params) * (math.pi / params.length) ** 2


def closed_form_levels(params: ModelParams, beta):
    """The five known reduced levels eps - eps0, exact for a Fraction beta.

    rho is the per-site drift weight (2r in the truncated regime), so the
    levels read 1+rho*beta, (N-1)+rho*beta, N, N+2(1+rho*beta), 2+2*rho*beta.
    The keys are the state kinds.
    """
    n = params.n
    rb = params.drift_weight * beta
    return {
        E1: 1 + rb,
        ENM1: (n - 1) + rb,
        EN: n,
        COMBO: n + 2 * (1 + rb),
        NONDEG_ZERO: 2 + 2 * rb,
    }
