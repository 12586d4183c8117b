"""Ground-state amplitude and symmetric excitation factors.

All evaluation is log-domain and vectorized.  The public functions take
position arrays of shape (..., N), broadcast over the leading axes and move
the site axis only at their boundary.  There is no single-configuration
API: one configuration is the batch x[None, :], and `phi_eval_batch`
returns the values with a node mask, True where phi is too close to a
node for its ratios to hold.  Inside, every kernel works sites
first, on (N, ...) arrays (`_sites_first`): pair sums run over one row per
cyclic distance (`pair_cot`, shape (r_eff, N, ...)), a shift to a partner
site moves whole rows, and sums over sites are taken pairwise (`_site_sum`).
Each named excitation factor is one short list of terms
coeff * e1^a * conj(e1)^b * G^m (`_terms`); `_term_sums` differentiates
every list over G^m, and the node scale and the degree are read off it.
Every quantity has a second, independent differentiation path in
second-order dual numbers: for log psi0 in `dual_paths`, and for phi in the
test references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

SEPARATION_FLOOR = 1e-300
# `pair_cot`'s test flags a pair whose x_a - x_b rounds to k L, k an integer
# (within SEPARATION_FLOOR of 0 for k = 0).  Its angle fl(k fl(pi)) is then
# within |k| (|fl(pi) - pi| + pi 2^-53) < |k| 4.8e-16 of k pi, so
# |cot| > 2.08e15 / |k|, or > 3e299 or inf at k = 0.  While every |x| is
# below COINCIDENT_SPAN L, |k| <= 2 COINCIDENT_SPAN = 128 and
# |cot| > 1.6e13, 16 times COINCIDENT_COT.
COINCIDENT_SPAN = 64
COINCIDENT_COT = 1e12
# Near a node of phi the local energy's rounding error grows like P / |phi|,
# P the node scale.  The oracle's bound M grows with it, so no verdict needs
# this cut; it keeps that growth under 1e6, so that a sample close to a node
# cannot move the reported mean.
NODE_RTOL = 1e-6


class SeparationError(ArithmeticError):
    """Two particles are (numerically) coincident."""


# state kinds
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

_KINDS = {GROUND, E1, ENM1, EN, COMBO, COS_SUM, SIN_SUM, NONDEG_ZERO, BOOSTED, POLY}


@dataclass(frozen=True)
class StateSpec:
    """Label of a candidate eigenfunction psi = psi0 * phi.

    kind 'boosted' wraps a base spec and multiplies phi by (prod z_i)^q.
    kind 'poly' evaluates an explicit LaurentPoly (exponent -> coefficient
    mapping) as phi; used to cross-check certified spectral eigenvectors.
    """

    kind: str
    q: int = 0
    base: "StateSpec | None" = None
    poly: object = None  # polyalg.LaurentPoly for kind 'poly'

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown state kind {self.kind!r}")
        if self.kind == BOOSTED and self.base is None:
            raise ValueError("boosted spec needs a base")
        if self.kind == POLY and self.poly is None:
            raise ValueError("poly spec needs a polynomial")

    def label(self) -> str:
        if self.kind == BOOSTED:
            return f"boosted(q={self.q}, {self.base.label()})"
        return self.kind


def min_cyclic_separation(x: np.ndarray, length: float) -> np.ndarray:
    """Minimum pairwise cyclic separation, broadcasting over leading axes.

    O(N log N) per row: the closest pair is adjacent once the row is sorted,
    or it is the pair (first, last) across the wrap.
    """
    s = np.sort(x, axis=-1)
    wrap = length - (s[..., -1] - s[..., 0])
    return np.minimum(np.diff(s, axis=-1).min(axis=-1, initial=length), wrap)


def _sites_first(x: np.ndarray) -> np.ndarray:
    """Positions of shape (..., N) as a contiguous (N, ...) array.

    Every kernel below works sites first: a sum over sites reduces the
    leading axis, a shift to a partner site moves whole rows, and a
    per-sample value of shape (...) broadcasts against (N, ...) as it is.
    """
    return np.ascontiguousarray(np.moveaxis(np.asarray(x, dtype=float), -1, 0))


def pair_cot(params: ModelParams, xs: np.ndarray, check: bool = True) -> np.ndarray:
    """cot(pi (x_j - x_{j+d}) / L) for the distance rows d = 1..r_eff, shape (r_eff, N, ...).

    Takes sites-first positions (`_sites_first`).  Row d at site j is the
    interacting pair (j, j + d mod N).  The angles come from raw
    differences: cot is pi-periodic, so no wrap is needed and none costs
    precision.  Raises SeparationError when a pair coincides modulo L,
    including two positions a whole period apart.  With check=False that
    test is left to the caller, and a coincident pair gives a huge or
    infinite cot (COINCIDENT_COT).
    """
    n = params.n
    cot = np.empty((params.r_eff,) + xs.shape)
    off = np.empty(xs.shape) if check else None
    for d, row in enumerate(cot, 1):
        np.subtract(xs[: n - d], xs[d:], out=row[: n - d])
        np.subtract(xs[n - d :], xs[:d], out=row[n - d :])
        row /= params.length
        if check:
            np.rint(row, out=off)
            off -= row
            if np.any(np.abs(off, out=off) < SEPARATION_FLOOR):
                raise SeparationError(f"coincident pair at distance {d}")
        row *= math.pi
        np.reciprocal(np.tan(row, out=row), out=row)
    return cot


def _row_weights(params: ModelParams) -> np.ndarray:
    """Weight of each distance row in a sum over pairs: the antipodal row
    (2d = N) holds every pair twice, so it counts half."""
    return np.where(2 * np.arange(1, params.r_eff + 1) == params.n, 0.5, 1.0)


def _site_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading (site) axis by pairwise halving, so rounding
    grows like log N, as in numpy's pairwise sum over a last axis, and not
    like N, as in a plain reduction over a leading axis."""
    while len(a) > 1:
        h = len(a) // 2
        head = a[:h] + a[h : 2 * h]
        if len(a) % 2:
            head[0] += a[2 * h]
        a = head
    return a[0]


def csc2_by_site(params: ModelParams, cot: np.ndarray) -> np.ndarray:
    """csc^2 = 1 + cot^2 summed over the pairs (j, j + d) held at each site j,
    from the rows of `pair_cot`; shape (N, ...)."""
    w = _row_weights(params)
    return np.einsum("d,dj...,dj...->j...", w, cot, cot) + w.sum()


def log_psi0(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """log |psi0| = beta * sum over pairs of log |sin theta_ab|, from |sin| = 1 / hypot(1, cot).

    Normalization is fixed to 1.
    """
    cot = pair_cot(params, _sites_first(x))
    log_csc = np.log(np.hypot(1.0, cot, out=cot), out=cot)
    return -params.beta * _site_sum(np.tensordot(_row_weights(params), log_csc, axes=1))


def _grad_log_psi0(params: ModelParams, cot: np.ndarray) -> np.ndarray:
    """Sites-first gradient, shape (N, ...): each pair (j, j + d) adds
    beta (pi/L) cot to site j and subtracts it at j + d."""
    n, w = params.n, _row_weights(params)
    grad = np.einsum("d,dj...->j...", w, cot)  # not tensordot: BLAS threads cost more than the sum
    for d, (wd, c) in enumerate(zip(w, cot), 1):
        if wd != 1.0:
            c = wd * c
        grad[d:] -= c[: n - d]
        grad[:d] -= c[n - d :]
    grad *= params.beta * math.pi / params.length
    return grad


def grad_log_psi0(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Gradient of log psi0, shape (..., N); components sum to zero."""
    return np.moveaxis(_grad_log_psi0(params, pair_cot(params, _sites_first(x))), 0, -1)


def laplacian_ratio_psi0(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Delta psi0 / psi0 = sum_m (g_m^2 + h_m), h from the csc^2 second derivatives."""
    cot = pair_cot(params, _sites_first(x))
    g = _grad_log_psi0(params, cot)
    return _site_sum(g * g - 2.0 * params.beta * (math.pi / params.length) ** 2 * csc2_by_site(params, cot))


def _z(params: ModelParams, xs: np.ndarray) -> np.ndarray:
    """z = exp(2 pi i x / L) from the half-angle tangent t = tan(pi x / L):
    z = (1 - t^2 + 2 i t) / (1 + t^2).  One tan per site costs less than a
    cos and a sin, or the complex exponential."""
    t = np.tan(xs * (math.pi / params.length))
    s = 2.0 / (1.0 + t * t)  # 1 + cos
    z = np.empty(xs.shape, dtype=complex)
    np.subtract(s, 1.0, out=z.real)
    np.multiply(s, t, out=z.imag)
    return z


def _unboost(spec: StateSpec) -> tuple[StateSpec, int]:
    """The spec under every boost and the total q: boosts multiply phi by G^q, so nested ones add."""
    q = 0
    while spec.kind == BOOSTED:
        spec, q = spec.base, q + spec.q
    return spec, q


def _constant(params: ModelParams) -> float:
    """c = N / (1 + rho beta), the constant of the combo and kappa = 0 states."""
    return params.n / (1.0 + params.drift_weight * params.beta)


# the unboosted terms (coeff, a, b, m) of each named kind, as `_terms` returns
# them; a coeff of None stands for -c
_TERMS = {
    GROUND: ((1.0, 0, 0, 0),),
    E1: ((1.0, 1, 0, 0),),
    ENM1: ((1.0, 0, 1, 1),),
    EN: ((1.0, 0, 0, 1),),
    COMBO: ((1.0, 1, 1, 1), (None, 0, 0, 1)),
    NONDEG_ZERO: ((1.0, 1, 1, 0), (None, 0, 0, 0)),
    COS_SUM: ((0.5, 1, 0, 0), (0.5, 0, 1, 0)),
    SIN_SUM: ((-0.5j, 1, 0, 0), (0.5j, 0, 1, 0)),
}


def _terms(spec: StateSpec, c: float) -> list[tuple[complex, int, int, int]] | None:
    """phi as terms (coeff, a, b, m), each coeff * e1^a * conj(e1)^b * G^m with
    a, b in {0, 1}: e1 = sum z, conj(e1) = sum 1/z on |z| = 1 and G = prod z.
    A boost by q adds q to every m.  None for 'poly'."""
    base, q = _unboost(spec)
    table = _TERMS.get(base.kind)
    if table is None:
        return None
    return [(-c if k is None else k, a, b, m + q) for k, a, b, m in table]


def phi_moduli(spec: StateSpec, params: ModelParams) -> tuple[float, int]:
    """(P, e) for phi as a sum of monomials in z: P sums their moduli on
    |z| = 1 (|e1| and |conj(e1)| are at most N), the magnitude scale for
    node detection, and e bounds the modulus of every exponent."""
    terms = _terms(spec, _constant(params))
    if terms is None:
        base, q = _unboost(spec)
        return (float(sum(abs(float(c)) for c in base.poly.terms.values())),
                max((abs(e + q) for exps in base.poly.terms for e in exps), default=0))
    return (float(sum(abs(k) * params.n ** (a + b) for k, a, b, _ in terms)),
            max(abs(m) + (a or b) for _, a, b, m in terms))


def _term_sums(terms, n: int, e1, uz):
    """(p, d, lap) for phi = G^m p, p = sum coeff e1^a conj(e1)^b over a list
    of `_terms` (one m), e1 = sum z: d = sum_m u_m (D_m phi / G^m - m p) for
    real u_m, given uz = sum_m u_m z_m, and lap = sum_m D_m^2 phi / G^m.
    D_m e1 = z_m, D_m conj(e1) = -conj(z_m), D_m G = G and
    sum_m z_m conj(z_m) = N give, for each term T = coeff e1^a conj(e1)^b,
      D_m (G^m T) / G^m = coeff (a conj(e1)^b z_m - b e1^a conj(z_m)) + m T,
      sum_m D_m^2 (G^m T) / G^m = (a (2m + 1) - b (2m - 1) + N m^2) T - 2abN coeff.
    e1, uz are read only for a term with a or b."""
    m = terms[0][3]
    p = d = lap = 0.0
    for k, a, b, _ in terms:
        t = k * (e1 if a else 1.0) * (e1.conj() if b else 1.0)
        p = p + t
        lap = lap + (a * (2 * m + 1) - b * (2 * m - 1) + n * m * m) * t - 2 * a * b * n * k
        if a:
            d = d + (k * e1.conj() if b else k) * uz
        if b:
            d = d - (k * e1 if a else k) * uz.conj()
    return p, d, lap


def _phi_terms(spec: StateSpec, params: ModelParams, xs: np.ndarray):
    """Return (phi, D, lap) at sites-first positions xs of shape (N, ...):
    phi and lap = sum_m D_m^2 phi of shape (...), D of shape (N, ...)
    holding D_m phi, with D_m = z_m d/dz_m.

    A named state is G^m times `_term_sums`: rounding stays relative to p
    where its terms cancel, near a node of phi."""
    shape = xs.shape[1:]
    terms = _terms(spec, _constant(params))
    z = _z(params, xs)
    if terms is None:
        base, q = _unboost(spec)
        phi = np.zeros(shape, dtype=complex)
        lap = np.zeros(shape, dtype=complex)
        d = np.zeros(xs.shape, dtype=complex)
        for exps, coeff in base.poly.terms.items():
            exps = [e + q for e in exps]
            mono = np.full(shape, complex(coeff))
            for j, e in enumerate(exps):
                if e:
                    mono = mono * z[j] ** e
            phi += mono
            for j, e in enumerate(exps):
                if e:
                    d[j] += e * mono
                    lap += e * e * mono
        return phi, d, lap
    p, d, lap = _term_sums(terms, params.n, z.sum(axis=0), z)
    gm = z.prod(axis=0) ** terms[0][3]
    return gm * p, np.broadcast_to(gm * (d + terms[0][3] * p), xs.shape), gm * lap


def _node_inverse(phi: np.ndarray, scale: float):
    """(1/phi, node mask) as in `phi_eval_batch`; 1/phi is 1 at a node."""
    nodes = np.abs(phi) < NODE_RTOL * scale
    return 1.0 / np.where(nodes, 1.0, phi), nodes


def phi_eval_batch(spec: StateSpec, params: ModelParams, x: np.ndarray):
    """phi, grad ratio (d/dx_m phi)/phi, Laplacian ratio (Delta phi)/phi, node mask.

    Node mask marks configurations with |phi| below NODE_RTOL times the
    state's magnitude scale; ratios there are invalid and must be dropped.
    """
    phi, d, lap = _phi_terms(spec, params, _sites_first(x))
    inv, nodes = _node_inverse(phi, phi_moduli(spec, params)[0])
    w = 2j * math.pi / params.length
    return phi, np.moveaxis(w * d * inv, 0, -1), w * w * lap * inv, nodes

