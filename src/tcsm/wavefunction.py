"""Ground-state amplitude and symmetric excitation factors.

All evaluation is log-domain and vectorized: position arrays have shape
(..., N) and every function broadcasts over the leading axes; pair sums
run over one row per cyclic distance (`pair_cot`).  Two independent
differentiation paths exist for every quantity: the analytic formulas here
and the second-order dual-number path in `dual_paths`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

SEPARATION_FLOOR = 1e-300
# The imaginary part of the local energy is pure rounding error, and near a
# node of phi it grows like 3e-16 / (|phi| / scale).  Rejecting |phi| / scale
# below 1e-6 keeps it under about 3e-10, inside the oracle's IMAG_RATIO_TOL
# of 1e-9, so a sample close to a node cannot fail a true eigenstate.
NODE_RTOL = 1e-6


class SeparationError(ArithmeticError):
    """Two particles are (numerically) coincident."""


class NodeProximityError(ArithmeticError):
    """The excitation factor is too close to a node; local energy undefined."""


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


@dataclass(frozen=True)
class Configuration:
    """N particle positions on the circle with their minimum cyclic separation."""

    x: tuple[float, ...]
    min_sep: float

    @staticmethod
    def from_positions(x, length: float) -> "Configuration":
        arr = np.asarray(x, dtype=float) % length
        sep = min_cyclic_separation(arr, length)
        if not sep > 0:
            raise SeparationError("coincident positions")
        return Configuration(x=tuple(arr.tolist()), min_sep=float(sep))

    def array(self) -> np.ndarray:
        return np.asarray(self.x, dtype=float)


def min_cyclic_separation(x: np.ndarray, length: float) -> np.ndarray:
    """Minimum pairwise cyclic separation, broadcasting over leading axes.

    O(N log N) per row: the closest pair is adjacent once the row is sorted,
    or it is the pair (first, last) across the wrap.
    """
    s = np.sort(x, axis=-1)
    wrap = length - (s[..., -1] - s[..., 0])
    return np.minimum(np.diff(s, axis=-1).min(axis=-1, initial=length), wrap)


def pair_cot(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """cot(pi (x_j - x_{j+d}) / L) for the distance rows d = 1..r_eff, shape (r_eff, ..., N).

    Row d at site j is the interacting pair (j, j + d mod N).  The angles
    come from raw differences: cot is pi-periodic, so no wrap is needed and
    none costs precision.  Raises SeparationError when a pair coincides
    modulo L, including two positions a whole period apart.
    """
    cot = np.empty((params.r_eff,) + x.shape)
    for d in range(1, params.r_eff + 1):
        turns = (x - np.roll(x, -d, axis=-1)) / params.length
        if np.any(np.abs(turns - np.rint(turns)) < SEPARATION_FLOOR):
            raise SeparationError(f"coincident pair at distance {d}")
        cot[d - 1] = 1.0 / np.tan(math.pi * turns)
    return cot


def _row_weights(params: ModelParams) -> np.ndarray:
    """Weight of each distance row in a sum over pairs: the antipodal row
    (2d = N) holds every pair twice, so it counts half."""
    return np.where(2 * np.arange(1, params.r_eff + 1) == params.n, 0.5, 1.0)


def pair_sum(params: ModelParams, rows: np.ndarray) -> np.ndarray:
    """Sum over interacting pairs of a per-pair quantity held as distance
    rows of shape (r_eff, ..., N); shape (...)."""
    return np.tensordot(_row_weights(params), rows.sum(axis=-1), axes=1)


def log_psi0(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """log |psi0| = beta * sum over pairs of log |sin theta_ab|, from |sin| = 1 / hypot(1, cot).

    Normalization is fixed to 1.
    """
    return -params.beta * pair_sum(params, np.log(np.hypot(1.0, pair_cot(params, x))))


def _grad_log_psi0(params: ModelParams, cot: np.ndarray) -> np.ndarray:
    """Each pair (j, j + d) adds beta (pi/L) cot to site j and subtracts it at j + d."""
    w = _row_weights(params)
    grad = sum(w[d - 1] * (c - np.roll(c, d, axis=-1)) for d, c in enumerate(cot, 1))
    return params.beta * math.pi / params.length * grad


def grad_log_psi0(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Gradient of log psi0, shape (..., N); components sum to zero."""
    return _grad_log_psi0(params, pair_cot(params, x))


def laplacian_ratio_psi0(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Delta psi0 / psi0 = sum_m (g_m^2 + h_m), h from the csc^2 second derivatives."""
    cot = pair_cot(params, x)
    g = _grad_log_psi0(params, cot)
    # every pair contributes its csc^2 = 1 + cot^2 term to both endpoints
    csc2 = pair_sum(params, 1.0 + cot * cot)
    return (g * g).sum(axis=-1) - 2.0 * params.beta * (math.pi / params.length) ** 2 * csc2


def _z(params: ModelParams, x: np.ndarray) -> np.ndarray:
    return np.exp(2j * math.pi * x / params.length)


def phi_node_scale(spec: StateSpec, params: ModelParams) -> float:
    """Magnitude scale of phi on |z|=1, used for node detection."""
    n = params.n
    rho = params.drift_weight
    if spec.kind in (GROUND, EN):
        return 1.0
    if spec.kind in (E1, ENM1, COS_SUM, SIN_SUM):
        return float(n)
    if spec.kind in (COMBO, NONDEG_ZERO):
        return float(n * n + n / (1.0 + rho * params.beta))
    if spec.kind == BOOSTED:
        return phi_node_scale(spec.base, params)
    if spec.kind == POLY:
        return float(sum(abs(float(c)) for c in spec.poly.terms.values()))
    raise AssertionError(spec.kind)


def _phi_terms(spec: StateSpec, params: ModelParams, z: np.ndarray):
    """Return (phi, D, D2): phi shape (...,), D and D2 shape (..., N) holding
    D_m phi and D_m^2 phi with D_m = z_m d/dz_m."""
    n = params.n
    if spec.kind == GROUND:
        shape = z.shape[:-1]
        one = np.ones(shape, dtype=complex)
        zero = np.zeros(z.shape, dtype=complex)
        return one, zero, zero
    if spec.kind == E1:
        return z.sum(axis=-1), z.copy(), z.copy()
    if spec.kind == EN:
        big_g = z.prod(axis=-1)
        d = np.broadcast_to(big_g[..., None], z.shape).copy()
        return big_g, d, d.copy()
    if spec.kind == ENM1:
        big_g = z.prod(axis=-1)
        pinv = (1.0 / z).sum(axis=-1)
        phi = big_g * pinv
        d = phi[..., None] - big_g[..., None] / z
        return phi, d, d.copy()
    if spec.kind == COMBO:
        c = n / (1.0 + params.drift_weight * params.beta)
        e1 = z.sum(axis=-1)
        big_g = z.prod(axis=-1)
        pinv = (1.0 / z).sum(axis=-1)
        enm1 = big_g * pinv
        d_enm1 = enm1[..., None] - big_g[..., None] / z
        phi = e1 * enm1 - c * big_g
        d = z * enm1[..., None] + e1[..., None] * d_enm1 - c * big_g[..., None]
        d2 = (
            z * enm1[..., None]
            + 2.0 * z * d_enm1
            + e1[..., None] * d_enm1
            - c * big_g[..., None]
        )
        return phi, d, d2
    if spec.kind == NONDEG_ZERO:
        c = n / (1.0 + params.drift_weight * params.beta)
        e1 = z.sum(axis=-1)
        pinv = (1.0 / z).sum(axis=-1)
        phi = e1 * pinv - c
        d = z * pinv[..., None] - e1[..., None] / z
        d2 = z * pinv[..., None] - 2.0 + e1[..., None] / z
        return phi, d, d2
    if spec.kind == COS_SUM:
        zin = 1.0 / z
        phi = 0.5 * (z.sum(axis=-1) + zin.sum(axis=-1))
        return phi, 0.5 * (z - zin), 0.5 * (z + zin)
    if spec.kind == SIN_SUM:
        zin = 1.0 / z
        phi = (z.sum(axis=-1) - zin.sum(axis=-1)) / 2j
        return phi, (z + zin) / 2j, (z - zin) / 2j
    if spec.kind == BOOSTED:
        q = spec.q
        bphi, bd, bd2 = _phi_terms(spec.base, params, z)
        gq = z.prod(axis=-1) ** q
        phi = gq * bphi
        d = gq[..., None] * (q * bphi[..., None] + bd)
        d2 = gq[..., None] * (q * q * bphi[..., None] + 2.0 * q * bd + bd2)
        return phi, d, d2
    if spec.kind == POLY:
        phi = np.zeros(z.shape[:-1], dtype=complex)
        d = np.zeros(z.shape, dtype=complex)
        d2 = np.zeros(z.shape, dtype=complex)
        for exps, coeff in spec.poly.terms.items():
            mono = np.ones(z.shape[:-1], dtype=complex)
            for j, e in enumerate(exps):
                if e:
                    mono = mono * z[..., j] ** e
            cval = complex(coeff)
            phi += cval * mono
            for j, e in enumerate(exps):
                if e:
                    d[..., j] += cval * e * mono
                    d2[..., j] += cval * e * e * mono
        return phi, d, d2
    raise AssertionError(spec.kind)


def phi_eval_batch(spec: StateSpec, params: ModelParams, x: np.ndarray):
    """phi, grad ratio (d/dx_m phi)/phi, Laplacian ratio (Delta phi)/phi, node mask.

    Node mask marks configurations with |phi| below NODE_RTOL times the
    state's magnitude scale; ratios there are invalid and must be dropped.
    """
    z = _z(params, x)
    phi, d, d2 = _phi_terms(spec, params, z)
    nodes = np.abs(phi) < NODE_RTOL * phi_node_scale(spec, params)
    safe = np.where(nodes, 1.0, phi)
    w = 2j * math.pi / params.length
    grad_ratio = w * d / safe[..., None]
    lap_ratio = w * w * d2.sum(axis=-1) / safe
    return phi, grad_ratio, lap_ratio, nodes


def phi_eval(spec: StateSpec, params: ModelParams, config: Configuration):
    """Single-configuration wrapper; raises NodeProximityError at a node."""
    x = config.array()[None, :]
    phi, grad_ratio, lap_ratio, nodes = phi_eval_batch(spec, params, x)
    if nodes[0]:
        raise NodeProximityError(f"phi({spec.label()}) too close to a node")
    return phi[0], grad_ratio[0], lap_ratio[0]

