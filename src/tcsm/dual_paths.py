"""Dual-number evaluation of wavefunction derivatives.

Independent second path for every derivative the analytic formulas in
`wavefunction` produce.  Each coordinate is seeded in turn; dual
components are numpy arrays, so a whole batch of configurations is
differentiated per seed.
"""

from __future__ import annotations

import math

import numpy as np

from .dual import Dual2, dexp, dlog, dsin
from .model import ModelParams, interaction_pairs
from .wavefunction import (
    BOOSTED,
    COMBO,
    COS_SUM,
    E1,
    EN,
    ENM1,
    GROUND,
    NONDEG_ZERO,
    POLY,
    SIN_SUM,
    StateSpec,
)


def _log_pair_term(params: ModelParams, xa, xb):
    theta = ((xa - xb) % params.length) * (math.pi / params.length)
    return params.beta * dlog(dsin(theta))


def dual_grad_and_second_log_psi0(params: ModelParams, x: np.ndarray):
    """(d/dx_m log psi0, d^2/dx_m^2 log psi0), each shape (..., N)."""
    n = params.n
    by_site: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b in interaction_pairs(params):
        by_site[a].append((a, b))
        by_site[b].append((a, b))
    grad = np.zeros(x.shape, dtype=float)
    second = np.zeros(x.shape, dtype=float)
    for m in range(n):
        xm = Dual2.seed(x[..., m])
        total = Dual2.lift(np.zeros(x.shape[:-1]))
        for a, b in by_site[m]:
            xa = xm if a == m else x[..., a]
            xb = xm if b == m else x[..., b]
            total = total + _log_pair_term(params, xa, xb)
        grad[..., m] = total.d1
        second[..., m] = total.d2
    return grad, second


def _phi_generic(spec: StateSpec, params: ModelParams, zs: list):
    """Evaluate phi from a list of z values; entries may be Dual2."""
    n = params.n
    if spec.kind == GROUND:
        return 1.0
    if spec.kind == E1:
        return sum(zs[1:], zs[0])
    if spec.kind == EN:
        prod = zs[0]
        for zj in zs[1:]:
            prod = prod * zj
        return prod
    pinv = sum((1.0 / zj for zj in zs[1:]), 1.0 / zs[0])
    e1 = sum(zs[1:], zs[0])
    prod = zs[0]
    for zj in zs[1:]:
        prod = prod * zj
    c = n / (1.0 + params.drift_weight * params.beta)
    if spec.kind == ENM1:
        return prod * pinv
    if spec.kind == COMBO:
        return e1 * (prod * pinv) - c * prod
    if spec.kind == NONDEG_ZERO:
        return e1 * pinv - c
    if spec.kind == COS_SUM:
        return (e1 + pinv) * 0.5
    if spec.kind == SIN_SUM:
        return (e1 - pinv) * (1.0 / 2j)
    if spec.kind == BOOSTED:
        return prod**spec.q * _phi_generic(spec.base, params, zs)
    if spec.kind == POLY:
        total = 0.0
        for exps, coeff in spec.poly.terms.items():
            term = complex(coeff)
            for zj, e in zip(zs, exps):
                if e:
                    term = zj**e * term
            total = term + total
        return total
    raise AssertionError(spec.kind)


def dual_phi_eval(spec: StateSpec, params: ModelParams, x: np.ndarray):
    """(phi, d phi/dx_m, d^2 phi/dx_m^2), derivative arrays shaped (..., N)."""
    n = params.n
    w = 2j * math.pi / params.length
    z_plain = [np.exp(w * x[..., j]) for j in range(n)]
    phi = None
    dphi = np.zeros(x.shape, dtype=complex)
    d2phi = np.zeros(x.shape, dtype=complex)
    for m in range(n):
        zs = list(z_plain)
        zs[m] = dexp(Dual2.seed(x[..., m]) * w)
        val = Dual2.lift(_phi_generic(spec, params, zs))
        if phi is None:
            phi = val.v + np.zeros(x.shape[:-1], dtype=complex)
        dphi[..., m] = val.d1
        d2phi[..., m] = val.d2
    return phi, dphi, d2phi
