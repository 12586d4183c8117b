"""Dual-number evaluation of wavefunction derivatives.

Independent second path for every derivative the analytic formulas in
`wavefunction` produce.  A truncated second-order dual number carries
(value, first derivative, second derivative) with respect to one seed
variable, so derivatives are roundoff-exact with no step-size tuning and
share nothing with the hand-derived formulas they cross-check.  Each
coordinate is seeded in turn; dual components are numpy arrays, so a
whole batch of configurations is differentiated per seed.
"""

from __future__ import annotations

import math

import numpy as np

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


class Dual2:
    """(value, d/dseed, d^2/dseed^2); components are scalars or numpy arrays,
    real or complex."""

    __slots__ = ("v", "d1", "d2")

    # make ndarray <op> Dual2 defer to the reflected methods below
    __array_ufunc__ = None

    def __init__(self, v, d1=0.0, d2=0.0):
        self.v = v
        self.d1 = d1
        self.d2 = d2

    @staticmethod
    def seed(v):
        """Variable with respect to which derivatives are taken."""
        return Dual2(v, np.ones_like(v) if isinstance(v, np.ndarray) else 1.0, 0.0)

    @staticmethod
    def lift(other):
        if isinstance(other, Dual2):
            return other
        return Dual2(other)

    def __add__(self, other):
        o = Dual2.lift(other)
        return Dual2(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = Dual2.lift(other)
        return Dual2(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other):
        return Dual2.lift(other) - self

    def __mul__(self, other):
        o = Dual2.lift(other)
        return Dual2(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Dual2.lift(other)
        inv = 1.0 / o.v
        w = self.v * inv
        w1 = (self.d1 - w * o.d1) * inv
        w2 = (self.d2 - 2.0 * w1 * o.d1 - w * o.d2) * inv
        return Dual2(w, w1, w2)

    def __rtruediv__(self, other):
        return Dual2.lift(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("only integer powers")
        if n == 0:
            return Dual2.lift(1.0)
        if n < 0:
            return 1.0 / self.__pow__(-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __mod__(self, modulus):
        # shifting by a constant leaves derivatives untouched
        return Dual2(self.v % modulus, self.d1, self.d2)

    def __repr__(self):
        return f"Dual2({self.v!r}, {self.d1!r}, {self.d2!r})"


def _chain(x, f, fp, fpp):
    d = Dual2.lift(x)
    return Dual2(f, fp * d.d1, fpp * d.d1 * d.d1 + fp * d.d2)


def dsin(x):
    d = Dual2.lift(x)
    s = np.sin(d.v)
    return _chain(d, s, np.cos(d.v), -s)


def dlog(x):
    d = Dual2.lift(x)
    return _chain(d, np.log(d.v), 1.0 / d.v, -1.0 / (d.v * d.v))


def dexp(x):
    d = Dual2.lift(x)
    e = np.exp(d.v)
    return _chain(d, e, e, e)


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
