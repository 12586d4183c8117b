"""Dual-number evaluation of the ground-state derivatives.

Independent second path for d/dx_m log psi0 and d^2/dx_m^2 log psi0, which
the analytic formulas in `wavefunction` also produce.  A truncated
second-order dual number carries (value, first derivative, second
derivative) with respect to one seed variable, so derivatives are
roundoff-exact with no step-size tuning and share nothing with the
hand-derived formulas they cross-check.  A pair's term depends only on
x_a - x_b, so one seed per pair gives the derivatives at both ends: the
pairs of one cyclic distance are seeded together, one batch per distance,
and dual components are numpy arrays over the whole batch of
configurations.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams, interaction_pairs
from .wavefunction import _sites_first


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

    def __repr__(self):
        return f"Dual2({self.v!r}, {self.d1!r}, {self.d2!r})"


def _chain(x, f, fp, fpp):
    d = Dual2.lift(x)
    return Dual2(f, fp * d.d1, fpp * d.d1 * d.d1 + fp * d.d2)


def dsin(x):
    """sin and cos from the half-angle tangent t = tan(x / 2):
    sin = 2t / (1 + t^2), cos = (1 - t^2) / (1 + t^2).  One tan costs less
    than a sin and a cos."""
    d = Dual2.lift(x)
    t = np.tan(0.5 * d.v)
    u = 1.0 / (1.0 + t * t)
    s = 2.0 * t * u
    return _chain(d, s, (1.0 - t * t) * u, -s)


def dlog(x):
    d = Dual2.lift(x)
    return _chain(d, np.log(d.v), 1.0 / d.v, -1.0 / (d.v * d.v))


def _log_pair_term(params: ModelParams, xa, xb):
    """beta log|sin(pi (x_a - x_b) / L)| as (beta / 2) log sin^2, from the
    raw difference: the term is pi-periodic in the angle, so no wrap into
    [0, L) is needed and none costs precision."""
    s = dsin((xa - xb) * (math.pi / params.length))
    return (0.5 * params.beta) * dlog(s * s)


def dual_grad_and_second_log_psi0(params: ModelParams, x: np.ndarray):
    """(d/dx_m log psi0, d^2/dx_m^2 log psi0), each shape (..., N).

    The pairs of cyclic distance d are written (first, last) with last =
    first + d mod N, so within one distance no site is first twice and none
    is last twice, and each `+=` at the sites of one distance touches a site
    once.  Each distance is one batch, sites first (`_sites_first`): the
    first sites' rows are seeded against the plain rows of the last sites,
    and as the term depends only on the difference, its derivatives at last
    are -d1 and d2.
    """
    n = params.n
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for a, b in interaction_pairs(params):
        first, last = (a, b) if 2 * (b - a) <= n else (b, a)
        firsts, lasts = groups.setdefault(min(b - a, n - b + a), ([], []))
        firsts.append(first)
        lasts.append(last)
    xs = _sites_first(x)
    grad = np.zeros(xs.shape)
    second = np.zeros(xs.shape)
    for firsts, lasts in groups.values():
        term = _log_pair_term(params, Dual2.seed(xs[firsts]), xs[lasts])
        grad[firsts] += term.d1
        grad[lasts] -= term.d1
        second[firsts] += term.d2
        second[lasts] += term.d2
    return np.moveaxis(grad, 0, -1), np.moveaxis(second, 0, -1)
