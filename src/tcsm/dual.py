"""Truncated second-order dual numbers.

A Dual2 carries (value, first derivative, second derivative) with respect
to a single seed variable.  Components may be scalars or numpy arrays
(real or complex), so a whole batch of configurations can be pushed
through one dual evaluation.  This gives roundoff-exact derivatives with
no step-size tuning and is fully independent of the hand-derived
analytic formulas it cross-checks.
"""

from __future__ import annotations

import numpy as np


class Dual2:
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

    def __neg__(self):
        return Dual2(-self.v, -self.d1, -self.d2)

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
