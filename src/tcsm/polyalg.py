"""Exact sparse multivariate Laurent polynomial arithmetic.

Coefficients are exact rationals (`Fraction`); the constructor is the one
place that drops zero coefficients.  `spectral.apply_H1` uses none of the
ring operations: it forms D_j, the product by z_a + z_b and the quotient by
z_a - z_b itself, in integers.  The generic ring operations (`__mul__`,
`__add__`, ...) and `exact_divide` are the reference for it in the tests.
The orbit-sum bases come from one walk over each partition's necklaces.

Exponent vectors are plain int tuples; negative exponents are allowed.
Serialization uses a canonical graded-lexicographic term order so goldens
are stable.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, repeat
from math import comb, factorial, gcd
from operator import add, neg
from typing import Iterable, Iterator, NamedTuple


class DivisionError(ArithmeticError):
    """Exact division by z_a - z_b failed; the message names the pair (a, b)."""


ZERO = Fraction(0)
ONE = Fraction(1)


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), tuple(-e for e in exps))


class LaurentPoly:
    """Sparse Laurent polynomial over Fraction, fixed number of variables.

    Invariant: `terms` never holds a zero coefficient.  The constructor
    filters its argument; `__neg__`, `scale` by a nonzero value,
    `invert_vars` and `shift_all` keep every coefficient nonzero, so they
    build their result through `_wrap`, which takes the dict as it is.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def _wrap(cls, nvars: int, terms: dict[tuple[int, ...], Fraction]) -> "LaurentPoly":
        """A polynomial that owns `terms`, which must hold no zero coefficient."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "LaurentPoly":
        c = Fraction(value)
        return LaurentPoly(nvars, {(0,) * nvars: c} if c else {})

    @staticmethod
    def monomial(nvars: int, exps: Iterable[int], coeff=1) -> "LaurentPoly":
        e = tuple(exps)
        if len(e) != nvars:
            raise ValueError(f"need {nvars} exponents, got {len(e)}")
        return LaurentPoly(nvars, {e: Fraction(coeff)})

    @staticmethod
    def variable(nvars: int, j: int, power: int = 1) -> "LaurentPoly":
        e = [0] * nvars
        e[j] = power
        return LaurentPoly.monomial(nvars, e)

    # -- ring operations ----------------------------------------------
    def _check(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return LaurentPoly(self.nvars, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._wrap(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, ZERO) + c1 * c2
        return LaurentPoly(self.nvars, out)

    def scale(self, value) -> "LaurentPoly":
        c0 = Fraction(value)
        if not c0:
            return LaurentPoly.zero(self.nvars)
        return LaurentPoly._wrap(self.nvars, {e: c * c0 for e, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, exps: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(exps), ZERO)

    # -- structure queries --------------------------------------------
    def degree(self) -> int | None:
        """Common total degree if homogeneous, else None; 0 for the zero poly."""
        degs = set(map(sum, self.terms))
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def min_exponent(self) -> int:
        return min(map(min, self.terms), default=0)

    # -- substitution -------------------------------------------------
    def invert_vars(self) -> "LaurentPoly":
        """Substitute z_i -> 1/z_i for every variable."""
        return LaurentPoly._wrap(
            self.nvars, {tuple(map(neg, e)): c for e, c in self.terms.items()}
        )

    def shift_all(self, q: int) -> "LaurentPoly":
        """Multiply by (prod z_i)^q."""
        if q == 0:
            return self
        return LaurentPoly._wrap(
            self.nvars, {tuple(map(add, e, repeat(q))): c for e, c in self.terms.items()}
        )

    # -- serialization ------------------------------------------------
    def canonical(self) -> str:
        """Stable text form: sorted graded-lex, each coefficient in parentheses."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex_key):
            mono = "*".join(
                f"z{i}^{p}" for i, p in enumerate(e) if p
            ) or "1"
            parts.append(f"({self.terms[e]})*{mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.canonical()})"


def exact_divide(p: LaurentPoly, a: int, b: int) -> LaurentPoly:
    """Exact quotient p / (z_a - z_b); raises DivisionError if not divisible.

    Terms are grouped by the exponents of every other variable together
    with s = e_a + e_b (the divisor is homogeneous in z_a, z_b), reducing
    each group to a univariate synthetic division in w = z_a/z_b.  The
    carry starts at the integer 0, so integer coefficients give an integer
    quotient and Fraction coefficients a Fraction one.
    """
    if a == b:
        raise ValueError("need distinct variable indices")
    i, j = sorted((a, b))
    groups: dict[tuple, dict[int, Fraction]] = {}
    for e, c in p.terms.items():
        key = (e[:i] + e[i + 1:j] + e[j + 1:], e[a] + e[b])
        groups.setdefault(key, {})[e[a]] = c
    out: dict[tuple[int, ...], Fraction] = {}
    for (rest, s), coeffs in groups.items():
        if sum(coeffs.values()):
            raise DivisionError(f"polynomial not divisible by (z_a - z_b) for pair ({a}, {b})")
        # synthetic division of sum c_k w^k by (w - 1), descending Horner;
        # groups differ in (rest, s), so no two write the same exponent
        carry = 0
        for k in range(max(coeffs), min(coeffs), -1):
            carry += coeffs.get(k, 0)
            if carry:
                out[_assemble(rest, a, b, k - 1, s - k)] = carry
    return LaurentPoly(p.nvars, out)


def _assemble(rest, a, b, ea, eb):
    """Exponent vector with ea at position a, eb at b and `rest` elsewhere."""
    if a > b:
        a, b, ea, eb = b, a, eb, ea
    return rest[:a] + (ea,) + rest[a:b - 1] + (eb,) + rest[b - 1:]


def elementary_symmetric(k: int, nvars: int) -> LaurentPoly:
    """e_k in nvars variables: sum over all k-subsets, C(nvars, k) terms."""
    if not 0 <= k <= nvars:
        raise ValueError(f"need 0 <= k <= {nvars}, got {k}")
    terms = {}
    for subset in combinations(range(nvars), k):
        e = [0] * nvars
        for i in subset:
            e[i] = 1
        terms[tuple(e)] = ONE
    return LaurentPoly(nvars, terms)


def power_sum(k: int, nvars: int) -> LaurentPoly:
    """p_k = sum z_i^k (k may be negative)."""
    terms = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = k
        terms[tuple(e)] = ONE
    return LaurentPoly(nvars, terms)


# -- partitions, necklaces, orbit bases -------------------------------------

def partitions(d: int, max_parts: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of d into at most max_parts parts, weakly decreasing tuples,
    in reverse lex order (largest first part first)."""
    if max_part is None:
        max_part = d
    if d == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(d, max_part), 0, -1):
        for tail in partitions(d - first, max_parts - 1, first):
            yield (first,) + tail


def partition_count(d: int, max_parts: int, cap: int) -> int:
    """Partitions of d into at most max_parts parts, or cap + 1 if there are more than cap.

    The count never falls as d grows (adding 1 to the first part maps the
    partitions of d into those of d + 1, one to one), and with two parts
    allowed it is at least d // 2 + 1, so a d above 2 cap is over the cap
    at once.  Otherwise the counts of 0..d with parts at most k, which is
    the conjugate of at most k parts, are built for k = 1, 2, ..., and the
    loop stops once d's count passes cap.  That count is at least p(k) once
    k <= d, so the loop ends by the k whose p(k) passes cap (k = 21 for a
    cap of 640), and each pass takes O(d).
    """
    if max_parts < 2 or d < 2:
        return int(max_parts > 0 or d == 0)
    if d > 2 * cap:
        return cap + 1
    counts = [1] + [0] * d
    for k in range(1, min(max_parts, d) + 1):
        for total in range(k, d + 1):
            counts[total] += counts[total - k]
        if counts[d] > cap:
            return cap + 1
    return counts[d]


def monomial_symmetric(partition: tuple[int, ...], nvars: int) -> LaurentPoly:
    """Orbit sum of z^partition under all variable permutations, coefficient 1:
    every arrangement is a rotation of one of its necklaces."""
    return LaurentPoly(
        nvars, {rho[i:] + rho[:i]: ONE for rho in necklaces(partition, nvars) for i in range(nvars)}
    )


def necklaces(partition: tuple[int, ...], nvars: int) -> list[tuple[int, ...]]:
    """The words of `_necklace_walk`, as tuples."""
    if len(partition) > nvars:
        raise ValueError(f"partition {partition} has more than {nvars} parts")
    return [tuple(word) for _, word in _necklace_walk(partition, nvars)]


def count_necklaces(nvars: int, degree: int) -> int:
    """The number of necklaces of N non-negative parts summing to d, over
    every partition: the dimension of the degree-d cyclic basis, with no
    enumeration.

    Burnside over the N rotations: phi(t) of them have order t, phi Euler's
    totient, and one of order t fixes the words made of t copies of a block
    of N/t parts, which sum to d only when t | d and then number
    C(N/t + d/t - 1, d/t).  So the count is
    (1/N) sum over t | gcd(N, d) of phi(t) C(N/t + d/t - 1, d/t), in
    O(gcd(N, d)^2) integer steps.
    """
    if degree < 0:
        return 0
    g = gcd(nvars, degree)
    return _burnside(nvars, g, lambda t: comb(nvars // t + degree // t - 1, degree // t))


def count_partition_necklaces(partition: tuple[int, ...], nvars: int) -> int:
    """The number of necklaces of the zero-padded partition, as
    `count_necklaces` counts them: a rotation of order t fixes a word exactly
    when the word is t copies of a block, so when t divides every
    multiplicity m_i (zeros included), and the blocks number the multinomial
    (N/t)! / prod (m_i/t)!."""
    mults = Counter(partition).values()
    zeros = nvars - len(partition)

    def fixed(t):
        total = factorial(nvars // t) // factorial(zeros // t)
        for m in mults:
            total //= factorial(m // t)
        return total

    return _burnside(nvars, gcd(zeros, *mults), fixed)


def _burnside(nvars: int, g: int, fixed) -> int:
    """(1/N) sum over t | g of phi(t) fixed(t), phi Euler's totient."""
    total = 0
    for t in range(1, g + 1):
        if g % t == 0:
            total += sum(gcd(k, t) == 1 for k in range(1, t + 1)) * fixed(t)
    return total // nvars


def _necklace_walk(partition: tuple[int, ...], nvars: int) -> Iterator[tuple[int, list[int]]]:
    """(t, word) for each necklace of the zero-padded partition, lex
    descending, each the lexicographic max of its rotations: word is the live
    list, t the first position where it differs from the last yield (0 at
    the first).

    Sawada's fixed-content prenecklace recursion (J. Sawada, Theoret.
    Comput. Sci. 301, 2003) with the alphabet reversed, run as a loop so that
    N is not bounded by the recursion limit.  Position t takes each value, in
    decreasing order, that is at most a[t - p] (p the period of a[:t]) while
    its count lasts; a full word is a necklace when its period divides N.
    No rotation is built and nothing else is filtered.
    """
    if nvars == 0:
        return
    word = [*sorted(partition, reverse=True), *repeat(0, nvars - len(partition))]
    values = sorted(set(word), reverse=True)
    left = list(map(word.count, values))  # by rank; rank 0 is the largest value
    n, k = nvars, len(values)
    a = [0] * n  # the word, as ranks
    if n == 1:
        yield 0, word
        return
    period = [1] * (n + 1)  # period[t]: period of a[:t]
    left[0] -= 1  # a[0] is the largest value
    low = 0  # least position backed up to since the last yield
    t, j = 1, 0  # place at position t a rank >= j
    while True:
        while j < k and not left[j]:
            j += 1
        if j == k:  # position t is exhausted: back up to t - 1
            t -= 1
            if t == 0:
                return
            if t < low:
                low = t
            j = a[t]
            left[j] += 1
            j += 1
            continue
        a[t] = j
        word[t] = values[j]
        p = period[t] if j == a[t - period[t]] else t + 1
        if t + 1 == n:  # one symbol was left, so this is the only word here
            if n % p == 0:
                yield low, word
                low = n
            j = k
            continue
        left[j] -= 1
        t += 1
        period[t] = p
        j = a[t - p]


def cyclic_orbit_sum(rep: tuple[int, ...]) -> LaurentPoly:
    return LaurentPoly(len(rep), {rep[i:] + rep[:i]: ONE for i in range(len(rep))})


SYMMETRIC = "symmetric"
CYCLIC = "cyclic"


class BasisSet(NamedTuple):
    """Orbit-sum basis of homogeneous degree-d polynomials.

    Elements have pairwise disjoint monomial support (each monomial lies in
    exactly one orbit), so exact projection is coefficient lookup.  The
    labels are enumerated up front; the element polynomials are built on
    each use, since the pencil reads only the labels.
    """

    kind: str
    nvars: int
    degree: int
    labels: tuple[tuple[int, ...], ...]

    @property
    def elements(self) -> tuple[LaurentPoly, ...]:
        if self.kind == SYMMETRIC:
            return tuple(monomial_symmetric(lam, self.nvars) for lam in self.labels)
        return tuple(cyclic_orbit_sum(rep) for rep in self.labels)

    def __len__(self) -> int:
        return len(self.labels)


def basis(kind: str, nvars: int, degree: int) -> BasisSet:
    """Enumerate the symmetric (partition-indexed) or cyclic-invariant
    (necklace-indexed) orbit-sum basis at a given degree.  Partitions come
    in reverse lex order, and necklaces grouped by partition in that order."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if kind not in (SYMMETRIC, CYCLIC):
        raise ValueError(f"unknown basis kind {kind!r}")
    labels = list(partitions(degree, nvars))
    if kind == CYCLIC:
        labels = [rho for lam in labels for rho in necklaces(lam, nvars)]
    return BasisSet(kind=kind, nvars=nvars, degree=degree, labels=tuple(labels))


def project(p: LaurentPoly, basis_set: BasisSet) -> tuple[list[Fraction], LaurentPoly]:
    """Exact coordinates of p in an orbit-sum basis, plus the exact residual.

    Because supports are disjoint the coordinate of element i is just the
    coefficient of any of its monomials; the residual collects whatever
    part of p is not a flat orbit sum.
    """
    coords = [ZERO] * len(basis_set)
    leftover = dict(p.terms)
    for i, el in enumerate(basis_set.elements):
        rep = next(iter(el.terms))
        c = p.coeff(rep)
        if c:
            coords[i] = c
            for e in el.terms:
                leftover[e] = leftover.get(e, ZERO) - c
    return coords, LaurentPoly(p.nvars, leftover)
