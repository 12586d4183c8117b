"""Exact application of the transformed operator and degree-block spectra.

The similarity-transformed operator acts on (Laurent) polynomials in
z_j = exp(2 pi i x_j / L) as

    sum_j D_j^2  +  beta * sum_{pairs (a,b)} ((z_a + z_b)/(z_a - z_b)) (D_a - D_b)

with D_j = z_j d/dz_j and the pair set equal to the interaction pair list.
The drift numerator is z_a + z_b: the identity is
cot(pi (x_a - x_b)/L) = i (z_a + z_b)/(z_a - z_b), which the d=1 block
confirms by reproducing the 1 + 2 r beta level.

The operator preserves homogeneous degree but, for 1 < r < c, maps fully
symmetric polynomials only into cyclic-invariant ones, so each degree
block is a rectangular pencil (A0 + beta A1) v = lambda E v with E the
exact embedding of the symmetric basis into the cyclic-invariant basis.
`build_pencil` reads sparse A1 rows and the row -> partition index that
fixes A0 and E off the basis labels in integers.
`apply_H1` applies the operator to one polynomial, behind the exact eigen,
parity and boost checks: it clears denominators once, forms the diagonal
and each pair's drift numerator in integers, makes one exact division per
drift pair and builds each output Fraction once.  The generic Laurent ring
operations are its reference in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from .model import ModelParams, ParameterDomainError, closed_form_levels, interaction_pairs
from .polyalg import (
    CYCLIC,
    SYMMETRIC,
    BasisSet,
    LaurentPoly,
    basis,
    exact_divide,
)

CERT_TOL = 1e-10
SPURIOUS_FLOOR = 1e-4


class PencilError(RuntimeError):
    """Structural failure while solving a degree block or certifying an eigenvector."""


@dataclass(frozen=True)
class H1Operator:
    params: ModelParams
    drift_pairs: tuple[tuple[int, int], ...]

    @staticmethod
    def build(params: ModelParams) -> "H1Operator":
        return H1Operator(params=params, drift_pairs=tuple(interaction_pairs(params)))


def apply_H1(op: H1Operator, p: LaurentPoly, beta) -> LaurentPoly:
    """Apply the transformed operator exactly, at a given beta.

    p is scaled once to integer coefficients; the diagonal sum_j D_j^2 and,
    per drift pair, the numerator (z_a + z_b)(D_a - D_b)p are formed in
    integers, and each coefficient becomes a Fraction once, at the end.

    For beta != 0, divisibility of (D_a - D_b)p by (z_a - z_b) is checked,
    not assumed (DivisionError otherwise).  It holds exactly when, in every
    group of terms c_k z_a^k z_b^(s-k) sharing s and the other exponents,
    sum_k (2k - s) c_k = 0; a<->b exchange symmetry is sufficient, not
    necessary.
    """
    n = op.params.n
    if p.nvars != n:
        raise ValueError("variable count mismatch")
    beta = Fraction(beta)
    den = lcm(*(c.denominator for c in p.terms.values()))
    ints = {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
    diag = {e: c * sum(x * x for x in e) for e, c in ints.items()}
    drift = _drift(op, ints) if beta else {}
    scale = den * beta.denominator
    return LaurentPoly(n, {
        e: Fraction(diag.get(e, 0) * beta.denominator + beta.numerator * drift.get(e, 0), scale)
        for e in diag | drift
    })


def _drift(op: H1Operator, ints: dict) -> dict:
    """sum over pairs of (z_a + z_b)(D_a - D_b)p / (z_a - z_b), p given by
    its integer coefficients; one exact division per pair that moves p."""
    drift: dict[tuple[int, ...], int] = {}
    for a, b in op.drift_pairs:
        moved: dict[tuple[int, ...], int] = {}
        for e, c in ints.items():
            k = (e[a] - e[b]) * c
            if k:
                for up in (e[:a] + (e[a] + 1,) + e[a + 1:], e[:b] + (e[b] + 1,) + e[b + 1:]):
                    moved[up] = moved.get(up, 0) + k
        if moved:
            for e, c in exact_divide(LaurentPoly(op.params.n, moved), a, b).terms.items():
                drift[e] = drift.get(e, 0) + c
    return drift


def exact_eigencheck(op: H1Operator, p: LaurentPoly, beta) -> Fraction:
    """Return lambda with apply_H1(p) == lambda * p exactly, else raise."""
    if not p:
        raise ValueError("zero polynomial")
    image = apply_H1(op, p, beta=beta)
    exps, coeff = next(iter(p.terms.items()))
    lam = image.coeff(exps) / coeff
    if image != p.scale(lam):
        raise PencilError("polynomial is not an exact eigenvector")
    return lam


@dataclass(frozen=True)
class PencilBlock:
    """Exact degree-d block: A = A0 + beta*A1 maps symmetric coordinates into
    the cyclic-invariant basis; E is the embedding.  Row rho of E (of A0) is
    1 (sum_j lambda_j^2) at `column[rho]`, the partition lambda of rho, and
    0 elsewhere; `a1` holds the integer rows of A1 as column -> value."""

    degree: int
    sym_basis: BasisSet
    cyc_basis: BasisSet
    column: tuple[int, ...]
    a1: tuple[dict[int, int], ...]

    @property
    def dim_sym(self) -> int:
        return len(self.sym_basis)

    @property
    def dim_cyc(self) -> int:
        return len(self.cyc_basis)


def _partition(exps) -> tuple[int, ...]:
    return tuple(sorted((e for e in exps if e), reverse=True))


def build_pencil(op: H1Operator, degree: int) -> PencilBlock:
    """Degree-d block read off the basis labels, in integers.

    For m > n the drift of pair (a, b) maps z_a^m z_b^n + z_a^n z_b^m to
    (m - n) times
        z_a^m z_b^n + 2 sum_{k=1}^{m-n-1} z_a^{m-k} z_b^{n+k} + z_a^n z_b^m.
    So row rho of A1 gains (m - n) * w for every split m + n = rho_a + rho_b
    with n <= min(rho_a, rho_b), where w is 1 at the ends of the run
    (n = min(rho_a, rho_b)) and 2 inside it; the column is the partition of
    rho with (rho_a, rho_b) replaced by (m, n).  Each symmetric element is a
    sum of flat cyclic orbit sums, so E and A0 follow from each row's
    partition.
    """
    if degree < 1:
        raise ParameterDomainError("degree must be >= 1")
    n = op.params.n
    sym = basis(SYMMETRIC, n, degree)
    cyc = basis(CYCLIC, n, degree)
    index = {lam: j for j, lam in enumerate(sym.labels)}
    rows = []
    for rho in cyc.labels:
        row: dict[int, int] = {}
        for a, b in op.drift_pairs:
            low, total = min(rho[a], rho[b]), rho[a] + rho[b]
            for lo in range(low + 1):
                hi = total - lo
                if hi == lo:
                    continue
                source = list(rho)
                source[a], source[b] = hi, lo
                j = index[_partition(source)]
                row[j] = row.get(j, 0) + (hi - lo) * (1 if lo == low else 2)
        rows.append(row)
    return PencilBlock(
        degree=degree,
        sym_basis=sym,
        cyc_basis=cyc,
        column=tuple(index[_partition(rho)] for rho in cyc.labels),
        a1=tuple(rows),
    )


@dataclass(frozen=True)
class EigenPair:
    value: complex
    vector: tuple[complex, ...]  # symmetric-basis coordinates
    residual: float

    def real_value(self) -> float:
        return float(self.value.real)


@dataclass(frozen=True)
class PencilSolution:
    degree: int
    beta_value: float
    certified: tuple[EigenPair, ...]
    spurious: tuple[EigenPair, ...]
    ambiguous: tuple[EigenPair, ...]


def solve_pencil(block: PencilBlock, beta_value: float, tol: float = CERT_TOL) -> PencilSolution:
    """Candidate pairs from the least-squares square operator E^+ A; each is
    certified by its true full-space residual ||Av - lambda Ev|| / ||Ev||.
    Ev is v[column], and E^+ A averages A's rows over each column's run."""
    if not 0 < tol < SPURIOUS_FLOOR:
        raise ParameterDomainError(f"need 0 < tol < {SPURIOUS_FLOOR}, got {tol!r}")
    column = np.array(block.column)
    diag = np.array([sum(x * x for x in lam) for lam in block.sym_basis.labels], dtype=float)
    a1 = np.zeros((block.dim_cyc, block.dim_sym))
    for row, entries in enumerate(block.a1):
        a1[row, list(entries)] = list(entries.values())
    runs = np.bincount(column)
    starts = np.cumsum(runs) - runs
    m = np.diag(diag) + beta_value * np.add.reduceat(a1, starts) / runs[:, None]
    w, vecs = np.linalg.eig(m)
    pairs = []
    for i in range(len(w)):
        v = vecs[:, i]
        ev = v[column]
        av = diag[column] * ev + beta_value * (a1 @ v)
        res = float(np.linalg.norm(av - w[i] * ev) / np.linalg.norm(ev))
        pairs.append(EigenPair(value=complex(w[i]), vector=tuple(v.tolist()), residual=res))
    pairs.sort(key=lambda pr: (pr.value.real, pr.value.imag))
    certified = tuple(pr for pr in pairs if pr.residual < tol)
    spurious = tuple(pr for pr in pairs if pr.residual > SPURIOUS_FLOOR)
    ambiguous = tuple(pr for pr in pairs if tol <= pr.residual <= SPURIOUS_FLOOR)
    return PencilSolution(
        degree=block.degree,
        beta_value=beta_value,
        certified=certified,
        spurious=spurious,
        ambiguous=ambiguous,
    )


def vector_poly(block: PencilBlock, vector) -> LaurentPoly:
    """Assemble a symmetric-coordinate vector into a polynomial.

    The vector is rescaled by its largest coordinate, then coordinates are
    rounded to nearby rationals (max denominator 10^6) so certified
    eigenvectors can feed the exact paths.
    """
    coords = np.asarray(vector, dtype=complex)
    pivot = coords[np.argmax(np.abs(coords))]
    coords = coords / pivot
    out = LaurentPoly.zero(block.sym_basis.nvars)
    for coord, el in zip(coords, block.sym_basis.elements):
        if abs(coord) < 1e-9:
            continue
        frac = Fraction(float(coord.real)).limit_denominator(10**6)
        if frac:
            out = out + el.scale(frac)
    return out


@dataclass(frozen=True)
class SpectrumReport:
    degree: int
    beta_value: float
    basis_dims: tuple[int, int]  # (symmetric, cyclic)
    eigenvalues: tuple[tuple[float, int, float], ...]  # (lambda, multiplicity, residual)
    matched_levels: dict = field(default_factory=dict)
    momentum: float = 0.0
    n_spurious: int = 0
    n_ambiguous: int = 0

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "beta": self.beta_value,
            "dim_symmetric": self.basis_dims[0],
            "dim_cyclic": self.basis_dims[1],
            "eigenvalues": [
                {"value": v, "multiplicity": m, "residual": r} for v, m, r in self.eigenvalues
            ],
            "matched_levels": self.matched_levels,
            "momentum_reduced": self.momentum,
            "spurious_pairs": self.n_spurious,
            "ambiguous_pairs": self.n_ambiguous,
        }


def spectrum_report(
    op: H1Operator, degree: int, beta_value: float, tol: float = CERT_TOL
) -> SpectrumReport:
    block = build_pencil(op, degree)
    sol = solve_pencil(block, beta_value, tol)
    # group certified values
    grouped: list[list[EigenPair]] = []
    for pr in sol.certified:
        if grouped and abs(pr.value - grouped[-1][0].value) < 1e-7 * (1 + abs(pr.value)):
            grouped[-1].append(pr)
        else:
            grouped.append([pr])
    eigenvalues = tuple(
        (float(g[0].value.real), len(g), max(pr.residual for pr in g)) for g in grouped
    )
    levels = closed_form_levels(op.params, beta_value)
    matched = {}
    for name, val in levels.items():
        hits = [ev for ev, _, _ in eigenvalues if abs(ev - val) < 1e-8 * (1 + abs(val))]
        if hits:
            matched[name] = hits[0]
    return SpectrumReport(
        degree=degree,
        beta_value=beta_value,
        basis_dims=(block.dim_sym, block.dim_cyc),
        eigenvalues=eigenvalues,
        matched_levels=matched,
        momentum=float(degree) * 2.0 * np.pi / op.params.length,
        n_spurious=len(sol.spurious),
        n_ambiguous=len(sol.ambiguous),
    )


@dataclass(frozen=True)
class ParityResult:
    partner: LaurentPoly
    lam: Fraction
    lam_partner: Fraction
    boost_q: int
    self_paired: bool  # partner proportional to the input: non-degenerate


def parity_partner(op: H1Operator, p: LaurentPoly, beta) -> ParityResult:
    """Image of an exact eigenvector under z -> 1/z, certified as an
    eigenvector with the same eigenvalue; also reports the boost exponent
    that returns it to non-negative powers and whether the state maps to
    itself (non-degenerate at momentum 0)."""
    lam = exact_eigencheck(op, p, beta)
    mirrored = p.invert_vars()
    lam_mirror = exact_eigencheck(op, mirrored, beta)
    if lam_mirror != lam:
        raise PencilError("parity image changed the eigenvalue")
    q = max(0, -mirrored.min_exponent())
    partner = mirrored.shift_all(q)
    self_paired = _proportional(mirrored, p)
    return ParityResult(
        partner=partner, lam=lam, lam_partner=lam_mirror, boost_q=q, self_paired=self_paired
    )


def _proportional(p: LaurentPoly, q: LaurentPoly) -> bool:
    if set(p.terms) != set(q.terms):
        return False
    exps = next(iter(p.terms))
    ratio = p.terms[exps] / q.terms[exps]
    return p == q.scale(ratio)


@dataclass(frozen=True)
class BoostCheck:
    q: int
    degree: int
    lam_base: Fraction
    lam_boosted: Fraction
    shift: Fraction
    shift_operator_form: Fraction  # 2 q d + N q^2
    shift_quadratic_form: Fraction  # 2 N q d + (N q)^2
    matches: str  # 'operator', 'quadratic', 'both', 'neither'


def boost_shift_check(op: H1Operator, p: LaurentPoly, q: int, beta) -> BoostCheck:
    """Certify (prod z)^q * p as an eigenvector and report the measured
    eigenvalue shift against the two candidate closed forms."""
    n = op.params.n
    d = p.degree()
    if d is None:
        raise ValueError("input must be homogeneous")
    lam = exact_eigencheck(op, p, beta)
    boosted = p.shift_all(q)
    lam_b = exact_eigencheck(op, boosted, beta)
    shift = lam_b - lam
    op_form = Fraction(2 * q * d + n * q * q)
    quad_form = Fraction(2 * n * q * d + (n * q) ** 2)
    if shift == op_form and shift == quad_form:
        matches = "both"
    elif shift == op_form:
        matches = "operator"
    elif shift == quad_form:
        matches = "quadratic"
    else:
        matches = "neither"
    return BoostCheck(
        q=q,
        degree=d,
        lam_base=lam,
        lam_boosted=lam_b,
        shift=shift,
        shift_operator_form=op_form,
        shift_quadratic_form=quad_form,
        matches=matches,
    )
