"""Reference helpers shared by the tests; the package itself needs none of them."""

import math
from collections import Counter
from typing import Iterator

import numpy as np

from tcsm.dual_paths import Dual2, _chain, dlog
from tcsm.model import ParameterDomainError, interaction_pairs
from tcsm.polyalg import SYMMETRIC, LaurentPoly, basis, necklaces
from tcsm.spectral import H1Operator, PencilBlock, PencilRows, solve_pencil
from tcsm.wavefunction import (
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


def apply_D(p: LaurentPoly, j: int) -> LaurentPoly:
    """Euler operator D_j = z_j d/dz_j: multiply each term by its j-th exponent."""
    return LaurentPoly(p.nvars, {e: c * e[j] for e, c in p.terms.items()})


def cyclic_distance(a: int, b: int, n: int) -> int:
    """Cyclic index distance min(|a-b|, n-|a-b|) for 0-based site indices."""
    d = abs(a - b) % n
    return min(d, n - d)


def sorted_set_interaction_pairs(params) -> list[tuple[int, int]]:
    """Interacting pairs (a, b), a < b, gathered into a set over every site
    and distance 1..r_eff and then sorted: the reference for
    `model.interaction_pairs`, which emits them in order."""
    n, r_eff = params.n, params.r_eff
    seen = set()
    for d in range(1, r_eff + 1):
        for j in range(n):
            a, b = j, (j + d) % n
            seen.add((min(a, b), max(a, b)))
    return sorted(seen)


def _distinct_permutations(counts: dict[int, int], length: int) -> Iterator[tuple[int, ...]]:
    if length == 0:
        yield ()
        return
    for v in list(counts):
        if counts[v]:
            counts[v] -= 1
            for tail in _distinct_permutations(counts, length - 1):
                yield (v,) + tail
            counts[v] += 1


def arrangements(partition: tuple[int, ...], nvars: int) -> Iterator[tuple[int, ...]]:
    """Distinct arrangements of the zero-padded partition, lex descending, by
    recursion over the remaining counts: the reference for the necklace
    walk, whose rotations give `polyalg.monomial_symmetric`."""
    counts: dict[int, int] = {}
    for v in list(partition) + [0] * (nvars - len(partition)):
        counts[v] = counts.get(v, 0) + 1
    return _distinct_permutations(counts, nvars)


def _split_run(lam: tuple[int, ...], low: int, high: int, index: dict) -> list[tuple[int, int]]:
    """(column, weight) of each split of a pair (low, high) in partition lam;
    lam and the partitions that index maps are padded with zeros to N parts."""
    rest = list(lam)
    rest.remove(low)
    rest.remove(high)
    total = low + high
    return [
        (index[tuple(sorted(rest + [total - lo, lo], reverse=True))],
         (total - 2 * lo) * (1 if lo == low else 2))
        for lo in range(low + 1)
        if 2 * lo != total
    ]


def sorted_key_build_pencil(op: H1Operator, degree: int) -> PencilBlock:
    """The reference for `spectral.build_pencil`, which carries packed rows
    along the necklace walk: here each necklace is keyed by its partition and
    the sorted codes of its N r_eff pair values, and each distinct key's row
    is built from its codes' split runs.  A row depends only on the partition
    and the multiset of pair values {rho_a, rho_b}, so each distinct key is
    counted, and its row built once.
    """
    if degree < 1:
        raise ParameterDomainError("degree must be >= 1")
    n, pairs, width = op.params.n, op.drift_pairs, degree + 1
    sym = basis(SYMMETRIC, n, degree)
    padded = [lam + (0,) * (n - len(lam)) for lam in sym.labels]  # N parts each
    index = {lam: j for j, lam in enumerate(padded)}
    # an unordered pair of values {x, y}, x <= y, as the one int x * width + y
    code = [[min(x, y) * width + max(x, y) for y in range(width)] for x in range(width)]
    keys = Counter(
        (k, tuple(sorted([code[rho[a]][rho[b]] for a, b in pairs])))
        for k, lam in enumerate(sym.labels)
        for rho in necklaces(lam, n)
    )
    runs: dict[tuple[int, int], list[tuple[int, int]]] = {}
    rows: list[list[tuple[dict[int, int], int]]] = [[] for _ in sym.labels]
    for (k, codes), count in keys.items():
        row: dict[int, int] = {}
        for c in codes:
            run = runs.get((k, c))
            if run is None:
                run = runs[k, c] = _split_run(padded[k], *divmod(c, width), index)
            for j, w in run:
                row[j] = row.get(j, 0) + w
        rows[k].append((row, count))
    return PencilBlock(
        degree=degree, sym_basis=sym, dim_cyc=sum(keys.values()), rows=PencilRows(rows)
    )


def eager_spectrum(block: PencilBlock, beta) -> tuple:
    """(eigenvalues, basis_dims, n_spurious) of a `spectral.spectrum_report`,
    from the full solve of every row of the block: the reference for the
    report, which reads rows only where its solve needs them and counts the
    spurious values as dim_symmetric less the certified vectors."""
    sol = solve_pencil(block, beta)
    eigenvalues = tuple(Counter(pr.value for pr in sol.certified).items())
    return eigenvalues, (block.dim_sym, block.dim_cyc), len(sol.spurious)


def _libm_dsin(x):
    d = Dual2.lift(x)
    s = np.sin(d.v)
    return _chain(d, s, np.cos(d.v), -s)


def _wrapped_log_pair_term(params, xa, xb):
    diff = xa - xb
    # shifting by a constant leaves derivatives untouched
    theta = Dual2(diff.v % params.length, diff.d1, diff.d2) * (math.pi / params.length)
    return params.beta * dlog(_libm_dsin(theta))


def per_coordinate_dual_grad_and_second_log_psi0(params, x: np.ndarray):
    """(d/dx_m log psi0, d^2/dx_m^2 log psi0), each shape (..., N), seeding
    one coordinate at a time: the reference for
    `dual_paths.dual_grad_and_second_log_psi0`, which seeds each pair once
    per cyclic distance.  Here every pair is evaluated at both of its ends,
    from the difference wrapped into [0, L) and with libm sin and cos."""
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
            total = total + _wrapped_log_pair_term(params, xa, xb)
        grad[..., m] = total.d1
        second[..., m] = total.d2
    return grad, second


def dexp(x):
    d = Dual2.lift(x)
    e = np.exp(d.v)
    return _chain(d, e, e, e)


def _phi_generic(spec: StateSpec, params, zs: list):
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


def dual_phi_eval(spec: StateSpec, params, x: np.ndarray):
    """(phi, d phi/dx_m, d^2 phi/dx_m^2), derivative arrays shaped (..., N):
    the dual-number reference for `wavefunction.phi_eval_batch`, seeding one
    coordinate at a time."""
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
