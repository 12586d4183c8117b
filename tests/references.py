"""Reference helpers shared by the tests; the package itself needs none of them."""

from collections import Counter
from typing import Iterator

from tcsm.model import ParameterDomainError
from tcsm.polyalg import SYMMETRIC, LaurentPoly, basis, necklaces
from tcsm.spectral import H1Operator, PencilBlock


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
        degree=degree, sym_basis=sym, dim_cyc=sum(keys.values()), rows=tuple(map(tuple, rows))
    )
