"""Reference helpers shared by the tests; the package itself needs neither."""

from tcsm.polyalg import LaurentPoly


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
