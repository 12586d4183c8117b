"""Reference helpers shared by the tests; the package itself needs neither."""

from tcsm.polyalg import LaurentPoly


def apply_D(p: LaurentPoly, j: int) -> LaurentPoly:
    """Euler operator D_j = z_j d/dz_j: multiply each term by its j-th exponent."""
    return LaurentPoly(p.nvars, {e: c * e[j] for e, c in p.terms.items()})


def cyclic_distance(a: int, b: int, n: int) -> int:
    """Cyclic index distance min(|a-b|, n-|a-b|) for 0-based site indices."""
    d = abs(a - b) % n
    return min(d, n - d)
