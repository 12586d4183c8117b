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
`build_pencil` stores each partition's distinct sparse integer A1 rows with
their necklace counts, each packed into one int along the necklace walk.
Each block is triangular in dominance order, so `solve_pencil` solves it
exactly, with no threshold.  `_apply_ints` applies the operator to one
polynomial in integers, at one packed code per orbit of the rotations that
fix both p and the pair set.  The exact eigen, parity and boost checks
compare that image with p on the representatives, by cross-multiplication.
`apply_H1` is its Fraction view, as a LaurentPoly; the generic Laurent ring
operations and `polyalg.exact_divide` are its reference in the tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, repeat
from math import gcd, lcm, pi
from operator import itemgetter, mul

from .model import ModelParams, ParameterDomainError, closed_form_levels, interaction_pairs
from .polyalg import (
    SYMMETRIC,
    BasisSet,
    DivisionError,
    LaurentPoly,
    _necklace_walk,
    basis,
    partition_count,
)


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
    """Apply the transformed operator exactly, at a given beta: the Fraction
    view of `_apply_ints`, each representative spread over its orbit.

    For beta != 0, divisibility by (z_a - z_b) is checked, not assumed
    (DivisionError otherwise).  It holds exactly when, in every group of
    terms c_k z_a^k z_b^(s-k) sharing s and the other exponents,
    sum_k (2k - s) c_k = 0; a<->b exchange symmetry is sufficient, not
    necessary.
    """
    _, _, image, scale, orbit = _apply_ints(op, p, beta)
    return LaurentPoly(
        p.nvars,
        {e: Fraction(v, scale) for code, v in image.items() for e in orbit(code)},
    )


def _apply_ints(op: H1Operator, p: LaurentPoly, beta):
    """The operator on p in integers, on orbit representatives:
    (codes, ints, image, scale, orbit).

    G = <R^g> is the group of rotations that fix both p and the drift pairs
    (see `_rotations`).  H1 commutes with G, so p's image is G-invariant
    too, and one code per G-orbit gives it.  p is scaled once to integer
    coefficients over one denominator den, and each exponent vector is
    packed into one int: digit j is e_j - lo in base 2 (span + 1), lo and
    span the least exponent of p and the range of its exponents.  Only a
    representative is packed; R^g moves each digit g places, in two integer
    operations, and gives the rest of its orbit.  `codes` and `ints` are
    p's representatives, the first term of each orbit in p's term order,
    and their integer coefficients.  `image` maps the representative of
    each orbit the image meets to its nonzero coefficient times `scale`,
    where scale = den * beta.denominator; `orbit` turns a representative
    into the exponent vectors of its orbit.

    The diagonal sum_j D_j^2 is read at each representative.  For each
    orbit O of G on the pairs, `_drift` gives the quotient of O's first pair
    P on all of p, and O's drift at a code c is |O| S(c) / |orbit(c)|, S(c)
    the sum of P's quotient over c's orbit: a rotation h carries P's
    quotient at h^-1 c to hP's quotient at c, and the sum over G counts
    each pair of O |G| / |O| times and each code of c's orbit
    |G| / |orbit(c)| times, so the division is exact.  With g = N the group
    is trivial: each orbit is one code and each pair its own orbit.
    """
    n = op.params.n
    if p.nvars != n:
        raise ValueError("variable count mismatch")
    if not p:
        return [], [], {}, 1, None
    beta = Fraction(beta)
    g, orbits, pair_orbits = _rotations(n, op.drift_pairs, p.terms)
    reps = [members[0] for members in orbits]
    coeffs = [p.terms[e] for e in reps]
    den = lcm(*(c.denominator for c in coeffs))
    rep_ints = [c.numerator * (den // c.denominator) for c in coeffs]
    lo = min(map(min, reps))
    # base > 2 span, the range of s = e_a + e_b, so that no two of `_drift`'s
    # groups share a key
    base = 2 * (max(map(max, reps)) - lo + 1)
    place = list(accumulate(repeat(base, n - 1), mul, initial=1))  # base**j
    offset = lo * sum(place)
    low, high = base ** (n - g), base**g
    rep: dict[int, int] = {}  # code -> the representative of its orbit
    size: dict[int, int] = {}  # representative -> its orbit's size

    def enter(code):
        """The codes of code's orbit, in the order R^g visits them."""
        members, moved = [code], code % low * high + code // low
        while moved != code:
            members.append(moved)
            moved = moved % low * high + moved // low
        rep.update(dict.fromkeys(members, code))
        size[code] = len(members)
        return members

    q = beta.denominator
    image: dict[int, int] = {}
    rep_codes, exps, codes, ints = [], [], [], []  # the last three term by term
    for members, e, c in zip(orbits, reps, rep_ints):
        code = sum(map(mul, e, place)) - offset
        rep_codes.append(code)
        image[code] = q * c * sum(map(mul, e, e))
        exps += members
        codes += enter(code)
        ints += [c] * len(members)
    if beta:
        for a, b, weight in pair_orbits:
            sums: dict[int, int] = {}
            for code, v in _drift(a, b, exps, codes, ints, place).items():
                r = rep.get(code)
                if r is None:
                    r = code
                    enter(code)
                sums[r] = sums.get(r, 0) + v
            for r, s in sums.items():
                image[r] = image.get(r, 0) + beta.numerator * (weight * s // size[r])
    image = {code: v for code, v in image.items() if v}

    def orbit(code):
        return _orbit(_unpack(code, n, base, lo), g)

    return rep_codes, rep_ints, image, den * q, orbit


def _unpack(code: int, n: int, base: int, lo: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        code, d = divmod(code, base)
        digits.append(d + lo)
    return tuple(digits)


def _rotations(n: int, pairs, terms: dict):
    """(g, orbits, pair_orbits) for the rotation group G = <R^g> of p.

    g is the least divisor of N for which R^g, which moves exponent j to
    j + g mod N, fixes both the drift pairs and p's terms (coefficients
    compared as integer ratios); g = N always does.  `orbits` lists p's
    terms orbit by orbit, each orbit's first term in p's term order and then
    its images under R^g, R^2g, ... (see `_pair_orbits` for the pairs).
    """
    pairs = tuple(map(tuple, pairs))  # hashable, for `_pair_orbits`'s cache
    for g in range(1, n + 1):
        if n % g:
            continue
        pair_orbits = _pair_orbits(pairs, n, g)
        if pair_orbits is None:
            continue
        orbits, left = [], dict(terms)
        for e, c in terms.items():
            if e not in left:
                continue
            members = _orbit(e, g)
            ratio = c.as_integer_ratio()
            if any(left.pop(f, 0).as_integer_ratio() != ratio for f in members):
                break
            orbits.append(members)
        else:
            return g, orbits, pair_orbits
    raise AssertionError("R^N is the identity")


def _orbit(e: tuple[int, ...], g: int) -> list[tuple[int, ...]]:
    """e and its distinct images under R^g, R^2g, ..., in that order."""
    members, f = [e], e[-g:] + e[:-g]
    while f != e:
        members.append(f)
        f = f[-g:] + f[:-g]
    return members


@lru_cache(maxsize=64)
def _pair_orbits(pairs: tuple[tuple[int, int], ...], n: int, g: int):
    """(a, b, weight) for each orbit of R^g on the multiset of unordered
    pairs, (a, b) its first pair and weight the number of pairs in it; None
    when R^g does not fix the multiset."""

    def moved(pair, k):
        a, b = (pair[0] + k) % n, (pair[1] + k) % n
        return (a, b) if a < b else (b, a)

    count = Counter(moved(pair, 0) for pair in pairs)
    if any(count[moved(pair, g)] != m for pair, m in count.items()):
        return None
    orbits = []
    for pair in list(count):
        if pair in count:
            members = {moved(pair, k) for k in range(0, n, g)}
            orbits.append((*pair, sum(count.pop(m) for m in members)))
    return tuple(orbits)


def _drift(a: int, b: int, exps, codes, ints, place) -> dict[int, int]:
    """(z_a + z_b)(D_a - D_b)p / (z_a - z_b) for one pair (a, b), by code.

    The terms of p sharing the other exponents and s = e_a + e_b form a
    group sum_k c_k z_a^k z_b^(s-k).  With M_k = (2k - s) c_k and
    w = z_a/z_b the group's quotient is z_b^s (w + 1) M(w) / (w - 1): it
    exists exactly when sum_k M_k = 0, and its z_a^k z_b^(s-k) coefficient
    is M_k + 2 sum_{k' > k} M_k', a suffix sum, from the group's largest k
    down to its least.  code - e_a (B^a - B^b) depends only on s and the
    other exponents, so it names the group, and adding k (B^a - B^b) to it
    gives the code of z_a^k z_b^(s-k), whose two digits stay in range.
    Only the pair's two exponent columns are read.
    """
    drift: dict[int, int] = {}
    step = place[a] - place[b]
    groups: dict[int, list[tuple[int, int]]] = {}
    for ea, eb, code, c in zip(map(itemgetter(a), exps), map(itemgetter(b), exps), codes, ints):
        if ea != eb:
            groups.setdefault(code - ea * step, []).append((ea, (ea - eb) * c))
    for origin, members in groups.items():
        members.sort(reverse=True)
        above = 0  # sum of M_k' over k' > k
        top = members[0][0] + 1
        for k, m in members:
            for j in range(k + 1, top):  # no term of p: M_j = 0
                code = origin + j * step
                drift[code] = drift.get(code, 0) + 2 * above
            code = origin + k * step
            drift[code] = drift.get(code, 0) + m + 2 * above
            above += m
            top = k
        if above:  # sum_k M_k
            raise DivisionError(f"polynomial not divisible by (z_a - z_b) for pair ({a}, {b})")
    return drift


def exact_eigencheck(op: H1Operator, p: LaurentPoly, beta) -> Fraction:
    """Return lambda with apply_H1(p) == lambda * p exactly, else raise.

    The check runs on `_apply_ints`'s packed integers, never on Fractions,
    and on one code per orbit of the rotations that fix p and the pairs:
    p and its image are both invariant under them, so each ratio and each
    code outside p's support shows at a representative.  With v0 and i0 the
    image and p coefficients at p's first code, image[c] * i0 == v0 * ints[c]
    must hold at every representative c of p, and the image may have no
    representative outside p's.  lambda = 0 (v0 = 0) is certified exactly
    when the image is empty.
    """
    if not p:
        raise ValueError("zero polynomial")
    codes, ints, image, scale, _ = _apply_ints(op, p, beta)
    i0, v0 = ints[0], image.get(codes[0], 0)
    # once every ratio holds, v0 != 0 puts all of p's codes in the image, and
    # v0 == 0 leaves none of them there: the sizes then show any code outside
    if len(image) != (len(codes) if v0 else 0) or any(
        image.get(c, 0) * i0 != v0 * x for c, x in zip(codes, ints)
    ):
        raise PencilError("polynomial is not an exact eigenvector")
    coeff = next(iter(p.terms.values()))
    return Fraction(v0 * coeff.denominator, scale * coeff.numerator)


@dataclass(frozen=True)
class PencilBlock:
    """Exact degree-d block: A = A0 + beta*A1 maps symmetric coordinates into
    the cyclic-invariant basis of `dim_cyc` necklaces; E is the embedding.
    A necklace's row of E (of A0) is 1 (sum_j lambda_j^2) at its partition
    and 0 elsewhere; `rows[k]` holds partition k's distinct integer A1 rows,
    as column -> value, each with its number of necklaces.

    Each entry lies in 1..2dP, P the number of drift pairs: a pair's run
    meets a column at most once, with weight in 1..2 (rho_a + rho_b) <= 2d.
    So a row packs into one int, column j in bits [Bj, Bj + B), 2^B > 2dP,
    and sums of packed runs never carry: equal sums mean equal rows."""

    degree: int
    sym_basis: BasisSet
    dim_cyc: int
    rows: tuple[tuple[tuple[dict[int, int], int], ...], ...]

    @property
    def dim_sym(self) -> int:
        return len(self.sym_basis)


def _split_run(lam: tuple[int, ...], low: int, high: int, index: dict, bits: int) -> int:
    """The packed run of a pair (low, high) in lam; lam and the partitions
    that index maps are padded with zeros to N parts."""
    rest = list(lam)
    rest.remove(low)
    rest.remove(high)
    total = low + high
    return sum(
        (total - 2 * lo) * (1 if lo == low else 2)
        << bits * index[tuple(sorted(rest + [total - lo, lo], reverse=True))]
        for lo in range(low + 1)
        if 2 * lo != total
    )


def build_pencil(op: H1Operator, degree: int) -> PencilBlock:
    """Degree-d block read off each partition's necklaces, in integers.

    For m > n the drift of pair (a, b) maps z_a^m z_b^n + z_a^n z_b^m to
    (m - n) times
        z_a^m z_b^n + 2 sum_{k=1}^{m-n-1} z_a^{m-k} z_b^{n+k} + z_a^n z_b^m.
    So row rho of A1 gains (m - n) * w for every split m + n = rho_a + rho_b
    with n <= min(rho_a, rho_b), where w is 1 at the ends of the run
    (n = min(rho_a, rho_b)) and 2 inside it; the column is the partition of
    rho with (rho_a, rho_b) replaced by (m, n).  That run depends only on
    rho's partition and the pair's two values; it is packed into one int (see
    `PencilBlock`).  Along `_necklace_walk` a row is the prefix sum over the
    positions b of the runs of the pairs (a < b, b) ending there, recomputed
    only from the necklace's first change on.  Each distinct row is counted
    and unpacked once.  Each symmetric element is a sum of flat cyclic orbit
    sums, so E and A0 follow from each necklace's partition.
    """
    if degree < 1:
        raise ParameterDomainError("degree must be >= 1")
    n, width = op.params.n, degree + 1
    sym = basis(SYMMETRIC, n, degree)
    padded = [lam + (0,) * (n - len(lam)) for lam in sym.labels]  # N parts each
    index = {lam: j for j, lam in enumerate(padded)}
    bits = (2 * degree * len(op.drift_pairs)).bit_length()  # B
    mask = (1 << bits) - 1
    ending = [[] for _ in range(n)]  # ending[b]: each pair's a < b
    for a, b in op.drift_pairs:
        ending[max(a, b)].append(min(a, b))
    acc = [0] * (n + 1)  # acc[b]: runs of the pairs ending before b
    rows = []
    for lam in padded:
        # run[x][y]: the packed run of a pair of values x, y in lam
        run = [[0] * width for _ in range(width)]
        for x, y in combinations_with_replacement(sorted(set(lam)), 2):
            if x < y or lam.count(x) > 1:
                run[x][y] = run[y][x] = _split_run(lam, x, y, index, bits)
        sums = {}  # packed row -> its necklaces
        for t, word in _necklace_walk(lam, n):
            s = acc[t]
            for b in range(t, n):
                at_b = run[word[b]]
                for a in ending[b]:
                    s += at_b[word[a]]
                acc[b + 1] = s
            sums[s] = sums.get(s, 0) + 1
        unpacked = []
        for packed, m in sums.items():
            row, j = {}, 0
            while packed:
                if packed & mask:
                    row[j] = packed & mask
                packed >>= bits
                j += 1
            unpacked.append((row, m))
        rows.append(tuple(unpacked))
    dim_cyc = sum(m for stored in rows for _, m in stored)
    return PencilBlock(degree=degree, sym_basis=sym, dim_cyc=dim_cyc, rows=tuple(rows))


@dataclass(frozen=True)
class EigenPair:
    value: Fraction
    vector: tuple[Fraction, ...]  # symmetric-basis coordinates, first nonzero one 1


@dataclass(frozen=True)
class PencilSolution:
    certified: tuple[EigenPair, ...]  # one pair per eigenspace basis vector
    spurious: tuple[Fraction, ...]  # eigenvalues of E^+ A that are not pencil levels
    ambiguous: tuple = ()  # always empty: no threshold is left to leave a pair undecided


def solve_pencil(block: PencilBlock, beta_value) -> PencilSolution:
    """Every level of (A0 + beta A1) v = lambda E v, with its eigenspace, exactly.

    A split moves a pair's exponents apart, so a row of partition k reaches
    only partitions dominating it, at or before k in reverse lex order.  So
    an eigenvector's first nonzero coordinate k fixes
    lambda = D_k + beta A1[rho, k] on every row rho of k: the partitions
    whose rows agree there (heads) give every level.  From a level's first
    head, each partition in turn adds its coordinate to the span of
    solutions, and each of its rows that does not vanish there cuts it by
    one dimension; beta = p/q and each row is scaled by q, in integers.
    """
    beta = Fraction(beta_value)
    p, q = beta.numerator, beta.denominator
    diag = [sum(x * x for x in lam) for lam in block.sym_basis.labels]
    heads: dict[int, list[int]] = {}  # q * level -> its heads
    for k, rows in enumerate(block.rows):
        if len({p * row.get(k, 0) for row, _ in rows}) == 1:
            heads.setdefault(q * diag[k] + p * rows[0][0].get(k, 0), []).append(k)
    certified = []
    for level, ks in sorted(heads.items()):
        for v in _eigenspace(block.rows, diag, p, q, level, ks):
            lead = next(c for c in v if c)
            certified.append(EigenPair(Fraction(level, q), tuple(Fraction(c, lead) for c in v)))
    # E^+ A averages each partition's rows over its necklaces, so it is lower
    # triangular too, with diagonal D_k + beta (sum count A1[rho, k]) / (sum count)
    size = [sum(m for _, m in rows) for rows in block.rows]
    own = [sum(m * row.get(k, 0) for row, m in rows) for k, rows in enumerate(block.rows)]
    square = Counter(Fraction(q * d * m + p * a, q * m) for d, m, a in zip(diag, size, own))
    square.subtract(pr.value for pr in certified)
    return PencilSolution(certified=tuple(certified), spurious=tuple(sorted(square.elements())))


def _eigenspace(rows, diag, p: int, q: int, level: int, heads: list[int]) -> list[list[int]]:
    """Integer basis of the eigenspace at lambda = level / q.  Once the span
    is empty, only a later head of the level can start it again."""
    dim = len(diag)
    span: list[list[int]] = []
    for k in range(heads[0], dim):
        if not span and k > heads[-1]:
            break
        span.append([int(j == k) for j in range(dim)])
        shift = q * diag[k] - level
        for row, _ in rows[k]:
            values = [shift * v[k] + p * sum(a * v[j] for j, a in row.items()) for v in span]
            cut = max((t for t, x in enumerate(values) if x), default=None)
            if cut is not None:
                x, pv = values.pop(cut), span.pop(cut)
                span = [_primitive([x * c - y * d for c, d in zip(v, pv)]) if y else v
                        for v, y in zip(span, values)]
    return span


def _primitive(v: list[int]) -> list[int]:
    g = gcd(*v)
    return v if g in (0, 1) else [c // g for c in v]


# The most partitions (dim_symmetric) `spectrum_report` takes in one block.
# The solve is dense and grows about as their cube: on a 2-vCPU Xeon it took
# 24 s for the 631 of (3,1,84), where every pair interacts; (20,10,20) has 627.
SPECTRUM_MAX_DIM = 640


@dataclass(frozen=True)
class SpectrumReport:
    degree: int
    beta_value: float
    basis_dims: tuple[int, int]  # (symmetric, cyclic)
    eigenvalues: tuple[tuple[Fraction, int], ...]  # (lambda, multiplicity), ascending
    matched_levels: dict = field(default_factory=dict)  # level name -> lambda
    momentum: float = 0.0
    n_spurious: int = 0

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "beta": self.beta_value,
            "dim_symmetric": self.basis_dims[0],
            "dim_cyclic": self.basis_dims[1],
            "eigenvalues": [
                {"value": float(v), "multiplicity": m} for v, m in self.eigenvalues
            ],
            "matched_levels": {name: float(v) for name, v in self.matched_levels.items()},
            "momentum_reduced": self.momentum,
            "spurious_pairs": self.n_spurious,
            "ambiguous_pairs": 0,  # no threshold is left to leave a pair undecided
        }


def spectrum_report(op: H1Operator, degree: int, beta_value: float) -> SpectrumReport:
    """The levels of one degree block, if it has at most SPECTRUM_MAX_DIM partitions."""
    n = op.params.n
    if partition_count(degree, n, SPECTRUM_MAX_DIM) > SPECTRUM_MAX_DIM:
        raise ParameterDomainError(
            f"the degree-{degree} block at N={n} has dim_symmetric above {SPECTRUM_MAX_DIM}, "
            f"the limit of an exact solve"
        )
    block = build_pencil(op, degree)
    sol = solve_pencil(block, beta_value)
    counts = Counter(pr.value for pr in sol.certified)
    levels = closed_form_levels(op.params, Fraction(beta_value))
    return SpectrumReport(
        degree=degree,
        beta_value=beta_value,
        basis_dims=(block.dim_sym, block.dim_cyc),
        eigenvalues=tuple(counts.items()),
        matched_levels={name: val for name, val in levels.items() if val in counts},
        momentum=float(degree) * 2.0 * pi / op.params.length,
        n_spurious=len(sol.spurious),
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
    # the mirror is an involution, so a multiple c p of p it gives has c^2 = 1,
    # and +-p is certified by p's own check
    self_paired = mirrored == p or mirrored == -p
    lam_mirror = lam if self_paired else exact_eigencheck(op, mirrored, beta)
    if lam_mirror != lam:
        raise PencilError("parity image changed the eigenvalue")
    q = max(0, -mirrored.min_exponent())
    partner = mirrored.shift_all(q)
    return ParityResult(
        partner=partner, lam=lam, lam_partner=lam_mirror, boost_q=q, self_paired=self_paired
    )


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
