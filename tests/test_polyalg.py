from collections import Counter
from fractions import Fraction
from itertools import combinations, groupby, permutations
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcsm.polyalg import (
    CYCLIC,
    SYMMETRIC,
    DivisionError,
    LaurentPoly,
    _necklace_walk,
    basis,
    elementary_symmetric,
    exact_divide,
    monomial_symmetric,
    necklaces,
    partition_count,
    partitions,
    power_sum,
    project,
)

from references import apply_D, arrangements

NV = 3


def z(j, power=1):
    return LaurentPoly.variable(NV, j, power)


def const(v):
    return LaurentPoly.constant(NV, v)


# -- hypothesis strategies -------------------------------------------------

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
exponents = st.tuples(*[st.integers(min_value=-3, max_value=3)] * NV)


@st.composite
def polys(draw, max_terms=5):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        terms[draw(exponents)] = draw(coeffs)
    return LaurentPoly(NV, terms)


@st.composite
def homogeneous_polys(draw, max_terms=4):
    d = draw(st.integers(min_value=-2, max_value=4))
    n_terms = draw(st.integers(min_value=1, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        e2 = draw(st.integers(min_value=-3, max_value=3))
        e3 = draw(st.integers(min_value=-3, max_value=3))
        terms[(d - e2 - e3, e2, e3)] = draw(coeffs)
    return LaurentPoly(NV, terms)


# -- basic arithmetic ------------------------------------------------------

def test_difference_of_squares():
    assert (z(0) + z(1)) * (z(0) - z(1)) == z(0, 2) - z(1, 2)


def test_zero_terms_pruned():
    p = z(0) + z(0).scale(-1)
    assert not p
    assert p.canonical() == "0"


@pytest.mark.parametrize("exps", [(1, 2), (1, 2, 3, 4), ()])
def test_monomial_rejects_wrong_exponent_count(exps):
    with pytest.raises(ValueError, match="3 exponents"):
        LaurentPoly.monomial(NV, exps)


def test_e2_e1_matches_brute_expansion():
    product = elementary_symmetric(2, 3) * elementary_symmetric(1, 3)
    brute = LaurentPoly.zero(3)
    for i, j in combinations(range(3), 2):
        for k in range(3):
            e = [0, 0, 0]
            e[i] += 1
            e[j] += 1
            e[k] += 1
            brute = brute + LaurentPoly.monomial(3, e)
    assert product == brute


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    # only the constructor drops zero coefficients, so no result that cancels
    # terms may store one: (p + q) - q cancels q's terms, (p + q)(p - q) the
    # cross terms, and project's residual each orbit's representative
    bs = basis(CYCLIC, NV, 2)
    _, residual = project(p + bs.elements[0], bs)
    for result in (p + q, p - q, p * q, (p + q) - q, (p + q) * (p - q), residual):
        assert all(result.terms.values())


@given(polys(), coeffs.filter(bool))
@settings(max_examples=60, deadline=None)
def test_term_bijections_match_comprehensions(p, c):
    # these skip the constructor's copy and zero filter, relying on p holding no zero
    def rebuilt(terms):
        return LaurentPoly(NV, terms)

    expected = [
        (p.invert_vars(), rebuilt({tuple(-x for x in e): v for e, v in p.terms.items()})),
        (-p, rebuilt({e: -v for e, v in p.terms.items()})),
        (p.scale(c), rebuilt({e: v * c for e, v in p.terms.items()})),
    ]
    expected += [
        (p.shift_all(q), rebuilt({tuple(x + q for x in e): v for e, v in p.terms.items()}))
        for q in range(-2, 3)
    ]
    for got, want in expected:
        assert got == want
        assert all(got.terms.values())
    assert p.scale(0) == LaurentPoly.zero(NV) and not p.scale(0).terms


# -- Euler operator --------------------------------------------------------

def test_apply_d_examples():
    p = LaurentPoly.monomial(NV, (3, 1, 0))
    assert apply_D(p, 0) == p.scale(3)
    prod_all = LaurentPoly.monomial(NV, (1, 1, 1))
    for j in range(NV):
        assert apply_D(prod_all, j) == prod_all


@given(homogeneous_polys())
@settings(max_examples=60, deadline=None)
def test_euler_identity(p):
    total = LaurentPoly.zero(NV)
    for j in range(NV):
        total = total + apply_D(p, j)
    assert total == p.scale(p.degree())


# -- exact division --------------------------------------------------------

def test_divide_examples():
    assert exact_divide(z(0, 2) - z(1, 2), 0, 1) == z(0) + z(1)
    e2 = elementary_symmetric(2, 3)
    moved = apply_D(e2, 0) - apply_D(e2, 1)
    q = exact_divide(moved, 0, 1)
    assert q * (z(0) - z(1)) == moved
    with pytest.raises(DivisionError):
        exact_divide(z(0) - z(2), 0, 1)


@given(polys())
@settings(max_examples=60, deadline=None)
def test_divide_multiply_roundtrip(p):
    d = z(0) - z(1)
    assert exact_divide(p * d, 0, 1) == p


@given(st.dictionaries(exponents, st.integers(-9, 9), max_size=5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_divide_integer_matches_fraction(terms, divisible):
    fracs = LaurentPoly(NV, {e: Fraction(c) for e, c in terms.items()})
    if divisible:
        fracs = fracs * (z(0) - z(1))
    ints = LaurentPoly(NV, {e: int(c) for e, c in fracs.terms.items()})
    try:
        want = exact_divide(fracs, 1, 0)
    except DivisionError:
        with pytest.raises(DivisionError):
            exact_divide(ints, 1, 0)
        return
    got = exact_divide(ints, 1, 0)
    assert got == want and want * (z(1) - z(0)) == fracs
    assert all(type(c) is int for c in got.terms.values())
    assert all(type(c) is Fraction for c in want.terms.values())


def test_laurent_division():
    p = power_sum(-1, NV)
    moved = apply_D(p, 0) - apply_D(p, 1)
    q = exact_divide(moved, 0, 1)
    assert q * (z(0) - z(1)) == moved


# -- elementary symmetric & Newton's identities ----------------------------

def test_elementary_symmetric_counts():
    assert elementary_symmetric(0, 4) == LaurentPoly.constant(4, 1)
    assert len(elementary_symmetric(2, 4).terms) == 6
    assert elementary_symmetric(5, 5) == LaurentPoly.monomial(5, (1,) * 5)
    with pytest.raises(ValueError):
        elementary_symmetric(5, 4)


@pytest.mark.parametrize("n", range(2, 9))
def test_newton_identities(n):
    # k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i, independent check of e_k
    for k in range(1, min(n, 8) + 1):
        lhs = elementary_symmetric(k, n).scale(k)
        rhs = LaurentPoly.zero(n)
        for i in range(1, k + 1):
            term = elementary_symmetric(k - i, n) * power_sum(i, n)
            rhs = rhs + (term if i % 2 == 1 else term.scale(-1))
        assert lhs == rhs


# -- bases and projection --------------------------------------------------

def test_partitions_come_in_reverse_lex_order():
    # `basis` takes this order as its symmetric labels without sorting
    for d in range(16):
        for n in range(1, 16):
            parts = list(partitions(d, n))
            assert parts == sorted(set(parts), reverse=True), (d, n)


def test_partition_count_matches_enumeration():
    for d in range(30):
        for n in range(6):
            total = sum(1 for _ in partitions(d, n))
            for cap in (1, 4, 50, 640):
                assert partition_count(d, n, cap) == min(total, cap + 1), (d, n, cap)
    # past the cap the count stops early, at any degree
    assert partition_count(3000, 3, 640) == 641
    assert partition_count(10**29, 6, 640) == 641
    assert partition_count(1280, 10**6, 640) == 641
    assert partition_count(20, 20, 640) == 627


def test_symmetric_basis_dims():
    assert len(basis(SYMMETRIC, 3, 2)) == 2  # partitions 2, 1+1
    assert len(basis(SYMMETRIC, 6, 6)) == 11
    assert len(basis(CYCLIC, 6, 1)) == 1


def compositions(d, parts):
    """Weak compositions of d into exactly `parts` non-negative parts."""
    if parts == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for tail in compositions(d - first, parts - 1):
            yield (first,) + tail


def cyclic_representative(exps):
    """Canonical representative of the cyclic rotation orbit (lexicographic max)."""
    return max(exps[i:] + exps[:i] for i in range(len(exps)))


def _phi(t):
    return sum(1 for k in range(1, t + 1) if gcd(k, t) == 1)


def necklace_count(n, d):
    """Burnside: (1/N) sum over t | gcd(N, d) of phi(t) C(N/t + d/t - 1, d/t)."""
    g = gcd(n, d)
    total = sum(_phi(t) * comb(n // t + d // t - 1, d // t) for t in range(1, g + 1) if g % t == 0)
    assert total % n == 0
    return total // n


@pytest.mark.parametrize("n", range(3, 10))
def test_cyclic_basis_counts_and_labels(n):
    for d in range(10):
        labels = basis(CYCLIC, n, d).labels
        assert len(labels) == necklace_count(n, d)
        assert set(labels) == {cyclic_representative(c) for c in compositions(d, n)}
        # grouped by partition, partitions in the symmetric basis's order
        parts = [tuple(sorted((x for x in e if x), reverse=True)) for e in labels]
        assert [lam for lam, _ in groupby(parts)] == list(basis(SYMMETRIC, n, d).labels)


def filtered_cyclic_labels(n, d):
    """The cyclic basis as an arrangement filter: each partition's distinct
    arrangements that start with its largest part, lex descending, kept when
    equal to their cyclic representative."""
    return [
        e
        for lam in sorted(partitions(d, n), reverse=True)
        for e in ((lam[:1] or (0,)) + tail for tail in arrangements(lam[1:], n - 1))
        if e == cyclic_representative(e)
    ]


@pytest.mark.parametrize("n", range(1, 10))
def test_cyclic_basis_matches_arrangement_filter(n):
    for d in range(11):
        assert list(basis(CYCLIC, n, d).labels) == filtered_cyclic_labels(n, d)


def fixed_content_count(partition, n):
    """Burnside with no enumeration: (1/N) sum over t | g of
    phi(t) (N/t)! / prod_i (m_i/t)!, where m_i are the multiplicities of the
    zero-padded partition and g is their gcd."""
    mults = list(Counter(partition + (0,) * (n - len(partition))).values())
    g = gcd(*mults)
    total = sum(
        _phi(t) * factorial(n // t) // prod(factorial(m // t) for m in mults)
        for t in range(1, g + 1)
        if g % t == 0
    )
    assert total % n == 0
    return total // n


@pytest.mark.parametrize("n, total", [(9, 2_704), (10, 9_252), (12, 112_720), (13, 400_024)])
def test_necklaces_match_burnside_count(n, total):
    counts = [fixed_content_count(lam, n) for lam in partitions(n, n)]
    assert sum(counts) == total
    assert [len(necklaces(lam, n)) for lam in partitions(n, n)] == counts


def test_necklaces_at_large_n():
    # the down-set of (2, 1^(N-2)) at degree N: the 0 at each offset from the 2
    n = 512
    got = necklaces((2,) + (1,) * (n - 2), n)
    assert len(got) == n - 1 == fixed_content_count((2,) + (1,) * (n - 2), n)
    assert got[0] == (2,) + (1,) * (n - 2) + (0,) and got[-1] == (2, 0) + (1,) * (n - 2)
    assert necklaces((1,) * n, n) == [(1,) * n]


def _walk_contents():
    """Every partition of d <= 8 at N <= 9, and contents with one value, such
    as (3, 3, 3) at N = 3, or periodic, such as (1, 1) at N = 4, whose
    necklace (1, 0, 1, 0) has period 2."""
    yield from ((lam, n) for n in range(1, 10) for d in range(9) for lam in partitions(d, n))
    yield from [((3, 3, 3), 3), ((1, 1), 4), ((2, 2, 2), 6), ((1,), 1), ((5,), 2), ((1, 1), 2)]


def test_necklace_walk_reports_first_change():
    # the words are `necklaces`, lex descending, every rotation class of the
    # content once; t is where each word first differs from the one before
    for lam, n in _walk_contents():
        walk = [(t, tuple(word)) for t, word in _necklace_walk(lam, n)]
        words = [word for _, word in walk]
        assert words == necklaces(lam, n)
        assert set(words) == {cyclic_representative(e) for e in arrangements(lam, n)}
        assert all(a > b for a, b in zip(words, words[1:]))  # strictly descending
        previous = None
        for t, word in walk:
            if previous is None:
                assert t == 0
            else:
                assert t == next(j for j, (x, y) in enumerate(zip(word, previous)) if x != y)
            previous = word


def test_monomial_symmetric_matches_arrangements():
    # the necklaces' rotations are every arrangement of the content, once
    for lam, n in _walk_contents():
        assert set(monomial_symmetric(lam, n).terms) == set(arrangements(lam, n))


def test_necklaces_reject_too_many_parts():
    with pytest.raises(ValueError):
        necklaces((1, 1, 1), 2)


def test_monomial_symmetric_is_symmetric():
    m = monomial_symmetric((2, 1), 4)
    for perm in permutations(range(4)):
        permuted = LaurentPoly(
            4, {tuple(e[p] for p in perm): c for e, c in m.terms.items()}
        )
        assert permuted == m


def test_cyclic_representative_orbit_stable():
    exps = (0, 2, 1)
    reps = {cyclic_representative(exps[i:] + exps[:i]) for i in range(3)}
    assert len(reps) == 1


def test_project_exact():
    b = basis(SYMMETRIC, 3, 2)
    p = elementary_symmetric(1, 3) * elementary_symmetric(1, 3)
    coords, residual = project(p, b)
    assert not residual
    rebuilt = LaurentPoly.zero(3)
    for c, el in zip(coords, b.elements):
        rebuilt = rebuilt + el.scale(c)
    assert rebuilt == p


def test_project_residual_conveys_nonmembership():
    b = basis(SYMMETRIC, 3, 1)
    p = z(0)  # not symmetric
    coords, residual = project(p, b)
    assert residual


def test_canonical_serialization_stable():
    p = z(1) + z(0).scale(2) + const(Fraction(1, 2))
    assert p.canonical() == "(1/2)*1 + (2)*z0^1 + (1)*z1^1"
