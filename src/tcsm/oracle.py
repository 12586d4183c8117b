"""Local-energy oracle: potential, (H psi)/psi, sampling, and verification.

The local energy at sampled configurations is the authoritative check for
every closed-form energy: a state is an eigenstate iff its local energy
is configuration-independent, and the constant is the eigenvalue.

The API is batch-only.  `sample_positions` returns positions of shape
(count, N); `local_energy_batch` takes them and returns the local energies
with a node mask, True where phi is too close to a node for the energy to
hold, and each energy's rounding scale.  One configuration is the batch
x[None, :].
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .model import (  # the verdicts and SamplingError live in `model`, which loads no numpy
    FAIL,
    NO_PREDICTION,
    PASS,
    ModelParams,
    ParameterDomainError,
    SamplingError,
    closed_form_levels,
    ground_energy_physical,
    triple_offsets,
)
from .wavefunction import (
    COINCIDENT_COT,
    COINCIDENT_SPAN,
    COS_SUM,
    E1,
    GROUND,
    SIN_SUM,
    StateSpec,
    _constant,
    _grad_log_psi0,
    _node_inverse,
    _phi_terms,
    _row_weights,
    _site_sum,
    _sites_first,
    _term_sums,
    _terms,
    _unboost,
    _z,
    csc2_by_site,
    grad_log_psi0,  # noqa: F401  re-exported: perfbench reads oracle.grad_log_psi0
    min_cyclic_separation,
    pair_cot,
    phi_moduli,
)

# True eigenstates stay within 13 eps M of their level over a million samples
# per state at N = 6 to 24; the published 30 at (9, 3) is 5e14 eps M away.
ROUNDING_C = 64.0
# Pair entries r_eff * N * width in one block of `local_energy_batch`: 2 MiB
# of distance rows, about one core's L2 cache.  The largest batch of the
# small-N checks, 4 * 12 * 5000 entries, still runs as one block.
BLOCK_ENTRIES = 2**18
# glibc's mallopt parameters and the values `_keep_freed_pages` sets
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD = 64 * 2**20
MMAP_THRESHOLD = 32 * 2**20


@functools.cache
def _keep_freed_pages() -> None:
    """Keep freed heap pages in the process, once, at the first draw or evaluation.

    glibc's dynamic thresholds return the heap top to the OS after each
    batch, so the next batch faults the same pages back in: about 900 per
    (12, 4, 5000) call.  Fixed thresholds (TRIM_THRESHOLD of free top kept,
    blocks below MMAP_THRESHOLD served from the heap) keep them.  Not at
    import: commands that never sample would pay in peak memory.  A no-op
    where the C library has no `mallopt`.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def _three_body_by_site(params: ModelParams, cot: np.ndarray) -> np.ndarray:
    """Three-body cot * cot terms from the rows of `pair_cot`, summed per site; shape (N, ...).

    The term with center j and ends j - s, j + t is cot_s at site j - s
    times cot_t at site j, and is held at site j - s.  For each s the
    allowed t form one range lo..hi (`triple_offsets`), so row s meets the
    sum of the rows t in that range, shifted back by s, once.  The range
    starts one row lower at each s; while its top stays put, the sum grows
    by that one row.  Zero in the full regime.
    """
    n = params.n
    total = np.zeros(cot.shape[1:])
    ends, top = None, None
    for s, lo, hi in triple_offsets(params):
        ends = ends + cot[lo - 1] if hi == top else cot[lo - 1 : hi].sum(axis=0)
        top = hi
        c = cot[s - 1]
        total[: n - s] += c[: n - s] * ends[s:]
        total[n - s :] += c[n - s :] * ends[:s]
    return total


def potential_energy(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Two-body csc^2 plus three-body -cot*cot potential, batched over (..., N)."""
    cot = pair_cot(params, _sites_first(x))
    unit = (math.pi / params.length) ** 2
    two_body = params.g * unit * csc2_by_site(params, cot)
    return _site_sum(two_body - params.big_g * unit * _three_body_by_site(params, cot))


def local_energy_batch(params: ModelParams, spec: StateSpec, x: np.ndarray):
    """((H psi)/psi as complex, node mask, M) for psi = psi0 * phi at positions
    x of shape (..., N), each of shape (...), where eps * M scales each
    sample's rounding error (`verify_eigenstate`).

    Every quantity is per sample, so the batch is evaluated in blocks of
    columns with at most BLOCK_ENTRIES pair entries r_eff * N * width each
    (`_local_energy_block`), into outputs allocated once: memory is
    O(BLOCK_ENTRIES + N * count), not O(r_eff * N * count).  A batch that
    fits in one block is evaluated as it is.  No block has one column: at
    width 1 numpy reduces over sites pairwise rather than row by row, and
    the outputs would depend on the blocking.  So the width is at least 2,
    and a last block of one column joins the block before it.
    """
    _keep_freed_pages()
    xs = _sites_first(x)
    count = xs[0].size
    width = max(2, BLOCK_ENTRIES // (params.r_eff * params.n))
    if count <= width:
        return _local_energy_block(params, spec, xs)
    shape = xs.shape[1:]
    xs = xs.reshape(params.n, count)
    energies = np.empty(count, dtype=complex)
    nodes = np.empty(count, dtype=bool)
    mag = np.empty(count)
    for lo in range(0, count - 1, width):
        hi = lo + width if lo + width < count - 1 else count
        energies[lo:hi], nodes[lo:hi], mag[lo:hi] = _local_energy_block(params, spec, xs[:, lo:hi])
    return energies.reshape(shape), nodes.reshape(shape), mag.reshape(shape)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a coincident pair's cot is inf
def _local_energy_block(params: ModelParams, spec: StateSpec, xs: np.ndarray):
    """`local_energy_batch` at sites-first positions xs of shape (N, ...), in one pass.

    The distance rows give the real part -Delta psi0 / (2 psi0)
    + V in one per-site buffer, with at most three (N, ...) buffers beside them: the
    three-body -G (pi/L)^2 cot*cot, then G (pi/L)^2 csc^2 at the site
    holding a pair (psi0's Laplacian puts -beta (pi/L)^2 csc^2 at both
    ends, and g + beta = G), then -g0^2 / 2, g0 the gradient of log psi0.
    With k = 2 pi i / L,
    (H psi)/psi = real - (k sum_m g0_m D_m phi + k^2 sum_m D_m^2 phi / 2) / phi.
    G^m cancels for a named state, and sum_m g0_m = 0, so both sums are per
    sample (`_term_sums`); z is formed only for a factor e1 or conj(e1).
    M bounds the sum of the moduli of the terms.  The real part's are
    G (pi/L)^2 csc^2 and g0^2 / 2 and, as |cot_s cot_t| <= (cot_s^2 +
    cot_t^2) / 2 and a row s meets at most T rows t, at most T G (pi/L)^2
    sum_j csc^2 for the three-body ones: M0 in all.  The two sums' are at
    most P e |k| (sum_m |g0_m| + |k| N e / 2) (`phi_moduli`), with
    sum_m |g0_m| <= sqrt(N sum_m g0_m^2) <= sqrt(2 N M0), and dividing by
    phi multiplies them by (1 + P / |phi|) / |phi|.

    Coincident pairs are decided from M, not by a test on every row: M is
    at least G (pi/L)^2 cot^2 / 2 for each pair, and while every |x| is
    below COINCIDENT_SPAN L a coincident pair has |cot| > COINCIDENT_COT.
    So only a block whose M or |x| reaches its bound, NaN included, reruns
    `pair_cot`'s exact test, which raises SeparationError.
    """
    cot = pair_cot(params, xs, check=False)
    gu = params.big_g * (math.pi / params.length) ** 2
    real = _three_body_by_site(params, cot)
    real *= -gu
    scratch = np.empty_like(real)  # before g0: in that order a pass faults in fewer new pages
    g0 = _grad_log_psi0(params, cot)
    cot2 = np.square(cot, out=cot)
    w = _row_weights(params)
    np.einsum("d,dj...->j...", w, cot2, out=scratch)  # `csc2_by_site` from the squared rows
    scratch += w.sum()
    del cot, cot2
    scratch *= gu
    real += scratch
    meets = max((hi - lo + 1 for _, lo, hi in triple_offsets(params)), default=0)
    mag = scratch.sum(axis=0)
    mag *= 1 + meets
    np.multiply(g0, g0, out=scratch)
    scratch *= 0.5
    real -= scratch
    mag += scratch.sum(axis=0)
    del scratch
    real = _site_sum(real)
    terms = _terms(spec, _constant(params))
    if terms is None:
        phi, d, lap = _phi_terms(spec, params, xs)
        cross = _site_sum(g0 * d)
    else:
        e1 = s = None
        if any(a or b for _, a, b, _ in terms):
            z = _z(params, xs)
            e1, s = z.sum(axis=0), np.einsum("j...,j...->...", g0, z)
        phi, cross, lap = _term_sums(terms, params.n, e1, s)
        phi = np.broadcast_to(phi, real.shape)
    scale, e = phi_moduli(spec, params)
    inv, nodes = _node_inverse(phi, scale)
    k = 2j * math.pi / params.length
    if e:
        c = 2 * params.n * (e * abs(k)) ** 2
        ratio = np.abs(inv)
        ratio *= scale
        mag += (np.sqrt(c * mag) + 0.25 * c) * ratio * (1.0 + ratio)
    span = COINCIDENT_SPAN * params.length
    if not (mag.max(initial=0.0) < 0.5 * gu * COINCIDENT_COT**2
            and -span < xs.min(initial=0.0) and xs.max(initial=0.0) < span):
        pair_cot(params, xs)
    return real - (k * cross + 0.5 * k * k * lap) * inv, nodes, mag


def _presorted_min_separation(xs: np.ndarray, length: float) -> np.ndarray:
    """`min_cyclic_separation` of each column of sites-first positions in
    [0, L), shape (N, m) -> (m,); O(N) per column, with no sort.

    A column that is a rotation of its sorted order has exactly one descent
    among its N cyclic differences x_{j+1} - x_j (j + 1 taken mod N), from
    its maximum to its minimum.  The other differences are the sorted row's
    adjacent gaps, and adding L at the descent gives (min - max) + L, which
    rounds as L - (max - min) does, so the minimum matches
    `min_cyclic_separation` bit for bit.  A column with any other number of
    descents is sorted instead.
    """
    d = np.empty_like(xs)
    np.subtract(xs[1:], xs[:-1], out=d[:-1])
    np.subtract(xs[0], xs[-1], out=d[-1])
    descent = d < 0.0
    d += descent * length
    sep = d.min(axis=0)
    other = np.count_nonzero(descent, axis=0) != 1
    if other.any():
        sep[other] = min_cyclic_separation(xs[:, other].T, length)
    return sep


def sample_positions(
    params: ModelParams,
    count: int,
    seed: int,
    min_sep_frac: float | None = None,
) -> np.ndarray:
    """Uniform positions on {x in [0, L)^N : min cyclic separation >= floor}.

    floor = min_sep_frac * L, by default min(1e-3, 1/(2N)) * L: 1e-3 L up to
    N = 500, and above that half the circle stays above the floor, so any N
    can be sampled.  Drawn exactly, with no rejection: the cyclic spacings
    are floor + (L - N floor) * Dirichlet(1, ..., 1), the first point sits
    at a uniform rotation and a uniform permutation labels the points.
    The sampler draws once: a row below the floor, which only rounding can
    make, is dropped, not redrawn; SamplingError if no row is left.
    Deterministic given the seed.  Shape (kept, N): with every row kept,
    the transposed view of the buffer below, read without a copy.

    The draw is built sites first in one (N, count) buffer: the spacings,
    their cumulative sums down the sites axis (the same sequential sums as
    a per-row cumsum) and the rotation.  Every position then lies in
    [0, 2L), as the first N - 1 spacings sum to less than L, and subtracting
    L from those at or above L is exact (Sterbenz), so it equals `% L`;
    only a floor at the rounding level of L lets the rounded spacings
    overshoot L, and `% L` is applied then.  Unpermuted, each row is a
    rotation of its sorted order, so the floor check takes O(N)
    (`_presorted_min_separation`).  The generator is called as by a per-row
    construction, so the draws do not depend on this layout, nor on its
    blocks of BLOCK_ENTRIES entries, which bound the memory beyond xs.
    """
    if count < 1:
        raise ParameterDomainError("count must be >= 1")
    if seed < 0:
        raise ParameterDomainError(f"need seed >= 0, got {seed!r}")
    n, length = params.n, params.length
    if min_sep_frac is None:
        min_sep_frac = min(1e-3, 0.5 / n)
    if not 0.0 < min_sep_frac < 1.0 / n:
        raise SamplingError(
            f"min_sep_frac {min_sep_frac} infeasible for N={n} (need 0 < f < 1/N)"
        )
    _keep_freed_pages()
    rng = np.random.default_rng(seed)
    floor = min_sep_frac * length
    # xs before the gaps: the local energy that follows faults in fewer pages
    xs = np.empty((n, count))
    width = max(1, BLOCK_ENTRIES // n)  # rows of gaps, columns of xs
    xs[0] = 0.0
    for lo in range(0, count, width):
        gaps = rng.exponential(size=(min(width, count - lo), n))
        np.divide(gaps[:, :-1].T, gaps.sum(axis=-1), out=xs[1:, lo : lo + width])
        del gaps
    xs[1:] *= length - n * floor
    xs[1:] += floor
    for j in range(1, n):  # row by row: np.cumsum(axis=0) is several times slower
        xs[j] += xs[j - 1]
    xs += rng.uniform(0.0, length, size=count)
    ok = np.empty(count, dtype=bool)
    for lo in range(0, count, width):
        block = xs[:, lo : lo + width]
        block -= (block >= length) * length
        if (block[-1] >= length).any():
            block %= length
        ok[lo : lo + width] = _presorted_min_separation(block, length) >= floor
    rng.permuted(xs, axis=0, out=xs)
    if ok.all():
        return xs.T
    if not ok.any():
        raise SamplingError(
            f"min_sep_frac {min_sep_frac} leaves no room above the floor at N={n}: "
            "every row falls below it by rounding"
        )
    return xs[:, ok].T


# -- reduced-unit conversion ----------------------------------------------

def conversion_coefficient() -> float:
    """Dimensionless c0 in  E - E0 = c0 * (pi^2/L^2) * (eps - eps0).

    With z_j = exp(2 pi i x_j / L), d/dx_j = (2 pi i / L) D_j, so the kinetic
    term -1/2 d^2/dx_j^2 is 2 (pi/L)^2 D_j^2 and c0 = 2 exactly.
    `test_conversion_is_two` checks that the oracle measures it.
    """
    return 2.0


def conversion_factor(params: ModelParams) -> float:
    """Physical energy per reduced unit: c0 * pi^2 / L^2."""
    return conversion_coefficient() * (math.pi / params.length) ** 2


def to_reduced(params: ModelParams, energy: float) -> float:
    """Map a physical energy to eps - eps0."""
    return (energy - ground_energy_physical(params)) / conversion_factor(params)


def state_degree(spec: StateSpec, n: int) -> int | None:
    """Homogeneous degree of phi in z, or None if mixed: each term
    e1^a conj(e1)^b G^m of `wavefunction._terms` has degree a - b + N m,
    whatever its coefficient, so c is left at 0."""
    degrees = {a - b + n * m for _, a, b, m in _terms(spec, 0.0) or ()}
    return degrees.pop() if len(degrees) == 1 else None


def predicted_reduced_level(spec: StateSpec, params: ModelParams) -> float | None:
    """Closed-form eps - eps0 for the known states; None if no prediction.

    The levels are `model.closed_form_levels`; the cos and sin sums share
    the e1 level.  A boost by q multiplies phi of degree d by G^q, which
    raises the level by 2 q d + N q^2; nested boosts add their q first.
    A boosted state of mixed degree (cos, sin) has no prediction.
    """
    base, q = _unboost(spec)
    table = closed_form_levels(params, params.beta)
    table.update({GROUND: 0.0, COS_SUM: table[E1], SIN_SUM: table[E1]})
    level = table.get(base.kind)
    if level is None or base is spec:
        return level
    d = state_degree(base, params.n)
    if d is None:
        return None
    try:
        return level + 2.0 * q * d + params.n * q * q
    except OverflowError:  # q or N q^2 exceeds a float
        raise ParameterDomainError(f"the level of boost q={q} overflows at N={params.n}") from None


def predicted_physical(spec: StateSpec, params: ModelParams) -> float | None:
    lvl = predicted_reduced_level(spec, params)
    if lvl is None:
        return None
    return ground_energy_physical(params) + conversion_factor(params) * lvl


# -- verification harness --------------------------------------------------

class ResidualReport(NamedTuple):
    """Aggregate local-energy statistics for one candidate eigenstate."""

    state: str
    samples: int
    energy_mean: float
    energy_stddev: float
    max_abs_dev: float
    rounding_multiple: float
    reduced_mean: float
    predicted: float | None
    predicted_reduced: float | None
    verdict: str
    unit_note: str
    node_rejections: int = 0

    def to_dict(self) -> dict:
        return self._asdict()


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows as a non-finite statistic
def verify_eigenstate(
    params: ModelParams,
    spec: StateSpec,
    count: int = 2000,
    seed: int = 1,
    predicted: float | None = None,
) -> ResidualReport:
    """Sample configurations, evaluate (H psi)/psi, and compare to a prediction.

    Positions come from `sample_positions` at its default floor.  A state
    passes when each sample's complex distance from the reference, which
    bounds its imaginary part too, is at most ROUNDING_C * eps * M, M from
    `local_energy_batch` (a running rounding bound: Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3).  The reference is
    `predicted`, or else the mean weighted by 1 / M^2, as the errors scale.
    The bound has no units, so no verdict depends on beta or L.  One draw of
    `count` configurations is evaluated; those at a node of phi are dropped,
    not replaced, and counted in `node_rejections`, and `samples` is the
    number kept.  SamplingError if every configuration sits at a node.
    """
    if count < 1:
        raise ParameterDomainError(f"need samples >= 1, got {count}")
    x = sample_positions(params, count, seed)
    energies, nodes, magnitudes = local_energy_batch(params, spec, x)
    node_rejections = int(nodes.sum())
    if node_rejections == nodes.size:
        raise SamplingError(f"all {node_rejections} sampled configurations sit at a node of phi")
    energies, magnitudes = energies[~nodes], magnitudes[~nodes]
    re = energies.real
    mean = float(re.mean())
    stddev = float(re.std())
    max_dev = float(np.abs(re - mean).max())
    if predicted is None:
        ref = np.average(re, weights=(magnitudes.min() / magnitudes) ** 2)
    else:
        ref = predicted
    multiple = float((np.abs(energies - ref) / magnitudes).max() / np.finfo(float).eps)
    if not all(map(math.isfinite, (mean, stddev, max_dev, multiple, magnitudes.max()))):
        raise ParameterDomainError(
            f"the local energy or its spread overflows at beta={params.beta!r}, L={params.length!r}"
        )
    c0 = conversion_coefficient()
    if multiple > ROUNDING_C:
        verdict = FAIL
    else:
        verdict = NO_PREDICTION if predicted is None else PASS
    return ResidualReport(
        state=spec.label(),
        samples=energies.size,
        energy_mean=mean,
        energy_stddev=stddev,
        max_abs_dev=max_dev,
        rounding_multiple=multiple,
        reduced_mean=to_reduced(params, mean),
        predicted=predicted,
        predicted_reduced=None if predicted is None else to_reduced(params, predicted),
        verdict=verdict,
        unit_note=f"reduced = (E - E0) * L^2 / (c0*pi^2), c0 = {c0:.12f} (exact)",
        node_rejections=node_rejections,
    )

