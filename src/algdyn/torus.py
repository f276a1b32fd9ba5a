"""Dual-torus analysis: certified nonvanishing and truncated l1 inverses.

A Laurent polynomial f over Z^d is invertible in the convolution algebra
l1(Z^d) exactly when its Fourier series f^ has no zero on the d-torus
(Wiener's lemma).  This module makes that criterion checkable:

* certify_invertible scans a uniform grid (_kernels.grid_abs_values, one
  axis at a time, one point of each pair theta, -theta, streamed in blocks
  of rows into a running minimum), bounds the
  variation of f^ between grid points by an explicit Lipschitz constant,
  and returns Invertible when the margin
  exceeds the scan's rounding bound or one term outweighs all others.
  NotInvertible is only returned with an exact zero witness at a rational
  point, confirmed in integer cyclotomic arithmetic.  Else it is Unknown.

* matrix_l1_inverse produces a finitely supported dyadic approximation G
  of A^-1, for a square matrix A over Z[Z^d], by iterative refinement:
  floats propose the radius of the ball G fills (the tail of the float
  seed, A^ inverted pointwise on the grid, capped) and the corrections,
  and the exact residual ||G A - I||_1, over one power-of-two denominator
  like the entries, decides.  The entries are one dense box of integer
  numerators (_sparse.Box), moved to and from the FFT grid by modular
  index arrays.  The residual yields an a posteriori bound on
  ||A^-1 - G||_1.  l1_inverse is its 1 x 1 case.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels, _sparse
from ._report import Report
from ._sparse import MemoryCapError, charge, mem_cap_bytes
from .groupring import GroupRingElement, GroupRingMatrix

DEFAULT_GRID = {1: 1024, 2: 256, 3: 64}
EXACT_Q_MAX = 256  # largest common denominator of an exactly checked point

INVERTIBLE = "Invertible"
NOT_INVERTIBLE = "NotInvertible"
UNKNOWN = "Unknown"


class NotInvertibleError(ValueError):
    """An operation required a certified-invertible input."""


class VerificationError(RuntimeError):
    """An independent re-check of a computed certificate disagreed with it."""


@dataclass(frozen=True)
class TorusCertificate(Report):
    """Outcome of a nonvanishing scan of f^ on the d-torus.

    grid_min is the smallest computed |f^| on the grid j/grid_size and
    margin = grid_min - lipschitz/(2*grid_size).  Only the half grid of
    _kernels.grid_abs_values is scanned, as |f^(-theta)| = |f^(theta)|
    for integer coefficients: every theta lies within 1/(2*grid_size) of
    some grid point j, -theta within as much of -j, and one of j, -j is in
    the half.  Every computed grid value is within the guard of
    _kernels.grid_error_bound of the exact one (a proof for every grid
    size), so Invertible is returned only when margin exceeds that guard,
    and then margin - guard is a lower bound for |f^| over the whole
    torus.  When the grid margin falls short but one term c u^e outweighs
    all the others together, the verdict is Invertible with margin =
    2|c| - ||f||_1, itself an exact lower bound for |f^|, and the note
    names the term.  A NotInvertible verdict carries an exact rational
    zero of f^ as witness.
    """

    verdict: str
    grid_size: int
    grid_min: float
    lipschitz: float
    margin: float
    witness: tuple[Fraction, ...] | None = None
    note: str = ""


@dataclass(eq=False)
class MatrixL1Inverse:
    """Entrywise truncated inverse: entry (i, j) at site e is
    nums.a[i, j][e - nums.lo] / den, one box of numerators over one
    common denominator, read-only, since one inverse is shared by every
    point built from it (compare inverses by identity).  An element's
    inverse is the 1 x 1 case.

    tail_bound bounds the l1 mass of the discarded part, derived a
    posteriori from the exact residual r = ||G A - I||_1, the l1 norms of
    the entries summed: if r < 1 it is r ||G||_1 / (1 - r), otherwise inf
    (no bound certified).  det_certificate is the certificate of the
    determinant's invertibility the inverse rests on.  radius is the
    max-norm radius of the ball the inverse was cut to: at most the radius
    cap, and for a monomial unit the radius of its one site.
    """

    nums: _sparse.Box
    den: int
    residual: Fraction
    converged: bool
    tail_bound: float
    det_certificate: TorusCertificate
    radius: int

    def __post_init__(self):
        self.nums.a.flags.writeable = False

    @property
    def k(self) -> int:
        return len(self.nums.a)

    @functools.cached_property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """Read-only Fraction view of the nonzero sites of entry (0, 0): an
        element's inverse.  The benchmark's tracer counts len(terms) of each
        l1_inverse result."""
        cell = self.nums.a[0, 0]
        idx = np.nonzero(cell)
        return {tuple(e): Fraction(n, self.den) for e, n in zip(self.nums.sites(idx).tolist(), cell[idx])}

    def mass_by_radius(self) -> tuple[dict[int, int], int]:
        """The l1 mass of all entries summed over each max-norm sphere, exactly:
        (radius -> numerator, den)."""
        a = self.nums.a
        return self.nums.by_radius(np.abs(a).sum(axis=(0, 1)), (a != 0).any(axis=(0, 1))), self.den


# -- evaluation ------------------------------------------------------------


def _theta_tuple(f: GroupRingElement, theta) -> tuple[float, ...]:
    if isinstance(theta, (int, float, Fraction)):
        t = (float(theta),)
    else:
        t = tuple(float(v) for v in theta)
    if len(t) != f.d:
        raise ValueError(f"theta has length {len(t)}, expected {f.d}")
    return t


def evaluate(f: GroupRingElement, theta) -> complex:
    """f^(theta) = sum_n f_n exp(2 pi i n.theta), in double precision."""
    t = _theta_tuple(f, theta)
    acc = 0j
    for e in sorted(f.terms):
        ang = 2.0 * math.pi * sum(n * th for n, th in zip(e, t))
        acc += f.terms[e] * complex(math.cos(ang), math.sin(ang))
    return acc


def lipschitz_bound(f: GroupRingElement) -> float:
    """Certified Lipschitz constant of f^ for the max-metric on the torus.

    |f^(x)-f^(y)| <= 2 pi sum_n |f_n| |n|_1 * max_j rho(x_j,y_j); the float
    is nudged up so rounding cannot understate the true constant.
    """
    s = sum(abs(c) * sum(abs(x) for x in e) for e, c in f.terms.items())
    return 2.0 * math.pi * float(s) * (1.0 + 1e-9)


# -- exact evaluation at rational points ------------------------------------


@functools.cache
def _cyclotomic(q: int) -> list[int]:
    """Integer coefficients of the q-th cyclotomic polynomial."""
    # (x^q - 1) / prod_{d | q, d < q} Phi_d, by exact division
    poly = {(0,): -1, (q,): 1}
    for dd in range(1, q):
        if q % dd == 0:
            poly = _sparse.exact_div(poly, {(i,): c for i, c in enumerate(_cyclotomic(dd)) if c})
    return [poly.get((i,), 0) for i in range(max(poly)[0] + 1)]


def evaluate_exact_is_zero(f: GroupRingElement, theta: tuple[Fraction, ...]) -> bool:
    """Whether f^(theta) is exactly zero, for rational theta."""
    if f.is_zero():
        return True
    q, ps = _lattice_coords(theta)
    if q > EXACT_Q_MAX:
        raise ValueError("rational point denominator too large for exact check")
    return _zero_at(f.terms, q, ps)


def _lattice_coords(theta) -> tuple[int, tuple[int, ...]]:
    """(q, ps) with q the lcm of the denominators and theta = ps/q mod 1."""
    ts = [Fraction(t) for t in theta]
    q = math.lcm(*(t.denominator for t in ts))
    return q, tuple(t.numerator * (q // t.denominator) % q for t in ts)


def _zero_at(terms: dict[tuple[int, ...], int], q: int, ps: tuple[int, ...]) -> bool:
    """Whether sum_n f_n zeta^(n.ps) = 0, zeta = exp(2 pi i/q): the sum is
    reduced modulo the q-th cyclotomic polynomial, all over the integers."""
    acc = [0] * q
    for e, c in terms.items():
        acc[sum(n * p for n, p in zip(e, ps)) % q] += c
    if q == 1:
        return acc[0] == 0
    phi = _cyclotomic(q)
    deg = len(phi) - 1
    for i in range(q - 1, deg - 1, -1):
        c = acc[i]
        if c == 0:
            continue
        for j in range(deg + 1):
            acc[i - deg + j] -= c * phi[j]
    return not any(acc[:deg])


def _scan_denominators(d: int) -> tuple[int, ...]:
    """The q of the exact scan's lattices, closed under divisors."""
    return (1, 2, 3, 4, 6) if d <= 2 else (1, 2, 3, 4)


@functools.cache
def _scan_points(d: int) -> list[tuple[int, tuple[int, ...]]]:
    """The points ps/q of the small rational lattices, in scan order, each
    once, in lowest terms: gcd(q, *ps) == 1, less each point whose mirror
    -ps/q comes earlier.  f^(-theta) = conj f^(theta), so a zero at -theta
    is a zero at theta, and the first zero found is the same."""
    return [(q, ps) for q in _scan_denominators(d)
            for ps in itertools.product(range(q), repeat=d)
            if math.gcd(q, *ps) == 1 and ps <= tuple(-p % q for p in ps)]


def _off_scan(d: int, thetas) -> list[tuple[int, tuple[int, ...]]]:
    """The rational points thetas as (q, ps), less those on the scan's
    lattices (q is a scan denominator: the list is closed under divisors)
    and those with q > EXACT_Q_MAX, too fine to check."""
    qs = _scan_denominators(d)
    return [(q, ps) for q, ps in map(_lattice_coords, thetas) if q not in qs and q <= EXACT_Q_MAX]


def _exact_zero(f: GroupRingElement, points) -> tuple[Fraction, ...] | None:
    """The first of the points (q, ps) at which f^ is exactly zero."""
    for q, ps in points:
        if _zero_at(f.terms, q, ps):
            return tuple(Fraction(p, q) for p in ps)
    return None


# -- certification -----------------------------------------------------------


def _term_arrays(f: GroupRingElement) -> tuple[np.ndarray, np.ndarray]:
    exps = sorted(f.terms)
    try:
        e = np.array(exps, dtype=np.int64).reshape(len(exps), f.d)
    except OverflowError:
        raise ValueError(
            "an exponent is outside the int64 range [-2^63, 2^63 - 1] of the torus grid"
        ) from None
    c = np.array([float(f.terms[t]) for t in exps], dtype=np.float64)
    return e, c


def _check_grid_memory(m: int, d: int, k: int) -> None:
    """Charge k^2 complex m^d grids, each with its phase scratch and headroom."""
    charge(k * k * (m ** d) * 16 * (d + 2), f"grid {m}^{d}" if k == 1 else f"{k * k} grids {m}^{d}")


def _grid_minimum(exps: np.ndarray, coefs: np.ndarray, m: int) -> tuple[float, list[int]]:
    """The smallest |f^| on the half grid j/m and the grid coordinates of its
    first occurrence in C order, as np.argmin over the whole half grid finds
    them.  A block's first minimum replaces the running one only when it is
    less, or is NaN while the running one is not (np.argmin takes the first
    NaN as least)."""
    best = None  # (value, first row of its block, block shape, index in the block)
    for j0, vals in _kernels.grid_abs_values(exps, coefs, m, 0.0):
        i = int(np.argmin(vals))
        if best is None or not (vals.flat[i] >= best[0] or math.isnan(best[0])):
            best = (vals.flat[i], j0, vals.shape, i)
    grid_min, j0, shape, i = best
    coords = [int(c) for c in np.unravel_index(i, shape)]
    coords[0] += j0
    return float(grid_min), coords


def certify_invertible(f: GroupRingElement, m: int | None = None) -> TorusCertificate:
    """Certified invertibility of f in l1(Z^d) via nonvanishing of f^."""
    if m is None:
        m = DEFAULT_GRID.get(f.d, 32)
    if m < 2:
        raise ValueError("grid size must be at least 2")
    lip = lipschitz_bound(f)

    if f.is_zero():
        return TorusCertificate(
            NOT_INVERTIBLE, m, 0.0, 0.0, 0.0,
            witness=(Fraction(0),) * f.d, note="zero element",
        )

    w = _exact_zero(f, _scan_points(f.d))
    if w is not None:
        return TorusCertificate(
            NOT_INVERTIBLE, m, 0.0, lip, -lip / (2 * m),
            witness=w, note="exact zero at rational point",
        )

    exps, coefs = _term_arrays(f)
    grid_min, coords = _grid_minimum(exps, coefs, m)
    margin = grid_min - lip / (2.0 * m)
    # every grid value is within the bound; the subtraction above rounds once more
    guard = _kernels.grid_error_bound(exps, coefs, m, 0.0) + _kernels.EPS * grid_min
    if margin > guard:
        return TorusCertificate(INVERTIBLE, m, grid_min, lip, margin)

    # c u^e outweighs all the other terms: |f^| >= 2|c| - ||f||_1 > 0 everywhere
    e, c = max(f.terms.items(), key=lambda t: abs(t[1]))
    slack = 2 * abs(c) - f.l1_norm()
    if slack > 0:
        term = GroupRingElement(f.d, {e: c}).format()
        return TorusCertificate(INVERTIBLE, m, grid_min, lip, float(slack), note=(
            f"the term {term} outweighs the others: margin 2|c| - ||f||_1 = {slack} "
            "is an exact lower bound for |f^| on the torus (Neumann series)"))

    # near-zero minimum: try an exact confirmation at a nearby nice rational
    near = [[Fraction(c, m).limit_denominator(denom) for c in coords] for denom in (2, 3, 4, 6, 8, 12)]
    w = _exact_zero(f, _off_scan(f.d, near))
    if w is not None:
        return TorusCertificate(
            NOT_INVERTIBLE, m, grid_min, lip, margin,
            witness=w, note="exact zero at rational point",
        )
    theta = ", ".join(f"{c}/{m}" for c in coords)
    return TorusCertificate(
        UNKNOWN, m, grid_min, lip, margin,
        note=f"the exact scan found no rational zero; grid minimum at theta = ({theta}); "
        f"margin {margin:.3e} is {guard - margin:.3e} below the rounding guard {guard:.3e}",
    )


def certify_matrix_invertible(A: GroupRingMatrix, m: int | None = None) -> TorusCertificate:
    """Invertibility of a square matrix over l1(Z^d), via its exact determinant.

    The matrix is invertible in M_k(l1) iff det(A) is invertible in l1, and
    then A^-1 = det(A)^-1 adj(A).
    """
    if not A.is_square():
        raise ValueError("matrix must be square")
    det = A.det()
    return certify_invertible(det, m)


# -- truncated l1 inverses ---------------------------------------------------


# Fraction dict convolutions: _sparse.conv is exact on Fraction values too.
# The package no longer calls them, but perfbench/tracing.py wraps both by name.
def conv_with_element(g: dict[tuple[int, ...], Fraction], f: GroupRingElement) -> dict:
    return _sparse.conv(g, f.terms)


def conv_frac(a: dict, b: dict) -> dict:
    return _sparse.conv(a, b)


def _check_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def _residual(G: _sparse.Box, den: int, A: GroupRingMatrix) -> tuple[_sparse.Box, Fraction]:
    """(G A - den I as numerators over den, ||(G/den) A - I||_1 summed over the
    entries), exact: one product of k^3 + k parts."""
    k, d = A.rows, A.d
    parts = [((i, j), A[t, j].terms, _sparse.Box(G.lo, G.a[i, t]))
             for i in range(k) for j in range(k) for t in range(k)]
    parts += [((i, i), {(0,) * d: -den}, _sparse.unit(d)) for i in range(k)]
    prod = _sparse.box_conv(parts, (k, k), d)
    return prod, Fraction(_sparse.l1(prod), den)


def _tail(residual: Fraction, nums: _sparse.Box, den: int) -> float:
    """r ||G||_1 / (1 - r) for the entries nums / den, or inf when r >= 1."""
    if residual >= 1:
        return math.inf
    return float(residual * Fraction(_sparse.l1(nums), den) / (1 - residual))


def _dyadic(arr: np.ndarray, radius: int, den: int = 1) -> tuple[_sparse.Box, int]:
    """The (k, k, m, ..., m) arr at e mod m over the max-norm ball of the radius,
    exactly, as numerators over one power of two, den or above (floats are
    dyadic)."""
    idx = np.arange(-radius, radius + 1) % arr.shape[-1]
    v = arr[(Ellipsis, *np.ix_(*[idx] * (arr.ndim - 2)))]
    if not np.isfinite(v).all():
        raise ValueError("the float inverse is not finite")
    mant, ex = np.frexp(v)
    M = np.ldexp(mant, 53).astype(np.int64)  # v = M 2^(ex - 53), exactly
    nz = M != 0
    tz = np.where(nz, np.frexp(M & -M)[1] - 1, 0)  # the trailing zero bits of M
    e2 = ex - 53 + tz  # v = (M >> tz) 2^e2, an odd integer times a power of two
    shift = max(den.bit_length() - 1, -int(e2[nz].min(initial=0)))
    nums = (M >> tz).astype(object) << np.where(nz, shift + e2, 0).astype(object)
    return _sparse.Box((-radius,) * (arr.ndim - 2), nums), 1 << shift


def _grid(nums: _sparse.Box, den: int, m: int, radius: int) -> np.ndarray:
    """The (k, k) entries nums / den as floats at e mod m on the m^d grid, for
    e within the radius (m > 2 radius, so no two of them meet)."""
    d = len(nums.lo)
    arr = np.zeros(nums.a.shape[:2] + (m,) * d)
    lo = [max(l, -radius) for l in nums.lo]
    hi = [min(l + n, radius + 1) for l, n in zip(nums.lo, nums.shape)]
    if all(a < b for a, b in zip(lo, hi)):
        sl = tuple(slice(a - l, b - l) for a, b, l in zip(lo, hi, nums.lo))
        arr[(Ellipsis, *np.ix_(*(np.arange(a, b) % m for a, b in zip(lo, hi))))] = \
            (nums.a[(Ellipsis, *sl)] / den).astype(np.float64)
    return arr


def _seed_radius(seed: np.ndarray, norm: int, tol: float, radius_cap: int) -> int:
    """The smallest radius R with norm times the seed's l1 mass between the
    max-norm radii R and radius_cap, summed over the entries and sphere by
    sphere, at most tol / 4 (radius_cap qualifies).  norm is A's largest
    row sum max_t sum_j ||A_tj||_1: the cut T of the seed adds at most
    ||T A||_1 <= ||T||_1 max_t sum_j ||A_tj||_1 to the residual.  The
    grid's sites past radius_cap, its aliasing and float noise, are cut by
    every R alike.
    Floats only propose R: the exact residual decides."""
    m = seed.shape[-1]
    axis = np.minimum(np.arange(m), m - np.arange(m))  # |e| of the site e mod m nearest 0
    mass = np.bincount(functools.reduce(np.maximum, np.ix_(*[axis] * (seed.ndim - 2))).ravel(),
                       weights=np.abs(seed).sum(axis=(0, 1)).ravel())[:radius_cap + 1]
    beyond = np.append(np.cumsum(mass[:0:-1])[::-1], 0.0)  # beyond[R] = sum of mass[R + 1:]
    return int(np.flatnonzero(norm * beyond <= tol / 4)[0])


def _refined(A: GroupRingMatrix, seed: np.ndarray, radius: int, tol: float) -> tuple[_sparse.Box, int, Fraction]:
    """The seed cut to the max-norm ball of the radius, then refined as
    matrix_l1_inverse says: (numerators, den, exact residual)."""
    k, d = A.rows, A.d
    axes = tuple(range(2, 2 + d))
    g, den = _dyadic(seed, radius)
    prod, r = _residual(g, den, A)
    seed_hat = None
    while r > tol:
        if seed_hat is None:  # built once a step runs; r lies within R + deg A, only
            # its terms within 2R reach the ball, and m > 2R + s keeps g0 r from wrapping
            s = min(2 * radius, radius + max(max(map(abs, e)) for row in A.entries for x in row for e in x.terms))
            mc = 1 << (2 * radius + s + 1).bit_length()
            _check_grid_memory(mc, d, k)
            seed_hat = np.fft.rfftn(_grid(g, den, mc, radius), axes=axes)
        prod_hat = np.fft.rfftn(_grid(prod, den, mc, s), axes=axes)
        corr_hat = seed_hat[0] * prod_hat[:, :1]  # entry (i, l) sums g0[j, l] r[i, j] over j
        for j in range(1, k):
            corr_hat += seed_hat[j] * prod_hat[:, j:j + 1]
        c, cden = _dyadic(np.fft.irfftn(corr_hat, axes=axes), radius, den)  # mc is even
        step = _sparse.Box(g.lo, g.a * (cden // den) - c.a)
        step_prod, step_r = _residual(step, cden, A)
        if 2 * step_r > r:  # the truncation floor
            if step_r < r:
                g, den, r = step, cden, step_r
            break
        g, den, prod, r = step, cden, step_prod, step_r
    return g, den, r


def l1_inverse(
    f: GroupRingElement,
    tol: float = 1e-10,
    radius_cap: int = 40,
    cert: TorusCertificate | None = None,
) -> MatrixL1Inverse:
    """Truncated inverse of f in l1(Z^d): the 1 x 1 matrix_l1_inverse."""
    return matrix_l1_inverse(GroupRingMatrix([[f]]), tol, radius_cap, cert)


def matrix_l1_inverse(
    A: GroupRingMatrix,
    tol: float = 1e-10,
    radius_cap: int = 40,
    cert: TorusCertificate | None = None,
) -> MatrixL1Inverse:
    """Entrywise truncated inverse of a square k x k matrix over l1(Z^d),
    with an exact residual certificate.

    A is invertible in M_k(l1) exactly when det A is invertible in l1;
    cert, the torus certificate of det A, is computed when not given, and
    must read Invertible.  The seed G0 is the inverse DFT of A^(theta)^-1,
    inverted pointwise on a uniform grid sized from radius_cap.  It is cut
    to the max-norm ball of radius R, the smallest R <= radius_cap whose
    seed mass between R and radius_cap, summed over the entries, times
    A's largest row sum of l1 norms is at most tol / 4 (_seed_radius);
    ||.||_1 sums the entries' l1 norms.  Each refinement step subtracts
    (G A - I) G0 cut to the ball, float64 FFT products of the exact
    residual G A - I.  It stops once r = ||G A - I||_1 <= tol, or when a
    step fails to halve r (the truncation floor), keeping the better of
    the last two iterates.  If tol is still missed and R < radius_cap, the
    whole computation runs once more at radius_cap, so the result
    converges whenever the cap's computation does; converged=False says
    tol was missed.  A 1 x 1 monomial unit c u^e is inverted exactly.
    """
    _check_positive("tol", tol)
    if radius_cap < 0:
        raise ValueError(f"radius_cap must be >= 0, got {radius_cap!r}")
    if not A.is_square():
        raise ValueError("matrix must be square")
    k, d = A.rows, A.d
    if cert is None:
        cert = certify_invertible(A.det())
    if k == 1 and A[0, 0].num_terms() == 1:
        (e, c), = A[0, 0].terms.items()
        if abs(c) == 1:  # a monomial unit: its inverse is exact
            unit = _sparse.box_conv([((0, 0), {tuple(-x for x in e): c}, _sparse.unit(d))], (1, 1), d)
            return MatrixL1Inverse(unit, 1, Fraction(0), True, 0.0, cert, max(map(abs, e)))
    if cert.verdict != INVERTIBLE:
        raise NotInvertibleError(f"determinant not certified invertible: {cert.verdict}")

    m = 64
    while m < 2 * radius_cap + 2 or (d == 1 and m < 4 * radius_cap):
        m *= 2
    _check_grid_memory(m, d, k)
    vals = np.empty((k, k) + (m,) * d, dtype=complex)
    for i, row in enumerate(A.entries):
        for j, e in enumerate(row):
            vals[i, j] = _kernels.grid_values(*_term_arrays(e), m, 0.0)
    if k == 1:  # the reciprocal, which np.linalg.inv does not round alike
        inv = 1.0 / vals
    else:
        inv = np.moveaxis(np.linalg.inv(np.moveaxis(vals, (0, 1), (-2, -1))), (-2, -1), (0, 1))
    seed = (np.fft.fftn(inv, axes=range(2, 2 + d)) / (m ** d)).real
    R = _seed_radius(seed, max(sum(e.l1_norm() for e in row) for row in A.entries), tol, radius_cap)
    g, den, r = _refined(A, seed, R, tol)
    if r > tol and R < radius_cap:  # the proposal fell short: the cap's computation
        R = radius_cap
        g, den, r = _refined(A, seed, R, tol)
    return MatrixL1Inverse(g, den, r, r <= tol, _tail(r, g, den), cert, R)
