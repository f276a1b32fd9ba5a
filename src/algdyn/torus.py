"""Dual-torus analysis: certified nonvanishing and truncated l1 inverses.

A Laurent polynomial f over Z^d is invertible in the convolution algebra
l1(Z^d) exactly when its Fourier series f^ has no zero on the d-torus
(Wiener's lemma).  This module makes that criterion checkable:

* certify_invertible scans a uniform grid (_kernels.grid_values, one axis
  at a time), bounds the variation of f^ between grid points by an
  explicit Lipschitz constant, and returns Invertible when the margin
  exceeds the scan's rounding bound or one term outweighs all others.
  NotInvertible is only returned with an exact zero witness at a rational
  point, confirmed in integer cyclotomic arithmetic.  Else it is Unknown.

* l1_inverse produces a finitely supported dyadic approximation g of
  f^-1.  Its coefficients, Newton iterates and residual ||delta - g*f||_1
  are exact: integer numerators over one common power-of-two denominator
  (the _sparse core).  The residual yields an a posteriori bound on
  ||f^-1 - g||_1.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels, _sparse
from ._report import Report
from .groupring import (
    GroupRingElement,
    GroupRingMatrix,
    _as_exponent,
    ball,
)

DEFAULT_GRID = {1: 1024, 2: 256, 3: 64}
NEWTON_MAX_ITER = 25

INVERTIBLE = "Invertible"
NOT_INVERTIBLE = "NotInvertible"
UNKNOWN = "Unknown"


class NotInvertibleError(ValueError):
    """An operation required a certified-invertible input."""


class MemoryCapError(MemoryError):
    """A grid or set would exceed the declared memory budget."""


def mem_cap_bytes() -> int:
    mb = int(os.environ.get("ALGDYN_MEM_CAP_MB", "2048"))
    return mb * 1024 * 1024


@dataclass(frozen=True)
class TorusCertificate(Report):
    """Outcome of a nonvanishing scan of f^ on the d-torus.

    grid_min is the smallest computed |f^| on the grid and margin =
    grid_min - lipschitz/(2*grid_size).  Every computed grid value is within
    the guard of _kernels.grid_error_bound of the exact one (a proof for
    every grid size), so Invertible is returned only when margin
    exceeds that guard, and then margin - guard is a lower bound for |f^|
    over the whole torus.  When the grid margin falls short but one term
    c u^e outweighs all the others together, the verdict is Invertible
    with margin = 2|c| - ||f||_1, itself an exact lower bound for |f^|,
    and the note names the term.  A NotInvertible verdict carries an
    exact rational zero of f^ as witness.
    """

    verdict: str
    grid_size: int
    grid_min: float
    lipschitz: float
    margin: float
    witness: tuple[Fraction, ...] | None = None
    note: str = ""


@dataclass
class L1Approximant:
    """Finitely supported rational function on Z^d standing for an l1 element.

    The coefficient at e is nums[e] / den: integer numerators over one
    common denominator (a power of two for Newton inverses), the format
    the homoclinic and shadow layers compute with.  terms is a read-only
    Fraction view of the same data.  tail_bound bounds the l1 mass
    ||true - this||_1 of the discarded part; it is inf when no bound is
    certified.  For inverses it is derived a posteriori from the exact
    residual: if r = ||delta - g*f||_1 < 1 then
    ||f^-1 - g||_1 <= r*||g||_1/(1-r); otherwise it is inf.
    """

    d: int
    nums: dict[tuple[int, ...], int]
    den: int
    tail_bound: float = math.inf
    residual: Fraction | None = None
    converged: bool = True

    @functools.cached_property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return _sparse.unscale(self.nums, self.den)

    def l1_norm(self) -> Fraction:
        return Fraction(_sparse.l1(self.nums), self.den)

    def coefficient(self, e) -> Fraction:
        return Fraction(self.nums.get(_as_exponent(e, self.d), 0), self.den)


@dataclass
class MatrixL1Inverse:
    """Entrywise truncated inverse; all entries share one denominator.
    tail_bound is inf when no bound is certified."""

    entries: list[list[L1Approximant]]
    residual: Fraction
    converged: bool
    tail_bound: float
    det_certificate: TorusCertificate

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def den(self) -> int:
        return self.entries[0][0].den


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
    if q > 256:
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


@functools.cache
def _scan_points(d: int) -> dict[tuple[Fraction, ...], tuple[int, tuple[int, ...]]]:
    """The small rational lattices of the exact scan, in scan order, each
    point theta mapped to its _lattice_coords."""
    points: dict[tuple[Fraction, ...], tuple[int, tuple[int, ...]]] = {}
    for q in [1, 2, 3, 4, 6] if d <= 2 else [1, 2, 3, 4]:
        for ps in itertools.product(range(q), repeat=d):
            theta = tuple(Fraction(p, q) for p in ps)
            if theta not in points:
                points[theta] = _lattice_coords(theta)
    return points


def _exact_zero_scan(f: GroupRingElement):
    """The first exact zero of f^ on small rational lattices."""
    for theta, (q, ps) in _scan_points(f.d).items():
        if _zero_at(f.terms, q, ps):
            return theta
    return None


def _exact_zero_off_scan(f: GroupRingElement, points):
    """The first of points off the scan's lattices at which f^ is exactly
    zero; _exact_zero_scan has already cleared the points on them."""
    scanned = _scan_points(f.d)
    return next((t for t in points if t not in scanned and evaluate_exact_is_zero(f, t)), None)


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


def _check_grid_memory(m: int, d: int) -> None:
    # complex accumulator + phase scratch, with headroom
    need = (m ** d) * 16 * (d + 2)
    if need > mem_cap_bytes():
        raise MemoryCapError(
            f"grid {m}^{d} needs about {need/1e6:.0f} MB, over ALGDYN_MEM_CAP_MB"
        )


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

    w = _exact_zero_scan(f)
    if w is not None:
        return TorusCertificate(
            NOT_INVERTIBLE, m, 0.0, lip, -lip / (2 * m),
            witness=w, note="exact zero at rational point",
        )

    _check_grid_memory(m, f.d)
    exps, coefs = _term_arrays(f)
    vals = _kernels.grid_abs_values(exps, coefs, m, 0.0)
    idx = int(np.argmin(vals))
    grid_min = float(vals[idx])
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
    coords = []
    rem = idx
    for _ in range(f.d):
        coords.append(rem % m)
        rem //= m
    coords.reverse()
    near = [tuple(Fraction(c, m).limit_denominator(denom) for c in coords)
            for denom in (2, 3, 4, 6, 8, 12)]
    w = _exact_zero_off_scan(f, near)
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


# Fraction-in, Fraction-out convolutions on the integer core; the package no
# longer calls them, but perfbench/tracing.py wraps both by name.
def conv_with_element(g: dict[tuple[int, ...], Fraction], f: GroupRingElement) -> dict:
    (num,), den = _sparse.scale([g])
    return _sparse.unscale(_sparse.conv(num, f.terms), den)


def conv_frac(a: dict, b: dict) -> dict:
    (na, nb), den = _sparse.scale([a, b])
    return _sparse.unscale(_sparse.conv(na, nb), den * den)


def _residual(g: dict[tuple[int, ...], int], den: int, f: GroupRingElement) -> Fraction:
    """||delta - (g/den)*f||_1 for integer numerators g, exact."""
    prod = _sparse.conv(g, f.terms)
    e0 = (0,) * f.d
    prod[e0] = prod.get(e0, 0) - den
    return Fraction(_sparse.l1(prod), den)


def _monomial_unit_inverse(f: GroupRingElement) -> L1Approximant | None:
    if f.num_terms() == 1:
        (e, c), = f.terms.items()
        if abs(c) == 1:
            inv_e = tuple(-x for x in e)
            return L1Approximant(f.d, {inv_e: c}, 1, tail_bound=0.0,
                                 residual=Fraction(0), converged=True)
    return None


def l1_inverse(
    f: GroupRingElement,
    tol: float = 1e-10,
    radius_cap: int = 40,
    cert: TorusCertificate | None = None,
) -> L1Approximant:
    """Truncated inverse of f in l1(Z^d) with an exact residual certificate.

    Seeds coefficients by sampling 1/f^ on a uniform grid and applying the
    inverse discrete Fourier transform, truncates to the max-norm ball of
    the given radius, then refines by g <- g(2 delta - f g), requantized
    to 2^-bits, on integer numerators until the exact residual drops below
    tol, for at most NEWTON_MAX_ITER steps.  If tol cannot be met within
    the radius the best approximant is returned with converged=False and
    its achieved residual.
    """
    unit = _monomial_unit_inverse(f)
    if unit is not None:
        return unit
    if cert is None:
        cert = certify_invertible(f)
    if cert.verdict != INVERTIBLE:
        raise NotInvertibleError(f"input not certified invertible: {cert.verdict}")

    d = f.d
    m = 64
    while m < 2 * radius_cap + 2 or (d == 1 and m < 4 * radius_cap):
        m *= 2
    if d == 3:
        m = min(m, 128)
    _check_grid_memory(m, d)

    vals = _kernels.grid_values(*_term_arrays(f), m, 0.0)
    coef = np.fft.fftn(1.0 / vals) / (m ** d)

    # the float seed is dyadic: put every coefficient over one 2^shift
    seed: dict[tuple[int, ...], tuple[int, int]] = {}
    for e in ball(d, radius_cap):
        v = float(coef[tuple(x % m for x in e)].real)
        if v != 0.0:
            seed[e] = v.as_integer_ratio()
    shift = max((q.bit_length() - 1 for _, q in seed.values()), default=0)
    g = {e: p << (shift + 1 - q.bit_length()) for e, (p, q) in seed.items()}
    den = 1 << shift

    bits = max(64, 2 * int(math.ceil(-math.log2(max(tol, 1e-300)))) + 16)
    e0 = (0,) * d
    best, best_den = g, den
    best_r = _residual(g, den, f)
    it = 0
    while best_r > tol and it < NEWTON_MAX_ITER:
        it += 1
        # g <- g (2 delta - f g), truncated and requantized to 2^-bits
        two_minus = {e: -c for e, c in _sparse.conv(g, f.terms).items()}
        two_minus[e0] = two_minus.get(e0, 0) + 2 * den
        g = {e: c for e, c in _sparse.conv(g, two_minus).items() if max(map(abs, e)) <= radius_cap}
        g, den = _sparse.requantize(g, den * den, bits), 1 << bits
        r = _residual(g, den, f)
        if r < best_r:
            best, best_den, best_r = g, den, r
        else:
            break

    converged = best_r <= tol
    norm = Fraction(_sparse.l1(best), best_den)
    tail = float(best_r * norm / (1 - best_r)) if best_r < 1 else math.inf
    return L1Approximant(d, best, best_den, tail_bound=tail, residual=best_r, converged=converged)


def matrix_l1_inverse(A: GroupRingMatrix, tol: float = 1e-10, radius_cap: int = 40) -> MatrixL1Inverse:
    """Entrywise truncated inverse of a square matrix over l1(Z^d).

    Uses the adjugate route G = g_det adj(A) with g_det the truncated
    inverse of det(A) to tol / k, so every entry shares g_det's
    denominator.  Since adj(A) A = det(A) I exactly, G A = (g_det det(A)) I
    and I - G A is the diagonal matrix with every diagonal entry
    delta - g_det det(A); its sum-of-entries l1 norm is therefore exactly
    k * r with r = ||delta - g_det det(A)||_1, the residual l1_inverse
    already computed.  That exact residual is reported; when it exceeds
    tol the result carries converged=False.  No matrix-level refinement
    follows.
    """
    if not A.is_square():
        raise ValueError("matrix must be square")
    k = A.rows
    det = A.det()
    det_cert = certify_invertible(det)
    if det_cert.verdict != INVERTIBLE:
        raise NotInvertibleError(f"determinant not certified invertible: {det_cert.verdict}")

    gdet = l1_inverse(det, tol / k, radius_cap, cert=det_cert)
    den = gdet.den
    adj = A.adjugate()
    G = [[_sparse.conv(gdet.nums, adj.entries[i][j].terms) for j in range(k)] for i in range(k)]
    residual = k * gdet.residual
    converged = residual <= tol

    norm_g = Fraction(sum(_sparse.l1(cell) for row in G for cell in row), den)
    tail = float(residual * norm_g / (1 - residual)) if residual < 1 else math.inf
    entries = [
        [
            L1Approximant(A.d, G[i][j], den, tail_bound=tail, residual=residual,
                          converged=converged)
            for j in range(k)
        ]
        for i in range(k)
    ]
    return MatrixL1Inverse(entries, residual, converged, tail, det_cert)
