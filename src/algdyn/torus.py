"""Dual-torus analysis: certified nonvanishing and truncated l1 inverses.

A Laurent polynomial f over Z^d is invertible in the convolution algebra
l1(Z^d) exactly when its Fourier series f^ has no zero on the d-torus
(Wiener's lemma).  This module makes that criterion checkable:

* certify_invertible scans a uniform grid with one FFT, bounds the
  variation of f^ between grid points by an explicit Lipschitz constant,
  and only returns the verdict Invertible when the margin exceeds the
  FFT's rounding bound.  NotInvertible
  is only returned with an exact zero witness at a rational point,
  confirmed in integer cyclotomic arithmetic.  Everything else is Unknown.

* l1_inverse produces a finitely supported rational approximation g of
  f^-1 whose residual ||delta - g*f||_1 is computed in exact rational
  arithmetic; the residual yields an a posteriori bound on ||f^-1 - g||_1.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .groupring import (
    GroupRingElement,
    GroupRingMatrix,
    TorusPoint,
    ball,
)

DEFAULT_GRID = {1: 1024, 2: 256, 3: 64}

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
class TorusCertificate:
    """Outcome of a nonvanishing scan of f^ on the d-torus.

    grid_min is the smallest computed |f^| on the grid and margin =
    grid_min - lipschitz/(2*grid_size).  Every computed grid value is within
    the guard of _kernels.grid_error_bound of the exact one (a proof for
    power-of-two grid sizes), so Invertible is returned only when margin
    exceeds that guard, and then margin - guard is a lower bound for |f^|
    over the whole torus.  A NotInvertible verdict carries an exact
    rational zero of f^ as witness.
    """

    verdict: str
    grid_size: int
    grid_min: float
    lipschitz: float
    margin: float
    witness: tuple[Fraction, ...] | None = None
    note: str = ""

    def to_obj(self) -> dict:
        return {
            "verdict": self.verdict,
            "grid_size": self.grid_size,
            "grid_min": self.grid_min,
            "lipschitz": self.lipschitz,
            "margin": self.margin,
            "witness": None if self.witness is None else [str(w) for w in self.witness],
            "note": self.note,
        }


@dataclass
class L1Approximant:
    """Finitely supported rational function on Z^d standing for an l1 element.

    tail_bound, when known, bounds the l1 mass ||true - this||_1 of the
    discarded part.  For inverses it is derived a posteriori from the exact
    residual: if r = ||delta - g*f||_1 < 1 then ||f^-1 - g||_1 <=
    r*||g||_1/(1-r).
    """

    d: int
    terms: dict[tuple[int, ...], Fraction]
    tail_bound: float | None = None
    residual: Fraction | None = None
    converged: bool = True

    def l1_norm(self) -> Fraction:
        return sum((abs(c) for c in self.terms.values()), Fraction(0))

    def coefficient(self, e) -> Fraction:
        if isinstance(e, int):
            e = (e,)
        return self.terms.get(tuple(e), Fraction(0))

    def support_radius(self) -> int:
        return max((max(abs(x) for x in e) for e in self.terms), default=0)

    def as_floats(self) -> dict[tuple[int, ...], float]:
        return {e: float(c) for e, c in self.terms.items()}

    def to_obj(self) -> dict:
        return {
            "d": self.d,
            "terms": [
                {"exp": list(e), "coef": str(self.terms[e])} for e in sorted(self.terms)
            ],
            "tail_bound": self.tail_bound,
            "residual": None if self.residual is None else str(self.residual),
            "converged": self.converged,
        }


@dataclass
class MatrixL1Inverse:
    entries: list[list[L1Approximant]]
    residual: Fraction
    converged: bool
    tail_bound: float | None
    det_certificate: TorusCertificate | None = None

    @property
    def k(self) -> int:
        return len(self.entries)


# -- evaluation ------------------------------------------------------------


def _theta_tuple(f: GroupRingElement, theta) -> tuple[float, ...]:
    if isinstance(theta, TorusPoint):
        t = theta.theta
    elif isinstance(theta, (int, float, Fraction)):
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


def _cyclotomic(q: int, _cache: dict = {}) -> list[int]:
    """Integer coefficients of the q-th cyclotomic polynomial."""
    if q in _cache:
        return _cache[q]
    # (x^q - 1) / prod_{d | q, d < q} Phi_d, by exact monic division
    poly = [-1] + [0] * (q - 1) + [1]
    for dd in range(1, q):
        if q % dd == 0:
            poly = _polydiv_exact(poly, _cyclotomic(dd))
    _cache[q] = poly
    return poly


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    out = [0] * (dn - dd + 1)
    for i in range(dn - dd, -1, -1):
        c = num[i + dd]
        assert c % den[dd] == 0
        c //= den[dd]
        out[i] = c
        for j in range(dd + 1):
            num[i + j] -= c * den[j]
    assert all(v == 0 for v in num)
    return out


def evaluate_exact_is_zero(f: GroupRingElement, theta: tuple[Fraction, ...]) -> bool:
    """Whether f^(theta) is exactly zero, for rational theta.

    Reduces sum_n f_n zeta^(n.p) modulo the cyclotomic polynomial of the
    common denominator; all arithmetic is over the integers.
    """
    if f.is_zero():
        return True
    qs = [Fraction(t).denominator for t in theta]
    q = 1
    for v in qs:
        q = q * v // math.gcd(q, v)
    if q > 256:
        raise ValueError("rational point denominator too large for exact check")
    ps = [int(Fraction(t) * q) % q for t in theta]
    acc = [0] * q
    for e, c in f.terms.items():
        idx = sum(n * p for n, p in zip(e, ps)) % q
        acc[idx] += c
    if q == 1:
        return acc[0] == 0
    # remainder of acc(x) mod Phi_q(x)
    phi = _cyclotomic(q)
    deg = len(phi) - 1
    rem = list(acc)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        for j in range(deg + 1):
            rem[i - deg + j] -= c * phi[j]
    return all(v == 0 for v in rem[:deg])


def _exact_zero_scan(f: GroupRingElement, extra: list[tuple[Fraction, ...]] | None = None):
    """Search small rational lattices for an exact zero of f^."""
    d = f.d
    denominators = [1, 2, 3, 4, 6] if d <= 2 else [1, 2, 3, 4]
    seen: set[tuple[Fraction, ...]] = set()
    candidates: list[tuple[Fraction, ...]] = []
    for q in denominators:
        grid = [Fraction(p, q) for p in range(q)]
        stack: list[tuple[Fraction, ...]] = [()]
        for _ in range(d):
            stack = [t + (g,) for t in stack for g in grid]
        for t in stack:
            if t not in seen:
                seen.add(t)
                candidates.append(t)
    for t in extra or []:
        if t not in seen:
            seen.add(t)
            candidates.append(t)
    for t in candidates:
        if evaluate_exact_is_zero(f, t):
            return t
    return None


# -- certification -----------------------------------------------------------


def _term_arrays(f: GroupRingElement) -> tuple[np.ndarray, np.ndarray]:
    exps = sorted(f.terms)
    e = np.array(exps, dtype=np.int64).reshape(len(exps), f.d)
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

    # near-zero minimum: try an exact confirmation at a nearby nice rational
    coords = []
    rem = idx
    for _ in range(f.d):
        coords.append(rem % m)
        rem //= m
    coords.reverse()
    near = []
    for denom in (2, 3, 4, 6, 8, 12):
        near.append(tuple(Fraction(c, m).limit_denominator(denom) for c in coords))
    w = _exact_zero_scan(f, extra=near)
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


def _delta(d: int) -> dict[tuple[int, ...], Fraction]:
    return {(0,) * d: Fraction(1)}


def conv_with_element(g: dict[tuple[int, ...], Fraction], f: GroupRingElement) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for eg, cg in g.items():
        for ef, cf in f.terms.items():
            k = tuple(a + b for a, b in zip(eg, ef))
            v = out.get(k, Fraction(0)) + cg * cf
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def conv_frac(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(k, Fraction(0)) + ca * cb
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def _residual(g: dict, f: GroupRingElement) -> Fraction:
    """||delta - g*f||_1, exact."""
    prod = conv_with_element(g, f)
    e0 = (0,) * f.d
    prod[e0] = prod.get(e0, Fraction(0)) - 1
    return sum((abs(c) for c in prod.values()), Fraction(0))


def _truncate(g: dict, radius: int) -> dict:
    return {e: c for e, c in g.items() if max(abs(x) for x in e) <= radius and c}


def _quantize(g: dict, bits: int) -> dict:
    q = 1 << bits
    out = {}
    for e, c in g.items():
        v = Fraction(round(c * q), q)
        if v:
            out[e] = v
    return out


def _monomial_unit_inverse(f: GroupRingElement) -> L1Approximant | None:
    if f.num_terms() == 1:
        (e, c), = f.terms.items()
        if abs(c) == 1:
            inv_e = tuple(-x for x in e)
            return L1Approximant(f.d, {inv_e: Fraction(c)}, tail_bound=0.0,
                                 residual=Fraction(0), converged=True)
    return None


def l1_inverse(
    f: GroupRingElement,
    tol: float = 1e-10,
    radius_cap: int = 40,
    cert: TorusCertificate | None = None,
    max_iter: int = 25,
) -> L1Approximant:
    """Truncated inverse of f in l1(Z^d) with an exact residual certificate.

    Seeds coefficients by sampling 1/f^ on a uniform grid and applying the
    inverse discrete Fourier transform, truncates to the max-norm ball of
    the given radius, then refines by g <- g(2 delta - f g) in exact
    rational arithmetic until the exact residual drops below tol.  If tol
    cannot be met within the radius the best approximant is returned with
    converged=False and its achieved residual.
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

    g: dict[tuple[int, ...], Fraction] = {}
    for e in ball(d, radius_cap):
        idx = tuple(x % m for x in e)
        v = float(coef[idx].real)
        if v != 0.0:
            g[e] = Fraction(v)

    bits = max(64, 2 * int(math.ceil(-math.log2(max(tol, 1e-300)))) + 16)
    best = g
    best_r = _residual(g, f)
    it = 0
    while best_r > tol and it < max_iter:
        it += 1
        two_minus = {e: -c for e, c in conv_with_element(g, f).items()}
        e0 = (0,) * d
        two_minus[e0] = two_minus.get(e0, Fraction(0)) + 2
        g = conv_frac(g, two_minus)
        g = _quantize(_truncate(g, radius_cap), bits)
        r = _residual(g, f)
        if r < best_r:
            best, best_r = g, r
        else:
            break

    converged = best_r <= tol
    tail = float(best_r * sum((abs(c) for c in best.values()), Fraction(0)) / (1 - best_r)) if best_r < 1 else None
    return L1Approximant(d, best, tail_bound=tail, residual=best_r, converged=converged)


def _matrix_residual(G: list[list[dict]], A: GroupRingMatrix) -> Fraction:
    """||I - G A||_1 with the sum-of-entries l1 norm, exact."""
    k = A.rows
    total = Fraction(0)
    for i in range(k):
        for j in range(k):
            acc: dict[tuple[int, ...], Fraction] = {}
            for t in range(k):
                for e, c in conv_with_element(G[i][t], A.entries[t][j]).items():
                    v = acc.get(e, Fraction(0)) + c
                    if v:
                        acc[e] = v
                    else:
                        del acc[e]
            if i == j:
                e0 = (0,) * A.d
                acc[e0] = acc.get(e0, Fraction(0)) - 1
            total += sum((abs(c) for c in acc.values()), Fraction(0))
    return total


def matrix_l1_inverse(
    A: GroupRingMatrix,
    tol: float = 1e-10,
    radius_cap: int = 40,
    cert: TorusCertificate | None = None,
) -> MatrixL1Inverse:
    """Entrywise truncated inverse of a square matrix over l1(Z^d).

    Uses the adjugate route G = adj(A) * det(A)^-1, so the matrix residual
    ||I - G A||_1 collapses to k * ||delta - det * g_det||_1 and is fully
    controlled by the scalar inverse; a Newton sweep G <- G(2I - A G)
    follows only if that is not already below tol.
    """
    if not A.is_square():
        raise ValueError("matrix must be square")
    k = A.rows
    det = A.det()
    det_cert = cert if cert is not None else certify_invertible(det)
    if det_cert.verdict != INVERTIBLE:
        raise NotInvertibleError(f"determinant not certified invertible: {det_cert.verdict}")

    gdet = l1_inverse(det, tol / k, radius_cap, cert=det_cert)
    adj = A.adjugate()
    G = [
        [conv_with_element(gdet.terms, adj.entries[i][j]) for j in range(k)]
        for i in range(k)
    ]
    residual = _matrix_residual(G, A)
    converged = residual <= tol

    norm_g = sum(
        (abs(c) for row in G for cell in row for c in cell.values()), Fraction(0)
    )
    tail = float(residual * norm_g / (1 - residual)) if residual < 1 else None
    entries = [
        [
            L1Approximant(A.d, G[i][j], tail_bound=tail, residual=residual, converged=converged)
            for j in range(k)
        ]
        for i in range(k)
    ]
    return MatrixL1Inverse(entries, residual, converged, tail, det_cert)
