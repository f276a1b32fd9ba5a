"""Homoclinic points of expansive shift actions, and their pairings.

For a square presenting matrix A invertible in the l1 algebra, the group
of homoclinic points is the reduction mod 1 of the integer-vector preimages
under right multiplication by A*; concretely, every homoclinic point is
m (A*)^-1 reduced mod 1 for an integer group-ring row vector m, and the map
m -> point identifies the homoclinic group with (ZG)^k/(ZG)^k A*.

Points carry a truncated rational lift, stored as integer numerators over
the denominator of the inverse it came from, plus a tail bound inherited
from the inverse's residual certificate, so membership, summability, and
pairing computations all come with explicit error control.  The lifted
point type is shared with the shadows built in independence.  Mod-1
representatives live in [-1/2, 1/2), making the torus distance to zero
equal to |value|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

import numpy as np

from .groupring import (
    GroupRingElement,
    GroupRingMatrix,
    _as_exponent,
    enumerate_zd,
    norm_sites,
)
from . import _sparse, torus
from ._report import Report, plain


@dataclass
class LiftedPoint:
    """A point of (T^k)^(Z^d) given by a truncated exact lift.

    Component j of the lift is nums[j][e] / den at site e, exactly; lift is
    a read-only Fraction view of it.  The true point differs from the
    reduction mod 1 of the lift by at most tail_bound in l1 mass.  With a
    periodic basis B (d x d, full rank) the point is invariant under B Z^d:
    the stored sites are representatives with B^-1 e in [0,1)^d, and every
    read goes through the fold onto them.
    """

    nums: list[dict[tuple[int, ...], int]]
    den: int
    tail_bound: float
    d: int
    periodic_basis: list[list[int]] | None = field(default=None, kw_only=True)

    @functools.cached_property
    def lift(self) -> list[dict[tuple[int, ...], Fraction]]:
        return [_sparse.unscale(comp, self.den) for comp in self.nums]

    @functools.cached_property
    def _fold(self):
        return _lattice_fold(self.periodic_basis)

    @property
    def k(self) -> int:
        return len(self.nums)

    def support(self) -> list[tuple[int, ...]]:
        return sorted(set().union(*self.nums))

    def _at(self, e) -> tuple[int, ...]:
        """The numerators at site e, read through the fold."""
        e = _as_exponent(e, self.d)
        if self.periodic_basis is not None:
            e = self._fold(e)
        return tuple(comp.get(e, 0) for comp in self.nums)

    def lift_at(self, e) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self._at(e))

    def value(self, e) -> tuple[float, ...]:
        """Coordinates at site e, reduced to [-1/2, 1/2)."""
        den = self.den
        return tuple(_sparse.center(n, den) / den for n in self._at(e))

    def rho_to_zero(self, e) -> float:
        return max(abs(v) for v in self.value(e))

    def is_zero(self, tol: float = 1e-9) -> bool:
        return all(self.rho_to_zero(e) <= tol for e in self.support())

    def float_lift(self) -> list[dict[tuple[int, ...], float]]:
        den = self.den
        return [{e: n / den for e, n in comp.items()} for comp in self.nums]

    def lift_array(self, sites) -> np.ndarray:
        """The float lift nums[j][e] / den at each site tuple e (0 off the
        support, read through the fold), as a (len(sites), k) array."""
        if self.periodic_basis is not None:
            sites = map(self._fold, sites)
        den = self.den
        return np.array([[comp.get(e, 0) / den for comp in self.nums] for e in sites]).reshape(-1, self.k)

    def site_distances(self) -> tuple[dict[tuple[int, ...], int], int]:
        """Per support site, the torus distance to zero as (numerator, den)."""
        den = self.den
        return {
            e: max(abs(_sparse.center(comp.get(e, 0), den)) for comp in self.nums)
            for e in set().union(*self.nums)
        }, den

    def rho_sum(self) -> Fraction:
        """Sum over the support of the torus distance to zero, exact."""
        dist, den = self.site_distances()
        return Fraction(sum(dist.values()), den)


def _basis_inverse(B: list[list[int]]) -> tuple[list[list[int]], int]:
    """B^-1 as an integer matrix P over one denominator D > 0."""
    try:
        return _sparse.int_inverse(B)
    except ValueError:
        raise ValueError(f"the periodic basis {B} must have full rank") from None


def _lattice_fold(B: list[list[int]], inverse: tuple[list[list[int]], int] | None = None):
    """The map taking a site e to its representative with B^-1 e in
    [0,1)^d, computed exactly.  B is inverted once (or its given inverse
    P / D is used), so floor(B^-1 e) is (P e) // D."""
    P, D = inverse or _basis_inverse(B)

    def fold(e: tuple[int, ...]) -> tuple[int, ...]:
        ks = [sum(map(mul, row, e)) // D for row in P]
        return tuple(v - sum(map(mul, row, ks)) for v, row in zip(e, B))

    return fold


def _lift_sum(x: LiftedPoint, y: LiftedPoint, sign: int, sites=None) -> tuple[list[dict], int]:
    """Componentwise x + sign * y over lcm(den_x, den_y), exact: on the union
    of the supports, or at the given sites, read through each point's fold."""
    den = math.lcm(x.den, y.den)
    fx, fy = den // x.den, den // y.den
    if sites is None:
        return [
            _sparse.add_to({e: n * fx for e, n in cx.items()}, {e: n * fy for e, n in cy.items()}, sign)
            for cx, cy in zip(x.nums, y.nums)
        ], den
    at = [(e, x._at(e), y._at(e)) for e in sites]
    return [{e: a[j] * fx + sign * b[j] * fy for e, a, b in at} for j in range(x.k)], den


@dataclass
class HomoclinicPoint(LiftedPoint):
    """Truncated lift of a homoclinic point of the action presented by A.

    provenance records the integer vector m with lift ~= m (A*)^-1, and
    inverse the truncated (A*)^-1 the lift was computed from, so every
    consumer reads the inverse a point rests on from the point; d is A.d.
    """

    d: int = field(init=False)
    A: GroupRingMatrix
    provenance: list[GroupRingElement]
    inverse: torus.MatrixL1Inverse = field(repr=False)

    def __post_init__(self):
        self.d = self.A.d

    def __add__(self, other: "HomoclinicPoint") -> "HomoclinicPoint":
        if self.A != other.A or self.inverse != other.inverse:
            raise ValueError("points must share the presenting matrix and the inverse they came from")
        nums, den = _lift_sum(self, other, 1)
        prov = [p + q for p, q in zip(self.provenance, other.provenance)]
        return HomoclinicPoint(nums, den, self.tail_bound + other.tail_bound, self.A, prov, self.inverse)

    def translate(self, t) -> "HomoclinicPoint":
        """The point shifted by t (the group element u^t acting)."""
        t = _as_exponent(t, self.d)
        nums = [
            {tuple(a + b for a, b in zip(e, t)): c for e, c in comp.items()}
            for comp in self.nums
        ]
        prov = [p.shift(t) for p in self.provenance]
        return HomoclinicPoint(nums, self.den, self.tail_bound, self.A, prov, self.inverse)

    def to_obj(self) -> dict:
        den = self.den
        return {
            "k": self.k,
            "d": self.d,
            "tail_bound": plain(self.tail_bound),
            "provenance": plain(self.provenance),
            "lift": [
                [
                    {"exp": list(e), "value": _sparse.center(n, den) / den}
                    for e, n in sorted(comp.items())
                ]
                for comp in self.nums
            ],
        }


@functools.lru_cache(maxsize=32)
def _star_inverse(A: GroupRingMatrix, tol: float, radius_cap: int) -> torus.MatrixL1Inverse:
    return torus.matrix_l1_inverse(A.star(), tol, radius_cap)


def fundamental_homoclinic(
    A: GroupRingMatrix, tol: float = 1e-10, radius_cap: int = 40
) -> list[HomoclinicPoint]:
    """One generator of the homoclinic group per standard basis row.

    Point i is group_element(A, e_i), the reduction mod 1 of row i of
    (A*)^-1, truncated; together they generate the homoclinic group as a
    module over the group ring.
    """
    k = A.rows
    return [group_element(A, [int(j == i) for j in range(k)], tol, radius_cap) for i in range(k)]


def _as_vector(m, k: int, d: int) -> list[GroupRingElement]:
    """m as a row vector of k group-ring elements; a bare element or int
    counts as a vector of length 1, and int components become constants."""
    if isinstance(m, (GroupRingElement, int)):
        m = [m]
    m = list(m)
    if len(m) != k:
        raise ValueError(f"vector length {len(m)} != k = {k}")
    return [GroupRingElement.constant(d, c) if isinstance(c, int) else c for c in m]


def group_element(
    A: GroupRingMatrix, m, tol: float = 1e-10, radius_cap: int = 40
) -> HomoclinicPoint:
    """The homoclinic point with provenance m: reduction mod 1 of m (A*)^-1.

    Linear in m; vectors in the image of right multiplication by A* map to
    the zero point (within the tail bound).
    """
    return _point(A, _star_inverse(A, tol, radius_cap), m)


def _point(A: GroupRingMatrix, inv: torus.MatrixL1Inverse, m) -> HomoclinicPoint:
    """m inv reduced mod 1, for inv a truncated (A*)^-1."""
    mv = _as_vector(m, inv.k, A.d)
    nums = _sparse.vecmat([c.terms for c in mv], inv.nums)
    norm_m = sum(comp.l1_norm() for comp in mv)
    tail = inv.tail_bound * max(1, norm_m)
    return HomoclinicPoint(nums, inv.den, tail, A, mv, inv)


def annihilation_residual(x: HomoclinicPoint) -> float:
    """Max distance of (lift . A*) from integer vectors; membership check.

    A point of the presented system must satisfy lift . A* = 0 mod 1; for a
    truncated homoclinic lift this residual is controlled by the tail bound
    times ||A||_1.
    """
    cols = _sparse.vecmat(x.nums, [[e.terms for e in row] for row in x.A.star().entries])
    return max((abs(_sparse.center(v, x.den)) for acc in cols for v in acc.values()), default=0) / x.den


def membership_tolerance(A: GroupRingMatrix, tol: float = 1e-10) -> float:
    return 10.0 * tol * A.l1_norm()


def _phases(nums: list[dict], den: int, phi: list[GroupRingElement]):
    """s -> sum_j sum_t lift_j(t - s) phi_j(t), the phase of <s.x, phi> for
    the lift nums / den: sum_j nums_j * phi_j* read at -s, exact before its
    one division by den."""
    (acc,) = _sparse.vecmat(nums, [[p.star().terms] for p in phi])
    return lambda s: acc.get(tuple(-v for v in s), 0) / den


def _mismatch(phase: float) -> complex:
    ang = 2.0 * math.pi * phase
    return complex(math.cos(ang) - 1.0, math.sin(ang))


def psi(x: HomoclinicPoint, phi, window) -> dict[tuple[int, ...], complex]:
    """The character mismatch function s -> <s.x, phi> - 1 on the window."""
    phase = _phases(x.nums, x.den, _as_vector(phi, x.k, x.d))
    return {s: _mismatch(phase(s)) for s in norm_sites(window, x.d)}


@dataclass
class Delta1Certificate(Report):
    rho_sum: float
    tail_bound: float
    total: float
    finite: bool


def delta1_membership(x: HomoclinicPoint) -> Delta1Certificate:
    """Summability certificate: sum of torus distances to zero plus tail.

    Finiteness of this sum places the point in the l1-homoclinic group,
    which for expansive actions is the whole homoclinic group.  Without a
    certified tail bound (inverse residual >= 1) the total is infinite and
    nothing is certified.
    """
    s = float(x.rho_sum())
    tail = float(x.tail_bound)
    return Delta1Certificate(s, tail, s + tail, finite=math.isfinite(tail))


def summable_metric_distance(
    x: HomoclinicPoint,
    y: HomoclinicPoint | None = None,
    terms: int = 64,
) -> float:
    """The summable translation-invariant metric between two points.

    rho(x, y) = sum_j sum_i 2^-j |Psi_{x-y,e_i}(s_j)| over the standard
    basis rows e_i, with the sites s_j enumerated in a fixed spiral order on
    Z^d; truncation after `terms` sites contributes at most k 2^(1-terms).
    """
    if y is not None:
        if x.A != y.A:
            raise ValueError("points must share the presenting matrix")
        diff, den = _lift_sum(x, y, -1)
    else:
        diff, den = x.nums, x.den
    k, d = x.k, x.d
    phases = [_phases(diff, den, _as_vector([int(j == i) for j in range(k)], k, d)) for i in range(k)]
    gen = enumerate_zd(d)
    total = 0.0
    for j in range(1, terms + 1):
        s = next(gen)
        w = 2.0 ** (-j)
        for phase in phases:
            total += w * abs(_mismatch(phase(s)))
    return total


@dataclass
class PairingReport(Report):
    window: list[tuple[int, ...]]
    max_discrepancy: float


def pairing_symmetry_check(
    A: GroupRingMatrix,
    m1,
    m2,
    window,
    tol: float = 1e-12,
    radius_cap: int = 40,
) -> PairingReport:
    """Cross-pairing symmetry between the dual module and the homoclinic group.

    With x2 = m2 (A*)^-1 mod 1 (a point of the system presented by A) and
    x1 = m1 A^-1 mod 1 (a point of the system presented by A*), the two
    mismatch functions satisfy Psi_{x2,m1}(s) = Psi_{x1,m2}(-s); the report
    carries the maximal observed discrepancy over the window.
    """
    x2 = group_element(A, m2, tol, radius_cap)
    x1 = group_element(A.star(), m1, tol, radius_cap)
    win = norm_sites(window, A.d)
    lhs = psi(x2, x1.provenance, win)
    rhs = psi(x1, x2.provenance, [tuple(-v for v in s) for s in win])  # in the order of win
    return PairingReport(win, max((abs(a - b) for a, b in zip(lhs.values(), rhs.values())), default=0.0))
