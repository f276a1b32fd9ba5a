"""Homoclinic points of expansive shift actions, and their pairings.

For a square presenting matrix A invertible in the l1 algebra, the group
of homoclinic points is the reduction mod 1 of the integer-vector preimages
under right multiplication by A*; concretely, every homoclinic point is
m (A*)^-1 reduced mod 1 for an integer group-ring row vector m, and the map
m -> point identifies the homoclinic group with (ZG)^k/(ZG)^k A*.

Points carry a truncated rational lift plus a tail bound inherited from the
inverse's residual certificate, so membership, summability, and pairing
computations all come with explicit error control.  Mod-1 representatives
live in [-1/2, 1/2), making the torus distance to zero equal to |value|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .groupring import (
    GroupRingElement,
    GroupRingMatrix,
    enumerate_zd,
    frac_center,
)
from . import _sparse, torus


@dataclass
class HomoclinicPoint:
    """Truncated lift of a homoclinic point of the action presented by A.

    lift[j] maps exponent vectors to exact rational coefficients; the true
    point differs from the reduction mod 1 of the lift by at most tail_bound
    in l1 mass.  provenance records the integer vector m with lift ~=
    m (A*)^-1.
    """

    A: GroupRingMatrix
    lift: list[dict[tuple[int, ...], Fraction]]
    tail_bound: float
    provenance: list[GroupRingElement]

    @property
    def k(self) -> int:
        return len(self.lift)

    @property
    def d(self) -> int:
        return self.A.d

    def support(self) -> list[tuple[int, ...]]:
        s = set()
        for comp in self.lift:
            s.update(comp)
        return sorted(s)

    def value(self, e) -> tuple[float, ...]:
        """Coordinates at site e, reduced to [-1/2, 1/2)."""
        if isinstance(e, int):
            e = (e,)
        e = tuple(e)
        return tuple(float(frac_center(comp.get(e, Fraction(0)))) for comp in self.lift)

    def rho_to_zero(self, e) -> float:
        return max(abs(v) for v in self.value(e))

    def is_zero(self, tol: float = 1e-9) -> bool:
        return all(self.rho_to_zero(e) <= tol for e in self.support())

    def float_lift(self) -> list[dict[tuple[int, ...], float]]:
        return [{e: float(c) for e, c in comp.items()} for comp in self.lift]

    def site_distances(self) -> tuple[dict[tuple[int, ...], int], int]:
        """Per support site, the torus distance to zero as (numerator, den)."""
        comps, den = _sparse.scale(self.lift)
        dist = {}
        for e in set().union(*comps):
            dist[e] = max(abs(_sparse.center(comp.get(e, 0), den)) for comp in comps)
        return dist, den

    def rho_sum(self) -> Fraction:
        """Sum over the support of the torus distance to zero, exact."""
        dist, den = self.site_distances()
        return Fraction(sum(dist.values()), den)

    def __add__(self, other: "HomoclinicPoint") -> "HomoclinicPoint":
        if self.A != other.A:
            raise ValueError("points must share the presenting matrix")
        lift = _lift_sum(self.lift, other.lift, 1)
        prov = [p + q for p, q in zip(self.provenance, other.provenance)]
        return HomoclinicPoint(self.A, lift, self.tail_bound + other.tail_bound, prov)

    def translate(self, t) -> "HomoclinicPoint":
        """The point shifted by t (the group element u^t acting)."""
        if isinstance(t, int):
            t = (t,)
        t = tuple(t)
        lift = [
            {tuple(a + b for a, b in zip(e, t)): c for e, c in comp.items()}
            for comp in self.lift
        ]
        prov = [p.shift(t) for p in self.provenance]
        return HomoclinicPoint(self.A, lift, self.tail_bound, prov)

    def to_obj(self) -> dict:
        comps, den = _sparse.scale(self.lift)
        return {
            "k": self.k,
            "d": self.d,
            "tail_bound": _finite_or_none(self.tail_bound),
            "provenance": [p.to_obj() for p in self.provenance],
            "lift": [
                [
                    {"exp": list(e), "value": _sparse.center(n, den) / den}
                    for e, n in sorted(comp.items())
                ]
                for comp in comps
            ],
        }


def _lift_sum(a: list[dict], b: list[dict], sign: int) -> list[dict]:
    """Componentwise a + sign * b of two lifts, exact."""
    comps, den = _sparse.scale(a + b)
    k = len(a)
    return [
        _sparse.unscale(_sparse.add_to(dict(comps[j]), comps[k + j], sign), den)
        for j in range(k)
    ]


def _finite_or_none(v: float) -> float | None:
    return v if math.isfinite(v) else None


def _tail(inv: torus.MatrixL1Inverse) -> float:
    """The inverse's tail bound; inf when its residual certifies none."""
    return math.inf if inv.tail_bound is None else inv.tail_bound


@functools.lru_cache(maxsize=32)
def _star_inverse(A: GroupRingMatrix, tol: float, radius_cap: int) -> torus.MatrixL1Inverse:
    return torus.matrix_l1_inverse(A.star(), tol, radius_cap)


def fundamental_homoclinic(
    A: GroupRingMatrix, tol: float = 1e-10, radius_cap: int = 40
) -> list[HomoclinicPoint]:
    """One generator of the homoclinic group per standard basis row.

    Point i is the reduction mod 1 of row i of (A*)^-1, truncated; together
    they generate the homoclinic group as a module over the group ring.
    """
    inv = _star_inverse(A, tol, radius_cap)
    k = inv.k
    out = []
    for i in range(k):
        lift = [dict(inv.entries[i][j].terms) for j in range(k)]
        prov = [
            GroupRingElement.one(A.d) if j == i else GroupRingElement.zero(A.d)
            for j in range(k)
        ]
        out.append(HomoclinicPoint(A, lift, _tail(inv), prov))
    return out


def _as_vector(m, k: int, d: int) -> list[GroupRingElement]:
    if isinstance(m, GroupRingElement):
        m = [m]
    m = list(m)
    if len(m) != k:
        raise ValueError(f"vector length {len(m)} != k = {k}")
    out = []
    for comp in m:
        if isinstance(comp, int):
            comp = GroupRingElement.constant(d, comp)
        out.append(comp)
    return out


def group_element(
    A: GroupRingMatrix, m, tol: float = 1e-10, radius_cap: int = 40
) -> HomoclinicPoint:
    """The homoclinic point with provenance m: reduction mod 1 of m (A*)^-1.

    Linear in m; vectors in the image of right multiplication by A* map to
    the zero point (within the tail bound).
    """
    inv = _star_inverse(A, tol, radius_cap)
    k = inv.k
    mv = _as_vector(m, k, A.d)
    cells, den = _sparse.scale([cell.terms for row in inv.entries for cell in row])
    lift = []
    for j in range(k):
        acc: dict[tuple[int, ...], int] = {}
        for i in range(k):
            if not mv[i].is_zero():
                _sparse.add_to(acc, _sparse.conv(cells[i * k + j], mv[i].terms))
        lift.append(_sparse.unscale(acc, den))
    norm_m = sum(comp.l1_norm() for comp in mv)
    tail = _tail(inv) * max(1, norm_m)
    return HomoclinicPoint(A, lift, tail, mv)


def annihilation_residual(x: HomoclinicPoint, window=None) -> float:
    """Max distance of (lift . A*) from integer vectors; membership check.

    A point of the presented system must satisfy lift . A* = 0 mod 1; for a
    truncated homoclinic lift this residual is controlled by the tail bound
    times ||A||_1.
    """
    Astar = x.A.star()
    k = x.k
    comps, den = _sparse.scale(x.lift)
    worst = 0.0
    sites: set[tuple[int, ...]] = set()
    cols = []
    for j in range(k):
        acc: dict[tuple[int, ...], int] = {}
        for i in range(k):
            _sparse.add_to(acc, _sparse.conv(comps[i], Astar.entries[i][j].terms))
        cols.append(acc)
        sites.update(acc)
    if window is not None:
        sites = {tuple(e) if not isinstance(e, int) else (e,) for e in window}
    for e in sites:
        for acc in cols:
            v = acc.get(e)
            if v is not None:
                worst = max(worst, abs(_sparse.center(v, den)) / den)
    return worst


def membership_tolerance(A: GroupRingMatrix, tol: float = 1e-10) -> float:
    return 10.0 * tol * A.l1_norm()


def _phi_vector(phi, k: int, d: int) -> list[GroupRingElement]:
    if isinstance(phi, (GroupRingElement, int)):
        if k != 1:
            raise ValueError("scalar dual element given for k > 1")
        if isinstance(phi, int):
            phi = GroupRingElement.constant(d, phi)
        return [phi]
    return _as_vector(phi, k, d)


def _norm_sites(F, d: int) -> list[tuple[int, ...]]:
    out = []
    for s in F:
        if isinstance(s, int):
            if d != 1:
                raise ValueError("integer sites only valid when d=1")
            out.append((s,))
        else:
            out.append(tuple(int(v) for v in s))
    return out


def _pairing_exponent(lift: list[dict], phi: list[GroupRingElement], s: tuple[int, ...]) -> float:
    """Sum_j sum_t lift_j(t - s) phi_j(t): the phase of <s.x, phi>."""
    acc = 0.0
    for comp, p in zip(lift, phi):
        for t, c in p.terms.items():
            e = tuple(a - b for a, b in zip(t, s))
            v = comp.get(e)
            if v is not None:
                acc += c * float(v)
    return acc


def psi(x: HomoclinicPoint, phi, window) -> dict[tuple[int, ...], complex]:
    """The character mismatch function s -> <s.x, phi> - 1 on the window."""
    phiv = _phi_vector(phi, x.k, x.d)
    out = {}
    for s in _norm_sites(window, x.d):
        ang = 2.0 * math.pi * _pairing_exponent(x.lift, phiv, s)
        out[s] = complex(math.cos(ang) - 1.0, math.sin(ang))
    return out


@dataclass
class Delta1Certificate:
    rho_sum: float
    tail_bound: float
    total: float
    finite: bool

    def to_obj(self) -> dict:
        return {
            "rho_sum": self.rho_sum,
            "tail_bound": _finite_or_none(self.tail_bound),
            "total": _finite_or_none(self.total),
            "finite": self.finite,
        }


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
    W: list | None = None,
    terms: int = 64,
) -> float:
    """The summable translation-invariant metric between two points.

    rho(x, y) = sum_j sum_phi 2^-j |Psi_{x-y,phi}(s_j)| with the sites s_j
    enumerated in a fixed spiral order on Z^d; truncation after `terms`
    sites contributes at most |W| 2^(1-terms).
    """
    if y is not None:
        if x.A != y.A:
            raise ValueError("points must share the presenting matrix")
        diff = _lift_sum(x.lift, y.lift, -1)
    else:
        diff = x.lift
    k, d = x.k, x.d
    if W is None:
        W = [
            [GroupRingElement.one(d) if j == i else GroupRingElement.zero(d) for j in range(k)]
            for i in range(k)
        ]
    Wv = [_phi_vector(phi, k, d) for phi in W]
    gen = enumerate_zd(d)
    total = 0.0
    for j in range(1, terms + 1):
        s = next(gen)
        w = 2.0 ** (-j)
        for phiv in Wv:
            ang = 2.0 * math.pi * _pairing_exponent(diff, phiv, s)
            total += w * abs(complex(math.cos(ang) - 1.0, math.sin(ang)))
    return total


@dataclass
class PairingReport:
    window: list[tuple[int, ...]]
    max_discrepancy: float

    def to_obj(self) -> dict:
        return {
            "window": [list(e) for e in self.window],
            "max_discrepancy": self.max_discrepancy,
        }


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
    k, d = x2.k, A.d
    m1v = _as_vector(m1, k, d)
    m2v = _as_vector(m2, k, d)
    win = _norm_sites(window, d)
    lhs = psi(x2, m1v, win)
    rhs_sites = [tuple(-v for v in s) for s in win]
    rhs = psi(x1, m2v, rhs_sites)
    worst = 0.0
    for s in win:
        neg = tuple(-v for v in s)
        worst = max(worst, abs(lhs[s] - rhs[neg]))
    return PairingReport(win, worst)
