"""Homoclinic points of expansive shift actions.

For a square presenting matrix A invertible in the l1 algebra, the group
of homoclinic points is the reduction mod 1 of the integer-vector preimages
under right multiplication by A*; concretely, every homoclinic point is
m (A*)^-1 reduced mod 1 for an integer group-ring row vector m, and the map
m -> point identifies the homoclinic group with (ZG)^k/(ZG)^k A*.

Points carry a truncated rational lift, stored as a box of integer
numerators (_sparse.Box) over the denominator of the inverse it came from
(every product with the inverse is one slice-add per term of the small
factor), plus a tail bound inherited
from the inverse's residual certificate, so membership and summability
computations come with explicit error control.  The lifted point type is
shared with the shadows built in independence.  Mod-1 representatives live
in [-1/2, 1/2), making the torus distance to zero equal to |value|.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

import numpy as np

from .groupring import (
    GroupRingElement,
    GroupRingMatrix,
    _as_exponent,
    norm_sites,
)
from . import _sparse, torus
from ._report import Report, plain


@dataclass(eq=False)
class LiftedPoint:
    """A point of (T^k)^(Z^d) given by a truncated exact lift.

    Component j of the lift is nums.a[j][e - nums.lo] / den at site e,
    exactly: one box of numerators shared by the k components; other
    modules see it only through the readers.  The true point differs from the
    reduction mod 1 of the lift by at most tail_bound in l1 mass.  With a
    periodic basis B (d x d, full rank) the point is invariant under B Z^d:
    the stored sites are the representatives in the box nums.lo + [0, h)
    of a triangular basis of B Z^d with diagonal h, one per coset, and
    every read goes through the fold onto them.
    """

    nums: _sparse.Box
    den: int
    tail_bound: float
    d: int
    periodic_basis: list[list[int]] | None = field(default=None, kw_only=True)

    @classmethod
    def from_point(cls, x: "LiftedPoint", *args, basis=None, lattice=None) -> "LiftedPoint":
        """A cls (with its own fields args) over the lift of x, summed over the cosets of
        B Z^d when a basis B is given (which keeps the l1 tail bound); the box of
        representatives starts at the corner of x's box, so a lift that fits in
        one period keeps its sites.  lattice is _triangular_basis(B), when the
        caller has it; the fold built from it serves every later read."""
        out = cls(x.nums, x.den, x.tail_bound, x.d, *args, periodic_basis=basis)
        if basis is not None:
            lo = x.nums.lo
            idx = x._support()
            out._fold = _lattice_fold(lattice or _triangular_basis(basis), lo)
            reps = out._fold(x.nums.sites(idx)) - lo
            out.nums = _sparse.box_zeros((x.k,), lo, [max(c, default=-1) + 1 for c in reps.T])
            np.add.at(out.nums.a, (slice(None), *reps.astype(np.intp).T), x.nums.a[(slice(None), *idx)])
        return out

    @classmethod
    def zero(cls, k: int, d: int) -> "LiftedPoint":
        return cls(_sparse.box_zeros((k,), (0,) * d, (0,) * d), 1, 0.0, d)

    @functools.cached_property
    def _fold(self):
        return _lattice_fold(_triangular_basis(self.periodic_basis), self.nums.lo)

    @property
    def k(self) -> int:
        return len(self.nums.a)

    def _support(self) -> tuple[np.ndarray, ...]:
        """The box indices of the sites where some component is nonzero."""
        return np.nonzero((self.nums.a != 0).any(axis=0))

    def support(self) -> list[tuple[int, ...]]:
        return list(zip(*self.nums.sites(self._support()).T.tolist()))

    def _take(self, sites) -> np.ndarray:
        """The numerators at each site (0 off the support), read through the
        fold, as a (k, len(sites)) object array: the one read of the storage,
        and its one site check, as sites other than d-tuples of ints go
        through norm_sites."""
        d = self.d
        if ({tuple} != set(map(type, sites)) or {d} != set(map(len, sites))
                or {int} != set(map(type, itertools.chain.from_iterable(sites)))):
            sites = norm_sites(sites, d)
        sites = np.array(sites, dtype=object).reshape(-1, d)
        if self.periodic_basis is not None:
            sites = self._fold(sites)
        return self.nums.take(sites)

    def lift_at(self, e) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self._take([e])[:, 0])

    def value(self, e) -> tuple[float, ...]:
        """Coordinates at site e, reduced to [-1/2, 1/2)."""
        return tuple(self.values([e])[0].tolist())

    def lift_array(self, sites) -> np.ndarray:
        """The float lift at each site tuple, as a (len(sites), k) array."""
        return (self._take(sites).T / self.den).astype(np.float64)

    def values(self, sites) -> np.ndarray:
        """The coordinates at each site tuple in [-1/2, 1/2), as a (len(sites), k) array."""
        return (_sparse.center(self._take(sites), self.den).T / self.den).astype(np.float64)

    def distance_by_radius(self) -> tuple[dict[int, int], int]:
        """The torus distance to zero (the max over components) summed over
        the stored sites of each max-norm sphere, exactly: (radius ->
        numerator, den)."""
        a = self.nums.a
        dist = np.abs(_sparse.center(a, self.den)).max(axis=0)
        return self.nums.by_radius(dist, (a != 0).any(axis=0)), self.den


def max_distance(x: LiftedPoint, y: LiftedPoint, sites) -> float:
    """The largest torus distance between x and y over the given sites, each
    read through its fold, computed exactly over lcm(den_x, den_y)."""
    den = math.lcm(x.den, y.den)
    diff = x._take(sites) * (den // x.den) - y._take(sites) * (den // y.den)
    return max(np.abs(_sparse.center(diff, den)).flat, default=0) / den


def _triangular_basis(B: list[list[int]]) -> list[list[int]]:
    """Generators h_0, ..., h_(d-1) of the lattice B Z^d (spanned by the
    columns of B) with h_j zero on the axes before j and h_j[j] > 0, by
    Euclid's algorithm on the columns; the box [0, h_0[0]) x ... x
    [0, h_(d-1)[d-1]) then holds exactly one site of each coset.  A basis
    of lower rank is refused."""
    H = [list(col) for col in zip(*B)]
    for i in range(len(H)):
        for j in range(i + 1, len(H)):
            while H[j][i]:
                q = H[i][i] // H[j][i]
                H[i], H[j] = H[j], [a - q * b for a, b in zip(H[i], H[j])]
        if not H[i][i]:
            raise ValueError(f"the periodic basis {B} must have full rank")
        if H[i][i] < 0:
            H[i] = [-a for a in H[i]]
    return H


def _lattice_fold(H: list[list[int]], corner: tuple[int, ...]):
    """The map taking the rows e of an (n, d) site array to their
    representatives modulo the lattice of the triangular basis H
    (_triangular_basis) in the box corner + [0, h), exactly in Python ints:
    axis j is reduced by a multiple of h_j, which leaves the axes before j
    alone."""
    H = [np.array(h, dtype=object) for h in H]

    def fold(e: np.ndarray) -> np.ndarray:
        e = e.astype(object)
        for j, h in enumerate(H):
            e -= ((e[:, j] - corner[j]) // h[j])[:, None] * h
        return e

    return fold


@dataclass(eq=False)
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
        if self.A != other.A or self.inverse is not other.inverse:
            raise ValueError("points must share the presenting matrix and the inverse they came from")
        den = math.lcm(self.den, other.den)
        e0 = (0,) * self.d
        nums = _sparse.box_conv([((), {e0: den // self.den}, self.nums), ((), {e0: den // other.den}, other.nums)],
                                (self.k,), self.d)
        prov = [p + q for p, q in zip(self.provenance, other.provenance)]
        return HomoclinicPoint(nums, den, self.tail_bound + other.tail_bound, self.A, prov, self.inverse)

    def translate(self, t) -> "HomoclinicPoint":
        """The point shifted by t (the group element u^t acting)."""
        t = _as_exponent(t, self.d)
        nums = _sparse.Box(tuple(map(add, self.nums.lo, t)), self.nums.a)
        prov = [p.shift(t) for p in self.provenance]
        return HomoclinicPoint(nums, self.den, self.tail_bound, self.A, prov, self.inverse)

    def to_obj(self) -> dict:
        den = self.den
        lift = []
        for comp in self.nums.a:
            idx = np.nonzero(comp)  # in lex order of the sites
            values = (_sparse.center(comp[idx], den) / den).tolist()
            lift.append([{"exp": e, "value": v} for e, v in zip(self.nums.sites(idx).tolist(), values)])
        return {
            "k": self.k,
            "d": self.d,
            "tail_bound": plain(self.tail_bound),
            "provenance": plain(self.provenance),
            "lift": lift,
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
    lo, a = inv.nums
    nums = _sparse.box_conv([((), c.terms, _sparse.Box(lo, row)) for c, row in zip(mv, a)], (inv.k,), A.d)
    norm_m = sum(comp.l1_norm() for comp in mv)
    tail = inv.tail_bound * max(1, norm_m)
    return HomoclinicPoint(nums, inv.den, tail, A, mv, inv)


def annihilation_residual(x: HomoclinicPoint) -> float:
    """Max distance of (lift . A*) from integer vectors; membership check.

    A point of the presented system must satisfy lift . A* = 0 mod 1; for a
    truncated homoclinic lift this residual is at most ||m||_1 times the
    inverse's residual (membership_tolerance).  It is the exact maximum
    rounded once to nearest (an int over an int).
    """
    lo, a = x.nums
    cols = _sparse.box_conv([((j,), e.terms, _sparse.Box(lo, comp))
                             for comp, row in zip(a, x.A.star().entries) for j, e in enumerate(row)], (x.k,), x.d)
    return max(np.abs(_sparse.center(cols.a, x.den)).flat, default=0) / x.den


def membership_tolerance(x: HomoclinicPoint) -> float:
    """||m||_1 tol for the provenance m of x and the tol of its inverse: the
    bound annihilation_residual(x) meets whenever that inverse converged.  The
    lift times A* is m - m E with E = I - G A*, whose entries have l1 norm at
    most the inverse's residual.  Both sides are rounded once to nearest from
    their exact values, so rounding cannot flip the comparison."""
    return float(sum(comp.l1_norm() for comp in x.provenance) * Fraction(x.inverse.tol))


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
    s = sum(x.distance_by_radius()[0].values()) / x.den
    tail = float(x.tail_bound)
    return Delta1Certificate(s, tail, s + tail, finite=math.isfinite(tail))
