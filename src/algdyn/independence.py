"""Combinatorial independence witnesses and specification shadowing.

Independence: a homoclinic point x with summable decay yields, for every
window F, a positive-density subset F1 on which all 2^|F1| on/off patterns
are realized by explicit points y_sigma = sum_{s in F1} sigma(s) (s^-1 x).
The target neighborhoods are max-metric cylinders of radius eps over the
interaction ball K of x, and the density guarantee comes from greedy
selection: |F1| >= |F| / (2|K'|+1) for the conflict set K' = K - K.

Shadowing: prescribed homoclinic blocks on separated windows are traced by
one point, built exactly as (sum of block provenances) (A*)^-1; gaps are
certified through the l1 tail of the truncated inverse, and summing over a
finite-index subgroup produces an exactly periodic shadow.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

import numpy as np

from . import _sparse
from ._report import Report, plain
from .groupring import GroupRingElement, GroupRingMatrix, _as_exponent, ball, norm_sites
from .homoclinic import HomoclinicPoint, _centered_at, _star_inverse, group_element


def greedy_separated_subset(F: list, K: list) -> list[tuple[int, ...]]:
    """Greedy maximal subset F1 of F with (F1 - F1) \\ {0} disjoint from K.

    Scanning F in the given order guarantees |F1| >= |F| / (2|K|+1): every
    rejected site lies in K + s or -K + s for some chosen s.
    """
    if not F or not K:
        raise ValueError("F and K must be nonempty")
    Kn = norm_sites(K)
    Fn = norm_sites(F, len(Kn[0]))
    Kn = set(Kn)
    chosen: list[tuple[int, ...]] = []
    for s in Fn:
        ok = True
        for t in chosen:
            fwd = tuple(a - b for a, b in zip(s, t))
            bwd = tuple(b - a for a, b in zip(s, t))
            if fwd in Kn or bwd in Kn:
                ok = False
                break
        if ok:
            chosen.append(s)
    return chosen


def interaction_radius(x: HomoclinicPoint, eps: float, radius_cap: int = 200) -> int:
    """Smallest max-norm radius whose outside torus-distance mass is < eps.

    The mass is the exact sum of per-site distances to zero over the lift
    support plus the certified tail bound of the truncation.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not math.isfinite(x.tail_bound):
        raise ValueError("the point has no certified tail bound (inverse residual >= 1)")
    dist, den = x.site_distances()
    r = _first_radius_below(dist.items(), den, x.tail_bound, eps, radius_cap)
    if r is None:
        raise ValueError("no interaction ball with tail below eps within the support")
    return r


def _first_radius_below(items, den: int, tail: float, bound: float,
                        radius_cap: float = math.inf) -> int | None:
    """Smallest r <= radius_cap with the l1 mass of the (site, numerator over
    den) items beyond max-norm radius r, plus the tail, below bound; the
    mass is summed and compared exactly, the float tail and bound taken at
    their exact binary values."""
    by_radius: dict[int, int] = {}
    for e, v in items:
        r = max(map(abs, e))
        by_radius[r] = by_radius.get(r, 0) + abs(v)
    tail_q = Fraction(tail)
    outside = sum(by_radius.values())
    for r in range(0, min(max(by_radius, default=0), radius_cap) + 1):
        outside -= by_radius.get(r, 0)
        if Fraction(outside, den) + tail_q < bound:  # a Fraction meets a float exactly
            return r
    return None


@dataclass
class IndependenceReport(Report):
    F: list[tuple[int, ...]]
    K: list[tuple[int, ...]]
    F1: list[tuple[int, ...]]
    density: float
    witnesses_checked: int
    max_violation: float
    all_pass: bool
    eps: float
    subsampled: bool = False
    seed: int | None = None
    note: str = ""


def _direct_violations(
    lift: list[dict[tuple[int, ...], float]],
    F1: list[tuple[int, ...]],
    K: list[tuple[int, ...]],
    codes: list[int],
) -> list[float]:
    """Pure-dict evaluation of max_{s,t,j} rho((s y_sigma)_t, target_t) on the
    float lift, per pattern code (bit b is sigma(F1[b])); the sums over each
    run of four sites of F1 are tabulated once for all 16 on/off patterns."""
    worst = [0.0] * len(codes)
    runs = [F1[lo:lo + 4] for lo in range(0, len(F1), 4)]
    for a, s in enumerate(F1):
        for t in K:
            u = tuple(map(sub, t, s))
            for comp in lift:
                sums = [0.0] * len(codes)
                for r, run in enumerate(runs):
                    table = [0.0]
                    for sp in run:
                        v = comp.get(tuple(map(add, u, sp)), 0.0)
                        table += [w + v for w in table]
                    sums = [acc + table[c >> 4 * r & 15] for acc, c in zip(sums, codes)]
                target = comp.get(t, 0.0)
                for i, (acc, c) in enumerate(zip(sums, codes)):
                    diff = acc - target if c >> a & 1 else acc
                    worst[i] = max(worst[i], abs(diff - round(diff)))
    return worst


def independence_witnesses(
    x: HomoclinicPoint,
    eps: float,
    F: list,
    cap: int = 4096,
    seed: int = 0,
) -> IndependenceReport:
    """Enumerate and verify the on/off pattern witnesses over the window F.

    Every sigma in {0,1}^F1 (all of them up to cap, then a flagged seeded
    subsample) is realized by y_sigma = sum sigma(s) (s^-1 x); verification
    checks that s.y_sigma lies in the eps-cylinder over the interaction
    ball K around x (pattern 1) or around zero (pattern 0).  Passing
    witnesses are re-verified by an independent direct evaluation.
    """
    d = x.d
    Fn = norm_sites(F, d)
    radius = interaction_radius(x, eps)
    K = ball(d, radius)
    conflict = ball(d, 2 * radius)
    F1 = greedy_separated_subset(Fn, conflict) if len(conflict) > 1 else list(Fn)
    nf1 = len(F1)

    total = 1 << nf1
    subsampled = total > cap
    if subsampled:
        rng = np.random.default_rng(seed)
        codes = np.unique(rng.integers(0, total, size=cap, dtype=np.uint64))
    else:
        codes = np.arange(total, dtype=np.uint64)
    nsig = len(codes)
    sigma = ((codes[:, None] >> np.arange(nf1, dtype=np.uint64)[None, :]) & 1).astype(
        np.float64
    )

    # D[a, b, t, j] = lift_j(t - F1[a] + F1[b])
    flift = x.float_lift()
    nk, kk = len(K), x.k
    D = np.zeros((nf1, nf1, nk, kk))
    X = np.array([[comp.get(t, 0.0) for comp in flift] for t in K]).reshape(nk, kk)
    for a, s in enumerate(F1):
        for b, sp in enumerate(F1):
            for ti, t in enumerate(K):
                e = tuple(p - q + r for p, q, r in zip(t, s, sp))
                D[a, b, ti] = [comp.get(e, 0.0) for comp in flift]

    vals = np.einsum("nb,abtj->natj", sigma, D)
    targets = sigma[:, :, None, None] * X[None, None, :, :]
    diff = vals - targets
    diff -= np.round(diff)
    viol = np.abs(diff).max(axis=(2, 3)) if nk else np.zeros((nsig, nf1))
    max_violation = float(viol.max()) if viol.size else 0.0
    all_pass = bool((viol <= eps).all())

    direct = _direct_violations(flift, F1, K, codes.tolist())
    for idx in range(nsig):
        recorded = float(viol[idx].max()) if nf1 else 0.0
        if abs(direct[idx] - recorded) > 1e-9:
            raise AssertionError("independent witness re-verification disagrees")

    return IndependenceReport(
        F=Fn,
        K=K,
        F1=F1,
        density=len(F1) / len(Fn) if Fn else 0.0,
        witnesses_checked=nsig * max(1, nf1),
        max_violation=max_violation,
        all_pass=all_pass,
        eps=eps,
        subsampled=subsampled,
        seed=seed if subsampled else None,
    )


# -- shadowing ----------------------------------------------------------------


@dataclass
class ShadowBlock:
    window: list
    point: HomoclinicPoint


@dataclass
class ShadowRequest:
    blocks: list[ShadowBlock]
    eps: float
    periodic_subgroup: list | None = None  # d x d integer basis, or diagonal list

    def basis_matrix(self, d: int) -> list[list[int]] | None:
        if self.periodic_subgroup is None:
            return None
        B = self.periodic_subgroup
        if all(isinstance(v, int) for v in B):
            if len(B) != d:
                raise ValueError("diagonal subgroup needs d entries")
            return [[B[i] if i == j else 0 for j in range(d)] for i in range(d)]
        M = [[int(v) for v in row] for row in B]
        if len(M) != d or any(len(r) != d for r in M):
            raise ValueError("basis matrix must be d x d")
        return M


@dataclass
class ShadowResult:
    """The shadowing point on Z^d: component j is nums[j][e] / den at site e,
    exactly, read through the periodic fold when a basis is set; lift is a
    read-only Fraction view of the stored (folded) numerators."""

    nums: list[dict[tuple[int, ...], int]]
    den: int
    block_errors: list[float]
    gap_radius: int
    eps: float
    d: int
    periodic_basis: list[list[int]] | None = None
    note: str = ""

    @functools.cached_property
    def lift(self) -> list[dict[tuple[int, ...], Fraction]]:
        return [_sparse.unscale(comp, self.den) for comp in self.nums]

    def value(self, e) -> tuple[float, ...]:
        """Coordinates at site e, reduced to [-1/2, 1/2)."""
        return _centered_at(self.nums, self.den, self._site(e))

    def lift_at(self, e) -> tuple[Fraction, ...]:
        e = self._site(e)
        return tuple(Fraction(comp.get(e, 0), self.den) for comp in self.nums)

    @functools.cached_property
    def _fold(self):
        return _lattice_fold(self.periodic_basis)

    def _site(self, e) -> tuple[int, ...]:
        e = _as_exponent(e, self.d)
        if self.periodic_basis is None:
            return e
        return self._fold(e)

    def to_obj(self) -> dict:
        return plain({
            "block_errors": self.block_errors,
            "gap_radius": self.gap_radius,
            "eps": self.eps,
            "periodic_basis": self.periodic_basis,
            "note": self.note,
        })


def inverse_tail_radius(A: GroupRingMatrix, bound: float, tol: float = 1e-10, radius_cap: int = 40) -> int:
    """Smallest R with the l1 mass of the truncated (A*)^-1 beyond radius R,
    plus its truncation tail, below the given bound."""
    inv = _star_inverse(A, tol, radius_cap)
    if not math.isfinite(inv.tail_bound):
        raise ValueError("the inverse has no certified tail bound (residual >= 1)")
    items = [item for row in inv.entries for cell in row for item in cell.nums.items()]
    r = _first_radius_below(items, inv.den, inv.tail_bound, bound)
    if r is None:
        raise ValueError("epsilon tail unreachable within the truncated inverse radius")
    return r


def _region(block: ShadowBlock, d: int) -> set[tuple[int, ...]]:
    sites = set(norm_sites(block.window, d))
    for comp in block.point.provenance:
        sites.update(comp.terms)
    return sites


def _min_distance(S: set, T: set) -> int:
    best = None
    for s in S:
        for t in T:
            dd = max(abs(a - b) for a, b in zip(s, t))
            best = dd if best is None else min(best, dd)
    return best if best is not None else 0


def shadow(
    A: GroupRingMatrix,
    req: ShadowRequest,
    tol: float = 1e-10,
    radius_cap: int = 40,
) -> ShadowResult:
    """One point tracing all requested homoclinic blocks within eps.

    The integer data of each block (its provenance vector) is summed, over
    the periodizing subgroup when one is given, and pushed through the
    truncated inverse of the involuted presenting matrix; block windows
    must be separated by the gap radius derived from the inverse's l1 tail.
    """
    d = A.d
    if not req.blocks:
        zero = [dict() for _ in range(A.rows)]
        return ShadowResult(zero, 1, [], 0, req.eps, d, req.basis_matrix(d))
    norm_a = A.l1_norm()
    R = inverse_tail_radius(A, req.eps / (2.0 * norm_a), tol, radius_cap)

    regions = [_region(b, d) for b in req.blocks]
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            if _min_distance(regions[i], regions[j]) <= R:
                raise ValueError(
                    f"blocks {i} and {j} are within the gap radius {R}; move them apart"
                )

    k = A.rows
    m_total = [GroupRingElement.zero(d) for _ in range(k)]
    for b in req.blocks:
        if b.point.k != k:
            raise ValueError("block point has wrong number of components")
        for i in range(k):
            m_total[i] = m_total[i] + b.point.provenance[i]

    y = group_element(A, m_total, tol, radius_cap)
    nums = y.nums

    B = req.basis_matrix(d)
    if B is not None:
        # fundamental domain must contain every block's R-neighborhood:
        # neighboring subgroup translates of the combined region must stay
        # farther than R apart.
        all_sites = set().union(*regions)
        for gz in _small_lattice_vectors(B, d):
            shifted = {tuple(a + b for a, b in zip(s, gz)) for s in all_sites}
            if _min_distance(all_sites, shifted) <= R:
                raise ValueError("periodic domain too small for the blocks' gap radius")
        fold = _lattice_fold(B)
        folded: list[dict] = [{} for _ in nums]
        for acc, comp in zip(folded, nums):
            for e, c in comp.items():
                _sparse.add_to(acc, {fold(e): c})
        nums = folded

    result = ShadowResult(nums, y.den, [], R, req.eps, d, B)
    for b in req.blocks:
        # |shadow - block| mod 1 at each window site, over lcm(den_y, den_x)
        x = b.point
        den = math.lcm(y.den, x.den)
        fy, fx = den // y.den, den // x.den
        worst = 0.0
        for t in norm_sites(b.window, d):
            ts = t if B is None else fold(t)
            for cy, cx in zip(nums, x.nums):
                dv = _sparse.center(cy.get(ts, 0) * fy - cx.get(t, 0) * fx, den)
                worst = max(worst, abs(dv) / den)
        result.block_errors.append(worst)
    return result


def _small_lattice_vectors(B: list[list[int]], d: int):
    out = []
    rng = [-1, 0, 1]
    for z in itertools.product(rng, repeat=d):
        if all(v == 0 for v in z):
            continue
        out.append(tuple(sum(B[i][j] * z[j] for j in range(d)) for i in range(d)))
    return out


def _lattice_fold(B: list[list[int]]):
    """The map taking a site e to its representative with B^-1 e in
    [0,1)^d, computed exactly.  B is inverted once, as an integer matrix P
    over one denominator D > 0, so floor(B^-1 e) is (P e) // D."""
    P, D = _sparse.int_inverse(B)

    def fold(e: tuple[int, ...]) -> tuple[int, ...]:
        ks = [sum(map(mul, row, e)) // D for row in P]
        return tuple(v - sum(map(mul, row, ks)) for v, row in zip(e, B))

    return fold


@dataclass
class SpecificationReport:
    passed: bool
    block_error: float
    outside_max: float
    gap_radius: int
    eps: float
    annulus: list[tuple[int, ...]]

    def to_obj(self) -> dict:
        return plain({
            "passed": self.passed,
            "block_error": self.block_error,
            "outside_max": self.outside_max,
            "gap_radius": self.gap_radius,
            "eps": self.eps,
            "annulus_size": len(self.annulus),
        })


def homoclinic_specification_check(
    A: GroupRingMatrix,
    eps: float,
    F1: list,
    x: HomoclinicPoint,
    verify_width: int = 20,
    support_cap: int = 120,
    tol: float = 1e-10,
    radius_cap: int = 40,
) -> SpecificationReport:
    """Single-block shadowing plus the outside-decay clause.

    The shadow must match x within eps on F1 and stay within eps of zero on
    an annulus beyond the gap set (the gap radius dilation of F1).
    """
    d = A.d
    Fn = norm_sites(F1, d)
    if x.support() and max(max(abs(v) for v in e) for e in x.support()) > support_cap:
        raise ValueError("support exceeds verification window")
    res = shadow(A, ShadowRequest([ShadowBlock(Fn, x)], eps), tol, radius_cap)
    R = res.gap_radius
    gap_set = set()
    for s in Fn:
        for b in ball(d, R):
            gap_set.add(tuple(a + c for a, c in zip(s, b)))
    annulus = []
    for s in Fn:
        for b in ball(d, R + verify_width):
            t = tuple(a + c for a, c in zip(s, b))
            if t not in gap_set:
                annulus.append(t)
    annulus = sorted(set(annulus))
    outside = 0.0
    for t in annulus:
        outside = max(outside, max(abs(v) for v in res.value(t)))
    passed = (max(res.block_errors, default=0.0) <= eps) and (outside <= eps)
    return SpecificationReport(
        passed, max(res.block_errors, default=0.0), outside, R, eps, annulus
    )
