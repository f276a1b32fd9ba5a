"""Combinatorial independence witnesses and specification shadowing.

Independence: a homoclinic point x with summable decay yields, for every
window F, a positive-density subset F1 on which all 2^|F1| on/off patterns
are realized by explicit points y_sigma = sum_{s in F1} sigma(s) (s^-1 x).
The target neighborhoods are max-metric cylinders of radius eps over the
interaction ball K of x, of max-norm radius R.  The conflict set K - K is
the ball of radius 2R, so greedy selection keeps the sites more than 2R
apart, and |F1| >= |F| / (2|K - K|+1) for a window of distinct sites.

Shadowing: prescribed homoclinic blocks on separated windows are traced by
one point, built exactly as (sum of block provenances) (A*)^-1; gaps are
certified through the l1 tail of the truncated inverse, and summing over a
finite-index subgroup produces an exactly periodic shadow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

import numpy as np

from . import _sparse, torus
from ._report import Report, plain
from .groupring import GroupRingElement, GroupRingMatrix, as_int, ball, norm_sites
from .homoclinic import HomoclinicPoint, LiftedPoint, _point, _triangular_basis, max_distance


def greedy_separated_subset(F: list, radius: int) -> list[tuple[int, ...]]:
    """Greedy maximal subset F1 of F whose sites lie pairwise more than radius
    apart in the max norm: (F1 - F1) \\ {0} avoids the ball K of that radius.

    Scanning F in the given order guarantees |F1| >= |F| / (2|K|+1) for
    distinct sites: every rejected site lies in K + s for some chosen s.
    """
    if not F:
        raise ValueError("F must be nonempty")
    chosen: list[tuple[int, ...]] = []
    for s in norm_sites(F):
        if all(max(map(abs, map(sub, s, t))) > radius for t in chosen):
            chosen.append(s)
    return chosen


def interaction_radius(x: HomoclinicPoint, eps: float) -> int:
    """Smallest max-norm radius whose outside torus-distance mass is < eps.

    The mass is the exact sum of per-site distances to zero over the lift
    support plus the certified tail bound of the truncation.
    """
    torus._check_positive("eps", eps)
    if not math.isfinite(x.tail_bound):
        raise ValueError("the point has no certified tail bound (inverse residual >= 1)")
    r = _first_radius_below(*x.distance_by_radius(), x.tail_bound, eps)
    if r is None:
        raise ValueError("no interaction ball with tail below eps within the support")
    return r


def separated_window(x: HomoclinicPoint, eps: float, F: list, check) -> tuple[list, int, list]:
    """(sites, R, F1): the window F as sites, the interaction radius R of x
    at eps, and the greedy subset F1 of F whose sites lie more than 2R apart,
    off the conflict ball K - K of radius 2R.  check(n1) is called first, so
    that the caller can refuse the window before the scan, at the least
    n1 = |F| / (2(4R + 1)^d + 1) the greedy scan guarantees for distinct sites."""
    R = interaction_radius(x, eps)
    check(-(-len(F) // (2 * (4 * R + 1) ** x.d + 1)))
    sites = norm_sites(F, x.d)
    return sites, R, greedy_separated_subset(sites, 2 * R)


def _first_radius_below(by_radius: dict[int, int], den: int, tail: float, bound: float) -> int | None:
    """Smallest r with the mass beyond max-norm radius r (by_radius maps a
    radius to its sphere's mass over den) plus the tail below bound, compared
    exactly: the float tail and bound are taken at their binary values."""
    tail_q = Fraction(tail)
    outside = sum(by_radius.values())
    for r in sorted({0, *by_radius}):  # the mass changes only at these radii
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


def base_digits(codes, base: int, n: int) -> np.ndarray:
    """The n lowest base-`base` digits of each code, least significant
    first, as an (len(codes), n) float array; codes are taken as uint64."""
    base = np.uint64(base)
    codes = np.asarray(codes, dtype=np.uint64)
    return (codes[:, None] // base ** np.arange(n, dtype=np.uint64) % base).astype(np.float64)


def family_values(x: LiftedPoint, F1: list, digits: np.ndarray, sites: list) -> np.ndarray:
    """The members sum_{s in F1} c_s (s^-1 x) of a separated family, one
    digit row c per member, observed at the given sites: applying the group
    element w to a member reads its coordinate at -w, so member c reads
    sum_s c_s lift(s - w) at site w.  One matmul, an (n, len(sites), k) array."""
    cols = x.lift_array([tuple(map(sub, s, w)) for s in F1 for w in sites])
    return (digits @ cols.reshape(len(F1), -1)).reshape(len(digits), len(sites), x.k)


def _direct_violations(values, F1: list, K: list, codes) -> np.ndarray:
    """max_{s,t,j} rho((s y_sigma)_t, target_t) per pattern code (bit b is
    sigma(F1[b])), for a point read through values (n sites -> an (n, k)
    array).  Independent of the main path: the bits come from the codes'
    little-endian bytes, each site t - s + s' is formed here and all are read
    in one batch (the targets in another), and each (s, t) is one product of
    the bit matrix with the coordinates of F1 shifted by t - s."""
    codes = np.asarray(codes, dtype="<u8")  # little-endian uint64
    bits = np.unpackbits(codes.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    bits = bits[:, :len(F1)].astype(np.float64)
    targets = values(K)
    V = values([tuple(map(add, map(sub, t, s), sp)) for s in F1 for t in K for sp in F1])
    V = V.reshape(len(F1), len(K), len(F1), targets.shape[1])
    worst = np.zeros(len(codes))
    for a in range(len(F1)):
        for i, target in enumerate(targets):
            diff = bits @ V[a, i] - bits[:, a, None] * target
            np.maximum(worst, np.abs(diff - np.round(diff)).max(axis=1), out=worst)
    return worst


def _pattern_sites(nf1: int, at_least: str = "") -> None:
    if nf1 > 64:  # pattern codes are uint64 bit masks
        raise ValueError(f"F1 has {at_least}{nf1} separated sites, over the 64-site limit of the pattern codes; "
                         "use a window of at most 64 sites")


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
    Fn, radius, F1 = separated_window(x, eps, F, lambda n1: _pattern_sites(n1, "at least "))
    K = ball(x.d, radius)
    nf1 = len(F1)  # >= 1: F is nonempty
    _pattern_sites(nf1)

    total = 1 << nf1
    subsampled = total > cap
    n = min(total, cap)  # charged: the codes, their digits, the witness tensor and its distances to the targets
    _sparse.charge(n * 8 * (1 + nf1 + 2 * nf1 * len(K) * x.k), f"a set of {n} pattern codes on {nf1} separated sites")
    if subsampled:
        rng = np.random.default_rng(seed)
        codes = np.unique(rng.integers(0, total, size=cap, dtype=np.uint64))
    else:
        codes = np.arange(total, dtype=np.uint64)
    sigma = base_digits(codes, 2, nf1)

    # vals[n, a, t, j] = sum_b sigma_n(b) lift_j(t - F1[a] + F1[b]), the sites F1[a] - t
    vals = family_values(x, F1, sigma, [tuple(map(sub, s, t)) for s in F1 for t in K])
    diff = vals.reshape(len(codes), nf1, len(K), x.k) - sigma[:, :, None, None] * x.lift_array(K)
    diff -= np.round(diff)
    viol = np.abs(diff).max(axis=(2, 3))
    max_violation = float(viol.max())
    all_pass = bool((viol <= eps).all())

    if (np.abs(_direct_violations(x.values, F1, K, codes) - viol.max(axis=1)) > 1e-9).any():
        raise torus.VerificationError("independent witness re-verification disagrees")

    return IndependenceReport(
        F=Fn,
        K=K,
        F1=F1,
        density=nf1 / len(Fn),
        witnesses_checked=len(codes) * nf1,
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
        """The basis as d rows of d integers; a list of d integers is its diagonal."""
        B = self.periodic_subgroup
        if isinstance(B, list) and not any(isinstance(v, list) for v in B):
            B = [[v if i == j else 0 for j in range(len(B))] for i, v in enumerate(B)]
        if B is None or isinstance(B, list) and len(B) == d and all(isinstance(row, list) and len(row) == d for row in B):
            try:
                return B and [[as_int(v) for v in row] for row in B]
            except ValueError:
                pass
        raise ValueError(f"the periodic basis is {d} integers (a diagonal) or {d} rows of {d} "
                         f"integers, got {self.periodic_subgroup!r}")


@dataclass(eq=False)
class ShadowResult(LiftedPoint):
    """The shadowing point, with the error of each block and the gap radius
    the blocks were separated by; periodic when a basis is set."""

    block_errors: list[float]
    gap_radius: int
    eps: float
    note: str = ""

    def to_obj(self) -> dict:
        return plain({
            "block_errors": self.block_errors,
            "gap_radius": self.gap_radius,
            "eps": self.eps,
            "periodic_basis": self.periodic_basis,
            "note": self.note,
        })


def inverse_tail_radius(inv: torus.MatrixL1Inverse, bound: float) -> int:
    """Smallest R with the l1 mass of the truncated inverse beyond radius R,
    plus its truncation tail, below the given bound."""
    if not math.isfinite(inv.tail_bound):
        raise ValueError("the inverse has no certified tail bound (residual >= 1)")
    r = _first_radius_below(*inv.mass_by_radius(), inv.tail_bound, bound)
    if r is None:
        raise ValueError("epsilon tail unreachable within the truncated inverse radius")
    return r


def _region(block: ShadowBlock, d: int) -> set[tuple[int, ...]]:
    sites = set(norm_sites(block.window, d))
    for comp in block.point.provenance:
        sites.update(comp.terms)
    return sites


def _min_distance(S: set, T: set) -> int:
    return min((max(map(abs, map(sub, s, t))) for s in S for t in T), default=0)


def shadow(A: GroupRingMatrix, req: ShadowRequest) -> ShadowResult:
    """One point tracing all requested homoclinic blocks within eps.

    The integer data of each block (its provenance vector) is summed, over
    the periodizing subgroup when one is given, and pushed through the
    truncated inverse of the involuted presenting matrix that every block
    point came from; block windows must be separated by the gap radius
    derived from that inverse's l1 tail.
    """
    d = A.d
    torus._check_positive("eps", req.eps)
    B = req.basis_matrix(d)
    H = None if B is None else _triangular_basis(B)  # refuses a singular basis
    if not req.blocks:
        return ShadowResult.from_point(LiftedPoint.zero(A.rows, d), [], 0, req.eps, basis=B, lattice=H)
    inv = req.blocks[0].point.inverse
    for i, b in enumerate(req.blocks):
        if b.point.A != A:
            raise ValueError(f"block {i} is not a point of the presenting matrix A")
        if b.point.inverse is not inv:
            raise ValueError(f"block {i} comes from another inverse of A* than block 0")
    R = inverse_tail_radius(inv, req.eps / (2.0 * A.l1_norm()))

    regions = [_region(b, d) for b in req.blocks]
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            if _min_distance(regions[i], regions[j]) <= R:
                raise ValueError(
                    f"blocks {i} and {j} are within the gap radius {R}; move them apart"
                )

    if B is not None:
        # fundamental domain must contain every block's R-neighborhood: no
        # nonzero subgroup translate of the combined region may come within
        # R of it, and only translates by at most its diameter plus R can.
        all_sites = set().union(*regions)
        reach = max((max(c) - min(c) for c in zip(*all_sites)), default=0) + R
        for lam in _short_vectors(H, reach):
            shifted = {tuple(map(add, s, lam)) for s in all_sites}
            if _min_distance(all_sites, shifted) <= R:
                raise ValueError("periodic domain too small for the blocks' gap radius")

    m_total = [sum(ps, GroupRingElement.zero(d)) for ps in zip(*(b.point.provenance for b in req.blocks))]
    result = ShadowResult.from_point(_point(A, inv, m_total), [], R, req.eps, basis=B, lattice=H)
    result.block_errors = [max_distance(result, b.point, norm_sites(b.window, d)) for b in req.blocks]
    return result


def _short_vectors(H: list[list[int]], reach: int) -> list[tuple[int, ...]]:
    """Every nonzero vector of the lattice of the triangular basis H
    (_triangular_basis) with max norm at most reach.  Axis i of sum_j z_j h_j
    is the partial sum over j < i plus z_i h_i[i], so the z_i that keep axis i
    within reach are solved for axis by axis, by back-substitution."""
    vecs = [(0,) * len(H)]
    for i, h in enumerate(H):
        vecs = [tuple(a + z * b for a, b in zip(v, h)) for v in vecs
                for z in range(-((reach + v[i]) // h[i]), (reach - v[i]) // h[i] + 1)]
    return [v for v in vecs if any(v)]
