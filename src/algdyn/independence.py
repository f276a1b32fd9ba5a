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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

import numpy as np

from . import torus
from ._report import Report, plain
from .groupring import GroupRingElement, GroupRingMatrix, as_int, ball, norm_sites
from .homoclinic import HomoclinicPoint, LiftedPoint, _basis_inverse, _point, max_distance


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
    torus._check_positive("eps", eps)
    if not math.isfinite(x.tail_bound):
        raise ValueError("the point has no certified tail bound (inverse residual >= 1)")
    r = _first_radius_below(*x.distance_by_radius(), x.tail_bound, eps)
    if r is None:
        raise ValueError("no interaction ball with tail below eps within the support")
    if r > radius_cap:
        raise ValueError(f"the interaction ball needs radius {r} > radius_cap = {radius_cap}")
    return r


def separated_window(x: HomoclinicPoint, eps: float, F: list) -> tuple[list, int, list]:
    """(sites, R, F1): the window F as sites, the interaction radius R of x
    at eps, and the greedy subset F1 of F whose differences avoid the
    conflict ball K - K of radius 2R."""
    sites = norm_sites(F, x.d)
    R = interaction_radius(x, eps)
    return sites, R, greedy_separated_subset(sites, ball(x.d, 2 * R))


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


def _direct_violations(
    lift: list[dict[tuple[int, ...], float]],
    F1: list[tuple[int, ...]],
    K: list[tuple[int, ...]],
    codes: list[int],
) -> list[float]:
    """Pure-dict evaluation of max_{s,t,j} rho((s y_sigma)_t, target_t) on the
    lift's component dicts, per pattern code (bit b is sigma(F1[b])); the sums
    over each run of four sites of F1 are tabulated once for all 16 patterns."""
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
    Fn, radius, F1 = separated_window(x, eps, F)
    K = ball(x.d, radius)
    nf1 = len(F1)  # >= 1: F and the conflict ball are nonempty
    if nf1 > 64:  # pattern codes are uint64 bit masks
        raise ValueError(f"F1 has {nf1} separated sites, over the 64-site limit of the pattern codes; "
                         "use a window of at most 64 sites")

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
    sites = [tuple(p - q + r for p, q, r in zip(t, s, sp)) for s in F1 for sp in F1 for t in K]
    D = x.lift_array(sites)
    D = D.reshape(nf1, nf1, len(K), x.k)
    X = x.lift_array(K)

    vals = np.einsum("nb,abtj->natj", sigma, D)
    targets = sigma[:, :, None, None] * X[None, None, :, :]
    diff = vals - targets
    diff -= np.round(diff)
    viol = np.abs(diff).max(axis=(2, 3))
    max_violation = float(viol.max())
    all_pass = bool((viol <= eps).all())

    vals = {e: x.value(e) for e in {*sites, *K}}  # the re-check reads the point through value, not lift_array
    direct = _direct_violations([{e: v[j] for e, v in vals.items()} for j in range(x.k)], F1, K, codes.tolist())
    for idx in range(nsig):
        if abs(direct[idx] - float(viol[idx].max())) > 1e-9:
            raise torus.VerificationError("independent witness re-verification disagrees")

    return IndependenceReport(
        F=Fn,
        K=K,
        F1=F1,
        density=nf1 / len(Fn),
        witnesses_checked=nsig * nf1,
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


@dataclass
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
    inverse = None if B is None else _basis_inverse(B)
    if not req.blocks:
        return ShadowResult.from_point(LiftedPoint.zero(A.rows, d), [], 0, req.eps, basis=B, basis_inverse=inverse)
    inv = req.blocks[0].point.inverse
    for i, b in enumerate(req.blocks):
        if b.point.A != A:
            raise ValueError(f"block {i} is not a point of the presenting matrix A")
        if b.point.inverse != inv:
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
        for lam in _short_vectors(B, *inverse, reach):
            shifted = {tuple(map(add, s, lam)) for s in all_sites}
            if _min_distance(all_sites, shifted) <= R:
                raise ValueError("periodic domain too small for the blocks' gap radius")

    m_total = [sum(ps, GroupRingElement.zero(d)) for ps in zip(*(b.point.provenance for b in req.blocks))]
    result = ShadowResult.from_point(_point(A, inv, m_total), [], R, req.eps, basis=B, basis_inverse=inverse)
    result.block_errors = [max_distance(result, b.point, norm_sites(b.window, d)) for b in req.blocks]
    return result


def _short_vectors(B: list[list[int]], P: list[list[int]], D: int, reach: int) -> list[tuple[int, ...]]:
    """Every nonzero vector of the subgroup B Z^d with max norm at most reach.

    Such a vector is B z with |z_i| <= sum_j |P_ij| reach / D (B^-1 = P / D);
    when that box of z is larger than the cube of sites, the cube's sites
    lam with P lam = 0 mod D are tried instead.
    """
    d = len(B)
    box = [sum(map(abs, row)) * reach // D for row in P]
    if math.prod(2 * b + 1 for b in box) <= (2 * reach + 1) ** d:
        cands = (tuple(sum(map(mul, row, z)) for row in B)
                 for z in itertools.product(*(range(-b, b + 1) for b in box)))
    else:
        cands = (lam for lam in itertools.product(range(-reach, reach + 1), repeat=d)
                 if not any(sum(map(mul, row, lam)) % D for row in P))
    return [lam for lam in cands if any(lam) and max(map(abs, lam)) <= reach]
