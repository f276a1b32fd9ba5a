"""Entropy of algebraic shift actions, three independent ways.

* mahler_measure: midpoint-rule average of log|f^| over the torus.  For a
  square presentation the entropy equals the log Mahler measure of the
  exact determinant.
* peters_entropy: exact counting of the growing sets sum_{i<n} u^-i E in a
  finitely generated dual module, coordinatized through a companion matrix;
  the entropy is the exponential growth rate of the counts.
* packing_lower_bound: explicit families of homoclinic combinations that
  are pairwise separated on a window; the count on one window gives an
  estimate, not a proved lower bound.

The three routes are compared in the test suite.  duality_check checks the
one premise of h(X_A) = h(X_A*) that can fail, the exact identity
det(A*) = det(A)*; the equality of the two entropies then holds pointwise
on any grid, as |(f*)^(theta)| = |conj f^(theta)| = |f^(theta)| for integer f.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels, _sparse, torus
from ._report import Report
from .groupring import GroupRingElement, GroupRingMatrix, as_int, norm_sites
from .homoclinic import HomoclinicPoint
from .independence import base_digits, family_values, separated_window

MAHLER_DEFAULT_GRID = {1: 65536, 2: 512, 3: 64}
SINGULARITY_FLOOR = 1e-12

# Largest family packing_lower_bound enumerates: M^|F1| is cut down to it,
# and more than this many levels M are refused.
PACKING_FAMILY_CAP = 1 << 12

MAHLER = "MahlerQuadrature"
PETERS = "PetersCounting"
PACKING = "PackingLowerBound"


@dataclass
class EntropyEstimate(Report):
    value: float
    method: str
    error_bound: float | None = None
    parameters: dict = field(default_factory=dict)
    series: list | None = None
    notes: str = ""


# -- log-Mahler quadrature ---------------------------------------------------


def _log_mean(f: GroupRingElement, m: int) -> tuple[float, int]:
    total = kept = 0
    last = _kernels.half_rows(m, 0.5)
    for j0, vals in _kernels.grid_abs_values(*torus._term_arrays(f), m, 0.5):
        mask = vals >= SINGULARITY_FLOOR
        logs = np.log(vals, where=mask, out=np.zeros_like(vals))
        # each half-grid row j_0 stands for itself and its mirror m - 1 - j_0,
        # but the middle row of an odd m, the last one, is its own mirror
        total, kept = total + 2 * float(logs.sum()), kept + 2 * int(np.count_nonzero(mask))
        if m % 2 and j0 + len(vals) == last:
            total, kept = total - float(logs[-1].sum()), kept - int(np.count_nonzero(mask[-1]))
    if not kept:
        raise ValueError("all grid values below the singularity floor")
    return total / kept, m ** f.d - kept


def mahler_measure(f: GroupRingElement, m: int | None = None) -> EntropyEstimate:
    """log Mahler measure of f: the mean of log|f^| over the d-torus.

    Midpoint rule on an m^d grid, m >= 4.  |f^| is even and the midpoint
    grid is closed under theta -> -theta, so the mean is taken over the
    half grid of _kernels.grid_abs_values, each row weighted for its
    mirror and each block of rows folded into a running sum.  When f^ is
    nonvanishing the integrand is analytic and the rule converges
    superalgebraically; the reported error bound is the
    empirical difference against the strictly coarser grid of m // 2
    points per axis.  Grid points with |f^| below the singularity floor
    are excluded, counted over the full grid and flagged
    (integrable-singularity regime, estimate only).
    """
    if f.is_zero():
        raise ValueError("Mahler measure of the zero element")
    if m is None:
        m = MAHLER_DEFAULT_GRID.get(f.d, 32)
    if m < 4:
        raise ValueError(f"Mahler grid size must be at least 4, got {m}")
    value, excluded = _log_mean(f, m)
    coarse, _ = _log_mean(f, m // 2)
    notes = ""
    if excluded:
        notes = f"{excluded} grid points below {SINGULARITY_FLOOR} excluded; vanishing regime"
    return EntropyEstimate(
        value,
        MAHLER,
        error_bound=abs(value - coarse),
        parameters={"grid": m, "d": f.d, "excluded_points": excluded},
        notes=notes,
    )


@dataclass
class DualityReport(Report):
    entropy: float
    entropy_star: float
    difference: float


def duality_check(A: GroupRingMatrix, m: int | None = None) -> DualityReport:
    """Entropy of the presentation vs its involution.

    A* is eliminated exactly and det(A*) compared with det(A)*; a
    disagreement raises torus.VerificationError.  The two log Mahler
    measures are then one quadrature: for integer coefficients
    |(f*)^(theta)| = |conj f^(theta)| at every grid point, so
    entropy_star is entropy and the difference is exactly 0.
    """
    if not A.is_square():
        raise ValueError("square matrix required")
    det = A.det()
    if A.star().det() != det.star():
        raise torus.VerificationError("det(A*) failed exact verification against det(A)*")
    h = mahler_measure(det, m).value
    return DualityReport(h, h, 0.0)


# -- Peters counting ---------------------------------------------------------


class CompanionModule:
    """Z^k with the shift acting by the companion matrix of a monic integer
    polynomial whose constant term is a unit, so the inverse action is
    integral as well.  This coordinatizes the dual module of the principal
    system exactly.  A leading coefficient -1 is accepted, and the matrices
    are those of -f, as X_-f = X_f; self.f stays as given.

    M e_j = e_{j+1} for j < k-1 and M e_{k-1} = -(p_0, ..., p_{k-1}), so
    M^-1 e_{j+1} = e_j and M^-1 e_0 = -p_0 (p_1, ..., p_{k-1}, 1), as
    1/p_0 = p_0 for p_0 = +-1: the inverse is written down, not eliminated.
    M and M^-1 are lists of rows of Python ints.  Both k x k matrices, at
    8 bytes an entry, are charged against ALGDYN_MEM_CAP_MB before either is
    built (_sparse.charge).
    """

    def __init__(self, f: GroupRingElement):
        if f.d != 1:
            raise ValueError("companion modules require a univariate element")
        if f.is_zero():
            raise ValueError("zero polynomial")
        lo = min(e[0] for e in f.terms)
        poly = {e[0] - lo: c for e, c in f.terms.items()}
        k = max(poly)
        if k == 0:
            raise ValueError("constant polynomial has no companion action")
        if abs(poly[k]) != 1:
            raise ValueError("polynomial must be monic")
        poly = {i: c * poly[k] for i, c in poly.items()}  # monic, as X_-f = X_f
        c0 = poly.get(0, 0)
        if abs(c0) != 1:
            raise ValueError("constant term not a unit")
        _sparse.charge(2 * k * k * 8, f"companion matrices of degree {k}")
        self.f = f
        self.degree = k
        p = [poly.get(i, 0) for i in range(k)] + [1]
        self.M = [[int(i == j + 1) for j in range(k - 1)] + [-p[i]] for i in range(k)]
        self.Minv = [[-c0 * p[i + 1]] + [int(i == j) for j in range(k - 1)] for i in range(k)]

    def __repr__(self) -> str:
        return f"CompanionModule({self.f.format()!r}, degree={self.degree})"


def _dedupe_int(rows: np.ndarray) -> np.ndarray:
    """The distinct rows in lexicographic order, as np.unique(rows, axis=0)."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _dedupe_runs(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array of sorted runs, in order: a stable
    sort in place, which merges the runs, then one adjacent-difference mask."""
    keys.sort(kind="stable")
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


INT64_MAX = 2 ** 63 - 1


class _Limbs(NamedTuple):
    """The box lo + [0, spans) cut into runs [a, b) of consecutive
    coordinates; each run is one int64 limb sum_j (x_j - lo_j) strides_j."""
    lo: list
    spans: list
    strides: list
    groups: list


def _limbs(lo: list, hi: list, D: int) -> _Limbs | None:
    """The limbs of the box [lo, hi], first coordinate most significant, each
    run grown while D times its point count stays at most INT64_MAX, the
    bound under which D * limb + c, a step's one product, is an int64 for
    every point of the box.  None when one coordinate's D * span alone
    passes it.  Limb order is lexicographic order."""
    spans = [b - a + 1 for a, b in zip(lo, hi)]
    groups, size = [], 0
    for j, s in enumerate(spans):
        if D * s > INT64_MAX:
            return None
        if groups and D * size * s <= INT64_MAX:
            groups[-1][1], size = j + 1, size * s
        else:
            groups.append([j, j + 1])
            size = s
    strides = [0] * len(spans)
    for a, b in groups:
        size = 1
        for j in range(b - 1, a - 1, -1):
            strides[j], size = size, size * spans[j]
    return _Limbs(lo, spans, strides, groups)


def _recode(S: np.ndarray, old: _Limbs, new: _Limbs) -> np.ndarray:
    """The points S, limbs of old, as limbs of new: digits out, limbs in,
    one coordinate at a time, and the only integer division of the
    counting.  new's box holds old's, or new is the coordinate rows (lo 0,
    one coordinate a limb) and old's box lies inside int64."""
    out = np.empty((len(S), len(new.groups)), dtype=np.int64)
    out[:] = [sum((a - b) * s for a, b, s in zip(old.lo[u:v], new.lo[u:v], new.strides[u:v]))
              for u, v in new.groups]
    limb = [g for g, (u, v) in enumerate(new.groups) for _ in range(u, v)]
    for g, (a, b) in enumerate(old.groups):
        for j in range(a, b):
            if old.spans[j] == 1:  # the digit is 0
                continue
            d = S[:, g] if old.strides[j] == 1 else S[:, g] // old.strides[j]
            if j > a:
                d = d % old.spans[j]
            out[:, limb[j]] += d * new.strides[j]
    return out


def _boxes(P: list, D: int, E: list, n_max: int):
    """(T_n, lo_n, hi_n) for n = 1, ..., n_max: the translates
    T_n = P^(n-1) E, stepped over the nonzero entries of P (about 2k for a
    companion inverse), and the box of S_n, lo_n = D lo_(n-1) + min T_n and
    the same with max."""
    nonzero = [[(j, p) for j, p in enumerate(row) if p] for row in P]
    T, lo, hi = [list(b) for b in E], [0] * len(P), [0] * len(P)
    for n in range(1, n_max + 1):
        if n > 1:
            T = [[sum(p * t[j] for j, p in row) for row in nonzero] for t in T]
        cols = list(zip(*T))
        lo = [D * a + min(c) for a, c in zip(lo, cols)]
        hi = [D * b + max(c) for b, c in zip(hi, cols)]
        yield T, lo, hi


def peters_entropy(
    cm: CompanionModule | np.ndarray,
    E_seed=None,
    n_max: int = 30,
    rational: bool = False,
    diff_window: int = 5,
) -> EntropyEstimate:
    """Counting entropy: growth rate of S_n = {sum_{i<n} M^-i b_i, b_i in E}.

    The estimate is the average of the last diff_window successive
    differences of log|S_n| (the raw quotients log|S_n|/n carry O(1/n)
    corrections; differences converge much faster).  M is inverted
    exactly, in integers, as M^-1 = P/D; in rational mode D may exceed 1,
    for matrices that are integral but not unimodular.

    The sets are counted exactly.  Scaled by D^(n-1), S_n is the integer
    set S_n = D S_(n-1) + T_n, from S_0 = {0}, with the translates
    T_n = P^(n-1) E held as Python ints.  As 0 is in E, the boxes are
    nested and known first: lo_n = D lo_(n-1) + min T_n, and the same with
    max.  The coordinates of a box are cut into limbs (_limbs): runs of
    consecutive coordinates, first most significant, whose sub-box times D
    fits in int64, each held as one int64 mixed-radix digit sum.  A phase
    is a run of steps whose boxes need the same number of limbs L, and it
    uses the limbs of its last box, looked ahead to; so no step rescales
    its keys.  For x in the box, each limb of D x + t is D limb(x) + c(t),
    with no carry between limbs and no division.  A step is one such sum
    per translate and one dedupe: at L = 1 a merge of the |E| sorted runs
    (_dedupe_runs), past it _dedupe_int on the L limb columns.  When L
    grows, S is re-encoded once (_recode).  From the first box where one
    coordinate's D * span alone passes int64, S_n is an array of coordinate
    rows, int64, and Python ints (dtype object) from the first step whose
    box or D passes INT64_MAX.

    Before a step allocates anything it is charged against
    ALGDYN_MEM_CAP_MB: its |E| |S_(n-1)| candidates at 8 bytes a limb or
    int64 coordinate, and for a Python-int coordinate 8 plus the size of an
    int as large as the box's largest coordinate or D, with their lexsort copy,
    the sort's permutation, the dedupe mask and the distinct rows, and
    S_(n-1) with D S_(n-1).  A step over the cap ends the series at n - 1
    with a partial-series note; before its second term, MemoryCapError.
    """
    if n_max < 2 or diff_window < 1:
        raise ValueError("the estimate needs n_max >= 2 and diff_window >= 1")
    if isinstance(cm, CompanionModule):
        k = cm.degree
        P, D = cm.Minv, 1
    else:
        M = [[as_int(v, "a matrix entry") for v in row] for row in np.asarray(cm).tolist()]
        k = len(M)
        P, D = _sparse.int_inverse(M)
        if D != 1 and not rational:
            raise ValueError("constant term not a unit; use rational=True")

    if E_seed is None:
        e1 = [0] * k
        e1[0] = 1
        E_seed = [[0] * k, e1]
    E = norm_sites(E_seed, k)
    if (0,) * k not in E:
        raise ValueError("seed set must contain the zero vector")
    if len(E) < 2:
        raise ValueError("seed set must contain a nonzero generator")

    cap = _sparse.mem_cap_bytes()
    sizes, truncated = [], False
    lay = _limbs([0] * k, [0] * k, D)  # S_0 = {0}, the one point of its box
    S = np.zeros((1, k if lay is None else 1), dtype=np.int64)
    boxes = ((box, _limbs(box[1], box[2], D)) for box in _boxes(P, D, E, n_max))
    for L, phase in itertools.groupby(boxes, key=lambda b: b[1] and len(b[1].groups)):
        # a phase of L limbs is read to its end, for the limbs of its last box;
        # coordinate rows (L None) are stepped one box at a time
        phase = list(phase) if L else phase
        new = phase[-1][1] if L else None
        for (T, lo, hi), _ in phase:
            cols = k if new is None else len(new.groups)
            top = max(D, -min(lo), max(hi)) if new is None else 0  # coordinate rows only
            big = S.dtype == object or top > INT64_MAX
            # bytes of one candidate: a Python-int coordinate is a pointer and an int of top's size
            width = (8 + sys.getsizeof(top) if big else 8) * cols
            # held: S_(n-1) and D S_(n-1); per candidate: itself (width), its lexsort
            # copy and the distinct row it may become (8 bytes a column each), the
            # sort's permutation (8), the mask and its comparison (cols + 1)
            if len(S) * (2 * width + len(E) * (width + 17 * cols + 9)) > cap:
                truncated = True
                break
            if lay is not new:  # rows are the limbs of lo = 0, one coordinate a limb
                rows = _Limbs([0] * k, None, [1] * k, [[j, j + 1] for j in range(k)])
                S, lay = _recode(S, lay, new or rows), new
            if big and S.dtype != object:
                S = S.astype(object)
            if new is None:
                offsets = np.array(T, dtype=S.dtype)
            else:  # limb g of D x + t is D limb_g(x) + sum_{j in g} ((D - 1) lo_j + t_j) s_j
                offsets = np.array([[sum(((D - 1) * new.lo[j] + t[j]) * new.strides[j] for j in range(a, b))
                                     for a, b in new.groups] for t in T], dtype=np.int64)
            base = S if D == 1 else S * D
            merged = np.empty((len(T) * len(S), S.shape[1]), dtype=S.dtype)
            for run, c in zip(np.split(merged, len(T)), offsets):
                np.add(base, c, out=run)
            S = _dedupe_runs(merged.reshape(-1))[:, None] if S.shape[1] == 1 else _dedupe_int(merged)
            sizes.append(len(S))
        if truncated:
            break

    if len(sizes) < 2:
        raise _sparse.MemoryCapError(
            "the counting set outgrew ALGDYN_MEM_CAP_MB at n = 1; the estimate needs two terms"
        )
    logs = [math.log(s) for s in sizes]
    diffs = [logs[i + 1] - logs[i] for i in range(len(logs) - 1)]
    w = min(diff_window, len(diffs))
    estimate = sum(diffs[-w:]) / w
    notes = "memory cap reached; partial series" if truncated else ""
    return EntropyEstimate(
        estimate,
        PETERS,
        error_bound=None,
        parameters={
            "n_max": n_max,
            "n_reached": len(sizes),
            "diff_window": w,
            "seed": [list(b) for b in E],
            "rational": rational,
        },
        series=[{"n": i + 1, "count": s, "log": logs[i]} for i, s in enumerate(sizes)],
        notes=notes,
    )


# -- homoclinic packing estimate ----------------------------------------------


def packing_lower_bound(
    x: HomoclinicPoint,
    F: list,
    eps: float | None = None,
    M_levels: int = 2,
) -> EntropyEstimate:
    """Separated-family entropy estimate for a certified system.

    Builds the family {sum_{s in F1} c_s (s^-1 x) : c in {0..M-1}^F1} from a
    homoclinic point x (the CLI takes x = e_1 (A*)^-1), with F1 a greedily
    separated subset of the window F (conflict set K-K derived from the
    tail of x), and counts a maximal (F, eps)-separated subfamily by
    pairwise torus distances.  The value log(count)/|F| is an estimate
    from one window, not a proved lower bound: it can exceed the entropy.
    F1 is cut to keep M^|F1| <= PACKING_FAMILY_CAP, and a larger M is refused.
    """
    if M_levels < 1:
        raise ValueError("M_levels must be >= 1")
    if M_levels > PACKING_FAMILY_CAP:
        raise ValueError(f"M_levels = {M_levels} exceeds PACKING_FAMILY_CAP = {PACKING_FAMILY_CAP}, "
                         "the largest family packing enumerates, on a single site")
    if eps is None:
        eps = 0.5 / x.A.l1_norm()

    def used(n1: int) -> int:  # how many of n1 separated sites the family uses
        cut = max(1, int(math.log(PACKING_FAMILY_CAP, max(2, M_levels))))
        return n1 if M_levels ** n1 <= PACKING_FAMILY_CAP else cut

    # the family's float values over the window are charged before it is scanned
    Fw, radius, F1 = separated_window(x, eps, F, lambda n1: _sparse.charge(
        M_levels ** used(n1) * len(F) * x.k * 8,
        f"the family on at least {n1} separated sites of a window of {len(F)} sites"))
    F1 = F1[:used(len(F1))]
    nfam = M_levels ** len(F1)

    vals = family_values(x, F1, base_digits(np.arange(nfam), M_levels, len(F1)), Fw)
    kept = _kernels.greedy_separated(vals.reshape(nfam, -1), eps)
    count = int(len(kept))
    return EntropyEstimate(
        math.log(count) / len(Fw),
        PACKING,
        error_bound=None,
        parameters={
            "eps": eps,
            "levels": M_levels,
            "window_size": len(Fw),
            "F1": [list(s) for s in F1],
            "K_radius": radius,
            "family_size": nfam,
            "separated_count": count,
        },
        notes="estimate log(separated count)/|F| on one window; not a proved lower bound",
    )
