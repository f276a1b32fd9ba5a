"""Entropy of algebraic shift actions, three independent ways.

* mahler_measure: midpoint-rule average of log|f^| over the torus.  For a
  square presentation the entropy equals the log Mahler measure of the
  exact determinant.
* peters_entropy: exact counting of the growing sets sum_{i<n} u^-i E in a
  finitely generated dual module, coordinatized through a companion matrix;
  the entropy is the exponential growth rate of the counts.
* packing_lower_bound: explicit families of homoclinic combinations that
  are pairwise separated on a window, certifying a lower bound.

The three routes are compared in the test suite; duality_check and
additivity_check exercise the invariances the theory predicts (entropy of
the involuted presentation is equal, and the measure is multiplicative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels, torus
from .groupring import GroupRingElement, GroupRingMatrix, ball
from .homoclinic import fundamental_homoclinic
from .independence import greedy_separated_subset, interaction_radius

MAHLER_DEFAULT_GRID = {1: 65536, 2: 512, 3: 64}
SINGULARITY_FLOOR = 1e-12

MAHLER = "MahlerQuadrature"
PETERS = "PetersCounting"
PACKING = "PackingLowerBound"


@dataclass
class EntropyEstimate:
    value: float
    method: str
    error_bound: float | None = None
    parameters: dict = field(default_factory=dict)
    series: list | None = None
    notes: str = ""

    def to_obj(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "error_bound": self.error_bound,
            "parameters": self.parameters,
            "series": self.series,
            "notes": self.notes,
        }


# -- log-Mahler quadrature ---------------------------------------------------


def _log_mean(f: GroupRingElement, m: int) -> tuple[float, int]:
    exps, coefs = torus._term_arrays(f)
    torus._check_grid_memory(m, f.d)
    vals = _kernels.grid_abs_values(exps, coefs, m, 0.5)
    mask = vals >= SINGULARITY_FLOOR
    excluded = int(vals.size - int(mask.sum()))
    if not mask.any():
        raise ValueError("all grid values below the singularity floor")
    return float(np.mean(np.log(vals[mask]))), excluded


def mahler_measure(f: GroupRingElement, m: int | None = None) -> EntropyEstimate:
    """log Mahler measure of f: the mean of log|f^| over the d-torus.

    Midpoint rule on an m^d grid.  When f^ is nonvanishing the integrand is
    analytic and the rule converges superalgebraically; the reported error
    bound is the empirical difference against the half-resolution grid.
    Grid points with |f^| below the singularity floor are excluded and
    flagged (integrable-singularity regime, estimate only).
    """
    if f.is_zero():
        raise ValueError("Mahler measure of the zero element")
    if m is None:
        m = MAHLER_DEFAULT_GRID.get(f.d, 32)
    value, excluded = _log_mean(f, m)
    coarse, _ = _log_mean(f, max(2, m // 2))
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
class DualityReport:
    entropy: float
    entropy_star: float
    difference: float

    def to_obj(self) -> dict:
        return {
            "entropy": self.entropy,
            "entropy_star": self.entropy_star,
            "difference": self.difference,
        }


def duality_check(A: GroupRingMatrix, m: int | None = None) -> DualityReport:
    """Entropy of the presentation vs its involution: m(det A) vs m(det A*)."""
    if not A.is_square():
        raise ValueError("square matrix required")
    h = mahler_measure(A.det(), m)
    h_star = mahler_measure(A.star().det(), m)
    return DualityReport(h.value, h_star.value, abs(h.value - h_star.value))


@dataclass
class AdditivityReport:
    entropy_product: float
    entropy_f: float
    entropy_g: float
    defect: float

    def to_obj(self) -> dict:
        return {
            "entropy_product": self.entropy_product,
            "entropy_f": self.entropy_f,
            "entropy_g": self.entropy_g,
            "defect": self.defect,
        }


def additivity_check(
    f: GroupRingElement,
    g: GroupRingElement,
    m: int | None = None,
    certify: bool = True,
) -> AdditivityReport:
    """|m(fg) - m(f) - m(g)|: the counting analogue of entropy additivity."""
    if certify:
        for h in (f, g):
            cert = torus.certify_invertible(h)
            if cert.verdict != torus.INVERTIBLE:
                raise torus.NotInvertibleError(
                    f"additivity check requires certified-invertible inputs, got {cert.verdict}"
                )
    hf = mahler_measure(f, m).value
    hg = mahler_measure(g, m).value
    hfg = mahler_measure(f * g, m).value
    return AdditivityReport(hfg, hf, hg, abs(hfg - hf - hg))


# -- Peters counting ---------------------------------------------------------


class CompanionModule:
    """Z^k with the shift acting by the companion matrix of a monic integer
    polynomial whose constant term is a unit, so the inverse action is
    integral as well.  This coordinatizes the dual module of the principal
    system exactly."""

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
        if poly.get(k) != 1:
            raise ValueError("polynomial must be monic")
        c0 = poly.get(0, 0)
        if abs(c0) != 1:
            raise ValueError("constant term not a unit")
        self.f = f
        self.degree = k
        coeffs = [poly.get(i, 0) for i in range(k + 1)]
        M = np.zeros((k, k), dtype=np.int64)
        for i in range(k - 1):
            M[i + 1, i] = 1
        for i in range(k):
            M[i, k - 1] = -coeffs[i]
        self.M = M
        det = int(round(np.linalg.det(M)))
        if abs(det) != 1:
            raise ValueError("companion matrix is not unimodular")
        Minv = np.rint(np.linalg.inv(M) * det).astype(np.int64) * det
        assert (M @ Minv == np.eye(k, dtype=np.int64)).all()
        self.Minv = Minv

    def __repr__(self) -> str:
        return f"CompanionModule({self.f.format()!r}, degree={self.degree})"


def _dedupe_int(rows: np.ndarray) -> np.ndarray:
    """The distinct rows in lexicographic order, as np.unique(rows, axis=0)."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


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
    corrections; differences converge much faster).  In rational mode M^-1
    is applied over the exact rationals, for matrices that are integral but
    not unimodular.
    """
    if isinstance(cm, CompanionModule):
        M = cm.M
        Minv_i = cm.Minv
        k = cm.degree
    else:
        M = np.asarray(cm, dtype=np.int64)
        k = M.shape[0]
        Minv_i = None
        if not rational:
            det = int(round(np.linalg.det(M)))
            if abs(det) != 1:
                raise ValueError("constant term not a unit; use rational=True")
            Minv_i = np.rint(np.linalg.inv(M) * det).astype(np.int64) * det

    if E_seed is None:
        e1 = [0] * k
        e1[0] = 1
        E_seed = [[0] * k, e1]
    E = [tuple(int(v) for v in b) for b in E_seed]
    if (0,) * k not in E:
        raise ValueError("seed set must contain the zero vector")
    if len(E) < 2:
        raise ValueError("seed set must contain a nonzero generator")

    cap = torus.mem_cap_bytes()
    sizes: list[int] = []
    truncated = False

    if rational:
        Mq = [[Fraction(int(M[i, j])) for j in range(k)] for i in range(k)]
        Minv_q = _rational_inverse(Mq)
        S = {tuple(Fraction(v) for v in b) for b in E}
        for n in range(1, n_max + 1):
            if n > 1:
                new = set()
                for v in S:
                    mv = tuple(
                        sum(Minv_q[i][j] * v[j] for j in range(k)) for i in range(k)
                    )
                    for b in E:
                        new.add(tuple(mv[i] + b[i] for i in range(k)))
                S = new
            sizes.append(len(S))
            if len(S) * k * 128 > cap:
                truncated = True
                break
    else:
        S = np.array(sorted(set(E)), dtype=np.int64)
        MT = Minv_i.T.copy()
        for n in range(1, n_max + 1):
            if n > 1:
                V = S @ MT
                cand = np.concatenate([V + np.array(b, dtype=np.int64) for b in E])
                S = _dedupe_int(cand)
            sizes.append(int(S.shape[0]))
            if S.nbytes * (len(E) + 2) > cap:
                truncated = True
                break

    logs = [math.log(s) for s in sizes]
    diffs = [logs[i + 1] - logs[i] for i in range(len(logs) - 1)]
    w = min(diff_window, len(diffs))
    estimate = sum(diffs[-w:]) / w if w else 0.0
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


def _rational_inverse(Mq: list[list[Fraction]]) -> list[list[Fraction]]:
    k = len(Mq)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(Mq)]
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


# -- homoclinic packing lower bound -------------------------------------------


def packing_lower_bound(
    A: GroupRingMatrix,
    F: list,
    eps: float | None = None,
    M_levels: int = 2,
    cap: int = 1 << 20,
    tol: float = 1e-10,
    radius_cap: int = 40,
) -> EntropyEstimate:
    """Separated-family lower bound for the entropy of a certified system.

    Builds the family {sum_{s in F1} c_s (s^-1 x) : c in {0..M-1}^F1} from a
    fundamental homoclinic point x, with F1 a greedily separated subset of
    the window F (conflict set K-K derived from the tail of x), and counts
    a maximal (F, eps)-separated subfamily by pairwise torus distances.
    log(count)/|F| is a lower bound for the entropy; the uniform greedy
    density additionally gives log(M)/(2|K-K|+1) for every window.
    """
    if M_levels < 1:
        raise ValueError("M_levels must be >= 1")
    x = fundamental_homoclinic(A, tol, radius_cap)[0]
    if eps is None:
        eps = 0.5 / A.l1_norm()
    d = A.d
    Fw = [((s,) if isinstance(s, int) else tuple(s)) for s in F]

    radius = interaction_radius(x, eps, radius_cap)
    KmK = ball(d, 2 * radius)
    F1 = greedy_separated_subset(Fw, KmK)

    if M_levels ** len(F1) > cap:
        F1 = F1[: max(1, int(math.log(cap, max(2, M_levels))))]
    nfam = M_levels ** len(F1)

    # family values observed through the window: applying the group element t
    # to a member reads its coordinate at -t, so member c contributes
    # sum_s c_s lift(s - t) at window site t.
    vals = np.zeros((nfam, len(Fw) * x.k), dtype=np.float64)
    shifts = []
    for s in F1:
        col = np.zeros(len(Fw) * x.k)
        for ti, t in enumerate(Fw):
            e = tuple(b - a for a, b in zip(t, s))
            for j in range(x.k):
                v = x.lift[j].get(e)
                col[ti * x.k + j] = float(v) if v is not None else 0.0
        shifts.append(col)
    digits = np.zeros((nfam, len(F1)), dtype=np.int64)
    for idx in range(nfam):
        r = idx
        for pos in range(len(F1)):
            digits[idx, pos] = r % M_levels
            r //= M_levels
    for pos, col in enumerate(shifts):
        vals += np.outer(digits[:, pos].astype(np.float64), col)

    kept = _kernels.greedy_separated(vals, eps)
    count = int(len(kept))
    value = math.log(count) / len(Fw) if Fw else 0.0
    uniform = math.log(M_levels) / (2 * len(KmK) + 1)
    return EntropyEstimate(
        value,
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
            "uniform_density_bound": uniform,
        },
        notes="certified lower bound from an explicitly separated family",
    )
