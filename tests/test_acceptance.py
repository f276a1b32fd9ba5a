"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from algdyn.entropy import (
    CompanionModule,
    duality_check,
    mahler_measure,
    peters_entropy,
)
from algdyn.expansive import FINITE, INFINITE, has_finite_entropy
from algdyn.groupring import GroupRingElement, GroupRingMatrix, ball, parse_element
from algdyn.homoclinic import (
    annihilation_residual,
    delta1_membership,
    fundamental_homoclinic,
    group_element,
)
from algdyn.independence import (
    ShadowBlock,
    ShadowRequest,
    greedy_separated_subset,
    independence_witnesses,
    interaction_radius,
    shadow,
)
from algdyn.freegroup import verify_annihilator
from algdyn.torus import INVERTIBLE, NOT_INVERTIBLE, certify_invertible, l1_inverse
from conftest import jensen_mahler, pairing_gap, past_the_bound, random_element

F_SYM = parse_element("3 - u1 - u1^-1")
F_GEO = parse_element("u1 - 2")
F_HARM = parse_element("4 - u1 - u1^-1 - u2 - u2^-1")
A_SYM = GroupRingMatrix([[F_SYM]])
LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


def _report(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n:2d}: PASS  {detail}")


def test_criterion_01_wiener_certification():
    t0 = time.perf_counter()
    cert = certify_invertible(F_SYM, 2048)
    cert_h = certify_invertible(F_HARM)
    elapsed = time.perf_counter() - t0
    assert cert.verdict == INVERTIBLE
    assert cert.grid_size == 2048
    assert cert.margin > 0
    assert cert_h.verdict == NOT_INVERTIBLE
    assert cert_h.witness == (Fraction(0), Fraction(0))
    assert elapsed < 1.0
    _report(1, f"margin {cert.margin:.4f}, witness theta=(0,0), {elapsed*1e3:.0f} ms")


def test_criterion_02_l1_inverse():
    g = l1_inverse(F_SYM, 1e-10, 40)
    assert g.converged
    assert g.residual <= Fraction(1, 10**10)
    g0_err = abs(float(g.terms.get((0,), 0)) - 5 ** -0.5)
    assert g0_err <= 1e-9
    # closed-form oracle across the support
    r = (3 - math.sqrt(5)) / 2
    for n in range(-10, 11):
        assert float(g.terms.get((n,), 0)) == pytest.approx(r ** abs(n) / math.sqrt(5), abs=1e-9)
    _report(2, f"residual {float(g.residual):.2e}, |g0 - 5^-1/2| = {g0_err:.2e}")


def test_criterion_03_mahler_measure():
    m1 = mahler_measure(F_GEO, 65536).value
    m2 = mahler_measure(F_SYM, 65536).value
    tgt1, tgt2 = math.log(2), math.log((3 + math.sqrt(5)) / 2)
    assert abs(m1 - tgt1) <= 1e-8
    assert abs(m2 - tgt2) <= 1e-8
    # independent Jensen oracles
    assert abs(m1 - jensen_mahler(F_GEO)) <= 1e-8
    assert abs(m2 - jensen_mahler(F_SYM)) <= 1e-8
    _report(3, f"|m(u-2)-log2| = {abs(m1-tgt1):.1e}, |m(3-u-u^-1)-log((3+sqrt5)/2)| = {abs(m2-tgt2):.1e}")


def test_criterion_04_duality():
    fixtures = [
        GroupRingMatrix([[F_GEO]]),
        GroupRingMatrix([[F_SYM]]),
        GroupRingMatrix.from_obj([["2", "u1"], ["u1^-1", "2"]]),
    ]
    for A in fixtures:
        rep = duality_check(A, 4096)  # raises VerificationError unless det(A*) = det(A)*
        assert rep.entropy_star == rep.entropy and rep.difference == 0.0
    _report(4, "det(A*) = det(A)* exactly over 3 fixtures")


def test_criterion_05_peters_counting():
    t0 = time.perf_counter()
    cm = CompanionModule(parse_element("u1^2 - u1 - 1"))
    est = peters_entropy(cm, n_max=30)
    elapsed = time.perf_counter() - t0
    assert est.parameters["n_reached"] == 30
    assert "partial" not in est.notes
    # successive-difference estimate over the final stretch n = 24..30
    logs = [row["log"] for row in est.series]
    window_diffs = [logs[i + 1] - logs[i] for i in range(23, 29)]
    for dv in window_diffs:
        assert abs(dv - LOG_GOLDEN) <= 0.05
    assert abs(est.value - LOG_GOLDEN) <= 0.05
    assert elapsed < 60.0
    peak_bytes = max(row["count"] for row in est.series) * cm.degree * 8 * 4
    assert peak_bytes < 2 * 1024**3

    # exact counting checks
    est_shift = peters_entropy(CompanionModule(parse_element("u1 - 1")), n_max=20)
    assert [row["count"] for row in est_shift.series] == [n + 1 for n in range(1, 21)]
    est_two = peters_entropy(np.array([[2]]), E_seed=[[0], [1]], n_max=12, rational=True)
    assert [row["count"] for row in est_two.series] == [2**n for n in range(1, 13)]

    with pytest.raises(ValueError, match="constant term not a unit"):
        CompanionModule(F_GEO)
    _report(
        5,
        f"estimate {est.value:.6f} vs log(phi) {LOG_GOLDEN:.6f}, "
        f"{elapsed:.1f} s, peak ~{peak_bytes/1e6:.0f} MB",
    )


def test_criterion_06_additivity():
    rng = np.random.default_rng(101)
    pool = []
    while len(pool) < 8:
        f = random_element(rng, 1, radius=2, max_coef=3)
        if f.is_zero():
            continue
        if certify_invertible(f).verdict == INVERTIBLE:
            pool.append(f)
    worst = 0.0
    for _ in range(20):
        i, j = rng.integers(0, len(pool), size=2)
        f, g = pool[i], pool[j]
        defect = abs(mahler_measure(f * g, 65536).value - mahler_measure(f, 65536).value
                     - mahler_measure(g, 65536).value)
        worst = max(worst, defect)
        assert defect <= 1e-7
    _report(6, f"max additivity defect {worst:.2e} over 20 random products")


def _laurent_divides(den: GroupRingElement, num: GroupRingElement) -> bool:
    """Whether den divides num in the univariate Laurent ring, over Q."""
    if num.is_zero():
        return True
    lo_d = min(e[0] for e in den.terms)
    lo_n = min(e[0] for e in num.terms)
    dd = [Fraction(den.coefficient(n)) for n in range(lo_d, max(e[0] for e in den.terms) + 1)]
    nn = [Fraction(num.coefficient(n)) for n in range(lo_n, max(e[0] for e in num.terms) + 1)]
    # long division of nn by dd (ascending coefficient lists)
    rem = nn[:]
    deg_d = len(dd) - 1
    while len(rem) - 1 >= deg_d:
        lead = rem[-1] / dd[-1]
        shift = len(rem) - 1 - deg_d
        for i, c in enumerate(dd):
            rem[shift + i] -= lead * c
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            return True
    return all(c == 0 for c in rem)


def test_criterion_07_finite_entropy_iff_one_expansive():
    rng = np.random.default_rng(103)

    deficient = 0
    while deficient < 10:
        d = int(rng.integers(1, 3))
        a = random_element(rng, d)
        b = random_element(rng, d)
        p = random_element(rng, d)
        if a.is_zero() or b.is_zero() or p.is_zero():
            continue
        A = GroupRingMatrix([[a, a * p], [b, b * p]])  # proportional columns
        rep = has_finite_entropy(A)
        assert rep.verdict == INFINITE
        # verify the witness annihilates A* exactly
        Astar = A.star()
        assert rep.witness is not None and any(not w.is_zero() for w in rep.witness)
        for j in range(Astar.cols):
            acc = GroupRingElement.zero(d)
            for i in range(2):
                acc = acc + rep.witness[i] * Astar.entries[i][j]
            assert acc.is_zero()
        deficient += 1

    full = 0
    while full < 10:
        d = int(rng.integers(1, 3))
        A = GroupRingMatrix([[random_element(rng, d) for _ in range(2)] for _ in range(2)])
        if A.det().is_zero():
            continue
        rep = has_finite_entropy(A)
        assert rep.verdict == FINITE
        full += 1
    _report(7, "10 rank-deficient presentations Infinite with verified witnesses; 10 full-rank Finite")


def test_criterion_08_expansiveness_constant():
    rng = np.random.default_rng(107)
    fstar = F_SYM.star()
    bound = Fraction(1, 5)
    checked = 0
    worst = 1.0
    while checked < 1000:
        terms = {
            (int(e),): int(c)
            for e, c in zip(rng.integers(-4, 5, size=4), rng.integers(-9, 10, size=4))
            if c
        }
        m = GroupRingElement(1, terms)
        if m.is_zero() or _laurent_divides(fstar, m):
            continue
        x = group_element(A_SYM, m)
        sup = max(
            (max(abs(frac) for frac in (x.value(e))) for e in x.support()),
            default=0.0,
        )
        assert sup >= float(bound) - x.tail_bound - 1e-12
        worst = min(worst, sup)
        checked += 1
    assert worst >= float(bound) - 1e-9
    _report(8, f"1000 nonzero homoclinic elements, min sup rho = {worst:.6f} >= 1/5")


def test_criterion_09_homoclinic_membership():
    (x,) = fundamental_homoclinic(A_SYM, 1e-10, 40)
    resid = annihilation_residual(x)
    assert resid <= 1e-8
    cert = delta1_membership(x)
    assert cert.finite and math.isfinite(cert.total)
    # <s.x2, m1> and <(-s).x1, m2>, in exact Fractions, agree up to the tail bounds
    x2 = group_element(A_SYM, 1, 1e-12, 40)
    x1 = group_element(A_SYM.star(), 1, 1e-12, 40)
    gap, bound = pairing_gap(x2, x1)
    assert gap <= bound <= 1e-9
    # one numerator of x2's inverse moved by twice the bound fails the check
    assert pairing_gap(past_the_bound(x2, (0,), bound), x1)[0] > bound
    _report(
        9,
        f"annihilation residual {resid:.1e}, Delta^1 sum {cert.total:.6f}, "
        f"pairing gap {float(gap):.1e} <= {bound:.1e}",
    )


def test_criterion_10_ie_witnesses():
    (x,) = fundamental_homoclinic(A_SYM)
    rep = independence_witnesses(x, 0.1, list(range(60)), cap=4096)
    assert rep.all_pass
    assert not rep.subsampled
    radius = interaction_radius(x, 0.1)
    conflict = ball(1, 2 * radius)
    assert rep.density >= 1.0 / (2 * len(conflict) + 1)

    rng = np.random.default_rng(109)
    for _ in range(500):
        d = int(rng.integers(1, 3))
        F = sorted({tuple(int(v) for v in rng.integers(-12, 13, size=d)) for _ in range(int(rng.integers(1, 30)))})
        r = int(rng.integers(0, 4))
        F1 = greedy_separated_subset(F, r)
        assert len(F1) * (2 * (2 * r + 1) ** d + 1) >= len(F)
        for i, s in enumerate(F1):
            for t in F1[i + 1 :]:
                assert max(abs(a - b) for a, b in zip(s, t)) > r
    _report(
        10,
        f"density {rep.density:.3f} >= 1/{2*len(conflict)+1}, "
        f"{rep.witnesses_checked} sigma-checks all pass at eps=0.1; greedy bound on 500 random (F, radius)",
    )


def test_criterion_11_specification_shadow():
    t0 = time.perf_counter()
    b1 = ShadowBlock(list(range(0, 5)), group_element(A_SYM, parse_element("u1^2")))
    b2 = ShadowBlock(list(range(40, 45)), group_element(A_SYM, parse_element("u1^42")))
    res = shadow(A_SYM, ShadowRequest([b1, b2], 0.05))
    assert all(e <= 0.05 for e in res.block_errors)

    bp = ShadowBlock(list(range(0, 5)), group_element(A_SYM, parse_element("u1^2")))
    per = shadow(A_SYM, ShadowRequest([bp], 0.05, [64]))
    for n in range(-5, 70):
        assert per.lift_at(n) == per.lift_at(n + 64)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        11,
        f"block errors {max(res.block_errors):.1e} <= 0.05, periodic shadow exactly "
        f"64-invariant, {elapsed:.2f} s",
    )


def test_criterion_12_freegroup_annihilator():
    for d in (2, 3):
        rep = verify_annihilator(d, 5, 2 * 5 - 2)
        assert rep.all_zero
        assert rep.nonzero_radii == []
    _report(12, "g_5 chi_1 exactly zero on the radius-8 ball for ranks 2 and 3")
