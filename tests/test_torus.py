import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from algdyn import _kernels, _sparse, entropy, homoclinic, torus
from algdyn._kernels import grid_error_bound
from algdyn.groupring import GroupRingElement, GroupRingMatrix, parse_element
from algdyn.torus import (
    INVERTIBLE,
    NOT_INVERTIBLE,
    UNKNOWN,
    MemoryCapError,
    NotInvertibleError,
    certify_invertible,
    certify_matrix_invertible,
    evaluate,
    evaluate_exact_is_zero,
    l1_inverse,
    lipschitz_bound,
    matrix_l1_inverse,
)
from conftest import cells_of, random_element

E = GroupRingElement


# -- evaluation ---------------------------------------------------------------


def test_evaluate_trivials(f_symmetric, f_harmonic):
    assert evaluate(f_symmetric, 0.0) == pytest.approx(1.0)
    assert evaluate(f_symmetric, 0.5) == pytest.approx(5.0)
    assert evaluate(f_harmonic, (0.0, 0.0)) == pytest.approx(0.0)


def test_evaluate_conjugate_symmetry_random():
    rng = np.random.default_rng(5)
    for _ in range(40):
        d = int(rng.integers(1, 3))
        f = random_element(rng, d)
        theta = tuple(rng.random(d))
        lhs = evaluate(f.star(), theta)
        rhs = evaluate(f, theta).conjugate()
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_lipschitz_examples(f_symmetric):
    assert lipschitz_bound(parse_element("u1 - 2")) == pytest.approx(2 * math.pi, rel=1e-8)
    assert lipschitz_bound(f_symmetric) == pytest.approx(4 * math.pi, rel=1e-8)
    assert lipschitz_bound(E.constant(1, 5)) == 0.0


def test_lipschitz_is_valid_bound():
    rng = np.random.default_rng(23)
    for _ in range(20):
        f = random_element(rng, 1, radius=3)
        lip = lipschitz_bound(f)
        t0, t1 = rng.random(2)
        num = abs(evaluate(f, t0) - evaluate(f, t1))
        dist = abs(t0 - t1)
        dist = min(dist, 1 - dist)
        if dist > 1e-9:
            assert num <= lip * dist + 1e-9


# -- exact rational-point evaluation ------------------------------------------


def test_exact_zero_harmonic(f_harmonic):
    assert evaluate_exact_is_zero(f_harmonic, (Fraction(0), Fraction(0)))
    assert not evaluate_exact_is_zero(f_harmonic, (Fraction(1, 2), Fraction(0)))


def test_exact_zero_cyclotomic():
    # 1 + u + u^2 vanishes exactly at theta = 1/3
    f = parse_element("1 + u1 + u1^2")
    assert evaluate_exact_is_zero(f, (Fraction(1, 3),))
    assert not evaluate_exact_is_zero(f, (Fraction(1, 4),))
    # u^2 + 1 vanishes at 1/4
    g = parse_element("1 + u1^2")
    assert evaluate_exact_is_zero(g, (Fraction(1, 4),))


def _is_zero_oracle(f, theta):
    """f^(theta) == 0, decided afresh for each point in Fraction arithmetic."""
    if f.is_zero():
        return True
    q = 1
    for t in theta:
        q = q * Fraction(t).denominator // math.gcd(q, Fraction(t).denominator)
    if q > 256:
        raise ValueError("rational point denominator too large for exact check")
    ps = [int(Fraction(t) * q) % q for t in theta]
    acc = [0] * q
    for e, c in f.terms.items():
        acc[sum(n * p for n, p in zip(e, ps)) % q] += c
    if q == 1:
        return acc[0] == 0
    phi = torus._cyclotomic(q)
    deg = len(phi) - 1
    rem = list(acc)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        for j in range(deg + 1):
            rem[i - deg + j] -= c * phi[j]
    return all(v == 0 for v in rem[:deg])


def _scan_oracle(f, extra):
    """The exact scan as a per-candidate Fraction loop, built afresh per call."""
    seen, candidates = set(), []
    for q in [1, 2, 3, 4, 6] if f.d <= 2 else [1, 2, 3, 4]:
        stack = [()]
        for _ in range(f.d):
            stack = [t + (Fraction(p, q),) for t in stack for p in range(q)]
        candidates += [t for t in stack if t not in seen and not seen.add(t)]
    # an extra point whose denominators have lcm past 256 is too fine to check
    fine = [t for t in extra if math.lcm(*(Fraction(x).denominator for x in t)) <= 256]
    candidates += [t for t in fine if t not in seen and not seen.add(t)]
    for t in candidates:
        if _is_zero_oracle(f, t):
            return tuple(Fraction(x) % 1 for x in t)
    return None


# planted factor of u_i -> the theta_i where it vanishes: on the scan's lattices, or off them
# (fifths and eighths), where only an extra point finds the zero
_ON_LATTICE = {
    "u{i} - 1": [Fraction(0)],
    "u{i} + 1": [Fraction(1, 2)],
    "1 + u{i} + u{i}^2": [Fraction(1, 3), Fraction(2, 3)],
    "1 + u{i}^2": [Fraction(1, 4), Fraction(3, 4)],
}
_OFF_LATTICE = {
    "1 + u{i} + u{i}^2 + u{i}^3 + u{i}^4": [Fraction(k, 5) for k in range(1, 5)],
    "1 + u{i}^4": [Fraction(k, 8) for k in (1, 3, 5, 7)],
}


@st.composite
def _planted_scan_input(draw):
    """f = random element times planted factors; extra = random points (lcm of the
    denominators past 256 possible at d = 3), plus maybe one zero per factor."""
    d = draw(st.integers(1, 3))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(-2, 2)] * d), st.integers(-3, 3), max_size=4))
    if draw(st.booleans()):  # a dominant constant: no zero but the planted ones
        terms[(0,) * d] = terms.get((0,) * d, 0) + 13
    f = E(d, terms)
    point = st.lists(st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 5, 7, 8, 11, 12])),
                     min_size=d, max_size=d)
    extra = [tuple(t) for t in draw(st.lists(point, max_size=5))]
    factors = draw(st.lists(st.sampled_from(sorted(_ON_LATTICE)), max_size=2))
    factors += draw(st.lists(st.sampled_from(sorted(_OFF_LATTICE)), max_size=2))
    for text in factors:
        i = draw(st.integers(0, d - 1))
        f = f * parse_element(text.format(i=i + 1), d)
        if draw(st.booleans()):
            t = draw(point)
            t[i] = draw(st.sampled_from((_ON_LATTICE | _OFF_LATTICE)[text]))
            extra.insert(draw(st.integers(0, len(extra))), tuple(t))
    return f, extra


@settings(max_examples=300, deadline=None)
@given(_planted_scan_input())
@example((parse_element("13 + u1", 2) * parse_element("1 + u2 + u2^2 + u2^3 + u2^4"),
          [(Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 8), Fraction(2, 5))]))  # found among extra
@example((parse_element("13 + u1", 3), [(0, 0, 0), (Fraction(1, 7), Fraction(1, 11), Fraction(1, 4))]))  # q > 256
@example((parse_element("1 + u1 + u1^2 + u1^3 + u1^4"), [(Fraction(6, 5),)]))  # witness reduced mod 1
def test_exact_zero_scan_matches_fraction_oracle(case):
    f, extra = case
    # as certify_invertible runs them: the lattices, then the near points off them
    found = torus._exact_zero(f, torus._scan_points(f.d)) or torus._exact_zero(f, torus._off_scan(f.d, extra))
    assert found == _scan_oracle(f, extra)


def test_scan_points_match_fraction_lattices():
    """The pairs (q, ps) are points of the Fraction lattices, each once, in scan order;
    every lattice point is listed or is the mirror -theta of an earlier listed point."""
    for d in (1, 2, 3):
        lattices = list(dict.fromkeys(tuple(Fraction(p, q) for p in ps) for q in ([1, 2, 3, 4, 6] if d <= 2 else [1, 2, 3, 4])
                                      for ps in itertools.product(range(q), repeat=d)))
        listed = [tuple(Fraction(p, q) for p in ps) for q, ps in torus._scan_points(d)]
        assert listed == [t for t in lattices if t in listed]
        for t in lattices:
            mirror = tuple(-x % 1 for x in t)
            if t in listed:  # a listed point's mirror is not listed before it
                assert mirror == t or mirror not in listed[:listed.index(t)]
            else:
                assert mirror in listed and lattices.index(mirror) < lattices.index(t)


# -- certification ------------------------------------------------------------


def test_certify_symmetric(f_symmetric):
    cert = certify_invertible(f_symmetric, 2048)
    assert cert.verdict == INVERTIBLE
    assert cert.grid_min == pytest.approx(1.0, abs=1e-6)
    assert cert.margin > 0


def test_certify_harmonic(f_harmonic):
    cert = certify_invertible(f_harmonic)
    assert cert.verdict == NOT_INVERTIBLE
    assert cert.witness == (Fraction(0), Fraction(0))


def test_certify_geometric(f_geometric):
    cert = certify_invertible(f_geometric)
    assert cert.verdict == INVERTIBLE
    assert cert.grid_min >= 1.0 - 1e-9


def test_certify_cyclotomic_zero():
    cert = certify_invertible(parse_element("1 + u1 + u1^2"))
    assert cert.verdict == NOT_INVERTIBLE
    assert cert.witness in ((Fraction(1, 3),), (Fraction(2, 3),))


def test_certify_self_adjoint_d3_never_raises():
    # c - sum a_i (u_i + u_i^-1): some grid minima have near points with
    # common denominator past 256, which are skipped (Unknown), not refused
    rng = random.Random(7)
    verdicts = set()
    for _ in range(300):
        c, a = rng.randint(1, 12), [rng.randint(1, 4) for _ in range(3)]
        f = parse_element(f"{c}" + "".join(f" - {ai}*u{i} - {ai}*u{i}^-1" for i, ai in enumerate(a, 1)))
        cert = certify_invertible(f, 64)
        verdicts.add(cert.verdict)
        if cert.verdict == NOT_INVERTIBLE:
            assert evaluate_exact_is_zero(f, cert.witness)
            assert all(0 <= t < 1 for t in cert.witness)
    assert verdicts == {INVERTIBLE, NOT_INVERTIBLE, UNKNOWN}


def test_certify_unknown_regime():
    # 2 + 3u + 2u^2 has both roots on the unit circle at irrational angles
    # (modulus^2 = (9+7)/16 = 1), so no exact rational witness exists and the
    # sound verdict is Unknown at any grid size.
    # The note gives facts, not a remedy: a finer grid cannot help here.
    g = parse_element("2 + 3*u1 + 2*u1^2")
    m = 4096
    cert = certify_invertible(g, m)
    assert cert.verdict == UNKNOWN
    assert "increase" not in cert.note
    found = re.search(r"theta = \((\d+)/(\d+)\); margin (\S+) is (\S+) below", cert.note)
    j, denom, margin, deficit = found.groups()
    assert int(denom) == m
    # f^(theta) = z (3 + 4 cos 2 pi theta): zeros at cos 2 pi theta = -3/4
    zero = math.acos(-0.75) / (2 * math.pi)
    assert min(abs(int(j) / m - zero), abs(int(j) / m - (1 - zero))) <= 1 / (2 * m)
    assert float(margin) == pytest.approx(cert.margin, rel=1e-3)
    guard = grid_error_bound(*torus._term_arrays(g), m, 0.0)
    assert float(deficit) == pytest.approx(guard - cert.margin, rel=1e-3)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 2),
    extra=st.integers(1, 4),
    sign=st.sampled_from([-1, 1]),
    e0=st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
    others=st.dictionaries(
        st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
        st.integers(-3, 3).filter(bool),
        max_size=6,
    ),
)
@example(d=1, extra=2, sign=1, e0=(0, 0), others={(10**6, 0): -1})  # 3 - u1^1000000
def test_certify_dominant_term_at_any_degree(d, extra, sign, e0, others):
    # c u^e0 outweighs the other terms together, however far out their
    # exponents push the grid's Lipschitz bound: f is invertible (Neumann
    # series) and 2|c| - ||f||_1 = extra bounds |f^| from below
    rest = {e[:d]: v for e, v in others.items() if e[:d] != e0[:d]}
    c = sign * (sum(abs(v) for v in rest.values()) + extra)
    f = E(d, {e0[:d]: c, **rest})
    cert = certify_invertible(f)
    assert cert.verdict == INVERTIBLE
    if cert.note:
        assert E(d, {e0[:d]: c}).format() in cert.note
        assert cert.margin == extra


def test_certify_zero_element():
    cert = certify_invertible(E.zero(1))
    assert cert.verdict == NOT_INVERTIBLE


def test_certify_requires_sane_grid(f_symmetric):
    with pytest.raises(ValueError):
        certify_invertible(f_symmetric, 1)


def test_certify_under_a_one_mb_cap_streams_its_scan(monkeypatch):
    # the scan is charged for one block of rows and the part contracted once,
    # not for the 2048^2 grid, and holds no more than it is charged for
    f = parse_element("7 - u1 - u1^-1 - u2 - u2^-1")  # no exact zero
    exps, coefs = torus._term_arrays(f)
    half = np.abs(_kernels.grid_values(exps, coefs, 2048, 0.0))[:_kernels.half_rows(2048, 0.0)]
    reference = certify_invertible(f, 2048)
    monkeypatch.setenv("ALGDYN_MEM_CAP_MB", "1")
    tracemalloc.start()
    try:
        cert = certify_invertible(f, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert == reference and cert.verdict == INVERTIBLE
    assert abs(cert.grid_min - half.min()) <= grid_error_bound(exps, coefs, 2048, 0.0)
    assert peak < _sparse.mem_cap_bytes()


@pytest.mark.parametrize("scan", [certify_invertible, entropy.mahler_measure])
def test_a_scan_whose_one_row_cannot_fit_is_refused_before_any_table(monkeypatch, scan):
    def unreachable(*args, **kwargs):
        raise AssertionError("a table of roots was built")

    monkeypatch.setenv("ALGDYN_MEM_CAP_MB", "1")
    monkeypatch.setattr(_kernels, "_roots", unreachable)
    f = parse_element("7 - u1 - u1^-1 - u2 - u2^-1 - u3 - u3^-1")  # no exact zero
    with pytest.raises(MemoryCapError, match=r"^a scan of grid 2048\^3 in 1-row blocks needs about \d+ MB"):
        scan(f, 2048)


def test_certify_matrix_fixtures():
    I2 = GroupRingMatrix.identity(2, 1)
    assert certify_matrix_invertible(I2).verdict == INVERTIBLE

    A = GroupRingMatrix.from_obj([["3 - u1", "1"], ["0", "3 - u1^-1"]])
    assert certify_matrix_invertible(A).verdict == INVERTIBLE

    B = GroupRingMatrix.from_obj([["u1 - 1"]])
    cert = certify_matrix_invertible(B)
    assert cert.verdict == NOT_INVERTIBLE
    assert cert.witness == (Fraction(0),)


def test_certificate_json(f_symmetric):
    obj = certify_invertible(f_symmetric).to_obj()
    assert obj["verdict"] == INVERTIBLE
    assert obj["margin"] > 0


# -- l1 inverse ---------------------------------------------------------------


def test_inverse_geometric(f_geometric):
    g = l1_inverse(f_geometric, 1e-10, 40)
    assert g.converged
    # closed form: 1/(u-2) = -sum_{n>=0} u^n / 2^(n+1)
    for n in range(6):
        assert float(g.terms.get((n,), 0)) == pytest.approx(-(2.0 ** -(n + 1)), abs=1e-12)
    assert float(g.terms.get((-1,), 0)) == pytest.approx(0.0, abs=1e-12)


def test_inverse_symmetric_closed_form(f_symmetric):
    g = l1_inverse(f_symmetric, 1e-10, 40)
    assert g.converged
    assert float(g.residual) <= 1e-10
    r = (3 - math.sqrt(5)) / 2
    for n in range(-5, 6):
        expected = r ** abs(n) / math.sqrt(5)
        assert float(g.terms.get((n,), 0)) == pytest.approx(expected, abs=1e-11)


def test_inverse_identity():
    g = l1_inverse(E.one(1), 1e-12, 4)
    assert g.terms == {(0,): Fraction(1)}
    assert g.residual == 0


def test_inverse_residual_recomputed_bit_for_bit(f_symmetric):
    g = l1_inverse(f_symmetric, 1e-10, 30)
    # independent reconvolution of the returned coefficients
    prod = {}
    for e, c in g.terms.items():
        for ef, cf in f_symmetric.terms.items():
            k = (e[0] + ef[0],)
            prod[k] = prod.get(k, Fraction(0)) + c * cf
    prod[(0,)] = prod.get((0,), Fraction(0)) - 1
    res = sum((abs(c) for c in prod.values()), Fraction(0))
    assert res == g.residual


def test_inverse_requires_invertible(f_harmonic):
    with pytest.raises(NotInvertibleError):
        l1_inverse(f_harmonic, 1e-8, 10)


def test_inverse_reports_best_on_unreachable_tol(f_symmetric):
    g = l1_inverse(f_symmetric, 1e-30, 6)
    assert not g.converged
    assert g.residual > 0
    assert float(g.residual) < 1e-2  # truncation floor of the radius-6 ball


def test_inverse_refines_past_the_seed(f_symmetric):
    # the float seed alone leaves residual 1.5e-15; refinement steps reach tol
    g = l1_inverse(f_symmetric, 1e-30, 80)
    assert g.converged
    assert g.residual <= Fraction(1e-30)


def test_inverse_stops_at_the_truncation_floor():
    # a step that fails to halve the residual ends the refinement
    g = l1_inverse(parse_element("5 - 2*u1 - u1^-1"), 1e-30, 60)
    assert not g.converged
    assert float(g.residual) == pytest.approx(1.936e-22, rel=1e-3)


@pytest.mark.parametrize("tol, radius, name, value", [
    (math.nan, 10, "tol", math.nan),
    (math.inf, 10, "tol", math.inf),
    (0.0, 10, "tol", 0.0),
    (-1e-10, 10, "tol", -1e-10),
    (1e-10, -1, "radius_cap", -1),
])
def test_inverse_refuses_bad_tol_and_radius(f_symmetric, tol, radius, name, value):
    A = GroupRingMatrix([[f_symmetric]])
    for inverse in (l1_inverse, matrix_l1_inverse, homoclinic.fundamental_homoclinic):
        arg = f_symmetric if inverse is l1_inverse else A
        with pytest.raises(ValueError, match=rf"^{name} must be .*, got {re.escape(repr(value))}$"):
            inverse(arg, tol, radius)


def test_inverse_tail_bound_formula(f_symmetric):
    g = l1_inverse(f_symmetric, 1e-10, 40)
    r = g.residual
    expected = float(r * sum(map(abs, g.terms.values())) / (1 - r))
    assert g.tail_bound == pytest.approx(expected, rel=1e-12)


def test_certified_invertible_implies_inverse_succeeds():
    # soundness: a certified-invertible element is actually invertible, so
    # the truncated inverse's residual decreases under radius refinement
    # (slow geometric decay when the spectrum hugs the unit circle).
    rng = np.random.default_rng(31)
    found = 0
    while found < 5:
        f = random_element(rng, 1, radius=2, max_coef=3)
        if f.is_zero():
            continue
        cert = certify_invertible(f)
        if cert.verdict != INVERTIBLE:
            continue
        found += 1
        g = l1_inverse(f, 1e-6, 60, cert=cert)
        assert float(g.residual) < 1.0
        if not g.converged:
            g2 = l1_inverse(f, 1e-6, 120, cert=cert)
            assert g2.residual < g.residual


def _at_cap(f, tol, radius_cap):
    """The inverse cut at radius_cap whatever the seed's tail: the
    computation before the radius was read from the seed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torus, "_seed_radius", lambda seed, norm, tol, radius_cap: radius_cap)
        return l1_inverse(f, tol, radius_cap)


def _same_inverse(g, h):
    return (g.nums.lo == h.nums.lo and np.array_equal(g.nums.a, h.nums.a) and g.den == h.den
            and g.residual == h.residual and g.radius == h.radius)


@st.composite
def _certified_elements(draw):
    d = draw(st.integers(1, 2))
    site = st.tuples(*[st.integers(-2, 2)] * d)
    f = E(d, draw(st.dictionaries(site, st.integers(-3, 3), min_size=1, max_size=4)))
    f = f + draw(st.integers(-14, 14))
    assume(f.num_terms() > 1)
    cert = certify_invertible(f)
    assume(cert.verdict == INVERTIBLE)
    return f, cert


@settings(max_examples=40, deadline=None)
@given(_certified_elements(), st.sampled_from([1e-6, 1e-10, 1e-13]), st.integers(0, 40))
def test_inverse_at_the_seed_radius_converges_whenever_the_cap_does(case, tol, cap):
    f, cert = case
    g = l1_inverse(f, tol, cap, cert=cert)
    full = _at_cap(f, tol, cap)
    assert g.radius <= cap
    assert all(-cap <= lo and lo + n - 1 <= cap for lo, n in zip(g.nums.lo, g.nums.shape))
    assert g.converged == (g.residual <= tol)
    if full.converged:
        assert g.converged
    if not g.converged:  # the proposal fell short, or was the cap: the cap's computation
        assert _same_inverse(g, full)


def test_inverse_two_dimensional_fills_the_radius_its_tail_needs():
    g = l1_inverse(parse_element("6 - u1 - u1^-1 - u2 - u2^-1"))
    assert g.converged
    assert g.radius == 20 and g.nums.shape == (41, 41)


@pytest.mark.parametrize("poly, tol, radius", [
    ("3 - u1^7 - u1^-7", 1e-10, 40),  # the seed's tail never gets below tol / 4
    ("3 - u1 - u1^-1", 1e-30, 80),  # the float seed's rounding is above tol / 4
])
def test_inverse_whose_seed_tail_stays_large_is_the_cap_computation(poly, tol, radius):
    f = parse_element(poly)
    g = l1_inverse(f, tol, radius)
    assert g.radius == radius
    assert _same_inverse(g, _at_cap(f, tol, radius))


def test_inverse_falls_back_to_the_cap_when_the_proposed_radius_misses(monkeypatch, f_symmetric):
    full = _at_cap(f_symmetric, 1e-10, 40)
    monkeypatch.setattr(torus, "_seed_radius", lambda seed, norm, tol, radius_cap: 0)
    g = l1_inverse(f_symmetric, 1e-10, 40)
    assert g.converged and g.radius == 40
    assert _same_inverse(g, full)


class _Stop(Exception):
    pass


def test_d3_seed_grid_holds_the_whole_ball(monkeypatch):
    # a cap of 64 or more needs m > 2 cap + 1 at d = 3 too: a grid clamped
    # to 128 would alias the sites +-(64 ... cap) onto others
    seen = []

    def spy(exps, coefs, m, offset=0.0):
        seen.append(m)
        raise _Stop

    f = parse_element("7 - u1 - u1^-1 - u2 - u2^-1 - u3 - u3^-1")
    cert = certify_invertible(f)
    monkeypatch.setenv("ALGDYN_MEM_CAP_MB", "4096")  # the charge is arithmetic: nothing is allocated
    monkeypatch.setattr(_kernels, "grid_values", spy)
    with pytest.raises(_Stop):
        l1_inverse(f, 1e-10, 64, cert=cert)
    assert seen and seen[0] >= 2 * 64 + 2


def test_matrix_seed_grids_are_charged_before_they_are_built(monkeypatch):
    # k = 4, d = 2, cap 40: 16 grids of 128^2, about 17 MB with scratch, where
    # one grid (k = 1) takes about 1 MB
    rows = [[f"{18 if i == j else 0} + u{1 + (i + j) % 2}" for j in range(4)] for i in range(4)]
    A = GroupRingMatrix.from_obj(rows)
    cert = certify_matrix_invertible(A)
    assert cert.verdict == INVERTIBLE
    built = []
    grid_values = _kernels.grid_values
    monkeypatch.setattr(_kernels, "grid_values", lambda *a: built.append(a) or grid_values(*a))
    monkeypatch.setenv("ALGDYN_MEM_CAP_MB", "4")
    with pytest.raises(MemoryCapError, match=r"^16 grids 128\^2 needs about \d+ MB"):
        matrix_l1_inverse(A, 1e-10, 40, cert=cert)
    assert built == []
    assert l1_inverse(A[0, 0], 1e-10, 40).converged  # one grid fits the same cap


# -- matrix inverse -----------------------------------------------------------


def _entry(inv, i, j):
    """Entry (i, j) of a truncated matrix inverse as a dict of Fractions."""
    return _sparse.unscale(cells_of(inv.nums)[i][j], inv.den)


def test_matrix_inverse_identity():
    I2 = GroupRingMatrix.identity(2, 1)
    inv = matrix_l1_inverse(I2, 1e-12, 8)
    assert inv.residual == 0
    assert _entry(inv, 0, 0) == {(0,): Fraction(1)}
    assert _entry(inv, 0, 1) == {}


def test_matrix_inverse_diagonal(f_geometric, f_symmetric):
    A = GroupRingMatrix([[f_geometric, E.zero(1)], [E.zero(1), f_symmetric]])
    inv = matrix_l1_inverse(A, 1e-9, 40)
    assert inv.converged
    g00 = l1_inverse(f_geometric, 1e-10, 40)
    g11 = l1_inverse(f_symmetric, 1e-10, 40)
    for n in range(-3, 4):
        assert float(_entry(inv, 0, 0).get((n,), 0)) == pytest.approx(
            float(g00.terms.get((n,), 0)), abs=1e-8
        )
        assert float(_entry(inv, 1, 1).get((n,), 0)) == pytest.approx(
            float(g11.terms.get((n,), 0)), abs=1e-8
        )
    assert sum(map(abs, _entry(inv, 0, 1).values())) <= 1e-9


def test_matrix_inverse_upper_triangular():
    A = GroupRingMatrix.from_obj([["2", "u1"], ["0", "2"]])
    inv = matrix_l1_inverse(A, 1e-10, 20)
    assert inv.converged
    assert float(_entry(inv, 0, 0).get((0,), 0)) == pytest.approx(0.5, abs=1e-12)
    assert float(_entry(inv, 0, 1).get((1,), 0)) == pytest.approx(-0.25, abs=1e-12)
    assert float(_entry(inv, 1, 1).get((0,), 0)) == pytest.approx(0.5, abs=1e-12)
    assert sum(map(abs, _entry(inv, 1, 0).values())) <= 1e-12


def _direct_matrix_residual(G, den, A):
    """||G A - I||_1 (sum-of-entries l1 norm) for G = nums/den, by a k^3
    loop of group-ring products: the oracle of the reported residual."""
    k = A.rows
    total = 0
    for i in range(k):
        for j in range(k):
            acc = {}
            for t in range(k):
                for e, c in (E(A.d, G[i][t]) * A.entries[t][j]).terms.items():
                    acc[e] = acc.get(e, 0) + c
            if i == j:
                e0 = (0,) * A.d
                acc[e0] = acc.get(e0, 0) - den
            total += sum(abs(c) for c in acc.values())
    return Fraction(total, den)


@st.composite
def _dominant_matrices(draw):
    k, d = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    site = st.tuples(*[st.integers(-1, 1)] * d)
    small = st.dictionaries(site, st.integers(-1, 1), max_size=2)
    rows = []
    for i in range(k):
        row = [E(d, draw(small)) for _ in range(k)]
        row[i] = row[i] + draw(st.sampled_from([-1, 1])) * (5 * k + 2)
        rows.append(row)
    return GroupRingMatrix(rows)


@settings(max_examples=30, deadline=None)
@given(_dominant_matrices(), st.sampled_from([1e-6, 1e-30]))
def test_matrix_residual_is_the_direct_product_residual(A, tol):
    inv = matrix_l1_inverse(A, tol, 4)
    assert inv.residual == _direct_matrix_residual(cells_of(inv.nums), inv.den, A)


def _exact_tail(residual, cells, den):
    """r ||G||_1 / (1 - r) in Fractions, for the entries cells / den."""
    assert residual < 1
    return residual * Fraction(sum(abs(c) for row in cells for cell in row for c in cell.values()), den) / (1 - residual)


@settings(max_examples=30, deadline=None)
@given(_dominant_matrices(), st.sampled_from([1e-6, 1e-12]), st.integers(3, 8))
def test_matrix_inverse_agrees_with_the_adjugate_route(A, tol, cap):
    # G and H = adj(A) g, g the truncated inverse of det A, are both within
    # their tails of A^-1, so ||G - H||_1 is at most the sum of the tails
    inv = matrix_l1_inverse(A, tol, cap)
    g = l1_inverse(A.det(), tol, cap)
    g_el = E(A.d, cells_of(g.nums)[0][0])
    H = [[(g_el * e).terms for e in row] for row in A.adjugate().entries]
    G = cells_of(inv.nums)
    h_res = _direct_matrix_residual(H, g.den, A)
    assume(inv.residual < 1 and h_res < 1)
    diff = Fraction(0)
    for i in range(A.rows):
        for j in range(A.rows):
            for e in set(G[i][j]) | set(H[i][j]):
                diff += abs(Fraction(G[i][j].get(e, 0), inv.den) - Fraction(H[i][j].get(e, 0), g.den))
    assert diff <= _exact_tail(inv.residual, G, inv.den) + _exact_tail(h_res, H, g.den)


def test_matrix_inverse_residual_identity(f_symmetric):
    A = GroupRingMatrix.from_obj([["3 - u1", "1"], ["0", "3 - u1^-1"]])
    inv = matrix_l1_inverse(A, 1e-8, 40)
    assert inv.converged
    assert float(inv.residual) <= 1e-8


def test_inverse_two_dimensional():
    f = parse_element("5 - u1 - u1^-1 - u2 - u2^-1")
    cert = certify_invertible(f)
    assert cert.verdict == INVERTIBLE
    g = l1_inverse(f, 1e-6, 16, cert=cert)
    assert g.converged
    assert float(g.terms.get((0, 0), 0)) == pytest.approx(
        abs(evaluate_mean_inverse(f)), rel=1e-4
    )
    # symmetry of the kernel in the two axes
    assert g.terms.get((1, 0), 0) == pytest.approx(g.terms.get((0, 1), 0), abs=1e-10)


def evaluate_mean_inverse(f):
    # independent route: g(0,0) is the mean of 1/f^ over the torus
    import numpy as np

    m = 128
    t = np.arange(m) / m
    th1, th2 = np.meshgrid(t, t, indexing="ij")
    vals = np.zeros_like(th1, dtype=complex)
    for e, c in f.terms.items():
        vals += c * np.exp(2j * np.pi * (e[0] * th1 + e[1] * th2))
    return float(np.mean(1.0 / vals).real)
