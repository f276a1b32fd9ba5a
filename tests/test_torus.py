import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algdyn import torus
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
from conftest import random_element

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
    candidates += [t for t in extra if t not in seen and not seen.add(t)]
    for t in candidates:
        if _is_zero_oracle(f, t):
            return t
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


def _outcome(fn, f, extra):
    try:
        return fn(f, extra)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_planted_scan_input())
@example((parse_element("13 + u1", 2) * parse_element("1 + u2 + u2^2 + u2^3 + u2^4"),
          [(Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 8), Fraction(2, 5))]))  # found among extra
@example((parse_element("13 + u1", 3), [(0, 0, 0), (Fraction(1, 7), Fraction(1, 11), Fraction(1, 4))]))  # q > 256
def test_exact_zero_scan_matches_fraction_oracle(case):
    f, extra = case
    def scan(f, extra):  # as certify_invertible runs them: the lattices, then the near points
        return torus._exact_zero_scan(f) or torus._exact_zero_off_scan(f, extra)

    assert _outcome(scan, f, extra) == _outcome(_scan_oracle, f, extra)


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


def test_certify_memory_cap(monkeypatch, f_harmonic):
    monkeypatch.setenv("ALGDYN_MEM_CAP_MB", "1")
    f = parse_element("7 - u1 - u1^-1 - u2 - u2^-1")  # no exact zero
    with pytest.raises(MemoryCapError):
        certify_invertible(f, 2048)


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
        assert float(g.coefficient(n)) == pytest.approx(-(2.0 ** -(n + 1)), abs=1e-12)
    assert float(g.coefficient(-1)) == pytest.approx(0.0, abs=1e-12)


def test_inverse_symmetric_closed_form(f_symmetric):
    g = l1_inverse(f_symmetric, 1e-10, 40)
    assert g.converged
    assert float(g.residual) <= 1e-10
    r = (3 - math.sqrt(5)) / 2
    for n in range(-5, 6):
        expected = r ** abs(n) / math.sqrt(5)
        assert float(g.coefficient(n)) == pytest.approx(expected, abs=1e-11)


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


def test_inverse_tail_bound_formula(f_symmetric):
    g = l1_inverse(f_symmetric, 1e-10, 40)
    r = g.residual
    expected = float(r * g.l1_norm() / (1 - r))
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


# -- matrix inverse -----------------------------------------------------------


def test_matrix_inverse_identity():
    I2 = GroupRingMatrix.identity(2, 1)
    inv = matrix_l1_inverse(I2, 1e-12, 8)
    assert inv.residual == 0
    assert inv.entries[0][0].terms == {(0,): Fraction(1)}
    assert inv.entries[0][1].terms == {}


def test_matrix_inverse_diagonal(f_geometric, f_symmetric):
    A = GroupRingMatrix([[f_geometric, E.zero(1)], [E.zero(1), f_symmetric]])
    inv = matrix_l1_inverse(A, 1e-9, 40)
    assert inv.converged
    g00 = l1_inverse(f_geometric, 1e-10, 40)
    g11 = l1_inverse(f_symmetric, 1e-10, 40)
    for n in range(-3, 4):
        assert float(inv.entries[0][0].coefficient(n)) == pytest.approx(
            float(g00.coefficient(n)), abs=1e-8
        )
        assert float(inv.entries[1][1].coefficient(n)) == pytest.approx(
            float(g11.coefficient(n)), abs=1e-8
        )
    assert float(inv.entries[0][1].l1_norm()) <= 1e-9


def test_matrix_inverse_upper_triangular():
    A = GroupRingMatrix.from_obj([["2", "u1"], ["0", "2"]])
    inv = matrix_l1_inverse(A, 1e-10, 20)
    assert inv.converged
    assert float(inv.entries[0][0].coefficient(0)) == pytest.approx(0.5, abs=1e-12)
    assert float(inv.entries[0][1].coefficient(1)) == pytest.approx(-0.25, abs=1e-12)
    assert float(inv.entries[1][1].coefficient(0)) == pytest.approx(0.5, abs=1e-12)
    assert float(inv.entries[1][0].l1_norm()) <= 1e-12


def _direct_matrix_residual(G, den, A):
    """||I - G A||_1 (sum-of-entries l1 norm) for G = nums/den, by the k^3
    product loop the adjugate identity made unnecessary; kept as the oracle."""
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
def test_matrix_residual_is_k_times_det_residual(A, tol):
    inv = matrix_l1_inverse(A, tol, 4)
    G = [[cell.nums for cell in row] for row in inv.entries]
    assert inv.residual == _direct_matrix_residual(G, inv.den, A)


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
    assert float(g.coefficient((0, 0))) == pytest.approx(
        abs(evaluate_mean_inverse(f)), rel=1e-4
    )
    # symmetry of the kernel in the two axes
    assert g.coefficient((1, 0)) == pytest.approx(g.coefficient((0, 1)), abs=1e-10)


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
