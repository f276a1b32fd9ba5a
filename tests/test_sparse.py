"""The integer sparse core against plain Fraction arithmetic, and the l1
inverse it runs pinned against a Fraction reference of its refinement and
checked against a Fraction Newton iteration."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from algdyn import _kernels, _sparse, torus
from algdyn.groupring import GroupRingElement, GroupRingMatrix, ball, parse_element
from conftest import frac_center, solve_rational


@st.composite
def int_vectors(draw, d=None):
    d = d if d is not None else draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-4, 4)] * d)
    coefs = st.integers(-(2**70), 2**70).filter(bool) | st.integers(-3, 3).filter(bool)
    return draw(st.dictionaries(exps, coefs, max_size=12))


dens = st.integers(0, 80).map(lambda k: 1 << k) | st.integers(1, 10**6)


def _frac_conv(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = tuple(x + y for x, y in zip(ea, eb))
            out[k] = out.get(k, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


@settings(max_examples=150, deadline=None)
@given(st.data(), dens, dens)
def test_conv_matches_fraction_convolution(data, da, db):
    d = data.draw(st.integers(1, 3))
    a = data.draw(int_vectors(d))
    b = data.draw(int_vectors(d))
    fa, fb = _sparse.unscale(a, da), _sparse.unscale(b, db)
    assert _sparse.unscale(_sparse.conv(a, b), da * db) == _frac_conv(fa, fb)
    assert all(_sparse.conv(a, b).values())
    assert torus.conv_frac(fa, fb) == _frac_conv(fa, fb)
    assert torus.conv_with_element(fa, GroupRingElement(d, b)) == _frac_conv(fa, b)


@settings(max_examples=150, deadline=None)
@given(int_vectors(), dens)
def test_l1_matches_fraction_norm(v, den):
    ref = sum((abs(Fraction(n, den)) for n in v.values()), Fraction(0))
    assert Fraction(_sparse.l1(v), den) == ref


@settings(max_examples=150, deadline=None)
@given(int_vectors(), int_vectors(), dens, dens, st.sampled_from([1, -1]))
def test_scale_add_unscale_matches_fraction_sum(a, b, da, db, sign):
    fa, fb = _sparse.unscale(a, da), _sparse.unscale(b, db)
    (na, nb), den = _sparse.scale([fa, fb])
    assert _sparse.unscale(na, den) == fa
    got = _sparse.unscale(_sparse.add_to(dict(na), nb, sign), den)
    ref = {e: fa.get(e, 0) + sign * fb.get(e, 0) for e in set(fa) | set(fb)}
    assert got == {e: c for e, c in ref.items() if c}


@settings(max_examples=300, deadline=None)
@given(st.integers(-(2**90), 2**90), dens)
def test_center_matches_frac_center(n, den):
    c = _sparse.center(n, den)
    assert Fraction(c, den) == frac_center(Fraction(n, den))
    assert -den <= 2 * c < den


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_vecmat_matches_group_ring_sum_of_products(data):
    d = data.draw(st.sampled_from([1, 2]))
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entry = int_vectors(d)  # empty dicts (zero entries) included
    vec = [data.draw(entry) for _ in range(rows)]
    M = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
    got = _sparse.vecmat(vec, M)
    assert len(got) == cols
    for j in range(cols):
        ref = GroupRingElement.zero(d)
        for i in range(rows):
            ref = ref + GroupRingElement(d, vec[i]) * GroupRingElement(d, M[i][j])
        assert got[j] == ref.terms
        assert all(got[j].values())


def _square_ints(k):
    return st.lists(st.lists(st.integers(-4, 4) | st.just(0), min_size=k, max_size=k),
                    min_size=k, max_size=k)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_div_recovers_the_cofactor(data):
    d = data.draw(st.integers(1, 3))
    x = GroupRingElement(d, data.draw(int_vectors(d)))
    y = GroupRingElement(d, data.draw(int_vectors(d).filter(bool)))
    assert _sparse.exact_div((x * y).terms, y.terms) == x.terms


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_div_returns_the_quotient_or_refuses(data):
    d = data.draw(st.integers(1, 2))
    small = st.dictionaries(st.tuples(*[st.integers(-3, 3)] * d), st.integers(-3, 3).filter(bool), max_size=5)
    p, q = data.draw(small), data.draw(small.filter(bool))
    try:
        s = _sparse.exact_div(p, q)
    except _sparse.ExactDivisionError:
        return
    assert _sparse.conv(s, q) == p


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(_square_ints))
@example([[0, 1], [1, 0]])  # zero leading pivot, det -1
@example([[0, 0, 2], [0, 3, 0], [5, 0, 0]])  # two swaps, det -30
@example([[-7]])
@example([[1, 2], [2, 4]])  # singular
@example([[0]])
def test_int_inverse_matches_fraction_gauss_jordan(M):
    k = len(M)
    eye = [[int(i == j) for j in range(k)] for i in range(k)]
    try:
        ref = solve_rational(M, eye)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            _sparse.int_inverse(M)
        return
    P, D = _sparse.int_inverse(M)
    assert D > 0
    assert [[Fraction(v, D) for v in row] for row in P] == ref
    assert [[sum(M[i][t] * P[t][j] for t in range(k)) for j in range(k)]
            for i in range(k)] == [[D * v for v in row] for row in eye]


# -- the l1 inverse against Fraction references ------------------------------


def _reference_seed(f, radius_cap):
    """The float seed of torus.l1_inverse as Fractions: the inverse DFT of
    1/f^ on the same grid, cut to the max-norm ball of the radius."""
    d = f.d
    m = 64
    while m < 2 * radius_cap + 2 or (d == 1 and m < 4 * radius_cap):
        m *= 2
    if d == 3:
        m = min(m, 128)
    vals = _kernels.grid_values(*torus._term_arrays(f), m, 0.0)
    coef = np.fft.fftn(1.0 / vals) / (m ** d)
    g = {}
    for e in ball(d, radius_cap):
        v = float(coef[tuple(x % m for x in e)].real)
        if v != 0.0:
            g[e] = Fraction(v)
    return g


def _reference_residual(g, f):
    """(f*g - delta, ||delta - f*g||_1) in Fractions."""
    e0 = (0,) * f.d
    prod = _frac_conv(g, f.terms)
    prod[e0] = prod.get(e0, Fraction(0)) - 1
    return prod, sum((abs(c) for c in prod.values()), Fraction(0))


def _reference_tail(g, r):
    norm = sum((abs(c) for c in g.values()), Fraction(0))
    return float(r * norm / (1 - r)) if r < 1 else math.inf


def _reference_l1_inverse(f, tol=1e-10, radius_cap=40, max_iter=25):
    """Newton's iteration g <- g(2 delta - f g) on Fractions from the same
    seed, requantized to 2^-bits after each step: an independent oracle for
    the convergence verdict.  Also returns the number of steps taken."""
    g = _reference_seed(f, radius_cap)
    e0 = (0,) * f.d
    bits = max(64, 2 * int(math.ceil(-math.log2(max(tol, 1e-300)))) + 16)
    q = 1 << bits
    best, best_r = g, _reference_residual(g, f)[1]
    it = 0
    while best_r > tol and it < max_iter:
        it += 1
        two_minus = {e: -c for e, c in _frac_conv(g, f.terms).items()}
        two_minus[e0] = two_minus.get(e0, Fraction(0)) + 2
        g = _frac_conv(g, two_minus)
        g = {e: Fraction(round(c * q), q) for e, c in g.items() if max(abs(x) for x in e) <= radius_cap}
        g = {e: c for e, c in g.items() if c}
        r = _reference_residual(g, f)[1]
        if r < best_r:
            best, best_r = g, r
        else:
            break
    return best, best_r, _reference_tail(best, best_r), best_r <= tol, it


def _reference_refined_inverse(f, tol=1e-10, radius_cap=40):
    """The refinement of torus.l1_inverse on Fractions: the same float seed
    and the same float64 FFT corrections, summed and checked in exact
    Fractions.  Also returns the number of steps taken."""
    d, R = f.d, radius_cap
    g0 = _reference_seed(f, R)
    s = min(2 * R, R + max(max(map(abs, e)) for e in f.terms))
    mc = 1 << (2 * R + s + 1).bit_length()

    def grid(v, radius):
        arr = np.zeros((mc,) * d)
        for e, c in v.items():
            if max(map(abs, e)) <= radius:
                arr[tuple(x % mc for x in e)] = float(c)
        return arr

    g = g0
    prod, r = _reference_residual(g, f)
    steps = 0
    while r > tol:
        steps += 1
        corr = np.fft.irfftn(np.fft.rfftn(grid(g0, R)) * np.fft.rfftn(grid(prod, s)))
        step = dict(g)
        for e in ball(d, R):
            step[e] = step.get(e, Fraction(0)) - Fraction(float(corr[tuple(x % mc for x in e)]))
        step = {e: c for e, c in step.items() if c}
        step_prod, step_r = _reference_residual(step, f)
        if 2 * step_r > r:
            if step_r < r:
                g, r = step, step_r
            break
        g, prod, r = step, step_prod, step_r
    return g, r, _reference_tail(g, r), r <= tol, steps


@pytest.mark.parametrize("poly, tol, radius", [
    ("3 - u1 - u1^-1", 1e-25, 80),
    ("5 - 2*u1 - u1^-1", 1e-30, 60),
    ("7 - 3*u1 - 3*u1^-1", 1e-10, 40),
    ("6 - u1 - u1^-1 - u2 - u2^-1", 1e-20, 20),
])
def test_inverse_equals_fraction_reference(poly, tol, radius):
    f = parse_element(poly)
    terms, residual, tail, converged, steps = _reference_refined_inverse(f, tol, radius)
    assert steps >= 1
    g = torus.l1_inverse(f, tol, radius)
    assert g.terms == terms
    assert g.residual == residual
    assert g.tail_bound == tail
    assert g.converged == converged


def test_matrix_inverse_equals_fraction_reference():
    A = GroupRingMatrix([
        [parse_element("4 - u1"), parse_element("1")],
        [parse_element("u1^-1"), parse_element("5 + u1")],
    ])
    tol, radius = 1e-25, 60
    det = A.det()
    gdet, _, _, _, steps = _reference_refined_inverse(det, tol / 2, radius)
    assert steps >= 1
    adj = A.adjugate()
    G = [[_frac_conv(gdet, adj.entries[i][j].terms) for j in range(2)] for i in range(2)]
    residual = Fraction(0)
    for i in range(2):
        for j in range(2):
            acc: dict = {}
            for t in range(2):
                for e, c in _frac_conv(G[i][t], A.entries[t][j].terms).items():
                    acc[e] = acc.get(e, Fraction(0)) + c
            acc[(0,)] = acc.get((0,), Fraction(0)) - (i == j)
            residual += sum((abs(c) for c in acc.values()), Fraction(0))
    norm = sum((abs(c) for row in G for cell in row for c in cell.values()), Fraction(0))
    tail = float(residual * norm / (1 - residual))

    inv = torus.matrix_l1_inverse(A, tol, radius)
    assert [[_sparse.unscale(cell, inv.den) for cell in row] for row in inv.nums] == G
    assert inv.residual == residual
    assert inv.tail_bound == tail
    assert inv.converged == (residual <= tol)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_refinement_converges_exactly_when_newton_does(data):
    d = data.draw(st.sampled_from([1, 2]))
    f = GroupRingElement(d, data.draw(st.dictionaries(
        st.tuples(*[st.integers(-2, 2)] * d), st.integers(-4, 4).filter(bool), min_size=1, max_size=5)))
    cert = torus.certify_invertible(f)
    assume(cert.verdict == torus.INVERTIBLE)
    tol = data.draw(st.sampled_from([1e-10, 1e-20]))
    radius = data.draw(st.integers(6, 30) if d == 1 else st.integers(3, 6))
    g = torus.l1_inverse(f, tol, radius, cert=cert)
    assert g.converged == _reference_l1_inverse(f, tol, radius)[3]
