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
from conftest import box_of, cells_of, frac_center, fractions, solve_rational


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
    fa, fb = fractions(a, da), fractions(b, db)
    assert fractions(_sparse.conv(a, b), da * db) == _frac_conv(fa, fb)
    assert all(_sparse.conv(a, b).values())
    assert torus.conv_frac(fa, fb) == _frac_conv(fa, fb)
    assert torus.conv_with_element(fa, GroupRingElement(d, b)) == _frac_conv(fa, b)


@settings(max_examples=150, deadline=None)
@given(st.data(), dens)
def test_l1_matches_fraction_norm(data, den):
    d = data.draw(st.integers(1, 3))
    v = data.draw(int_vectors(d))
    ref = sum((abs(Fraction(n, den)) for n in v.values()), Fraction(0))
    assert Fraction(_sparse.l1(box_of([v], d)), den) == ref


def _spatial(v: dict, d: int) -> _sparse.Box:
    """The dict v as a box with no leading axis."""
    lo, a = box_of([v], d)
    return _sparse.Box(lo, a[0])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_box_conv_matches_conv(data):
    # the box product against the dict convolution, over every leading index:
    # negative exponents, numerators past 2^63, empty factors and boxes, and
    # parts that cancel to zero
    d = data.draw(st.integers(1, 3))
    k = data.draw(st.sampled_from([0, 1, 2]))  # no leading axis, or k components
    lead = (k,) if k else ()
    parts, expected = [], [{} for _ in range(max(k, 1))]
    for _ in range(data.draw(st.integers(0, 3))):
        terms = data.draw(int_vectors(d))
        dst = (data.draw(st.integers(0, k - 1)),) if k and data.draw(st.booleans()) else ()
        if k and not dst and data.draw(st.booleans()):  # one cell per component
            cells = [data.draw(int_vectors(d)) for _ in range(k)]
            src = box_of(cells, d)
        else:  # one cell, broadcast over the components dst leaves open
            cells = [data.draw(int_vectors(d))] * (1 if dst or not k else k)
            src = _spatial(cells[0], d)
        copies = 2 if data.draw(st.booleans()) else 1  # the second copy cancels the first
        for sign in [1, -1][:copies]:
            parts.append((dst, {e: sign * c for e, c in terms.items()}, src))
            if copies == 1:
                for i, cell in zip(dst or range(len(expected)), cells):
                    _sparse.add_to(expected[i], _sparse.conv(terms, cell))
    got = _sparse.box_conv(parts, lead, d)
    assert got.a.ndim == len(lead) + d and got.a.shape[:len(lead)] == lead
    assert (cells_of(got) if k else cells_of(_sparse.Box(got.lo, got.a[None]))) == expected


@settings(max_examples=150, deadline=None)
@given(int_vectors(), int_vectors(), dens, dens, st.sampled_from([1, -1]))
def test_add_to_matches_fraction_sum(a, b, da, db, sign):
    # both numerator dicts over the common denominator da * db, summed in integers
    fa, fb = fractions(a, da), fractions(b, db)
    na, nb = ({e: n * m for e, n in v.items()} for v, m in ((a, db), (b, da)))
    got = fractions(_sparse.add_to(na, nb, sign), da * db)
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


def _reference_seed(A, radius_cap):
    """The float seed of torus.matrix_l1_inverse as Fractions: the inverse
    DFT of A^-1 (1/f^ when k = 1), inverted pointwise on the same grid, cut
    to the max-norm ball of the radius; rows of dicts."""
    k, d = A.rows, A.d
    m = 64
    while m < 2 * radius_cap + 2 or (d == 1 and m < 4 * radius_cap):
        m *= 2
    vals = np.array([[_kernels.grid_values(*torus._term_arrays(e), m, 0.0) for e in row] for row in A.entries])
    inv = 1.0 / vals if k == 1 else np.moveaxis(np.linalg.inv(np.moveaxis(vals, (0, 1), (-2, -1))), (-2, -1), (0, 1))
    G = []
    for i in range(k):
        G.append([])
        for j in range(k):
            coef = np.fft.fftn(inv[i, j]) / (m ** d)
            vs = {e: float(coef[tuple(x % m for x in e)].real) for e in ball(d, radius_cap)}
            G[i].append({e: Fraction(v) for e, v in vs.items() if v != 0.0})
    return G


def _reference_residual(G, A):
    """(G A - I, ||G A - I||_1 summed over the entries) in Fractions, for G
    rows of dicts."""
    k, e0 = A.rows, (0,) * A.d
    prod = []
    for i in range(k):
        prod.append([])
        for j in range(k):
            acc: dict = {e0: -Fraction(i == j)}
            for t in range(k):
                for e, c in _frac_conv(G[i][t], A[t, j].terms).items():
                    acc[e] = acc.get(e, Fraction(0)) + c
            prod[i].append({e: c for e, c in acc.items() if c})
    return prod, sum((abs(c) for row in prod for cell in row for c in cell.values()), Fraction(0))


def _reference_tail(G, r):
    norm = sum((abs(c) for row in G for cell in row for c in cell.values()), Fraction(0))
    return float(r * norm / (1 - r)) if r < 1 else math.inf


def _reference_l1_inverse(f, tol=1e-10, radius_cap=40, max_iter=25):
    """Newton's iteration g <- g(2 delta - f g) on Fractions from the same
    seed, requantized to 2^-bits after each step: an independent oracle for
    the convergence verdict.  Also returns the number of steps taken."""
    F = GroupRingMatrix([[f]])
    g = _reference_seed(F, radius_cap)[0][0]
    e0 = (0,) * f.d
    bits = max(64, 2 * int(math.ceil(-math.log2(max(tol, 1e-300)))) + 16)
    q = 1 << bits
    best, best_r = g, _reference_residual([[g]], F)[1]
    it = 0
    while best_r > tol and it < max_iter:
        it += 1
        two_minus = {e: -c for e, c in _frac_conv(g, f.terms).items()}
        two_minus[e0] = two_minus.get(e0, Fraction(0)) + 2
        g = _frac_conv(g, two_minus)
        g = {e: Fraction(round(c * q), q) for e, c in g.items() if max(abs(x) for x in e) <= radius_cap}
        g = {e: c for e, c in g.items() if c}
        r = _reference_residual([[g]], F)[1]
        if r < best_r:
            best, best_r = g, r
        else:
            break
    return best, best_r, _reference_tail([[best]], best_r), best_r <= tol, it


def _reference_refined_inverse(A, tol=1e-10, radius_cap=40):
    """The refinement of torus.matrix_l1_inverse on Fractions: the same float
    seed G0 and the same float64 FFT corrections, entry (i, l) of (G A - I) G0
    summed over j in the same order, with the iterates and their residuals
    in exact Fractions.  Returns (G, residual, tail, converged, steps)."""
    k, d, R = A.rows, A.d, radius_cap
    G0 = _reference_seed(A, R)
    s = min(2 * R, R + max(max(map(abs, e)) for row in A.entries for x in row for e in x.terms))
    mc = 1 << (2 * R + s + 1).bit_length()

    def grid(v, radius):
        arr = np.zeros((mc,) * d)
        for e, c in v.items():
            if max(map(abs, e)) <= radius:
                arr[tuple(x % mc for x in e)] = float(c)
        return arr

    seed_hat = [[np.fft.rfftn(grid(cell, R)) for cell in row] for row in G0]
    G = G0
    prod, r = _reference_residual(G, A)
    steps = 0
    while r > tol:
        steps += 1
        prod_hat = [[np.fft.rfftn(grid(cell, s)) for cell in row] for row in prod]
        step = []
        for i in range(k):
            step.append([])
            for l in range(k):
                corr_hat = seed_hat[0][l] * prod_hat[i][0]
                for j in range(1, k):
                    corr_hat = corr_hat + seed_hat[j][l] * prod_hat[i][j]
                corr = np.fft.irfftn(corr_hat)
                cell = dict(G[i][l])
                for e in ball(d, R):
                    cell[e] = cell.get(e, Fraction(0)) - Fraction(float(corr[tuple(x % mc for x in e)]))
                step[i].append({e: c for e, c in cell.items() if c})
        step_prod, step_r = _reference_residual(step, A)
        if 2 * step_r > r:
            if step_r < r:
                G, r = step, step_r
            break
        G, prod, r = step, step_prod, step_r
    return G, r, _reference_tail(G, r), r <= tol, steps


@pytest.mark.parametrize("poly, tol, radius", [
    ("3 - u1 - u1^-1", 1e-25, 80),
    ("5 - 2*u1 - u1^-1", 1e-30, 60),
    ("7 - 3*u1 - 3*u1^-1", 1e-10, 40),
    ("6 - u1 - u1^-1 - u2 - u2^-1", 1e-20, 20),
])
def test_inverse_equals_fraction_reference(poly, tol, radius):
    f = parse_element(poly)
    (terms,), residual, tail, converged, steps = _reference_refined_inverse(GroupRingMatrix([[f]]), tol, radius)
    assert steps >= 1
    g = torus.l1_inverse(f, tol, radius)
    assert g.terms == terms[0]
    assert g.residual == residual
    assert g.tail_bound == tail
    assert g.converged == converged


def test_matrix_inverse_equals_fraction_reference():
    # each tol is below the float seed's rounding, so the ball is the cap's and a step runs
    for rows, tol, radius in [
        ([["4 - u1", "1"], ["u1^-1", "5 + u1"]], 1e-25, 60),
        ([["6 - u1 - u1^-1", "u2", "0"], ["1", "7 + u2^-1", "u1"], ["u1*u2", "0", "-6 + u2"]], 1e-20, 12),
    ]:
        A = GroupRingMatrix.from_obj(rows)
        G, residual, tail, converged, steps = _reference_refined_inverse(A, tol, radius)
        assert steps >= 1
        inv = torus.matrix_l1_inverse(A, tol, radius)
        assert inv.radius == radius
        assert [[fractions(cell, inv.den) for cell in row] for row in cells_of(inv.nums)] == G
        assert inv.residual == residual
        assert inv.tail_bound == tail
        assert inv.converged == converged


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
