"""The integer sparse core against plain Fraction arithmetic, and the l1
inverse it runs pinned against the Fraction implementation it replaced."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algdyn import _kernels, _sparse, torus
from algdyn.groupring import GroupRingElement, GroupRingMatrix, ball, frac_center, parse_element


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
@given(st.data(), int_vectors(d=1), st.integers(0, 90))
def test_requantize_matches_fraction_round(data, v, bits):
    # den = 2^(bits + 1) makes every odd numerator an exact .5 tie
    den = data.draw(st.integers(0, 4).map(lambda k: 1 << (bits + k)) | dens)
    q = 1 << bits
    got = _sparse.requantize(v, den, bits)
    ref = {e: round(Fraction(n, den) * q) for e, n in v.items()}
    assert got == {e: r for e, r in ref.items() if r}


@given(st.integers(-(2**40), 2**40), st.integers(0, 40))
def test_requantize_ties_go_to_even(m, bits):
    den = 1 << (bits + 1)
    n = 2 * m + 1  # n/den * 2^bits = m + 1/2
    got = _sparse.requantize({(0,): n}, den, bits).get((0,), 0)
    assert got == round(Fraction(n, den) * (1 << bits)) == (m if m % 2 == 0 else m + 1)


@settings(max_examples=300, deadline=None)
@given(st.integers(-(2**90), 2**90), dens)
def test_center_matches_frac_center(n, den):
    c = _sparse.center(n, den)
    assert Fraction(c, den) == frac_center(Fraction(n, den))
    assert -den <= 2 * c < den


# -- the l1 inverse against the Fraction implementation it replaced -----------


def _reference_l1_inverse(f, tol=1e-10, radius_cap=40, max_iter=25):
    """torus.l1_inverse as it was written on Fractions, one operation per
    term product; also returns the number of Newton steps taken."""
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
    e0 = (0,) * d

    def residual(g):
        prod = _frac_conv(g, f.terms)
        prod[e0] = prod.get(e0, Fraction(0)) - 1
        return sum((abs(c) for c in prod.values()), Fraction(0))

    bits = max(64, 2 * int(math.ceil(-math.log2(max(tol, 1e-300)))) + 16)
    q = 1 << bits
    best, best_r = g, residual(g)
    it = 0
    while best_r > tol and it < max_iter:
        it += 1
        two_minus = {e: -c for e, c in _frac_conv(g, f.terms).items()}
        two_minus[e0] = two_minus.get(e0, Fraction(0)) + 2
        g = _frac_conv(g, two_minus)
        g = {e: Fraction(round(c * q), q) for e, c in g.items() if max(abs(x) for x in e) <= radius_cap}
        g = {e: c for e, c in g.items() if c}
        r = residual(g)
        if r < best_r:
            best, best_r = g, r
        else:
            break
    norm = sum((abs(c) for c in best.values()), Fraction(0))
    tail = float(best_r * norm / (1 - best_r)) if best_r < 1 else None
    return best, best_r, tail, best_r <= tol, it


@pytest.mark.parametrize("poly, tol, radius", [
    ("3 - u1 - u1^-1", 1e-25, 80),
    ("5 - 2*u1 - u1^-1", 1e-30, 60),
    ("7 - 3*u1 - 3*u1^-1", 1e-10, 40),
])
def test_newton_inverse_equals_fraction_reference(poly, tol, radius):
    f = parse_element(poly)
    terms, residual, tail, converged, steps = _reference_l1_inverse(f, tol, radius)
    assert steps >= 1
    g = torus.l1_inverse(f, tol, radius)
    assert g.terms == terms
    assert g.residual == residual
    assert g.tail_bound == tail
    assert g.converged == converged


def test_newton_inverse_d2_equals_recorded_reference():
    # The reference above takes about a minute on this input, so its result
    # is pinned by digest: sha256 of the ';'-joined "exp:coef" strings in
    # sorted order, the exact residual, the tail bound and `converged`.
    g = torus.l1_inverse(parse_element("6 - u1 - u1^-1 - u2 - u2^-1"), 1e-20, 20)
    text = ";".join(f"{e}:{g.terms[e]}" for e in sorted(g.terms))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4b9927bddf9bfc7e19d88bf6fab343310ba602dcab6256cb554abec135bb04c5"
    )
    assert len(g.terms) == 1681
    assert str(g.residual) == (
        "3802676470312665716969464610688179/713623846352979940529142984724747568191373312"
    )
    assert g.tail_bound == 2.6643423490926278e-12
    assert not g.converged


def test_matrix_inverse_equals_fraction_reference():
    A = GroupRingMatrix([
        [parse_element("4 - u1"), parse_element("1")],
        [parse_element("u1^-1"), parse_element("5 + u1")],
    ])
    tol, radius = 1e-25, 60
    det = A.det()
    gdet, _, _, _, steps = _reference_l1_inverse(det, tol / 2, radius)
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
    assert [[cell.terms for cell in row] for row in inv.entries] == G
    assert inv.residual == residual
    assert inv.tail_bound == tail
    assert inv.converged == (residual <= tol)
