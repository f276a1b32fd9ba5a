import math
from fractions import Fraction

import numpy as np
import pytest

from algdyn.groupring import GroupRingElement, GroupRingMatrix, parse_element
from algdyn.homoclinic import (
    annihilation_residual,
    delta1_membership,
    fundamental_homoclinic,
    group_element,
    membership_tolerance,
    pairing_symmetry_check,
    psi,
    summable_metric_distance,
)
from algdyn.independence import interaction_radius, inverse_tail_radius

E = GroupRingElement
R_SYM = (3 - math.sqrt(5)) / 2


@pytest.fixture
def A_sym(f_symmetric):
    return GroupRingMatrix([[f_symmetric]])


@pytest.fixture
def A_geom(f_geometric):
    return GroupRingMatrix([[f_geometric]])


def test_fundamental_symmetric_closed_form(A_sym):
    (x,) = fundamental_homoclinic(A_sym)
    assert x.value(0)[0] == pytest.approx(1 / math.sqrt(5), abs=1e-9)
    for n in range(-6, 7):
        expected = R_SYM ** abs(n) / math.sqrt(5)
        assert x.value(n)[0] == pytest.approx(expected, abs=1e-9)


def test_fundamental_geometric_closed_form(A_geom):
    # A* = u^-1 - 2, whose inverse is supported on nonpositive exponents with
    # coefficient -2^-(|n|+1); the value at the origin reduces to -1/2.
    (x,) = fundamental_homoclinic(A_geom)
    assert abs(x.value(0)[0]) == pytest.approx(0.5, abs=1e-12)
    for n in range(1, 7):
        assert x.value(-n)[0] == pytest.approx(-(2.0 ** -(n + 1)), abs=1e-12)
        assert x.value(n)[0] == pytest.approx(0.0, abs=1e-12)


def test_fundamental_identity_trivial():
    A = GroupRingMatrix.identity(2, 1)
    xs = fundamental_homoclinic(A)
    for i, x in enumerate(xs):
        # lift is the standard basis row; mod 1 it is the zero point
        assert x.is_zero(tol=1e-12)
        assert x.lift[i][(0,)] == Fraction(1)


def test_membership_annihilation(A_sym):
    (x,) = fundamental_homoclinic(A_sym)
    assert annihilation_residual(x) <= membership_tolerance(A_sym)


def test_group_element_zero_and_kernel(A_sym, f_symmetric):
    z = group_element(A_sym, E.zero(1))
    assert z.is_zero(tol=0)
    # a row of A* maps to the zero point (within the truncation tail)
    k = group_element(A_sym, f_symmetric.star())
    assert k.is_zero(tol=1e-8)


def test_group_element_linearity(A_sym):
    m1 = parse_element("1 + u1")
    m2 = parse_element("u1^-2 - 3")
    a = group_element(A_sym, m1)
    b = group_element(A_sym, m2)
    c = group_element(A_sym, m1 + m2)
    s = a + b
    assert set(c.support()) <= set(s.support()) | set(c.support())
    for e in set(c.support()) | set(s.support()):
        assert c.lift[0].get(e, Fraction(0)) == s.lift[0].get(e, Fraction(0))


def test_points_carry_their_inverse(A_sym):
    x = group_element(A_sym, parse_element("1 + u1"))
    assert x.inverse is group_element(A_sym, 1).inverse
    assert x.translate(3).inverse is x.inverse
    assert (x + x).inverse is x.inverse


def test_sum_of_points_from_different_inverses_raises(A_sym):
    x = group_element(A_sym, 1)
    y = group_element(A_sym, 1, 1e-4, 10)
    with pytest.raises(ValueError, match="presenting matrix"):
        x + y
    other = group_element(GroupRingMatrix([[parse_element("4 - u1 - u1^-1")]]), 1)
    with pytest.raises(ValueError, match="presenting matrix"):
        x + other


def test_group_element_value_closed_form(A_sym):
    x = group_element(A_sym, parse_element("1 + u1"))
    expected = (1 + R_SYM) / math.sqrt(5)
    assert x.value(0)[0] == pytest.approx(math.remainder(expected, 1.0), abs=1e-9)


def test_shift_equivariance_exact(A_sym):
    m = parse_element("2 - u1")
    x = group_element(A_sym, m)
    xt = group_element(A_sym, m.shift(3))
    assert xt.lift[0] == x.translate(3).lift[0]


def test_psi_trivials(A_sym):
    z = group_element(A_sym, E.zero(1))
    vals = psi(z, E.one(1), range(-3, 4))
    assert all(abs(v) == 0 for v in vals.values())
    (x,) = fundamental_homoclinic(A_sym)
    vals0 = psi(x, E.zero(1), range(-3, 4))
    assert all(abs(v) == 0 for v in vals0.values())


def test_psi_decay_matches_closed_form(A_sym):
    (x,) = fundamental_homoclinic(A_sym)
    vals = psi(x, E.one(1), range(0, 12))
    prev = None
    for n in range(0, 12):
        expected = abs(complex(math.cos(2 * math.pi * R_SYM**n / math.sqrt(5)) - 1,
                               math.sin(2 * math.pi * R_SYM**n / math.sqrt(5))))
        assert abs(vals[(n,)]) == pytest.approx(expected, abs=1e-9)
        if prev is not None and n >= 2:
            assert abs(vals[(n,)]) < prev
        prev = abs(vals[(n,)])


def test_delta1_geometric_sums(A_geom, A_sym):
    (xg,) = fundamental_homoclinic(A_geom)
    cert = delta1_membership(xg)
    assert cert.rho_sum == pytest.approx(1.0, abs=1e-9)
    assert cert.finite

    (xs,) = fundamental_homoclinic(A_sym)
    cert2 = delta1_membership(xs)
    expected = (1 / math.sqrt(5)) * (1 + R_SYM) / (1 - R_SYM)
    assert cert2.rho_sum == pytest.approx(expected, abs=1e-8)

    z = group_element(A_sym, E.zero(1))
    assert delta1_membership(z).rho_sum == 0.0


def test_summable_metric_axioms(A_sym):
    rng = np.random.default_rng(59)
    pts = [
        group_element(A_sym, parse_element(t))
        for t in ("1", "u1", "1 + u1", "2 - u1^-1")
    ]
    for x in pts:
        assert summable_metric_distance(x, x) == pytest.approx(0.0, abs=1e-12)
    for _ in range(6):
        i, j = rng.integers(0, len(pts), size=2)
        a = summable_metric_distance(pts[i], pts[j])
        b = summable_metric_distance(pts[j], pts[i])
        assert a == pytest.approx(b, abs=1e-12)
        assert a >= 0


def test_summable_metric_two_route(A_sym):
    # independent route: direct sum over the spiral enumeration
    (x,) = fundamental_homoclinic(A_sym)
    got = summable_metric_distance(x, None, terms=64)
    direct = 0.0
    for j in range(1, 65):
        # spiral order on Z: 0, -1, 1, -2, 2, ...
        if j == 1:
            s = 0
        elif j % 2 == 0:
            s = -(j // 2)
        else:
            s = j // 2
        val = x.value(s)[0]
        direct += 2.0 ** (-j) * abs(complex(math.cos(2 * math.pi * val) - 1,
                                            math.sin(2 * math.pi * val)))
    assert got == pytest.approx(direct, abs=1e-12)
    assert got > 0


def test_pairing_symmetry_trivial_inputs(A_sym):
    rep0 = pairing_symmetry_check(A_sym, E.zero(1), parse_element("1"), range(-5, 6))
    assert rep0.max_discrepancy == 0.0
    rep1 = pairing_symmetry_check(A_sym, parse_element("1"), E.zero(1), range(-5, 6))
    assert rep1.max_discrepancy == 0.0


def test_pairing_symmetry_fixture(A_sym):
    rep = pairing_symmetry_check(
        A_sym, parse_element("1"), parse_element("1"), range(-10, 11)
    )
    assert rep.max_discrepancy <= 1e-9


def test_pairing_symmetry_nontrivial(A_geom):
    rep = pairing_symmetry_check(
        A_geom, parse_element("1 + u1"), parse_element("2 - u1^-1"), range(-8, 9),
        tol=1e-12,
    )
    assert rep.max_discrepancy <= 1e-9


def test_matrix_case_two_by_two():
    A = GroupRingMatrix.from_obj([["3 - u1", "1"], ["0", "3 - u1^-1"]])
    xs = fundamental_homoclinic(A, 1e-10, 40)
    assert len(xs) == 2
    for x in xs:
        assert annihilation_residual(x) <= membership_tolerance(A)
    m = [parse_element("1"), parse_element("u1")]
    y = group_element(A, m)
    assert annihilation_residual(y) <= membership_tolerance(A) * 3


def test_fundamental_points_do_not_share_the_cached_inverse():
    A = GroupRingMatrix.from_obj([["3 - u1", "1"], ["0", "3 - u1^-1"]])
    before = [[dict(c) for c in x.nums] for x in fundamental_homoclinic(A)]
    for x in fundamental_homoclinic(A):
        for comp in x.nums:
            comp.clear()
            comp[(99,)] = 7
    assert [x.nums for x in fundamental_homoclinic(A)] == before


def test_decay_monotone_tail(A_sym):
    (x,) = fundamental_homoclinic(A_sym)
    tails = [max(x.rho_to_zero(n), x.rho_to_zero(-n)) for n in range(1, 12)]
    assert all(b < a for a, b in zip(tails, tails[1:]))


def test_missing_tail_bound_is_not_zero():
    # radius 0 leaves the inverse residual at about 1.33: no tail bound is certified
    A = GroupRingMatrix([[parse_element("3 + 2*u1 + 2*u1^2")]])
    x = fundamental_homoclinic(A, 1e-10, 0)[0]
    assert x.tail_bound == math.inf
    assert group_element(A, [parse_element("1 + u1")], 1e-10, 0).tail_bound == math.inf
    cert = delta1_membership(x)
    assert not cert.finite
    assert cert.to_obj()["tail_bound"] is None and cert.to_obj()["total"] is None
    assert x.to_obj()["tail_bound"] is None
    with pytest.raises(ValueError, match="tail bound"):
        interaction_radius(x, 0.1)
    with pytest.raises(ValueError, match="tail bound"):
        inverse_tail_radius(x.inverse, 0.1)
