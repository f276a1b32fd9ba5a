import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from algdyn import _sparse
from algdyn.groupring import GroupRingElement, GroupRingMatrix, parse_element
from algdyn.homoclinic import (
    annihilation_residual,
    delta1_membership,
    fundamental_homoclinic,
    group_element,
    max_distance,
    membership_tolerance,
)
from algdyn.independence import interaction_radius, inverse_tail_radius
from algdyn.torus import MemoryCapError
from conftest import cells_of, lift_of, pairing_gap, pairings, past_the_bound

E = GroupRingElement
R_SYM = (3 - math.sqrt(5)) / 2
A_SHIFT = GroupRingMatrix([[parse_element("3 - u1")]])


@pytest.fixture
def A_sym(f_symmetric):
    return GroupRingMatrix([[f_symmetric]])


@pytest.fixture
def A_geom(f_geometric):
    return GroupRingMatrix([[f_geometric]])


def _distance_to_zero(x) -> float:
    """The largest torus distance to zero over the stored sites of x."""
    return max((max(map(abs, x.value(e))) for e in x.support()), default=0.0)


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
        assert _distance_to_zero(x) <= 1e-12
        assert x.lift_at(0)[i] == Fraction(1)


def test_membership_annihilation(A_sym):
    (x,) = fundamental_homoclinic(A_sym)
    assert annihilation_residual(x) <= membership_tolerance(x)


def test_membership_tolerance_reads_the_tol_of_the_points_inverse(A_sym):
    # refined to 1e-6 only: the residual is far above the default 1e-10, and
    # the tolerance is the one the inverse converged to
    x = group_element(A_sym, [1], tol=1e-6)
    assert x.inverse.converged and x.inverse.residual > 1e-9
    assert membership_tolerance(x) == float(Fraction(1e-6))
    assert annihilation_residual(x) <= membership_tolerance(x)


def test_group_element_zero_and_kernel(A_sym, f_symmetric):
    z = group_element(A_sym, E.zero(1))
    assert _distance_to_zero(z) == 0
    # a row of A* maps to the zero point (within the truncation tail)
    k = group_element(A_sym, f_symmetric.star())
    assert _distance_to_zero(k) <= 1e-8


def test_group_element_linearity(A_sym):
    m1 = parse_element("1 + u1")
    m2 = parse_element("u1^-2 - 3")
    a = group_element(A_sym, m1)
    b = group_element(A_sym, m2)
    c = group_element(A_sym, m1 + m2)
    s = a + b
    assert set(c.support()) <= set(s.support()) | set(c.support())
    for e in set(c.support()) | set(s.support()):
        assert c.lift_at(e) == s.lift_at(e)


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


@pytest.mark.parametrize("site, message", [
    ((0.7,), "an exponent must be an integer, got 0.7"),
    ((0, 1), "exponent (0, 1) has length 2, expected 1"),
    ((True,), "an exponent must be an integer, got True"),
    ("0", "an exponent must be an integer, got '0'"),
])
def test_every_reader_refuses_a_malformed_site(A_sym, site, message):
    # the batched readers check a site as value and lift_at do, with
    # norm_sites' errors, rather than truncating 0.7 or splitting (0, 1)
    (x,) = fundamental_homoclinic(A_sym)
    readers = [x.values, x.lift_array, lambda s: max_distance(x, x, s),
               lambda s: x.value(s[-1]), lambda s: x.lift_at(s[-1])]
    for read in readers:
        with pytest.raises(ValueError, match=re.escape(message)):
            read([(0,), site])


def test_readers_take_bare_ints_in_d1_and_numpy_ints(A_sym):
    (x,) = fundamental_homoclinic(A_sym)
    sites = [(n,) for n in range(-3, 4)]
    for read in (x.values, x.lift_array):
        ref = read(sites)
        assert ref.shape == (7, 1)
        for same in ([n for n, in sites], [(np.int64(n),) for n, in sites], np.arange(-3, 4)[:, None]):
            assert (read(same) == ref).all()
    assert x.value(np.int64(2)) == x.value(2) == x.value((2,))
    (y,) = fundamental_homoclinic(GroupRingMatrix([[parse_element("5 - u1 - u1^-1 - u2 - u2^-1")]]))
    sites = [(1, -2), (0, 0), (3, 1)]
    assert (y.values(np.array(sites)) == y.values(sites)).all()
    assert y.lift_at(np.array([1, -2], dtype=np.int32)) == y.lift_at((1, -2))


def test_shift_equivariance_exact(A_sym):
    m = parse_element("2 - u1")
    x = group_element(A_sym, m)
    xt = group_element(A_sym, m.shift(3))
    assert lift_of(xt) == lift_of(x.translate(3))


def _mismatch(phase: float) -> float:
    """|exp(2 pi i phase) - 1|, the modulus of Psi at a site of that phase."""
    return abs(cmath.exp(2j * math.pi * phase) - 1)


def test_psi_trivials(A_sym):
    z = group_element(A_sym, E.zero(1))
    assert all(_mismatch(z.value(n)[0]) == 0 for n in range(-3, 4))
    (x,) = fundamental_homoclinic(A_sym)
    assert pairings(x, [E.zero(1)]) == {}


def test_psi_decay_matches_closed_form(A_sym):
    # with phi = 1 the phase of <n.x, 1> is the lift at -n
    (x,) = fundamental_homoclinic(A_sym)
    vals = [_mismatch(x.value(-n)[0]) for n in range(12)]
    for n, v in enumerate(vals):
        assert v == pytest.approx(_mismatch(R_SYM**n / math.sqrt(5)), abs=1e-9)
    assert all(b < a for a, b in zip(vals[1:], vals[2:]))


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


def _pair(A, m1, m2, tol=1e-12):
    """pairing_gap for x2 = m2 (A*)^-1 and x1 = m1 A^-1, with the inputs."""
    x2 = group_element(A, m2, tol, 40)
    x1 = group_element(A.star(), m1, tol, 40)
    return x2, x1, pairing_gap(x2, x1)


def test_pairing_symmetry_trivial_inputs(A_sym):
    for m1, m2 in ((E.zero(1), E.one(1)), (E.one(1), E.zero(1))):
        assert _pair(A_sym, m1, m2)[2] == (0, 0.0)


def test_pairing_symmetry_fixture(A_sym):
    _, _, (gap, bound) = _pair(A_sym, E.one(1), E.one(1))
    assert gap <= bound <= 1e-9


def test_pairing_symmetry_nontrivial():
    # A is not self-adjoint and m2 is not a multiple of A*, so both pairings
    # are non-integer and come from two different inverses
    x2, x1, (gap, bound) = _pair(A_SHIFT, parse_element("1 + u1"), parse_element("2 - u1^-1"))
    assert gap <= bound <= 1e-9
    bad_gap, bad_bound = pairing_gap(past_the_bound(x2, (-1,), bound), x1)
    assert bad_bound == bound < bad_gap


def test_matrix_case_two_by_two():
    A = GroupRingMatrix.from_obj([["3 - u1", "1"], ["0", "3 - u1^-1"]])
    xs = fundamental_homoclinic(A, 1e-10, 40)
    assert len(xs) == 2
    for x in xs:
        assert annihilation_residual(x) <= membership_tolerance(x)
    m = [parse_element("1"), parse_element("u1")]
    y = group_element(A, m)
    assert annihilation_residual(y) <= membership_tolerance(y)


def test_fundamental_points_do_not_share_the_cached_inverse():
    A = GroupRingMatrix.from_obj([["3 - u1", "1"], ["0", "3 - u1^-1"]])
    before = [cells_of(x.nums) for x in fundamental_homoclinic(A)]
    for x in fundamental_homoclinic(A):
        x.nums.a[...] = 7
    assert [cells_of(x.nums) for x in fundamental_homoclinic(A)] == before


def test_a_cached_inverse_is_read_only():
    A = GroupRingMatrix([[parse_element("3 - u1 - u1^-1")]])
    x, y = group_element(A, 1), group_element(A, parse_element("u1"))
    assert x.inverse is y.inverse
    with pytest.raises(ValueError, match="read-only"):
        x.inverse.nums.a[0, 0, 40] = 1
    with pytest.raises(ValueError, match="read-only"):
        x.inverse.nums.a += 1
    assert cells_of(x.inverse.nums) == cells_of(fundamental_homoclinic(A)[0].inverse.nums)


def test_a_box_over_the_memory_cap_is_refused_before_it_is_allocated(monkeypatch):
    # m = 1 + u1^300 u2^300: the lift's hull is the inverse's box plus 300 sites per axis, past a 1 MB cap
    A = GroupRingMatrix([[parse_element("5 - u1 - u1^-1 - u2 - u2^-1")]])
    inv_shape = group_element(A, 1).inverse.nums.shape  # built (and cached) under the default cap
    m = parse_element("1 + u1^300*u2^300")
    shapes = []
    zeros = np.zeros
    monkeypatch.setattr(np, "zeros", lambda shape, *args, **kw: shapes.append(shape) or zeros(shape, *args, **kw))
    monkeypatch.setattr(_sparse, "mem_cap_bytes", lambda: 1 << 20)
    with pytest.raises(MemoryCapError, match="ALGDYN_MEM_CAP_MB"):
        group_element(A, m)
    assert shapes == []
    monkeypatch.undo()
    assert group_element(A, m).nums.shape == tuple(n + 300 for n in inv_shape)


def test_decay_monotone_tail(A_sym):
    (x,) = fundamental_homoclinic(A_sym)
    tails = [max(map(abs, x.value(n) + x.value(-n))) for n in range(1, 12)]
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
