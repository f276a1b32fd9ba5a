import itertools
import math
from fractions import Fraction
from operator import add, mul

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from algdyn import _sparse, homoclinic, independence, torus
from algdyn.entropy import packing_lower_bound
from algdyn.groupring import GroupRingElement, GroupRingMatrix, ball, norm_sites, parse_element
from algdyn.homoclinic import _lattice_fold, _triangular_basis, fundamental_homoclinic, group_element
from algdyn.independence import (
    _direct_violations,
    _first_radius_below,
    _short_vectors,
    ShadowBlock,
    ShadowRequest,
    base_digits,
    family_values,
    greedy_separated_subset,
    independence_witnesses,
    interaction_radius,
    inverse_tail_radius,
    shadow,
)
from conftest import lift_of, solve_rational

E = GroupRingElement


@pytest.fixture
def A_sym(f_symmetric):
    return GroupRingMatrix([[f_symmetric]])


# -- greedy separated subsets ---------------------------------------------------


def test_greedy_example():
    F1 = greedy_separated_subset(list(range(10)), [(-1,), (0,), (1,)])
    assert F1 == [(0,), (2,), (4,), (6,), (8,)]


def test_greedy_everything_conflicts():
    F = list(range(6))
    K = [(i,) for i in range(-6, 7)]
    assert greedy_separated_subset(F, K) == [(0,)]


def test_greedy_no_conflicts():
    F = list(range(5))
    assert greedy_separated_subset(F, [(0,)]) == [(i,) for i in range(5)]


def test_greedy_guarantee_500_random():
    rng = np.random.default_rng(61)
    for _ in range(500):
        d = int(rng.integers(1, 3))
        nf = int(rng.integers(1, 30))
        F = {tuple(int(v) for v in rng.integers(-12, 13, size=d)) for _ in range(nf)}
        F = sorted(F)
        nk = int(rng.integers(1, 8))
        K = {tuple(int(v) for v in rng.integers(-3, 4, size=d)) for _ in range(nk)}
        K = sorted(K)
        F1 = greedy_separated_subset(F, K)
        assert len(F1) * (2 * len(K) + 1) >= len(F)
        ks = set(K)
        for i, s in enumerate(F1):
            for t in F1[i + 1 :]:
                diff = tuple(a - b for a, b in zip(s, t))
                ndiff = tuple(b - a for a, b in zip(s, t))
                assert diff not in ks and ndiff not in ks


# -- witnesses --------------------------------------------------------------------


def test_radius_mass_at_the_bound_is_not_below_it():
    # masses beyond radius 0, 1, 2: 2/4, 1/4, 0; exactly 1/4 is not below 1/4
    by_radius = {r: 1 for r in range(3)}
    assert _first_radius_below(by_radius, 4, 0.0, 0.25) == 2
    assert _first_radius_below(by_radius, 4, 0.0, math.nextafter(0.25, 1)) == 1
    # a truncation tail of the l1 inverse of a real chain: its rational
    # approximation with denominator <= 10^15 lies below the float
    tail = 1.101230805211538e-15
    assert _first_radius_below({0: 1}, 1, tail, tail) is None
    assert _first_radius_below({0: 1}, 1, tail, math.nextafter(tail, 1)) == 0


def test_interaction_radius_fixture(A_sym):
    (x,) = fundamental_homoclinic(A_sym)
    assert interaction_radius(x, 0.1) == 2
    # eps larger than the whole mass: radius 0
    assert interaction_radius(x, 2.0) == 0


def test_interaction_radius_cap_is_named(A_sym):
    x = group_element(A_sym, parse_element("u1^500"))
    with pytest.raises(ValueError, match="radius 50[0-9] > radius_cap = 200"):
        interaction_radius(x, 0.1)
    assert interaction_radius(x, 0.1, radius_cap=600) == 502


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.1])
def test_eps_must_be_finite_and_positive(A_sym, eps):
    (x,) = fundamental_homoclinic(A_sym)
    with pytest.raises(ValueError, match="eps must be a finite number > 0"):
        independence_witnesses(x, eps, list(range(8)))
    with pytest.raises(ValueError, match="eps must be a finite number > 0"):
        packing_lower_bound(x, list(range(8)), eps=eps)


def test_witnesses_fixture_all_pass(A_sym):
    (x,) = fundamental_homoclinic(A_sym)
    rep = independence_witnesses(x, 0.1, list(range(60)), cap=4096)
    assert rep.all_pass
    assert not rep.subsampled
    assert len(rep.F1) == 12
    assert rep.max_violation <= 0.1
    assert rep.density >= 1.0 / (2 * len(rep.K) + 1)
    conflict = set(ball(1, 2 * interaction_radius(x, 0.1)))
    assert rep.density >= 1.0 / (2 * len(conflict) + 1)


def test_witnesses_zero_point(A_sym):
    z = group_element(A_sym, E.zero(1))
    rep = independence_witnesses(z, 0.05, list(range(8)))
    assert rep.all_pass
    assert rep.max_violation == 0.0
    assert rep.F1 == rep.F


def test_witnesses_generous_eps(A_sym):
    (x,) = fundamental_homoclinic(A_sym)
    rep = independence_witnesses(x, 1.5, list(range(8)))
    # whole window independent: K = {0}, F1 = F
    assert rep.F1 == rep.F
    assert rep.all_pass


def test_witnesses_subsample_flagged(A_sym):
    z = group_element(A_sym, E.zero(1))
    rep = independence_witnesses(z, 0.05, list(range(16)), cap=64, seed=9)
    assert rep.subsampled
    assert rep.seed == 9
    assert rep.all_pass


def test_witnesses_impossible_eps(A_sym):
    (x,) = fundamental_homoclinic(A_sym)
    with pytest.raises(ValueError):
        independence_witnesses(x, 1e-18, list(range(8)))


# -- shadowing ---------------------------------------------------------------------


def test_gap_radius_fixture(A_sym):
    # eps = 0.05: tail of the inverse below 0.05 / (2*5) = 0.005 needs R = 5
    (x,) = fundamental_homoclinic(A_sym)
    assert inverse_tail_radius(x.inverse, 0.05 / 10) == 5


def test_shadow_single_block_reproduces_point(A_sym):
    (x,) = fundamental_homoclinic(A_sym)
    req = ShadowRequest([ShadowBlock(list(range(-2, 3)), x)], 0.1)
    res = shadow(A_sym, req)
    assert max(res.block_errors) <= 0.1
    for n in range(-2, 3):
        assert res.value(n)[0] == pytest.approx(x.value(n)[0], abs=1e-9)


def test_shadow_two_blocks(A_sym):
    b1 = ShadowBlock(list(range(0, 5)), group_element(A_sym, parse_element("u1^2")))
    b2 = ShadowBlock(list(range(40, 45)), group_element(A_sym, parse_element("u1^42")))
    res = shadow(A_sym, ShadowRequest([b1, b2], 0.05))
    assert all(e <= 0.05 for e in res.block_errors)
    assert res.gap_radius == 5


def test_shadow_blocks_too_close(A_sym):
    b1 = ShadowBlock(list(range(0, 5)), group_element(A_sym, parse_element("u1^2")))
    b2 = ShadowBlock(list(range(6, 11)), group_element(A_sym, parse_element("u1^8")))
    with pytest.raises(ValueError, match="gap radius"):
        shadow(A_sym, ShadowRequest([b1, b2], 0.05))


def test_shadow_empty_request(A_sym):
    res = shadow(A_sym, ShadowRequest([], 0.05))
    assert res.block_errors == []
    assert all(not comp for comp in lift_of(res))


def test_shadow_periodic_exact_invariance(A_sym):
    b = ShadowBlock(list(range(0, 5)), group_element(A_sym, parse_element("u1^2")))
    res = shadow(A_sym, ShadowRequest([b], 0.05, [64]))
    assert res.periodic_basis == [[64]]
    for n in range(-3, 8):
        assert res.lift_at(n) == res.lift_at(n + 64)
        assert res.lift_at(n) == res.lift_at(n - 64)
    assert max(res.block_errors) <= 0.05
    # independent route: fold the aperiodic shadow by hand
    res_open = shadow(A_sym, ShadowRequest([b], 0.05))
    for n in range(0, 64):
        acc = Fraction(0)
        for shift in range(-3, 4):
            acc += lift_of(res_open)[0].get((n + 64 * shift,), Fraction(0))
        assert acc == res.lift_at(n)[0]


def _fold_by_solve(e, B):
    """Reference fold: one exact Gauss-Jordan solve of B k = e per site."""
    ks = [row[0].__floor__() for row in solve_rational(B, [[v] for v in e])]
    return tuple(e[i] - sum(B[i][j] * ks[j] for j in range(len(e))) for i in range(len(e)))


@st.composite
def _basis_and_sites(draw):
    d = draw(st.integers(1, 3))
    B = draw(st.lists(st.lists(st.integers(-9, 9), min_size=d, max_size=d), min_size=d, max_size=d))
    assume(round(np.linalg.det(np.array(B, dtype=float))) != 0)
    sites = draw(st.lists(st.tuples(*[st.integers(-200, 200)] * d), min_size=1, max_size=10))
    return B, sites


@settings(max_examples=200, deadline=None)
@given(_basis_and_sites(), st.integers(-50, 50))
def test_lattice_fold_lands_each_site_on_its_coset_in_one_box(case, c):
    B, sites = case
    d = len(B)
    corner = tuple(c * (i + 1) for i in range(d))
    h = [row[j] for j, row in enumerate(_triangular_basis(B))]
    assert math.prod(h) == abs(round(np.linalg.det(np.array(B, dtype=float))))
    fold = _lattice_fold(_triangular_basis(B), corner)
    folded = list(map(tuple, fold(np.array(sites, dtype=object).reshape(-1, d)).tolist()))
    for e, r in zip(sites, folded):
        assert _fold_by_solve(r, B) == _fold_by_solve(e, B)  # the same coset of B Z^d
        assert all(0 <= v - c0 < n for v, c0, n in zip(r, corner, h))  # in the box of |det B| sites


def _short_vectors_by_inverse(B, reach):
    """The enumeration shadow made from B^-1 = P / D before it read the
    triangular basis, kept as the oracle: the lattice vectors B z with
    |z_i| <= sum_j |P_ij| reach / D, or, when that box of z is larger, the
    cube's sites lam with P lam = 0 mod D."""
    P, D = _sparse.int_inverse(B)
    d = len(B)
    box = [sum(map(abs, row)) * reach // D for row in P]
    if math.prod(2 * b + 1 for b in box) <= (2 * reach + 1) ** d:
        cands = (tuple(sum(map(mul, row, z)) for row in B)
                 for z in itertools.product(*(range(-b, b + 1) for b in box)))
    else:
        cands = (lam for lam in itertools.product(range(-reach, reach + 1), repeat=d)
                 if not any(sum(map(mul, row, lam)) % D for row in P))
    return {lam for lam in cands if any(lam) and max(map(abs, lam)) <= reach}


@settings(max_examples=150, deadline=None)
@given(_basis_and_sites(), st.integers(0, 12))
@example(([[64]], [(0,)]), 70)
@example(([[1, 0], [0, 1]], [(0, 0)]), 0)
def test_short_vectors_by_back_substitution_match_the_inverse_enumeration(case, reach):
    B, _ = case
    got = _short_vectors(_triangular_basis(B), reach)
    assert len(got) == len(set(got))
    assert set(got) == _short_vectors_by_inverse(B, reach)


def _violation_by_pattern(lift, F1, K, code):
    """Reference: max_{s,t,j} rho((s y_sigma)_t, target_t), one dict lookup
    per switched-on site."""
    on = [sp for b, sp in enumerate(F1) if code >> b & 1]
    worst = 0.0
    for a, s in enumerate(F1):
        for t in K:
            for comp in lift:
                acc = sum(comp.get(tuple(ti - si + pi for ti, si, pi in zip(t, s, sp)), 0.0) for sp in on)
                diff = acc - (comp.get(t, 0.0) if code >> a & 1 else 0.0)
                worst = max(worst, abs(diff - round(diff)))
    return worst


@st.composite
def _witness_case(draw):
    d = draw(st.integers(1, 2))
    site = st.tuples(*[st.integers(-4, 4)] * d)
    F1 = sorted(set(draw(st.lists(site, max_size=9))))
    K = sorted(set(draw(st.lists(site, min_size=1, max_size=4))))
    value = st.floats(-3, 3, allow_nan=False)
    lift = draw(st.lists(st.dictionaries(site, value, max_size=30), min_size=1, max_size=2))
    codes = draw(st.lists(st.integers(0, (1 << len(F1)) - 1), min_size=1, max_size=20))
    return lift, F1, K, codes


@settings(max_examples=200, deadline=None)
@given(_witness_case())
# 45 sites, so the codes' bits above 32 come from the fifth and sixth bytes
@example(([{(j,): (7 * j % 11) * 0.13 - 0.6 for j in range(-230, 231)}], [(5 * i,) for i in range(45)],
          [(-1,), (0,), (2,)], [1 << 44 | 1 << 33 | 5, (1 << 40) - 1, 1 << 32 | 1 << 38, 0]))
def test_direct_violations_equal_the_per_pattern_sums(case):
    lift, F1, K, codes = case
    # the re-check reads its sites in one batch, as an (n, k) array even when n is 0
    got = _direct_violations(lambda sites: np.array([[comp.get(e, 0.0) for comp in lift] for e in sites],
                                                    dtype=np.float64).reshape(len(sites), len(lift)), F1, K, codes)
    assert list(got) == pytest.approx([_violation_by_pattern(lift, F1, K, c) for c in codes], abs=1e-12)


@pytest.mark.parametrize("moved", ["family_values", "targets", "shifted sites"])
def test_recheck_catches_one_value_moved_by_a_hundredth(monkeypatch, moved):
    # one value moves by 0.01: in the main path's witness tensor, or in one
    # of the re-check's two reads of the point (the targets K, then the
    # sites t - s + s'), over a window with 6 separated sites
    x = group_element(GroupRingMatrix([[parse_element("3 - u1 - u1^-1")]]), 1)
    assert len(independence_witnesses(x, 0.1, list(range(30))).F1) == 6
    if moved == "family_values":
        family = independence.family_values

        def shifted(*args):
            vals = family(*args)
            vals[0, 0, 0] += 0.01
            return vals

        monkeypatch.setattr(independence, "family_values", shifted)
    else:
        values, reads = homoclinic.LiftedPoint.values, []

        def shifted(point, sites):
            out = values(point, sites)
            if len(reads) == ["targets", "shifted sites"].index(moved):
                out[0, 0] += 0.01
            reads.append(len(sites))
            return out

        monkeypatch.setattr(homoclinic.LiftedPoint, "values", shifted)
    with pytest.raises(torus.VerificationError, match="independent witness re-verification disagrees"):
        independence_witnesses(x, 0.1, list(range(30)))


def _member_at(lift, F1, c, w):
    """Reference: sum_s c_s lift(s - w), one dict lookup per site and component."""
    return [sum(c_s * float(comp.get(tuple(p - q for p, q in zip(s, w)), 0)) for c_s, s in zip(c, F1))
            for comp in lift]


@pytest.mark.parametrize("A, F1, R, window", [
    ([["5 - u1 - u1^-1 - u2 - u2^-1"]], [(0, 0), (3, 1), (-2, 4)], 1, [(i, j) for i in range(3) for j in range(3)]),
    ([["3 - u1", "1"], ["0", "3 - u1^-1"]], [(0,), (4,), (9,)], 2, [(i,) for i in range(-3, 12)]),
])
def test_family_values_equal_the_per_member_sums(A, F1, R, window):
    (x, *_) = fundamental_homoclinic(GroupRingMatrix.from_obj(A), 1e-8, 8)
    lift = lift_of(x)
    K = ball(x.d, R)
    # the ie site set F1[a] - t with on/off digits, and a packing window with base-3 digits
    for base, sites in [(2, [tuple(p - q for p, q in zip(s, t)) for s in F1 for t in K]), (3, window)]:
        digits = base_digits(np.arange(base ** len(F1)), base, len(F1))
        assert (digits @ base ** np.arange(len(F1)) == np.arange(len(digits))).all()
        got = family_values(x, F1, digits, sites)
        assert got.shape == (len(digits), len(sites), x.k)
        want = [[_member_at(lift, F1, c, w) for w in sites] for c in digits.tolist()]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_shadow_refuses_a_point_of_another_matrix(A_sym):
    # a point of 4 - u1 - u1^-1 differs from every point of 3 - u1 - u1^-1
    other = group_element(GroupRingMatrix([[parse_element("4 - u1 - u1^-1")]]), 1)
    with pytest.raises(ValueError, match="block 0 is not a point of the presenting matrix"):
        shadow(A_sym, ShadowRequest([ShadowBlock(list(range(-2, 3)), other)], 0.2))


def test_shadow_refuses_blocks_from_two_inverses(A_sym):
    b1 = ShadowBlock(list(range(0, 5)), group_element(A_sym, parse_element("u1^2")))
    b2 = ShadowBlock(list(range(40, 45)), group_element(A_sym, parse_element("u1^42"), 1e-4, 10))
    with pytest.raises(ValueError, match="block 1 comes from another inverse"):
        shadow(A_sym, ShadowRequest([b1, b2], 0.05))


def test_shadow_uses_the_inverse_of_its_blocks(A_sym):
    # blocks from a coarser inverse get that inverse's gap radius and point
    x = group_element(A_sym, parse_element("u1^2"), 1e-4, 10)
    res = shadow(A_sym, ShadowRequest([ShadowBlock(list(range(0, 5)), x)], 0.05))
    assert res.gap_radius == inverse_tail_radius(x.inverse, 0.05 / 10)
    assert res.den == x.inverse.den
    assert res.block_errors == [0.0]


@pytest.mark.parametrize("basis", [[64], [[64]]])
def test_periodic_shadow_inverts_its_basis_once(A_sym, monkeypatch, basis):
    # the one reduction of the basis, to its triangular form, serves the domain
    # check and the fold of every later read; no inverse of the basis is taken
    calls = []
    triangular = homoclinic._triangular_basis
    for module in (homoclinic, independence):
        monkeypatch.setattr(module, "_triangular_basis", lambda B: calls.append(B) or triangular(B))
    monkeypatch.setattr(_sparse, "int_inverse", lambda B: pytest.fail("the basis was inverted"))
    b = ShadowBlock(list(range(0, 5)), group_element(A_sym, parse_element("u1^2")))
    res = shadow(A_sym, ShadowRequest([b], 0.05, basis))
    assert max(res.block_errors) <= 0.05
    assert res.lift_at(70) == res.lift_at(6)
    assert res.lift_array([(70,), (6,)]).tolist() == [[float(c) for c in res.lift_at(6)]] * 2
    assert calls == [[[64]]]


def test_shadow_periodic_domain_too_small(A_sym):
    b = ShadowBlock(list(range(0, 5)), group_element(A_sym, parse_element("u1^2")))
    with pytest.raises(ValueError, match="domain too small"):
        shadow(A_sym, ShadowRequest([b], 0.05, [8]))


def test_shadow_linearity_zero_blocks(A_sym):
    z = group_element(A_sym, E.zero(1))
    res = shadow(A_sym, ShadowRequest([ShadowBlock([0, 1], z)], 0.1))
    assert all(not comp for comp in lift_of(res))
    assert res.block_errors == [0.0]


# -- specification check ------------------------------------------------------------

# The specification read looks at x on the annulus of this width beyond the
# gap set, and refuses points whose lift reaches beyond this max-norm radius.
SPEC_VERIFY_WIDTH = 20
SPEC_SUPPORT_CAP = 120


def specification_read(x, eps: float, F1: list) -> tuple[float, int]:
    """Oracle for inverse_tail_radius: the outside-decay clause of
    single-block shadowing.  The single-block shadow of x is x itself, so it
    must stay within eps of zero beyond the gap set (F1 dilated by the radius
    shadow takes from the tail of x's inverse).  Returns the largest distance
    to zero on the annulus of width SPEC_VERIFY_WIDTH beyond the gap set,
    and the gap radius."""
    d = x.d
    if x.support() and max(max(map(abs, e)) for e in x.support()) > SPEC_SUPPORT_CAP:
        raise ValueError("support exceeds verification window")
    Fn = norm_sites(F1, d)
    R = inverse_tail_radius(x.inverse, eps / (2.0 * x.A.l1_norm()))
    gap_set = {tuple(map(add, s, b)) for s in Fn for b in ball(d, R)}
    annulus = {tuple(map(add, s, b)) for s in Fn for b in ball(d, R + SPEC_VERIFY_WIDTH)} - gap_set
    return max((max(map(abs, x.value(t))) for t in annulus), default=0.0), R


def test_specification_fixture(A_sym):
    x = group_element(A_sym, parse_element("u1^2"))
    outside, R = specification_read(x, 0.1, list(range(0, 5)))
    assert R == inverse_tail_radius(x.inverse, 0.1 / 10)
    assert outside <= 0.1


def test_specification_generous_eps(A_sym):
    x = group_element(A_sym, parse_element("u1^2"))
    # torus distances never exceed 1/2
    assert specification_read(x, 0.5, [0, 1, 2])[0] <= 0.5


def test_specification_support_cap(A_sym):
    x = group_element(A_sym, parse_element("u1^500"), radius_cap=40)
    with pytest.raises(ValueError, match="support exceeds"):
        specification_read(x, 0.1, [0, 1])


# -- two-dimensional systems -----------------------------------------------------


@pytest.fixture
def A_2d():
    return GroupRingMatrix([[parse_element("5 - u1 - u1^-1 - u2 - u2^-1")]])


def test_witnesses_two_dimensional(A_2d):
    (x,) = fundamental_homoclinic(A_2d, 1e-8, 8)
    window = [(i, j) for i in range(6) for j in range(6)]
    rep = independence_witnesses(x, 0.2, window, cap=4096)
    assert rep.all_pass
    assert rep.density >= 1.0 / (2 * len(rep.K) + 1)


def test_shadow_periodic_two_dimensional(A_2d):
    x = group_element(A_2d, parse_element("u1*u2", d=2), 1e-8, 8)
    window = [(i, j) for i in range(3) for j in range(3)]
    res = shadow(A_2d, ShadowRequest([ShadowBlock(window, x)], 0.2, [32, 24]))
    assert max(res.block_errors) <= 0.2
    for i, j in [(0, 0), (1, 2), (5, 3)]:
        assert res.lift_at((i, j)) == res.lift_at((i + 32, j))
        assert res.lift_at((i, j)) == res.lift_at((i, j + 24))
        assert res.lift_at((i, j)) == res.lift_at((i - 32, j - 24))


# U = [[1, 3], [0, 1]], [[2, 1], [1, 1]] and [[1000001, 1000000], [1000000, 999999]]
# are unimodular, so B and B U span one subgroup; the last makes the box of
# coefficients z far larger than the cube of short vectors.
_SKEW = [[1000001, 1000000], [1000000, 999999]]


@pytest.mark.parametrize("B, BU, accepted", [
    ([[32, 0], [0, 24]], [[32, 96], [0, 24]], True),
    ([[32, 0], [0, 24]], [[64, 32], [24, 24]], True),
    ([[32, 0], [0, 24]], [[32000032, 32000000], [24000000, 23999976]], True),
    ([[32, 0], [0, 6]], [[32, 96], [0, 6]], False),  # (0, 6) = (96, 6) - 3 (32, 0)
    ([[32, 0], [0, 3]], [[32, 96], [0, 3]], False),
    ([[1, 0], [0, 1]], _SKEW, False),
])
def test_periodic_shadow_verdict_depends_on_the_subgroup_only(A_2d, B, BU, accepted):
    x = group_element(A_2d, parse_element("u1*u2", d=2), 1e-8, 8)
    block = ShadowBlock([(i, j) for i in range(3) for j in range(3)], x)

    def verdict(basis):
        try:
            return shadow(A_2d, ShadowRequest([block], 0.2, basis)).block_errors
        except ValueError as exc:
            return str(exc)

    assert verdict(B) == verdict(BU)
    assert isinstance(verdict(B), list) == accepted


def test_shadow_periodic_non_diagonal_basis(A_2d):
    x = group_element(A_2d, parse_element("u1*u2", d=2), 1e-8, 8)
    window = [(i, j) for i in range(3) for j in range(3)]
    block = ShadowBlock(window, x)
    B = [[32, 8], [0, 24]]  # the subgroup spanned by the columns (32, 0) and (8, 24)
    res = shadow(A_2d, ShadowRequest([block], 0.2, B))
    assert res.periodic_basis == B
    assert max(res.block_errors) <= 0.2
    for e in [(0, 0), (1, 2), (5, 3), (-7, 11)]:
        for b in [(32, 0), (8, 24)]:
            assert res.lift_at(e) == res.lift_at((e[0] + b[0], e[1] + b[1]))
            assert res.lift_at(e) == res.lift_at((e[0] - b[0], e[1] - b[1]))
    # independent route: fold the aperiodic shadow by hand, summing its lift
    # over each coset e + B z (the support lies within |e| <= 10)
    open_lift = lift_of(shadow(A_2d, ShadowRequest([block], 0.2)))[0]
    assert max(max(map(abs, e)) for e in open_lift) <= 10
    for e in itertools.product(range(-10, 45), range(-5, 30)):
        acc = Fraction(0)
        for z1, z2 in itertools.product(range(-4, 5), repeat=2):
            acc += open_lift.get((e[0] + 32 * z1 + 8 * z2, e[1] + 24 * z2), Fraction(0))
        assert acc == res.lift_at(e)[0]


def test_periodic_basis_of_numpy_integers_is_read_as_ints():
    assert ShadowRequest([], 0.1, [np.int64(64)]).basis_matrix(1) == [[64]]
