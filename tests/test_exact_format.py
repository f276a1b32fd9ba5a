"""Homoclinic points and shadows are one lifted-point type, which stores the
lift as integer numerators over one denominator; every accessor is pinned
here against a Fraction reference reduced with frac_center, and sites of the
wrong length are refused."""

import math
from fractions import Fraction
from operator import add

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algdyn.groupring import GroupRingElement, GroupRingMatrix, parse_element
from algdyn.homoclinic import HomoclinicPoint, LiftedPoint, fundamental_homoclinic, group_element, max_distance
from algdyn.independence import ShadowBlock, ShadowRequest, greedy_separated_subset, shadow
from algdyn.torus import MatrixL1Inverse
from conftest import DictLift, box_of, cells_of, frac_center, fractions, lift_of, pairings
from test_independence import specification_read


@st.composite
def lifts(draw, d: int, k: int):
    """(nums, den): powers of two or odd denominators, optionally scaled
    with their numerators by a common factor so the pair is not reduced,
    with exact half-integers mixed in whenever den is even."""
    den = draw(st.integers(0, 70).map(lambda a: 1 << a) | st.integers(0, 10**6).map(lambda b: 2 * b + 1))
    common = draw(st.sampled_from([1, 2, 3, 4, 9]))
    sites = st.tuples(*[st.integers(-3, 3)] * d)
    nums = []
    for _ in range(k):
        comp = draw(st.dictionaries(sites, st.integers(-5 * den, 5 * den).filter(bool), max_size=8))
        if den % 2 == 0:
            for e in draw(st.lists(sites, max_size=3)):
                comp[e] = den // 2 + den * draw(st.integers(-3, 3))
        nums.append({e: n * common for e, n in comp.items()})
    return nums, den * common


def _point(d: int, nums: list[dict], den: int) -> HomoclinicPoint:
    k = len(nums)
    A = GroupRingMatrix.identity(k, d)
    inv = group_element(A, [0] * k).inverse
    return HomoclinicPoint(box_of(nums, d), den, 0.0, A, [GroupRingElement.zero(d)] * k, inv)


def _ref(nums: list[dict], den: int) -> list[dict]:
    return [{e: Fraction(n, den) for e, n in comp.items()} for comp in nums]


def _ref_value(lift: list[dict], e) -> tuple[float, ...]:
    return tuple(float(frac_center(comp.get(e, Fraction(0)))) for comp in lift)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_numerator_accessors_match_fraction_reference(data):
    d = data.draw(st.integers(1, 2))
    k = data.draw(st.integers(1, 2))
    nums, den = data.draw(lifts(d, k))
    x = _point(d, nums, den)
    lift = _ref(nums, den)
    sites = sorted(set().union(*nums)) + [(7,) * d]

    assert x.lift_array(sites).tolist() == [[float(comp.get(e, 0)) for comp in lift] for e in sites]
    for e in sites:
        assert x.value(e) == _ref_value(lift, e)
        assert x.lift_at(e) == tuple(comp.get(e, Fraction(0)) for comp in lift)
    by_radius, den = x.distance_by_radius()
    expected = {}
    for e in sites[:-1]:
        r = max(map(abs, e))
        expected[r] = expected.get(r, 0) + max(abs(frac_center(comp.get(e, Fraction(0)))) for comp in lift)
    assert {r: Fraction(n, den) for r, n in by_radius.items()} == expected
    assert [[t["value"] for t in comp] for comp in x.to_obj()["lift"]] == [
        [float(frac_center(comp[e])) for e in sorted(comp)] for comp in lift
    ]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sum_and_metric_over_the_lcm_match_fraction_reference(data):
    d = data.draw(st.integers(1, 2))
    k = data.draw(st.integers(1, 2))
    x = _point(d, *data.draw(lifts(d, k)))
    y = _point(d, *data.draw(lifts(d, k)))
    lx, ly = lift_of(x), lift_of(y)
    keys = [set(a) | set(b) for a, b in zip(lx, ly)]

    total = [{e: a.get(e, 0) + b.get(e, 0) for e in ks} for a, b, ks in zip(lx, ly, keys)]
    assert lift_of(x + y) == [{e: c for e, c in comp.items() if c} for comp in total]
    assert (x + y).value((0,) * d) == _ref_value(total, (0,) * d)

    # the torus distance of x from y at given sites, as shadow reads its block errors
    sites = sorted(set().union(*keys)) + [(7,) * d]
    assert max_distance(x, y, sites) == float(
        max(abs(frac_center(a.get(e, 0) - b.get(e, 0))) for a, b in zip(lx, ly) for e in sites))
    assert max_distance(x, y, []) == 0.0

    # a periodic x is read through its fold, as a periodic shadow is
    B = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=d, max_size=d))
    assume(round(np.linalg.det(np.array(B, dtype=float))) != 0)
    px, ref = LiftedPoint.from_point(x, basis=B), DictLift.of(x).folded(B)
    sites += [tuple(map(add, e, col)) for e in sites for col in zip(*B)]
    assert max_distance(px, y, sites) == float(
        max(abs(frac_center(a - b.get(e, 0))) for e in sites for a, b in zip(ref.lift_at(e), ly)))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_psi_with_two_term_phi_matches_fraction_reference(data):
    # pins the exact pairing oracle of the cross-pairing check to the
    # definition: the phase of Psi_{x,phi}(s) is sum_j sum_t lift_j(t - s) phi_j(t)
    d = data.draw(st.integers(1, 2))
    k = data.draw(st.integers(1, 2))
    nums, den = data.draw(lifts(d, k))
    x = _point(d, nums, den)
    lift = _ref(nums, den)
    sites = st.tuples(*[st.integers(-2, 2)] * d)
    coefs = st.dictionaries(sites, st.integers(-4, 4).filter(bool), min_size=2, max_size=2)
    phi = [GroupRingElement(d, data.draw(coefs)) for _ in range(k)]

    got = pairings(x, phi)
    for s in [(-1,) * d, (0,) * d, (2,) * d] + list(got):
        phase = sum(
            (comp.get(tuple(a - b for a, b in zip(t, s)), 0) * c
             for comp, p in zip(lift, phi) for t, c in p.terms.items()),
            Fraction(0),
        )
        assert got.get(s, 0) == phase


def _assert_readers_match(x, ref: DictLift, sites: list) -> None:
    if x.periodic_basis is None:
        assert x.support() == ref.support()
        expected = ref.distance_by_radius(ref.support())
    else:  # one stored site per nonzero coset of the period lattice, in lex order
        assert x.support() == sorted(x.support())
        assert sorted(map(ref.fold, x.support())) == ref.support()
        expected = ref.distance_by_radius(x.support())
    for e in sites:
        assert x.value(e) == ref.value(e)
        assert x.lift_at(e) == ref.lift_at(e)
    assert x.lift_array(sites).tolist() == ref.lift_array(sites)
    assert x.values(sites).tolist() == [list(ref.value(e)) for e in sites]
    assert x.values([]).shape == x.lift_array([]).shape == (0, x.k)
    by_radius, den = x.distance_by_radius()
    assert {r: Fraction(n, den) for r, n in by_radius.items()} == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_box_readers_match_the_dict_reference(data):
    d = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 2))
    nums, den = data.draw(lifts(d, k))
    x, ref = _point(d, nums, den), DictLift(nums, den, d)
    sites = ref.support() + [(7,) * d, (-4,) * d]
    _assert_readers_match(x, ref, sites)
    assert x.to_obj()["lift"] == ref.lift_obj()

    # the sum over the lcm of two denominators, and a translate
    ynums, yden = data.draw(lifts(d, k))
    s = x + _point(d, ynums, yden)
    assert s.den == math.lcm(den, yden)
    _assert_readers_match(s, ref + DictLift(ynums, yden, d), sites + sorted(set().union(*ynums)))
    t = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d)))
    _assert_readers_match(x.translate(t), ref.translate(t), [tuple(map(add, e, t)) for e in sites])

    # the fold onto a period lattice: every read sums the coset of its site
    B = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=d, max_size=d))
    assume(round(np.linalg.det(np.array(B, dtype=float))) != 0)
    shifted = [tuple(map(add, e, col)) for e in sites for col in zip(*B)]
    _assert_readers_match(LiftedPoint.from_point(x, basis=B), ref.folded(B), sites + shifted)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_inverse_readers_match_the_dict_reference(data):
    d = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 2))
    rows = [data.draw(lifts(d, k))[0] for _ in range(k)]
    den = data.draw(st.integers(1, 2**70))
    inv = MatrixL1Inverse(box_of(rows, d), den, Fraction(0), 1e-10, 0.0, None, 0)
    assert inv.terms == {e: Fraction(n, den) for e, n in rows[0][0].items() if n}
    expected: dict = {}
    for row in rows:
        for cell in row:
            for e, n in cell.items():
                expected[max(map(abs, e))] = expected.get(max(map(abs, e)), 0) + abs(n)
    by_radius, den_out = inv.mass_by_radius()
    assert den_out == den and by_radius == expected


def test_specification_check_reads_the_point():
    # zero provenance, so the shadow of the provenance is zero, but x is 3/10 at site 30
    x = _point(1, [{(30,): 3}], 10)
    assert specification_read(x, 0.1, [15])[0] == 0.3


def test_wrong_length_sites_are_refused():
    x = _point(1, [{(0,): 1, (1,): 3}], 8)
    with pytest.raises(ValueError):
        x.value((1, 2))
    with pytest.raises(ValueError):
        greedy_separated_subset([(0, 5), (1,)], 0)  # a window whose sites disagree in length
    # integer sites stand for d=1 sites, and only there
    assert x.value(1) == x.value((1,)) == (0.375,)
    with pytest.raises(ValueError):
        _point(2, [{(0, 0): 1}], 2).value(0)


def _one_by_one(text: str) -> GroupRingMatrix:
    return GroupRingMatrix([[parse_element(text)]])


_A_MATRIX = GroupRingMatrix.from_obj([["3 - u1", "1"], ["0", "3 - u1^-1"]])
_POINTS = {
    "d=1": lambda: fundamental_homoclinic(_one_by_one("3 - u1 - u1^-1"))[0],
    "2x2": lambda: group_element(_A_MATRIX, [parse_element("1 + u1"), parse_element("u1^-2 - 3")]),
    "d=2": lambda: fundamental_homoclinic(_one_by_one("5 - u1 - u1^-1 - u2 - u2^-1"), 1e-8, 8)[0],
    "periodic": lambda: shadow(_one_by_one("3 - u1 - u1^-1"), ShadowRequest(
        [ShadowBlock(list(range(5)), group_element(_one_by_one("3 - u1 - u1^-1"), parse_element("u1^2")))],
        0.05, [64])),
}


@pytest.mark.parametrize("name", list(_POINTS))
def test_distance_by_radius_matches_fraction_reference(name):
    x = _POINTS[name]()
    expected = {}
    for e in x.support():  # a periodic point is read through its fold
        r = max(map(abs, e))
        expected[r] = expected.get(r, 0) + max(abs(frac_center(c)) for c in x.lift_at(e))
    by_radius, den = x.distance_by_radius()
    assert len(expected) > 2
    assert {r: Fraction(n, den) for r, n in by_radius.items()} == expected


@pytest.mark.parametrize("A", [_one_by_one("3 - u1 - u1^-1"), _A_MATRIX])
def test_inverse_mass_by_radius_sums_the_entries_by_radius(A):
    inv = group_element(A, [1] + [0] * (A.rows - 1)).inverse
    expected = {}
    for row in cells_of(inv.nums):
        for cell in row:
            for e, c in fractions(cell, inv.den).items():
                expected[max(map(abs, e))] = expected.get(max(map(abs, e)), 0) + abs(c)
    by_radius, den = inv.mass_by_radius()
    assert {r: Fraction(n, den) for r, n in by_radius.items()} == expected
