"""Homoclinic points and shadows are one lifted-point type, which stores the
lift as integer numerators over one denominator; every accessor is pinned
here against a Fraction reference reduced with frac_center, and sites of the
wrong length are refused."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algdyn.groupring import GroupRingElement, GroupRingMatrix, enumerate_zd, frac_center
from algdyn.homoclinic import HomoclinicPoint, group_element, psi, summable_metric_distance
from algdyn.independence import greedy_separated_subset


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
    return HomoclinicPoint(nums, den, 0.0, A, [GroupRingElement.zero(d)] * k, group_element(A, [0] * k).inverse)


def _ref(nums: list[dict], den: int) -> list[dict]:
    return [{e: Fraction(n, den) for e, n in comp.items()} for comp in nums]


def _ref_value(lift: list[dict], e) -> tuple[float, ...]:
    return tuple(float(frac_center(comp.get(e, Fraction(0)))) for comp in lift)


def _ref_metric(diff: list[dict], d: int, terms: int) -> float:
    """summable_metric_distance with the default W (the standard basis rows)."""
    gen = enumerate_zd(d)
    total = 0.0
    for j in range(1, terms + 1):
        s = tuple(-v for v in next(gen))
        for comp in diff:
            ang = 2.0 * math.pi * float(comp.get(s, Fraction(0)))
            total += 2.0 ** (-j) * abs(complex(math.cos(ang) - 1.0, math.sin(ang)))
    return total


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_numerator_accessors_match_fraction_reference(data):
    d = data.draw(st.integers(1, 2))
    k = data.draw(st.integers(1, 2))
    nums, den = data.draw(lifts(d, k))
    x = _point(d, nums, den)
    lift = _ref(nums, den)
    sites = sorted(set().union(*nums)) + [(7,) * d]

    assert x.lift == lift
    assert x.float_lift() == [{e: float(c) for e, c in comp.items()} for comp in lift]
    for e in sites:
        assert x.value(e) == _ref_value(lift, e)
        assert x.lift_at(e) == tuple(comp.get(e, Fraction(0)) for comp in lift)
    assert x.rho_sum() == sum(
        (max(abs(frac_center(comp.get(e, Fraction(0)))) for comp in lift) for e in sites[:-1]),
        Fraction(0),
    )
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
    lx, ly = _ref(x.nums, x.den), _ref(y.nums, y.den)
    keys = [set(a) | set(b) for a, b in zip(lx, ly)]

    total = [{e: a.get(e, 0) + b.get(e, 0) for e in ks} for a, b, ks in zip(lx, ly, keys)]
    assert (x + y).lift == [{e: c for e, c in comp.items() if c} for comp in total]
    assert (x + y).value((0,) * d) == _ref_value(total, (0,) * d)

    diff = [{e: a.get(e, 0) - b.get(e, 0) for e in ks} for a, b, ks in zip(lx, ly, keys)]
    assert summable_metric_distance(x, y, terms=16) == _ref_metric(diff, d, 16)


def test_wrong_length_sites_are_refused():
    x = _point(1, [{(0,): 1, (1,): 3}], 8)
    with pytest.raises(ValueError):
        psi(x, 1, [(1, 2)])
    with pytest.raises(ValueError):
        x.value((1, 2))
    with pytest.raises(ValueError):
        greedy_separated_subset([(0, 5), (1, 7)], [(0,)])
    # integer sites stand for d=1 sites, and only there
    assert x.value(1) == x.value((1,)) == (0.375,)
    with pytest.raises(ValueError):
        _point(2, [{(0, 0): 1}], 2).value(0)
