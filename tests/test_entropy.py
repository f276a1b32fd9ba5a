import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from algdyn.entropy import (
    CompanionModule,
    _dedupe_int,
    additivity_check,
    duality_check,
    mahler_measure,
    packing_lower_bound,
    peters_entropy,
)
from algdyn.groupring import GroupRingElement, GroupRingMatrix, parse_element
from algdyn.torus import NotInvertibleError, certify_invertible
from conftest import jensen_mahler, random_element

E = GroupRingElement

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


# -- Mahler quadrature ---------------------------------------------------------


def test_mahler_geometric(f_geometric):
    est = mahler_measure(f_geometric, 65536)
    assert est.value == pytest.approx(math.log(2), abs=1e-10)
    assert est.value == pytest.approx(jensen_mahler(f_geometric), abs=1e-10)


def test_mahler_symmetric(f_symmetric):
    est = mahler_measure(f_symmetric, 65536)
    assert est.value == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-10)
    assert est.value == pytest.approx(jensen_mahler(f_symmetric), abs=1e-10)


def test_mahler_one():
    assert mahler_measure(E.one(1)).value == 0.0


def test_mahler_zero_rejected():
    with pytest.raises(ValueError):
        mahler_measure(E.zero(1))


def test_mahler_random_against_jensen():
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 8:
        f = random_element(rng, 1, radius=2, max_coef=3)
        if f.is_zero():
            continue
        if certify_invertible(f).verdict != "Invertible":
            continue
        checked += 1
        est = mahler_measure(f, 4096)
        assert est.value == pytest.approx(jensen_mahler(f), abs=1e-6)


def test_mahler_involution_symmetry():
    rng = np.random.default_rng(53)
    for _ in range(10):
        f = random_element(rng, 1, radius=2)
        if f.is_zero():
            continue
        a = mahler_measure(f, 1024).value
        b = mahler_measure(f.star(), 1024).value
        assert a == pytest.approx(b, abs=1e-12)


def test_mahler_grid_refinement_shrinks(f_symmetric):
    diffs = []
    prev = None
    for m in (8, 16, 32):
        v = mahler_measure(f_symmetric, m).value
        if prev is not None:
            diffs.append(abs(v - prev))
        prev = v
    assert diffs[1] <= diffs[0]


def test_mahler_vanishing_regime(f_harmonic):
    est = mahler_measure(f_harmonic, 128)
    # the zero sits at a grid-midpoint-free corner, but values get small;
    # the estimate stays finite and the note flags any excluded points
    assert math.isfinite(est.value)
    assert est.parameters["excluded_points"] >= 0


# -- duality and additivity -----------------------------------------------------


def test_duality_fixtures(f_geometric, f_symmetric):
    for A in (
        GroupRingMatrix([[f_geometric]]),
        GroupRingMatrix([[f_symmetric]]),
    ):
        rep = duality_check(A, 4096)
        assert rep.difference <= 1e-12

    C = GroupRingMatrix.from_obj([["2", "u1"], ["u1^-1", "2"]])
    rep = duality_check(C, 4096)
    assert rep.difference <= 1e-12
    assert rep.entropy == pytest.approx(math.log(3), abs=1e-9)


def test_additivity_fixtures(f_geometric, f_symmetric):
    rep = additivity_check(f_geometric, f_geometric, 65536)
    assert rep.entropy_product == pytest.approx(2 * math.log(2), abs=1e-9)
    assert rep.defect <= 1e-10

    rep2 = additivity_check(f_geometric, E.one(1), 65536)
    assert rep2.entropy_product == pytest.approx(math.log(2), abs=1e-9)

    rep3 = additivity_check(f_geometric, f_symmetric, 65536)
    assert rep3.entropy_f + rep3.entropy_g == pytest.approx(1.655571, abs=1e-5)
    assert rep3.defect <= 1e-10


def test_additivity_requires_invertible(f_geometric, f_harmonic):
    f2 = parse_element("u1 - 1")
    with pytest.raises(NotInvertibleError):
        additivity_check(f_geometric, f2)


# -- Peters counting -------------------------------------------------------------


def test_companion_golden_mean():
    cm = CompanionModule(parse_element("u1^2 - u1 - 1"))
    assert cm.degree == 2
    assert abs(round(np.linalg.det(cm.M))) == 1
    assert (cm.M @ cm.Minv == np.eye(2, dtype=np.int64)).all()


def test_companion_rejects_non_unit_constant(f_geometric):
    with pytest.raises(ValueError, match="constant term not a unit"):
        CompanionModule(f_geometric)


def test_companion_rejects_non_monic():
    with pytest.raises(ValueError, match="monic"):
        CompanionModule(parse_element("2*u1^2 - u1 - 1"))


def test_peters_shift_counts():
    cm = CompanionModule(parse_element("u1 - 1"))
    est = peters_entropy(cm, n_max=24)
    counts = [row["count"] for row in est.series]
    assert counts == [n + 1 for n in range(1, 25)]
    assert est.value < 0.05


def test_peters_rational_doubling():
    est = peters_entropy(np.array([[2]]), E_seed=[[0], [1]], n_max=12, rational=True)
    counts = [row["count"] for row in est.series]
    assert counts == [2**n for n in range(1, 13)]
    assert est.value == pytest.approx(math.log(2), abs=1e-12)


def test_peters_golden_mean_converges():
    cm = CompanionModule(parse_element("u1^2 - u1 - 1"))
    est = peters_entropy(cm, n_max=18)
    assert est.value == pytest.approx(LOG_GOLDEN, abs=0.01)
    assert est.value == pytest.approx(jensen_mahler(cm.f), abs=0.01)


def test_peters_series_monotone_and_subadditive():
    cm = CompanionModule(parse_element("u1^2 - u1 - 1"))
    est = peters_entropy(cm, n_max=14)
    counts = [row["count"] for row in est.series]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    # |S_{a+b}| <= |S_a| |S_b|
    for a in range(1, 7):
        for b in range(1, 7):
            assert counts[a + b - 1] <= counts[a - 1] * counts[b - 1]


def test_peters_seed_validation():
    cm = CompanionModule(parse_element("u1 - 1"))
    with pytest.raises(ValueError):
        peters_entropy(cm, E_seed=[[1]])
    with pytest.raises(ValueError):
        peters_entropy(cm, E_seed=[[0]])


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(
    np.int64,
    st.tuples(st.integers(0, 60), st.integers(1, 4)),
    elements=st.integers(-2, 2) | st.sampled_from([np.iinfo(np.int64).min, np.iinfo(np.int64).max]),
))
def test_dedupe_matches_np_unique(rows):
    got = _dedupe_int(rows)
    want = np.unique(rows, axis=0)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_peters_memory_cap(monkeypatch):
    monkeypatch.setenv("ALGDYN_MEM_CAP_MB", "1")
    cm = CompanionModule(parse_element("u1^2 - u1 - 1"))
    est = peters_entropy(cm, n_max=40)
    assert "partial" in est.notes
    assert est.parameters["n_reached"] < 40


# -- packing lower bound ----------------------------------------------------------


def test_packing_fixture(f_symmetric):
    A = GroupRingMatrix([[f_symmetric]])
    est = packing_lower_bound(A, list(range(20)), eps=0.05, M_levels=2)
    assert est.value > 0
    assert est.value <= mahler_measure(f_symmetric).value + 1e-3


def test_packing_degenerate_eps(f_symmetric):
    A = GroupRingMatrix([[f_symmetric]])
    est = packing_lower_bound(A, list(range(10)), eps=0.6, M_levels=2)
    assert est.value == 0.0


def test_packing_single_level(f_symmetric):
    A = GroupRingMatrix([[f_symmetric]])
    est = packing_lower_bound(A, list(range(10)), eps=0.05, M_levels=1)
    assert est.value == 0.0
    assert est.parameters["separated_count"] == 1


def test_packing_default_eps_is_half_expansive_constant(f_symmetric):
    A = GroupRingMatrix([[f_symmetric]])
    est = packing_lower_bound(A, list(range(12)))
    assert est.parameters["eps"] == pytest.approx(0.1)
    assert est.value > 0
