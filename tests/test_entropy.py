import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from algdyn.entropy import (
    PACKING_FAMILY_CAP,
    CompanionModule,
    _dedupe_int,
    _dedupe_runs,
    duality_check,
    mahler_measure,
    packing_lower_bound,
    peters_entropy,
)
from algdyn._sparse import int_inverse
from algdyn.groupring import GroupRingElement, GroupRingMatrix, parse_element
from algdyn.homoclinic import group_element
from algdyn.torus import MemoryCapError, VerificationError, certify_invertible
from conftest import jensen_mahler, random_element, solve_rational

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


# -- duality ---------------------------------------------------------------------


def _count_mahler_calls(monkeypatch) -> list:
    from algdyn import entropy

    calls = []
    measure = entropy.mahler_measure
    monkeypatch.setattr(entropy, "mahler_measure", lambda *a: calls.append(a) or measure(*a))
    return calls


def test_duality_fixtures(f_geometric, f_symmetric, monkeypatch):
    calls = _count_mahler_calls(monkeypatch)
    C = GroupRingMatrix.from_obj([["2", "u1"], ["u1^-1", "2"]])
    for A in (GroupRingMatrix([[f_geometric]]), GroupRingMatrix([[f_symmetric]]), C):
        del calls[:]
        rep = duality_check(A, 4096)
        assert len(calls) == 1
        assert rep.entropy_star == rep.entropy
        assert rep.difference == 0.0
    assert rep.entropy == pytest.approx(math.log(3), abs=1e-9)


def test_duality_refuses_a_wrong_star_det(monkeypatch):
    A = GroupRingMatrix.from_obj([["2", "u1"], ["u1^-1", "2"]])
    star = GroupRingMatrix.star
    monkeypatch.setattr(GroupRingMatrix, "star", lambda M: GroupRingMatrix(
        [[e + E.one(e.d) for e in row] for row in star(M).entries]
    ))
    calls = _count_mahler_calls(monkeypatch)
    with pytest.raises(VerificationError, match="det\\(A\\*\\)"):
        duality_check(A, 4096)
    assert not calls


# -- multiplicativity of the Mahler measure ---------------------------------------


def _measures(f, g, m):
    """m(fg), m(f) and m(g) on one grid."""
    return [mahler_measure(h, m).value for h in (f * g, f, g)]


def test_additivity_fixtures(f_geometric, f_symmetric):
    hfg, hf, hg = _measures(f_geometric, f_geometric, 65536)
    assert hfg == pytest.approx(2 * math.log(2), abs=1e-9)
    assert abs(hfg - hf - hg) <= 1e-10

    hfg, _, _ = _measures(f_geometric, E.one(1), 65536)
    assert hfg == pytest.approx(math.log(2), abs=1e-9)

    hfg, hf, hg = _measures(f_geometric, f_symmetric, 65536)
    assert hf + hg == pytest.approx(1.655571, abs=1e-5)
    assert abs(hfg - hf - hg) <= 1e-10


# -- Peters counting -------------------------------------------------------------


def test_companion_golden_mean():
    cm = CompanionModule(parse_element("u1^2 - u1 - 1"))
    assert cm.degree == 2
    assert abs(round(np.linalg.det(cm.M))) == 1
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*cm.Minv)] for row in cm.M] == [[1, 0], [0, 1]]


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


@pytest.mark.parametrize("seed", [[[0], [1]], [[0, 0], [1]]])
def test_peters_seed_rows_of_the_wrong_length_are_named(seed):
    cm = CompanionModule(parse_element("u1^2 - u1 - 1"))
    with pytest.raises(ValueError, match="has length 1, expected 2"):
        peters_entropy(cm, E_seed=seed)


@pytest.mark.parametrize("kwargs", [{"n_max": 1}, {"n_max": 0}, {"n_max": -2}, {"diff_window": 0}])
def test_peters_refuses_an_empty_difference_window(kwargs):
    # no log difference to average: raise instead of reporting value 0.0
    cm = CompanionModule(parse_element("u1^2 - u1 - 1"))
    with pytest.raises(ValueError, match="n_max >= 2"):
        peters_entropy(cm, **kwargs)


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
    # the same rows as Python ints past 2^63, as the counting loop holds them
    big = rows.astype(object) * (2**64 + 1)
    got = _dedupe_int(big)
    assert got.dtype == object
    assert list(map(tuple, got.tolist())) == sorted(set(map(tuple, big.tolist())))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.int64, st.integers(0, 60), elements=st.integers(-3, 3)), st.integers(1, 4))
def test_dedupe_runs_matches_np_unique(keys, runs):
    # sorted runs, as a counting step builds them, and the same as one unsorted array
    parts = [np.sort(part) for part in np.array_split(keys, runs)]
    assert np.array_equal(_dedupe_runs(np.concatenate(parts)), np.unique(keys))
    assert np.array_equal(_dedupe_runs(keys.copy()), np.unique(keys))


def test_peters_memory_cap(monkeypatch):
    monkeypatch.setenv("ALGDYN_MEM_CAP_MB", "1")
    cm = CompanionModule(parse_element("u1^2 - u1 - 1"))
    est = peters_entropy(cm, n_max=40)
    assert "partial" in est.notes
    assert est.parameters["n_reached"] < 40


def test_companion_matrices_are_charged_in_bytes(monkeypatch):
    # M and M^-1 of degree 300 need 1.44 MB, over a 1 MB cap though under 2 MB
    monkeypatch.setenv("ALGDYN_MEM_CAP_MB", "1")
    with pytest.raises(MemoryCapError, match="^companion matrices of degree 300 needs about 1 MB"):
        CompanionModule(parse_element("u1^300 - u1 - 1"))
    assert CompanionModule(parse_element("u1^250 - u1 - 1")).degree == 250  # 1.0 MB fits


def test_peters_memory_cap_before_two_terms_raises(monkeypatch):
    cm = CompanionModule(parse_element("u1^2 - u1 - 1"))
    monkeypatch.setenv("ALGDYN_MEM_CAP_MB", "0")
    with pytest.raises(MemoryCapError, match="two terms"):
        peters_entropy(cm, n_max=10)
    with pytest.raises(MemoryCapError, match="two terms"):
        peters_entropy(np.array([[2]]), E_seed=[[0], [1]], n_max=10, rational=True)


def test_peters_inverts_large_unimodular_matrix_exactly():
    # [[F41, F40], [F40, F39]] has det 1, but its float determinant is 0.0
    M = np.array([[165580141, 102334155], [102334155, 63245986]])
    est = peters_entropy(M, n_max=3)
    assert [row["count"] for row in est.series] == [2, 4, 8]


@pytest.mark.parametrize("rational", [False, True])
def test_peters_counts_past_int64_exactly(rational):
    # ||M^-1||_inf = 2^32 + 1: the entries of S_3 can pass 2^63 - 1
    M = [[2**31 + 1, 2**31], [2**31, 2**31 - 1]]
    est = peters_entropy(M, n_max=10, rational=rational)
    assert [row["count"] for row in est.series] == [2**n for n in range(1, 11)]


def _peters_counts_oracle(M, E, n_max):
    """|S_n| for n = 1..n_max by brute force: S_0 = {0} and
    S_n = {M^-1 v + b : v in S_(n-1), b in E}, in Fractions."""
    k = len(M)
    Minv = solve_rational(M, [[int(i == j) for j in range(k)] for i in range(k)])
    S, counts = {(Fraction(0),) * k}, []
    for _ in range(n_max):
        S = {
            tuple(sum(p * x for p, x in zip(row, v)) + bi for row, bi in zip(Minv, b))
            for v in S
            for b in E
        }
        counts.append(len(S))
    return counts


@st.composite
def _peters_inputs(draw):
    """(M, rational, E, n_max): M integer k x k, k <= 3, either unimodular
    (L U times signs) or any nonsingular M counted with rational=True."""
    k = draw(st.integers(1, 3))
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        L = [[1 if i == j else draw(entry) if j < i else 0 for j in range(k)] for i in range(k)]
        U = [[draw(st.sampled_from([-1, 1])) if i == j else draw(entry) if j > i else 0
              for j in range(k)] for i in range(k)]
        M = [[sum(L[i][t] * U[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
        rational = False
    else:
        M = [[draw(entry) for _ in range(k)] for _ in range(k)]
        try:
            int_inverse(M)
        except ValueError:  # singular
            assume(False)
        rational = True
    vec = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    E = [[0] * k] + draw(st.lists(vec.filter(any), min_size=1, max_size=2))
    return M, rational, E, draw(st.integers(2, 6))


@settings(max_examples=150, deadline=None)
@given(_peters_inputs())
# ||M^-1||_inf = 2^32 + 1: the rows leave int64 at n = 3
@example(([[2**31 + 1, 2**31], [2**31, 2**31 - 1]], False, [[0, 0], [1, 0], [0, 1]], 5))
# keys for n <= 2, int64 rows at n = 3 and Python-int rows from n = 4 on
@example(([[2**22 + 1, 2**22], [2**22, 2**22 - 1]], False, [[0, 0], [1, 0], [0, 1]], 5))
# D = 2^20: the rows leave int64 at n = 5, by D^(n-1) b
@example(([[2**20, 1], [0, 1]], True, [[0, 0], [1, 0], [1, 1]], 6))
# one limb for n <= 3, two limbs from n = 4 (a re-encode mid-series), rows from n = 5
@example(([[2**16 + 1, 2**16], [2**16, 2**16 - 1]], False, [[0, 0], [1, 0], [0, 1]], 6))
# D = 2^10: at n = 4 the box fits in int64 but D times it does not, so two
# limbs, a step before the box itself passes int64
@example(([[2**10, 1], [0, 1]], True, [[0, 0], [1, 0], [1, 1]], 6))
# two limbs at n = 3, then a coordinate whose own span passes int64 while its
# entries fit: int64 coordinate rows at n = 4, Python ints from n = 5
@example(([[2**20 + 1, 2**20], [2**20, 2**20 - 1]], False, [[0, 0], [1, 0], [0, 1]], 6))
# D = 2^12 and k = 3: one, two, then three limbs, and rows at n = 6
@example(([[2**12, 1, 0], [0, 1, 1], [1, 0, 1]], True, [[0, 0, 0], [1, 0, 0], [0, 1, 1]], 6))
# k = 1 and D = 2^40: one-column rows from n = 2, Python ints from n = 3,
# each step still a merge of sorted runs
@example(([[2**40]], True, [[0], [1], [3]], 5))
def test_peters_counts_equal_a_brute_force_set_oracle(inputs):
    M, rational, E, n_max = inputs
    est = peters_entropy(M, E_seed=E, n_max=n_max, rational=rational)
    assert [row["count"] for row in est.series] == _peters_counts_oracle(M, E, n_max)


@settings(max_examples=200, deadline=None)
@given(
    c0=st.sampled_from([-1, 1]),
    middle=st.lists(st.integers(-10**20, 10**20), max_size=7),
    shift=st.integers(-5, 5),
)
def test_companion_inverse_closed_form_equals_elimination(c0, middle, shift):
    f = E(1, {(i + shift,): c for i, c in enumerate([c0, *middle, 1])})
    cm = CompanionModule(f)
    P, D = int_inverse(cm.M)
    assert D == 1
    assert cm.Minv == P


def test_peters_degree_200_is_fast():
    t0 = time.perf_counter()
    est = peters_entropy(CompanionModule(parse_element("u1^200 - u1 - 1")), n_max=2)
    assert time.perf_counter() - t0 < 1.0
    assert [row["count"] for row in est.series] == [2, 4]


def test_peters_companion_with_coefficients_beyond_int64():
    cm = CompanionModule(parse_element("u1^2 - 10000000000000000000000*u1 - 1"))
    assert cm.Minv == [[-10**22, 1], [1, 0]]
    est = peters_entropy(cm, n_max=4)
    assert [row["count"] for row in est.series] == [2, 4, 8, 16]


def _companion_counts(P, n_max):
    """|S_n| for n = 1..n_max by the set recursion S_n = {P x + b : x in
    S_(n-1), b in {0, e_0}}, from S_0 = {0}, in Python ints."""
    k = len(P)
    S, counts = {(0,) * k}, []
    for _ in range(n_max):
        S = {
            tuple(sum(p * x for p, x in zip(row, v)) + (i == 0) * b for i, row in enumerate(P))
            for v in S
            for b in (0, 1)
        }
        counts.append(len(S))
    return counts


def test_peters_stays_on_int64_while_the_held_entries_allow(monkeypatch):
    # ||M^-1||_inf = 2 > rho(M^-1) = 1: the a-priori bound 2^n passes 2^63 - 1
    # at n = 63, but the entries of S_n grow only linearly, so the box of S_70
    # holds far fewer than 2^63 points and every step stays on one limb.
    # Every step on more limbs or on rows goes through _dedupe_int.
    from algdyn import entropy

    def rows_tier(rows):
        raise AssertionError(f"a step left the keys for {rows.dtype} rows")

    monkeypatch.setattr(entropy, "_dedupe_int", rows_tier)
    cm = CompanionModule(parse_element("u1^2 - u1 + 1"))
    est = peters_entropy(cm, n_max=70)
    assert [row["count"] for row in est.series] == _companion_counts(cm.Minv, 70)


# The polynomials of the benchmark's counting workload (coefficients low to
# high), each with its image f(-x) made monic again, and the workload's nmax.
_COUNTING_FIXTURES = [
    [-1, -1, -1, 1], [1, -1, 1, 1],
    [1, 0, -1, 1, 1], [1, 0, -1, -1, 1],
    [1, -1, 0, 1], [-1, -1, 0, 1],
    [-1, 1, -2, 1], [1, 1, 2, 1],
    [1, -1, 0, 0, 1], [1, 1, 0, 0, 1],
    [-1, -1, 1], [-1, 1, 1],
    [-1, -2, -1, 0, 1], [-1, 2, -1, 0, 1],
    [1, -2, -2, 1], [-1, -2, 2, 1],
]
_COUNTING_NMAX = [13, 13, 14, 14, 22, 22, 16, 16, 19, 19, 22, 22, 18, 18, 16, 16]


def _companion(coeffs):
    return CompanionModule(E(1, {(i,): c for i, c in enumerate(coeffs) if c}))


@pytest.mark.parametrize("coeffs", _COUNTING_FIXTURES)
def test_peters_counts_the_counting_fixtures_like_the_set_recursion(coeffs):
    cm = _companion(coeffs)
    est = peters_entropy(cm, n_max=12)
    assert [row["count"] for row in est.series] == _companion_counts(cm.Minv, 12)


@pytest.mark.parametrize("coeffs, nmax", zip(_COUNTING_FIXTURES, _COUNTING_NMAX))
def test_peters_counts_the_counting_fixtures_on_one_limb(coeffs, nmax, monkeypatch):
    # at the workload's nmax every step is one merge of sorted int64 runs
    from algdyn import entropy

    def more_limbs(rows):
        raise AssertionError(f"a step left one limb for {rows.shape[1]} columns")

    monkeypatch.setattr(entropy, "_dedupe_int", more_limbs)
    est = peters_entropy(_companion(coeffs), n_max=nmax)
    assert est.parameters["n_reached"] == nmax and est.notes == ""


def test_peters_u1_60_counts_on_two_limbs_not_60_coordinates(monkeypatch):
    # the box of S_20 needs two limbs: _dedupe_int sorts 2 columns, not 60
    from algdyn import entropy

    widths = []

    def spy(rows):
        widths.append(rows.shape)
        return _dedupe_int(rows)

    monkeypatch.setattr(entropy, "_dedupe_int", spy)
    est = peters_entropy(CompanionModule(parse_element("u1^60 - u1 - 1")), n_max=20)
    assert [row["count"] for row in est.series] == [2**n for n in range(1, 21)]
    assert widths == [(2**20, 2)]


@pytest.mark.parametrize("inputs", [
    (CompanionModule(parse_element("u1^2 - u1 - 1")), {}),
    ([[2**16 + 1, 2**16], [2**16, 2**16 - 1]], {"E_seed": [[0, 0], [1, 0], [0, 1]]}),
    ([[2**20 + 1, 2**20], [2**20, 2**20 - 1]], {"E_seed": [[0, 0], [1, 0], [0, 1]]}),
    (CompanionModule(parse_element(f"u1^2 - {2**40}*u1 - 1")), {}),
    # coordinates of thousands of digits, charged at their size
    (CompanionModule(parse_element(f"u1^2 - {10**200}*u1 - 1")), {}),
])
def test_peters_charges_a_step_before_it_allocates(inputs, monkeypatch):
    # one limb, two limbs and coordinate rows (int64 and Python ints): under a
    # 1 MB cap no candidate array over the cap reaches a dedupe, and the
    # traced peak of the whole series stays under the cap
    import tracemalloc

    from algdyn import entropy

    cap = 1 << 20
    monkeypatch.setenv("ALGDYN_MEM_CAP_MB", "1")
    seen = []

    def spy(dedupe):
        def checked(a):
            seen.append(a.nbytes)
            assert a.nbytes <= cap
            return dedupe(a)
        return checked

    monkeypatch.setattr(entropy, "_dedupe_runs", spy(_dedupe_runs))
    monkeypatch.setattr(entropy, "_dedupe_int", spy(_dedupe_int))
    cm, kwargs = inputs
    tracemalloc.start()
    try:
        est = peters_entropy(cm, n_max=60, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.notes == "memory cap reached; partial series"
    assert len(seen) == est.parameters["n_reached"] and peak <= cap


@pytest.mark.parametrize("poly", ["u1^2 - u1 - 1", "u1^3 - 2*u1^2 + u1 - 1", "u1^2 + 1"])
def test_peters_counts_minus_f_like_f(poly):
    # X_-f = X_f: a leading coefficient -1 is as good as 1
    f = parse_element(poly)
    cm = CompanionModule(-f)
    assert cm.f == -f
    assert cm.Minv == CompanionModule(f).Minv
    assert peters_entropy(cm, n_max=10).series == peters_entropy(CompanionModule(f), n_max=10).series


def test_companion_module_still_refuses_other_leading_coefficients():
    with pytest.raises(ValueError, match="monic"):
        CompanionModule(parse_element("2*u1^2 - u1 - 1"))
    with pytest.raises(ValueError, match="monic"):
        CompanionModule(parse_element("-2*u1^2 - u1 - 1"))


def test_peters_stops_before_a_set_of_big_ints_outgrows_the_cap(monkeypatch):
    # the entries pass int64 at n = 3; the 8 exact tuples of S_3 would need
    # more than the 1000-byte cap, so the series stops at n = 2
    monkeypatch.setattr("algdyn._sparse.mem_cap_bytes", lambda: 1000)
    est = peters_entropy(CompanionModule(parse_element(f"u1^2 - {2**40}*u1 - 1")), n_max=5)
    assert [row["count"] for row in est.series] == [2, 4]
    assert est.notes == "memory cap reached; partial series"


def test_peters_rejects_non_unimodular_and_singular_matrices():
    with pytest.raises(ValueError, match="not a unit"):
        peters_entropy(np.array([[2, 1], [0, 1]]), n_max=3)
    with pytest.raises(ValueError, match="singular"):
        peters_entropy(np.array([[1, 2], [2, 4]]), n_max=3, rational=True)


# -- packing lower bound ----------------------------------------------------------


def test_packing_fixture(f_symmetric):
    A = GroupRingMatrix([[f_symmetric]])
    est = packing_lower_bound(group_element(A, [1]), list(range(20)), eps=0.05, M_levels=2)
    assert est.value > 0
    assert est.value <= mahler_measure(f_symmetric).value + 1e-3
    # one window's count is no proved bound, and the report says so
    assert est.notes == "estimate log(separated count)/|F| on one window; not a proved lower bound"
    assert "uniform_density_bound" not in est.parameters


def test_packing_degenerate_eps(f_symmetric):
    A = GroupRingMatrix([[f_symmetric]])
    est = packing_lower_bound(group_element(A, [1]), list(range(10)), eps=0.6, M_levels=2)
    assert est.value == 0.0


def test_packing_single_level(f_symmetric):
    A = GroupRingMatrix([[f_symmetric]])
    est = packing_lower_bound(group_element(A, [1]), list(range(10)), eps=0.05, M_levels=1)
    assert est.value == 0.0
    assert est.parameters["separated_count"] == 1


def test_packing_three_levels_keeps_every_member_apart(f_symmetric):
    # the base-M digits index each member once: at a small eps none coincide
    A = GroupRingMatrix([[f_symmetric]])
    p = packing_lower_bound(group_element(A, [1]), list(range(12)), eps=0.1, M_levels=3).parameters
    assert p["family_size"] == 3 ** len(p["F1"]) > 3
    assert p["separated_count"] == p["family_size"]


def test_packing_family_is_cut_to_the_cap(f_symmetric):
    A = GroupRingMatrix([[f_symmetric]])
    p = packing_lower_bound(group_element(A, [1]), list(range(20)), eps=0.9).parameters
    assert p["family_size"] == PACKING_FAMILY_CAP == 4096
    assert len(p["F1"]) == 12


def test_packing_refuses_more_levels_than_the_cap_before_building_a_family(f_symmetric, monkeypatch):
    # 20000 levels used to build 20000 members on one site, past the cap
    from algdyn import entropy

    x = group_element(GroupRingMatrix([[f_symmetric]]), [1])
    built = []
    family_values = entropy.family_values
    monkeypatch.setattr(entropy, "family_values", lambda *a: built.append(a) or family_values(*a))
    for M in (PACKING_FAMILY_CAP + 1, 20000):
        with pytest.raises(ValueError, match="exceeds PACKING_FAMILY_CAP = 4096"):
            packing_lower_bound(x, list(range(20)), M_levels=M)
    assert built == []
    p = packing_lower_bound(x, [0, 1], M_levels=PACKING_FAMILY_CAP).parameters
    assert p["family_size"] == PACKING_FAMILY_CAP and len(p["F1"]) == 1 and len(built) == 1


def test_packing_default_eps_is_half_expansive_constant(f_symmetric):
    A = GroupRingMatrix([[f_symmetric]])
    est = packing_lower_bound(group_element(A, [1]), list(range(12)))
    assert est.parameters["eps"] == pytest.approx(0.1)
    assert est.value > 0


@pytest.mark.parametrize("M", [[[2.5]], [[True]], [["2"]]])
def test_peters_refuses_a_non_integer_shift_matrix(M):
    # [[2.5]] used to be counted as [[2]]
    with pytest.raises(ValueError, match="a matrix entry must be an integer"):
        peters_entropy(np.array(M), E_seed=[[0], [1]], rational=True)
