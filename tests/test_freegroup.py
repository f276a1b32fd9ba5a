import time
from fractions import Fraction

import numpy as np
import pytest

from algdyn.freegroup import (
    CAP_BITS,
    annihilator_series,
    mul_truncated,
    mul_words,
    reduce_word,
    sphere,
    sphere_size,
    verify_annihilator,
)
from algdyn.groupring import CapExceeded


def test_reduce_word():
    assert reduce_word((1, -1)) == ()
    assert reduce_word((1, 2, -2, -1)) == ()
    assert reduce_word((1, 2, -1)) == (1, 2, -1)
    with pytest.raises(ValueError):
        reduce_word((0,))


def test_mul_words_cancellation():
    assert mul_words((1, 2), (-2, -1)) == ()
    assert mul_words((1, 2), (-2, 1)) == (1, 1)
    assert mul_words((), (1,)) == (1,)


def test_sphere_counts():
    s0 = sphere(2, 0)
    assert s0 == {(): Fraction(1)}
    assert len(sphere(2, 1)) == 4
    assert len(sphere(2, 2)) == 12
    assert len(sphere(3, 2)) == 30
    for d in (2, 3):
        for n in (1, 2, 3):
            assert len(sphere(d, n)) == sphere_size(d, n)


def test_sphere_l1_norm():
    for d in (2, 3):
        for n in (1, 2, 3):
            assert sum(map(abs, sphere(d, n).values())) == 2 * d * (2 * d - 1) ** (n - 1)


def test_sphere_cap():
    with pytest.raises(CapExceeded):
        sphere(3, 9, cap=1000)


def test_chi_one_squared():
    # chi_1 * chi_1 = chi_2 + 2d chi_0, verified by enumeration
    d = 2
    prod = mul_truncated(sphere(d, 1), sphere(d, 1), 4)
    expected = {**sphere(d, 2), (): 2 * d}
    assert prod == expected


def test_chi_two_times_chi_one():
    # chi_2 * chi_1 = chi_3 + (2d-1) chi_1
    d = 2
    prod = mul_truncated(sphere(d, 2), sphere(d, 1), 5)
    expected = {**sphere(d, 3), **dict.fromkeys(sphere(d, 1), 2 * d - 1)}
    assert prod == expected


def test_mul_identity():
    f = {**dict.fromkeys(sphere(2, 2), Fraction(1, 3)), (): Fraction(1)}
    assert mul_truncated(f, {(): Fraction(1)}, 4) == f


def test_mul_truncation_drops_long_words():
    prod = mul_truncated(sphere(2, 2), sphere(2, 1), 1)
    # only the descents survive: chi_2 chi_1 restricted to length 1
    assert prod == dict.fromkeys(sphere(2, 1), 2 * 2 - 1)


def test_mul_associativity_random():
    rng = np.random.default_rng(67)
    letters = [1, 2, -1, -2]
    L = 6

    def rand_elem():
        terms = {}
        for _ in range(rng.integers(1, 5)):
            w = reduce_word(tuple(rng.choice(letters, size=rng.integers(0, 4))))
            terms[w] = terms.get(w, Fraction(0)) + Fraction(int(rng.integers(-3, 4)))
        return {w: c for w, c in terms.items() if c}

    for _ in range(25):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        # with a cap beyond all reachable lengths, truncation is exact
        lhs = mul_truncated(mul_truncated(a, b, 2 * L), c, 2 * L)
        rhs = mul_truncated(a, mul_truncated(b, c, 2 * L), 2 * L)
        assert lhs == rhs


def test_annihilator_d2():
    rep = verify_annihilator(2, 5, 8)
    assert rep.all_zero
    assert rep.nonzero_radii == []
    assert rep.checked_words == 13121


def test_annihilator_truncation_frontier():
    # order 0 series is just the identity; its product with chi_1 is chi_1,
    # nonzero exactly at radius 1
    rep0 = verify_annihilator(2, 0, 0)
    assert rep0.all_zero  # nothing of length <= 0 survives
    rep1 = verify_annihilator(2, 0, 1)
    assert not rep1.all_zero
    assert rep1.nonzero_radii == [1]


def test_annihilator_series_coefficients():
    g = annihilator_series(2, 2)
    assert g[()] == 1
    w2 = (1, 2)
    assert g[w2] == Fraction(-1, 3)
    w4 = (1, 2, 1, 2)
    assert g[w4] == Fraction(1, 9)


def test_annihilator_frontier_nonzero_beyond_guarantee():
    # at order N the product is zero inside radius 2N-1 but not at 2N+1
    rep = verify_annihilator(2, 2, 6)
    assert not rep.all_zero
    assert rep.nonzero_radii == [5]


def _word_level(d, N, L):
    """(all_zero, nonzero_radii, checked_words) of g chi_1 on the ball of
    radius L, from the word-level convolution."""
    g = annihilator_series(d, N, max_length=L + 1)
    prod = mul_truncated(g, sphere(d, 1), L)
    radii = sorted({len(w) for w in prod})
    return not prod, radii, sum(sphere_size(d, r) for r in range(L + 1))


@pytest.mark.parametrize("d, max_radius", [(2, 6), (3, 4)])
def test_radial_report_equals_word_level_product(d, max_radius):
    for N in range(5):
        for L in range(max_radius + 1):
            rep = verify_annihilator(d, N, L)
            assert (rep.all_zero, rep.nonzero_radii, rep.checked_words) == _word_level(d, N, L)
            assert rep.to_obj()["method"] == "radial"


def test_radial_frontier_is_radius_2N_plus_1():
    for d in (2, 5):
        for N in range(6):
            for L in range(2 * N + 4):
                expected = [2 * N + 1] if L >= 2 * N + 1 else []
                assert verify_annihilator(d, N, L).nonzero_radii == expected


def test_radial_large_rank_order_radius():
    t0 = time.perf_counter()
    rep = verify_annihilator(50, 200, 400)
    assert time.perf_counter() - t0 < 0.5
    assert rep.all_zero
    assert rep.checked_words == sum(sphere_size(50, r) for r in range(401))


def test_huge_order_needs_no_large_integers():
    rep = verify_annihilator(2, 10**12, 8)
    assert rep.all_zero
    assert rep.checked_words == 13121


def test_radius_beyond_the_integer_cap():
    with pytest.raises(CapExceeded):
        verify_annihilator(2, 3, 10**12)
    with pytest.raises(CapExceeded):
        verify_annihilator(2, 3, 8, cap_bits=15)
    # the largest ball under the default cap still prints in decimal
    L = CAP_BITS // 2
    assert len(str(verify_annihilator(2, 3, L).checked_words)) > 3000
