from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algdyn.expansive import (
    EXPANSIVE,
    FINITE,
    INFINITE,
    NOT_EXPANSIVE,
    ExactDivisionError,
    PresentedAction,
    entropy_finiteness_equals_one_expansiveness_note,
    exact_divide,
    has_finite_entropy,
    is_expansive_principal,
    is_expansive_square,
)
from algdyn.groupring import GroupRingElement, GroupRingMatrix, parse_element
from conftest import det_by_minors, group_ring_matrices, random_element

E = GroupRingElement


def test_principal_symmetric(f_symmetric):
    rep = is_expansive_principal(f_symmetric)
    assert rep.verdict == EXPANSIVE
    assert rep.expansive_constant == Fraction(1, 5)


def test_principal_harmonic_not_expansive(f_harmonic):
    rep = is_expansive_principal(f_harmonic)
    assert rep.verdict == NOT_EXPANSIVE
    assert rep.expansive_constant is None


def test_principal_geometric(f_geometric):
    rep = is_expansive_principal(f_geometric)
    assert rep.verdict == EXPANSIVE
    assert rep.expansive_constant == Fraction(1, 3)


def test_square_fixtures():
    assert is_expansive_square(GroupRingMatrix.identity(2, 1)).verdict == EXPANSIVE

    A = GroupRingMatrix.from_obj([["3 - u1", "1"], ["0", "3 - u1^-1"]])
    rep = is_expansive_square(A)
    assert rep.verdict == EXPANSIVE
    assert rep.expansive_constant == Fraction(1, A.l1_norm())

    B = GroupRingMatrix.from_obj([["u1 - 1"]])
    assert is_expansive_square(B).verdict == NOT_EXPANSIVE


def test_exact_divide():
    f = parse_element("u1^2 - 1")
    g = parse_element("u1 - 1")
    assert exact_divide(f, g) == parse_element("u1 + 1")
    with pytest.raises(ExactDivisionError):
        exact_divide(parse_element("u1^2 + 1"), parse_element("2*u1"))


def test_exact_divide_multivariate():
    for a, b in [("u1 + u2", "u1 - u2"), ("u1^-2 - 3*u2 + u1*u2^-1", "2 + u1^-1*u2^3")]:
        a, b = parse_element(a, d=2), parse_element(b, d=2)
        prod = a * b
        assert exact_divide(prod, a) == b
        assert exact_divide(prod, b) == a
    with pytest.raises(ZeroDivisionError):
        exact_divide(a, E.zero(2))


def test_exact_divide_refuses_inexact_laurent_quotients():
    # lex order on Z^d is not well-founded: without the Newton-box check
    # these long divisions never run out of terms
    for p, q in [("1", "1 - u1^-1"), ("1 + u1*u2^-1", "1 - u2^5 + u1^-3")]:
        with pytest.raises(ExactDivisionError):
            exact_divide(parse_element(p, d=2), parse_element(q, d=2))


def _rank_by_minors(M: GroupRingMatrix) -> int:
    """The largest r with a nonzero r x r minor of M."""
    for r in range(min(M.rows, M.cols), 0, -1):
        for rs in combinations(range(M.rows), r):
            for cs in combinations(range(M.cols), r):
                if not det_by_minors(GroupRingMatrix([[M[i, j] for j in cs] for i in rs])).is_zero():
                    return r
    return 0


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(lambda nk: group_ring_matrices(*nk)))
@example(GroupRingMatrix([[E.zero(1), E.zero(1)]]))
def test_finite_entropy_rank_and_witness_against_minor_oracle(A):
    rep = has_finite_entropy(A)
    Astar = A.star()
    assert rep.rank == _rank_by_minors(Astar)
    assert rep.verdict == (FINITE if rep.rank == A.cols else INFINITE)
    if rep.verdict == INFINITE:
        w = rep.witness
        assert len(w) == A.cols and not all(e.is_zero() for e in w)
        for j in range(Astar.cols):
            acc = E.zero(A.d)
            for i in range(A.cols):
                acc = acc + w[i] * Astar[i, j]
            assert acc.is_zero()


def test_finite_entropy_principal(f_geometric):
    act = PresentedAction(1, 1, GroupRingMatrix([[f_geometric]]))
    rep = has_finite_entropy(act)
    assert rep.verdict == FINITE
    assert rep.rank == 1


def test_infinite_entropy_duplicated_column(f_geometric):
    # k=2, n=1, A = [u-2, u-2]: the kernel row (1, -1) annihilates A*
    A = GroupRingMatrix([[f_geometric, f_geometric]])
    rep = has_finite_entropy(PresentedAction(2, 1, A))
    assert rep.verdict == INFINITE
    assert rep.witness is not None
    Astar = A.star()
    for j in range(Astar.cols):
        acc = E.zero(1)
        for i in range(2):
            acc = acc + rep.witness[i] * Astar.entries[i][j]
        assert acc.is_zero()


def test_finite_entropy_cap_note_gives_the_term_count_and_the_cap(monkeypatch):
    from algdyn import expansive

    monkeypatch.setattr(expansive, "RANK_TERM_CAP", 3)
    A = GroupRingMatrix.from_obj([["2 - u1 + u1^2", "1 + u1"], ["3 + u1^-1", "2 - u1"]])
    rep = has_finite_entropy(A)
    assert rep.verdict == "Unknown"
    assert rep.note == "an elimination entry of 4 terms exceeds the cap of 3 terms"


def test_finite_entropy_diagonal():
    A = GroupRingMatrix.from_obj([["2 - u1", "0"], ["0", "2 - u1^2"]])
    rep = has_finite_entropy(PresentedAction(2, 2, A))
    assert rep.verdict == FINITE


def test_rank_invariance_under_row_operations():
    rng = np.random.default_rng(41)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        A = GroupRingMatrix([[random_element(rng, d) for _ in range(2)] for _ in range(2)])
        base = has_finite_entropy(PresentedAction(2, 2, A)).verdict
        # swap rows
        swapped = GroupRingMatrix([A.entries[1], A.entries[0]])
        assert has_finite_entropy(PresentedAction(2, 2, swapped)).verdict == base
        # unimodular row combination: r0 += u^e * r1
        mono = E.monomial(d, tuple(int(v) for v in rng.integers(-1, 2, size=d)))
        combined = GroupRingMatrix(
            [
                [A.entries[0][j] + mono * A.entries[1][j] for j in range(2)],
                A.entries[1],
            ]
        )
        assert has_finite_entropy(PresentedAction(2, 2, combined)).verdict == base


def test_expansive_implies_finite_entropy():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 6:
        f = random_element(rng, 1, radius=2, max_coef=3)
        if f.is_zero():
            continue
        rep = is_expansive_principal(f)
        if rep.verdict != EXPANSIVE:
            continue
        checked += 1
        fin = has_finite_entropy(PresentedAction(1, 1, GroupRingMatrix([[f]])))
        assert fin.verdict == FINITE


def test_equivalence_note_finite(f_geometric):
    act = PresentedAction(1, 1, GroupRingMatrix([[f_geometric]]))
    rep, text = entropy_finiteness_equals_one_expansiveness_note(act)
    assert rep.verdict == FINITE
    assert "1-expansive" in text and "finite" in text


def test_equivalence_note_infinite(f_geometric):
    A = GroupRingMatrix([[f_geometric, f_geometric]])
    rep, text = entropy_finiteness_equals_one_expansiveness_note(PresentedAction(2, 1, A))
    assert rep.verdict == INFINITE
    assert "not 1-expansive" in text and "infinite" in text


def test_presented_action_shape_validation(f_geometric):
    with pytest.raises(ValueError):
        PresentedAction(2, 2, GroupRingMatrix([[f_geometric]]))


def test_report_serialization(f_symmetric):
    rep = is_expansive_principal(f_symmetric)
    obj = rep.to_obj()
    assert obj["verdict"] == EXPANSIVE
    assert obj["expansive_constant"] == "1/5"
    assert obj["certificate"]["verdict"] == "Invertible"
