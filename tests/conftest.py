import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from algdyn.groupring import GroupRingElement, GroupRingMatrix, parse_element


@pytest.fixture
def f_symmetric():
    return parse_element("3 - u1 - u1^-1")


@pytest.fixture
def f_geometric():
    return parse_element("u1 - 2")


@pytest.fixture
def f_harmonic():
    return parse_element("4 - u1 - u1^-1 - u2 - u2^-1")


def random_element(rng: np.random.Generator, d: int = 1, radius: int = 2, max_coef: int = 4) -> GroupRingElement:
    terms = {}
    n = rng.integers(1, 5)
    for _ in range(n):
        e = tuple(int(v) for v in rng.integers(-radius, radius + 1, size=d))
        c = int(rng.integers(-max_coef, max_coef + 1))
        if c:
            terms[e] = terms.get(e, 0) + c
    return GroupRingElement(d, {e: c for e, c in terms.items() if c})


def jensen_mahler(f: GroupRingElement) -> float:
    """Independent univariate log-Mahler oracle: log of the leading
    coefficient plus the log-moduli of the roots outside the unit circle."""
    assert f.d == 1
    lo = min(e[0] for e in f.terms)
    hi = max(e[0] for e in f.terms)
    coeffs = [f.coefficient(n) for n in range(hi, lo - 1, -1)]  # np.roots order
    roots = np.roots(coeffs)
    return math.log(abs(coeffs[0])) + float(
        sum(math.log(abs(r)) for r in roots if abs(r) > 1)
    )


def solve_rational(M: list[list], R: list[list]) -> list[list[Fraction]]:
    """Independent oracle: X with M X = R over Q, for square nonsingular M,
    by Gauss-Jordan elimination on [M | R] in Fractions."""
    d = len(M)
    aug = [[Fraction(v) for v in M[i]] + [Fraction(v) for v in R[i]] for i in range(d)]
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def det_by_minors(A: GroupRingMatrix) -> GroupRingElement:
    """Independent oracle: the determinant of a square group-ring matrix by
    Laplace expansion along its rows, memoized on column subsets."""
    k = A.rows
    memo = {(): GroupRingElement.one(A.d)}

    def minor(cols: tuple[int, ...]) -> GroupRingElement:
        if cols not in memo:
            i = k - len(cols)  # expand along row i
            acc = GroupRingElement.zero(A.d)
            for pos, j in enumerate(cols):
                e = A.entries[i][j]
                if not e.is_zero():
                    term = e * minor(cols[:pos] + cols[pos + 1:])
                    acc = acc + (term if pos % 2 == 0 else -term)
            memo[cols] = acc
        return memo[cols]

    return minor(tuple(range(k)))


@st.composite
def group_ring_matrices(draw, rows: int, cols: int) -> GroupRingMatrix:
    """A rows x cols matrix over Z[Z^d], d in 1..2, with small sparse
    entries.  A third of the time one row or one column is planted as a
    combination of the others, so singular and rank-deficient matrices
    are common."""
    d = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(-2, 2)] * d)
    coefs = st.integers(-3, 3).filter(bool)
    elements = st.dictionaries(exps, coefs, max_size=3).map(lambda t: GroupRingElement(d, t))
    A = [[draw(elements) for _ in range(cols)] for _ in range(rows)]
    if draw(st.sampled_from([True, False, False])):
        by_rows = draw(st.booleans())
        T = A if by_rows else [list(c) for c in zip(*A)]
        if len(T) > 1:
            j = draw(st.integers(0, len(T) - 1))
            comb = [GroupRingElement.zero(d)] * len(T[0])
            for i, line in enumerate(T):
                if i != j:
                    f = draw(elements)
                    comb = [c + f * a for c, a in zip(comb, line)]
            T[j] = comb
        A = T if by_rows else [list(r) for r in zip(*T)]
    return GroupRingMatrix(A)
