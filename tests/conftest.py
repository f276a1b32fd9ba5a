import math
from fractions import Fraction

import numpy as np
import pytest

from algdyn.groupring import GroupRingElement, parse_element


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
