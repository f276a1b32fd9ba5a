import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from algdyn import _sparse
from algdyn.groupring import GroupRingElement, GroupRingMatrix, parse_element
from algdyn.homoclinic import _point


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


def frac_center(v: Fraction) -> Fraction:
    """Independent reference for _sparse.center: v reduced mod 1 to its
    representative in [-1/2, 1/2), in Fractions."""
    return v - math.floor(v + Fraction(1, 2))


def fractions(nums: dict, den: int) -> dict:
    """The numerator dict nums over den as a dict of Fractions."""
    return {e: Fraction(n, den) for e, n in nums.items()}


def box_of(cells: list, d: int) -> _sparse.Box:
    """A box of numerators holding the dicts cells (a point's components, or
    a list of rows of an inverse's entries) over the hull of their sites,
    filled site by site."""
    flat = list(itertools.chain.from_iterable(c if isinstance(c, list) else [c] for c in cells))
    sites = set().union(*flat)
    lo = [min(c, default=0) for c in zip(*sites)] or [0] * d
    shape = [max(c) - l + 1 for c, l in zip(zip(*sites), lo)] or [0] * d
    lead = (len(cells), len(cells[0])) if isinstance(cells[0], list) else (len(cells),)
    a = np.zeros((*lead, *shape), dtype=object)
    for n, cell in enumerate(flat):
        for e, v in cell.items():
            a[(*np.unravel_index(n, lead), *(x - l for x, l in zip(e, lo)))] += v
    return _sparse.Box(tuple(lo), a)


def cells_of(box: _sparse.Box) -> list:
    """The nonzero numerators of a box as dicts site -> int, one per leading
    index (a list of rows of them for two leading axes), read site by site."""
    d = len(box.lo)
    lead = box.a.shape[:box.a.ndim - d]
    cells = []
    for idx in itertools.product(*map(range, lead)):
        cells.append({
            tuple(r + l for r, l in zip(rel, box.lo)): int(box.a[idx + rel])
            for rel in itertools.product(*map(range, box.a.shape[len(lead):])) if box.a[idx + rel] != 0
        })
    return [cells[i:i + lead[1]] for i in range(0, len(cells), lead[1])] if len(lead) == 2 else cells


def lift_of(x) -> list[dict[tuple[int, ...], Fraction]]:
    """The stored lift of a point, component j as a dict site -> its numerator / den."""
    return [{e: Fraction(n, x.den) for e, n in comp.items()} for comp in cells_of(x.nums)]


class DictLift:
    """The dict reference of a lifted point's readers: component j is a dict
    site -> numerator over den, and every reader is computed site by site in
    Python ints and Fractions, as the readers were before boxes.  With a
    periodic basis B each read folds its site e onto e - B floor(B^-1 e),
    solved in Fractions."""

    def __init__(self, nums: list[dict], den: int, d: int, basis=None):
        self.nums, self.den, self.d, self.basis = [dict(c) for c in nums], den, d, basis

    @classmethod
    def of(cls, x) -> "DictLift":
        return cls(cells_of(x.nums), x.den, x.d, x.periodic_basis)

    def fold(self, e: tuple[int, ...]) -> tuple[int, ...]:
        if self.basis is None:
            return e
        ks = [math.floor(z) for (z,) in solve_rational(self.basis, [[v] for v in e])]
        return tuple(v - sum(b * k for b, k in zip(row, ks)) for v, row in zip(e, self.basis))

    def folded(self, basis) -> "DictLift":
        """The point summed over the cosets of B Z^d, on the representatives."""
        out = DictLift([{} for _ in self.nums], self.den, self.d, basis)
        for acc, comp in zip(out.nums, self.nums):
            for e, n in comp.items():
                r = out.fold(e)
                acc[r] = acc.get(r, 0) + n
                if not acc[r]:
                    del acc[r]
        return out

    def __add__(self, other: "DictLift") -> "DictLift":
        den = math.lcm(self.den, other.den)
        nums = []
        for cx, cy in zip(self.nums, other.nums):
            acc = {e: n * (den // self.den) for e, n in cx.items()}
            for e, n in cy.items():
                acc[e] = acc.get(e, 0) + n * (den // other.den)
            nums.append({e: n for e, n in acc.items() if n})
        return DictLift(nums, den, self.d)

    def translate(self, t) -> "DictLift":
        return DictLift([{tuple(a + b for a, b in zip(e, t)): n for e, n in c.items()} for c in self.nums],
                        self.den, self.d)

    def at(self, e) -> tuple[int, ...]:
        e = self.fold(tuple(e))
        return tuple(comp.get(e, 0) for comp in self.nums)

    def lift_at(self, e) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.at(e))

    def value(self, e) -> tuple[float, ...]:
        return tuple(float(frac_center(v)) for v in self.lift_at(e))

    def lift_array(self, sites) -> list[list[float]]:
        return [[float(v) for v in self.lift_at(e)] for e in sites]

    def support(self) -> list[tuple[int, ...]]:
        return sorted(set().union(*self.nums))

    def distance_by_radius(self, sites) -> dict[int, Fraction]:
        """The distance to zero summed over the given sites of each sphere."""
        out: dict[int, Fraction] = {}
        for e in sites:
            r = max(map(abs, e))
            out[r] = out.get(r, 0) + max(abs(frac_center(v)) for v in self.lift_at(e))
        return out

    def lift_obj(self) -> list[list[dict]]:
        return [[{"exp": list(e), "value": float(frac_center(Fraction(comp[e], self.den)))} for e in sorted(comp)]
                for comp in self.nums]


def pairings(x, phi: list[GroupRingElement]) -> dict[tuple[int, ...], Fraction]:
    """s -> <s.x, phi> = sum_j sum_t lift_j(t - s) phi_j(t) for the truncated
    lift of x, exactly: the integer products nums_j * phi_j* read at -s, over
    den.  Sites missing from the dict pair to 0."""
    acc = sum(
        (GroupRingElement(x.d, comp) * p.star() for comp, p in zip(cells_of(x.nums), phi)),
        GroupRingElement.zero(x.d),
    )
    return {tuple(-v for v in e): Fraction(c, x.den) for e, c in acc.terms.items()}


def pairing_gap(x2, x1) -> tuple[Fraction, float]:
    """The cross-pairing of the homoclinic group with the dual module, as a
    check that fails only when an inverse certificate is wrong.

    x2 = m2 (A*)^-1 is a point of the system presented by A and x1 = m1 A^-1
    one of the system presented by A*, each from its truncated inverse.  With
    exact inverses <s.x2, m1> = <(-s).x1, m2> at every site s: since
    (A*)^-1 = (A^-1)*, both are the coefficient of m2 (A*)^-1 m1* at -s.
    Truncating an inverse moves its side by at most ||m1||_1 ||m2||_1 times
    that inverse's tail bound.  Returns the largest gap over s, exact, and
    that bound.
    """
    lhs = pairings(x2, x1.provenance)
    rhs = {tuple(-v for v in s): c for s, c in pairings(x1, x2.provenance).items()}
    gap = max((abs(lhs.get(s, 0) - rhs.get(s, 0)) for s in set(lhs) | set(rhs)), default=Fraction(0))
    norms = math.prod(sum(c.l1_norm() for c in x.provenance) for x in (x1, x2))
    return gap, norms * (x1.inverse.tail_bound + x2.inverse.tail_bound)


def past_the_bound(x, site: tuple[int, ...], bound: float):
    """x, a point of a 1 x 1 presentation, rebuilt from its inverse with the
    numerator at site moved by twice bound (the tail bound kept): a wrong
    inverse certificate for pairing_gap to catch."""
    inv = x.inverse
    ((entry,),) = cells_of(inv.nums)
    entry[site] = entry.get(site, 0) + math.ceil(2 * Fraction(bound) * inv.den)
    return _point(x.A, dataclasses.replace(inv, nums=box_of([[entry]], x.d)), x.provenance)


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
