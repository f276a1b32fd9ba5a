"""Sparse rational vectors on Z^d as integer numerators over one denominator.

A finitely supported v: Z^d -> Q is stored as a dict from exponent tuples
to nonzero ints together with one positive int den, standing for
v(e) = nums[e] / den.  The l1 inverse's float seed and its refinement
steps are dyadic, so den is a power of two on that path and every
operation below is integer arithmetic; Fraction objects are built only by
scale and unscale, at the boundary.

A group-ring element's terms are such a dict with den 1, so the same core
does the package's exact matrix algebra.  vecmat multiplies a row vector
of numerator dicts by a matrix of them (group-ring matrix products,
homoclinic lifts m (A*)^-1 and their annihilation checks).  gauss_jordan
is the one elimination: a fraction-free Gauss-Jordan over the Laurent
ring Z[Z^d] whose every division goes through exact_div.  Group-ring
determinants, the finite-entropy rank and its kernel witness, and
int_inverse (a square integer matrix as integers P over one denominator
D: the inverse of a Peters shift matrix given as a matrix, the periodic
shadow fold) all read their answers off its reduced rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub


def scale(vectors) -> tuple[list[dict], int]:
    """Numerators of several rational dicts over their least common denominator."""
    den = 1
    for v in vectors:
        for c in v.values():
            q = c.denominator
            if den % q:
                den = den // math.gcd(den, q) * q
    return [{e: c.numerator * (den // c.denominator) for e, c in v.items()} for v in vectors], den


def unscale(nums: dict, den: int) -> dict:
    return {e: Fraction(n, den) for e, n in nums.items()}


def conv(a: dict, b: dict) -> dict:
    """The convolution a * b (exponents add), zero coefficients dropped."""
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    for eb, cb in b.items():
        for ea, ca in a.items():
            k = tuple(map(add, ea, eb))
            out[k] = get(k, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def vecmat(vec: list[dict], M: list[list[dict]]) -> list[dict]:
    """The row vector vec times the matrix M: entry j is sum_i vec[i] * M[i][j]."""
    out = []
    for j in range(len(M[0])):
        acc: dict = {}
        for v, row in zip(vec, M):
            if v:
                add_to(acc, conv(v, row[j]))
        out.append(acc)
    return out


class CapExceeded(RuntimeError):
    """An exact computation exceeded a declared size cap."""


class ExactDivisionError(ArithmeticError):
    """The divisor does not divide the dividend in Z[Z^d]."""


def exact_div(p: dict, q: dict) -> dict:
    """The quotient p / q in Z[Z^d], for q dividing p.

    Long division on lex-leading terms.  Lex order on Z^d is not
    well-founded, so an inexact division need not run out of terms; but
    the Newton polytope of p is that of q plus that of p / q, so every
    term of an exact quotient lies in the box whose axis t spans
    [min_t p - min_t q, max_t p - max_t q].  The quotient terms come out
    in strictly decreasing lex order, so raising ExactDivisionError once
    one leaves the box makes the loop finite and leaves exact quotients
    untouched.
    """
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return {}
    if len(q) == 1:  # a monomial, the usual pivot: divide term by term
        ((eq, cq),) = q.items()
        out = {}
        for e, c in p.items():
            ch, r = divmod(c, cq)
            if r:
                raise ExactDivisionError("the divisor does not divide the dividend")
            out[tuple(map(sub, e, eq))] = ch
        return out
    lo = [a - b for a, b in zip(map(min, zip(*p)), map(min, zip(*q)))]
    hi = [a - b for a, b in zip(map(max, zip(*p)), map(max, zip(*q)))]
    lt_q = max(q)
    cq = q[lt_q]
    rem = dict(p)
    out: dict = {}
    while rem:
        lt = max(rem)
        ch, r = divmod(rem[lt], cq)
        diff = tuple(map(sub, lt, lt_q))
        if r or not all(a <= t <= b for a, t, b in zip(lo, diff, hi)):
            raise ExactDivisionError("the divisor does not divide the dividend")
        out[diff] = ch
        add_to(rem, {tuple(map(add, diff, e)): c * ch for e, c in q.items()}, -1)
    return out


def gauss_jordan(rows: list[list[dict]], term_cap: int | None = None) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination, in place, of a matrix of
    numerator dicts over Z[Z^d]; returns (pivot columns, row-swap sign).

    Column by column, the row of smallest support among those not yet
    used is swapped up to become pivot row r, and every other row becomes
    (p row - h prow) / prev: p the pivot, h the row's entry in the pivot
    column, prev the previous pivot (1 at first).  By Sylvester's
    identity (Bareiss, Math. Comp. 22, 1968) every division is exact, and
    afterwards, with D the last pivot (1 if there is none), row
    i < len(pivots) holds D at column pivots[i] and 0 at the other pivot
    columns, while the rows below are zero.  A square matrix of full rank
    has determinant sign * D.  An entry of more than term_cap terms
    raises CapExceeded.
    """
    pivots: list[int] = []
    sign = 1
    prev = None
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        cand = [(len(rows[i][col]), i) for i in range(r, len(rows)) if rows[i][col]]
        if not cand:
            continue
        i = min(cand)[1]
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[col]
        for i, row in enumerate(rows):
            if i == r:
                continue
            h = row[col]
            new = []
            for c, (a, b) in enumerate(zip(row, prow)):
                if c == col:
                    num = {}
                elif c in pivots:  # b is 0 and a is prev or 0, so num is p or 0
                    num = p if a else {}
                else:
                    num = add_to(conv(p, a), conv(h, b), -1)
                    if num and prev is not None:
                        num = exact_div(num, prev)
                    if term_cap is not None and len(num) > term_cap:
                        raise CapExceeded(f"an elimination entry of {len(num)} terms exceeds the cap of {term_cap} terms")
                new.append(num)
            rows[i] = new
        prev = p
        pivots.append(col)
    return pivots, sign


def int_inverse(M: list[list[int]]) -> tuple[list[list[int]], int]:
    """(P, D) with M P = D I and D > 0, for a square nonsingular integer M.

    gauss_jordan on [M | I] with constant entries: the reduced left block
    is (last pivot) I, so D is |det M| and P = sign(det M) adj(M).
    """
    k = len(M)
    aug = [
        [{(): int(v)} if v else {} for v in row] + [{(): 1} if i == j else {} for j in range(k)]
        for i, row in enumerate(M)
    ]
    pivots, _ = gauss_jordan(aug)
    if pivots[k - 1] != k - 1:
        raise ValueError("singular matrix")
    D = aug[k - 1][k - 1][()]
    s = 1 if D > 0 else -1
    return [[s * v.get((), 0) for v in row[k:]] for row in aug], s * D


def add_to(acc: dict, b: dict, sign: int = 1) -> dict:
    """acc += sign * b in place, dropping entries that cancel; returns acc."""
    for e, c in b.items():
        v = acc.get(e, 0) + sign * c
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)
    return acc


def l1(nums: dict) -> int:
    return sum(map(abs, nums.values()))


def center(n: int, den: int) -> int:
    """Numerator over den of the representative of n/den mod 1 in [-1/2, 1/2)."""
    return n - den * ((2 * n + den) // (2 * den))
