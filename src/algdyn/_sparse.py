"""Sparse rational vectors on Z^d as integer numerators over one denominator.

A finitely supported v: Z^d -> Q is stored as a dict from exponent tuples
to nonzero ints together with one positive int den, standing for
v(e) = nums[e] / den.  The l1 inverse's float seeds and Newton iterates
are dyadic, so den is a power of two on that path and every operation
below is integer arithmetic; Fraction objects are built only by scale and
unscale, at the boundary.

A group-ring element's terms are such a dict with den 1, so the same core
does the package's exact matrix algebra: vecmat multiplies a row vector
of numerator dicts by a matrix of them (group-ring matrix products,
homoclinic lifts m (A*)^-1 and their annihilation checks), and
int_inverse inverts a square integer matrix as integers P over one
denominator D (the Peters shift inverse, the periodic shadow fold).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add


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


def int_inverse(M: list[list[int]]) -> tuple[list[list[int]], int]:
    """(P, D) with M P = D I and D > 0, for a square nonsingular integer M.

    Fraction-free Gauss-Jordan elimination on [M | I]: every division by
    the previous pivot is exact (Sylvester's identity), so all entries stay
    integers; D is |det M| and P = sign(det M) adj(M).
    """
    k = len(M)
    aug = [[int(v) for v in row] + [int(i == j) for j in range(k)] for i, row in enumerate(M)]
    prev = 1
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        p = prow[col]
        for r in range(k):
            if r != col:
                row = aug[r]
                h = row[col]
                aug[r] = [(p * a - h * b) // prev for a, b in zip(row, prow)]
        prev = p
    s = 1 if prev > 0 else -1
    return [[s * v for v in row[k:]] for row in aug], s * prev


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


def requantize(nums: dict, den: int, bits: int) -> dict:
    """Numerators over 2^bits of round(v * 2^bits), ties to even as in
    Fraction.__round__; entries that round to zero are dropped."""
    q = 1 << bits
    out = {}
    for e, n in nums.items():
        fl, r = divmod(n * q, den)
        if 2 * r > den or (2 * r == den and fl & 1):
            fl += 1
        if fl:
            out[e] = fl
    return out


def center(n: int, den: int) -> int:
    """Numerator over den of the representative of n/den mod 1 in [-1/2, 1/2)."""
    return n - den * ((2 * n + den) // (2 * den))
