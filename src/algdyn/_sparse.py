"""Sparse rational vectors on Z^d as integer numerators over one denominator.

A finitely supported v: Z^d -> Q is stored as a dict from exponent tuples
to nonzero ints together with one positive int den, standing for
v(e) = nums[e] / den.  The l1 inverse's float seeds and Newton iterates
are dyadic, so den is a power of two on that path and every operation
below is integer arithmetic; Fraction objects are built only by scale and
unscale, at the boundary.
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
