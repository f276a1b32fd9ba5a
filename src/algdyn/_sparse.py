"""Exact rational vectors on Z^d as integer numerators over one denominator.

A finitely supported v: Z^d -> Q is stored as integers together with one
positive int den, standing for v(e) = nums[e] / den, in one of two forms.
Every operation below is integer arithmetic; a caller that wants rationals
reads Fraction(n, den) off the numerators itself.

* Sparse: a dict from exponent tuples to nonzero ints.  A group-ring
  element's terms are such a dict with den 1, so conv, vecmat (group-ring
  matrix products) and gauss_jordan do the package's exact ring algebra.

* Dense: a Box, a numpy object array of Python ints over a box of sites.
  A truncated inverse or a lifted point fills its ball, so it is stored
  this way, and box_conv, the product of small dicts with boxes, is one
  slice-add per term of the small factor.  The numerators stay Python
  ints: no int64 bound.

gauss_jordan is the one elimination: a fraction-free Gauss-Jordan over
the Laurent ring Z[Z^d] whose every division goes through exact_div.
Group-ring determinants, the finite-entropy rank and its kernel witness,
and int_inverse (a square integer matrix as integers P over one
denominator D: the inverse of a Peters shift matrix given as a matrix)
all read their answers off its reduced rows.
"""

from __future__ import annotations

import functools
import math
import os
from operator import add, sub
from typing import NamedTuple

import numpy as np


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


class MemoryCapError(MemoryError):
    """A grid, box or set would exceed the declared memory budget."""


def mem_cap_bytes() -> int:
    mb = int(os.environ.get("ALGDYN_MEM_CAP_MB", "2048"))
    return mb * 1024 * 1024


def charge(need: int, what: str) -> None:
    """Raise MemoryCapError unless need bytes for what (named with its size) fit
    in ALGDYN_MEM_CAP_MB; the MB are integers, as a window's n^d can pass floats."""
    if need > mem_cap_bytes():
        raise MemoryCapError(f"{what} needs about {(need + 500_000) // 10**6} MB, over ALGDYN_MEM_CAP_MB")


BOX_ENTRY_BYTES = 64  # an object pointer and a Python int of about 120 bits, with headroom


class Box(NamedTuple):
    """Integer numerators on the box of sites lo + [0, n_1) x ... x [0, n_d).

    a is a numpy object array of Python ints whose last d axes are the
    sites (shape n) and whose leading axes, if any, index components or
    matrix entries: the numerator at site e is a[..., e - lo].  Sites off
    the box hold 0, and zeros inside it are not support.
    """

    lo: tuple[int, ...]
    a: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.a.shape[self.a.ndim - len(self.lo):]

    def take(self, sites: np.ndarray) -> np.ndarray:
        """The numerators at each row of the (n, d) site array, 0 off the box,
        as an object array of the leading shape plus (n,)."""
        rel = sites - np.array(self.lo, dtype=object)
        inside = ((rel >= 0) & (rel < self.shape)).all(axis=1)
        out = np.zeros(self.a.shape[:self.a.ndim - len(self.lo)] + (len(rel),), dtype=object)
        out[..., inside] = self.a[(Ellipsis, *rel[inside].astype(np.intp).T)]
        return out

    def sites(self, idx: tuple[np.ndarray, ...]) -> np.ndarray:
        """The sites at the index arrays idx (as np.nonzero returns them over
        the site axes), as an (n, d) array."""
        return np.stack([_axis(lo, n)[i] for lo, n, i in zip(self.lo, self.shape, idx)], axis=-1)

    def by_radius(self, vals: np.ndarray, mask: np.ndarray) -> dict[int, int]:
        """The values vals (over the sites) at the sites of mask summed over
        each max-norm sphere: radius -> sum, for the radii mask reaches."""
        r = functools.reduce(np.maximum, np.ix_(*(np.abs(_axis(lo, n)) for lo, n in zip(self.lo, self.shape))))
        r = np.broadcast_to(r, mask.shape)[mask]
        if not r.size:
            return {}
        order = np.argsort(r, kind="stable")
        r = r[order]
        starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        return dict(zip(r[starts].tolist(), np.add.reduceat(vals[mask][order], starts).tolist()))


def _axis(lo: int, n: int) -> np.ndarray:
    """The coordinates lo, ..., lo + n - 1 of one axis: int64 where they fit,
    else Python ints."""
    if -(1 << 62) <= lo and lo + n <= 1 << 62:
        return np.arange(lo, lo + n)
    return np.array(range(lo, lo + n), dtype=object)


def unit(d: int) -> Box:
    """The numerator 1 at the origin of Z^d."""
    return Box((0,) * d, np.ones((1,) * d, dtype=object))


def box_conv(parts, lead: tuple[int, ...], d: int) -> Box:
    """The sum of the products terms * src of the parts (dst, terms, src),
    each added into out[dst] (dst indexes the leading axes lead of out):
    exponents add, one slice-add per term of the dict terms.

    The result is the hull of the products' boxes; its size is checked
    against ALGDYN_MEM_CAP_MB before it is allocated.  _sparse.conv is this
    product's test oracle.
    """
    parts = [(dst, t, b) for dst, t, b in parts if t and b.a.size]
    if not parts:
        return box_zeros(lead, (0,) * d, (0,) * d)
    lo = [min(b.lo[i] + min(e[i] for e in t) for _, t, b in parts) for i in range(d)]
    hi = [max(b.lo[i] + b.shape[i] + max(e[i] for e in t) for _, t, b in parts) for i in range(d)]
    out = box_zeros(lead, lo, list(map(sub, hi, lo)))
    for dst, t, b in parts:
        for e, c in t.items():
            sl = tuple(slice(o, o + n) for o, n in zip(map(sub, map(add, b.lo, e), lo), b.shape))
            out.a[(*dst, Ellipsis, *sl)] += b.a if c == 1 else c * b.a
    return out


def box_zeros(lead: tuple[int, ...], lo, shape) -> Box:
    """The zero box with leading axes lead over the sites lo + [0, shape),
    allocated only once its size is checked against ALGDYN_MEM_CAP_MB."""
    charge(math.prod((*lead, *shape)) * BOX_ENTRY_BYTES, f"a box of {math.prod(shape)} sites {tuple(shape)}")
    return Box(tuple(lo), np.zeros((*lead, *shape), dtype=object))


def l1(b: Box) -> int:
    return np.abs(b.a).sum()


def center(n, den: int):
    """Numerator over den of the representative of n/den mod 1 in [-1/2, 1/2),
    for an int n or elementwise for an object array of them."""
    return n - den * ((2 * n + den) // (2 * den))
