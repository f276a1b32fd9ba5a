"""Exact Laurent polynomials over Z^d, kept as {exponent tuple: int} dicts.

This is the benchmark's own arithmetic.  The input generator builds every
presentation with it and the oracles check reports with it, so neither the
planted answers nor the checks run through the algdyn code being timed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def const(d: int, c: int) -> dict:
    return {(0,) * d: c} if c else {}


def mono(d: int, exp, c: int = 1) -> dict:
    return {tuple(exp): c} if c else {}


def var(d: int, i: int, power: int = 1) -> dict:
    e = [0] * d
    e[i] = power
    return {tuple(e): 1}


def add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def neg(p: dict) -> dict:
    return {e: -c for e, c in p.items()}


def sub(p: dict, q: dict) -> dict:
    return add(p, neg(q))


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def star(p: dict) -> dict:
    """The involution u^n -> u^-n."""
    return {tuple(-x for x in e): c for e, c in p.items()}


def l1(p: dict) -> int:
    return sum(abs(c) for c in p.values())


def fmt(p: dict) -> str:
    """Render in the CLI's polynomial syntax, e.g. '3 - u1 - 2*u1^-1*u2'."""
    if not p:
        return "0"
    parts = []
    for i, e in enumerate(sorted(p)):
        c = p[e]
        sign = "-" if c < 0 else "+"
        vars_ = [f"u{j + 1}" if x == 1 else f"u{j + 1}^{x}" for j, x in enumerate(e) if x]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not vars_ else []) + vars_)
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def to_json(p: dict) -> list:
    return [[list(e), c] for e, c in sorted(p.items())]


def from_json(obj) -> dict:
    return {tuple(e): int(c) for e, c in obj}


# -- small matrices over the ring -----------------------------------------


def matmul(A: list, B: list) -> list:
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc: dict = {}
            for t in range(k):
                acc = add(acc, mul(A[i][t], B[t][j]))
            row.append(acc)
        out.append(row)
    return out


def det(A: list) -> dict:
    """Cofactor expansion along the first row (k <= 3 here)."""
    k = len(A)
    if k == 1:
        return dict(A[0][0])
    acc: dict = {}
    for j in range(k):
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        term = mul(A[0][j], det(minor))
        acc = add(acc, term if j % 2 == 0 else neg(term))
    return acc


def adjugate(A: list) -> list:
    k = len(A)
    d = _dim(A)
    if k == 1:
        return [[const(d, 1)]]
    out = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            minor = [row[:j] + row[j + 1:] for r, row in enumerate(A) if r != i]
            m = det(minor)
            out[j][i] = m if (i + j) % 2 == 0 else neg(m)
    return out


def star_matrix(A: list) -> list:
    """Transpose with the involution applied entrywise."""
    k, n = len(A), len(A[0])
    return [[star(A[i][j]) for i in range(k)] for j in range(n)]


def _dim(A: list) -> int:
    for row in A:
        for p in row:
            for e in p:
                return len(e)
    return 0


# -- evaluation on the torus ----------------------------------------------


def grid_values(p: dict, d: int, m: int, offset: float = 0.0) -> np.ndarray:
    """p^(theta) = sum_n p_n exp(2 pi i n.theta) on theta = (j + offset)/m.

    Computed by one inverse FFT of the coefficients folded mod m, with the
    half-cell offset applied as a twist of each coefficient; shape (m,)*d.
    """
    a = np.zeros((m,) * d, dtype=np.complex128)
    for e, c in p.items():
        tw = np.exp(2j * np.pi * offset * sum(e) / m)
        a[tuple(x % m for x in e)] += c * tw
    return np.fft.ifftn(a) * (m ** d)


def value_at(p: dict, theta) -> complex:
    acc = 0j
    for e, c in p.items():
        acc += c * np.exp(2j * np.pi * sum(n * float(t) for n, t in zip(e, theta)))
    return complex(acc)


def is_zero_at_half_integers(p: dict, theta) -> bool:
    """Exact test of p^(theta) == 0 for theta with coordinates in {0, 1/2}.

    There every character is +-1, so the sum is an integer.
    """
    th = [Fraction(t) for t in theta]
    if any(t not in (Fraction(0), Fraction(1, 2)) for t in th):
        raise ValueError("exact test only covers coordinates 0 and 1/2")
    total = 0
    for e, c in p.items():
        parity = sum(n for n, t in zip(e, th) if t) % 2
        total += -c if parity else c
    return total == 0


def jensen_log_mahler(p: dict) -> float:
    """log Mahler measure of a univariate p by Jensen's formula on np.roots."""
    lo = min(e[0] for e in p)
    hi = max(e[0] for e in p)
    coeffs = [p.get((n,), 0) for n in range(hi, lo - 1, -1)]
    roots = np.roots(coeffs)
    return math.log(abs(coeffs[0])) + float(sum(math.log(abs(r)) for r in roots if abs(r) > 1))
