"""The free-group annihilator identity, decided in the radial algebra.

With chi_n the sum of the reduced words of length n in the free group of
rank d and q = 2d - 1, g = sum_n (-1)^n q^-n chi_{2n} satisfies g chi_1 = 0.
Both factors are radial (constant on spheres), and radial elements multiply
by chi_r chi_1 = chi_{r+1} + c_r chi_{r-1}, with c_0 = 0, c_1 = 2d and
c_r = q for r >= 2 (Figa-Talamanca and Picardello, Harmonic Analysis on Free
Groups, ch. 3), so verify_annihilator holds one exact integer per sphere.
Cut at order N, g chi_1 is (-q)^-N chi_{2N+1}: zero on the radius-L ball
iff L <= 2N.

The word-level convolution is the tests' oracle for that decision.  A word
is a reduced tuple of nonzero integers (-i the inverse of letter i), and an
element of the rational group ring is a plain dict from reduced words to
nonzero coefficients, as _sparse holds elements of Z[Z^d]: sphere,
mul_truncated and annihilator_series take and return such dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._report import Report
from .groupring import CapExceeded

Word = tuple[int, ...]


def reduce_word(w) -> Word:
    out: list[int] = []
    for a in w:
        a = int(a)
        if a == 0:
            raise ValueError("letters are nonzero integers")
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def mul_words(a: Word, b: Word) -> Word:
    i = len(a)
    j = 0
    while i > 0 and j < len(b) and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def sphere_size(d: int, n: int) -> int:
    return 1 if n == 0 else 2 * d * (2 * d - 1) ** (n - 1)


def sphere(d: int, n: int, cap: int = 5_000_000) -> dict[Word, int]:
    """chi_n: every reduced word of length exactly n, each with coefficient 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if sphere_size(d, n) > cap:
        raise CapExceeded(f"sphere of {sphere_size(d, n)} words exceeds cap {cap}")
    letters = [*range(1, d + 1), *range(-1, -d - 1, -1)]
    words: list[Word] = [()]
    for _ in range(n):
        words = [w + (a,) for w in words for a in letters if not w or w[-1] != -a]
    return dict.fromkeys(words, 1)


def mul_truncated(f: dict[Word, Fraction], g: dict[Word, Fraction], L: int) -> dict[Word, Fraction]:
    """Exact convolution keeping only words of length at most L.

    Pairs whose length gap already exceeds L are skipped: multiplying a
    word of length a by one of length b cannot produce anything shorter
    than |a - b|.
    """
    out: dict[Word, Fraction] = {}
    for wa, ca in f.items():
        for wb, cb in g.items():
            if abs(len(wa) - len(wb)) <= L and len(w := mul_words(wa, wb)) <= L:
                out[w] = out.get(w, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


# Bit-size cap on verify_annihilator's integers: the report prints
# checked_words (about L log2(2d-1) bits) in decimal, which Python refuses
# past 4,300 digits (about 14,280 bits) by default.
CAP_BITS = 14_000


@dataclass
class AnnihilatorReport(Report):
    rank: int
    order: int
    radius: int
    all_zero: bool
    nonzero_radii: list[int]
    checked_words: int
    method: str = "radial"


def annihilator_series(d: int, N: int, max_length: int | None = None, cap: int = 5_000_000) -> dict[Word, Fraction]:
    """sum_{n<=N} (-1)^n (2d-1)^{-n} chi_{2n}, optionally cut at max_length.

    Cutting at max_length = L+1 is exact for products with chi_1 inspected
    on the ball of radius L: a length-2n word times a letter has length
    2n +- 1, so longer spheres cannot reach the ball.
    """
    top = N if max_length is None else min(N, max_length // 2)
    return {w: Fraction(-1, 2 * d - 1) ** n for n in range(top + 1) for w in sphere(d, 2 * n, cap=cap)}


def verify_annihilator(d: int, N: int, L: int, cap_bits: int = CAP_BITS) -> AnnihilatorReport:
    """Check that the order-N annihilator series kills chi_1 on the ball of
    radius L, sphere by exact sphere.  Only spheres 2n <= L+1 of g reach the
    ball, so g is held for n <= K = min(N, (L+1)//2), scaled by q^K."""
    if d < 2:
        raise ValueError("free-group rank must be at least 2")
    if N < 0 or L < 0:
        raise ValueError("N and L must be nonnegative")
    q = 2 * d - 1
    if L * q.bit_length() > cap_bits:
        raise CapExceeded(f"radius {L} at rank {d} needs integers of about "
                          f"{L * q.bit_length()} bits, over the cap of {cap_bits}")
    K = min(N, (L + 1) // 2)
    g = [0] * (L + 2)
    g[: 2 * K + 1 : 2] = [(-1) ** n * q ** (K - n) for n in range(K + 1)]
    c = [0, 2 * d] + [q] * L
    # sphere r of g chi_1 collects chi_{r-1} chi_1 and chi_{r+1} chi_1
    nonzero = [r for r in range(L + 1) if (g[r - 1] if r else 0) + c[r + 1] * g[r + 1]]
    return AnnihilatorReport(d, N, L, not nonzero, nonzero, 1 + 2 * d * (q**L - 1) // (q - 1))
