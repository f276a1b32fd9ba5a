"""Hot numeric kernels: the torus grid evaluator and greedy separation.

grid_values gives f^(theta) = sum_n c_n exp(2 pi i n.theta) on the uniform
grid theta = (j + offset)/m, j in {0, ..., m-1}^d, one axis at a time.
Each character exp(2 pi i n.theta) is a product of one-variable
characters, so the coefficients are gathered into a dense array indexed by
the s_k distinct exponents of each axis k (a handful for the sparse
polynomials of this package), and each axis in turn is contracted against
its (m, s_k) table of roots of unity by one matmul.  The axis with the most
distinct exponents goes first, so the last stage, the only one that writes
all m^d values, has the shortest inner product.  For d = 1 the grid index
is split as j = a + m1 b with m = m1 m2: each term is scaled by a table of
m1 rows and the terms are summed against a table of m2 rows, so no table
has m rows.

Wiener certification and log-Mahler quadrature both scan this grid, and
only |f^| matters to them.  With integer (real) coefficients
f^(-theta) = conj f^(theta), and both grids, offset 0 and offset 1/2, are
closed under theta -> -theta, so grid_abs_values evaluates one point of
each mirror pair: the first-axis rows j_0 < h (half_rows), cut in that
axis's table of roots, so every stage writes about half as many values.
grid_error_bound bounds the rounding error of every computed grid value,
for every m, full grid or half.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"  # recorded by the benchmark with each result

EPS = 2.0 ** -53  # unit roundoff of float64
MU = 4 * EPS  # assumed accuracy of np.exp(i x)
MAX_GRID = 2 ** 31  # keeps the int64 phase products (n mod M) j below 2^62


def _gamma(k: int) -> float:
    return k * EPS / (1 - k * EPS)


def _term_input(exps, coefs, m) -> tuple[np.ndarray, np.ndarray, int]:
    m = int(m)
    exps = np.ascontiguousarray(exps, dtype=np.int64)
    coefs = np.ascontiguousarray(coefs, dtype=np.float64)
    if exps.ndim != 2 or coefs.ndim != 1 or exps.shape[0] != coefs.shape[0]:
        raise ValueError("exps must be (terms, d) matching coefs")
    if not 1 <= m <= MAX_GRID:
        raise ValueError(f"grid size must be in [1, {MAX_GRID}]")
    return exps, coefs, m


def _split(m: int) -> tuple[int, int]:
    """m = m1 m2 with m1 the largest divisor of m that is at most sqrt(m)."""
    m1 = next(k for k in range(math.isqrt(m), 0, -1) if m % k == 0)
    return m1, m // m1


def _roots(values: np.ndarray, rows: int, modulus: int, offset: float) -> np.ndarray:
    """The (rows, s) table exp(2 pi i ((r j) mod M + (offset n) mod M)/M) for
    j < rows and the exponents n in values, with r = n mod M and M = modulus."""
    phase = np.mod(np.arange(rows, dtype=np.int64)[:, None] * np.mod(values, modulus), modulus)
    phase = phase.astype(np.float64)
    if offset:
        phase += np.mod(offset * values.astype(np.float64), modulus)
    return np.exp(2j * np.pi * (phase / modulus))


def _tau(modulus: int, offset: float, n_max: int) -> float:
    """Bound on the error of every entry of _roots(values, ., modulus, offset)
    when every |n| in values is at most n_max (step 2 of grid_error_bound)."""
    return 4 * math.pi * _gamma(4) + 2 * math.pi * EPS * (1 + 2 * abs(offset) * n_max / modulus) + MU


# -- f^ on a uniform grid ----------------------------------------------------


def grid_values(exps, coefs, m: int, offset: float = 0.0, rows: int | None = None) -> np.ndarray:
    """f^(theta) on the grid theta = (j + offset)/m, as a complex (rows, m, ..., m)
    array: the first-axis rows j_0 < rows, all m of them by default."""
    exps, coefs, m = _term_input(exps, coefs, m)
    rows = m if rows is None else rows
    if exps.shape[1] == 1:
        # f^((a + m1 b + offset)/m) = sum_n [c_n w^(n (a + offset))] exp(2 pi i n b/m2)
        n = exps[:, 0]
        m1, m2 = _split(m)
        scaled = _roots(n, m1, m, offset) * coefs
        return (_roots(n, -(-rows // m1), m2, 0.0) @ scaled.T).reshape(-1)[:rows]
    axes = [np.unique(col, return_inverse=True) for col in exps.T]
    cells = np.zeros([len(values) for values, _ in axes], dtype=np.complex128)
    np.add.at(cells, tuple(index for _, index in axes), coefs)
    for k in sorted(range(len(axes)), key=lambda k: (cells.shape[k], k), reverse=True):
        table = _roots(axes[k][0], rows if k == 0 else m, m, offset)
        before, s = cells.shape[:k], cells.shape[k]
        after = cells.shape[k + 1:]
        if after:
            cells = table @ cells.reshape(math.prod(before), s, math.prod(after))
        else:
            cells = cells.reshape(math.prod(before), s) @ table.T
        cells = cells.reshape(before + (len(table),) + after)
    return cells


def half_rows(m: int, offset: float) -> int:
    """Rows h of the half grid: every j has j_0 < h, or its mirror -theta does.

    The mirror of row j_0 is m - j_0 mod m at offset 0 (rows 0 and m/2 are
    their own) and m - 1 - j_0 at offset 1/2 (the middle row of an odd m is
    its own)."""
    return m // 2 + 1 if offset == 0 else (m + 1) // 2


def grid_abs_values(exps, coefs, m: int, offset: float = 0.0) -> np.ndarray:
    """|f^| on the half grid: theta = (j + offset)/m for the first-axis rows
    j_0 < half_rows(m, offset), as a real (h, m, ..., m) array.

    |f^(-theta)| = |f^(theta)| for real coefficients, and the offset, 0 or
    1/2, makes the grid closed under theta -> -theta, so the rows cut hold
    a mirror of every value they drop."""
    return np.abs(grid_values(exps, coefs, m, offset, half_rows(m, offset)))


def grid_error_bound(exps, coefs, m: int, offset: float = 0.0) -> float:
    """Bound on |computed - exact| for every value of grid_values and grid_abs_values.

    It holds for every grid size m.  Notation: u = 2^-53, gamma_k = k u/(1 - k u),
    T terms, C = sum |c_n|.  Assumptions: np.exp(i x) is within MU = 4u of
    exp(i x); |n| < 2^53; each matmul is a standard (not 3M) complex
    product, summed in any order and blocking, with or without FMA.

    1. Gather.  For d >= 2 the coefficients of equal exponent rows are
       added into one cell of the (s_1, ..., s_d) array, from zero.  A cell
       of at most T terms, each already rounded to float (u |c_n|), is off
       by at most gamma_T times its sum of moduli, so the whole array A^
       has ||A^ - A||_1 <= gamma_T C, and ||A||_1 <= C.  For d = 1 nothing
       is gathered: each term is its own entry (s_1 = T), off by u |c_n|.
    2. Tables.  An entry of _roots is exp(i a) with a = 2 pi (p + t)/M,
       p = (r j) mod M an exact integer below M and t = (offset n) mod M in
       [0, M].  Converting n and multiplying by offset is off by at most
       2u |offset| |n|, and np.mod adds at most u M (its fmod is exact, a
       final + M is not).  Then p + t, /M, the rounded 2 pi and the product
       round four times: relative gamma_4 of a <= 4 pi.  As
       |e^ia - e^ib| <= |a - b|, every entry is within
       tau = 4 pi gamma_4 + 2 pi u (1 + 2 |offset| n_max/M) + MU of its
       exact value, where n_max bounds |n| on that axis.
    3. Stages.  A stage maps x (over s exponents) to y_j = sum_s T_js x_s.
       Its real part is a real sum of the 2s products Re T Re x and
       -Im T Im x (imaginary part likewise), so in any order, with products
       rounded or fused, |fl(y_j) - sum T^_js x_s| <= gamma_2s times the sum
       of their moduli, which is at most sum |T^_js| |x_s| by
       Cauchy-Schwarz: sqrt(2) gamma_2s (1 + tau) sum |x_s| in modulus.
       Adding |T^ - T| <= tau, and writing E_i, M_i for the largest l1 norm,
       over the indices not yet contracted, of the error and of the exact
       partial sum after stage i (M_i <= C since |T| = 1):
           C + E_(i+1) <= (1 + rho) (C + E_i),
           rho = sqrt(2) gamma_2s (1 + tau) + tau.
       For d >= 2 stage k has s = s_k and the table of step 2 with M = m.
       For d = 1 the first stage scales c_n by exp(2 pi i n (a + offset)/m)
       (M = m, a < m1; one rounded product, within the s = 1 formula) and
       the second sums over the T terms against
       exp(2 pi i (n mod m2) b/m2) (M = m2, offset 0).
    4. Total.  E = C ((1 + gamma_T) prod (1 + rho_k) - 1) bounds
       |computed - f^(theta_j)| at every grid point, and |.| (hypot, within
       one ulp) adds at most 2u (C + E).

    No step depends on the radix of m.  The result is nudged up so that
    rounding in this formula cannot understate it.
    """
    exps, coefs, m = _term_input(exps, coefs, m)
    nterms, d = exps.shape
    c1 = float(np.abs(coefs).sum()) * (1 + _gamma(nterms))
    n_max = [int(v) for v in np.abs(exps).max(axis=0, initial=0)]
    if d == 1:
        m2 = _split(m)[1]
        stages = [(1, _tau(m, offset, n_max[0])), (nterms, _tau(m2, 0.0, 0))]
    else:
        sizes = [len(set(col.tolist())) for col in exps.T]
        stages = [(s, _tau(m, offset, n)) for s, n in zip(sizes, n_max)]
    # (1 + rel) prod (1 + rho) - 1, accumulated without cancellation
    rel = _gamma(nterms)
    for s, tau in stages:
        rho = math.sqrt(2) * _gamma(2 * s) * (1 + tau) + tau
        rel += rho + rel * rho
    err = rel * c1
    return (err + 2 * EPS * (c1 + err)) * (1.0 + 1e-9)


# -- greedy separated subfamily -------------------------------------------


def greedy_separated(vals, eps: float) -> np.ndarray:
    """Greedy maximal subfamily of rows pairwise (., eps)-separated.

    Rows are tuples of torus coordinates (reals mod 1); two rows are
    separated when some coordinate differs by more than eps on the circle.
    Returns the indices kept, in scan order.
    """
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    if vals.ndim != 2:
        raise ValueError("vals must be 2-d")
    eps = float(eps)
    n = vals.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    kept = [0]
    for i in range(1, n):
        diff = vals[i] - vals[kept]
        diff -= np.round(diff)
        if np.all(np.max(np.abs(diff), axis=1) > eps):
            kept.append(i)
    return np.array(kept, dtype=np.int64)
