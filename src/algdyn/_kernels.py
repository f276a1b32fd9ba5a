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
closed under theta -> -theta, so a scan evaluates one point of each
mirror pair: the first-axis rows j_0 < h (half_rows).  A scan needs only
a running minimum or a running sum of logs, so grid_abs_values streams
the half grid in blocks of whole first-axis rows, about BLOCK_VALUES
values each (for d = 1, runs of m2-table rows, m1 points each): the
stages before axis 0 run once, axis 0 is cut to the block's rows in its
table of roots, and the later stages run per block.  A scan is charged
against ALGDYN_MEM_CAP_MB for one block and the part contracted once,
O(s m^(d-1)) values, never for m^d.  grid_values, the full grid the
inverse's FFT seed needs, is the same evaluator with one block.
grid_error_bound bounds the rounding error of every computed grid value,
for every m and every block.
"""

from __future__ import annotations

import math

import numpy as np

from ._sparse import charge

BACKEND = "numpy"  # recorded by the benchmark with each result

EPS = 2.0 ** -53  # unit roundoff of float64
MU = 4 * EPS  # assumed accuracy of np.exp(i x)
MAX_GRID = 2 ** 31  # keeps the int64 phase products (n mod M) j below 2^62
BLOCK_VALUES = 1 << 13  # complex values in one block of a grid scan


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


def _contract(cells: np.ndarray, k: int, table: np.ndarray) -> np.ndarray:
    """One stage: axis k of cells, over its s_k exponents, against the (rows, s_k) table."""
    before, s, after = cells.shape[:k], cells.shape[k], cells.shape[k + 1:]
    if not after:
        out = cells.reshape(math.prod(before), s) @ table.T
    elif not before:  # a 2-d product: a stacked one costs more per call on a small block
        out = table @ cells.reshape(s, math.prod(after))
    else:
        out = table @ cells.reshape(math.prod(before), s, math.prod(after))
    return out.reshape(before + (len(table),) + after)


def _blocks(exps, coefs, m: int, offset: float, rows: int, budget: int | None):
    """Yield (j0, f^ on the first-axis rows j0 <= j_0 < j0 + b) for j0 < rows,
    as complex (b, m, ..., m) arrays (flat for d = 1).

    A block is as many whole rows as hold budget values, at least one; with
    budget None it is all rows, and the caller has charged the grid.  Else the
    working set is charged before anything of its size is built: the part
    contracted once and its stage input, the root tables, and per row of a
    block its largest stage output four times (a stage's input and output,
    the moduli and the caller's temporaries)."""
    d = exps.shape[1]
    if d == 1:
        # f^((a + m1 b + offset)/m) = sum_n [c_n w^(n (a + offset))] exp(2 pi i n b/m2)
        n = exps[:, 0]
        m1, m2 = _split(m)
        units = -(-rows // m1)  # rows b of the m2 table, m1 grid points each
        fixed, row = (2 * m1 + units) * len(n), m1
    else:
        axes = [np.unique(col, return_inverse=True) for col in exps.T]
        sizes = [len(values) for values, _ in axes]
        shape = list(sizes)
        order = sorted(range(d), key=lambda k: (shape[k], k), reverse=True)
        first = order.index(0)  # the stages before axis 0 run once, the rest per block
        pre = math.prod(shape)
        for k in order[:first]:
            shape[k] = m
            pre = max(pre, math.prod(shape))
        shape[0] = 1
        row = math.prod(shape)
        for k in order[first + 1:]:
            shape[k] = m
            row = max(row, math.prod(shape))
        fixed, units = 2 * pre + m * sum(sizes), rows
    step = units if budget is None else min(units, max(1, budget // row))
    if budget is not None:
        charge(16 * (fixed + 4 * step * row), f"a scan of grid {m}^{d} in {step}-row blocks")
    if d == 1:
        scaled = _roots(n, m1, m, offset) * coefs
        table = _roots(n, units, m2, 0.0)
        for b0 in range(0, units, step):
            yield b0 * m1, (table[b0:b0 + step] @ scaled.T).reshape(-1)[:rows - b0 * m1]
        return
    cells = np.zeros(sizes, dtype=np.complex128)
    np.add.at(cells, tuple(index for _, index in axes), coefs)
    tables = [_roots(values, rows if k == 0 else m, m, offset) for k, (values, _) in enumerate(axes)]
    for k in order[:first]:
        cells = _contract(cells, k, tables[k])
    for j0 in range(0, rows, step):
        block = _contract(cells, 0, tables[0][j0:j0 + step])
        for k in order[first + 1:]:
            block = _contract(block, k, tables[k])
        yield j0, block


def grid_values(exps, coefs, m: int, offset: float = 0.0) -> np.ndarray:
    """f^(theta) on the grid theta = (j + offset)/m, as a complex (m, ..., m) array."""
    exps, coefs, m = _term_input(exps, coefs, m)
    return next(_blocks(exps, coefs, m, offset, m, None))[1]


def half_rows(m: int, offset: float) -> int:
    """Rows h of the half grid: every j has j_0 < h, or its mirror -theta does.

    The mirror of row j_0 is m - j_0 mod m at offset 0 (rows 0 and m/2 are
    their own) and m - 1 - j_0 at offset 1/2 (the middle row of an odd m is
    its own)."""
    return m // 2 + 1 if offset == 0 else (m + 1) // 2


def grid_abs_values(exps, coefs, m: int, offset: float = 0.0):
    """Yield (j0, |f^| on the first-axis rows j0 <= j_0 < j0 + b) over the half
    grid, theta = (j + offset)/m with j_0 < half_rows(m, offset), as real
    (b, m, ..., m) arrays (flat for d = 1) in row order, each block about
    BLOCK_VALUES values; a scan folds each block as it arrives.

    |f^(-theta)| = |f^(theta)| for real coefficients, and the offset, 0 or
    1/2, makes the grid closed under theta -> -theta, so the rows cut hold
    a mirror of every value they drop."""
    exps, coefs, m = _term_input(exps, coefs, m)
    for j0, block in _blocks(exps, coefs, m, offset, half_rows(m, offset), BLOCK_VALUES):
        yield j0, np.abs(block)


def grid_error_bound(exps, coefs, m: int, offset: float = 0.0) -> float:
    """Bound on |computed - exact| for every value of grid_values and grid_abs_values,
    whatever the blocks.

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
