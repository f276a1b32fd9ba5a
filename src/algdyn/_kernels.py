"""Hot numeric kernels: the torus grid evaluator and greedy separation.

grid_values gives f^(theta) = sum_n c_n exp(2 pi i n.theta) on the whole
uniform grid theta = (j + offset)/m, j in {0, ..., m-1}^d, with one FFT.
On that grid exp(2 pi i n.theta) depends on n only through n mod m, up to
the twist exp(2 pi i offset (n_1 + ... + n_d)/m).  So the twisted
coefficients are scattered to the index n mod m, and the unnormalized
inverse DFT of that m^d array is f^ on the grid, in C order.
grid_error_bound bounds the rounding error of every computed grid value;
Wiener certification and log-Mahler quadrature both scan this grid.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"  # recorded by the benchmark with each result

EPS = 2.0 ** -53  # unit roundoff of float64
MU = 4 * EPS  # assumed accuracy of np.exp(i x) and of the FFT's twiddle factors


def _gamma(k: int) -> float:
    return k * EPS / (1 - k * EPS)


def _term_input(exps, coefs, m) -> tuple[np.ndarray, np.ndarray, int]:
    m = int(m)
    exps = np.ascontiguousarray(exps, dtype=np.int64)
    coefs = np.ascontiguousarray(coefs, dtype=np.float64)
    if exps.ndim != 2 or coefs.ndim != 1 or exps.shape[0] != coefs.shape[0]:
        raise ValueError("exps must be (terms, d) matching coefs")
    if m < 1:
        raise ValueError("grid size must be positive")
    return exps, coefs, m


# -- f^ on a uniform grid ----------------------------------------------------


def grid_values(exps, coefs, m: int, offset: float = 0.0) -> np.ndarray:
    """f^(theta) on the grid theta = (j + offset)/m, as a complex (m,)*d array."""
    exps, coefs, m = _term_input(exps, coefs, m)
    weights = coefs.astype(np.complex128)
    if offset:
        s = exps.sum(axis=1)
        weights *= np.exp(2j * np.pi * (np.mod(offset * s, m) / m))
    spectrum = np.zeros((m,) * exps.shape[1], dtype=np.complex128)
    np.add.at(spectrum, tuple(np.mod(exps, m).T), weights)
    # norm="forward" leaves the inverse transform unscaled: m^d * ifftn
    return np.fft.ifftn(spectrum, norm="forward")


def grid_abs_values(exps, coefs, m: int, offset: float = 0.0) -> np.ndarray:
    """|f^| on the grid theta = (j + offset)/m, flattened in C order."""
    return np.abs(grid_values(exps, coefs, m, offset)).ravel()


def grid_error_bound(exps, coefs, m: int, offset: float = 0.0) -> float:
    """Bound on |computed - exact| for every value of grid_values and grid_abs_values.

    Notation: u = 2^-53, gamma_k = k u/(1 - k u), T terms, C = sum |c_n|,
    N = m^d, S = max |n_1 + ... + n_d|.  Assumption: np.exp(i x) and the
    FFT's twiddle factors are within MU = 4u of their exact values.

    1. Twist (offset != 0 only).  phi_n = 2 pi ((offset s_n) mod m)/m has
       five roundings: offset*s_n (at most u |offset| S), the mod (at most
       u m), and /m, the rounded 2 pi and their product (together gamma_3
       relative to phi <= 2 pi).  So |phi^ - phi| <= 2 pi (gamma_4 +
       u |offset| S/m), and as |e^ia - e^ib| <= |a - b| the twist w_n is
       off by at most tau = 2 pi (gamma_4 + u |offset| S/m) + MU.  Without
       offset tau = 0.
    2. Scatter.  Each product c_n w^_n rounds once (u), and each cell adds
       at most T of them from zero, so each component is off by at most
       gamma_{T-1} times its sum of moduli, sqrt(2) gamma_{T-1} in modulus.
       Hence ||A^ - A||_1 <= eps_s C with eps_s = tau + 2 gamma_{T+1},
       whose slack over u + sqrt(2) gamma_{T-1} also covers integer c_n of
       2^53 or more being rounded to float (u |c_n|).
    3. FFT.  ifftn(A^, norm="forward") computes y = F A^ with
       F_jk = exp(2 pi i j.k/m) and no scaling.  For m = 2^k, numpy's
       pocketfft runs radix-4 and radix-2 Cooley-Tukey passes along each
       axis.  A radix-4 pass is two radix-2 stages whose inner twiddles
       are +-1, +-i (exact), so the d passes form t = log2 N butterfly
       stages.  Higham, Accuracy and Stability of Numerical Algorithms,
       Thm 24.2, whose proof goes stage by stage, gives
       ||y^ - F A^||_2 <= t eta/(1 - t eta) ||F A^||_2 with
       eta = MU + gamma_4 (sqrt 2 + MU), and ||F A^||_2 = sqrt(N) ||A^||_2
       <= sqrt(N) (1 + eps_s) C.
    4. Total.  At each grid point |y^_j - f^(theta_j)| <= ||y^ - F A^||_inf
       + |(F(A^ - A))_j| <= E = t eta/(1 - t eta) sqrt(N) (1 + eps_s) C
       + eps_s C, and |.| adds one rounding: at most 2u (C + E).

    The result is nudged up so that rounding in this formula cannot
    understate it.  For m not a power of two pocketfft uses radix-3, 5, 7,
    11 and generic passes or Bluestein's algorithm, which Thm 24.2 does not
    cover; there the same formula with t = d ceil(log2 m) is an estimate.
    """
    exps, coefs, m = _term_input(exps, coefs, m)
    nterms, d = exps.shape
    c1 = float(np.abs(coefs).sum()) * (1 + _gamma(nterms))
    tau = 0.0
    if offset:
        s_max = float(np.abs(exps.sum(axis=1)).max(initial=0))
        tau = 2 * math.pi * (_gamma(4) + EPS * abs(offset) * s_max / m) + MU
    eps_s = tau + 2 * _gamma(nterms + 1)
    t = d * (m - 1).bit_length()
    eta = MU + _gamma(4) * (math.sqrt(2) + MU)
    err = t * eta / (1 - t * eta) * math.sqrt(m ** d) * (1 + eps_s) * c1 + eps_s * c1
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
