import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algdyn import _kernels, entropy, torus
from algdyn.groupring import GroupRingElement, parse_element
from algdyn.torus import evaluate


def half_grid(exps, coefs, m, offset):
    """The streamed blocks of grid_abs_values as one (h, m, ..., m) array;
    each block starts at the row where the one before it ends."""
    blocks = list(_kernels.grid_abs_values(exps, coefs, m, offset))
    assert [j0 for j0, _ in blocks] == np.cumsum([0] + [len(b) for _, b in blocks[:-1]]).tolist()
    return np.concatenate([b for _, b in blocks])


def test_grid_matches_direct_evaluation():
    f = parse_element("3 - u1 - u1^-1")
    exps = np.array([[-1], [0], [1]], dtype=np.int64)
    coefs = np.array([-1.0, 3.0, -1.0])
    m = 64
    vals = half_grid(exps, coefs, m, 0.0)
    # the half grid at offset 0: rows j < m/2 + 1, mirrors of the rest
    assert vals.shape == (m // 2 + 1,)
    for j in range(len(vals)):
        assert vals[j] == pytest.approx(abs(evaluate(f, j / m)), abs=1e-12)


def test_grid_2d_matches_direct_evaluation():
    f = parse_element("4 - u1 - u1^-1 - u2 - u2^-1")
    exps = np.array(sorted(f.terms), dtype=np.int64)
    coefs = np.array([float(f.terms[tuple(e)]) for e in exps])
    m = 16
    vals = half_grid(exps, coefs, m, 0.5)
    # the half grid at offset 1/2: first-axis rows j1 < m/2, all m columns
    assert vals.shape == (m // 2, m)
    for j1 in range(m // 2):
        for j2 in range(m):
            theta = ((j1 + 0.5) / m, (j2 + 0.5) / m)
            assert vals[j1, j2] == pytest.approx(abs(evaluate(f, theta)), abs=1e-12)


def _evaluate_error_bound(exps, coefs) -> float:
    """Rounding bound of torus.evaluate itself at a float theta in [0, 1)^d.

    Per term the angle 2 pi n.theta is off by at most 2 pi |n|_1 gamma_{d+3}
    (theta rounded, the dot product, 2 pi and the product), cos and sin by
    MU, and the product and the sum by 2 gamma_{T+1}; the 2u factors below
    are generous versions of these gammas.
    """
    nterms, d = exps.shape
    per_term = 2 * math.pi * np.abs(exps).sum(axis=1) * (d + 4) + nterms + 8
    return float(np.sum(np.abs(coefs) * per_term)) * 2 * _kernels.EPS


@st.composite
def aliased_polys(draw):
    """Random (exps, coefs, m, offset) with negative and aliased exponents.

    Terms are built from a few base exponents shifted by multiples of m, so
    several exponents are equal mod m, some are >= m, and rows may repeat.
    """
    d = draw(st.integers(1, 3))
    m = draw(st.integers(2, 64))
    offset = draw(st.sampled_from([0.0, 0.5]))
    coord = st.integers(-m, m)
    bases = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=4))
    shift = st.tuples(*[st.integers(-2, 2)] * d)
    rows = draw(st.lists(
        st.tuples(st.sampled_from(bases), shift, st.integers(-9, 9).filter(bool)),
        min_size=1, max_size=10,
    ))
    exps = np.array([[b + k * m for b, k in zip(base, ks)] for base, ks, _ in rows], dtype=np.int64)
    coefs = np.array([float(c) for _, _, c in rows])
    return exps, coefs, m, offset


@settings(max_examples=80, deadline=None)
@given(aliased_polys(), st.integers(0, 2**32 - 1))
def test_grid_values_within_rounding_guard(case, seed):
    exps, coefs, m, offset = case
    d = exps.shape[1]
    terms: dict = {}
    for e, c in zip(map(tuple, exps.tolist()), coefs.tolist()):
        terms[e] = terms.get(e, 0) + int(c)
    f = GroupRingElement(d, terms)

    vals = _kernels.grid_values(exps, coefs, m, offset)
    assert vals.shape == (m,) * d
    half = half_grid(exps, coefs, m, offset)
    assert half.shape == (_kernels.half_rows(m, offset),) + (m,) * (d - 1)

    guard = _kernels.grid_error_bound(exps, coefs, m, offset)
    assert guard <= 1e-10 * float(np.abs(coefs).sum())
    tol = guard + _evaluate_error_bound(exps, coefs)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for grid, part in ((vals, lambda z: z), (half, abs)):  # f^ on the full grid, |f^| on the half
        flat = range(grid.size) if grid.size <= 256 else rng.integers(0, grid.size, size=256)
        for p in flat:
            j = np.unravel_index(int(p), grid.shape)
            theta = tuple((int(ji) + offset) / m for ji in j)
            worst = max(worst, abs(grid[j] - part(evaluate(f, theta))))
    assert worst <= tol


@settings(max_examples=80, deadline=None)
@given(aliased_polys(), st.booleans())
def test_half_grid_holds_a_mirror_of_every_point(case, odd):
    exps, coefs, m, offset = case
    m += odd != m % 2  # both parities of m at every d
    d = exps.shape[1]
    h = _kernels.half_rows(m, offset)
    j0 = np.arange(m)
    mirror = (-j0) % m if offset == 0 else m - 1 - j0
    assert np.all((j0 < h) | (mirror < h))

    half = half_grid(exps, coefs, m, offset)
    assert half.shape == (h,) + (m,) * (d - 1)
    full = np.abs(_kernels.grid_values(exps, coefs, m, offset))
    guard = _kernels.grid_error_bound(exps, coefs, m, offset)
    assert abs(half.min() - full.min()) <= 2 * guard

    # the Mahler mean over the half grid, each row weighted for its mirror
    terms: dict = {}
    for e, c in zip(map(tuple, exps.tolist()), coefs.tolist()):
        terms[e] = terms.get(e, 0) + int(c)
    f = GroupRingElement(d, terms)
    if f.is_zero():
        return
    full = np.abs(_kernels.grid_values(*torus._term_arrays(f), m, 0.5))
    kept = full[full >= entropy.SINGULARITY_FLOOR]
    if not kept.size:
        return
    mean, excluded = entropy._log_mean(f, m)
    assert excluded == full.size - kept.size
    guard = _kernels.grid_error_bound(*torus._term_arrays(f), m, 0.5)
    assert mean == pytest.approx(np.mean(np.log(kept)), abs=4 * guard / kept.min() + 1e-13)


@settings(max_examples=80, deadline=None)
@given(aliased_polys(), st.booleans(), st.data())
def test_split_blocks_fold_as_the_whole_half_grid(case, odd, data):
    exps, coefs, m, offset = case
    m += odd != m % 2  # both parities of m at every d
    d = exps.shape[1]
    terms: dict = {}
    for e, c in zip(map(tuple, exps.tolist()), coefs.tolist()):
        terms[e] = terms.get(e, 0) + int(c)
    f = GroupRingElement(d, terms)
    if f.is_zero():
        return
    exps, coefs = torus._term_arrays(f)
    h = _kernels.half_rows(m, offset)
    # up to one row of values makes every block one row; two or three rows leave a partial last block
    budget = data.draw(st.integers(1, 3 * m ** (d - 1)), label="budget")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "BLOCK_VALUES", budget)
        half = half_grid(exps, coefs, m, offset)
        full = np.abs(_kernels.grid_values(exps, coefs, m, offset))[:h]
        assert half.shape == full.shape
        assert np.abs(half - full).max() <= _kernels.grid_error_bound(exps, coefs, m, offset)

        # certification keeps the first minimum in C order, as np.argmin does
        blocks = half_grid(exps, coefs, m, 0.0)
        grid_min, coords = torus._grid_minimum(exps, coefs, m)
        first = int(np.argmin(blocks))
        assert grid_min == blocks.flat[first]
        assert coords == [int(c) for c in np.unravel_index(first, blocks.shape)]

        # the Mahler mean: each row weighted 2 for its mirror, the middle row of an odd m 1
        blocks = half_grid(exps, coefs, m, 0.5)
        weight = np.full(len(blocks), 2.0)
        weight[-1] -= m % 2
        weight = weight.reshape((-1,) + (1,) * (d - 1)) * np.ones_like(blocks)
        mask = blocks >= entropy.SINGULARITY_FLOOR
        logs = np.log(np.where(mask, blocks, 1.0))
        kept = int(weight[mask].sum())
        if not kept:
            with pytest.raises(ValueError, match="below the singularity floor"):
                entropy._log_mean(f, m)
            return
        mean, excluded = entropy._log_mean(f, m)
    assert excluded == m ** d - kept
    scale = float((weight * np.abs(logs)).sum()) / kept
    assert abs(mean - float((weight * logs).sum()) / kept) <= 1e-12 * scale


@pytest.mark.parametrize("blocks", [
    [[[3.0, 1.0], [2.0, 1.0]], [[1.0, 0.5]], [[0.5, 0.5]]],  # ties within and across blocks
    [[[3.0, 1.0]], [[np.nan, 0.5]], [[0.1, np.nan]]],  # the first NaN is least
    [[[np.nan, 1.0]], [[0.0, 0.5]]],
])
def test_grid_minimum_folds_blocks_as_np_argmin(monkeypatch, blocks):
    blocks = [np.array(b) for b in blocks]
    starts = np.cumsum([0] + [len(b) for b in blocks[:-1]]).tolist()
    monkeypatch.setattr(_kernels, "grid_abs_values", lambda *args: zip(starts, blocks))
    whole = np.concatenate(blocks)
    first = int(np.argmin(whole))
    grid_min, coords = torus._grid_minimum(None, None, 4)
    assert grid_min == whole.flat[first] or np.isnan(grid_min) and np.isnan(whole.flat[first])
    assert coords == [int(c) for c in np.unravel_index(first, whole.shape)]


@pytest.mark.parametrize("m", [5, 7, 63, 1025])
def test_mahler_excludes_the_self_mirrored_row_once(m):
    # 1 + u1 vanishes at theta = 1/2, the middle midpoint (m - 1)/2 + 1/2 of an odd m
    f = parse_element("1 + u1")
    value, excluded = entropy._log_mean(f, m)
    assert excluded == 1
    full = np.abs(_kernels.grid_values(*torus._term_arrays(f), m, 0.5))
    assert value == pytest.approx(np.mean(np.log(full[full >= entropy.SINGULARITY_FLOOR])), abs=1e-13)


@pytest.mark.parametrize("d,m", [(1, 65536), (2, 512), (3, 64), (1, 1000), (1, 97)])
def test_grid_error_bound_small_at_default_grids(d, m):
    # the largest default grids of certification and Mahler quadrature, and
    # d = 1 sizes that split unevenly (1000 = 25 * 40) or not at all (prime 97);
    # the polynomial differs per axis and under n -> -n, and axis 0 has the
    # most distinct exponents
    eye = np.eye(d, dtype=np.int64)
    exps = np.vstack([np.zeros((1, d), dtype=np.int64), eye, -eye, 2 * eye[:1]])
    coefs = np.array([3.0 * d + 5] + [-1.0 - k for k in range(d)] + [-1.0] * d + [2.0])
    f = GroupRingElement(d, {tuple(e): int(c) for e, c in zip(exps.tolist(), coefs)})
    rng = np.random.default_rng(m)
    for offset in (0.0, 0.5):
        guard = _kernels.grid_error_bound(exps, coefs, m, offset)
        assert 0 < guard < 1e-10 * float(np.abs(coefs).sum())
        vals = _kernels.grid_values(exps, coefs, m, offset)
        tol = guard + _evaluate_error_bound(exps, coefs)
        for p in rng.integers(0, m ** d, size=256):
            j = np.unravel_index(int(p), (m,) * d)
            theta = tuple((int(ji) + offset) / m for ji in j)
            assert abs(vals[j] - evaluate(f, theta)) <= tol


def test_greedy_separated_semantics():
    vals = np.array([[0.0], [0.05], [0.5], [0.92]])
    kept = _kernels.greedy_separated(vals, 0.1)
    # 0.05 within 0.1 of 0.0; 0.92 within 0.1 of 0.0 after wraparound
    assert list(kept) == [0, 2]
    assert list(_kernels.greedy_separated(vals, 0.6)) == [0]


def test_greedy_separated_empty():
    assert len(_kernels.greedy_separated(np.zeros((0, 3)), 0.1)) == 0
