"""Seeded request lists for the four benchmark workloads.

A request is one call of ``algdyn.cli.main``.  It carries the argv (file
arguments as ``{tmp}/name`` placeholders), the JSON files the worker must
write before the pass, and a ``check`` record with the facts the oracle
needs.  Every planted answer is built with the benchmark's own arithmetic
(``laurent``), never with algdyn.

The seed only chooses among inputs of equal cost: coefficients, symmetry
images (negation, u -> u^-1, x -> -x) and catalogue entries whose work
counts are known to agree.  Structure (subcommand, dimension, term count,
window, nmax) is fixed per slot, so two seeds load the program alike while
sending different inputs.
"""

from __future__ import annotations

import math
import random

import laurent as L

WORKLOADS = ("spectral", "homoclinic_cold", "homoclinic_shared", "counting")

WHY = {
    "spectral": "grid scans, exact det and Bareiss dominate; planted invertible, "
    "exact-zero and irrational-zero inputs; no Fraction inverses",
    "homoclinic_cold": "every request recomputes a Fraction Newton l1 inverse of a new "
    "presentation, then the ie double check, shadow or packing greedy",
    "homoclinic_shared": "five-stage pipelines on one presentation: one inverse, the "
    "other stages hit the cache, so cache loss shows only here",
    "counting": "Peters row dedupe and free-group Fraction convolution, "
    "which no other workload touches",
}


def _req(kind, argv, check, files=None):
    return {"kind": kind, "argv": argv, "check": check, "files": files or {}}


# -- presentations -----------------------------------------------------------


def _dominant(rng, d, nterms, coef_max=3, span=2):
    """Random element whose constant term beats the rest by a wide margin.

    The slack exceeds lipschitz/32, so the certified margin stays positive on
    any grid of 16 or more points per axis.
    """
    exps = set()
    while len(exps) < nterms:
        e = tuple(rng.randint(-span, span) for _ in range(d))
        if any(e):
            exps.add(e)
    p = {e: rng.choice([c for c in range(-coef_max, coef_max + 1) if c]) for e in sorted(exps)}
    lip = 2 * math.pi * sum(abs(c) * sum(abs(x) for x in e) for e, c in p.items())
    p[(0,) * d] = rng.choice((1, -1)) * (L.l1(p) + math.ceil(lip / 32) + rng.randint(1, 3))
    return p


def _planted_factor(rng, d, nterms):
    """(u_i -+ 1) * g with g dominant: zeros exactly where theta_i is 0 or 1/2."""
    axis = rng.randrange(d)
    s = rng.choice((1, -1))
    f = L.mul(L.sub(L.var(d, axis), L.const(d, s)), _dominant(rng, d, nterms))
    return f, {"axis": axis, "zero": "0" if s == 1 else "1/2"}


# c - a(u + u^-1) vanishes where cos(2 pi theta) = c/2a; none of these ratios
# is 0, +-1/2 or +-1, so by Niven's theorem every zero is irrational.
_IRRATIONAL = [(3, 2), (2, 3), (5, 4), (3, 4), (5, 3), (1, 3), (7, 5), (4, 3), (7, 4), (1, 4)]


def _irrational(rng):
    c, a = rng.choice(_IRRATIONAL)
    sg = rng.choice((1, -1))
    return {(0,): sg * c, (1,): -sg * a, (-1,): -sg * a}


def _monomial(rng, d, span=1):
    e = tuple(rng.randint(-span, span) for _ in range(d))
    return {e: rng.choice((1, -1))}


def _planted_matrix(rng, d, k, nterms, factor=False):
    """A = L U with unit lower L and upper U: det A = prod of U's diagonal."""
    diag = [_dominant(rng, d, nterms, coef_max=2, span=1) for _ in range(k)]
    plant = None
    if factor:
        diag[0], plant = _planted_factor(rng, d, nterms)
    one, zero = L.const(d, 1), {}
    Lm = [[one if i == j else (_monomial(rng, d) if j < i else zero) for j in range(k)] for i in range(k)]
    Um = [[diag[i] if i == j else (_monomial(rng, d) if j > i else zero) for j in range(k)] for i in range(k)]
    A = L.matmul(Lm, Um)
    det = {(0,) * d: 1}
    for g in diag:
        det = L.mul(det, g)
    return A, det, plant


def _matrix_file(A, d):
    return {"d": d, "entries": [[L.fmt(p) for p in row] for row in A]}


def _mcheck(A, det, d, plant=None):
    return {
        "matrix": [[L.to_json(p) for p in row] for row in A],
        "det": L.to_json(det),
        "d": d,
        "plant": "factor" if plant else "dominant",
        "zero": plant,
    }


# Options take values as "--poly=..." because argparse reads a lone value
# such as "-u1^-3" as an option name.


# -- spectral ----------------------------------------------------------------


def _spectral(rng):
    out = []

    def poly_req(kind, argv, f, d, plant, zero=None, extra=None):
        chk = {"poly": L.to_json(f), "d": d, "plant": plant, "zero": zero, **(extra or {})}
        out.append(_req(kind, argv + ["--poly=" + L.fmt(f)], chk))

    def mat_req(kind, argv, d, k, factor=False, extra=None):
        A, det, plant = _planted_matrix(rng, d, k, 2, factor)
        name = f"m{len(out)}.json"
        chk = {**_mcheck(A, det, d, plant), **(extra or {})}
        out.append(_req(kind, argv + ["--matrix", "{tmp}/" + name], chk, {name: _matrix_file(A, d)}))

    expansive, mahler = ["expansive"], ["entropy", "--method", "mahler"]
    entropy_check = {"check_entropy": True}
    for _ in range(2):
        for d, nterms, n in ((1, 4, 4), (2, 5, 4), (3, 5, 2)):
            for _ in range(n):
                poly_req("expansive", expansive, _dominant(rng, d, nterms, span=2 if d < 3 else 1), d, "dominant")
        for d, n in ((1, 2), (2, 2), (3, 1)):
            for _ in range(n):
                f, z = _planted_factor(rng, d, 3)
                poly_req("expansive", expansive, f, d, "factor", z)
        for _ in range(3):
            poly_req("expansive", expansive, _irrational(rng), 1, "irrational")
        for d in (1, 2):
            poly_req("expansive", expansive + ["--check-entropy"], _dominant(rng, d, 4), d, "dominant",
                     extra=entropy_check)

        mat_req("expansive", expansive, 1, 2)
        mat_req("expansive", expansive + ["--check-entropy"], 1, 2, extra=entropy_check)
        mat_req("expansive", expansive, 2, 2)
        mat_req("expansive", expansive + ["--check-entropy"], 2, 2, extra=entropy_check)
        mat_req("expansive", expansive + ["--check-entropy"], 1, 3, extra=entropy_check)
        mat_req("expansive", expansive, 1, 2, factor=True)

        for d, n in ((1, 4), (2, 3), (3, 2)):
            for _ in range(n):
                poly_req("mahler", mahler, _dominant(rng, d, 4, span=2 if d < 3 else 1), d, "dominant")
        f, z = _planted_factor(rng, 1, 3)
        poly_req("mahler", mahler, f, 1, "factor", z)

        for d, k in ((1, 2), (2, 2), (2, 2), (1, 3)):
            mat_req("duality", ["duality"], d, k)
    poly_req("mahler", mahler, _irrational(rng), 1, "irrational")
    return out


# -- homoclinic workloads ----------------------------------------------------

# (c, a, b) for c - a u1 - b u1^-1 whose ie run on a 24-site window at
# eps = 0.1 has the same interaction ball |K| and subset |F1| within a tier.
_IE_LIGHT = [(3, 1, 1), (6, 2, 2), (9, 3, 3), (7, 3, 2), (8, 3, 3)]  # |F1| = 5, |K| = 5
_IE_HEAVY = [(5, 2, 1), (9, 4, 2)]  # |F1| = 8, |K| = 3
# ... and whose packing family on a 30-site window has 2^6 members.  The
# family grows as 2^|F1|, so faster-decaying inverses would blow it up.
_PACKING = [(12, 4, 4), (10, 4, 2), (11, 4, 3), (7, 2, 2), (10, 3, 3)]
# Matrix pipelines use windows of 8 sites: at most 2^8 witnesses or family
# members whatever the decay of the inverse.
_MATRIX_WINDOW = 8


class _Distinct:
    """Hands out presentations no earlier request of the pass has used."""

    def __init__(self, rng):
        self.rng = rng
        self.seen = set()

    def take(self, make):
        for _ in range(1000):
            f = make(self.rng)
            key = L.fmt(f) if isinstance(f, dict) else repr(f)
            if key not in self.seen:
                self.seen.add(key)
                return f
        raise RuntimeError("ran out of distinct presentations")


def _tridiag(c, a, b, sg=1):
    return {(0,): sg * c, (1,): -sg * a, (-1,): -sg * b}


# Requests use the CLI defaults tol = 1e-10 and radius = 40.
_TOL, _RADIUS = 1e-10, 40


def _truncation_residual(c, a, b, radius=_RADIUS):
    """l1 norm of f g - 1 for f = c - a u - b u^-1 and g its exact inverse
    cut to |n| <= radius: the residual the program's inverse reaches when
    the tolerance is out of reach.

    g_n = s^n / D for n >= 0 and t^n / D for n < 0, where s < 1 < t are the
    roots of b x^2 - c x + a and D = sqrt(c^2 - 4ab); only the four
    coefficients of f g next to the cut are not cancelled.
    """
    disc = math.sqrt(c * c - 4 * a * b)
    s, t = (c - disc) / (2 * b), (c + disc) / (2 * b)
    return (b * s ** (radius + 1) + a * s ** radius + a * t ** -(radius + 1) + b * t ** -radius) / disc


def _reachable(make):
    """Redraw (c, a, b) until the default request can meet its tolerance.

    An input like 7 - 3 u - 3 u^-1 decays too slowly: no inverse inside the
    radius-40 ball has residual below 1e-10, so the program rightly reports
    a larger one and the oracle's residual check would fail.
    """
    def draw(rng):
        while True:
            c, a, b = make(rng)
            if _truncation_residual(c, a, b) <= _TOL / 2:
                return _tridiag(c, a, b, rng.choice((1, -1)))
    return draw


@_reachable
def _d1_scalar(rng):
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    return math.ceil(1.5 * (a + b)) + rng.randint(0, 4), a, b


@_reachable
def _d1_symmetric(rng):
    a = rng.randint(1, 3)
    return 2 * a + 1 + rng.randint(0, 5), a, a


def _catalogue(tier):
    def make(rng):
        c, a, b = rng.choice(tier)
        if rng.random() < 0.5:
            a, b = b, a
        return _tridiag(c, a, b, rng.choice((1, -1)))
    return make


def _d2_laplacian(rng):
    """+-(c - u1 - u1^-1 - u2 - u2^-1), c in {6, 7}: equal inverse cost."""
    c = rng.choice((6, 7))
    p = {(0, 0): c, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1}
    return p if rng.random() < 0.5 else L.neg(p)


def _d1_matrix(rng):
    A, _, _ = _planted_matrix(rng, 1, 2, 2)
    return A


def _element(rng, d, k):
    comps = []
    for _ in range(k):
        m = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(-3, 3) for _ in range(d))
            m = L.add(m, {e: rng.choice((1, 2, 3, -1, -2))})
        comps.append(m or L.const(d, 1))
    return comps


def _input_args(pres, d, files, name):
    """CLI arguments naming a presentation: --poly for 1x1, else a matrix file."""
    if isinstance(pres, dict):
        return ["--poly=" + L.fmt(pres)], [[pres]]
    files[name] = _matrix_file(pres, d)
    return ["--matrix", "{tmp}/" + name], pres


def _shadow_config(rng, pres, d, A):
    """Two blocks far beyond any gap radius the radius-40 inverse can give."""
    gap = rng.randint(60, 70)
    if d == 1:
        base = rng.randint(0, 2)
        w1 = [base + i for i in range(5)]
        w2 = [gap + i for i in range(5)]
        m1, m2 = L.mono(1, (w1[0] + 2,)), L.mono(1, (gap + 2,), rng.choice((1, 2)))
        periodic = [2 * gap + 8]
    else:
        w1 = [[0, 0], [0, 1], [1, 0]]
        w2 = [[gap, 0], [gap, 1]]
        m1, m2 = L.mono(2, (1, 1)), L.mono(2, (gap, 0), rng.choice((1, 2)))
        periodic = [[2 * gap + 8, 0], [0, 2 * gap + 8]]
    pad = ["0"] * (len(A) - 1)
    cfg = {"eps": 0.05, "blocks": [{"window": w1, "m": [L.fmt(m1)] + pad}, {"window": w2, "m": [L.fmt(m2)] + pad}]}
    if rng.random() < 0.5:
        cfg["periodic"] = periodic
    if isinstance(pres, dict):
        cfg["poly"] = L.fmt(pres)
    else:
        cfg["matrix"] = [[L.fmt(p) for p in row] for row in pres]
    return cfg


def _hcheck(A, d, extra=None):
    return {"matrix": [[L.to_json(p) for p in row] for row in A], "d": d, **(extra or {})}


def _stage(kind, pres, d, rng, files, tag, window=None):
    """One homoclinic-layer request on a given presentation: (kind, args, check)."""
    args, A = _input_args(pres, d, files, f"{tag}.json")
    if kind == "homoclinic":
        return kind, ["homoclinic"] + args, _hcheck(A, d)
    if kind == "element":
        m = _element(rng, d, len(A))
        return kind, ["homoclinic"] + args + ["--element=" + ";".join(L.fmt(c) for c in m)], \
            _hcheck(A, d, {"element": [L.to_json(c) for c in m]})
    if kind == "ie":
        return kind, ["ie"] + args + ["--eps", "0.1", "--window", str(window)], _hcheck(A, d, {"eps": 0.1})
    if kind == "packing":
        return kind, ["entropy", "--method", "packing"] + args + ["--window", str(window)], _hcheck(A, d)
    if kind == "shadow":
        name = f"{tag}-shadow.json"
        files[name] = _shadow_config(rng, pres, d, A)
        return kind, ["shadow", "--config", "{tmp}/" + name], _hcheck(A, d, {"eps": 0.05})
    raise ValueError(kind)


def _homoclinic_cold(rng):
    out = []
    fresh = _Distinct(rng)

    def add(kind, pres, d, window=None):
        files = {}
        kind, argv, chk = _stage(kind, pres, d, rng, files, f"c{len(out)}", window)
        out.append(_req(kind, argv, chk, files))

    for _ in range(2):
        for _ in range(4):
            add("homoclinic", fresh.take(_d1_scalar), 1)
        for _ in range(2):
            add("element", fresh.take(_d1_symmetric), 1)
        for _ in range(4):
            add("homoclinic", fresh.take(_d1_matrix), 1)
        add("element", fresh.take(_d1_matrix), 1)
        for _ in range(4):
            add("ie", fresh.take(_catalogue(_IE_LIGHT)), 1, window=24)
        for _ in range(2):
            add("ie", fresh.take(_catalogue(_IE_HEAVY)), 1, window=24)
        for _ in range(3):
            add("shadow", fresh.take(_d1_scalar), 1)
        for _ in range(4):
            add("packing", fresh.take(_catalogue(_PACKING)), 1, window=30)
    add("homoclinic", fresh.take(_d2_laplacian), 2)
    return out


def _homoclinic_shared(rng):
    out = []
    fresh = _Distinct(rng)

    def pipeline(pres, d, ie_window, pack_window):
        files, stages, checks = {}, [], []
        tag = f"p{len(out)}"
        for kind, window in (("homoclinic", None), ("element", None), ("ie", ie_window),
                             ("shadow", None), ("packing", pack_window)):
            kind, argv, chk = _stage(kind, pres, d, rng, files, tag, window)
            stages.append({"command": argv[0], "args": _argv_to_params(argv)})
            checks.append({"kind": kind, **chk})
        name = f"{tag}-pipeline.json"
        files[name] = stages
        out.append(_req("pipeline", ["pipeline", "--config", "{tmp}/" + name], {"stages": checks}, files))

    pipeline(fresh.take(_d2_laplacian), 2, 3, 3)
    for _ in range(8):
        pipeline(fresh.take(_d1_matrix), 1, _MATRIX_WINDOW, _MATRIX_WINDOW)
    return out


def _argv_to_params(argv):
    """CLI argv -> the params dict a pipeline stage passes to the handler."""
    tokens = []
    for a in argv[1:]:
        tokens.extend(a.split("=", 1) if a.startswith("--") else [a])
    params = {}
    for key, val in zip(tokens[::2], tokens[1::2]):
        key = key[2:].replace("-", "_")
        params[key] = float(val) if key == "eps" else int(val) if key == "window" else val
    return params


# -- counting ----------------------------------------------------------------

# Monic unit-constant polynomials (coefficients low -> high) with the nmax
# that makes their Peters series sum to about 8k, 40k or 200k rows, and one
# of Mahler measure above 2, where all 2^n sums are distinct.  Row counts
# alone do not fix the cost (np.unique time differs twofold between
# polynomials of equal rows), so the polynomials are fixed and the seed only
# picks the image x -> -x, whose sets are translates: counts and cost agree.
_PETERS = [
    ([-1, -1, -1, 1], 13), ([1, 0, -1, 1, 1], 14),
    ([1, -1, 0, 1], 22), ([-1, 1, -2, 1], 16), ([1, -1, 0, 0, 1], 19),
    ([-1, -1, 1], 22), ([-1, -2, -1, 0, 1], 18),
    ([1, -2, -2, 1], 16),
]
# (rank, order, radius) of equal cost within a group.
_FREEGROUP = [
    [(2, 4, 7), (2, 5, 8)],
    [(2, 3, 6), (2, 4, 6)],
    [(3, 3, 6), (3, 4, 6)],
    [(3, 3, 5)],
    [(4, 2, 4)],
]


def _mirror(coeffs):
    """f(-x), made monic again."""
    sign = (-1) ** (len(coeffs) - 1)
    return [sign * (-1) ** i * c for i, c in enumerate(coeffs)]


def _peters(coeffs, nmax):
    f = {(i,): c for i, c in enumerate(coeffs) if c}
    return _req("peters", ["entropy", "--method", "peters", "--poly=" + L.fmt(f), "--nmax", str(nmax)],
                {"coeffs": coeffs, "nmax": nmax})


def _counting(rng):
    out = []
    for coeffs, nmax in _PETERS:
        out.append(_peters(_mirror(coeffs) if rng.random() < 0.5 else coeffs, nmax))
    for group in _FREEGROUP:
        r, o, rad = rng.choice(group)
        out.append(_req("freegroup", ["freegroup-check", "--rank", str(r), "--order", str(o),
                                      "--radius", str(rad)], {"rank": r, "order": o, "radius": rad}))
    return out


_GENERATORS = {
    "spectral": _spectral,
    "homoclinic_cold": _homoclinic_cold,
    "homoclinic_shared": _homoclinic_shared,
    "counting": _counting,
}


def generate(name: str, seed: int, smoke: bool = False) -> list[dict]:
    """The request list of one pass.

    Every list has an odd length: a run pools passes of identical lists, so
    the pooled median then falls among the copies of one request instead of
    between two.  Smoke size keeps one cheap request per kind, for the
    benchmark's tests.
    """
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"algdyn-bench:{name}:{seed}")
    reqs = _GENERATORS[name](rng)
    if smoke:
        reqs = _smoke(name, reqs)
    rng.shuffle(reqs)
    for i, r in enumerate(reqs):
        r["id"] = i
    return reqs


def _smoke(name, reqs):
    keep, seen = [], set()
    for r in reqs:
        chk = r["check"]
        dims = [chk.get("d")] + [s.get("d") for s in chk.get("stages", [])]
        if name != "spectral" and 2 in dims:
            continue
        if r["kind"] == "peters" and int(r["argv"][-1]) > 14:
            continue
        if r["kind"] == "freegroup" and chk["rank"] != 4:
            continue
        key = (r["kind"], r["argv"][0], "--matrix" in r["argv"])
        if key not in seen:
            seen.add(key)
            keep.append(r)
    return keep
