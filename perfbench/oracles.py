"""Independent checks of algdyn reports.

Each check compares a report with facts planted by the generator or
recomputed here by another method: Jensen's formula on ``np.roots`` for
univariate Mahler measures, FFT quadrature and FFT inverses on the torus,
the closed form 1/sqrt(c^2 - 4ab) for tridiagonal inverses, exact
``A adj(A) = det(A) I`` in the benchmark's own ring arithmetic, exact
witness evaluation, and a pure-Python recount of the Peters sets.

``check(request, exit_code, report)`` returns ``(problems, verdicts)``: the
list of failed assertions (empty when the report is right) and the torus
certificate verdicts the report carries, for the Unknown share.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import laurent as L

MAHLER_TOL = 1e-8
DUALITY_TOL = 1e-12
HOMOCLINIC_TOL = 1e-8
INVERSE_RESIDUAL_TOL = Fraction(1, 10**10)
PETERS_RECOUNT_ROWS = 20_000

_DEFINITE = {"Expansive": "Invertible", "NotExpansive": "NotInvertible"}


class _Report:
    def __init__(self):
        self.problems: list[str] = []
        self.verdicts: list[str] = []

    def expect(self, ok, msg):
        if not ok:
            self.problems.append(msg)


def check(req: dict, code: int, report: dict | None) -> tuple[list[str], list[str]]:
    r = _Report()
    if code == 1 or report is None:
        r.problems.append(f"exit status {code}, no report")
        return r.problems, r.verdicts
    try:
        _CHECKS[req["kind"]](req["check"], report, r)
        if req["kind"] == "expansive":
            unknown = report["report"]["verdict"] == "Unknown"
            r.expect(code == (2 if unknown else 0), f"exit status {code} does not match the verdict")
        else:
            r.expect(code == 0, f"exit status {code}")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        r.problems.append(f"malformed report: {exc!r}")
    return r.problems, r.verdicts


# -- torus certificates --------------------------------------------------------


def _lipschitz(f: dict) -> float:
    return 2.0 * math.pi * float(sum(abs(c) * sum(abs(x) for x in e) for e, c in f.items()))


def _certificate(chk: dict, f: dict, cert: dict, r: _Report) -> None:
    """Verdict against the plant; an Invertible margin against our own scan."""
    d = chk["d"]
    v = cert["verdict"]
    r.verdicts.append(v)
    plant = chk["plant"]
    if v == "Unknown":
        return
    if plant == "dominant":
        r.expect(v == "Invertible", f"dominant-constant input certified {v}")
    elif plant == "factor":
        r.expect(v == "NotInvertible", f"planted u_i -+ 1 factor certified {v}")
    else:
        r.expect(v == "NotInvertible", f"irrational-zero input certified {v}")
    if v == "Invertible":
        lip = _lipschitz(f)
        r.expect(lip <= cert["lipschitz"] <= lip * (1 + 1e-8), "lipschitz bound does not match det")
        m = int(cert["grid_size"])
        own = float(np.abs(L.grid_values(f, d, m)).min())
        slack = 1e-9 * L.l1(f)
        r.expect(abs(cert["grid_min"] - own) <= slack, f"grid_min {cert['grid_min']} vs {own}")
        r.expect(0 < cert["margin"] <= own + slack, "certified margin is not a lower bound")
    elif v == "NotInvertible":
        w = cert["witness"]
        r.expect(w is not None and len(w) == d, "NotInvertible without a witness")
        if w is None:
            return
        theta = [Fraction(t) for t in w]
        if plant == "factor":
            zero = chk["zero"]
            # the dominant cofactor never vanishes, so f vanishes exactly
            # where the planted linear factor does
            r.expect(theta[zero["axis"]] == Fraction(zero["zero"]), f"witness {w} misses the planted zero")
            if all(t in (0, Fraction(1, 2)) for t in theta):
                r.expect(L.is_zero_at_half_integers(f, theta), f"f(witness {w}) != 0")
        else:
            r.expect(abs(L.value_at(f, theta)) <= 1e-9 * L.l1(f), f"f(witness {w}) != 0")


def _own_log_mahler(f: dict, d: int) -> float:
    if d == 1:
        return L.jensen_log_mahler(f)
    m = {2: 256, 3: 48}[d]
    return float(np.mean(np.log(np.abs(L.grid_values(f, d, m, 0.5)))))


def _det_of(chk: dict, r: _Report) -> tuple[list, dict]:
    """The planted matrix and determinant, after proving A adj(A) = det I."""
    if "poly" in chk:
        f = L.from_json(chk["poly"])
        return [[f]], f
    A = [[L.from_json(p) for p in row] for row in chk["matrix"]]
    det = L.from_json(chk["det"])
    prod = L.matmul(A, L.adjugate(A))
    k = len(A)
    ident = all(prod[i][j] == (det if i == j else {}) for i in range(k) for j in range(k))
    r.expect(ident, "A adj(A) != det(A) I for the planted determinant")
    return A, det


# -- spectral ------------------------------------------------------------------


def _expansive(chk, rep, r):
    A, f = _det_of(chk, r)
    body = rep["report"]
    _certificate(chk, f, body["certificate"], r)
    v = body["verdict"]
    cv = body["certificate"]["verdict"]
    r.expect(_DEFINITE.get(v, "Unknown") == cv, f"verdict {v} disagrees with certificate {cv}")
    if v == "Expansive":
        norm = sum(L.l1(p) for row in A for p in row)
        r.expect(body["expansive_constant"] == str(Fraction(1, norm)), "expansive constant != 1/||A||_1")
    if chk.get("check_entropy"):
        fin = rep["finite_entropy"]
        # det A != 0 exactly, so A* has full rank over the function field
        r.expect(fin["verdict"] == "Finite" and fin["rank"] == len(A), f"finite entropy {fin['verdict']}")


def _mahler(chk, rep, r):
    _, f = _det_of(chk, r)
    cert = rep["certificate_chain"]["torus_certificate"]
    _certificate(chk, f, cert, r)
    est = rep["estimate"]
    target = _own_log_mahler(f, chk["d"])
    tol = MAHLER_TOL if cert["verdict"] == "Invertible" else max(MAHLER_TOL, 4 * est["error_bound"])
    r.expect(abs(est["value"] - target) <= tol, f"Mahler {est['value']} vs oracle {target}")


def _duality(chk, rep, r):
    _, det = _det_of(chk, r)
    _certificate(chk, det, rep["certificate_chain"]["torus_certificate"], r)
    body = rep["report"]
    r.expect(abs(body["entropy"] - body["entropy_star"]) <= DUALITY_TOL, "entropy != entropy of A*")
    r.expect(body["difference"] <= DUALITY_TOL, "duality difference above 1e-12")
    target = _own_log_mahler(det, chk["d"])
    r.expect(abs(body["entropy"] - target) <= MAHLER_TOL, f"entropy {body['entropy']} vs oracle {target}")


# -- homoclinic layer ------------------------------------------------------------


def _matrix(chk) -> list:
    return [[L.from_json(p) for p in row] for row in chk["matrix"]]


def _chain(chk, rep, r):
    chain = rep["certificate_chain"]
    A = _matrix(chk)
    det = A[0][0] if len(A) == 1 else L.det(A)
    _certificate({**chk, "plant": "dominant"}, det, chain["torus_certificate"], r)
    r.expect(chain["torus_certificate"]["verdict"] == "Invertible", "presentation not certified")
    r.expect(Fraction(chain["inverse_residual"]) <= INVERSE_RESIDUAL_TOL, "inverse residual above 1e-10")
    return A, det


def _inverse_rows(A: list, d: int) -> np.ndarray:
    """Coefficients of (A*)^-1 by pointwise inversion on a fine torus grid.

    Returns C with C[i, j][n mod m] the coefficient at exponent n.
    """
    m = 512 if d == 1 else 128
    As = L.star_matrix(A)
    k = len(As)
    vals = np.empty((m,) * d + (k, k), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            vals[..., i, j] = L.grid_values(As[i][j], d, m)
    inv = np.linalg.inv(vals)
    axes = tuple(range(d))
    C = np.fft.fftn(inv, axes=axes) / (m ** d)
    return np.moveaxis(C, (d, d + 1), (0, 1)).real


def _circle(a: float, b: float) -> float:
    t = a - b
    return abs(t - round(t))


def _homoclinic(chk, rep, r):
    A, _ = _chain(chk, rep, r)
    d = chk["d"]
    k = len(A)
    C = _inverse_rows(A, d)
    m = C.shape[-1]
    if "element" in chk:
        mv = [L.from_json(p) for p in chk["element"]]
    else:
        mv = [L.const(d, 1 if i == 0 else 0) for i in range(k)]
    lift = rep["point"]["lift"]
    r.expect(len(lift) == k, "point has the wrong number of components")
    checked = 0
    for j, comp in enumerate(lift):
        for entry in comp:
            s = entry["exp"]
            if max(abs(x) for x in s) > 4:
                continue
            want = 0.0
            for i in range(k):
                for e, c in mv[i].items():
                    idx = tuple((a - b) % m for a, b in zip(s, e))
                    want += c * C[(i, j) + idx]
            r.expect(_circle(entry["value"], want) <= HOMOCLINIC_TOL, f"x_{j}{s} = {entry['value']} vs {want}")
            checked += 1
    r.expect(checked > 0, "no lift values near the origin")
    f = A[0][0]
    if k == 1 and d == 1 and "element" not in chk and set(f) == {(0,), (1,), (-1,)}:
        c0, a, b = f[(0,)], f[(1,)], f[(-1,)]
        g0 = math.copysign(1.0, c0) / math.sqrt(c0 * c0 - 4 * a * b)
        at0 = [e["value"] for e in lift[0] if e["exp"] == [0]]
        r.expect(bool(at0) and _circle(at0[0], g0) <= HOMOCLINIC_TOL, "x(0) != 1/sqrt(c^2 - 4ab)")
    r.expect(rep["annihilation_residual"] <= rep["membership_tolerance"], "annihilation residual too large")
    d1 = rep["delta1"]
    r.expect(d1["finite"] and d1["total"] >= d1["rho_sum"] >= 0, "delta1 certificate")


def _ie(chk, rep, r):
    _chain(chk, rep, r)
    body = rep["report"]
    r.expect(body["all_pass"] is True, "ie witnesses do not all pass")
    r.expect(body["eps"] == chk["eps"], "eps not echoed")
    r.expect(body["max_violation"] <= body["eps"], "ie violation above eps")
    r.expect(body["witnesses_checked"] >= 1 and len(body["F1"]) >= 1, "no ie witnesses")


def _shadow(chk, rep, r):
    _chain(chk, rep, r)
    r.expect(rep["all_blocks_within_eps"] is True, "shadow misses a block")
    errs = rep["result"]["block_errors"]
    r.expect(len(errs) == 2 and max(errs) <= chk["eps"], f"block errors {errs}")


def _packing(chk, rep, r):
    _, det = _chain(chk, rep, r)
    p = rep["estimate"]["parameters"]
    r.expect(p["family_size"] == p["levels"] ** len(p["F1"]), "family size != levels^|F1|")
    r.expect(1 <= p["separated_count"] <= p["family_size"], "separated count out of range")
    h = _own_log_mahler(det, chk["d"])
    v = rep["estimate"]["value"]
    r.expect(0 <= v <= h + 1e-9, f"packing bound {v} above the entropy {h}")


def _pipeline(chk, rep, r):
    stages = rep["stages"]
    r.expect(len(stages) == len(chk["stages"]), "pipeline stopped early")
    for sc, st in zip(chk["stages"], stages):
        r.expect(st.get("status") == 0, f"stage {st.get('command')} status {st.get('status')}")
        if "report" in st:
            _CHECKS[sc["kind"]](sc, st["report"], r)


# -- counting --------------------------------------------------------------------


def _companion_inverse(coeffs: list[int]) -> list[list[int]]:
    """Inverse of the companion matrix M (M[i+1][i] = 1, M[i][k-1] = -c_i)."""
    k = len(coeffs) - 1
    M = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k - 1):
        M[i + 1][i] = Fraction(1)
    for i in range(k):
        M[i][k - 1] = Fraction(-coeffs[i])
    aug = [row + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(M)]
    for col in range(k):
        piv = next(p for p in range(col, k) if aug[p][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for p in range(k):
            if p != col and aug[p][col] != 0:
                fct = aug[p][col]
                aug[p] = [x - fct * y for x, y in zip(aug[p], aug[col])]
    inv = [row[k:] for row in aug]
    assert all(x.denominator == 1 for row in inv for x in row)
    return [[int(x) for x in row] for row in inv]


def peters_recount(coeffs: list[int], limit: int = PETERS_RECOUNT_ROWS) -> list[int]:
    """|S_n| for S_1 = {0, e1}, S_n = M^-1 S_{n-1} + {0, e1}, with Python sets."""
    Mi = _companion_inverse(coeffs)
    k = len(Mi)
    e1 = (1,) + (0,) * (k - 1)
    S = {(0,) * k, e1}
    counts = [len(S)]
    while len(S) * 2 <= limit:
        nxt = set()
        for v in S:
            w = tuple(sum(Mi[i][j] * v[j] for j in range(k)) for i in range(k))
            nxt.add(w)
            nxt.add((w[0] + 1,) + w[1:])
        S = nxt
        counts.append(len(S))
    return counts


def _peters(chk, rep, r):
    series = rep["estimate"]["series"]
    r.expect(rep["estimate"]["parameters"]["n_reached"] == chk["nmax"], "series truncated")
    counts = [row["count"] for row in series]
    r.expect(counts == sorted(counts), "counts not monotone")
    own = peters_recount(chk["coeffs"])
    n = min(len(own), len(counts))
    r.expect(counts[:n] == own[:n], f"counts {counts[:n]} vs recount {own[:n]}")


def _freegroup(chk, rep, r):
    body = rep["report"]
    d, L_ = chk["rank"], chk["radius"]
    words = 1 + sum(2 * d * (2 * d - 1) ** (n - 1) for n in range(1, L_ + 1))
    r.expect(body["all_zero"] is True and body["nonzero_radii"] == [], "annihilator identity fails")
    r.expect(body["checked_words"] == words, f"checked {body['checked_words']} words, ball has {words}")
    r.expect((body["rank"], body["order"], body["radius"]) == (d, chk["order"], L_), "parameters not echoed")


_CHECKS = {
    "expansive": _expansive,
    "mahler": _mahler,
    "duality": _duality,
    "homoclinic": _homoclinic,
    "element": _homoclinic,
    "ie": _ie,
    "shadow": _shadow,
    "packing": _packing,
    "pipeline": _pipeline,
    "peters": _peters,
    "freegroup": _freegroup,
}
