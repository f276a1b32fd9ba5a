"""Decision procedures for expansiveness and finite entropy.

A finitely presented action is described by a matrix A over the group ring
of Z^d: the acting group shifts the dual of (ZG)^k/(ZG)^n A.  Square
presentations with A invertible in the l1 algebra are expansive, with
expansiveness constant 1/||A||_1.  Finiteness of entropy is equivalent to
injectivity of right multiplication by the involuted matrix on row vectors
over the group ring, which reduces to an exact rank computation over the
rational function field; rank deficiency yields an explicit kernel witness
and infinite entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .groupring import CapExceeded, GroupRingElement, GroupRingMatrix
from . import torus

EXPANSIVE = "Expansive"
NOT_EXPANSIVE = "NotExpansive"
UNKNOWN = "Unknown"

FINITE = "Finite"
INFINITE = "Infinite"


@dataclass(frozen=True)
class PresentedAction:
    """Presentation data: A is n x k, presenting the dual of (ZG)^k/(ZG)^n A."""

    k: int
    n: int
    A: GroupRingMatrix

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ValueError("k and n must be positive")
        if (self.A.rows, self.A.cols) != (self.n, self.k):
            raise ValueError(
                f"matrix shape {(self.A.rows, self.A.cols)} != (n, k) = {(self.n, self.k)}"
            )

    @classmethod
    def from_matrix(cls, A: GroupRingMatrix) -> "PresentedAction":
        return cls(k=A.cols, n=A.rows, A=A)


@dataclass
class ExpansivenessReport:
    verdict: str
    expansive_constant: Fraction | None
    certificate: torus.TorusCertificate
    note: str = ""

    def to_obj(self) -> dict:
        return {
            "verdict": self.verdict,
            "expansive_constant": None if self.expansive_constant is None else str(self.expansive_constant),
            "certificate": self.certificate.to_obj(),
            "note": self.note,
        }


@dataclass
class FiniteEntropyReport:
    verdict: str  # Finite | Infinite | Unknown
    rank: int | None
    k: int
    witness: list[GroupRingElement] | None
    note: str = ""

    def to_obj(self) -> dict:
        return {
            "verdict": self.verdict,
            "rank": self.rank,
            "k": self.k,
            "witness": None if self.witness is None else [w.to_obj() for w in self.witness],
            "note": self.note,
        }


def is_expansive_principal(f: GroupRingElement, m: int | None = None) -> ExpansivenessReport:
    """Expansiveness of the shift action cut out by a single group-ring element."""
    return _report(torus.certify_invertible(f, m), f)


def is_expansive_square(action: PresentedAction | GroupRingMatrix, m: int | None = None) -> ExpansivenessReport:
    """Expansiveness for a square presentation, via the exact determinant."""
    A = action.A if isinstance(action, PresentedAction) else action
    if not A.is_square():
        raise ValueError("square presentation required")
    try:
        cert = torus.certify_matrix_invertible(A, m)
    except CapExceeded as exc:
        dummy = torus.TorusCertificate(torus.UNKNOWN, 0, 0.0, 0.0, 0.0, note=str(exc))
        return ExpansivenessReport(UNKNOWN, None, dummy, note=str(exc))
    return _report(cert, A)


def _report(cert: torus.TorusCertificate, A: GroupRingElement | GroupRingMatrix) -> ExpansivenessReport:
    """The verdict of a torus certificate for A, with constant 1/||A||_1."""
    if cert.verdict == torus.INVERTIBLE:
        return ExpansivenessReport(EXPANSIVE, Fraction(1, A.l1_norm()), cert)
    if cert.verdict == torus.NOT_INVERTIBLE:
        return ExpansivenessReport(NOT_EXPANSIVE, None, cert)
    return ExpansivenessReport(UNKNOWN, None, cert, note=cert.note)


# -- exact rank over the rational function field ------------------------------


class ExactDivisionError(ArithmeticError):
    pass


def _lex_leading(p: GroupRingElement) -> tuple[int, ...]:
    return max(p.terms)


def exact_divide(p: GroupRingElement, q: GroupRingElement) -> GroupRingElement:
    """Exact quotient p/q in Z[u1..ud]; raises if q does not divide p."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return GroupRingElement.zero(p.d)
    lt_q = _lex_leading(q)
    cq = q.terms[lt_q]
    rem = dict(p.terms)
    out: dict[tuple[int, ...], int] = {}
    while rem:
        lt = max(rem)
        c = rem[lt]
        diff = tuple(a - b for a, b in zip(lt, lt_q))
        if c % cq != 0:
            raise ExactDivisionError("leading coefficient does not divide")
        ch = c // cq
        out[diff] = out.get(diff, 0) + ch
        for eq, cqq in q.terms.items():
            k = tuple(a + b for a, b in zip(diff, eq))
            v = rem.get(k, 0) - ch * cqq
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return GroupRingElement(p.d, out)


def _clear_columns(C: GroupRingMatrix) -> GroupRingMatrix:
    """Right-multiply by a diagonal of monomials so all exponents are >= 0.

    Column scaling by invertible monomials preserves left kernels.
    """
    d = C.d
    cols = []
    for j in range(C.cols):
        shift = [0] * d
        for i in range(C.rows):
            for e in C.entries[i][j].terms:
                for t in range(d):
                    shift[t] = max(shift[t], -e[t])
        cols.append(tuple(shift))
    out = [
        [C.entries[i][j].shift(cols[j]) for j in range(C.cols)]
        for i in range(C.rows)
    ]
    return GroupRingMatrix(out)


def _bareiss_echelon(M: list[list[GroupRingElement]], term_cap: int = 50_000):
    """Fraction-free echelon form with column pivoting.

    Returns (rows, pivot_cols): the surviving nonzero rows and the columns
    where their pivots sit.  Entries stay in Z[u1..ud] throughout; each
    update divides exactly by the previous pivot (Sylvester identity).
    """
    if not M:
        return [], []
    d = M[0][0].d
    rows = [list(r) for r in M]
    nrows, ncols = len(rows), len(rows[0])
    prev = GroupRingElement.one(d)
    piv_cols: list[int] = []
    r = 0
    for col in range(ncols):
        if r >= nrows:
            break
        # pick the nonzero pivot with the smallest support, for swell control
        cand = [(rows[i][col].num_terms(), i) for i in range(r, nrows) if not rows[i][col].is_zero()]
        if not cand:
            continue
        _, pi = min(cand)
        rows[r], rows[pi] = rows[pi], rows[r]
        piv = rows[r][col]
        for i in range(r + 1, nrows):
            if all(rows[i][c].is_zero() for c in range(ncols)):
                continue
            head = rows[i][col]
            for c in range(ncols):
                if c == col:
                    continue
                num = piv * rows[i][c] - head * rows[r][c]
                rows[i][c] = exact_divide(num, prev) if not num.is_zero() else num
                if rows[i][c].num_terms() > term_cap:
                    raise CapExceeded("elimination expression swell beyond cap")
            rows[i][col] = GroupRingElement.zero(d)
        prev = piv
        piv_cols.append(col)
        r += 1
    return rows[:r], piv_cols


def _kernel_vector(echelon_rows, piv_cols, ncols, d) -> list[GroupRingElement]:
    """A nonzero right-kernel vector of the echelon rows, by signed maximal minors."""
    free = [c for c in range(ncols) if c not in piv_cols]
    c0 = free[0]
    cols = sorted(piv_cols + [c0])
    r = len(echelon_rows)
    x = [GroupRingElement.zero(d)] * ncols
    for i, col in enumerate(cols):
        keep = [c for c in cols if c != col]
        sub = [[row[c] for c in keep] for row in echelon_rows]
        minor = GroupRingMatrix(sub).det() if r > 0 else GroupRingElement.one(d)
        x[col] = minor if i % 2 == 0 else -minor
    return x


def has_finite_entropy(action: PresentedAction | GroupRingMatrix) -> FiniteEntropyReport:
    """Finite iff right multiplication by the involuted presenting matrix is
    injective on (ZG)^k, i.e. the k x n matrix A* has full row rank k over
    the rational function field.  Rank deficiency returns an exact kernel
    witness (a nonzero row vector annihilating A*)."""
    if isinstance(action, GroupRingMatrix):
        action = PresentedAction.from_matrix(action)
    A = action.A
    k = action.k
    C = _clear_columns(A.star())  # k x n, entries in Z[u]
    B = [[C.entries[i][j] for i in range(C.rows)] for j in range(C.cols)]  # transpose: n x k
    try:
        ech, piv = _bareiss_echelon(B)
    except CapExceeded as exc:
        return FiniteEntropyReport(UNKNOWN, None, k, None, note=str(exc))
    rank = len(piv)
    if rank == k:
        return FiniteEntropyReport(FINITE, rank, k, None)
    try:
        x = _kernel_vector(ech, piv, k, A.d)
    except CapExceeded as exc:
        return FiniteEntropyReport(UNKNOWN, rank, k, None, note=str(exc))
    # verify the witness against the original involuted matrix, exactly
    if not all(e.is_zero() for e in (GroupRingMatrix([x]) * A.star()).entries[0]):
        raise AssertionError("kernel witness failed exact verification")
    return FiniteEntropyReport(INFINITE, rank, k, x)


def entropy_finiteness_equals_one_expansiveness_note(
    action: PresentedAction | GroupRingMatrix,
) -> tuple[FiniteEntropyReport, str]:
    """Finite-entropy verdict plus the equivalence chain it certifies.

    For finitely presented actions the following are equivalent: finite
    topological entropy, 1-expansiveness, 2-expansiveness, and injectivity
    of the map a -> a A* on integer (equivalently real) row vectors.  The
    returned text ties the computed rank verdict to that chain.
    """
    if isinstance(action, GroupRingMatrix):
        action = PresentedAction.from_matrix(action)
    rep = has_finite_entropy(action)
    A = action.A
    if rep.verdict == FINITE:
        bound = action.n * math.log(2 * A.l1_norm() + 1)
        text = (
            f"rank(A*) = k = {rep.k} over the rational function field: the map "
            "a -> a A* is injective on integer row vectors, so the action is "
            "1-expansive (equivalently 2-expansive) and its entropy is finite, "
            f"at most n log(2||A||_1 + 1) = {bound:.6f} nats."
        )
    elif rep.verdict == INFINITE:
        text = (
            f"rank(A*) = {rep.rank} < k = {rep.k}: an exact nonzero row vector with "
            "a A* = 0 exists (witness attached), so the action is not 1-expansive "
            "and its entropy is infinite."
        )
    else:
        text = "rank computation exceeded the size cap; no verdict is claimed."
    return rep, text
