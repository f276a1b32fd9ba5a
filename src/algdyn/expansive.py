"""Decision procedures for expansiveness and finite entropy.

A finitely presented action is described by an n x k matrix A over the
group ring of Z^d (a GroupRingMatrix, with n = A.rows and k = A.cols): the
acting group shifts the dual of (ZG)^k/(ZG)^n A.  Square
presentations with A invertible in the l1 algebra are expansive, with
expansiveness constant 1/||A||_1.  Finiteness of entropy is equivalent to
injectivity of right multiplication by the involuted matrix on row vectors
over the group ring, which reduces to an exact rank computation over the
rational function field.  That rank comes from _sparse.gauss_jordan, the
package's one fraction-free elimination over the Laurent ring; rank
deficiency yields an explicit kernel witness, read off its reduced rows,
and infinite entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._sparse import CapExceeded, ExactDivisionError
from .groupring import GroupRingElement, GroupRingMatrix
from . import _sparse, torus
from ._report import Report

EXPANSIVE = "Expansive"
NOT_EXPANSIVE = "NotExpansive"
UNKNOWN = "Unknown"

FINITE = "Finite"
INFINITE = "Infinite"

RANK_TERM_CAP = 50_000  # largest elimination entry, in terms, before the rank is Unknown


@dataclass
class ExpansivenessReport(Report):
    verdict: str
    expansive_constant: Fraction | None
    certificate: torus.TorusCertificate
    note: str = ""


@dataclass
class FiniteEntropyReport(Report):
    verdict: str  # Finite | Infinite | Unknown
    rank: int | None
    k: int
    witness: list[GroupRingElement] | None
    note: str = ""


def is_expansive_principal(f: GroupRingElement, m: int | None = None) -> ExpansivenessReport:
    """Expansiveness of the shift action cut out by a single group-ring element."""
    return _report(torus.certify_invertible(f, m), f)


def is_expansive_square(A: GroupRingMatrix, m: int | None = None) -> ExpansivenessReport:
    """Expansiveness for a square presentation, via the exact determinant."""
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


def exact_divide(p: GroupRingElement, q: GroupRingElement) -> GroupRingElement:
    """Exact quotient p/q in the group ring; raises ExactDivisionError if q
    does not divide p."""
    p._check(q)
    return GroupRingElement(p.d, _sparse.exact_div(p.terms, q.terms))


def has_finite_entropy(A: GroupRingMatrix) -> FiniteEntropyReport:
    """Finite iff right multiplication by the involuted presenting matrix is
    injective on (ZG)^k, i.e. the k x n matrix A* has full row rank k over
    the rational function field.  Rank deficiency returns an exact kernel
    witness (a nonzero row vector annihilating A*).

    A row vector x has x A* = 0 iff B x = 0 for the n x k matrix B of the
    entries of A, each reflected.  gauss_jordan reduces B to rows R_i with
    D at pivot column p_i; for a free column c0, x[c0] = D and
    x[p_i] = -R_i[c0] (zero elsewhere) is the witness.
    """
    k = A.cols
    rows = [[e.star().terms for e in row] for row in A.entries]
    try:
        pivots, _ = _sparse.gauss_jordan(rows, term_cap=RANK_TERM_CAP)
    except CapExceeded as exc:
        return FiniteEntropyReport(UNKNOWN, None, k, None, note=str(exc))
    rank = len(pivots)
    if rank == k:
        return FiniteEntropyReport(FINITE, rank, k, None)
    c0 = min(set(range(k)).difference(pivots))
    x = [GroupRingElement.zero(A.d)] * k
    x[c0] = GroupRingElement(A.d, rows[rank - 1][pivots[-1]]) if rank else GroupRingElement.one(A.d)
    for row, p in zip(rows, pivots):
        x[p] = -GroupRingElement(A.d, row[c0])
    # verify the witness against the original involuted matrix, exactly
    if not all(e.is_zero() for e in (GroupRingMatrix([x]) * A.star()).entries[0]):
        raise torus.VerificationError("kernel witness failed exact verification")
    return FiniteEntropyReport(INFINITE, rank, k, x)


def entropy_finiteness_equals_one_expansiveness_note(
    A: GroupRingMatrix,
) -> tuple[FiniteEntropyReport, str]:
    """Finite-entropy verdict plus the equivalence chain it certifies.

    For finitely presented actions the following are equivalent: finite
    topological entropy, 1-expansiveness, 2-expansiveness, and injectivity
    of the map a -> a A* on integer (equivalently real) row vectors.  The
    returned text ties the computed rank verdict to that chain.
    """
    rep = has_finite_entropy(A)
    if rep.verdict == FINITE:
        bound = A.rows * math.log(2 * A.l1_norm() + 1)
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
