"""Exact arithmetic in the integral group ring of Z^d.

Elements are integer-coefficient Laurent polynomials in d commuting
variables u1..ud, stored sparsely as a mapping from exponent vectors to
nonzero integer coefficients.  Everything here is exact: coefficients are
arbitrary-precision integers and norms are integers, which is what the
certification layers downstream rely on.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
from typing import Mapping, Sequence

from . import _sparse
from ._sparse import CapExceeded


# Largest elimination entry, in terms, that det builds before CapExceeded.
DET_TERM_CAP = 200_000


class DimensionMismatch(ValueError):
    """Operands live over different Z^d."""


def as_int(v, what: str = "a value") -> int:
    """v as an int: a Python or numpy integer; a bool, float, str or anything
    else is refused rather than truncated."""
    if isinstance(v, bool) or not hasattr(v, "__index__"):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return operator.index(v)


def _as_exponent(e, d: int | None) -> tuple[int, ...]:
    """e as an exponent tuple of length d (any length when d is None); a bare
    integer stands for the site (e,) of Z^1."""
    if not (type(e) is tuple and all(type(v) is int for v in e)):  # a tuple of ints needs no check
        if isinstance(e, str) or not hasattr(e, "__iter__"):
            e = [as_int(e, "an exponent")]
            if d not in (None, 1):
                raise ValueError("bare integer exponent only valid when d=1")
        e = tuple(as_int(v, "an exponent") for v in e)
    if d is not None and len(e) != d:
        raise ValueError(f"exponent {e} has length {len(e)}, expected {d}")
    return e


def norm_sites(sites, d: int | None = None) -> list[tuple[int, ...]]:
    """Sites of Z^d as exponent tuples, each checked to have length d; when d
    is None the first site fixes it."""
    out = []
    for s in sites:
        t = _as_exponent(s, d)
        d = len(t)
        out.append(t)
    return out


class GroupRingElement:
    """An element of Z[u1^±1, ..., ud^±1] with finite support."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Mapping | None = None):
        d = d if type(d) is int else as_int(d, "the dimension d")
        if d < 1:
            raise ValueError("dimension must be a positive integer")
        self.d = d
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for e, c in terms.items():
                c = c if type(c) is int else as_int(c, "a coefficient")
                if c == 0:
                    continue
                clean[_as_exponent(e, d)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "GroupRingElement":
        return cls(d, {})

    @classmethod
    def constant(cls, d: int, c: int) -> "GroupRingElement":
        return cls(d, {(0,) * d: c})

    @classmethod
    def one(cls, d: int) -> "GroupRingElement":
        return cls.constant(d, 1)

    @classmethod
    def monomial(cls, d: int, exponent, coef: int = 1) -> "GroupRingElement":
        return cls(d, {_as_exponent(exponent, d): coef})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "GroupRingElement") -> None:
        if self.d != other.d:
            raise DimensionMismatch(f"dimensions differ: {self.d} vs {other.d}")

    def __add__(self, other) -> "GroupRingElement":
        if isinstance(other, int):
            other = GroupRingElement.constant(self.d, other)
        self._check(other)
        return GroupRingElement(self.d, _sparse.add_to(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.d, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "GroupRingElement":
        if isinstance(other, int):
            other = GroupRingElement.constant(self.d, other)
        return self + (-other)

    def __rsub__(self, other) -> "GroupRingElement":
        return (-self) + other

    def __mul__(self, other) -> "GroupRingElement":
        if isinstance(other, int):
            if other == 0:
                return GroupRingElement.zero(self.d)
            return GroupRingElement(self.d, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        return GroupRingElement(self.d, _sparse.conv(other.terms, self.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GroupRingElement":
        if n < 0:
            raise ValueError("negative powers are not ring elements; use torus.l1_inverse")
        result = GroupRingElement.one(self.d)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def star(self) -> "GroupRingElement":
        """Involution: reflect every exponent vector through the origin."""
        return GroupRingElement(self.d, {tuple(-x for x in e): c for e, c in self.terms.items()})

    def shift(self, t) -> "GroupRingElement":
        """Multiply by the monomial u^t."""
        t = _as_exponent(t, self.d)
        return GroupRingElement(self.d, {tuple(x + y for x, y in zip(e, t)): c for e, c in self.terms.items()})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def l1_norm(self) -> int:
        return sum(abs(c) for c in self.terms.values())

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.terms)

    def coefficient(self, e) -> int:
        return self.terms.get(_as_exponent(e, self.d), 0)

    def num_terms(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == GroupRingElement.constant(self.d, other)
        return isinstance(other, GroupRingElement) and self.d == other.d and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.d, tuple(sorted(self.terms.items()))))

    # -- text / JSON forms -------------------------------------------------

    def __repr__(self) -> str:
        return f"GroupRingElement({self.format()!r}, d={self.d})"

    def format(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(abs(x) for x in t), t)):
            c = self.terms[e]
            mono = "*".join(
                f"u{i+1}" + (f"^{p}" if p != 1 else "")
                for i, p in enumerate(e)
                if p != 0
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def to_obj(self) -> dict:
        return {
            "d": self.d,
            "terms": [{"exp": list(e), "coef": self.terms[e]} for e in sorted(self.terms)],
        }

    @classmethod
    def from_obj(cls, obj) -> "GroupRingElement":
        if isinstance(obj, str):
            return parse_element(obj)
        try:
            return cls(obj["d"], {tuple(t["exp"]): t["coef"] for t in obj["terms"]})
        except (KeyError, TypeError):
            raise ValueError('an element object is {"d": d, "terms": [{"exp": [...], "coef": c}, ...]}, '
                             f"got {obj!r}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True)


_TOKEN = re.compile(r"\s*([+-]|\*|\d+|u\d*(?:\^-?\d+)?)")


def parse_element(text: str, d: int | None = None) -> GroupRingElement:
    """Parse expressions like "3 - u1 - u1^-1" or "4 - u1 - u2^-1".

    Grammar: terms joined by +/-, each term a product (optional '*') of an
    integer coefficient and variable powers u<k>^<e>.  A bare "u" means u1.
    """
    if not isinstance(text, str):
        raise ValueError(f"a polynomial is a string such as '3 - u1', got {text!r}")
    pos = 0
    tokens: list[str] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"parse error at position {pos}: {text[pos:pos+10]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    # first pass: find dimension
    max_var = 0
    for t in tokens:
        if t.startswith("u"):
            head = t.split("^")[0]
            idx = int(head[1:]) if len(head) > 1 else 1
            if idx == 0:
                raise ValueError(f"variable {head}: indices start at u1")
            max_var = max(max_var, idx)
    if d is None:
        d = max(max_var, 1)
    elif max_var > d:
        raise ValueError(f"variable u{max_var} exceeds declared dimension {d}")

    terms: dict[tuple[int, ...], int] = {}
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        if tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -1
            i += 1
            if i < n and tokens[i] in "+-":
                raise ValueError("consecutive signs in expression")
        if i >= n:
            raise ValueError("dangling sign at end of expression")
        coef = sign
        exp = [0] * d
        saw_factor = False
        while i < n and tokens[i] not in "+-":
            t = tokens[i]
            if t == "*":
                i += 1
                continue
            if t.isdigit():
                coef *= int(t)
            else:
                head, _, p = t.partition("^")
                idx = int(head[1:]) if len(head) > 1 else 1
                exp[idx - 1] += int(p) if p else 1
            saw_factor = True
            i += 1
        if not saw_factor:
            raise ValueError("empty term")
        k = tuple(exp)
        v = terms.get(k, 0) + coef
        if v:
            terms[k] = v
        else:
            terms.pop(k, None)
    return GroupRingElement(d, terms)


def _entry(e, d: int | None) -> GroupRingElement:
    """A matrix entry: a polynomial string, an element object or a GroupRingElement."""
    if isinstance(e, GroupRingElement):
        return e
    if isinstance(e, str):
        return parse_element(e, d)
    if isinstance(e, dict):
        return GroupRingElement.from_obj(e)
    raise ValueError(f"a matrix entry is a polynomial string or an element object, got {e!r}")


class GroupRingMatrix:
    """Rectangular matrix over GroupRingElement with a shared dimension d."""

    __slots__ = ("rows", "cols", "d", "entries", "_det")

    def __init__(self, entries: Sequence[Sequence[GroupRingElement]]):
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        self.rows = len(entries)
        self.cols = len(entries[0])
        d = entries[0][0].d
        for row in entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            for e in row:
                if e.d != d:
                    raise DimensionMismatch("matrix entries live over different Z^d")
        self.d = d
        self.entries = [list(row) for row in entries]
        self._det = None

    @classmethod
    def identity(cls, k: int, d: int) -> "GroupRingMatrix":
        one = GroupRingElement.one(d)
        zero = GroupRingElement.zero(d)
        return cls([[one if i == j else zero for j in range(k)] for i in range(k)])

    @classmethod
    def from_obj(cls, obj, d: int | None = None) -> "GroupRingMatrix":
        """A matrix from a nonempty list of nonempty rows of entries (see _entry)."""
        if not (isinstance(obj, list) and obj and all(isinstance(row, list) and row for row in obj)):
            raise ValueError(f'a matrix is a nonempty list of nonempty rows, such as [["3 - u1"]], got {obj!r}')
        rows = [[_entry(e, d) for e in row] for row in obj]
        dd = d or max(e.d for row in rows for e in row)
        norm = [[e if e.d == dd else GroupRingElement(dd, {(_pad(k, dd)): c for k, c in e.terms.items()}) for e in row] for row in rows]
        return cls(norm)

    def to_obj(self) -> list:
        return [[e.to_obj() for e in row] for row in self.entries]

    def __getitem__(self, ij) -> GroupRingElement:
        i, j = ij
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def star(self) -> "GroupRingMatrix":
        """Involution: transpose and reflect every entry."""
        return GroupRingMatrix(
            [[self.entries[j][i].star() for j in range(self.rows)] for i in range(self.cols)]
        )

    def __add__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return GroupRingMatrix(
            [[self.entries[i][j] + other.entries[i][j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def __mul__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        if self.d != other.d:
            raise DimensionMismatch(f"dimensions differ: {self.d} vs {other.d}")
        rhs = [[e.terms for e in row] for row in other.entries]
        return GroupRingMatrix([
            [GroupRingElement(self.d, t) for t in _sparse.vecmat([e.terms for e in row], rhs)]
            for row in self.entries
        ])

    def l1_norm(self) -> int:
        return sum(e.l1_norm() for row in self.entries for e in row)

    def det(self) -> GroupRingElement:
        """Exact determinant: the row-swap sign times the last pivot of
        _sparse.gauss_jordan, or 0 below full rank.  An elimination entry
        of more than DET_TERM_CAP terms raises CapExceeded.  A matrix is
        not changed after construction, so the elimination runs once and
        later calls return its result."""
        if self._det is not None:
            return self._det
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        rows = [[e.terms for e in row] for row in self.entries]
        pivots, sign = _sparse.gauss_jordan(rows, DET_TERM_CAP)
        if len(pivots) < self.rows:
            self._det = GroupRingElement.zero(self.d)
        else:
            self._det = GroupRingElement(self.d, rows[-1][-1]) * sign
        return self._det

    def adjugate(self) -> "GroupRingMatrix":
        """adj(A) with A*adj(A) = adj(A)*A = det(A)*I (commutative base ring)."""
        if not self.is_square():
            raise ValueError("adjugate of a non-square matrix")
        k = self.rows
        if k == 1:
            return GroupRingMatrix([[GroupRingElement.one(self.d)]])
        out = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                sub = [
                    [self.entries[r][c] for c in range(k) if c != j]
                    for r in range(k) if r != i
                ]
                m = GroupRingMatrix(sub).det()
                out[j][i] = m if (i + j) % 2 == 0 else -m
        return GroupRingMatrix(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingMatrix)
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash(tuple(tuple(row) for row in self.entries))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(e.format() for e in row) for row in self.entries)
        return f"GroupRingMatrix[{body}]"


def _pad(e: tuple[int, ...], d: int) -> tuple[int, ...]:
    return e + (0,) * (d - len(e))


def ball(d: int, r: int) -> list[tuple[int, ...]]:
    """All lattice points with max-norm at most r, sorted."""
    return list(itertools.product(range(-r, r + 1), repeat=d))
