import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algdyn.groupring import (
    DIMENSION_CAP,
    DimensionMismatch,
    GroupRingElement,
    GroupRingMatrix,
    as_int,
    norm_sites,
    parse_element,
)
from conftest import det_by_minors, frac_center, group_ring_matrices, random_element

E = GroupRingElement


def u(p=1):
    return E.monomial(1, p)


def test_add_additive_inverse():
    assert (u() - 2) + (2 - u()) == E.zero(1)


def test_add_cancels_constants():
    assert (u() - 2) + (u() + 2) == 2 * u()


def test_add_harmonic_negation(f_harmonic):
    assert f_harmonic + (-f_harmonic) == E.zero(2)


def test_add_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        parse_element("u1", d=1) + parse_element("u2")


def test_mul_difference_of_squares():
    assert (u() - 2) * (u() + 2) == u(2) - 4


def test_mul_identity():
    assert (u() - 2) * E.one(1) == u() - 2


def test_mul_square_of_symmetric():
    # (3 - u - u^-1)^2, frozen from a hand convolution
    f = parse_element("3 - u1 - u1^-1")
    expected = parse_element("11 - 6*u1 - 6*u1^-1 + u1^2 + u1^-2")
    assert f * f == expected


def test_involution_examples():
    assert (u() - 2).star() == u(-1) - 2
    f = parse_element("3 - u1 - u1^-1")
    assert f.star() == f


def test_involution_matrix_shape():
    m = GroupRingMatrix([[E.monomial(2, (1, 0)), E.monomial(2, (0, 2))]])
    s = m.star()
    assert (s.rows, s.cols) == (2, 1)
    assert s[0, 0] == E.monomial(2, (-1, 0))
    assert s[1, 0] == E.monomial(2, (0, -2))


def test_l1_norms(f_harmonic):
    assert (u() - 2).l1_norm() == 3
    assert f_harmonic.l1_norm() == 8
    assert E.zero(1).l1_norm() == 0


def _elements(d):
    exps = st.tuples(*[st.integers(-2, 2)] * d)
    return st.dictionaries(exps, st.integers(-4, 4), max_size=4).map(lambda t: E(d, t))


@st.composite
def _element_triples(draw):
    d = draw(st.integers(1, 3))
    return tuple(draw(_elements(d)) for _ in range(3))


@st.composite
def _matrix_pairs(draw):
    d, k = draw(st.integers(1, 2)), draw(st.integers(2, 3))
    entries = st.lists(st.lists(_elements(d), min_size=k, max_size=k), min_size=k, max_size=k)
    return GroupRingMatrix(draw(entries)), GroupRingMatrix(draw(entries))


@settings(max_examples=200, deadline=None)
@given(_element_triples())
def test_ring_axioms_random(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a


@settings(max_examples=200, deadline=None)
@given(_element_triples())
def test_involution_antihomomorphism_random(abc):
    a, b, _ = abc
    assert (a * b).star() == b.star() * a.star()
    assert (a + b).star() == a.star() + b.star()
    assert a.star().l1_norm() == a.l1_norm()
    assert a.star().star() == a


def test_submultiplicative_random():
    rng = np.random.default_rng(17)
    for _ in range(60):
        a, b = random_element(rng, 2), random_element(rng, 2)
        assert (a * b).l1_norm() <= a.l1_norm() * b.l1_norm()


@settings(max_examples=60, deadline=None)
@given(_matrix_pairs())
def test_matrix_involution_antihomomorphism_random(AB):
    A, B = AB
    assert (A * B).star() == B.star() * A.star()
    assert A.star().star() == A


@settings(max_examples=60, deadline=None)
@given(_matrix_pairs())
def test_adjugate_and_det_multiplicativity_random(AB):
    A, B = AB
    det = A.det()
    scalar = GroupRingMatrix([[det if i == j else E.zero(A.d) for j in range(A.rows)] for i in range(A.rows)])
    assert A * A.adjugate() == scalar
    assert A.adjugate() * A == scalar
    assert (A * B).det() == det * B.det()
    assert A.star().det() == det.star()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: group_ring_matrices(k, k)))
@example(GroupRingMatrix.from_obj([["3 - u1 + u1^2", "2 + u1^-1"], ["1", "0"]]))  # one row swap
def test_det_equals_minor_expansion_oracle(A):
    assert A.det() == det_by_minors(A)


def test_det_and_adjugate():
    f = parse_element("3 - u1")
    g = parse_element("3 - u1^-1")
    A = GroupRingMatrix([[f, E.one(1)], [E.zero(1), g]])
    assert A.det() == f * g
    adj = A.adjugate()
    prod = A * adj
    det = A.det()
    assert prod[0, 0] == det and prod[1, 1] == det
    assert prod[0, 1].is_zero() and prod[1, 0].is_zero()


def test_parse_and_format_roundtrip():
    for text in ["3 - u1 - u1^-1", "u1 - 2", "4 - u1 - u1^-1 - u2 - u2^-1", "0", "2*u1^3 + 5"]:
        f = parse_element(text)
        assert parse_element(f.format(), d=f.d) == f


def test_parse_products_and_aliases():
    assert parse_element("u^2") == u(2)
    f = parse_element("2*u1^2*u2^-1", d=2)
    assert f == E.monomial(2, (2, -1), 2)
    with pytest.raises(ValueError):
        parse_element("3 + + ")
    with pytest.raises(ValueError):
        parse_element("u3", d=2)


def test_parse_refuses_variable_index_zero():
    for text in ["u0 + u2", "u0", "3 - u00^2"]:
        with pytest.raises(ValueError, match="indices start at u1"):
            parse_element(text)


@pytest.mark.parametrize("text", ["1 + u1*-1", "2*u1*-1", "3 * - u1", "3*", "*3", "3**u1"])
def test_parse_refuses_a_star_not_between_two_factors(text):
    # the first three used to read as u1, -1 + 2*u1 and 3 - u1; the others as 3, 3 and 3*u1
    with pytest.raises(ValueError, match="parse error at position"):
        parse_element(text)


def test_parse_accepts_trailing_whitespace():
    assert parse_element("3 - u1 - u1^-1 ") == parse_element("  3 - u1 - u1^-1\t\n")
    assert parse_element("3 - u1 - u1^-1 ") == 3 - u() - u(-1)
    for text in ("", " ", "\t\n "):
        assert parse_element(text) == E.zero(1)


def test_dimension_over_the_cap_is_refused_before_anything_of_its_size_is_built():
    assert parse_element(f"u{DIMENSION_CAP} - 3").d == DIMENSION_CAP
    huge = 10_000_000_000_000
    refusals = [
        lambda: parse_element(f"u{huge} - 3"),  # used to build [0] * 10^13: MemoryError
        lambda: parse_element(f"u{DIMENSION_CAP + 1}"),
        lambda: parse_element("3", d=huge),
        lambda: E(huge),
        lambda: E.from_obj({"d": huge, "terms": []}),
        lambda: E.from_obj({"d": 1, "terms": []}, d=huge),
        lambda: GroupRingMatrix.from_obj({"d": huge, "entries": [["3"]]}),
        lambda: GroupRingMatrix.from_obj({"d": huge, "entries": [[{"d": 1, "terms": []}]]}),
    ]
    for refuse in refusals:
        with pytest.raises(ValueError, match=f"DIMENSION_CAP = {DIMENSION_CAP}"):
            refuse()


def test_matrix_object_form_reads_every_entry_in_its_declared_dimension():
    entry = {"d": 1, "terms": [{"exp": [1], "coef": -1}, {"exp": [0], "coef": 3}]}
    A = GroupRingMatrix.from_obj({"d": 2, "entries": [[entry, "u2"], [E.one(1), "0"]]})
    assert A.d == 2
    assert A[0, 0] == E(2, {(1, 0): -1, (0, 0): 3})
    assert A[0, 1] == E.monomial(2, (0, 1))
    assert A[1, 0] == E.one(2)
    # without "d", the largest entry dimension
    assert GroupRingMatrix.from_obj({"entries": [[entry, "u2"], [E.one(1), "0"]]}) == A
    assert GroupRingMatrix.from_obj([[entry, "u2"], [E.one(1), "0"]]) == A
    with pytest.raises(ValueError, match="exceeds declared dimension 1"):
        GroupRingMatrix.from_obj({"d": 1, "entries": [["u2"]]})
    with pytest.raises(DimensionMismatch, match="exceeds declared dimension 1"):
        GroupRingMatrix.from_obj({"d": 1, "entries": [[E.monomial(2, (0, 1))]]})
    for d in (0, -1):
        with pytest.raises(ValueError, match='a matrix\'s "d" must be from 1'):
            GroupRingMatrix.from_obj({"d": d, "entries": [["3"]]})


@st.composite
def _spelled_elements(draw):
    """An element of Z^d, d <= 3, and one of its spellings: '*' or
    juxtaposition, u for u1, a coefficient as a product, u1*u1 for u1^2,
    terms split in two, factors in any order, extra spaces, a leading +."""
    d = draw(st.integers(1, 3))
    drawn = draw(st.lists(st.tuples(st.tuples(*[st.integers(-5, 5)] * d), st.integers(-12, 12)), max_size=6))
    space = st.sampled_from(["", " ", "  "])
    pieces = []
    for e, c in drawn:
        for part in ([c] if draw(st.booleans()) else [c - 1, 1]):  # repeated terms sum
            factors = []
            for i, p in enumerate(e):
                name = "u" if i == 0 and draw(st.booleans()) else f"u{i + 1}"
                split = draw(st.integers(-5, 5)) if p and draw(st.booleans()) else 0
                for q in (split, p - split):
                    if q:
                        factors.append(name if q == 1 and draw(st.booleans()) else f"{name}^{q}")
            a = abs(part)
            divisors = [k for k in range(2, a) if a % k == 0]
            if divisors and draw(st.booleans()):
                k = draw(st.sampled_from(divisors))
                factors += [str(k), str(a // k)]
            elif a != 1 or not factors or draw(st.booleans()):
                factors.append(str(a))
            factors = draw(st.permutations(factors))
            body = factors[0]
            for f in factors[1:]:
                joins = ["*", " * ", " "] + ([""] if f.startswith("u") else [])
                body += draw(st.sampled_from(joins)) + f
            sign = "-" if part < 0 else draw(st.sampled_from(["+", ""])) if not pieces else "+"
            pieces.append(draw(space) + sign + draw(space) + body + draw(space))
    terms = {}
    for e, c in drawn:
        terms[e] = terms.get(e, 0) + c
    return "".join(pieces), E(d, terms)


@settings(max_examples=400, deadline=None)
@given(_spelled_elements())
def test_parse_reads_every_spelling_of_an_element(spelled):
    text, f = spelled
    assert parse_element(text, d=f.d) == f


def test_json_roundtrip(f_harmonic):
    obj = json.loads(f_harmonic.to_json())
    assert obj["d"] == 2
    assert {"exp": [0, 0], "coef": 4} in obj["terms"]
    assert GroupRingElement.from_obj(obj) == f_harmonic


def test_matrix_json_roundtrip():
    A = GroupRingMatrix([[parse_element("u1 - 2"), E.one(1)], [E.zero(1), parse_element("3 - u1")]])
    B = GroupRingMatrix.from_obj(A.to_obj())
    assert A == B
    C = GroupRingMatrix.from_obj([["u1 - 2", "1"], ["0", "3 - u1"]])
    assert C == A


def test_frac_center_ranges():
    from fractions import Fraction

    assert frac_center(Fraction(1, 2)) == Fraction(-1, 2)
    assert frac_center(Fraction(3, 4)) == Fraction(-1, 4)
    assert frac_center(Fraction(-1, 2)) == Fraction(-1, 2)
    assert frac_center(Fraction(-7, 3)) == Fraction(-1, 3)


def test_as_int_accepts_python_and_numpy_integers_only():
    assert [as_int(v) for v in (3, -2**80, np.int64(7), np.uint8(200))] == [3, -2**80, 7, 200]
    assert all(type(as_int(v)) is int for v in (np.int64(7), np.uint8(200)))
    for v in (True, np.bool_(False), 2.0, 3.7, np.float64(1.0), "7", None):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {v!r}")):
            as_int(v)


@pytest.mark.parametrize("terms, text", [
    ([([0], 1), ([0], 2)], "3"),  # used to read as 2: the last repeat won
    ([([0], 1), ([0], -1), ([1], 1)], "u1"),  # used to read as -1 + u1
    ([([1], 2), ([0], 5), ([1], -2)], "5"),
])
def test_element_object_sums_repeated_exponents_as_parse_element_does(terms, text):
    obj = {"d": 1, "terms": [{"exp": e, "coef": c} for e, c in terms]}
    assert E.from_obj(obj) == parse_element(text)


@pytest.mark.parametrize("obj", [
    {"d": 1, "terms": [{"exp": [0], "coef": 3.7}]},
    {"d": 1, "terms": [{"exp": [1.9], "coef": -1}]},
    {"d": 1, "terms": [{"exp": [0], "coef": "7"}]},
    {"d": 1, "terms": [{"exp": "1", "coef": 1}]},
    {"d": 1, "terms": [{"exp": [True], "coef": 1}]},
    {"d": 1, "terms": [{"exp": [0], "coef": True}]},
    {"d": True, "terms": [{"exp": [0], "coef": 1}]},
    {"d": 1.0, "terms": [{"exp": [0], "coef": 1}]},
])
def test_element_objects_with_non_integers_are_refused(obj):
    # each of these used to be truncated by int() or read as 1
    with pytest.raises(ValueError, match="must be an integer"):
        E.from_obj(obj)


def test_non_integer_sites_and_constants_are_refused():
    with pytest.raises(ValueError, match="'12'"):
        norm_sites(["12"])
    with pytest.raises(ValueError, match="1.5"):
        norm_sites([(0, 1.5)])
    with pytest.raises(ValueError, match="True"):
        norm_sites([True])
    with pytest.raises(ValueError, match="2.5"):
        E.constant(1, 2.5)
    with pytest.raises(ValueError, match="0.5"):
        E.monomial(1, (0.5,))
    # numpy integers are integers, and a bare one is a site of Z^1
    assert norm_sites([np.int64(4), (np.int32(5),)]) == [(4,), (5,)]
    assert E(1, {(np.int64(2),): np.int64(3)}).terms == {(2,): 3}
