"""Canonical printing and parsing: print-then-parse is the identity."""

import random
from fractions import Fraction

import pytest

from trisemi import (
    DilationIndex,
    Element,
    Frequency,
    ParseError,
    Scalar,
    element_text,
    mul,
    parse_dilation,
    parse_element,
    parse_frequency,
)

from helpers import random_element


def test_spec_phrase_round_trips():
    samples = [
        "M(1) * D(2)",
        "exp(-i*1) * M(1) * D(1)",
        "(1/2 + 1/3*i) * M(s2) * V(-h)",
        "2 * M(1 + 1/2*s2) + V(2)",
        "M(-ONE@{-1}) * V(-1)",
        "(1 - i)*exp(i*3/4) * D(-2/3*s3)",
        "1",
    ]
    for text in samples:
        x = parse_element(text)
        assert parse_element(element_text(x)) == x


def test_empty_input_is_the_identity():
    assert parse_element("") == Element.identity()
    assert parse_element("   ") == Element.identity()


def test_decimals_parse_to_exact_rationals():
    assert parse_frequency("0.5") == Frequency.rational(Fraction(1, 2))
    assert parse_frequency("-1.25") == Frequency.rational(Fraction(-5, 4))
    assert parse_dilation("0.75") == DilationIndex.unit(Fraction(3, 4))
    x = parse_element("0.1 * M(1)")
    assert x.coefficient((Frequency.rational(1), Frequency.zero(), DilationIndex.zero())) == Scalar.from_rational(Fraction(1, 10))


def test_adjoint_and_products_in_the_grammar():
    x = parse_element("adj(M(1) * D(2))")
    y = parse_element("M(-1) * D(-2) * exp(-i*2)")
    assert x == y
    z = parse_element("M(1) * (D(1) + V(1))")
    assert z == mul(parse_element("M(1)"), parse_element("D(1) + V(1)"))


def test_scalar_division_in_the_grammar():
    x = parse_element("(1/(1 - exp(i*2))) * M(1)")
    c = x.coefficient((Frequency.rational(1), Frequency.zero(), DilationIndex.zero()))
    one = Scalar.one()
    phase = Scalar.rational_angle(Fraction(2))
    assert c * (one - phase) == one


def test_parse_errors_carry_spans():
    with pytest.raises(ParseError) as info:
        parse_element("M(1) +* D(2)")
    assert info.value.span is not None
    start, end = info.value.span
    assert 0 <= start < end <= len("M(1) +* D(2)")
    with pytest.raises(ParseError):
        parse_element("M(1")
    with pytest.raises(ParseError):
        parse_frequency("1 + ")


@pytest.mark.parametrize("text", ["M(1/0)", "V(1/0)", "exp(i*1/0)", "M(s2@{1/0})", "D(3/0.0)"])
def test_zero_denominator_is_a_parse_error(text):
    with pytest.raises(ParseError) as info:
        parse_element(text)
    start, end = info.value.span
    assert text[start:end] in ("0", "0.0")
    assert text[start - 1] == "/"


def test_thousand_random_round_trips():
    rng = random.Random(2024)
    for _ in range(1000):
        x = random_element(rng, max_terms=4)
        text = element_text(x)
        assert parse_element(text) == x, text


def _only_coefficient(x: Element) -> Scalar:
    (c,) = x.terms.values()
    return c


def test_factored_denominators_print_one_division_per_factor():
    x = parse_element("M(1) / (1 - exp(i*s2)) / (1 - exp(i*s2)) / (2 + exp(i*1))")
    c = _only_coefficient(x)
    assert [(len(f.terms), m) for f, m in c.factors] == [(2, 1), (2, 2)]
    text = element_text(x)
    assert text.count("/(1 - exp(i*s2))") == 2 and "^" not in text
    y = parse_element(text)
    assert y == x
    d = _only_coefficient(y)
    assert d.num.terms == c.num.terms and d.factors == c.factors


def test_opaque_divisor_round_trips():
    x = parse_element("M(1) / (2 + exp(i*1) + exp(i*s2))")
    c = _only_coefficient(x)
    (factor, mult), = c.factors
    assert mult == 1 and len(factor.terms) == 3
    y = parse_element(element_text(x))
    assert y == x
    assert _only_coefficient(y).factors == c.factors
    # the same factor in the numerator cancels; one differing term keeps it
    z = parse_element("(2 + exp(i*1) + exp(i*s2)) * exp(i*s3) / (2 + exp(i*1) + exp(i*s2))")
    assert _only_coefficient(z).factors == ()
    assert z == parse_element("exp(i*s3)")
    w = parse_element("(2 + exp(i*1) + exp(i*s3)) / (2 + exp(i*1) + exp(i*s2))")
    assert len(_only_coefficient(w).factors) == 1


# One row per branch of the combination printer: for each key kind the
# unit key (a bare rational), a coefficient of +-1 (the name alone) and
# another rational (q*name), plus shifted atoms and monomials, both parts
# of an amplitude and negative leading terms.
GOLDEN = [
    ("V(2)", "V(2)"),
    ("V(-h)", "V(-h)"),
    ("V(1/2*h)", "V(1/2*h)"),
    ("V(h - 1)", "V(-1 + h)"),
    ("M(3)", "M(3)"),
    ("M(-s2)", "M(-s2)"),
    ("M(2/3*s2)", "M(2/3*s2)"),
    ("M(ONE@{1})", "M(ONE@{1})"),
    ("M(-2*s2@{-1/2})", "M(-2*s2@{-1/2})"),
    ("D(s3 - 1/2)", "D(-1/2 + s3)"),
    ("V(h)*M(s2)", "M(s2@{h}) * V(h)"),
    ("exp(i*3/4)", "exp(i*3/4)"),
    ("exp(-i*s2)", "exp(-i*s2)"),
    ("exp(i*2*s2)", "exp(i*2*s2)"),
    ("exp(i*s2*s3@{h})", "exp(i*s2*s3@{h})"),
    ("exp(i*ONE@{1})", "exp(i*ONE@{1})"),
    ("exp(-i*(1+s2))", "exp(i*(-1 - s2))"),
    ("exp(i*(s2*s3 - 1/2))", "exp(i*(-1/2 + s2*s3))"),
    ("-1/2", "-1/2"),
    ("i", "i"),
    ("-i*M(1)", "-i * M(1)"),
    ("3/2*i*M(1)", "3/2*i * M(1)"),
    ("(1 - i)*M(1)", "(1 - i) * M(1)"),
    ("(2*i - 1/2)*M(1)", "(-1/2 + 2*i) * M(1)"),
    ("(1+i)*exp(i*s2)", "(1 + i)*exp(i*s2)"),
    # a monomial joins with - when its coefficient is one negative part
    ("-M(1) + D(1)", "D(1) - M(1)"),
    ("3 - i*D(1) - 1/2*M(1)", "3 - i * D(1) - 1/2 * M(1)"),
    # the empty monomial ONE sorts before every atom
    ("M(A + 1)", "M(1 + A)"),
    ("M(O + 1)", "M(1 + O)"),
    ("exp(i*(A + 1))", "exp(i*(1 + A))"),
]


@pytest.mark.parametrize("text, canonical", GOLDEN)
def test_canonical_text(text, canonical):
    x = parse_element(text)
    assert element_text(x) == canonical
    assert parse_element(canonical) == x


@pytest.mark.parametrize(
    "text, message, span",
    [
        ("M(2*)", "expected ')', found '*'", (3, 4)),
        ("V(*h)", "expected a dilation term", (2, 3)),
        ("exp(i*-2)", "expected a phase term", (6, 7)),
        ("exp(i*s2*s3*s2)", "phase monomials have degree at most two", (14, 15)),
    ],
)
def test_malformed_summands_report_message_and_span(text, message, span):
    with pytest.raises(ParseError) as info:
        parse_element(text)
    assert str(info.value) == message
    assert info.value.span == span


@pytest.mark.parametrize(
    "parse, text, message, span",
    [
        (parse_element, "M(1) x", "unexpected trailing input 'x'", (5, 6)),
        (parse_element, "M(1))", "unexpected trailing input ')'", (4, 5)),
        (parse_frequency, "1 s2", "unexpected trailing input 's2'", (2, 4)),
        (parse_dilation, "1/2 h", "unexpected trailing input 'h'", (4, 5)),
        (parse_element, "M(1", "expected ')', found 'end of input'", (3, 4)),
        (parse_element, "V(1", "expected ')', found 'end of input'", (3, 4)),
        (parse_element, "exp(i*1", "expected ')', found 'end of input'", (7, 8)),
    ],
)
def test_end_of_input_errors_report_message_and_span(parse, text, message, span):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message
    assert info.value.span == span


def test_a_one_term_divisor_must_be_a_scalar():
    with pytest.raises(ParseError, match="nonzero scalar divisor"):
        parse_element("M(1)/M(1)")
    assert parse_element("M(1)/2") == Element.m(1).scale(Fraction(1, 2))
