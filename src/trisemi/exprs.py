"""Canonical text form and parser for elements.

A monomial prints as ``coeff * M(freq) * D(freq) * V(t)`` with zero index
factors and unit coefficients left out, terms joined by + and - on the
same signed-combination rule as the sums below.
Dilation indices, frequencies, phase exponents and Gaussian amplitudes
are rational combinations with one text form: summands ``q*name`` joined
by + and -, the ``q*`` left out for a coefficient of +-1, and the unit key
(UNIT, the empty monomial ONE, the real part) printed as the bare
rational.  An atom is a phase monomial of degree one: monomials print as
``atom@{t}`` or ``atom*atom@{t}`` with ``@{t}`` the exponent shift, and
phases as ``exp(i*...)``.  The empty monomial sorts first, so the rational
part prints first in frequencies as in phases.  Printing then parsing is
the identity on canonical forms.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .algebra import Element, adjoint, mul
from .errors import NumericOverflow, ParseError
from .exactnum import (
    DilationIndex,
    Frequency,
    PhaseExponent,
    PhaseMonomial,
    PhaseSum,
    QI,
    Scalar,
    UNIT_SYMBOL,
)

# ---------------------------------------------------------------- printing


def _signed_join(parts: list[tuple[str, bool]]) -> str:
    out: list[str] = []
    for i, (text, neg) in enumerate(parts):
        if i == 0:
            out.append(("-" if neg else "") + text)
        else:
            out.append((" - " if neg else " + ") + text)
    return "".join(out)


def rational_text(q: Fraction) -> str:
    """``p`` or ``p/q``; NumericOverflow when a part has more digits than
    the interpreter converts to text (``sys.get_int_max_str_digits``)."""
    try:
        return str(q)
    except ValueError:
        raise NumericOverflow(
            f"a rational with a part over {sys.get_int_max_str_digits()} digits, "
            "the limit of int/str conversion, has no text form"
        ) from None


def _combo_parts(terms, name) -> list[tuple[str, bool]]:
    """Signed summands of a rational combination: ``name(key)`` is the
    key's text, or None for the unit key, which prints as the bare
    rational; a coefficient of +-1 prints as the name alone and any other
    as ``q*name``."""
    parts = []
    for key, q in terms:
        text = name(key)
        if text is None:
            text = rational_text(abs(q))
        elif abs(q) != 1:
            text = f"{rational_text(abs(q))}*{text}"
        parts.append((text, q < 0))
    return parts


def _combo_text(terms, name) -> str:
    return _signed_join(_combo_parts(terms, name)) or "0"


def _dil_name(sym: str) -> str | None:
    return None if sym == UNIT_SYMBOL else sym


def dil_text(t: DilationIndex) -> str:
    return _combo_text(t.terms, _dil_name)


def _key_name(key: PhaseMonomial) -> str | None:
    """``a@{t}`` for an atom or ``a*b@{t}`` for a phase monomial of degree
    two, the shift left out when zero; None for the empty monomial ONE."""
    if key.exp.is_zero():
        return key.base if key.bases else None
    return f"{key.base}@{{{dil_text(key.exp)}}}"


def freq_text(f: Frequency) -> str:
    return _combo_text(f.terms, _key_name)


def _phase_factor(pe: PhaseExponent) -> str:
    parts = _combo_parts(pe.terms, _key_name)
    if len(parts) == 1:
        text, neg = parts[0]
        return f"exp(-i*{text})" if neg else f"exp(i*{text})"
    return f"exp(i*({_signed_join(parts)}))"


def _amp_parts(a: QI) -> tuple[str, bool]:
    """Text and sign flag for a Gaussian rational amplitude, the
    combination of the unit key (real part) and ``i``."""
    parts = _combo_parts([(k, q) for k, q in ((None, a.re), ("i", a.im)) if q], lambda k: k)
    if len(parts) == 1:
        return parts[0]
    return f"({_signed_join(parts)})", False


def _phase_sum_parts(ps: PhaseSum) -> list[tuple[str, bool]]:
    """An amplitude of +-1 before a phase factor lends only its sign."""
    parts = []
    for pe, amp in ps.terms:
        body, neg = _amp_parts(amp)
        if not pe.is_zero():
            body = _phase_factor(pe) if body == "1" else f"{body}*{_phase_factor(pe)}"
        parts.append((body, neg))
    return parts


def _phase_sum_text(ps: PhaseSum, atomic: bool) -> str:
    if ps.is_zero():
        return "0"
    parts = _phase_sum_parts(ps)
    text = _signed_join(parts)
    if atomic and len(parts) > 1:
        return f"({text})"
    return text


def scalar_text(s: Scalar, atomic: bool = False) -> str:
    """A coefficient as text; a factored denominator prints as one
    division per factor and multiplicity, ``(num)/(f)/(f)/(g)``, which
    parses back to the same factors."""
    if not s.factors:
        return _phase_sum_text(s.num, atomic)
    dens = "".join(f"/({_phase_sum_text(f, False)})" for f, m in s.factors for _ in range(m))
    return f"({_phase_sum_text(s.num, False)}){dens}"


def element_text(x: Element) -> str:
    """Monomials on the signed-combination rule: a coefficient of one
    part lends its sign to the join, and a coefficient of +-1 before
    index factors is left out."""
    parts = []
    texts = (freq_text, freq_text, dil_text)
    for key, c in x.sorted_terms():
        factors = [f"{g}({text(i)})" for g, text, i in zip("MDV", texts, key) if not i.is_zero()]
        coeff = [] if c.factors else _phase_sum_parts(c.num)
        text, neg = coeff[0] if len(coeff) == 1 else (scalar_text(c, atomic=bool(factors)), False)
        if text != "1" or not factors:
            factors.insert(0, text)
        parts.append((" * ".join(factors), neg))
    return _signed_join(parts) or "0"


# ----------------------------------------------------------------- parsing

_SYMBOLS = "+-*/(){}@,"

# Deepest nesting of parentheses (adj(...) included) that the parser
# accepts.  Each level costs five stack frames, so this stays far below
# the interpreter's default recursion limit of 1000.
MAX_NESTING = 100


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.pos})"


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            toks.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i + 1
            seen_dot = False
            while j < n and (text[j].isdecimal() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            toks.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", (i, i + 1))
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> _Token:
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def advance(self) -> _Token:
        tok = self.toks[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.fail(f"expected {kind!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, (tok.pos, tok.pos + max(1, len(tok.text))))

    # rationals ------------------------------------------------------

    def _number(self) -> Fraction:
        """The value of the next token, a number; ParseError on one with
        more digits than the interpreter converts from text."""
        tok = self.expect("num")
        try:
            return Fraction(tok.text)
        except ValueError:
            raise ParseError(
                f"number of {len(tok.text)} characters exceeds the "
                f"{sys.get_int_max_str_digits()}-digit limit of int/str conversion",
                (tok.pos, tok.pos + len(tok.text)),
            ) from None

    def rational(self) -> Fraction:
        """An unsigned ``p`` or ``p/q``; the caller has taken the sign."""
        q = self._number()
        if self.peek().kind == "/" and self.peek(1).kind == "num":
            self.advance()
            den = self.peek()
            d = self._number()
            if not d:
                raise ParseError("zero denominator", (den.pos, den.pos + len(den.text)))
            q /= d
        return q

    # rational combinations ------------------------------------------

    def _combo_term(self, sign: int, ref, unit, what: str) -> tuple:
        """One summand ``q``, ``q*key`` or ``key`` after its sign, as a
        (key, q) item: ``ref()`` parses a key and ``unit`` is the key of a
        bare rational."""
        if self.peek().kind == "num":
            q = sign * self.rational()
            if self.peek().kind == "*" and self.peek(1).kind == "name":
                self.advance()
                return ref(), q
            return unit, q
        if self.peek().kind == "name":
            return ref(), Fraction(sign)
        raise self.fail(f"expected a {what} term")

    def _signed_sum(self, ref, unit, what: str) -> list[tuple]:
        """The summands of a sum with an optional leading sign; every
        later summand follows a + or -."""
        out = []
        while True:
            sign = 1
            if self.peek().kind in "+-":
                sign = -1 if self.advance().kind == "-" else 1
            out.append(self._combo_term(sign, ref, unit, what))
            if self.peek().kind not in "+-":
                return out

    def dilation(self) -> DilationIndex:
        return DilationIndex(self._signed_sum(self._symref, UNIT_SYMBOL, "dilation"))

    def _symref(self) -> str:
        return self.advance().text

    def _atomref(self) -> PhaseMonomial:
        name = self.expect("name").text
        exp = DilationIndex.zero()
        if self.peek().kind == "@":
            self.advance()
            self.expect("{")
            exp = self.dilation()
            self.expect("}")
        return PhaseMonomial((name,), exp)

    def frequency(self) -> Frequency:
        return Frequency(self._signed_sum(self._atomref, PhaseMonomial.empty(), "frequency"))

    def _monoref(self) -> PhaseMonomial:
        """A product of at most two atom references."""
        atoms = [self._atomref()]
        while self.peek().kind == "*" and self.peek(1).kind == "name":
            self.advance()
            atoms.append(self._atomref())
            if len(atoms) > 2:
                raise self.fail("phase monomials have degree at most two")
        return atoms[0] if len(atoms) == 1 else PhaseMonomial.product(*atoms)

    def _exp_call(self) -> Element:
        # after the name "exp"
        self.expect("(")
        sign = 1
        while self.peek().kind in "+-":
            if self.advance().kind == "-":
                sign = -sign
        tok = self.expect("name")
        if tok.text != "i":
            raise ParseError("exp argument must start with i*", (tok.pos, tok.pos + len(tok.text)))
        self.expect("*")
        phase = (self._monoref, PhaseMonomial.empty(), "phase")
        if self.peek().kind == "(":
            self.advance()
            pe = PhaseExponent(self._signed_sum(*phase))
            self.expect(")")
        else:
            pe = PhaseExponent([self._combo_term(1, *phase)])
        self.expect(")")
        if sign < 0:
            pe = -pe
        return Element.scalar(Scalar.phase(pe))

    # elements -------------------------------------------------------

    def element(self) -> Element:
        total = self._term()
        while self.peek().kind in "+-":
            op = self.advance().kind
            rhs = self._term()
            total = total + rhs if op == "+" else total - rhs
        return total

    def _term(self) -> Element:
        value = self._unary()
        while self.peek().kind in "*/":
            op = self.advance().kind
            rhs = self._unary()
            if op == "*":
                value = mul(value, rhs)
            else:
                s = _pure_scalar(rhs)
                if s is None or s.is_zero():
                    raise self.fail("division needs a nonzero scalar divisor")
                value = value.scale(s.inverse())
        return value

    def _unary(self) -> Element:
        neg = False
        while self.peek().kind in "+-":
            neg ^= self.advance().kind == "-"
        value = self._primary()
        return -value if neg else value

    def _group(self, paren: _Token) -> Element:
        """The element between the opening parenthesis ``paren`` and its
        closing one, at most MAX_NESTING levels deep."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"parentheses nested deeper than {MAX_NESTING} levels",
                (paren.pos, paren.pos + 1),
            )
        self.depth += 1
        inner = self.element()
        self.depth -= 1
        self.expect(")")
        return inner

    def _primary(self) -> Element:
        tok = self.peek()
        if tok.kind == "(":
            return self._group(self.advance())
        if tok.kind == "num":
            return Element.scalar(Scalar.from_rational(self._number()))
        if tok.kind == "name":
            name = tok.text
            if name == "i":
                self.advance()
                return Element.scalar(Scalar.gaussian(0, 1))
            if name in ("M", "D", "V"):
                self.advance()
                self.expect("(")
                index = self.dilation() if name == "V" else self.frequency()
                self.expect(")")
                return getattr(Element, name.lower())(index)
            if name == "adj":
                self.advance()
                return adjoint(self._group(self.expect("(")))
            if name == "exp":
                self.advance()
                return self._exp_call()
            raise self.fail(f"unknown name {name!r}")
        raise self.fail("expected an expression")


def _pure_scalar(x: Element) -> Scalar | None:
    if x.is_zero():
        return Scalar.zero()
    if len(x.terms) != 1:
        return None
    (key, c), = x.terms.items()
    lam, mu, t = key
    if lam.is_zero() and mu.is_zero() and t.is_zero():
        return c
    return None


def _parse(text: str, rule):
    """``rule`` applied to a parser over ``text``, which it must consume."""
    parser = _Parser(text)
    out = rule(parser)
    tok = parser.peek()
    if tok.kind != "end":
        raise parser.fail(f"unexpected trailing input {tok.text!r}")
    return out


def parse_element(text: str) -> Element:
    if not text.strip():
        return Element.identity()
    return _parse(text, _Parser.element)


def parse_frequency(text: str) -> Frequency:
    return _parse(text, _Parser.frequency)


def parse_dilation(text: str) -> DilationIndex:
    return _parse(text, _Parser.dilation)
