"""Tiny expression grammar for elements, used by the command line.

Grammar (rationals only):

    expr    := term (('+' | '-') term)*
    term    := signed ('*' signed)*
    signed  := ('-' | '+')* atom
    atom    := 'u' '(' rat (',' rat)* ')' | 'v' '(' ... ')'
             | rat ['i'] | 'i' | '(' expr ')'
    rat     := INT ['/' INT]

Example: ``u(1/2)*v(1/3) + 2i*v(1)``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .algebra import Element
from .errors import ExpressionError
from .lattice import Frame

_TOKEN = re.compile(r"\s*(?:(\d+)|([uvi])|([()*+,/-]))")
#: the deepest parenthesis nesting accepted, u(...) and v(...) included; well
#: inside the recursion limit, as each level costs the parser four frames
MAX_NESTING = 100


def _tokenize(text: str):
    if not isinstance(text, str):
        raise ExpressionError(f"an expression is a string, not {text!r:.40}", 0)
    tokens = []
    pos = depth = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExpressionError(f"unexpected character {stripped[0]!r}", pos)
        if m.group(1) is not None:
            try:
                value = int(m.group(1))
            except ValueError:  # more digits than the interpreter converts
                raise ExpressionError("integer has too many digits", m.start(1)) from None
            tokens.append(("int", value, m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            depth += (m.group(3) == "(") - (m.group(3) == ")")
            if depth > MAX_NESTING:
                raise ExpressionError("parentheses nested too deeply", m.start(3))
            tokens.append(("sym", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, frame: Frame):
        self.tokens = _tokenize(text)
        self.frame = frame
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, values: str, kind: str = "sym"):
        """Consume the next token if it is a ``kind`` token whose value is one of
        the characters of ``values``, and return that value; otherwise None."""
        tok_kind, val, _ = self.peek()
        if tok_kind == kind and val in values:
            self.next()
            return val
        return None

    def expect_sym(self, sym):
        kind, val, pos = self.next()
        if kind != "sym" or val != sym:
            raise ExpressionError(f"expected {sym!r}", pos)

    def parse(self) -> Element:
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExpressionError("trailing input", pos)
        return value

    def expr(self) -> Element:
        value = self.term()
        while sym := self.accept("+-"):
            rhs = self.term()
            value = value + rhs if sym == "+" else value - rhs
        return value

    def term(self) -> Element:
        value = self.signed()
        while self.accept("*"):
            value = value * self.signed()
        return value

    def sign(self) -> int:
        """Consume a run of '+' and '-' signs: -1 if it holds an odd number of '-'."""
        sign = 1
        while sym := self.accept("+-"):
            if sym == "-":
                sign = -sign
        return sign

    def signed(self) -> Element:
        sign = self.sign()
        atom = self.atom()
        return atom if sign == 1 else -atom

    def atom(self) -> Element:
        kind, val, pos = self.peek()
        if kind == "int":
            r = self.rational()
            if abs(r) > sys.float_info.max:
                raise ExpressionError("coefficient is too large for a float", pos)
            if self.accept("i", "name"):
                return Element.one(self.frame) * complex(0, float(r))
            return Element.one(self.frame) * r
        if self.accept("i", "name"):
            return Element.one(self.frame) * 1j
        if self.accept("uv", "name"):
            self.expect_sym("(")
            coords = [self.signed_rational()]
            while self.accept(","):
                coords.append(self.signed_rational())
            self.expect_sym(")")
            if len(coords) != self.frame.d:
                raise ExpressionError(
                    f"{val}(...) takes {self.frame.d} coordinate(s), got {len(coords)}", pos)
            return Element.u(self.frame, coords) if val == "u" else Element.v(self.frame, coords)
        if self.accept("("):
            inner = self.expr()
            self.expect_sym(")")
            return inner
        raise ExpressionError("expected a number, i, u(...), v(...) or parenthesis", pos)

    def rational(self) -> Fraction:
        kind, val, pos = self.next()
        if kind != "int":
            raise ExpressionError("expected an integer", pos)
        if not self.accept("/"):
            return Fraction(val)
        kind, den, pos = self.next()
        if kind != "int":
            raise ExpressionError("expected a denominator", pos)
        if den == 0:
            raise ExpressionError("zero denominator", pos)
        return Fraction(val, den)

    def signed_rational(self) -> Fraction:
        return self.sign() * self.rational()


def parse_element(text: str, frame: Frame) -> Element:
    """Parse an element expression over the given frame."""
    return _Parser(text, frame).parse()
